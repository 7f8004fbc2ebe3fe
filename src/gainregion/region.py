"""Single-transmitter power gain-region analysis.

Covers received power gains, the boundary beamformer parametrization over
simplex weights, the full/free/zero power rule, simplex-grid boundary
sweeps, dominance in a +-1 direction, and the constructive oracles
(segment covariances, full-power completion, random feasible covariances).

``boundary_strategy`` is the scalar oracle: one weight vector in, one
``BoundaryStrategy`` out.  The grid paths return columns instead, one array
per field with a row per weight: ``boundary_table`` gives directions (G, N),
power classes (G,) and unit-power gains (G, K) from stacked
eigendecompositions, and ``sweep_boundary`` gives weights, powers, classes
and gains with one row per sample.  Every row is bitwise what
``boundary_strategy`` (with ``p_free`` for a fanned-out free row) and
``strategy_gains`` give at its weights alone.  ``class_power`` is the one
full/free/zero -> power rule for both.

Channel lists here are plain sequences indexed 0-based; the network layer
maps receivers 1..K onto positions 0..K-1.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    EigenSystem,
    as_cvec,
    eig_hermitian,
    eig_tolerance,
    outer_product,
    projector_complement,
    split_ties,
    tied_blocks,
    weighted_combination,
)

__all__ = [
    "SIMPLEX_TOL",
    "PowerClass",
    "BoundaryStrategy",
    "simplex_grid",
    "simplex_grid_size",
    "check_simplex_weight",
    "check_direction",
    "power_gain",
    "power_rule",
    "class_power",
    "boundary_eigensystem",
    "boundary_strategy",
    "unit_gains",
    "strategy_gains",
    "boundary_table",
    "needs_power_control",
    "sweep_boundary",
    "dominates",
    "segment_covariance",
    "full_power_completion",
    "random_feasible_covariance",
    "hyperplane_bound",
    "weighted_objective",
]

# Tolerance on simplex weights summing to one.
SIMPLEX_TOL = 1e-12
# Weight rows per stacked eigendecomposition in boundary_table: enough to
# spread numpy's per-call cost, few enough to bound the temporary stacks.
_TABLE_BLOCK = 512


class PowerClass(enum.Enum):
    """Power allocation class of a boundary point, from the top eigenvalue."""

    FULL = "full"
    FREE = "free"
    ZERO = "zero"


_CLASS_BY_SIGN = np.array([PowerClass.ZERO, PowerClass.FREE, PowerClass.FULL], dtype=object)


def simplex_grid_size(k: int, step: float) -> int:
    """Row count of ``simplex_grid(k, step)``, counted without building it.

    ``step`` must divide 1 (within 1e-12); the count is C(m + K - 1, K - 1)
    for m = 1/step.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0.0 < step <= 1.0):
        raise ValueError(f"step must be in (0, 1], got {step}")
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-12 * max(1, m):
        raise ValueError(f"step {step} does not divide 1")
    return math.comb(m + k - 1, k - 1)


def simplex_grid(k: int, step: float) -> np.ndarray:
    """All weight vectors on the K-simplex with the given grid spacing.

    Rows are ordered lexicographically ascending; ``simplex_grid_size``
    validates the arguments and gives the row count.
    """
    size = simplex_grid_size(k, step)
    m = round(1.0 / step)
    # Stars and bars: K - 1 bars among m + K - 1 slots, in lexicographic
    # order of the bar positions, which is that of the parts between them.
    bars = np.array(list(itertools.combinations(range(m + k - 1), k - 1)), dtype=np.intp)
    parts = np.diff(bars.reshape(size, k - 1), prepend=-1, append=m + k - 1) - 1
    return parts / m


def check_simplex_weight(lam) -> np.ndarray:
    """Validate finite weights (K,), or rows of weights (G, K), in [0, 1]
    summing to 1 within SIMPLEX_TOL."""
    w = np.asarray(lam, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] == 0:
        raise ValueError(f"expected weights of shape (K,) or (G, K), got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite, got {w}")
    if np.any(w < -SIMPLEX_TOL) or np.any(w > 1.0 + SIMPLEX_TOL):
        raise ValueError(f"weights must lie in [0, 1], got {w}")
    sums = w.sum(axis=-1)
    off = np.abs(sums - 1.0) > SIMPLEX_TOL
    if off.any():
        raise ValueError(f"weights must sum to 1, got sum {sums[off].flat[0]!r}")
    return w


def check_direction(e) -> np.ndarray:
    """Validate a +-1 direction vector that is not all -1."""
    d = np.asarray(e, dtype=int)
    if d.ndim != 1 or d.size == 0:
        raise ValueError(f"expected a 1-D direction vector, got shape {d.shape}")
    if not np.all(np.isin(d, (-1, 1))):
        raise ValueError(f"direction entries must be +-1, got {d}")
    if np.all(d == -1):
        raise ValueError("direction vector of all -1 is infeasible")
    return d


def power_gain(q, h) -> float:
    """Received power gain h^H Q h of a covariance at one receiver."""
    a = np.asarray(q, dtype=np.complex128)
    v = as_cvec(h)
    if a.ndim != 2 or a.shape != (v.size, v.size):
        raise ValueError(f"covariance shape {a.shape} does not match channel dim {v.size}")
    return float(np.real(v.conj() @ (a @ v)))


def power_rule(z) -> PowerClass:
    """Classify the boundary power allocation from the top eigenvalue of Z.

    Full when the top eigenvalue is positive, Zero when negative, Free
    when it vanishes within tau = linalg.eig_tolerance of the eigenvalues,
    so the class does not change when Z is scaled.
    """
    return _power_class(eig_hermitian(z).values)


def _power_class(values):
    """Class of eigenvalues (N,), or an object array of the classes of a
    stack (..., N); each row is judged against its own eig_tolerance."""
    mu_max = values[..., -1]
    tau = eig_tolerance(values)
    # 0 below -tau, 2 above tau, 1 in the band
    return _CLASS_BY_SIGN[(mu_max > tau).astype(np.intp) - (mu_max < -tau) + 1]


def class_power(classes, p_free: float = 1.0):
    """Boundary power of a power class: 1 for FULL, 0 for ZERO and ``p_free``
    in [0, 1] for FREE.  An array of classes (G,) gives powers (G,).

    The default 1.0 for FREE is the only choice that stays on the boundary
    in every antenna regime and realizes the zero-forcing anchors at full
    power.
    """
    if not 0.0 <= p_free <= 1.0:
        raise ValueError(f"p_free must be in [0, 1], got {p_free}")
    power = np.where(
        classes == PowerClass.FULL, 1.0, np.where(classes == PowerClass.ZERO, 0.0, p_free)
    )
    return float(power) if power.ndim == 0 else power


def boundary_eigensystem(channels, lam, e) -> EigenSystem:
    """Eigensystem of Z = sum lam_l e_l h_l h_l^H with ties broken by the
    interior limit.

    On simplex faces Z can have multiple eigenvalues (equal within
    linalg.eig_tolerance), and then its eigenvectors are not unique.
    Every tied block is resolved as the limit of the eigensystems at
    lam + t (u - lam), t -> 0+, where u is the barycentre of the simplex,
    i.e. by the first-order split under Z_u - Z (see linalg.split_ties).
    At interior weights with distinct eigenvalues this is the plain
    eigensystem of Z.  The limit's top eigenvector lies in the channel
    span; if the split still leaves the top eigenvalue tied, the span rule
    picks the top member.
    """
    vecs = [as_cvec(h) for h in channels]
    return _boundary_eig(vecs, check_simplex_weight(lam), check_direction(e))


def _boundary_eig(vecs, lam: np.ndarray, e: np.ndarray) -> EigenSystem:
    """The interior-limit eigensystem; one eigendecomposition of Z."""
    es = eig_hermitian(weighted_combination(vecs, lam, e))
    blocks = tied_blocks(es.values)
    if blocks:
        # Z_u - Z = sum (1/K - lam_l) e_l h_l h_l^H
        es = split_ties(es, blocks, weighted_combination(vecs, 1.0 / lam.size - lam, e), vecs)
    return es


@dataclass(frozen=True)
class BoundaryStrategy:
    """A rank-1 boundary strategy: unit beamformer plus a power level.

    ``covariance()`` is ``power * w w^H``, so ``power`` is the realized
    trace (the emitted amplitude is sqrt(power)); in pareto_strategies it
    includes the power group split.  ``power_class`` is the class of the
    boundary weights ``lam``, which a split does not change.
    """

    direction: np.ndarray
    power: float
    lam: np.ndarray
    e: np.ndarray
    power_class: PowerClass

    def __post_init__(self):
        for name in ("direction", "lam", "e"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def covariance(self) -> np.ndarray:
        return self.power * outer_product(self.direction)


def boundary_strategy(channels, lam, e, p_free: float | None = None) -> BoundaryStrategy:
    """Boundary beamformer for weights lam along direction e.

    The direction is the top eigenvector of Z = sum lam_l e_l h_l h_l^H in
    boundary_eigensystem: where the top eigenvalue is multiple (on simplex
    faces), it is the limit of the directions at lam + t (u - lam) as
    t -> 0+, u the barycentre, so a face row of a sweep continues the
    interior rows next to it; only if that limit is still tied does the
    span rule pick it.  The power follows class_power for the full/free/zero
    class of the same top eigenvalue; for the Free class the caller may
    pick any ``p_free`` in [0, 1] (default 1.0).
    """
    lam = check_simplex_weight(lam)
    e = check_direction(e)
    vecs = [as_cvec(h) for h in channels]
    es = _boundary_eig(vecs, lam, e)
    cls = _power_class(es.values)
    power = class_power(cls, 1.0 if p_free is None else float(p_free))
    return BoundaryStrategy(
        direction=es.vectors[:, -1].copy(), power=power, lam=lam, e=e, power_class=cls
    )


def unit_gains(channels, w) -> np.ndarray:
    """Unit-power gains |w^H h_l|^2 of a beamformer (N,) at every channel,
    or of beamformer rows (G, N) as (G, K); one np.vdot per gain."""
    rows = np.asarray(w, dtype=np.complex128)
    if rows.ndim == 1:
        return unit_gains(channels, as_cvec(rows)[None, :])[0]
    if rows.ndim != 2 or not np.isfinite(rows).all():
        raise ValueError(f"expected finite beamformer rows, got shape {rows.shape}")
    vecs = [as_cvec(h) for h in channels]
    gains = [abs(np.vdot(r, h)) ** 2 for r in rows for h in vecs]
    return np.array(gains, dtype=float).reshape(len(rows), len(vecs))


def strategy_gains(channels, strategy: BoundaryStrategy) -> np.ndarray:
    """Gain tuple realized by a boundary strategy at every receiver."""
    return strategy.power * unit_gains(channels, strategy.direction)


def boundary_table(channels, grid, e) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary directions, power classes and unit-power gains at every
    weight row of ``grid``, as columns.

    Returns ``(directions, classes, gains)``: the unit beamformers (G, N),
    an object array (G,) of PowerClass and the gains |w^H h_l|^2 (G, K) of
    each row's beamformer at the K receivers.  A row's realized gains are
    its class_power times its gains row.  Every sweep builds on this table.

    Each block of _TABLE_BLOCK grid rows is one eig_hermitian call on the
    (B, N, N) stack of Z; a row whose top eigenvalue is tied is handed to
    boundary_strategy for the interior-limit split.  The split keeps the
    eigenvalues and rewrites only the columns of tied blocks, so no other
    row can change.  Every row's direction, class and gains are bitwise
    those of boundary_strategy and unit_gains at its weights alone.
    """
    vecs = [as_cvec(h) for h in channels]
    e = check_direction(e)
    grid = check_simplex_weight(grid)
    directions = np.empty((len(grid), vecs[0].size), dtype=np.complex128)
    classes = np.empty(len(grid), dtype=object)
    for start in range(0, len(grid), _TABLE_BLOCK):
        rows = slice(start, start + _TABLE_BLOCK)
        stack = eig_hermitian(weighted_combination(vecs, grid[rows], e))
        values = stack.values
        directions[rows] = stack.vectors[..., -1]
        classes[rows] = _power_class(values)
        # tied_blocks' test on the top pair: values[:, -2] within
        # eig_tolerance of values[:, -1] (never for N = 1)
        top_block = values >= (values[:, -1] - eig_tolerance(values))[:, None]
        for g in start + np.flatnonzero(np.count_nonzero(top_block, axis=1) > 1):
            directions[g] = boundary_strategy(vecs, grid[g], e).direction
    return directions, classes, unit_gains(vecs, directions)


def needs_power_control(n_antennas: int, e) -> bool:
    """Whether power control is required on the boundary in direction e.

    True when the antenna count does not exceed the number of receivers to
    be suppressed (the -1 entries of e); only then do free and zero power
    classes realize boundary points below full power.
    """
    e = check_direction(e)
    return n_antennas <= int(np.sum(e == -1))


def sweep_boundary(
    channels, e, step: float, p_free_samples: int = 11
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boundary samples over the full simplex grid, as columns.

    Returns ``(lam, power, classes, gains)``: weights (R, K), powers (R,),
    an object array (R,) of PowerClass and realized gains (R, K).  Rows are
    ordered lexicographically in lam, then by ascending power for
    free-class points.  Free-class fan-out over ``p_free_samples`` levels
    happens only when power control is required for this direction
    (otherwise only full power lies on the boundary and one row is
    emitted).  Row r is bitwise boundary_strategy at ``lam[r]`` (with
    ``p_free=power[r]`` on a fanned-out free row) and its strategy_gains.
    """
    vecs = [as_cvec(h) for h in channels]
    e = check_direction(e)
    if len(vecs) != e.size:
        raise ValueError(f"{len(vecs)} channels but direction has {e.size} entries")
    if p_free_samples < 2:
        raise ValueError("p_free_samples must be >= 2")
    grid = simplex_grid(len(vecs), step)
    _, classes, unit = boundary_table(vecs, grid, e)
    power = class_power(classes)
    rows = np.arange(len(grid))
    if needs_power_control(vecs[0].size, e):
        free = classes == PowerClass.FREE
        rows = np.repeat(rows, np.where(free, p_free_samples, 1))
        power = power[rows]
        power[free[rows]] = np.tile(np.linspace(0.0, 1.0, p_free_samples), np.count_nonzero(free))
    return grid[rows], power, classes[rows], power[:, None] * unit[rows]


def dominates(x, y, e) -> bool:
    """Whether x dominates y in direction e (componentwise, one strict).

    The comparison is exact; callers wanting a tolerance should round the
    gains beforehand.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    ev = check_direction(e)
    if not (xv.size == yv.size == ev.size):
        raise ValueError(
            f"length mismatch: x has {xv.size}, y has {yv.size}, e has {ev.size}"
        )
    dx = xv * ev
    dy = yv * ev
    return bool(np.all(dx >= dy) and np.any(dx > dy))


def segment_covariance(qx, qy, t: float) -> np.ndarray:
    """Convex combination t Qx + (1 - t) Qy of two feasible covariances.

    Gains are exactly bilinear, so the gain tuple of the result is the
    same convex combination of the input gain tuples.
    """
    a = np.asarray(qx, dtype=np.complex128)
    b = np.asarray(qy, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"covariance shapes differ: {a.shape} vs {b.shape}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t}")
    return t * a + (1.0 - t) * b


def full_power_completion(p, channels, target: int) -> np.ndarray:
    """Raise a covariance to full power without touching off-target gains.

    Adds the residual power along the projection of the target channel
    onto the orthogonal complement of all other channels, so the gain at
    ``target`` (0-based position in ``channels``) strictly increases while
    every other gain is unchanged.  Requires at least as many antennas as
    receivers and linearly independent channels.
    """
    q = np.asarray(p, dtype=np.complex128)
    vecs = [as_cvec(h) for h in channels]
    n, k = vecs[0].size, len(vecs)
    if not 0 <= target < k:
        raise ValueError(f"target must be in 0..{k - 1}, got {target}")
    if q.shape != (n, n):
        raise ValueError(f"covariance shape {q.shape} does not match channel dim {n}")
    if n < k:
        raise ValueError(f"needs n_antennas >= receivers, got {n} < {k}")
    trace = float(np.trace(q).real)
    if trace >= 1.0 - 1e-12:
        raise ValueError("already full power (trace >= 1)")
    others = [v for i, v in enumerate(vecs) if i != target]
    proj = projector_complement(others, dim=n)
    d = proj @ vecs[target]
    nd2 = float(np.real(np.vdot(d, d)))
    if nd2 <= (1e-12 * np.linalg.norm(vecs[target])) ** 2:
        raise ValueError("projected target channel is numerically zero")
    return q + (1.0 - trace) * np.outer(d, d.conj()) / nd2


def random_feasible_covariance(seed: int, n: int, rank: int | None = None) -> np.ndarray:
    """Deterministic random PSD covariance of rank ``rank`` (default n) and
    trace drawn from [0.05, 0.95], so strictly below full power.

    The eigenvalues are bounded away from zero relative to the trace, so
    the requested rank is achieved decisively.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = n if rank is None else int(rank)
    if not 1 <= r <= n:
        raise ValueError(f"rank must be in 1..{n}, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    basis, _ = np.linalg.qr(g)
    weights = rng.uniform(0.1, 1.0, r)
    trace = float(rng.uniform(0.05, 0.95))
    weights = weights / weights.sum() * trace
    return (basis * weights) @ basis.conj().T


def hyperplane_bound(channels, lam, e) -> float:
    """Supporting-hyperplane value max(0, mu_max(Z)) for the weighted gains.

    For every feasible covariance Q, sum_l lam_l e_l x_l(Q) never exceeds
    this bound; full-class boundary strategies attain it.
    """
    z = weighted_combination(channels, check_simplex_weight(lam), check_direction(e))
    es = eig_hermitian(z)
    return max(0.0, float(es.values[-1]))


def weighted_objective(gains, lam, e) -> float:
    """Weighted sum of gains sum_l lam_l e_l x_l."""
    x = np.asarray(gains, dtype=float)
    return float(np.sum(x * np.asarray(lam, dtype=float) * np.asarray(e, dtype=float)))
