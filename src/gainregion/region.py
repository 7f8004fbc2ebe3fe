"""Single-transmitter power gain-region analysis.

Covers received power gains, the boundary beamformer parametrization over
simplex weights, the full/free/zero power rule, simplex-grid boundary
sweeps, dominance in a +-1 direction, and the constructive oracles
(segment covariances, full-power completion, random feasible covariances).

Channel lists here are plain sequences indexed 0-based; the network layer
maps receivers 1..K onto positions 0..K-1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    EigenSystem,
    as_cvec,
    eig_hermitian,
    outer_product,
    projector_complement,
    split_ties,
    tied_blocks,
    weighted_combination,
)

__all__ = [
    "SIMPLEX_TOL",
    "ZERO_EIG_RTOL",
    "PowerClass",
    "BoundaryStrategy",
    "BoundarySample",
    "simplex_grid",
    "check_simplex_weight",
    "check_direction",
    "power_gain",
    "power_rule",
    "zero_tolerance",
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
# Relative tolerance around zero for the top eigenvalue in the power rule.
ZERO_EIG_RTOL = 1e-9


class PowerClass(enum.Enum):
    """Power allocation class of a boundary point, from the top eigenvalue."""

    FULL = "full"
    FREE = "free"
    ZERO = "zero"


def simplex_grid(k: int, step: float) -> np.ndarray:
    """All weight vectors on the K-simplex with the given grid spacing.

    ``step`` must divide 1 (within 1e-12).  Rows are ordered
    lexicographically ascending; the row count is C(m + K - 1, K - 1) for
    m = 1/step.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0.0 < step <= 1.0):
        raise ValueError(f"step must be in (0, 1], got {step}")
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-12 * max(1, m):
        raise ValueError(f"step {step} does not divide 1")
    rows = []

    def build(prefix, remaining, parts):
        if parts == 1:
            rows.append(prefix + [remaining])
            return
        for first in range(remaining + 1):
            build(prefix + [first], remaining - first, parts - 1)

    build([], m, k)
    return np.array(rows, dtype=float) / m


def check_simplex_weight(lam) -> np.ndarray:
    """Validate weights in [0, 1] summing to 1 within SIMPLEX_TOL."""
    w = np.asarray(lam, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"expected a 1-D weight vector, got shape {w.shape}")
    if np.any(w < -SIMPLEX_TOL) or np.any(w > 1.0 + SIMPLEX_TOL):
        raise ValueError(f"weights must lie in [0, 1], got {w}")
    if abs(w.sum() - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"weights must sum to 1, got sum {w.sum()!r}")
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
    when it vanishes within tau = 1e-9 * (1 + max|Z|).
    """
    return _power_class(float(eig_hermitian(z).values[-1]), z)


def zero_tolerance(z) -> float:
    """Half-width tau = ZERO_EIG_RTOL * (1 + max|Z|) of the band in which an
    eigenvalue of Z counts as zero, for the power rule and its checks."""
    return ZERO_EIG_RTOL * (1.0 + float(np.abs(np.asarray(z)).max()))


def _power_class(mu_max: float, z) -> PowerClass:
    tau = zero_tolerance(z)
    if mu_max > tau:
        return PowerClass.FULL
    if mu_max < -tau:
        return PowerClass.ZERO
    return PowerClass.FREE


def boundary_eigensystem(channels, lam, e) -> EigenSystem:
    """Eigensystem of Z = sum lam_l e_l h_l h_l^H with ties broken by the
    interior limit.

    On simplex faces Z can have multiple eigenvalues, and then its
    eigenvectors are not unique.  Every tied block is resolved as the
    limit of the eigensystems at lam + t (u - lam), t -> 0+, where u is the
    barycentre of the simplex, i.e. by the first-order split under
    Z_u - Z (see linalg.split_ties).  At interior weights with distinct
    eigenvalues this is the plain eigensystem of Z.  The limit's top
    eigenvector lies in the channel span; if the split still leaves the
    top eigenvalue tied, the span rule picks the top member.
    """
    vecs = [as_cvec(h) for h in channels]
    return _boundary_eig(vecs, check_simplex_weight(lam), check_direction(e))[1]


def _boundary_eig(vecs, lam: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, EigenSystem]:
    """Z and its interior-limit eigensystem; one eigendecomposition of Z."""
    z = weighted_combination(vecs, lam, e)
    es = eig_hermitian(z)
    blocks = tied_blocks(es.values)
    if blocks:
        # Z_u - Z = sum (1/K - lam_l) e_l h_l h_l^H
        es = split_ties(es, blocks, weighted_combination(vecs, 1.0 / lam.size - lam, e), vecs)
    return z, es


@dataclass(frozen=True)
class BoundaryStrategy:
    """A rank-1 boundary strategy: unit beamformer plus a power level.

    The realized transmit covariance is ``power * w w^H`` (the power is the
    covariance eigenvalue, so the emitted amplitude is sqrt(power)).
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
    span rule pick it.  The power follows the full/free/zero rule on the
    same top eigenvalue.  For the Free class the caller may pick any
    ``p_free`` in [0, 1]; the default 1.0 is the only choice that stays on
    the boundary in every antenna regime and realizes the zero-forcing
    anchors at full power.
    """
    lam = check_simplex_weight(lam)
    e = check_direction(e)
    vecs = [as_cvec(h) for h in channels]
    z, es = _boundary_eig(vecs, lam, e)
    w = es.vectors[:, -1].copy()
    cls = _power_class(float(es.values[-1]), z)
    if cls is PowerClass.FULL:
        power = 1.0
    elif cls is PowerClass.ZERO:
        power = 0.0
    else:
        power = 1.0 if p_free is None else float(p_free)
        if not 0.0 <= power <= 1.0:
            raise ValueError(f"p_free must be in [0, 1], got {p_free}")
    return BoundaryStrategy(direction=w, power=power, lam=lam, e=e, power_class=cls)


def unit_gains(channels, w) -> np.ndarray:
    """Unit-power gains |w^H h_l|^2 of a beamformer at every channel."""
    w = as_cvec(w)
    return np.array([abs(np.vdot(w, as_cvec(h))) ** 2 for h in channels])


def strategy_gains(channels, strategy: BoundaryStrategy) -> np.ndarray:
    """Gain tuple realized by a boundary strategy at every receiver."""
    return strategy.power * unit_gains(channels, strategy.direction)


def boundary_table(channels, grid, e) -> tuple[list[BoundaryStrategy], np.ndarray]:
    """Boundary strategies at every weight row of ``grid`` and their gains.

    Returns the strategies of boundary_strategy (free class at its default
    full power) and a (G, K) array whose row g holds the unit-power gains
    of strategy g at the K receivers; a strategy's realized gains are its
    power times that row.  Every sweep builds on this table.
    """
    vecs = [as_cvec(h) for h in channels]
    strategies = [boundary_strategy(vecs, lam, e) for lam in grid]
    return strategies, np.array([unit_gains(vecs, s.direction) for s in strategies])


def needs_power_control(n_antennas: int, e) -> bool:
    """Whether power control is required on the boundary in direction e.

    True when the antenna count does not exceed the number of receivers to
    be suppressed (the -1 entries of e); only then do free and zero power
    classes realize boundary points below full power.
    """
    e = check_direction(e)
    return n_antennas <= int(np.sum(e == -1))


@dataclass(frozen=True)
class BoundarySample:
    """One row of a boundary sweep: weights, strategy and its gains."""

    lam: np.ndarray
    strategy: BoundaryStrategy
    gains: np.ndarray


def sweep_boundary(channels, e, step: float, p_free_samples: int = 11) -> list[BoundarySample]:
    """Enumerate boundary strategies over the full simplex grid.

    Rows are ordered lexicographically in lam, then by ascending power for
    free-class points.  Free-class fan-out over ``p_free_samples`` levels
    happens only when power control is required for this direction
    (otherwise only full power lies on the boundary and one row is
    emitted).
    """
    vecs = [as_cvec(h) for h in channels]
    e = check_direction(e)
    if len(vecs) != e.size:
        raise ValueError(f"{len(vecs)} channels but direction has {e.size} entries")
    if p_free_samples < 2:
        raise ValueError("p_free_samples must be >= 2")
    strategies, gains = boundary_table(vecs, simplex_grid(len(vecs), step), e)
    fan_out = needs_power_control(vecs[0].size, e)
    p_levels = np.linspace(0.0, 1.0, p_free_samples)
    out = []
    for base, g in zip(strategies, gains):
        if base.power_class is PowerClass.FREE and fan_out:
            rows = [replace(base, power=float(p)) for p in p_levels]
        else:
            rows = [base]
        out.extend(BoundarySample(lam=s.lam, strategy=s, gains=s.power * g) for s in rows)
    return out


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


def random_feasible_covariance(
    seed: int, n: int, rank: int | None = None, full_power: bool = False
) -> np.ndarray:
    """Deterministic random PSD covariance with trace <= 1.

    The eigenvalues are bounded away from zero relative to the trace, so
    the requested rank is achieved decisively.  full_power pins the trace
    to exactly 1.
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
    trace = 1.0 if full_power else float(rng.uniform(0.05, 0.95))
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
