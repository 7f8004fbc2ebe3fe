"""Single-transmitter power gain-region analysis.

Covers the boundary beamformer parametrization over simplex weights, the
full/free/zero power rule and simplex-grid boundary sweeps; the check-only
results on the gain-region (segment covariances, full-power completion,
the supporting-hyperplane bound) live in ``verify``.

``boundary_strategy`` is the scalar oracle: one weight vector in, one
``BoundaryStrategy`` out.  The grid paths return columns instead, one array
per field with a row per weight: ``boundary_table`` gives directions (G, N),
power classes (G,) and unit-power gains (G, K) from stacked
eigendecompositions, and ``sweep_boundary`` gives weights, powers, classes
and gains with one row per sample.  Every row is bitwise what
``boundary_strategy`` (with ``p_free`` for a fanned-out free row) and
``strategy_gains`` give at its weights alone.  ``class_power``, the one
full/free/zero -> power rule for both, is the only home of FREE power.
``sweep_boundary`` refuses grids and fan-outs of more rows than its
budget before building them.

A transmitter's channels are one (K, N) matrix (``linalg.as_channels``);
the network layer maps receivers 1..K onto rows 0..K-1.  ``unit_gains`` is
the one gain evaluator, for the table and the scalar oracle alike.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    EIG_RTOL,
    EigenSystem,
    as_channels,
    combination_scale,
    eig_hermitian,
    eig_tolerance,
    outer_product,
    split_ties,
    tied_blocks,
    weighted_combination,
)

__all__ = [
    "DEFAULT_POINT_BUDGET",
    "SIMPLEX_TOL",
    "PowerClass",
    "BoundaryStrategy",
    "simplex_grid",
    "simplex_grid_size",
    "check_simplex_weight",
    "check_direction",
    "class_power",
    "boundary_eigensystem",
    "boundary_strategy",
    "unit_gains",
    "strategy_gains",
    "boundary_table",
    "needs_power_control",
    "sweep_boundary",
]

# Most rows a sweep may enumerate; a larger grid is refused after counting.
DEFAULT_POINT_BUDGET = 10_000_000
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
    if not math.isfinite(1.0 / step):
        raise ValueError(f"step {step} is too small: 1/step overflows")
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
    # The positions stream into one array, with no Python object per row.
    combos = itertools.combinations(range(m + k - 1), k - 1)
    bars = np.fromiter(itertools.chain.from_iterable(combos), np.intp, size * (k - 1))
    out = np.empty((size, k))
    out[:, :-1] = bars.reshape(size, k - 1)
    del bars
    out[:, -1] = m + k - 1
    # Part i is the gap between bar i - 1 (bar -1 sits at -1) and bar i, less
    # one; all are small integers, so the float arithmetic is exact.  One
    # column at a time, right to left: numpy buffers 2-D strided updates.
    for i in range(k - 1, 0, -1):
        out[:, i] -= out[:, i - 1]
        out[:, i] -= 1
    out /= m
    return out


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
    d = np.asarray(e)
    if d.ndim != 1 or d.size == 0:
        raise ValueError(f"expected a 1-D direction vector, got shape {d.shape}")
    # Compare before the integer cast, which would truncate 1.5 to 1.
    if not np.all(np.isin(d, (-1, 1))):
        raise ValueError(f"direction entries must be +-1, got {d}")
    d = d.astype(int)
    if np.all(d == -1):
        raise ValueError("direction vector of all -1 is infeasible")
    return d


def _power_class(values, tau):
    """Class of eigenvalues (N,), or an object array of the classes of a
    stack (..., N): FULL, ZERO or FREE as each top eigenvalue lies above
    tau, below -tau or between.  boundary_strategy and boundary_table take
    tau = EIG_RTOL * linalg.combination_scale, which holds where Z cancels
    far below its terms; verify.power_rule, which has Z alone, takes
    linalg.eig_tolerance of its eigenvalues, never larger."""
    mu_max = values[..., -1]
    # 0 below -tau, 2 above tau, 1 in the band
    return _CLASS_BY_SIGN[(mu_max > tau).astype(np.intp) - (mu_max < -tau) + 1]


def class_power(classes, p_free=1.0):
    """Boundary power of a power class: 1 for FULL, 0 for ZERO and ``p_free``
    in [0, 1] for FREE.  Classes and levels broadcast: classes (G,) give
    powers (G,), classes (G, 1) against levels (P,) a power table (G, P).

    The default 1.0 for FREE is the only choice that stays on the boundary
    in every antenna regime and realizes the zero-forcing anchors at full
    power.
    """
    levels = np.asarray(p_free, dtype=float)
    if not np.all((levels >= 0.0) & (levels <= 1.0)):
        raise ValueError(f"p_free must be in [0, 1], got {p_free}")
    power = np.where(
        classes == PowerClass.FULL, 1.0, np.where(classes == PowerClass.ZERO, 0.0, levels)
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
    lam = check_simplex_weight(lam)
    e = check_direction(e)
    h = as_channels(channels)
    es = eig_hermitian(weighted_combination(h, lam, e), combination_scale(h, lam))
    blocks = tied_blocks(es.values)
    if blocks:
        # Z_u - Z = sum (1/K - lam_l) e_l h_l h_l^H
        es = split_ties(es, blocks, weighted_combination(h, 1.0 / lam.size - lam, e), h)
    return es


@dataclass(frozen=True)
class BoundaryStrategy:
    """A rank-1 boundary strategy: unit beamformer plus a power level.

    ``covariance()`` is ``power * w w^H``, so ``power`` is the boundary
    power, the trace of that covariance (the emitted amplitude is
    sqrt(power)).  A transmitter in a shared power group realizes its
    group split times this covariance (``pareto.utilities_at``).
    ``power_class`` is the class of the boundary weights ``lam``.
    """

    direction: np.ndarray
    power: float
    lam: np.ndarray
    power_class: PowerClass

    def __post_init__(self):
        for name in ("direction", "lam"):
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
    class of the same top eigenvalue, judged against EIG_RTOL times the
    combination scale of Z's terms (see _power_class); for the Free class the
    caller may pick any ``p_free`` in [0, 1] (default 1.0).
    """
    lam = check_simplex_weight(lam)
    es = boundary_eigensystem(channels, lam, e)
    cls = _power_class(es.values, EIG_RTOL * combination_scale(channels, lam))
    power = class_power(cls, 1.0 if p_free is None else p_free)
    return BoundaryStrategy(
        direction=es.vectors[:, -1].copy(), power=power, lam=lam, power_class=cls
    )


def unit_gains(channels, w) -> np.ndarray:
    """Unit-power gains |w^H h_l|^2 of a beamformer (N,) at every channel,
    or of beamformer rows (G, N) as (G, K).  A hypot squared by float_power
    gives each gain the bits of the scalar abs(dot) ** 2, alone or stacked."""
    rows = np.asarray(w, dtype=np.complex128)
    if rows.ndim not in (1, 2) or not np.isfinite(rows).all():
        raise ValueError(f"expected finite beamformer rows, got shape {rows.shape}")
    d = np.vecdot(rows[..., None, :], as_channels(channels))
    return np.float_power(np.hypot(d.real, d.imag), 2.0)


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
    h = as_channels(channels)
    e = check_direction(e)
    grid = check_simplex_weight(grid)
    directions = np.empty((len(grid), h.shape[1]), dtype=np.complex128)
    classes = np.empty(len(grid), dtype=object)
    for start in range(0, len(grid), _TABLE_BLOCK):
        rows = slice(start, start + _TABLE_BLOCK)
        z = weighted_combination(h, grid[rows], e)
        scale = combination_scale(h, grid[rows])
        stack = eig_hermitian(z, scale)
        values = stack.values
        directions[rows] = stack.vectors[..., -1]
        classes[rows] = _power_class(values, EIG_RTOL * scale)
        # tied_blocks' test on the top pair: values[:, -2] within
        # eig_tolerance of values[:, -1] (never for N = 1)
        top_block = values >= (values[:, -1] - eig_tolerance(values))[:, None]
        for g in start + np.flatnonzero(np.count_nonzero(top_block, axis=1) > 1):
            directions[g] = boundary_strategy(h, grid[g], e).direction
    return directions, classes, unit_gains(h, directions)


def needs_power_control(n_antennas: int, e) -> bool:
    """Whether power control is required on the boundary in direction e.

    True when the antenna count does not exceed the number of receivers to
    be suppressed (the -1 entries of e); only then do free and zero power
    classes realize boundary points below full power.
    """
    e = check_direction(e)
    return n_antennas <= int(np.sum(e == -1))


def sweep_boundary(
    channels, e, step: float, p_free_samples: int = 11, point_budget: int = DEFAULT_POINT_BUDGET
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
    More grid rows, or more rows after the fan-out, than ``point_budget``
    are refused before they are built.
    """
    h = as_channels(channels)
    e = check_direction(e)
    if len(h) != e.size:
        raise ValueError(f"{len(h)} channels but direction has {e.size} entries")
    if p_free_samples < 2:
        raise ValueError("p_free_samples must be >= 2")
    _check_budget(simplex_grid_size(len(h), step), "grid rows", point_budget)
    grid = simplex_grid(len(h), step)
    # Only the classes and gains are kept: the directions go before the fan-out.
    classes, unit = boundary_table(h, grid, e)[1:]
    rows = np.arange(len(grid))
    levels = 1.0
    free = classes == PowerClass.FREE
    n_free = int(np.count_nonzero(free)) if needs_power_control(h.shape[1], e) else 0
    if n_free:
        n_rows = len(grid) + n_free * (p_free_samples - 1)
        _check_budget(n_rows, "rows after the free fan-out", point_budget)
        rows = np.repeat(rows, np.where(free, p_free_samples, 1))
        levels = np.ones(len(rows))
        levels[free[rows]] = np.tile(np.linspace(0.0, 1.0, p_free_samples), n_free)
    power = class_power(classes[rows], levels)
    return grid[rows], power, classes[rows], power[:, None] * unit[rows]


def _check_budget(n_rows: int, what: str, budget: int) -> None:
    if n_rows > budget:
        raise ValueError(f"sweep would produce {n_rows} {what}, above the budget of {budget}")
