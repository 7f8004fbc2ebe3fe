"""Multi-transmitter Pareto machinery.

Assembles per-transmitter boundary strategies into network strategy
profiles, evaluates log-SINR utilities, sweeps the joint parameter grid
into a utility cloud, filters it to the nondominated set, and carries the
two-user MRT/ZF-combination results with their verification oracles.

A transmitter's strategy in a profile is a ``region.BoundaryStrategy``
whose power is its boundary power times its power group split.

Sweeps are pure maps over a deterministic parameter enumeration: rows are
lexicographic over the axes (per-transmitter simplex grids, then power
group splits, then power levels for transmitters that need power
control), with the last axis varying fastest.  Each transmitter enters
the sweep only through the columns of its boundary table
(``region.boundary_table``, stacked eigendecompositions that match
``boundary_strategy`` bit for bit): the unit-power gains at its simplex
weights, times the ``class_power`` of each row's class (or the power axis
on free rows), times its group split, form one small array per
(transmitter, receiver) that broadcasts over the whole grid; no
per-weight strategy object is built.  The utilities are then evaluated one
slab of the first axis at a time; ``utilities_at`` is the scalar oracle
for any row.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import as_cvec, projector_complement, projector_onto, unit
from .network import Scenario, direction_vector
from .region import (
    PowerClass,
    boundary_eigensystem,
    boundary_strategy,
    boundary_table,
    check_simplex_weight,
    class_power,
    needs_power_control,
    simplex_grid,
    simplex_grid_size,
    strategy_gains,
    unit_gains,
)

__all__ = [
    "DEFAULT_POINT_BUDGET",
    "ReceiverRule",
    "UtilitySpec",
    "rate",
    "utilities",
    "ParameterPoint",
    "pareto_strategies",
    "strategy_gain_matrix",
    "utilities_at",
    "SweepAxis",
    "sweep_axes",
    "UtilitySweep",
    "sweep_utility_region",
    "pareto_filter",
    "pareto_filter_bruteforce",
    "mrt_beamformer",
    "zf_beamformer",
    "two_user_combination",
    "two_user_boundary_vector",
    "verify_two_user_identity",
    "alignment_search",
]

DEFAULT_POINT_BUDGET = 10_000_000


@dataclass(frozen=True)
class ReceiverRule:
    """Which transmitters add to a receiver's signal vs its interference."""

    signal: tuple[str, ...]
    interference: tuple[str, ...]

    def __post_init__(self):
        clash = set(self.signal) & set(self.interference)
        if clash:
            raise ValueError(f"signal and interference sets overlap: {sorted(clash)}")


@dataclass(frozen=True)
class UtilitySpec:
    """Log-SINR utility family: one signal/interference rule per receiver.

    Utilities are monotonically increasing in signal-set gains and
    decreasing in interference-set gains by construction.
    """

    rules: tuple[ReceiverRule, ...]
    noise_power: float

    def __post_init__(self):
        if not self.rules:
            raise ValueError("at least one receiver rule is required")
        if not (math.isfinite(self.noise_power) and self.noise_power > 0):
            raise ValueError(f"noise power must be positive, got {self.noise_power}")

    @property
    def n_receivers(self) -> int:
        return len(self.rules)

    @classmethod
    def from_scenario(cls, s: Scenario, noise_power: float | None = None) -> "UtilitySpec":
        """Derive the rules from the scenario's receiver sets."""
        rules = []
        for r in s.receivers:
            signal = tuple(t.tid for t in s.transmitters if r in t.intended)
            interference = tuple(t.tid for t in s.transmitters if r not in t.intended)
            rules.append(ReceiverRule(signal=signal, interference=interference))
        return cls(rules=tuple(rules), noise_power=s.noise_power if noise_power is None else noise_power)


def rate(spec: UtilitySpec, receiver: int, gains_by_tid: dict) -> float:
    """Achievable rate log2(1 + S / (sigma^2 + I)) at one receiver (1..K)."""
    if not 1 <= receiver <= spec.n_receivers:
        raise ValueError(f"receiver must be in 1..{spec.n_receivers}, got {receiver}")
    rule = spec.rules[receiver - 1]
    signal = sum(float(gains_by_tid[t]) for t in rule.signal)
    interference = sum(float(gains_by_tid[t]) for t in rule.interference)
    if signal < 0 or interference < 0:
        raise ValueError("gains must be nonnegative")
    return math.log2(1.0 + signal / (spec.noise_power + interference))


def utilities(spec: UtilitySpec, tids, gain_matrix) -> np.ndarray:
    """Utility tuple for a (transmitters x receivers) gain matrix."""
    g = np.asarray(gain_matrix, dtype=float)
    tids = list(tids)
    if g.shape != (len(tids), spec.n_receivers):
        raise ValueError(
            f"gain matrix shape {g.shape} does not match "
            f"({len(tids)}, {spec.n_receivers})"
        )
    out = np.empty(spec.n_receivers)
    for r in range(1, spec.n_receivers + 1):
        out[r - 1] = rate(spec, r, {t: g[i, r - 1] for i, t in enumerate(tids)})
    return out


@dataclass(frozen=True)
class ParameterPoint:
    """One point of the joint strategy parametrization.

    ``lambdas`` maps transmitter id to its simplex weights; ``splits`` maps
    a power group (tuple of ids) to the members' budget fractions;
    ``free_powers`` carries the power level used when a transmitter's
    weights land in the free class.
    """

    lambdas: dict
    splits: dict
    free_powers: dict

    def __post_init__(self):
        object.__setattr__(
            self, "lambdas", {k: np.asarray(v, dtype=float) for k, v in self.lambdas.items()}
        )
        object.__setattr__(
            self, "splits", {k: np.asarray(v, dtype=float) for k, v in self.splits.items()}
        )
        object.__setattr__(
            self, "free_powers", {k: float(v) for k, v in self.free_powers.items()}
        )


def _split_fraction(s: Scenario, point: ParameterPoint, tid: str) -> float:
    group = s.group_of(tid)
    if len(group) == 1:
        return 1.0
    try:
        fractions = point.splits[group]
    except KeyError:
        raise ValueError(f"parameter point lacks split fractions for group {group}") from None
    fractions = np.asarray(fractions, dtype=float)
    if fractions.size != len(group):
        raise ValueError(f"group {group} needs {len(group)} fractions, got {fractions.size}")
    return float(check_simplex_weight(fractions)[group.index(tid)])


def pareto_strategies(s: Scenario, point: ParameterPoint) -> dict:
    """Per-transmitter boundary strategies for one parameter point.

    Maps each transmitter id to its ``boundary_strategy`` (the dominant
    eigenvector of its weighted channel combination in its own direction
    vector, with the full/free/zero power rule), with the power scaled by
    its group's split fraction; ``power_class`` stays the class of its
    weights.  Splits must pass ``region.check_simplex_weight``.
    """
    out = {}
    for t in s.transmitters:
        try:
            lam = point.lambdas[t.tid]
        except KeyError:
            raise ValueError(f"parameter point lacks weights for transmitter {t.tid!r}") from None
        e = direction_vector(s, t.tid)
        bs = boundary_strategy(
            s.channels_for(t.tid), lam, e, p_free=point.free_powers.get(t.tid)
        )
        out[t.tid] = replace(bs, power=_split_fraction(s, point, t.tid) * bs.power)
    return out


def strategy_gain_matrix(s: Scenario, strategies: dict) -> np.ndarray:
    """Gains x[k, l] = power_k |w_k^H h_{k,l}|^2 for all transmitter/receiver pairs."""
    return np.array(
        [strategy_gains(s.channels_for(t.tid), strategies[t.tid]) for t in s.transmitters]
    )


def utilities_at(s: Scenario, spec: UtilitySpec, point: ParameterPoint) -> np.ndarray:
    """Utility tuple achieved at one parameter point."""
    gains = strategy_gain_matrix(s, pareto_strategies(s, point))
    return utilities(spec, s.tids, gains)


@dataclass(frozen=True)
class SweepAxis:
    """One axis of the joint parameter grid."""

    kind: str  # "lambda" | "split" | "power"
    label: object  # transmitter id (lambda/power) or group tuple (split)
    columns: tuple[str, ...]
    values: np.ndarray  # (n, width)

    def __len__(self) -> int:
        return self.values.shape[0]


def _axis_plan(s: Scenario) -> list[tuple[str, object, tuple[str, ...], int]]:
    """Kind, label, columns and part count of each axis of the joint grid.

    Lambda and split axes are simplex grids over their part count; a power
    axis has the m + 1 levels of a two-part grid.  Power axes exist only for
    transmitters with no more antennas than unintended receivers, the
    regime where boundary points below full power exist.
    """
    plan = []
    for t in s.transmitters:
        cols = tuple(f"lam_{t.tid}_{r}" for r in s.receivers)
        plan.append(("lambda", t.tid, cols, s.n_receivers))
    for g in s.power_groups:
        if len(g) > 1:
            plan.append(("split", g, tuple(f"split_{tid}" for tid in g), len(g)))
    for t in s.transmitters:
        if needs_power_control(t.n_antennas, direction_vector(s, t.tid)):
            plan.append(("power", t.tid, (f"p_{t.tid}",), 2))
    return plan


def sweep_axes(s: Scenario, step: float) -> list[SweepAxis]:
    """Axes of the joint grid: lambdas, then group splits, then powers."""
    plan = _axis_plan(s)
    p_grid = np.linspace(0.0, 1.0, simplex_grid_size(2, step)).reshape(-1, 1)
    return [
        SweepAxis(kind, label, cols, p_grid if kind == "power" else simplex_grid(parts, step))
        for kind, label, cols, parts in plan
    ]


def _gain_fields(s: Scenario, axes: list[SweepAxis]) -> dict:
    """Gain of every transmitter at every receiver over the joint grid.

    ``fields[tid][j]`` is unit gain x power x split (in that order) at
    receiver position j, as an array with one dimension per axis that has
    length 1 except along the transmitter's own lambda, power and split
    axes, so it broadcasts against the whole grid.
    """
    axis_by = {(ax.kind, ax.label): i for i, ax in enumerate(axes)}

    def along(values: np.ndarray, *positions: int) -> np.ndarray:
        shape = [1] * len(axes)
        for pos, n in zip(positions, values.shape):
            shape[pos] = n
        return values.reshape(shape)

    fields = {}
    for t in s.transmitters:
        lam_axis = axis_by[("lambda", t.tid)]
        _, classes, gains = boundary_table(
            s.channels_for(t.tid), axes[lam_axis].values, direction_vector(s, t.tid)
        )
        power = class_power(classes)
        power_axis = axis_by.get(("power", t.tid))
        if power_axis is None:
            power = along(power, lam_axis)
        else:
            free = classes == PowerClass.FREE
            levels = axes[power_axis].values[:, 0]
            table = np.where(free[:, None], levels[None, :], power[:, None])
            power = along(table, lam_axis, power_axis)
        group = s.group_of(t.tid)
        split_axis = axis_by.get(("split", group))
        split = 1.0
        if split_axis is not None:
            split = along(axes[split_axis].values[:, group.index(t.tid)], split_axis)
        fields[t.tid] = [
            along(gains[:, j], lam_axis) * power * split for j in range(s.n_receivers)
        ]
    return fields


class UtilitySweep:
    """Result of a utility-region sweep: utilities plus the axis grids.

    Rows are in C order over the axis shape, i.e. lexicographic over the
    parameter axes.  Row i holds ``utilities[i]`` at the parameters
    ``parameter_point(i)`` (as a ParameterPoint) or ``parameter_row(i)``
    (as one row of the CSV parameter columns); ``parameter_rows()`` gathers
    a block of rows.
    """

    def __init__(self, scenario: Scenario, axes: list[SweepAxis], utilities: np.ndarray):
        self.scenario = scenario
        self.axes = axes
        self.shape = tuple(len(ax) for ax in axes)
        self.utilities = utilities

    def __len__(self) -> int:
        return self.utilities.shape[0]

    @property
    def parameter_columns(self) -> tuple[str, ...]:
        return tuple(c for ax in self.axes for c in ax.columns)

    @property
    def utility_columns(self) -> tuple[str, ...]:
        return tuple(f"u_{r}" for r in self.scenario.receivers)

    def parameter_rows(self, indices) -> np.ndarray:
        """Parameter columns of flat grid indices: (n, P) for n indices, (P,) for one.

        One ``np.unravel_index`` over all the indices, then one fancy index
        into each axis's values, concatenated in axis order.
        """
        idx = np.unravel_index(indices, self.shape)
        return np.concatenate([ax.values[j] for ax, j in zip(self.axes, idx)], axis=-1)

    def parameter_row(self, i: int) -> np.ndarray:
        return self.parameter_rows(i)

    def parameter_point(self, i: int) -> ParameterPoint:
        lambdas, splits, free_powers = {}, {}, {}
        for ax, j in zip(self.axes, np.unravel_index(i, self.shape)):
            if ax.kind == "lambda":
                lambdas[ax.label] = ax.values[j]
            elif ax.kind == "split":
                splits[ax.label] = ax.values[j]
            else:
                free_powers[ax.label] = float(ax.values[j, 0])
        return ParameterPoint(lambdas=lambdas, splits=splits, free_powers=free_powers)

    def flat_index(self, indices) -> int:
        return int(np.ravel_multi_index(tuple(indices), self.shape))


def sweep_utility_region(
    s: Scenario,
    spec: UtilitySpec | None = None,
    step: float = 0.1,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> UtilitySweep:
    """Evaluate utilities over the joint parameter grid.

    The enumeration is the Cartesian product of every transmitter's
    simplex grid, every multi-member group's split grid and, where power
    control applies, a power grid with the same spacing; rows come out in
    lexicographic order.  Grids larger than ``point_budget`` are refused
    after counting, before any axis is built.
    """
    if spec is None:
        spec = UtilitySpec.from_scenario(s)
    if spec.n_receivers != s.n_receivers:
        raise ValueError("utility spec receiver count does not match the scenario")
    n_points = math.prod(simplex_grid_size(parts, step) for *_, parts in _axis_plan(s))
    if n_points > point_budget:
        raise ValueError(
            f"sweep would produce {n_points} points, above the budget of {point_budget}"
        )
    axes = sweep_axes(s, step)
    shape = tuple(len(ax) for ax in axes)
    fields = _gain_fields(s, axes)
    slab_shape = shape[1:]
    slab_n = math.prod(slab_shape)
    out = np.empty((n_points, s.n_receivers))
    sigma2 = spec.noise_power
    for i0 in range(shape[0]):
        rows = slice(i0 * slab_n, (i0 + 1) * slab_n)
        for j, rule in enumerate(spec.rules):
            signal = np.zeros(slab_shape)
            for tid in rule.signal:
                signal = signal + np.broadcast_to(fields[tid][j], shape)[i0]
            interference = np.zeros(slab_shape)
            for tid in rule.interference:
                interference = interference + np.broadcast_to(fields[tid][j], shape)[i0]
            out[rows, j] = np.log2(1.0 + signal / (sigma2 + interference)).ravel()
    return UtilitySweep(scenario=s, axes=axes, utilities=out)


def pareto_filter(points) -> list[int]:
    """Indices of the nondominated utility points (larger is better).

    A point is dropped when some other point is componentwise >= and
    strictly greater in at least one coordinate, so every exact duplicate
    of a kept point is kept.  Points must be finite; the result is sorted.

    The distinct points are swept once in descending lexicographic order,
    where an earlier point >= a later one everywhere dominates it, so no
    query needs a tie rule.  Up to three dimensions a staircase answers
    each query in O(log n); above, each point is compared with the front.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"expected a nonempty 2-D point list, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points contain non-finite entries")
    distinct, inverse = np.unique(pts, axis=0, return_inverse=True)
    descending = distinct[::-1]
    n, d = descending.shape
    if d <= 3:
        kept = _filter_staircase3(np.hstack([descending, np.zeros((n, 3 - d))]))
    else:
        kept = _filter_scan(descending)
    keep = np.zeros(n, dtype=bool)
    keep[kept] = True
    return np.flatnonzero(keep[::-1][inverse.reshape(-1)]).tolist()


def _filter_scan(pts: np.ndarray) -> list[int]:
    """Kept positions of distinct, descending points: one pass against the front."""
    front = np.empty_like(pts)
    kept = []
    for i, y in enumerate(pts):
        if (front[: len(kept)] >= y).all(axis=1).any():
            continue
        front[len(kept)] = y
        kept.append(i)
    return kept


def _filter_staircase3(pts: np.ndarray) -> list[int]:
    """Kept positions of distinct, descending 3-D points: a (y, z) staircase sweep.

    Every processed point has coordinate 0 >= the candidate's, so the
    candidate is dominated iff some kept point is also >= it on
    coordinates 1 and 2; the staircase (ys nondecreasing, zs
    nonincreasing) answers max{z : y >= q} by bisection.
    """
    ys: list[float] = []
    zs: list[float] = []
    kept = []
    for i, (y, z) in enumerate(zip(pts[:, 1].tolist(), pts[:, 2].tolist())):
        pos = bisect.bisect_left(ys, y)
        if pos < len(ys) and zs[pos] >= z:
            continue
        kept.append(i)
        # Drop prefix entries the new pair dominates in 2-D.
        j = pos
        while j > 0 and zs[j - 1] <= z:
            j -= 1
        ys[j:pos] = [y]
        zs[j:pos] = [z]
    return kept


def pareto_filter_bruteforce(points) -> list[int]:
    """O(n^2) pairwise reference filter; the correctness oracle."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"expected a nonempty 2-D point list, got shape {pts.shape}")
    n = pts.shape[0]
    keep = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if j == i:
                continue
            if np.all(pts[j] >= pts[i]) and np.any(pts[j] > pts[i]):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def mrt_beamformer(h_own) -> np.ndarray:
    """Maximum ratio transmission: beamform along the intended channel."""
    return unit(h_own)


def zf_beamformer(h_own, h_cross) -> np.ndarray:
    """Zero forcing: project the intended channel off the cross channel."""
    own = as_cvec(h_own)
    proj = projector_complement([as_cvec(h_cross)])
    d = proj @ own
    if np.linalg.norm(d) <= 1e-12 * np.linalg.norm(own):
        raise ValueError("channels are collinear; the zero-forcing direction vanishes")
    return d / np.linalg.norm(d)


def two_user_combination(lam_hat: float, h_own, h_cross) -> np.ndarray:
    """Unit combination of MRT and ZF for the two-user interference channel.

    lam_hat = 1 gives MRT, lam_hat = 0 gives ZF; intermediate values trace
    the efficient boundary.
    """
    if not 0.0 <= lam_hat <= 1.0:
        raise ValueError(f"lam_hat must be in [0, 1], got {lam_hat}")
    w = lam_hat * mrt_beamformer(h_own) + (1.0 - lam_hat) * zf_beamformer(h_own, h_cross)
    return w / np.linalg.norm(w)


def two_user_boundary_vector(lam1: float, h_own, h_cross) -> np.ndarray:
    """Boundary beamformer for two receivers in direction (+1, -1): the
    boundary strategy at simplex weights (lam1, 1 - lam1), whose Z is
    lam1 h1 h1^H - (1 - lam1) h2 h2^H."""
    return boundary_strategy([h_own, h_cross], [lam1, 1.0 - lam1], [1, -1]).direction


def verify_two_user_identity(lam1: float, h_own, h_cross) -> float:
    """Residual of the projector identity behind the MRT/ZF combination.

    The top eigenvector w of Z = lam1 h1 h1^H - (1 - lam1) h2 h2^H, from
    region.boundary_eigensystem at weights (lam1, 1 - lam1), must satisfy
    (lam1 |h1|^2 P_{h1} + (1 - lam1) |h2|^2 P^perp_{h2}) w =
    (mu + (1 - lam1) |h2|^2) w; returns the Euclidean residual.
    """
    own, cross = as_cvec(h_own), as_cvec(h_cross)
    es = boundary_eigensystem([own, cross], [lam1, 1.0 - lam1], [1, -1])
    mu, w = float(es.values[-1]), es.vectors[:, -1]
    n_own = float(np.real(np.vdot(own, own)))
    n_cross = float(np.real(np.vdot(cross, cross)))
    lhs = lam1 * n_own * projector_onto([own]) + (1.0 - lam1) * n_cross * projector_complement([cross])
    rhs = (mu + (1.0 - lam1) * n_cross) * w
    return float(np.linalg.norm(lhs @ w - rhs))


def alignment_search(w, h_own, h_cross) -> tuple[float, float]:
    """Find the boundary parameter whose eigenvector matches w.

    An eigenvector w of Z = lam1 h1 h1^H - (1 - lam1) h2 h2^H satisfies
    lam1 (h1 h1^H + h2 h2^H) w - mu w = h2 h2^H w, which is linear in the
    real unknowns (lam1, mu); they are solved by real least squares and
    lam1 is clipped to [0, 1].  Returns (lam1, alignment), the alignment
    being |<w, v_max(lam1)>|^2 against two_user_boundary_vector(lam1).
    """
    wv = unit(w)
    own, cross = as_cvec(h_own), as_cvec(h_cross)
    a_w = own * np.vdot(own, wv)
    b_w = cross * np.vdot(cross, wv)
    m = np.column_stack([a_w + b_w, -wv])
    coef = np.linalg.lstsq(
        np.vstack([m.real, m.imag]), np.concatenate([b_w.real, b_w.imag]), rcond=None
    )[0]
    lam1 = float(np.clip(coef[0], 0.0, 1.0))
    v = two_user_boundary_vector(lam1, own, cross)
    return lam1, float(unit_gains([v], wv)[0])
