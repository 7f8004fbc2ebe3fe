"""Multi-transmitter Pareto machinery.

Evaluates the log-SINR utilities of per-transmitter boundary strategies,
sweeps the joint parameter grid into a utility cloud and filters it to the
nondominated set; the two-user MRT/ZF-combination results live in
``verify``.

As in the paper, a receiver's utility is its rate log2(1 + S / (sigma^2 +
I)): S sums the gains of the transmitters that intend it and I those of
all others.  This is the rule along whose boundary sections (+1 at
intended receivers, ``network.direction_vector``) every strategy list is
built; ``UtilitySpec`` holds only sigma^2.

A transmitter's gains at a parameter point are those of its
``region.BoundaryStrategy``, whose power is its boundary power, times its
power group split: the covariance it realizes is ``split *
strategy.covariance()``.

Sweeps are pure maps over a deterministic parameter enumeration: rows are
lexicographic over the axes (each transmitter's strategy list, then power
group splits), with the last axis varying fastest.  A transmitter's
strategy list is its ``region.sweep_boundary`` rows, the one FREE fan-out
rule of both sweeps; their gains times its group split form one gain table
per transmitter over its own axes alone, and no per-weight strategy
object is built.  The utilities are evaluated only when read, by one reader,
``UtilitySweep.chunks``: it takes any flat row indices (every row, or a
filter's kept rows), in runs of about ``_CHUNK_ROWS``, and reads each
transmitter's gains at one table offset per row, so a writer holds one run
at a time, never the whole cloud.  ``utilities_at`` is the scalar oracle
for any row, bitwise: it multiplies the table's factors in the table's
order.

The nondominated filter is Bentley's divide and conquer over the
distinct points.  A sub-problem of at most ``_LEAF`` rows compares all its
pairs of rows at once, one broadcast per column; a larger one on one or
two columns is a staircase sweep.  Beside the sort order it holds the
distinct rows' trailing columns and, beyond the staircase, Python floats
for at most ``_BLOCK`` rows.  It and ``pareto_filter_bruteforce``, its
pairwise oracle, return a sorted index array.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .network import Scenario, direction_vector
from .region import (
    DEFAULT_POINT_BUDGET,
    _check_budget,
    boundary_strategy,
    check_simplex_weight,
    needs_power_control,
    simplex_grid,
    simplex_grid_size,
    strategy_gains,
    sweep_boundary,
)

__all__ = [
    "UtilitySpec",
    "utilities",
    "ParameterPoint",
    "utilities_at",
    "SweepAxis",
    "UtilitySweep",
    "sweep_utility_region",
    "pareto_filter",
    "pareto_filter_bruteforce",
]


@dataclass(frozen=True)
class UtilitySpec:
    """The noise power of the log-SINR utilities; the signal and interference
    sets come from the scenario (``_receiver_sets``)."""

    noise_power: float

    def __post_init__(self):
        if not (math.isfinite(self.noise_power) and self.noise_power > 0):
            raise ValueError(f"noise power must be positive, got {self.noise_power}")

    @classmethod
    def from_scenario(cls, s: Scenario, noise_power: float | None = None) -> "UtilitySpec":
        """The scenario's noise power, or ``noise_power`` in its place."""
        return cls(s.noise_power if noise_power is None else noise_power)


def _receiver_sets(s: Scenario) -> list[tuple[list[int], list[int]]]:
    """Per receiver, the positions in ``s.transmitters`` of the transmitters
    that intend it (its signal set) and of the rest (its interference set)."""
    return [
        ([i for i, t in enumerate(s.transmitters) if r in t.intended],
         [i for i, t in enumerate(s.transmitters) if r not in t.intended])
        for r in s.receivers
    ]


def utilities(s: Scenario, spec: UtilitySpec, gain_matrix) -> np.ndarray:
    """Each receiver's rate for a (transmitters x receivers) gain matrix, rows
    in scenario order; S and I add their gains in scenario order."""
    g = np.asarray(gain_matrix, dtype=float)
    if g.shape != (len(s.transmitters), s.n_receivers):
        raise ValueError(
            f"gain matrix shape {g.shape} does not match "
            f"({len(s.transmitters)}, {s.n_receivers})"
        )
    out = np.empty(s.n_receivers)
    for j, sets in enumerate(_receiver_sets(s)):
        signal, interference = (sum(float(g[i, j]) for i in ids) for ids in sets)
        if signal < 0 or interference < 0:
            raise ValueError("gains must be nonnegative")
        out[j] = np.log2(1.0 + signal / (spec.noise_power + interference))
    return out


@dataclass(frozen=True)
class ParameterPoint:
    """One point of the joint strategy parametrization.

    ``lambdas`` maps transmitter id to its simplex weights; ``splits`` maps
    a power group (tuple of ids) to the members' budget fractions;
    ``free_powers`` maps a transmitter id to its power if its weights land
    in the free class.
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


def utilities_at(s: Scenario, spec: UtilitySpec, point: ParameterPoint) -> np.ndarray:
    """Utility tuple achieved at one parameter point, the scalar oracle of
    ``UtilitySweep.chunks``.

    Each transmitter's gains are the ``strategy_gains`` of its
    ``boundary_strategy`` (the dominant eigenvector of its weighted channel
    combination in its own direction vector, with the full/free/zero power
    rule) times its group's split fraction: the factors of its gain table,
    in the table's order, so every row is bitwise that of ``chunks``.
    Splits must pass ``region.check_simplex_weight``.
    """
    gains = []
    for t in s.transmitters:
        try:
            lam = point.lambdas[t.tid]
        except KeyError:
            raise ValueError(f"parameter point lacks weights for transmitter {t.tid!r}") from None
        h = s.channels_for(t.tid)
        bs = boundary_strategy(h, lam, direction_vector(s, t.tid), point.free_powers.get(t.tid))
        gains.append(strategy_gains(h, bs) * _split_fraction(s, point, t.tid))
    return utilities(s, spec, gains)


@dataclass(frozen=True)
class SweepAxis:
    """One axis of the joint parameter grid."""

    kind: str  # "lambda" (a transmitter's strategy list) | "split"
    label: object  # transmitter id (lambda) or group tuple (split)
    columns: tuple[str, ...]
    values: np.ndarray  # (n, width)

    def __len__(self) -> int:
        return self.values.shape[0]


def _sweep_axes(s: Scenario, step: float, point_budget: int) -> tuple[list[SweepAxis], list]:
    """The axes of the joint grid and each transmitter's gain table.

    A transmitter's axis is its strategy list, the R rows of
    ``region.sweep_boundary`` with m + 1 FREE levels (m = 1/step): columns
    ``lam_<t>_<r>``, plus ``p_<t>``, the row's boundary power, where power
    control applies.  Each multi-member group adds a split axis.

    ``fields[i]`` is ``(table, strides)`` of ``s.transmitters[i]``: ``table``
    is C-contiguous, (K, R * S) over the R rows and the group's S split
    fractions (one of 1.0 when alone), fractions fastest, each entry its
    ``sweep_boundary`` gain (unit x power) x split; ``strides`` maps the
    position in the axes of each own axis to its step along a table row.

    The product of the axis sizes, with each strategy list counted as its
    simplex grid until it is built, is refused above ``point_budget``
    before any grid and again after each list, before its table.
    """
    groups = [g for g in s.power_groups if len(g) > 1]
    n = len(s.transmitters)
    sizes = [simplex_grid_size(k, step) for k in [s.n_receivers] * n + [len(g) for g in groups]]
    _check_budget(math.prod(sizes), "points", point_budget)
    splits = {g: SweepAxis("split", g, tuple(f"split_{tid}" for tid in g),
                           simplex_grid(len(g), step)) for g in groups}
    position = {g: n + i for i, g in enumerate(groups)}
    axes, fields = [], []
    for i, t in enumerate(s.transmitters):
        e = direction_vector(s, t.tid)
        lam, power, _, gains = sweep_boundary(
            s.channels_for(t.tid), e, step, simplex_grid_size(2, step), point_budget
        )
        sizes[i] = len(lam)
        _check_budget(math.prod(sizes), "points", point_budget)
        columns = tuple(f"lam_{t.tid}_{r}" for r in s.receivers)
        if needs_power_control(t.n_antennas, e):
            columns, lam = (*columns, f"p_{t.tid}"), np.column_stack([lam, power])
        axes.append(SweepAxis("lambda", t.tid, columns, lam))
        group = s.group_of(t.tid)
        split, strides = np.ones(1), {i: 1}
        if group in splits:
            split = splits[group].values[:, group.index(t.tid)]
            strides = {i: len(split), position[group]: 1}
        table = gains.T[:, :, None] * split
        fields.append((np.ascontiguousarray(table.reshape(len(table), -1)), strides))
    return axes + list(splits.values()), fields


# About this many rows make one chunk of the joint utility evaluation.  It
# bounds an unfiltered sweep's memory, and is large enough that the numpy
# passes over a chunk's gathers stay few.
_CHUNK_ROWS = 4096


class UtilitySweep:
    """Result of a utility-region sweep: the axis grids and a lazy utility cloud.

    Rows are in C order over the axis shape, i.e. lexicographic over the
    parameter axes.  Row i holds ``utilities[i]`` at the parameters
    ``parameter_point(i)`` (as a ParameterPoint) or ``parameter_row(i)``
    (as one row of the CSV parameter columns).

    ``chunks(rows)`` is the one reader of the utilities: it evaluates any
    rows, in runs of at most ``_CHUNK_ROWS``, from the per-transmitter gain
    tables that ``sweep_utility_region`` built, and keeps none of them, so
    a caller that consumes them run by run holds one run at a time.
    ``utilities`` is every row read through it, evaluated at its first read
    and then kept.
    """

    def __init__(self, scenario: Scenario, axes: list[SweepAxis], spec: UtilitySpec, fields: list):
        self.scenario = scenario
        self.axes = axes
        self.shape = tuple(len(ax) for ax in axes)
        self._spec = spec
        self._fields = fields
        self._utilities = None

    def __len__(self) -> int:
        return math.prod(self.shape)

    @property
    def utilities(self) -> np.ndarray:
        """The (grid points, receivers) utility cloud: ``chunks()`` concatenated."""
        if self._utilities is None:
            out = np.empty((len(self), self.scenario.n_receivers))
            start = 0
            for _, u in self.chunks():
                out[start : start + len(u)] = u
                start += len(u)
            self._utilities = out
        return self._utilities

    def chunks(self, rows=None):
        """``(ix, utilities)`` for consecutive runs of at most ``_CHUNK_ROWS`` of
        the flat grid indices ``rows`` (every row in order when None).

        ``ix`` holds each row's index along every axis, and ``utilities`` the
        rows' (rows, receivers) utilities.  Each transmitter's gains are read
        from its table at one offset per row.  Each sum starts from zeros and
        adds its set's transmitters in scenario order, so no value depends on
        which rows share a run.
        """
        n = len(self) if rows is None else len(rows)
        sigma2 = self._spec.noise_power
        receiver_sets = _receiver_sets(self.scenario)
        for start in range(0, n, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, n)
            flat = np.arange(start, stop) if rows is None else np.asarray(rows[start:stop], np.intp)
            ix = np.unravel_index(flat, self.shape)
            offsets = [sum(ix[axis] * step for axis, step in strides.items())
                       for _, strides in self._fields]
            out = np.empty((len(flat), len(receiver_sets)))
            for j, sets in enumerate(receiver_sets):
                signal, interference = (
                    sum((self._fields[i][0][j].take(offsets[i]) for i in ids), np.zeros(len(flat)))
                    for ids in sets
                )
                out[:, j] = np.log2(1.0 + signal / (sigma2 + interference))
            yield ix, out

    @property
    def parameter_columns(self) -> tuple[str, ...]:
        return tuple(c for ax in self.axes for c in ax.columns)

    @property
    def utility_columns(self) -> tuple[str, ...]:
        return tuple(f"u_{r}" for r in self.scenario.receivers)

    def parameter_row(self, i: int) -> np.ndarray:
        """Parameter columns of flat grid index ``i``, concatenated in axis order."""
        idx = np.unravel_index(i, self.shape)
        return np.concatenate([ax.values[j] for ax, j in zip(self.axes, idx)])

    def parameter_point(self, i: int) -> ParameterPoint:
        """Flat grid index ``i`` as a ParameterPoint; a strategy row's ``p_<t>``
        is its transmitter's FREE power."""
        k = self.scenario.n_receivers
        lambdas, splits, free_powers = {}, {}, {}
        for ax, j in zip(self.axes, np.unravel_index(i, self.shape)):
            if ax.kind == "split":
                splits[ax.label] = ax.values[j]
                continue
            lambdas[ax.label] = ax.values[j, :k]
            if ax.columns[-1] == f"p_{ax.label}":
                free_powers[ax.label] = float(ax.values[j, k])
        return ParameterPoint(lambdas=lambdas, splits=splits, free_powers=free_powers)

    def flat_index(self, indices) -> int:
        return int(np.ravel_multi_index(tuple(indices), self.shape))


def sweep_utility_region(
    s: Scenario,
    spec: UtilitySpec | None = None,
    step: float = 0.1,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> UtilitySweep:
    """Build the joint parameter grid and its gain tables; the utilities follow lazily.

    The enumeration is the Cartesian product of every transmitter's
    strategy list and every multi-member group's split grid; rows come out
    in lexicographic order.  ``_sweep_axes`` refuses a grid above
    ``point_budget``.  Every refusal and every boundary table happens here;
    the returned ``UtilitySweep`` evaluates the utilities, run by run, only
    when they are read.
    """
    if spec is None:
        spec = UtilitySpec.from_scenario(s)
    axes, fields = _sweep_axes(s, step, point_budget)
    return UtilitySweep(scenario=s, axes=axes, spec=spec, fields=fields)


def pareto_filter(points) -> np.ndarray:
    """Sorted index array of the nondominated utility points (larger is better).

    A point is dropped when some other point is componentwise >= and
    strictly greater in at least one coordinate, so every exact duplicate
    of a kept point is kept.  Points must be finite.

    The distinct points are taken in descending lexicographic order, where a
    point is dominated iff some earlier point is >= it on every coordinate
    after the first, so no query needs a tie rule; ``_dominated`` answers
    it.  Beside the sort order it holds one sorted column, then the distinct
    rows' trailing columns.
    """
    pts = _check_points(points)
    # A stable sort, column 0 first, and a row-change mask or'ed over the
    # sorted columns one at a time; about twice as fast as np.unique(axis=0).
    order = np.lexsort(pts.T[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for col in pts.T:
        col = col[order]
        new[1:] |= col[1:] != col[:-1]
    del col
    rest = pts[order[new][::-1], int(pts.shape[1] > 1):]
    every = np.ones(len(rest), dtype=bool)
    keep = ~_dominated(rest, every, every)[::-1]
    del rest
    # Each sorted row's rank among the distinct rows, summed in place.
    rank = new.astype(np.intp)
    np.cumsum(rank, out=rank)
    rank -= 1
    kept = np.zeros(len(order), dtype=bool)
    kept[order] = keep[rank]
    return np.flatnonzero(kept)


def _check_points(points) -> np.ndarray:
    """The points as a nonempty 2-D float array of finite entries."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"expected a nonempty 2-D point list, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points contain non-finite entries")
    return pts


# Sub-problems of at most this many rows compare all pairs of rows at once:
# below it, a split or a staircase costs more in per-call set-up than the
# n * n * m comparisons it saves.
_LEAF = 48
# _EARLIER[j, i] is true when j < i.
_EARLIER = np.triu(np.ones((_LEAF, _LEAF), dtype=bool), 1)
_BLOCK = 256


def _dominated(pts: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Mask of the ``dst`` rows that some earlier ``src`` row is >= on every column.

    At most ``_LEAF`` rows are compared pairwise at once.  Above it, on
    one or two columns (y the first, z the last) a staircase of the ``src``
    rows so far (ys nondecreasing, zs nonincreasing) answers max{z : y >= q}
    by bisection, reading ``_BLOCK`` rows at a time into Python floats.  On
    more, as in Bentley's divide and conquer, each half of the rows is
    answered; then the left ``src`` and live right ``dst`` rows, sorted by
    column 0 descending with left first on ties, ask the same question on
    the columns after it.
    """
    n, m = pts.shape
    if n <= _LEAF:
        # before[j, i]: row j is an earlier src row >= row i on every column.
        # One column at a time is 2-5x faster than .all(axis=2) on (n, n, m).
        before = _EARLIER[:n, :n] & src[:, None]
        for col in pts.T:
            before &= col[:, None] >= col
        return dst & before.any(axis=0)
    if m <= 2:
        ys: list[float] = []
        zs: list[float] = []
        out = dst.copy()
        for a in range(0, n, _BLOCK):
            b = a + _BLOCK
            block = zip(range(a, b), pts[a:b, 0].tolist(), pts[a:b, -1].tolist(), src[a:b].tolist())
            for i, y, z, s in block:
                pos = bisect.bisect_left(ys, y)
                if pos < len(ys) and zs[pos] >= z:
                    continue
                out[i] = False
                if s:
                    # Drop prefix entries the new pair dominates in 2-D.
                    j = pos
                    while j > 0 and zs[j - 1] <= z:
                        j -= 1
                    ys[j:pos] = [y]
                    zs[j:pos] = [z]
        return out
    out = np.zeros(n, dtype=bool)
    h = n // 2
    out[:h] = _dominated(pts[:h], src[:h], dst[:h])
    out[h:] = _dominated(pts[h:], src[h:], dst[h:])
    left = src[:h].nonzero()[0]
    right = h + (dst[h:] & ~out[h:]).nonzero()[0]
    if left.size and right.size:
        rows = np.concatenate([left, right])
        rows = rows[(-pts[rows, 0]).argsort(kind="stable")]
        out[rows] |= _dominated(pts[rows, 1:], rows < h, rows >= h)
    return out


def pareto_filter_bruteforce(points) -> np.ndarray:
    """Index array of the O(n^2) pairwise reference filter; the oracle."""
    pts = _check_points(points)
    return np.flatnonzero([not np.any((pts >= p).all(1) & (pts > p).any(1)) for p in pts])
