"""Output checks for the CSV files the benchmarked CLI commands write.

Each reference is built once per run from the scenario, in process, and
checks a CSV file against the library's scalar oracles: the header and row
count against the run's own grid, sampled rows against
``region.boundary_strategy`` or ``pareto.utilities_at``, and a filtered
front against the full utility cloud.  ``check`` returns a list of
problems; an empty list means the file passed.
"""

from __future__ import annotations

import numpy as np

from gainregion.network import direction_vector, load_scenario
from gainregion.pareto import UtilitySpec, sweep_utility_region, utilities_at
from gainregion.region import PowerClass, boundary_strategy, simplex_grid

# Agreement required between the CLI's values and the scalar oracles.
RTOL = 1e-9
# Oracle recomputations per file: strided rows for sweep-gain and
# sweep-rates, plus kept and dropped rows for a filtered front.
N_ORACLE = 41
N_FRONT_SAMPLE = 256
# Free-class power levels per weight; the CLI default for --p-samples.
P_SAMPLES = 11


def read_csv(path):
    """Split a CLI point-cloud file into (meta, columns, data lines)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta = {}
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        meta[key] = value
        i += 1
    if i == len(lines):
        return meta, [], []
    return meta, lines[i].split(","), lines[i + 1 :]


def parse_rows(lines) -> np.ndarray:
    """Data lines as a float array, one row per line."""
    return np.array([line.split(",") for line in lines], dtype=float)


def _close(got, want) -> bool:
    """Agreement to RTOL relative to the largest magnitude in ``want``."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = float(np.abs(want).max(initial=0.0))
    return bool(np.all(np.abs(got - want) <= RTOL * scale))


def _sample(n: int, k: int) -> np.ndarray:
    """Up to k evenly spaced indices in 0..n-1, always including both ends."""
    if n <= 0:
        return np.zeros(0, dtype=int)
    return np.unique(np.linspace(0, n - 1, min(n, k)).round().astype(int))


def _header_problems(meta, columns, rows, want_columns) -> list[str]:
    problems = []
    if columns != list(want_columns):
        problems.append(f"header {columns} != expected {list(want_columns)}")
    if meta.get("rows") != str(len(rows)):
        problems.append(f"meta rows={meta.get('rows')} but the file has {len(rows)} rows")
    width = len(want_columns)
    bad = [i for i, line in enumerate(rows) if line.count(",") + 1 != width]
    if bad:
        problems.append(f"{len(bad)} rows without {width} fields, first at row {bad[0]}")
    return problems


class GainReference:
    """Expected ``sweep-gain`` output for one transmitter of a scenario."""

    def __init__(self, scenario_path, transmitter: str, step: float):
        s = load_scenario(scenario_path)
        self.channels = s.channels_for(transmitter)
        self.e = direction_vector(s, transmitter)
        self.grid = simplex_grid(s.n_receivers, step)
        self.k = s.n_receivers
        self.columns = (
            [f"lambda_{r}" for r in s.receivers]
            + ["p", "power_class"]
            + [f"x_{r}" for r in s.receivers]
        )
        self.points = len(self.grid)

    def check(self, path) -> list[str]:
        meta, columns, rows = read_csv(path)
        problems = _header_problems(meta, columns, rows, self.columns)
        if problems:
            return problems
        k = self.k
        fields = [line.split(",") for line in rows]
        lam = np.array([r[:k] for r in fields], dtype=float)
        power = np.array([r[k] for r in fields], dtype=float)
        classes = [r[k + 1] for r in fields]
        gains = np.array([r[k + 2 :] for r in fields], dtype=float)
        # Walk the weights: one row each, p_samples rows for a free weight.
        p_levels = np.linspace(0.0, 1.0, P_SAMPLES)
        first_row = []
        i = 0
        for g, weight in enumerate(self.grid):
            width = P_SAMPLES if i < len(rows) and classes[i] == PowerClass.FREE.value else 1
            block = slice(i, i + width)
            if i + width > len(rows) or not np.array_equal(lam[block], np.tile(weight, (width, 1))):
                return [f"rows from {i} do not hold grid weight {g} {weight.tolist()}"]
            if width > 1 and not np.array_equal(power[block], p_levels):
                return [f"free weight {g} rows {i}.. do not step p over {P_SAMPLES} levels"]
            first_row.append(i)
            i += width
        if i != len(rows):
            return [f"{len(rows)} rows but the grid of {len(self.grid)} weights accounts for {i}"]
        free = [g for g, r in enumerate(first_row) if classes[r] == PowerClass.FREE.value]
        for g in sorted(set(_sample(len(self.grid), N_ORACLE).tolist()) | set(free)):
            bs = boundary_strategy(self.channels, self.grid[g], self.e)
            unit_gains = np.array([abs(np.vdot(bs.direction, h)) ** 2 for h in self.channels])
            i = first_row[g]
            if classes[i] != bs.power_class.value:
                problems.append(f"row {i}: class {classes[i]} != oracle {bs.power_class.value}")
                continue
            width = P_SAMPLES if g in free else 1
            levels = p_levels if g in free else np.array([bs.power])
            if not np.array_equal(power[i : i + width], levels):
                problems.append(f"row {i}: power {power[i]!r} != oracle {bs.power!r}")
            for j, p in enumerate(levels):
                if not _close(gains[i + j], p * unit_gains):
                    problems.append(f"row {i + j}: gains {gains[i + j]} != oracle {p * unit_gains}")
        return problems


class _SweepReference:
    def __init__(self, scenario_path, step: float):
        s = load_scenario(scenario_path)
        self.scenario = s
        self.spec = UtilitySpec.from_scenario(s)
        self.sweep = sweep_utility_region(s, self.spec, step)
        self.columns = list(self.sweep.parameter_columns) + list(self.sweep.utility_columns)
        self.n_params = len(self.sweep.parameter_columns)
        self.points = len(self.sweep)

    def _oracle_problems(self, indices, params, utils) -> list[str]:
        """Rows (parameter and utility values) against utilities_at at their grid index."""
        problems = []
        for i, p, u in zip(indices, params, utils):
            if not np.array_equal(p, self.sweep.parameter_row(i)):
                problems.append(f"grid point {i}: parameters {p} != {self.sweep.parameter_row(i)}")
                continue
            want = utilities_at(self.scenario, self.spec, self.sweep.parameter_point(i))
            if not _close(u, want):
                problems.append(f"grid point {i}: utilities {u} != oracle {want}")
        return problems

    def _header(self, path):
        meta, columns, rows = read_csv(path)
        problems = _header_problems(meta, columns, rows, self.columns)
        if meta.get("grid_points") != str(self.points):
            problems.append(f"meta grid_points={meta.get('grid_points')} != grid size {self.points}")
        return rows, problems


class CloudReference(_SweepReference):
    """Expected unfiltered ``sweep-rates`` output: every grid point, in order."""

    def check(self, path) -> list[str]:
        rows, problems = self._header(path)
        if len(rows) != self.points:
            problems.append(f"{len(rows)} rows != {self.points} grid points")
        if problems:
            return problems
        idx = _sample(self.points, N_ORACLE)
        values = parse_rows(rows[i] for i in idx)
        return self._oracle_problems(idx, values[:, : self.n_params], values[:, self.n_params :])


class FrontReference(_SweepReference):
    """Expected filtered ``sweep-rates`` output: the nondominated grid points."""

    def __init__(self, scenario_path, step: float):
        super().__init__(scenario_path, step)
        # Parameter values of each axis -> index along it, to map rows to grid points.
        self._axis_index = [
            {tuple(v): j for j, v in enumerate(ax.values)} for ax in self.sweep.axes
        ]
        self._axis_width = [ax.values.shape[1] for ax in self.sweep.axes]
        # Row -> group of exactly equal utility tuples in the cloud.
        _, self._group = np.unique(self.sweep.utilities, axis=0, return_inverse=True)
        self._group = self._group.ravel()

    def grid_indices(self, params: np.ndarray) -> np.ndarray | None:
        """Flat grid index of each parameter row, or None if one is off the grid."""
        out = np.empty(len(params), dtype=int)
        for r, row in enumerate(params):
            idx, start = [], 0
            for lookup, width in zip(self._axis_index, self._axis_width):
                j = lookup.get(tuple(row[start : start + width]))
                if j is None:
                    return None
                idx.append(j)
                start += width
            out[r] = self.sweep.flat_index(idx)
        return out

    def check(self, path) -> list[str]:
        rows, problems = self._header(path)
        if problems:
            return problems
        if not rows:
            return ["the front is empty"]
        values = parse_rows(rows)
        kept_u = values[:, self.n_params :]
        idx = self.grid_indices(values[:, : self.n_params])
        if idx is None:
            return ["a row's parameters are not a grid point"]
        if np.any(np.diff(idx) <= 0):
            return ["rows are not distinct grid points in ascending order"]
        cloud = self.sweep.utilities
        if not _close(kept_u, cloud[idx]):
            return ["row utilities differ from the sweep at their grid points"]
        # The reference cloud itself against the scalar oracle.
        ref = _sample(self.points, 16)
        problems += self._oracle_problems(ref, [self.sweep.parameter_row(i) for i in ref], cloud[ref])
        # Every exact duplicate of a kept row is kept too.
        members = int(np.isin(self._group, self._group[idx]).sum())
        if members != len(idx):
            problems.append(f"{len(idx)} rows kept but their duplicate groups have {members} members")
        kept_sample = kept_u[_sample(len(idx), N_FRONT_SAMPLE)]
        bad = _dominated(kept_sample, cloud)
        if bad.any():
            problems.append(f"{int(bad.sum())} sampled kept rows are dominated, e.g. {kept_sample[bad][0]}")
        dropped = np.setdiff1d(np.arange(self.points), idx)
        dropped_sample = cloud[dropped[_sample(len(dropped), N_FRONT_SAMPLE)]]
        undominated = ~_dominated(dropped_sample, kept_u)
        if undominated.any():
            problems.append(
                f"{int(undominated.sum())} sampled dropped rows are not dominated by the front, "
                f"e.g. {dropped_sample[undominated][0]}"
            )
        return problems


def _dominated(queries: np.ndarray, by: np.ndarray, chunk: int = 64) -> np.ndarray:
    """For each query row, whether some row of ``by`` is >= everywhere and > somewhere."""
    out = np.zeros(len(queries), dtype=bool)
    for start in range(0, len(queries), chunk):
        q = queries[start : start + chunk]
        ge = np.ones((len(q), len(by)), dtype=bool)
        gt = np.zeros((len(q), len(by)), dtype=bool)
        for k in range(by.shape[1]):
            ge &= by[None, :, k] >= q[:, None, k]
            gt |= by[None, :, k] > q[:, None, k]
        out[start : start + chunk] = (ge & gt).any(axis=1)
    return out


def reference_for(workload, scenario_path):
    """The reference that checks this workload's output on this scenario."""
    if workload.kind == "gain":
        return GainReference(scenario_path, workload.transmitter, workload.step)
    if workload.kind == "cloud":
        return CloudReference(scenario_path, workload.step)
    return FrontReference(scenario_path, workload.step)
