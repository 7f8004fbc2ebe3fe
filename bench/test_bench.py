"""Tests of the benchmark's own logic: span arithmetic, output checks, wrappers.

The output checks run on tiny grids (step 0.5), where every row is sampled,
so each planted wrong row must be reported.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gainregion import cli  # noqa: E402
from gainregion.network import generate_channels, ic_skeleton, mixed_skeleton, save_scenario  # noqa: E402
from gainregion.pareto import sweep_utility_region  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _scenario(tmp_path, skeleton, seed=7):
    path = tmp_path / "scenario.json"
    save_scenario(generate_channels(seed, skeleton), path)
    return path


def _cli(tmp_path, *args):
    out = tmp_path / "out.csv"
    assert cli.main([*args, "--out", str(out)]) == 0
    return out


def _replace_line(path, row, new_fields):
    """Replace data row ``row`` (0-based, after the meta and header lines)."""
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("# ")) + 1
    lines[first + row] = ",".join(new_fields)
    path.write_text("\n".join(lines) + "\n")


def test_self_time_subtracts_union_of_direct_children():
    rows = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],  # overlaps a: together they cover 1..5
        ["c", 7.0, 8.0, 0],
        ["grandchild", 7.2, 7.9, 3],  # only subtracted from c
    ]
    own = spans.self_times(rows)
    assert own == pytest.approx([5.0, 2.0, 3.0, 0.3, 0.7])


def test_layer_metrics_from_spans():
    rows = [
        ["cli.main", 0.0, 10.0, -1],
        ["network.load_scenario", 0.0, 1.0, 0],
        ["region.sweep_boundary", 1.0, 9.0, 0],
        ["region.boundary_strategy", 2.0, 4.0, 2],
        ["linalg.eig_hermitian", 2.0, 3.0, 3],
        ["region.boundary_strategy", 5.0, 7.0, 2],
    ]
    m = spans.layer_metrics(rows, {"rows_written": 4}, stress="region.boundary_s")
    assert m["region.boundary_s"] == (4.0, "s")
    assert m["region.boundary_calls"] == (2, "count")
    assert m["region.boundary_us_per_call"][0] == pytest.approx(2e6)
    assert m["region.sweep_boundary_self_s"][0] == pytest.approx(4.0)
    assert m["linalg.eigh_per_boundary"][0] == pytest.approx(0.5)
    assert m["cli.write_s"][0] == pytest.approx(1.0)
    assert m["cli.write_rows_per_s"][0] == pytest.approx(4.0)
    assert m["stress.layer_share"][0] == pytest.approx(0.4)
    assert m["pareto.filter_s"] == (0.0, "s")


def test_gain_check_flags_planted_row(tmp_path):
    scenario = _scenario(tmp_path, ic_skeleton(3, 2))
    out = _cli(tmp_path, "sweep-gain", "--scenario", str(scenario), "--transmitter", "1", "--step", "0.5")
    ref = checks.GainReference(scenario, "1", 0.5)
    assert ref.check(out) == []
    _, _, rows = checks.read_csv(out)
    fields = rows[3].split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-6) + 1e-3)
    _replace_line(out, 3, fields)
    assert any("oracle" in p for p in ref.check(out))


def test_gain_check_flags_missing_row(tmp_path):
    scenario = _scenario(tmp_path, ic_skeleton(3, 2))
    out = _cli(tmp_path, "sweep-gain", "--scenario", str(scenario), "--transmitter", "1", "--step", "0.5")
    text = out.read_text().splitlines()
    out.write_text("\n".join(text[:-1]) + "\n")
    assert checks.GainReference(scenario, "1", 0.5).check(out)


def test_cloud_check_flags_planted_row(tmp_path):
    scenario = _scenario(tmp_path, ic_skeleton(3, 3))
    out = _cli(tmp_path, "sweep-rates", "--scenario", str(scenario), "--step", "0.5")
    ref = checks.CloudReference(scenario, 0.5)
    assert ref.check(out) == []
    _, _, rows = checks.read_csv(out)
    fields = rows[0].split(",")
    fields[-1] = repr(float(fields[-1]) + 0.25)
    _replace_line(out, 0, fields)
    assert any("oracle" in p for p in ref.check(out))


def test_front_check_flags_planted_dominated_row(tmp_path):
    scenario = _scenario(tmp_path, mixed_skeleton(3))
    out = _cli(tmp_path, "sweep-rates", "--scenario", str(scenario), "--step", "0.5", "--filter")
    ref = checks.FrontReference(scenario, 0.5)
    assert ref.check(out) == []
    _, _, rows = checks.read_csv(out)
    kept = ref.grid_indices(checks.parse_rows(rows)[:, : ref.n_params])
    # A dropped grid point strictly between two kept ones takes the place of
    # the first, so the rows stay in ascending grid order.
    j, d = next(
        (j, d)
        for j in range(len(kept) - 1)
        for d in range(kept[j] + 1, kept[j + 1])
    )
    sweep = sweep_utility_region(ref.scenario, ref.spec, 0.5)
    fields = [format(float(v), ".17g") for v in (*sweep.parameter_row(d), *sweep.utilities[d])]
    _replace_line(out, j, fields)
    problems = ref.check(out)
    assert any("dominated" in p for p in problems), problems


def test_front_check_flags_dropped_duplicate(tmp_path):
    scenario = _scenario(tmp_path, mixed_skeleton(3))
    out = _cli(tmp_path, "sweep-rates", "--scenario", str(scenario), "--step", "0.5", "--filter")
    ref = checks.FrontReference(scenario, 0.5)
    meta, _, rows = checks.read_csv(out)
    utils = [line.split(",")[ref.n_params :] for line in rows]
    j = next(j for j in range(len(rows)) if utils.count(utils[j]) > 1)
    lines = out.read_text().splitlines()
    lines.remove(rows[j])
    lines[lines.index(f"# rows={meta['rows']}")] = f"# rows={len(rows) - 1}"
    out.write_text("\n".join(lines) + "\n")
    assert any("duplicate groups" in p for p in ref.check(out))


def test_wrappers_leave_cli_output_unchanged(tmp_path):
    scenario = _scenario(tmp_path, mixed_skeleton(3))
    args = ["sweep-rates", "--scenario", str(scenario), "--step", "0.5", "--filter"]
    plain = _cli(tmp_path, *args).read_bytes()
    traced_out = tmp_path / "traced.csv"
    originals = {name: getattr(sys.modules[f"gainregion.{mod}"], name) for mod, name in spans.LAYERS}
    record = spans.traced_main([*args, "--out", str(traced_out)])
    assert record["rc"] == 0
    assert traced_out.read_bytes() == plain
    names = {row[0] for row in record["spans"]}
    assert {"cli.main", "network.load_scenario", "pareto.sweep_utility_region",
            "pareto.pareto_filter", "region.boundary_strategy", "linalg.eig_hermitian"} <= names
    assert record["counts"]["filter_in"] == record["counts"]["grid_points"] == 648
    for mod, name in spans.LAYERS:
        assert getattr(sys.modules[f"gainregion.{mod}"], name) is originals[name]
    assert cli.sweep_utility_region is originals["sweep_utility_region"]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    m = spans.layer_metrics([["cli.main", 0.0, 1.0, -1]], {}, stress="cli.write_s")
    m["trace.overhead_s"] = (0.0, "s")
    assert all(units[name] == m[name][1] for name in run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
