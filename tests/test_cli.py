import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainregion import cli
from gainregion.cli import main
from gainregion.network import (
    Scenario,
    TransmitterSpec,
    direction_vector,
    load_scenario,
    save_scenario,
    snr_to_noise,
)
from gainregion.pareto import (
    UtilitySpec,
    pareto_filter,
    pareto_filter_bruteforce,
    sweep_utility_region,
)
from gainregion.region import PowerClass, strategy_gains, sweep_boundary
from gainregion.verify import run_suite, suite_names

from conftest import BROADCAST3, oracle_sweep


def run(*argv):
    return main(list(argv))


def read_cloud(path):
    meta = {}
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("gen", "--template", "ic", "--users", "3", "--antennas", "3",
               "--seed", "7", "--out", str(a)) == 0
    assert run("gen", "--template", "ic", "--users", "3", "--antennas", "3",
               "--seed", "7", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_mixed_template_receiver_sets(tmp_path):
    out = tmp_path / "mixed.json"
    assert run("gen", "--template", "mixed", "--seed", "1", "--out", str(out)) == 0
    s = load_scenario(out)
    assert len(s.transmitters) == 3
    assert s.n_receivers == 3
    by_id = {t.tid: t for t in s.transmitters}
    assert by_id["11"].intended == {1}
    assert by_id["12"].intended == {2}
    assert by_id["2"].intended == {2, 3}
    assert s.power_groups == (("11", "12"), ("2",))
    # Two physical transmitters: 11 and 12 share one channel key.
    assert by_id["11"].channel_key == by_id["12"].channel_key


def test_gen_unknown_template(tmp_path, capsys):
    code = run("gen", "--template", "bogus", "--seed", "1",
               "--out", str(tmp_path / "x.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "ic" in err and "mixed" in err


def test_gen_from_skeleton(tmp_path):
    first = tmp_path / "first.json"
    run("gen", "--template", "ic", "--users", "2", "--antennas", "2",
        "--seed", "1", "--out", str(first))
    refilled = tmp_path / "refilled.json"
    assert run("gen", "--skeleton", str(first), "--seed", "1",
               "--out", str(refilled)) == 0
    assert first.read_bytes() == refilled.read_bytes()


def test_sweep_gain_full_grid(tmp_path):
    scen = tmp_path / "ic.json"
    run("gen", "--template", "ic", "--users", "3", "--antennas", "3",
        "--seed", "7", "--out", str(scen))
    out = tmp_path / "gain.csv"
    assert run("sweep-gain", "--scenario", str(scen), "--transmitter", "1",
               "--step", "0.02", "--out", str(out)) == 0
    meta, header, rows = read_cloud(out)
    assert len(rows) == 1326
    assert header == ["lambda_1", "lambda_2", "lambda_3", "p", "power_class",
                      "x_1", "x_2", "x_3"]
    classes = {row[4] for row in rows}
    assert classes <= {"full", "free"}
    # All gains within the MRT box.
    s = load_scenario(scen)
    box = [np.linalg.norm(s.channel("1", r)) ** 2 for r in (1, 2, 3)]
    for row in rows:
        for j in range(3):
            assert -1e-12 <= float(row[5 + j]) <= box[j] + 1e-9


def test_sweep_gain_power_controlled(tmp_path):
    scen = tmp_path / "ic2.json"
    run("gen", "--template", "ic", "--users", "3", "--antennas", "2",
        "--seed", "5", "--out", str(scen))
    out = tmp_path / "gain.csv"
    assert run("sweep-gain", "--scenario", str(scen), "--transmitter", "1",
               "--step", "0.1", "--out", str(out)) == 0
    _, _, rows = read_cloud(out)
    zero_rows = [r for r in rows if r[4] == "zero"]
    assert zero_rows
    for row in zero_rows:
        assert all(float(row[5 + j]) == 0.0 for j in range(3))
    free_rows = [r for r in rows if r[4] == "free"]
    assert len({row[3] for row in free_rows}) == 11  # p fan-out


def test_sweep_gain_single_receiver(tmp_path):
    scen = tmp_path / "one.json"
    run("gen", "--template", "ic", "--users", "1", "--antennas", "2",
        "--seed", "2", "--out", str(scen))
    out = tmp_path / "gain.csv"
    assert run("sweep-gain", "--scenario", str(scen), "--step", "0.5",
               "--out", str(out)) == 0
    _, _, rows = read_cloud(out)
    assert len(rows) == 1
    s = load_scenario(scen)
    assert float(rows[0][3]) == pytest.approx(
        np.linalg.norm(s.channel("1", 1)) ** 2, rel=1e-12
    )


def test_sweep_gain_direction_with_a_leading_minus(tmp_path):
    # argparse reads "-1,..." after a space as an option; the "=" form works.
    scen = tmp_path / "ic.json"
    run("gen", "--template", "ic", "--users", "3", "--antennas", "3",
        "--seed", "4", "--out", str(scen))
    out = tmp_path / "gain.csv"
    assert run("sweep-gain", "--scenario", str(scen), "--transmitter", "1",
               "--direction=-1,+1,+1", "--step", "0.1", "--out", str(out)) == 0
    meta, _, _ = read_cloud(out)
    assert meta["direction"] == "-1,1,1"
    s = load_scenario(scen)
    lam, power, classes, gains = sweep_boundary(s.channels_for("1"), [-1, 1, 1], 0.1)
    expected = [
        ",".join([per_value_line([*lam[r], power[r]]), classes[r].value,
                  per_value_line(gains[r])])
        for r in range(len(power))
    ]
    assert data_lines(out) == expected


@pytest.mark.parametrize(
    "direction, message",
    [
        ("+1,-1", "direction needs 3 entries, got 2"),
        ("+1,0,-1", "direction entries must be +1 or -1, got '0'"),
        ("-1,-1,-1", "direction vector of all -1 is infeasible"),
    ],
)
def test_sweep_gain_rejects_a_bad_direction(tmp_path, capsys, direction, message):
    scen = tmp_path / "ic.json"
    run("gen", "--template", "ic", "--users", "3", "--antennas", "3",
        "--seed", "4", "--out", str(scen))
    capsys.readouterr()
    out = tmp_path / "gain.csv"
    assert run("sweep-gain", "--scenario", str(scen), "--transmitter", "1",
               f"--direction={direction}", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_rates_two_user_grid(tmp_path):
    scen = tmp_path / "ic.json"
    run("gen", "--template", "ic", "--users", "2", "--antennas", "2",
        "--seed", "3", "--out", str(scen))
    out = tmp_path / "rates.csv"
    assert run("sweep-rates", "--scenario", str(scen), "--step", "0.5",
               "--out", str(out)) == 0
    meta, header, rows = read_cloud(out)
    assert len(rows) == 9
    assert header[-2:] == ["u_1", "u_2"]


def test_sweep_rates_filter_is_oracle_subset(tmp_path):
    scen = tmp_path / "ic.json"
    run("gen", "--template", "ic", "--users", "3", "--antennas", "3",
        "--seed", "9", "--out", str(scen))
    full = tmp_path / "full.csv"
    filt = tmp_path / "filt.csv"
    assert run("sweep-rates", "--scenario", str(scen), "--snr-db", "5",
               "--step", "0.5", "--out", str(full)) == 0
    assert run("sweep-rates", "--scenario", str(scen), "--snr-db", "5",
               "--step", "0.5", "--filter", "--out", str(filt)) == 0
    _, _, rows_full = read_cloud(full)
    _, _, rows_filt = read_cloud(filt)
    full_set = [tuple(r) for r in rows_full]
    filt_set = [tuple(r) for r in rows_filt]
    assert set(filt_set) <= set(full_set)
    # Order preserved and identical to the pairwise oracle.
    utilities = np.array([[float(v) for v in r[-3:]] for r in rows_full])
    keep = pareto_filter_bruteforce(utilities)
    assert filt_set == [full_set[i] for i in keep]


def test_sweep_rates_budget(tmp_path, capsys):
    scen = tmp_path / "ic.json"
    run("gen", "--template", "ic", "--users", "3", "--antennas", "3",
        "--seed", "4", "--out", str(scen))
    code = run("sweep-rates", "--scenario", str(scen), "--step", "0.1",
               "--budget", "1000", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "287496" in capsys.readouterr().err
    # Rows are written as they are made, so every refusal precedes the open.
    assert not (tmp_path / "x.csv").exists()


def test_sweep_rates_deterministic_bytes(tmp_path):
    scen = tmp_path / "ic.json"
    run("gen", "--template", "ic", "--users", "2", "--antennas", "2",
        "--seed", "6", "--out", str(scen))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run("sweep-rates", "--scenario", str(scen), "--step", "0.25", "--out", str(a))
    run("sweep-rates", "--scenario", str(scen), "--step", "0.25", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rates_snr_db_is_the_noise_power_it_names(tmp_path):
    # --snr-db 5 writes what the scenario re-saved with that noise power
    # writes, byte for byte, apart from the scenario digest.
    scen, resaved = tmp_path / "ic.json", tmp_path / "ic-5db.json"
    run("gen", "--template", "ic", "--users", "2", "--antennas", "2",
        "--seed", "6", "--out", str(scen))
    save_scenario(replace(load_scenario(scen), noise_power=snr_to_noise(5)), resaved)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("sweep-rates", "--scenario", str(scen), "--snr-db", "5",
               "--step", "0.25", "--out", str(a)) == 0
    assert run("sweep-rates", "--scenario", str(resaved), "--step", "0.25", "--out", str(b)) == 0
    lines_a, lines_b = (p.read_bytes().splitlines(keepends=True) for p in (a, b))
    differ = [x.partition(b"=")[0] for x, y in zip(lines_a, lines_b, strict=True) if x != y]
    assert differ == [b"# scenario_digest"]
    assert f"# noise_power={cli._fmt(snr_to_noise(5))}\n".encode() in lines_a


def test_verify_known_suites(capsys):
    assert run("verify", "--suite", "pareto-oracle", "--seed", "3",
               "--trials", "300") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_two_user_suite(capsys):
    assert run("verify", "--suite", "two-user", "--seed", "3", "--trials", "20") == 0
    assert "PASS" in capsys.readouterr().out


# Every suite but `hyperplane`, which takes about 10 s at its defaults.
@pytest.mark.parametrize(
    "suite", ["convexity", "full-power", "null-shaping", "pareto-oracle", "power-rule", "two-user"]
)
def test_verify_suite_passes_at_its_defaults(suite, capsys):
    assert run("verify", "--suite", suite) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_hyperplane_passes_over_several_blocks():
    # 4,001 trials span three blocks of covariance draws, the last partial.
    checks = run_suite("hyperplane", trials=4_001)
    assert [c.name for c in checks if not c.ok] == []


# One trial leaves pareto-oracle no row for a weakened copy.
@pytest.mark.parametrize("trials", [5, 1])
def test_verify_checks_hold_python_scalars(trials):
    for c in run_suite("all", trials=trials):
        assert type(c.ok) is bool, c.name
        assert type(c.value) is float and type(c.tol) is float, c.name


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_fewer_than_one_trial(trials, capsys):
    # No suite may print vacuous PASS lines, or fail inside numpy, on no trials.
    for suite in suite_names():
        assert run("verify", "--suite", suite, "--trials", trials) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: trials must be >= 1, got {trials}\n"


def test_verify_rejects_a_negative_seed(capsys):
    # numpy's own refusal of a negative seed names no flag; refuse it first.
    for suite in [*suite_names(), "all"]:
        assert run("verify", "--suite", suite, "--seed", "-1") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"


def test_verify_unknown_suite(capsys):
    # The --suite help names no suites (that would load them for every
    # command), so the refusal must name all of them.
    assert run("verify", "--suite", "nope") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert all(name in err for name in suite_names()), err


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "miso-gain-region/1", "receivers": 2}))
    assert run("sweep-rates", "--scenario", str(bad), "--out",
               str(tmp_path / "x.csv")) == 2
    assert "noise_power" in capsys.readouterr().err


def test_unknown_transmitter_prints_the_message(tmp_path, capsys):
    scen = tmp_path / "ic.json"
    run("gen", "--template", "ic", "--users", "3", "--antennas", "2",
        "--seed", "1", "--out", str(scen))
    capsys.readouterr()
    assert run("sweep-gain", "--scenario", str(scen), "--transmitter", "9",
               "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == "error: unknown transmitter id '9'\n"


@pytest.mark.parametrize(
    "argv, edit, message",
    [
        pytest.param(["gen", "--template", "ic", "--snr-db", "-4000", "--seed", "1"], None,
                     "snr_db", id="gen-noise-overflows"),
        pytest.param(["gen", "--template", "mixed", "--snr-db", "4000", "--seed", "1"], None,
                     "snr_db", id="gen-noise-underflows"),
        pytest.param(["sweep-rates", "--scenario", "{scen}", "--snr-db", "-4000"], None,
                     "snr_db", id="rates-noise-overflows"),
        pytest.param(["sweep-rates", "--scenario", "{scen}", "--snr-db", "4000"], None,
                     "snr_db", id="rates-noise-underflows"),
        pytest.param(["sweep-rates", "--scenario", "{scen}", "--step", "5e-324"], None,
                     "step", id="rates-tiny-step"),
        pytest.param(["sweep-gain", "--scenario", "{scen}", "--transmitter", "1",
                      "--step", "5e-324"], None, "step", id="gain-tiny-step"),
        pytest.param(["sweep-rates", "--scenario", "{scen}", "--step", "0.5"],
                     ("antennas", 2.7), "transmitters[0].antennas", id="antennas-float"),
        pytest.param(["sweep-rates", "--scenario", "{scen}", "--step", "0.5"],
                     ("antennas", "2"), "transmitters[0].antennas", id="antennas-string"),
        pytest.param(["sweep-rates", "--scenario", "{scen}", "--step", "0.5"],
                     ("antennas", True), "transmitters[0].antennas", id="antennas-bool"),
        pytest.param(["sweep-gain", "--scenario", "{scen}", "--transmitter", "1",
                      "--step", "0.5"], ("receivers", 3.5), "receivers", id="receivers-float"),
        pytest.param(["sweep-rates", "--scenario", "{scen}", "--step", "0.5"],
                     ("intended", [1.9]), "transmitters[0].intended", id="intended-float"),
        *[
            pytest.param(["sweep-gain", "--scenario", "{scen}", "--transmitter", "1",
                          "--step", "0.5"], edit, message, id=name)
            for name, edit, message in [
                ("intended-nested", ("intended", [[1]]), "transmitters[0].intended[0]:"),
                ("channels-list", ("channels", []), "channels:"),
                ("channel-text", ("channels", {"1/1": [["1", 0], [0, 0]]}), "channels[1/1][0][0]:"),
                ("groups-int", ("power_groups", 5), "power_groups:"),
                ("groups-text", ("power_groups", "123"), "power_groups:"),
                ("groups-ints", ("power_groups", [[1], [2], [3]]), "power_groups[0][0]:"),
                ("noise-text", ("noise_power", "1"), "noise_power:"),
                ("noise-bool", ("noise_power", True), "noise_power:"),
            ]
        ],
        pytest.param(["sweep-gain", "--scenario", "{scen}", "--step", "0.5"], None,
                     "several transmitters; pass --transmitter", id="gain-no-transmitter"),
        pytest.param(["sweep-gain", "--scenario", "{scen}", "--transmitter", "1",
                      "--p-samples", "1"], None, "p_free_samples must be >= 2",
                     id="gain-one-p-sample"),
        pytest.param(["sweep-rates", "--scenario", "{scen}", "--snr-db", "nan"], None,
                     "snr_db must be finite", id="rates-noise-nan"),
        pytest.param(["gen", "--template", "ic", "--users", "0", "--seed", "1"], None,
                     "users must be >= 1", id="gen-no-users"),
        pytest.param(["sweep-rates", "--scenario", "{scen}", "--step", "0.5"],
                     ("channels", {}), "no channel for transmitter '1'", id="channels-empty"),
    ],
)
def test_bad_numbers_exit_2_with_one_line(tmp_path, capsys, argv, edit, message):
    # Counts that are not integers, document fields of another JSON type,
    # an SNR whose noise power leaves the float range, a step whose
    # reciprocal overflows and a missing --transmitter are all refused by
    # name, not truncated, cast, overflowed or refused later under another name.
    scen = tmp_path / "ic.json"
    assert run("gen", "--template", "ic", "--users", "3", "--antennas", "2",
               "--seed", "1", "--out", str(scen)) == 0
    if edit is not None:
        doc = json.loads(scen.read_text())
        name, value = edit
        (doc if name in doc else doc["transmitters"][0])[name] = value
        scen.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(*[a.format(scen=scen) for a in argv], "--out", str(out)) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert message in err
    assert not out.exists()


def data_lines(path):
    return [",".join(row) for row in read_cloud(path)[2]]


def per_value_line(values) -> str:
    """The reference format of one CSV row: each value through format(x, ".17g")."""
    return ",".join(format(float(x), ".17g") for x in values)


def _near_rounding_boundary(mantissa: int, exponent: int, ulps: int) -> float:
    # An 18-digit decimal ending in 5 sits halfway between two 17-digit
    # decimals; step a few ulps to either side of the nearest double.
    x = float(f"{mantissa}5e{exponent}")
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


row_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
                     0.1, 1.0 / 3.0, 1.0 - 2.0**-53]),
    st.integers(-(2**60), 2**60).map(float),
    st.builds(
        _near_rounding_boundary,
        st.integers(10**15, 10**16 - 1),
        st.integers(-340, 290),
        st.integers(-2, 2),
    ),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(row_floats, min_size=1, max_size=12), st.booleans())
def test_whole_row_line_is_the_per_value_format(values, negate):
    values = [-x for x in values] if negate else values
    assert cli._format17(values).tolist() == [format(x, ".17g").encode() for x in values]
    line = cli._csv_bytes([cli._fields(np.array([values]), b"\n")])
    assert line == (per_value_line(values) + "\n").encode()


def _ulps_around(x: float, ulps: int = 2) -> list:
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def test_format17_is_format_at_edges_and_special_values():
    # Fixed notation ends at 1e-4 and 1e16, and each power of ten is a
    # decade edge: the values within 2 ulps of each.
    edges = [v for k in range(-6, 19) for v in _ulps_around(float(f"1e{k}"))]
    # Doubles just below a power of ten whose 17-digit rounding carries into
    # the next decade, all outside fixed notation.
    decade_carries = [1e-305, 1e-175, 1e-79, 1e-14, 1e98, 1e129, 1e220]
    for x in decade_carries:
        assert Decimal(x) < Decimal(format(x, ".17g")), x
    # Rounding that carries through trailing nines: 0.0019 is the double
    # 0.0018999999999999999961...
    digit_carries = [0.0019, 7.859, 13.6, 38.116, 1613.53]
    special = [
        0.0, math.inf, math.nan, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, 480.0, 1200.0, 100.0, 123.0, 1e6, 1e15, 1e15 + 10,
        9999999999999998.0, 12345678901234567.0, 1125899906842624.25, 1125899906842624.75,
        0.5, 0.125, 9.9999999999999991e-5, 1e-4 + 1e-20,
    ]
    values = edges + decade_carries + digit_carries + special
    values = np.array(values + [-v for v in values])
    expected = [format(v, ".17g").encode() for v in values.tolist()]
    assert cli._format17(values).tolist() == expected
    # One value alone, and a 2-D block of the same values, give the same bytes.
    assert [cli._format17(v).tolist() for v in values] == expected
    assert cli._format17(values.reshape(2, -1)).ravel().tolist() == expected


def per_row_axis_table(values) -> np.ndarray:
    """The former ``cli._axis_table``: one ``_csv_bytes`` call per row."""
    blocks = [
        np.array([cli._csv_bytes([row])
                  for row in cli._fields(values[start : start + cli._WRITE_BLOCK])])
        for start in range(0, len(values), cli._WRITE_BLOCK)
    ]
    return np.concatenate(blocks)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_axis_table_is_the_per_row_packing(width):
    # Zeros ("0"), dyadic values ("0.5"), values below 1e-4 (format()'s
    # exponent notation) and values that need all 17 digits, mixed so that
    # rows in a block differ in length, over two and a half blocks.
    rng = np.random.default_rng(width)
    n = 2 * cli._WRITE_BLOCK + 77
    pool = [np.zeros(n), rng.integers(0, 9, n) / 8, rng.uniform(0, 1e-4, n), rng.uniform(0, 1, n)]
    choice = rng.integers(0, len(pool), (n, width))
    values = np.choose(choice, [np.broadcast_to(p[:, None], (n, width)) for p in pool])
    # The last column's longest text (23 bytes) is in the last, partial block only.
    values[-1, -1] = 1.2345678901234567e-300
    expected = per_row_axis_table(values)
    lengths = [len(format(v, ".17g")) for v in values[:, -1].tolist()]
    assert max(lengths[: 2 * cli._WRITE_BLOCK]) < max(lengths)
    table = cli._axis_table(values)
    assert table.flags.c_contiguous
    assert [cli._csv_bytes([row]) for row in table] == expected.tolist()


# gen flags, step and the parameter column each scenario is there for:
# lambda columns only (3,375 rows), split columns (mixed N=3, 648 rows) and
# a power column per strategy list (ic 3x2, 12,167 rows, 1,196 kept).
_BLOCK_EDGE_SCENARIOS = [
    (("--template", "ic", "--users", "3", "--antennas", "3", "--seed", "2"), "0.25", "lam_"),
    (("--template", "mixed", "--antennas", "3", "--seed", "2"), "0.5", "split_"),
    (("--template", "ic", "--users", "3", "--antennas", "2", "--seed", "2"), "0.25", "p_"),
    # One axis of 5,151 rows: two chunks of utilities, split at row 4,096.
    (("--skeleton", str(BROADCAST3), "--seed", "2"), "0.01", "lam_"),
]


@pytest.mark.parametrize("filtered", [False, True])
def test_sweep_rates_rows_across_block_edges(tmp_path, filtered):
    flags = ["--filter"] if filtered else []
    edge = cli._WRITE_BLOCK
    for n, (gen_flags, step, column) in enumerate(_BLOCK_EDGE_SCENARIOS):
        scen, out = tmp_path / f"scenario{n}.json", tmp_path / f"rates{n}.csv"
        run("gen", *gen_flags, "--out", str(scen))
        assert run("sweep-rates", "--scenario", str(scen), "--step", step, *flags,
                   "--out", str(out)) == 0
        s = load_scenario(scen)
        sweep = sweep_utility_region(s, UtilitySpec.from_scenario(s), float(step))
        assert any(c.startswith(column) for c in sweep.parameter_columns), column
        keep = pareto_filter(sweep.utilities) if filtered else range(len(sweep))
        assert len(keep) > edge, column
        if filtered and column == "lam_" and len(sweep.axes) > 1:
            # The kept rows on either side of the first block edge are not
            # neighbours (a one-axis broadcast front keeps every row).
            assert keep[edge] - keep[edge - 1] > 1
        expected = [per_value_line([*sweep.parameter_row(i), *sweep.utilities[i]]) for i in keep]
        assert data_lines(out) == expected, column


def test_unfiltered_sweep_rates_never_holds_the_utility_cloud(tmp_path, capsys):
    scen, out = tmp_path / "ic.json", tmp_path / "rates.csv"
    run("gen", "--template", "ic", "--users", "3", "--antennas", "3",
        "--seed", "84", "--out", str(scen))
    cloud_bytes = 91_125 * 3 * 8  # the (grid points, receivers) float cloud
    tracemalloc.start()
    try:
        assert run("sweep-rates", "--scenario", str(scen), "--step", "0.125",
                   "--out", str(out)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "91125 rows from 91125 grid points" in capsys.readouterr().out
    assert peak < cloud_bytes


def test_sweep_rates_formats_a_long_axis_in_blocks(tmp_path, capsys):
    # A one-axis grid's only axis is the whole grid (5,151 rows at step
    # 0.01).  Formatted in one kernel call, its temporaries peaked at about
    # 6 MiB; a block at a time, the whole run stays under 2 MiB.
    scen, out = tmp_path / "broadcast.json", tmp_path / "rates.csv"
    run("gen", "--skeleton", str(BROADCAST3), "--seed", "84", "--out", str(scen))
    tracemalloc.start()
    try:
        assert run("sweep-rates", "--scenario", str(scen), "--step", "0.01",
                   "--out", str(out)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "5151 rows from 5151 grid points" in capsys.readouterr().out
    assert peak < 2 * 2**20


def test_sweep_rates_parameter_fields_keep_17_digits(tmp_path):
    # At step 0.1 most grid values (0.1, 0.7, ...) need all 17 digits, which
    # the dyadic steps of the block-edge test never do.  One transmitter with
    # two antennas and two unintended receivers: its two FREE weights fan out
    # over 11 levels, so its p column holds them too (86 rows, where ic 3x2
    # would have 636,056).
    skeleton, scen = tmp_path / "skeleton.json", tmp_path / "one.json"
    save_scenario(Scenario((TransmitterSpec("1", 2, {1}),), 3, 1.0, (("1",),)), skeleton)
    run("gen", "--skeleton", str(skeleton), "--seed", "5", "--out", str(scen))
    out = tmp_path / "rates.csv"
    assert run("sweep-rates", "--scenario", str(scen), "--step", "0.1", "--out", str(out)) == 0
    s = load_scenario(scen)
    sweep = sweep_utility_region(s, UtilitySpec.from_scenario(s), 0.1)
    (axis,) = sweep.axes
    assert axis.columns[-1] == "p_1"
    for name, values in (("lambda", axis.values[:, :-1]), ("power", axis.values[:, -1])):
        assert any(f"{v:.16g}" != f"{v:.17g}" for v in values.ravel().tolist()), name
    expected = [per_value_line([*sweep.parameter_row(i), *sweep.utilities[i]])
                for i in range(len(sweep))]
    assert data_lines(out) == expected


def test_sweep_gain_free_fan_out_across_a_block_edge(tmp_path):
    scen = tmp_path / "ic.json"
    run("gen", "--template", "ic", "--users", "3", "--antennas", "2",
        "--seed", "1", "--out", str(scen))
    out = tmp_path / "gain.csv"
    assert run("sweep-gain", "--scenario", str(scen), "--transmitter", "1",
               "--step", "0.05", "--p-samples", "200", "--out", str(out)) == 0
    s = load_scenario(scen)
    channels, e = s.channels_for("1"), direction_vector(s, "1")
    lam, _, classes, _ = sweep_boundary(channels, e, 0.05, p_free_samples=200)
    edge = cli._WRITE_BLOCK
    assert classes[edge - 1] is classes[edge] is PowerClass.FREE
    assert np.array_equal(lam[edge - 1], lam[edge])
    expected = [
        ",".join([per_value_line([*ref.lam, ref.power]), ref.power_class.value,
                  per_value_line(strategy_gains(channels, ref))])
        for ref in oracle_sweep(channels, e, 0.05, p_free_samples=200)
    ]
    assert data_lines(out) == expected


# Runs in a fresh interpreter: the test process has loaded every module.
# gen is left out: its numpy.random imports secrets, whose hmac loads OpenSSL.
_UNLOADED_RUN = """
import sys
from gainregion import cli

# bench/spans.py wraps these modules' functions after importing cli alone.
layers = {"gainregion." + m for m in ("network", "region", "linalg", "pareto")}
assert layers <= sys.modules.keys(), layers - sys.modules.keys()
scen, d, *unloaded = sys.argv[1:]
for argv in (
    ["sweep-gain", "--scenario", scen, "--transmitter", "1", "--step", "0.1",
     "--out", d + "/gain.csv"],
    ["sweep-rates", "--scenario", scen, "--step", "0.25", "--out", d + "/rates.csv"],
    ["sweep-rates", "--scenario", scen, "--step", "0.25", "--filter", "--out", d + "/front.csv"],
):
    assert cli.main(argv) == 0, argv
    loaded = sys.modules.keys() & set(unloaded)
    assert not loaded, (argv, loaded)
"""


def _assert_sweeps_leave_unloaded(tmp_path, *modules):
    scen = tmp_path / "ic.json"
    assert run("gen", "--template", "ic", "--users", "3", "--antennas", "2",
               "--seed", "5", "--out", str(scen)) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _UNLOADED_RUN, str(scen), str(tmp_path), *modules],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_sweeps_do_not_load_openssl(tmp_path):
    _assert_sweeps_leave_unloaded(tmp_path, "_hashlib")


def test_sweeps_do_not_load_the_verify_suites(tmp_path):
    _assert_sweeps_leave_unloaded(tmp_path, "gainregion.verify")
