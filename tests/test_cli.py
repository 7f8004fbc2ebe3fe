import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainregion import cli
from gainregion.cli import main
from gainregion.network import direction_vector, load_scenario
from gainregion.pareto import (
    UtilitySpec,
    pareto_filter,
    pareto_filter_bruteforce,
    sweep_utility_region,
)
from gainregion.region import PowerClass, strategy_gains, sweep_boundary
from gainregion.verify import suite_names

from conftest import oracle_sweep


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


def test_sweep_rates_deterministic_bytes(tmp_path):
    scen = tmp_path / "ic.json"
    run("gen", "--template", "ic", "--users", "2", "--antennas", "2",
        "--seed", "6", "--out", str(scen))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run("sweep-rates", "--scenario", str(scen), "--step", "0.25", "--out", str(a))
    run("sweep-rates", "--scenario", str(scen), "--step", "0.25", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_known_suites(capsys):
    assert run("verify", "--suite", "pareto-oracle", "--seed", "3",
               "--trials", "300") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_two_user_suite(capsys):
    assert run("verify", "--suite", "two-user", "--seed", "3", "--trials", "20") == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_fewer_than_one_trial(trials, capsys):
    # No suite may print vacuous PASS lines, or fail inside numpy, on no trials.
    for suite in suite_names():
        assert run("verify", "--suite", suite, "--trials", trials) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: trials must be >= 1, got {trials}\n"


def test_verify_unknown_suite(capsys):
    assert run("verify", "--suite", "nope") == 2
    err = capsys.readouterr().err
    assert "convexity" in err and "hyperplane" in err


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
    line = cli._row_template(["%.17g"] * len(values)) % tuple(values)
    assert line == per_value_line(values) + "\n"


@pytest.mark.parametrize("filtered", [False, True])
def test_sweep_rates_rows_across_block_edges(tmp_path, filtered):
    scen = tmp_path / "ic.json"
    run("gen", "--template", "ic", "--users", "3", "--antennas", "3",
        "--seed", "2", "--out", str(scen))
    out = tmp_path / "rates.csv"
    flags = ["--filter"] if filtered else []
    assert run("sweep-rates", "--scenario", str(scen), "--step", "0.25", *flags,
               "--out", str(out)) == 0
    s = load_scenario(scen)
    sweep = sweep_utility_region(s, UtilitySpec.from_scenario(s), 0.25)
    keep = pareto_filter(sweep.utilities) if filtered else range(len(sweep))
    edge = cli._WRITE_BLOCK
    assert len(keep) > edge
    if filtered:
        # The kept rows on either side of the first block edge are not neighbours.
        assert keep[edge] - keep[edge - 1] > 1
    expected = [per_value_line([*sweep.parameter_row(i), *sweep.utilities[i]]) for i in keep]
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
