import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gainregion import pareto, region
from gainregion.network import (
    Scenario,
    TransmitterSpec,
    direction_vector,
    generate_channels,
    ic_skeleton,
    load_scenario,
    mixed_skeleton,
    save_scenario,
    scenario_digest,
    snr_to_noise,
)
from gainregion.pareto import (
    ParameterPoint,
    SweepAxis,
    UtilitySpec,
    pareto_filter,
    pareto_filter_bruteforce,
    sweep_utility_region,
    utilities,
    utilities_at,
)
from gainregion.region import (
    boundary_strategy,
    boundary_table,
    class_power,
    needs_power_control,
    simplex_grid,
    strategy_gains,
)
from gainregion.verify import (
    alignment_search,
    full_power_completion,
    power_gain,
    two_user_boundary_vector,
    two_user_combination,
    verify_two_user_identity,
    zf_beamformer,
)

from conftest import BROADCAST3, oracle_sweep, random_channels, scenarios


def ic_scenario(seed=3, users=3, antennas=3, snr_db=0.0):
    return generate_channels(
        seed, ic_skeleton(users, antennas, noise_power=snr_to_noise(snr_db))
    )


def indicator(k, size):
    lam = np.zeros(size)
    lam[k] = 1.0
    return lam


# ------------------------------------------------------------------ rates


def rate_scenario(noise_power, *intended):
    """A skeleton with one single-antenna transmitter per intended set."""
    transmitters = [TransmitterSpec(str(i + 1), 1, r) for i, r in enumerate(intended)]
    k = max(max(r) for r in intended)
    return Scenario(transmitters, k, noise_power, [(t.tid,) for t in transmitters])


def test_rate_one_bit():
    s = rate_scenario(0.5, {1})
    assert utilities(s, UtilitySpec.from_scenario(s), [[0.5]])[0] == pytest.approx(1.0)


def test_rate_zero_gains():
    # Receiver 1 hears transmitter 1 as signal and transmitter 2 as interference.
    s = rate_scenario(0.3, {1}, {2})
    assert utilities(s, UtilitySpec.from_scenario(s), [[0.0, 1.0], [0.0, 1.0]])[0] == 0.0


def test_rate_matches_direct_formula(rng):
    # Receiver 1: signal from transmitters 1 and 2, interference from 3.
    s = rate_scenario(0.7, {1}, {1}, {2})
    spec = UtilitySpec.from_scenario(s)
    for _ in range(25):
        a, b, c = rng.uniform(0, 3, 3)
        expected = np.log2(1 + (a + b) / (0.7 + c))
        got = utilities(s, spec, [[a, 1.0], [b, 1.0], [c, 1.0]])[0]
        assert got == pytest.approx(expected, rel=1e-15)


def test_rates_round_as_the_sweep_rounds():
    # The scalar rate takes numpy's log2, as UtilitySweep.chunks does:
    # math.log2 differs from it in the last bit on some arguments.
    s = rate_scenario(1.0, {1})
    spec = UtilitySpec.from_scenario(s)
    gains = np.random.default_rng(5).uniform(0.0, 20.0, 20_000)
    got = [utilities(s, spec, [[g]])[0] for g in gains.tolist()]
    assert np.array(got).tobytes() == np.log2(1.0 + gains / 1.0).tobytes()


def test_rate_rejects_bad_noise():
    with pytest.raises(ValueError, match="noise"):
        UtilitySpec(noise_power=0.0)


def test_rates_refuse_a_misshapen_or_negative_gain_matrix():
    s = rate_scenario(1.0, {1}, {2})
    spec = UtilitySpec.from_scenario(s)
    with pytest.raises(ValueError, match=r"shape \(2, 1\) does not match \(2, 2\)"):
        utilities(s, spec, [[1.0], [1.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        utilities(s, spec, [[1.0, 1.0], [-1.0, 1.0]])


def test_utility_spec_from_mixed_scenario():
    s = mixed_skeleton(noise_power=0.5)
    assert UtilitySpec.from_scenario(s) == UtilitySpec(0.5)
    assert UtilitySpec.from_scenario(s, noise_power=2.0) == UtilitySpec(2.0)
    # Transmitters 11, 12 and 2 at positions 0, 1 and 2.
    assert pareto._receiver_sets(s) == [([0], [1, 2]), ([1, 2], [0]), ([2], [0, 1])]


def test_utility_spec_from_ic_scenario():
    assert pareto._receiver_sets(ic_skeleton(3, 3))[0] == ([0], [1, 2])


# ------------------------------------------------------- strategy profiles


def boundary_profile(s, lambdas):
    """Each transmitter's ``boundary_strategy`` at its weights, keyed by id."""
    return {
        tid: boundary_strategy(s.channels_for(tid), lambdas[tid], direction_vector(s, tid))
        for tid in s.tids
    }


def profile_gains(s, strategies, shares=None):
    """The (transmitters x receivers) gains of a profile, each row times its
    power group share (1 when absent), as ``utilities_at`` multiplies them."""
    shares = shares or {}
    return np.array([
        strategy_gains(s.channels_for(tid), strategies[tid]) * shares.get(tid, 1.0)
        for tid in s.tids
    ])


def test_all_mrt_profile_is_nash_equilibrium():
    s = ic_scenario(seed=5)
    lambdas = {"1": indicator(0, 3), "2": indicator(1, 3), "3": indicator(2, 3)}
    strategies = boundary_profile(s, lambdas)
    for k, tid in enumerate(s.tids):
        own = s.channel(tid, k + 1)
        w = strategies[tid].direction
        assert abs(np.vdot(w, own / np.linalg.norm(own))) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )
        assert strategies[tid].power == 1.0


def test_zero_forcing_profile_nulls_cross_gains():
    for antennas, users in ((2, 2), (3, 3), (4, 3)):
        s = ic_scenario(seed=11, users=users, antennas=antennas)
        lambdas = {}
        for k, tid in enumerate(s.tids):
            lam = np.full(users, 1.0 / (users - 1))
            lam[k] = 0.0
            lambdas[tid] = lam
        gains = profile_gains(s, boundary_profile(s, lambdas))
        for i, tid in enumerate(s.tids):
            for j in range(users):
                if i != j:
                    bound = 1e-12 * np.linalg.norm(s.channel(tid, j + 1)) ** 2
                    assert gains[i, j] <= bound


def test_mixed_degenerate_split_shuts_down_second_virtual():
    s = generate_channels(2, mixed_skeleton(3, noise_power=0.1))
    spec = UtilitySpec.from_scenario(s)
    lambdas = {"11": indicator(0, 3), "12": indicator(1, 3), "2": np.array([0.0, 0.5, 0.5])}
    point = ParameterPoint(
        lambdas=lambdas, splits={("11", "12"): np.array([1.0, 0.0])}, free_powers={}
    )
    strategies = boundary_profile(s, lambdas)
    assert strategies["11"].power == strategies["12"].power == 1.0
    gains = profile_gains(s, strategies, {"11": 1.0, "12": 0.0})
    u = utilities_at(s, spec, point)
    assert u.tobytes() == utilities(s, spec, gains).tobytes()
    # Receiver 2 sees only the multicast transmitter once 12 is silent.
    direct = np.log2(1 + gains[2, 1] / (spec.noise_power + gains[0, 1]))
    assert u[1] == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize(
    "lambdas, splits, message",
    [
        ({"11": indicator(0, 3), "12": indicator(0, 3)}, {("11", "12"): [0.5, 0.5]},
         "parameter point lacks weights for transmitter '2'"),
        (None, {}, r"parameter point lacks split fractions for group \('11', '12'\)"),
        (None, {("11", "12"): [0.2, 0.3, 0.5]}, r"group \('11', '12'\) needs 2 fractions, got 3"),
        (None, {("11", "12"): [np.nan, np.nan]}, "weights must be finite"),
        (None, {("11", "12"): [0.5, 0.5 + 1e-10]}, "weights must sum to 1"),
    ],
    ids=["no-weights", "no-split", "split-length", "split-nan", "split-sum"],
)
def test_utilities_at_refuses_a_malformed_point(lambdas, splits, message):
    s = generate_channels(2, mixed_skeleton())
    if lambdas is None:
        lambdas = {t: indicator(0, 3) for t in s.tids}
    point = ParameterPoint(lambdas=lambdas, splits=splits, free_powers={})
    with pytest.raises(ValueError, match=message):
        utilities_at(s, UtilitySpec.from_scenario(s), point)


# ------------------------------------------------------------- the sweep


def test_sweep_two_user_counts():
    s = ic_scenario(seed=7, users=2, antennas=2)
    sweep = sweep_utility_region(s, step=0.5)
    assert len(sweep) == 9
    assert sweep.utilities.shape == (9, 2)
    for i in range(9):
        assert set(sweep.parameter_point(i).lambdas) == {"1", "2"}
        assert sweep.utilities[i].shape == (2,)


def test_sweep_axes_mixed_example():
    # A strategy list is read from the boundary table, so the axes need channels.
    axes = sweep_utility_region(generate_channels(84, mixed_skeleton()), step=0.1).axes
    kinds = [(ax.kind, ax.label, len(ax)) for ax in axes]
    assert kinds == [
        ("lambda", "11", 66),
        ("lambda", "12", 66),
        ("lambda", "2", 66),
        ("split", ("11", "12"), 11),
    ]
    total = np.prod([len(ax) for ax in axes])
    assert total == 66**3 * 11


def test_sweep_axes_add_a_power_column_when_needed():
    s = generate_channels(84, ic_skeleton(3, 2))  # two antennas, two unintended receivers each
    axes = sweep_utility_region(s, step=0.5).axes
    assert [ax.kind for ax in axes] == ["lambda"] * 3
    assert [ax.columns[-2:] for ax in axes] == [(f"lam_{t}_3", f"p_{t}") for t in "123"]


@pytest.mark.parametrize("step", [0.5, 0.25])
@pytest.mark.parametrize("make", [lambda: ic_scenario(seed=84, antennas=2),
                                  lambda: generate_channels(84, mixed_skeleton(2))],
                         ids=["ic3x2", "mixed-n2"])
def test_a_strategy_axis_is_the_oracle_sweep_of_its_transmitter(make, step):
    # The joint sweep fans out FREE rows by the rule of sweep-gain, with m + 1 levels.
    s = make()
    axes = {ax.label: ax for ax in sweep_utility_region(s, step=step).axes}
    controlled = [t for t in s.transmitters if axes[t.tid].columns[-1] == f"p_{t.tid}"]
    assert controlled
    for t in controlled:
        rows = oracle_sweep(s.channels_for(t.tid), direction_vector(s, t.tid), step,
                            p_free_samples=round(1 / step) + 1)
        want = np.array([[*ref.lam, ref.power] for ref in rows])
        assert axes[t.tid].values.tobytes() == want.tobytes()


def test_sweep_budget_enforced():
    s = ic_scenario(seed=1, users=3, antennas=3)
    # step 1/15 gives C(17,2)=136 weights per transmitter, 136^3 points.
    with pytest.raises(ValueError, match="2515456"):
        sweep_utility_region(s, step=1.0 / 15, point_budget=4000)


def test_sweep_budget_counts_huge_grids_exactly():
    # Five transmitters with at least 10,626 strategies each: the point
    # count is at least 1.3e20, which wraps around in int64.
    s = ic_scenario(seed=1, users=5, antennas=2)
    with pytest.raises(ValueError, match="above the budget"):
        sweep_utility_region(s, step=0.05)


def test_sweep_budget_refuses_before_building_any_grid(monkeypatch):
    # Five strategy lists of at least C(54, 4) = 316,251 weights each.
    built = []

    def spy(k, step):
        built.append((k, step))
        raise AssertionError("a simplex grid was built")

    monkeypatch.setattr(pareto, "simplex_grid", spy)
    monkeypatch.setattr(region, "simplex_grid", spy)  # each strategy list's grid
    s = ic_scenario(seed=1, users=5, antennas=2)
    with pytest.raises(ValueError, match="above the budget"):
        sweep_utility_region(s, step=0.02)
    assert built == []


def test_sweep_budget_counts_strategy_rows():
    # 45 weights each, 2 of them FREE and fanned out over 9 levels: 61 strategies.
    sweep = sweep_utility_region(ic_scenario(seed=84, antennas=2), step=0.125)
    assert len(sweep) == 226_981


def test_sweep_budget_reaches_each_strategy_list(monkeypatch):
    # One transmitter, two antennas, two unintended receivers: 66 weights, two
    # of them FREE and fanned out over 11 levels, 86 strategies.  A budget of
    # 85 passes the grid's 66 rows and is refused by the fan-out; one of 86
    # builds the list, though above the default budget.
    monkeypatch.setattr(region, "DEFAULT_POINT_BUDGET", 10)
    one = Scenario((TransmitterSpec("1", 2, {1}),), 3, 1.0, (("1",),))
    s = generate_channels(5, one)
    with pytest.raises(ValueError, match="86 rows after the free fan-out, above the budget of 85"):
        sweep_utility_region(s, step=0.1, point_budget=85)
    assert len(sweep_utility_region(s, step=0.1, point_budget=86)) == 86


def broadcast_fields(s, axes):
    """Unit gain x power x split of every transmitter at every receiver, built
    apart from ``pareto._sweep_axes``: ``fields[tid][j]`` has one dimension per
    axis, of length 1 off the transmitter's own axes, so it broadcasts over
    the whole grid.  The power is ``class_power`` at a strategy row's
    ``p_<t>`` column, or over the FREE levels of a former ``"power"`` axis."""
    at = {(ax.kind, ax.label): i for i, ax in enumerate(axes)}

    def along(values, *positions):
        shape = [1] * len(axes)
        for pos, n in zip(positions, values.shape):
            shape[pos] = n
        return values.reshape(shape)

    fields = {}
    k = s.n_receivers
    for t in s.transmitters:
        lam_axis = at[("lambda", t.tid)]
        values = axes[lam_axis].values
        _, classes, gains = boundary_table(
            s.channels_for(t.tid), values[:, :k], direction_vector(s, t.tid)
        )
        p_column = values[:, k] if values.shape[1] > k else 1.0
        power_axis = at.get(("power", t.tid))
        if power_axis is None:
            power = along(class_power(classes, p_column), lam_axis)
        else:
            levels = axes[power_axis].values[:, 0]
            power = along(class_power(classes[:, None], levels), lam_axis, power_axis)
        group = s.group_of(t.tid)
        split_axis = at.get(("split", group))
        split = 1.0
        if split_axis is not None:
            split = along(axes[split_axis].values[:, group.index(t.tid)], split_axis)
        fields[t.tid] = [
            along(gains[:, j], lam_axis) * power * split for j in range(s.n_receivers)
        ]
    return fields


def signal_and_interference(s, r):
    """Receiver r's signal and interference transmitter ids, in scenario order."""
    return ([t.tid for t in s.transmitters if r in t.intended],
            [t.tid for t in s.transmitters if r not in t.intended])


def power_axis_clouds(s, step):
    """The former joint cloud, one leading index at a time: a lambda axis per
    transmitter, a split axis per multi-member group, then a power axis of
    m + 1 levels per transmitter that needs power control, whose level
    ``class_power`` ignores on FULL and ZERO rows."""
    axes = [SweepAxis("lambda", t.tid, (), simplex_grid(s.n_receivers, step))
            for t in s.transmitters]
    axes += [SweepAxis("split", g, (), simplex_grid(len(g), step))
             for g in s.power_groups if len(g) > 1]
    levels = np.linspace(0.0, 1.0, round(1 / step) + 1)[:, None]
    axes += [SweepAxis("power", t.tid, (), levels) for t in s.transmitters
             if needs_power_control(t.n_antennas, direction_vector(s, t.tid))]
    fields, spec = broadcast_fields(s, axes), UtilitySpec.from_scenario(s)
    shape = tuple(len(ax) for ax in axes)
    for i0 in range(shape[0]):
        u = np.empty((*shape[1:], s.n_receivers))
        for j, r in enumerate(s.receivers):
            signal, interference = (
                sum((np.broadcast_to(fields[t][j], shape)[i0] for t in tids), np.zeros(shape[1:]))
                for tids in signal_and_interference(s, r)
            )
            u[..., j] = np.log2(1.0 + signal / (spec.noise_power + interference))
        yield u.reshape(-1, s.n_receivers)


@pytest.mark.parametrize("step", [0.25, 0.2])
@pytest.mark.parametrize("make", [lambda: ic_scenario(seed=84, antennas=2),
                                  lambda: generate_channels(84, mixed_skeleton(2))],
                         ids=["ic3x2", "mixed-n2"])
def test_strategy_lists_reach_the_distinct_points_of_the_power_axis_cloud(make, step):
    def distinct(u):
        # Rows in ascending lexicographic order, each once.
        ranked = u[np.lexsort(u.T[::-1])]
        new = np.ones(len(ranked), dtype=bool)
        np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
        return ranked[new]

    s = make()
    old = distinct(np.concatenate([distinct(u) for u in power_axis_clouds(s, step)]))
    cloud = sweep_utility_region(s, step=step).utilities
    new = distinct(cloud)
    assert len(new) < len(cloud)
    assert new.tobytes() == old.tobytes()
    assert new[pareto_filter(new)].tobytes() == old[pareto_filter(old)].tobytes()


@pytest.mark.parametrize(
    "make, step, kinds",
    [
        (lambda: ic_scenario(seed=84), 0.125, {"lambda"}),
        (lambda: generate_channels(84, mixed_skeleton(2)), 0.25, {"lambda", "split"}),
        (lambda: generate_channels(84, load_scenario(BROADCAST3)), 0.01, {"lambda"}),
    ],
    ids=["ic3x3", "mixed-n2", "one-axis"],
)
def test_chunks_are_the_utilities_of_any_rows_in_bounded_runs(make, step, kinds):
    s = make()
    sweep = sweep_utility_region(s, step=step)
    assert {ax.kind for ax in sweep.axes} == kinds
    chunks = list(sweep.chunks())  # evaluated, before any read of utilities
    assert len(chunks) > 1
    start = 0
    for ix, u in chunks:
        assert u.shape[1] == s.n_receivers
        assert len(u) <= pareto._CHUNK_ROWS
        want = np.unravel_index(np.arange(start, start + len(u)), sweep.shape)
        assert all(np.array_equal(a, b) for a, b in zip(ix, want, strict=True))
        start += len(u)
    # A second sweep evaluates its cloud from its own chunks; both are bitwise equal.
    cloud = sweep_utility_region(s, step=step).utilities
    assert cloud.shape == (len(sweep), s.n_receivers)
    assert np.concatenate([u for _, u in chunks]).tobytes() == cloud.tobytes()
    # The reference: one leading index at a time, each sum from zeros in scenario order.
    fields, spec = broadcast_fields(s, sweep.axes), UtilitySpec.from_scenario(s)
    per_index = len(sweep) // sweep.shape[0]
    for i0 in range(sweep.shape[0]):
        for j, r in enumerate(s.receivers):
            signal_ids, interference_ids = signal_and_interference(s, r)
            signal = np.zeros(sweep.shape[1:])
            for tid in signal_ids:
                signal = signal + np.broadcast_to(fields[tid][j], sweep.shape)[i0]
            interference = np.zeros(sweep.shape[1:])
            for tid in interference_ids:
                interference = interference + np.broadcast_to(fields[tid][j], sweep.shape)[i0]
            want = np.log2(1.0 + signal / (spec.noise_power + interference)).ravel()
            rows = cloud[i0 * per_index : (i0 + 1) * per_index, j]
            assert rows.tobytes() == want.tobytes()
    # A sorted subset of rows, one more than a chunk holds, straddles a chunk
    # edge; its rows are the reference's rows, bitwise.
    subset = np.sort(np.random.default_rng(7).choice(
        len(sweep), pareto._CHUNK_ROWS + 1, replace=False)).tolist()
    picked = list(sweep.chunks(subset))
    assert [len(u) for _, u in picked] == [pareto._CHUNK_ROWS, 1]
    ix = [np.concatenate(axis) for axis in zip(*(ix for ix, _ in picked))]
    assert np.array_equal(np.ravel_multi_index(ix, sweep.shape), subset)
    assert np.concatenate([u for _, u in picked]).tobytes() == cloud[subset].tobytes()
    # Once read, the cloud is kept.
    assert sweep.utilities is sweep.utilities
    assert sweep.utilities.tobytes() == cloud.tobytes()


def test_chunks_of_unsorted_repeated_rows_are_those_rows_of_the_cloud():
    s = generate_channels(84, mixed_skeleton(2))
    sweep = sweep_utility_region(s, step=0.25)
    # Transmitters 11 and 12 own a strategy list each and the split axis they
    # share, with other transmitters' axes in between.
    for tid in ("11", "12"):
        own = [i for i, ax in enumerate(sweep.axes) if ax.label in (tid, ("11", "12"))]
        assert [sweep.axes[i].kind for i in own] == ["lambda", "split"]
        assert np.any(np.diff(own) > 1)
    # Unsorted rows, one chunk and 100 more; the last 60 repeat the 60 around
    # the chunk edge.
    rng = np.random.default_rng(23)
    rows = rng.integers(0, len(sweep), pareto._CHUNK_ROWS + 100)
    rows[-60:] = rows[pareto._CHUNK_ROWS - 30 : pareto._CHUNK_ROWS + 30]
    assert np.any(np.diff(rows) < 0) and len(np.unique(rows)) < len(rows)
    picked = list(sweep.chunks(rows.tolist()))
    assert [len(u) for _, u in picked] == [pareto._CHUNK_ROWS, 100]
    ix = [np.concatenate(axis) for axis in zip(*(ix for ix, _ in picked))]
    assert np.array_equal(np.ravel_multi_index(ix, sweep.shape), rows)
    assert np.concatenate([u for _, u in picked]).tobytes() == sweep.utilities[rows].tobytes()


def test_sweep_matches_scalar_path():
    s = ic_scenario(seed=9, users=2, antennas=2, snr_db=5.0)
    spec = UtilitySpec.from_scenario(s)
    sweep = sweep_utility_region(s, spec, step=0.25)
    for i in range(0, len(sweep), 3):
        point = sweep.parameter_point(i)
        assert np.array_equal(utilities_at(s, spec, point), sweep.utilities[i])


def test_sweep_matches_scalar_path_with_groups_and_power():
    s = generate_channels(21, mixed_skeleton(2, noise_power=0.5))  # N=2 forces power control
    spec = UtilitySpec.from_scenario(s)
    sweep = sweep_utility_region(s, spec, step=0.5)
    assert "split" in [ax.kind for ax in sweep.axes]
    assert {"p_11", "p_12"} <= set(sweep.parameter_columns)
    for i in range(0, len(sweep), 7):
        point = sweep.parameter_point(i)
        assert utilities_at(s, spec, point).tobytes() == sweep.utilities[i].tobytes()


def test_split_free_rows_are_the_scalar_oracle_bitwise():
    # Rows 19,000-19,110 hold FREE powers under a 0.75 split: a product of
    # split and power before the unit gains differs from the table's in the
    # last bit on 12 of them.
    s = generate_channels(85, mixed_skeleton(2))
    spec = UtilitySpec.from_scenario(s)
    sweep = sweep_utility_region(s, spec, step=0.25)
    rows = list(range(19_000, 19_111))
    got = np.concatenate([u for _, u in sweep.chunks(rows)])
    want = np.array([utilities_at(s, spec, sweep.parameter_point(i)) for i in rows])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenarios(), st.data())
def test_chunks_of_random_rows_are_the_scalar_oracle(case, data):
    s, step = case
    spec = UtilitySpec.from_scenario(s)
    sweep = sweep_utility_region(s, spec, step=step)
    picks = data.draw(st.lists(st.integers(0, len(sweep) - 1), min_size=1, max_size=12))
    rows = data.draw(st.permutations(picks + picks[: len(picks) // 2 + 1]))
    got = np.concatenate([u for _, u in sweep.chunks(rows)])
    want = np.array([utilities_at(s, spec, sweep.parameter_point(i)) for i in rows])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenarios())
def test_a_saved_scenario_reloads_to_the_same_digest_and_sweep(tmp_path_factory, case):
    s, step = case
    path = tmp_path_factory.getbasetemp() / "drawn.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert scenario_digest(loaded) == scenario_digest(s)
    before, after = (sweep_utility_region(x, step=step) for x in (s, loaded))
    assert [ax.values.tobytes() for ax in after.axes] == [ax.values.tobytes() for ax in before.axes]
    for (_, u), (_, v) in zip(after.chunks(), before.chunks(), strict=True):
        assert u.tobytes() == v.tobytes()


def test_sweep_all_mrt_matches_direct_rates():
    s = ic_scenario(seed=13, users=3, antennas=3, snr_db=10.0)
    spec = UtilitySpec.from_scenario(s)
    sweep = sweep_utility_region(s, spec, step=0.5)
    rows = []
    for k in range(3):
        grid = sweep.axes[k].values
        rows.append(int(np.where((grid == indicator(k, 3)).all(axis=1))[0][0]))
    u = sweep.utilities[sweep.flat_index(rows)]
    sig2 = spec.noise_power
    for k in range(3):
        own = s.channel(str(k + 1), k + 1)
        interference = sum(
            abs(
                np.vdot(
                    s.channel(str(l + 1), l + 1)
                    / np.linalg.norm(s.channel(str(l + 1), l + 1)),
                    s.channel(str(l + 1), k + 1),
                )
            )
            ** 2
            for l in range(3)
            if l != k
        )
        expected = np.log2(1 + np.linalg.norm(own) ** 2 / (sig2 + interference))
        assert u[k] == pytest.approx(expected, abs=1e-12)


# --------------------------------------------------------- pareto filter


def test_pareto_filter_simple():
    pts = [[1, 1], [2, 0.5], [1.5, 1.5]]
    assert pareto_filter(pts).tolist() == [1, 2]


def test_pareto_filter_single_point():
    assert pareto_filter([[3.0, 1.0, 2.0]]).tolist() == [0]


def test_pareto_filter_duplicates_retained():
    pts = [[1, 2], [1, 2], [0.5, 2], [1, 1.9]]
    assert pareto_filter(pts).tolist() == [0, 1]


def test_pareto_filter_weak_dominance_semantics():
    # Tied in one coordinate, strictly worse in the other: removed.
    assert pareto_filter([[1, 1], [1, 0.5]]).tolist() == [0]
    # Equal points: both kept.
    assert pareto_filter([[1, 1], [1, 1]]).tolist() == [0, 1]


def test_pareto_filter_matches_bruteforce(rng):
    pts = rng.uniform(0, 1, (1000, 3))
    for i in range(50):
        pts[i] = pts[int(rng.integers(0, 1000))]
    for i in range(50, 100):
        j = int(rng.integers(0, 1000))
        pts[i] = pts[j]
        pts[i, int(rng.integers(0, 3))] -= 0.25
    assert np.array_equal(pareto_filter(pts), pareto_filter_bruteforce(pts))


def test_pareto_filter_matches_bruteforce_low_and_high_dims(rng):
    for d in (1, 2, 4, 5):
        pts = rng.uniform(0, 1, (300, d))
        pts[10] = pts[20]
        assert np.array_equal(pareto_filter(pts), pareto_filter_bruteforce(pts))


def test_pareto_filter_invariant_under_monotone_transforms(rng):
    pts = rng.uniform(0.1, 2.0, (400, 3))
    pts[5] = pts[6]
    transformed = np.column_stack(
        [np.log1p(pts[:, 0]), pts[:, 1] ** 3, np.expm1(pts[:, 2])]
    )
    assert np.array_equal(pareto_filter(pts), pareto_filter(transformed))


def test_pareto_filter_tie_columns(rng):
    # Coordinates rounded to 0.1 are shared by many rows, so the staircase
    # sweep (500 rows, above the leaf size) meets ties in its bisection.
    pts = np.round(rng.uniform(0, 1, (500, 3)), 1)
    assert np.array_equal(pareto_filter(pts), pareto_filter_bruteforce(pts))


def test_pareto_filter_rejects_non_finite():
    # The oracle takes the same input check as the fast filter.
    for filt in (pareto_filter, pareto_filter_bruteforce):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                filt([[1.0, 2.0], [bad, 0.5], [0.5, 1.0]])
        for shape_bad in ([], [1.0, 2.0]):
            with pytest.raises(ValueError, match="2-D"):
                filt(shape_bad)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda d: hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 60), st.just(d)),
            elements=st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0]),
        )
    )
)
def test_pareto_filter_matches_bruteforce_on_dense_ties(pts):
    # Values in 0..3 (with both signed zeros) make exact duplicates and
    # shared coordinates common.  At most 60 rows: most clouds are one leaf
    # of the filter, the rest two leaves and a merge.
    assert np.array_equal(pareto_filter(pts), pareto_filter_bruteforce(pts))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda d: hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.just(d)),
            elements=st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-4.0, 4.0, width=32)),
        )
    ),
    st.lists(st.integers(0, 11), min_size=1, max_size=130),
    st.integers(0, 2**32 - 1),
)
def test_pareto_filter_matches_bruteforce_on_repeated_rows(pool, picks, seed):
    # Rows drawn with repeats from a small pool, each zero given a random
    # sign: exact duplicates span several leaves of the filter and the
    # deduplication must count -0.0 and 0.0 as one value.
    pts = pool[[i % len(pool) for i in picks]]
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=pts.shape)
    pts = np.where(pts == 0, np.copysign(0.0, signs), pts)
    assert np.array_equal(pareto_filter(pts), pareto_filter_bruteforce(pts))


@pytest.mark.parametrize("d", [4, 5, 6])
def test_pareto_filter_matches_bruteforce_on_a_tied_cloud_of_many_halves(d):
    # 300 rows in 0..3: ties cross the halves at several recursion levels,
    # and each merge's sort must put the left row first on a tie.
    pts = np.random.default_rng(d).integers(0, 4, size=(300, d)).astype(float)
    assert np.array_equal(pareto_filter(pts), pareto_filter_bruteforce(pts))


def _dominated_reference(pts, src, dst):
    # Row by row: some src row before it is >= on every column.
    return np.array(
        [dst[i] and bool((src[:i] & (pts[:i] >= pts[i]).all(axis=1)).any()) for i in range(len(pts))],
        dtype=bool,
    )


@pytest.mark.parametrize("n", [1, 2, 47, 48, 49, 97, 200])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_dominated_matches_pairwise_reference_on_masked_rows(n, m):
    # Values in 0..3 tie often; src and dst masks that are not all true are
    # what each merge of the divide and conquer passes.  n runs across the
    # leaf size (48): whole leaf, one split into two leaves, and deeper.
    rng = np.random.default_rng(100 * n + m)
    for _ in range(4):
        pts = rng.integers(0, 4, size=(n, m)).astype(float)
        src = rng.random(n) < 0.6
        dst = rng.random(n) < 0.6
        got = pareto._dominated(pts, src, dst)
        np.testing.assert_array_equal(got, _dominated_reference(pts, src, dst))


def _tied_cloud(n, d, seed):
    # n distinct rows on a small integer grid (every coordinate tied with
    # many others), plus three exact duplicates.
    k = 2
    while k**d < 2 * n:
        k += 1
    rng = np.random.default_rng(seed)
    cells = rng.choice(k**d, size=n, replace=False)
    pts = np.stack(np.unravel_index(cells, (k,) * d), axis=1).astype(float)
    return np.vstack([pts, pts[rng.integers(0, n, size=3)]])


@pytest.mark.parametrize("n", [47, 48, 49, 97])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_pareto_filter_matches_bruteforce_across_the_leaf_size(n, d):
    pts = _tied_cloud(n, d, seed=10 * n + d)
    assert len(np.unique(pts, axis=0)) == n
    assert np.array_equal(pareto_filter(pts), pareto_filter_bruteforce(pts))


def test_pareto_filter_answers_small_subproblems_at_the_leaf(monkeypatch):
    # Recursing down to single rows made 5,998 calls on this cloud; with
    # sub-problems of at most pareto._LEAF rows answered at once it makes 190.
    calls = []
    inner = pareto._dominated

    def counted(pts, src, dst):
        calls.append(len(pts))
        return inner(pts, src, dst)

    monkeypatch.setattr(pareto, "_dominated", counted)
    pareto_filter(np.random.default_rng(0).uniform(0.0, 1.0, size=(2000, 4)))
    assert len(calls) <= 500


@pytest.mark.parametrize("n, d", [(100_000, 2), (100_000, 3), (8_000, 4)])
def test_pareto_filter_working_memory_is_bounded(n, d):
    # Distinct rows, so the filter's arrays have their largest size.  A
    # sorted copy of the cloud beside its distinct rows, or whole columns as
    # Python float lists in the staircase, raises the peak to 5.1x and 3.8x
    # the input's bytes on three and four columns; padding one or two columns
    # to two raises it to 2.6x on two.  The filter does none of these and
    # peaks near 1.6x, 1.4x and 1.8x.
    pts = np.random.default_rng(d).uniform(0.0, 1.0, size=(n, d))
    tracemalloc.start()
    try:
        pareto_filter(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * pts.nbytes


@pytest.mark.parametrize("filt", [pareto_filter, pareto_filter_bruteforce])
def test_pareto_filters_return_a_sorted_index_array(filt):
    # Every third row lies on a quarter circle of radius 2, which dominates
    # the unit square's rows; its angles are shuffled against the row order.
    rng = np.random.default_rng(31)
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    angles = rng.uniform(0.0, np.pi / 2, size=len(pts[::3]))
    pts[::3] = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    keep = filt(pts)
    assert isinstance(keep, np.ndarray) and keep.dtype == np.intp
    assert keep.tolist() == list(range(0, 200, 3))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenarios(max_rows=300))
def test_pareto_filter_matches_bruteforce_on_drawn_sweeps(case):
    # Sweep clouds repeat rows and tie on columns; the row cap keeps the
    # pairwise oracle to about 2 s over all examples.
    s, step = case
    u = sweep_utility_region(s, step=step).utilities
    assert np.array_equal(pareto_filter(u), pareto_filter_bruteforce(u))


# ----------------------------------------------------- two-user results


def test_two_user_combination_endpoints(rng):
    own, cross = random_channels(rng, 3, 2)
    w_mrt = two_user_combination(1.0, own, cross)
    assert abs(np.vdot(w_mrt, own / np.linalg.norm(own))) ** 2 == pytest.approx(1.0)
    w_zf = two_user_combination(0.0, own, cross)
    assert abs(np.vdot(w_zf, cross)) ** 2 <= 1e-12 * np.linalg.norm(cross) ** 2


def test_two_user_combination_rejects_collinear():
    h = np.array([1.0, 1.0j])
    with pytest.raises(ValueError, match="collinear"):
        zf_beamformer(h, 2.0 * h)


def test_two_user_combination_lies_on_boundary(rng):
    own, cross = random_channels(rng, 3, 2)
    w = two_user_combination(0.5, own, cross)
    lam1, alignment = alignment_search(w, own, cross)
    assert 0.0 < lam1 < 1.0
    assert alignment >= 1.0 - 1e-6


def test_alignment_search_recovers_boundary_parameter(rng):
    for n in (2, 3, 4):
        own, cross = random_channels(rng, n, 2)
        for lam1 in (0.1, 0.5, 0.9):
            v = two_user_boundary_vector(lam1, own, cross)
            found, alignment = alignment_search(v, own, cross)
            assert abs(found - lam1) <= 1e-9
            assert alignment >= 1.0 - 1e-12


def test_two_user_identity_residual(rng):
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(100):
            own, cross = random_channels(rng, n, 2)
            lam1 = float(rng.uniform(0, 1))
            worst = max(worst, verify_two_user_identity(lam1, own, cross))
    assert worst <= 1e-9


def test_two_user_identity_near_mrt_limit(rng):
    own, cross = random_channels(rng, 3, 2)
    lam1 = 1.0 - 1e-6
    assert verify_two_user_identity(lam1, own, cross) <= 1e-6
    w = two_user_boundary_vector(lam1, own, cross)
    assert abs(np.vdot(w, own / np.linalg.norm(own))) ** 2 >= 1.0 - 1e-4


# -------------------------------------------- monotonicity and necessity


def test_utility_monotonicity_under_completion(rng):
    # Raising one transmitter's gain at a signal-set receiver (others
    # fixed) never lowers that receiver's utility; at an
    # interference-set receiver it never raises it.
    s = generate_channels(31, mixed_skeleton(3, noise_power=snr_to_noise(15.0)))
    spec = UtilitySpec.from_scenario(s)
    lambdas = {
        "11": np.array([0.6, 0.2, 0.2]),
        "12": np.array([0.2, 0.6, 0.2]),
        "2": np.array([0.2, 0.2, 0.6]),
    }
    point = ParameterPoint(
        lambdas=lambdas, splits={("11", "12"): np.array([0.5, 0.5])}, free_powers={}
    )
    strategies = boundary_profile(s, lambdas)
    gains = profile_gains(s, strategies, {"11": 0.5, "12": 0.5})
    assert utilities(s, spec, gains).tobytes() == utilities_at(s, spec, point).tobytes()
    channels2 = s.channels_for("2")
    q2 = 0.5 * strategies["2"].covariance()
    for target, receiver in ((2, 3), (0, 1)):
        q2_full = full_power_completion(q2, channels2, target)
        new_gains = gains.copy()
        new_gains[2] = [power_gain(q2, h) for h in channels2]
        before = utilities(s, spec, new_gains)
        new_gains[2] = [power_gain(q2_full, h) for h in channels2]
        after = utilities(s, spec, new_gains)
        if receiver == 3:  # receiver 3 decodes transmitter 2
            assert after[receiver - 1] >= before[receiver - 1]
        else:  # receiver 1 suffers interference from transmitter 2
            assert after[receiver - 1] <= before[receiver - 1]


def test_interior_gain_tuples_are_never_pareto(rng):
    # Any strategy strictly inside its gain-region boundary can be
    # replaced by a completion that weakly improves the utility point.
    s = ic_scenario(seed=37, users=3, antennas=3, snr_db=10.0)
    spec = UtilitySpec.from_scenario(s)
    strategies = boundary_profile(s, {t: np.full(3, 1 / 3) for t in s.tids})
    gains = profile_gains(s, strategies)
    # Shrink transmitter 1's power: its gain tuple moves strictly inside.
    q1 = 0.5 * strategies["1"].covariance()
    channels1 = s.channels_for("1")
    inner = gains.copy()
    inner[0] = [power_gain(q1, h) for h in channels1]
    q1_full = full_power_completion(q1, channels1, 0)  # its intended receiver
    outer = inner.copy()
    outer[0] = [power_gain(q1_full, h) for h in channels1]
    # Off-target gains agree to 1e-10; round so the domination is exact.
    u_inner = utilities(s, spec, np.round(inner, 10))
    u_outer = utilities(s, spec, np.round(outer, 10))
    assert np.all(u_outer >= u_inner)
    assert u_outer[0] > u_inner[0]
