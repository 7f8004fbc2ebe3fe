import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gainregion import pareto
from gainregion.network import (
    direction_vector,
    generate_channels,
    ic_skeleton,
    mixed_skeleton,
    snr_to_noise,
)
from gainregion.pareto import (
    ParameterPoint,
    ReceiverRule,
    UtilitySpec,
    alignment_search,
    pareto_filter,
    pareto_filter_bruteforce,
    pareto_strategies,
    rate,
    strategy_gain_matrix,
    sweep_axes,
    sweep_utility_region,
    two_user_boundary_vector,
    two_user_combination,
    utilities,
    utilities_at,
    verify_two_user_identity,
    zf_beamformer,
)
from gainregion.linalg import outer_product
from gainregion.region import (
    PowerClass,
    boundary_strategy,
    full_power_completion,
    power_gain,
    random_feasible_covariance,
)

from conftest import random_channels


def ic_scenario(seed=3, users=3, antennas=3, snr_db=0.0):
    return generate_channels(
        seed, ic_skeleton(users, antennas, noise_power=snr_to_noise(snr_db))
    )


def indicator(k, size):
    lam = np.zeros(size)
    lam[k] = 1.0
    return lam


# ------------------------------------------------------------------ rates


def test_rate_one_bit():
    spec = UtilitySpec(rules=(ReceiverRule(("a",), ()),), noise_power=0.5)
    assert rate(spec, 1, {"a": 0.5}) == pytest.approx(1.0)


def test_rate_zero_gains():
    spec = UtilitySpec(rules=(ReceiverRule(("a",), ("b",)),), noise_power=0.3)
    assert rate(spec, 1, {"a": 0.0, "b": 0.0}) == 0.0


def test_rate_matches_direct_formula(rng):
    spec = UtilitySpec(
        rules=(ReceiverRule(("a", "b"), ("c",)),), noise_power=0.7
    )
    for _ in range(25):
        g = dict(zip("abc", rng.uniform(0, 3, 3)))
        expected = np.log2(1 + (g["a"] + g["b"]) / (0.7 + g["c"]))
        assert rate(spec, 1, g) == pytest.approx(expected, rel=1e-15)


def test_rate_rejects_bad_noise():
    with pytest.raises(ValueError, match="noise"):
        UtilitySpec(rules=(ReceiverRule(("a",), ()),), noise_power=0.0)


def test_receiver_rule_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        ReceiverRule(("a",), ("a",))


def test_utility_spec_from_mixed_scenario():
    spec = UtilitySpec.from_scenario(mixed_skeleton())
    assert spec.rules[0] == ReceiverRule(("11",), ("12", "2"))
    assert spec.rules[1] == ReceiverRule(("12", "2"), ("11",))
    assert spec.rules[2] == ReceiverRule(("2",), ("11", "12"))


def test_utility_spec_from_ic_scenario():
    spec = UtilitySpec.from_scenario(ic_skeleton(3, 3))
    assert spec.rules[0] == ReceiverRule(("1",), ("2", "3"))


# ------------------------------------------------------- strategy profiles


def test_all_mrt_profile_is_nash_equilibrium():
    s = ic_scenario(seed=5)
    point = ParameterPoint(
        lambdas={"1": indicator(0, 3), "2": indicator(1, 3), "3": indicator(2, 3)},
        splits={},
        free_powers={},
    )
    strategies = pareto_strategies(s, point)
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
        point = ParameterPoint(lambdas=lambdas, splits={}, free_powers={})
        gains = strategy_gain_matrix(s, pareto_strategies(s, point))
        for i, tid in enumerate(s.tids):
            for j in range(users):
                if i != j:
                    bound = 1e-12 * np.linalg.norm(s.channel(tid, j + 1)) ** 2
                    assert gains[i, j] <= bound


def test_mixed_degenerate_split_shuts_down_second_virtual():
    s = generate_channels(2, mixed_skeleton(3, noise_power=0.1))
    spec = UtilitySpec.from_scenario(s)
    point = ParameterPoint(
        lambdas={
            "11": indicator(0, 3),
            "12": indicator(1, 3),
            "2": np.array([0.0, 0.5, 0.5]),
        },
        splits={("11", "12"): np.array([1.0, 0.0])},
        free_powers={},
    )
    strategies = pareto_strategies(s, point)
    assert strategies["12"].power == 0.0
    assert strategies["11"].power == 1.0
    gains = strategy_gain_matrix(s, strategies)
    u = utilities(spec, s.tids, gains)
    # Receiver 2 sees only the multicast transmitter once 12 is silent.
    direct = np.log2(1 + gains[2, 1] / (spec.noise_power + gains[0, 1]))
    assert u[1] == pytest.approx(direct, rel=1e-12)


def test_pareto_strategies_requires_split():
    s = generate_channels(2, mixed_skeleton())
    point = ParameterPoint(
        lambdas={t: indicator(0, 3) for t in s.tids}, splits={}, free_powers={}
    )
    with pytest.raises(ValueError, match="split"):
        pareto_strategies(s, point)


def test_pareto_strategies_scale_the_boundary_strategy_by_the_split():
    # 11 and 12 share one power budget; 11 weights only receivers 2 and 3,
    # which it does not serve and 3 antennas can null, so it is FREE.
    s = generate_channels(5, mixed_skeleton(3))
    lambdas = {
        "11": np.array([0.0, 0.5, 0.5]),
        "12": np.array([0.2, 0.6, 0.2]),
        "2": np.array([0.2, 0.2, 0.6]),
    }
    split = (0.3, 0.7)
    point = ParameterPoint(
        lambdas=lambdas, splits={("11", "12"): np.array(split)}, free_powers={"11": 0.4}
    )
    strategies = pareto_strategies(s, point)
    for tid, share in zip(("11", "12"), split):
        ref = boundary_strategy(
            s.channels_for(tid), lambdas[tid], direction_vector(s, tid),
            p_free=point.free_powers.get(tid),
        )
        got = strategies[tid]
        assert got.power == share * ref.power
        assert got.power_class is ref.power_class
        assert np.array_equal(got.direction, ref.direction)
        assert np.array_equal(got.covariance(), got.power * outer_product(got.direction))
    assert strategies["11"].power_class is PowerClass.FREE
    assert strategies["11"].power == 0.3 * 0.4


@pytest.mark.parametrize("fractions", [[np.nan, np.nan], [0.5, 0.5 + 1e-10]])
def test_pareto_strategies_reject_a_split_off_the_simplex(fractions):
    s = generate_channels(2, mixed_skeleton())
    point = ParameterPoint(
        lambdas={t: indicator(0, 3) for t in s.tids},
        splits={("11", "12"): np.array(fractions)},
        free_powers={},
    )
    with pytest.raises(ValueError, match="finite|sum to 1"):
        pareto_strategies(s, point)


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
    axes = sweep_axes(mixed_skeleton(), 0.1)
    kinds = [(ax.kind, ax.label, len(ax)) for ax in axes]
    assert kinds == [
        ("lambda", "11", 66),
        ("lambda", "12", 66),
        ("lambda", "2", 66),
        ("split", ("11", "12"), 11),
    ]
    total = np.prod([len(ax) for ax in axes])
    assert total == 66**3 * 11


def test_sweep_axes_add_power_axis_when_needed():
    s = ic_skeleton(3, 2)  # two antennas, two unintended receivers each
    axes = sweep_axes(s, 0.5)
    kinds = [ax.kind for ax in axes]
    assert kinds == ["lambda"] * 3 + ["power"] * 3


def test_sweep_budget_enforced():
    s = ic_scenario(seed=1, users=3, antennas=3)
    # step 1/15 gives C(17,2)=136 weights per transmitter, 136^3 points.
    with pytest.raises(ValueError, match="2515456"):
        sweep_utility_region(s, step=1.0 / 15, point_budget=4000)


def test_sweep_budget_counts_huge_grids_exactly():
    # Five transmitters with 10,626 weights and 21 power levels each: the
    # point count is about 5.5e26, which wraps around in int64.
    s = ic_scenario(seed=1, users=5, antennas=2)
    with pytest.raises(ValueError, match="above the budget"):
        sweep_utility_region(s, step=0.05)


def test_sweep_budget_refuses_before_building_any_grid(monkeypatch):
    # Five lambda axes of C(54, 4) = 316,251 weights and five power axes.
    built = []

    def spy(k, step):
        built.append((k, step))
        raise AssertionError("a simplex grid was built")

    monkeypatch.setattr(pareto, "simplex_grid", spy)
    s = ic_scenario(seed=1, users=5, antennas=2)
    with pytest.raises(ValueError, match="above the budget"):
        sweep_utility_region(s, step=0.02)
    assert built == []


def test_sweep_matches_scalar_path():
    s = ic_scenario(seed=9, users=2, antennas=2, snr_db=5.0)
    spec = UtilitySpec.from_scenario(s)
    sweep = sweep_utility_region(s, spec, step=0.25)
    for i in range(0, len(sweep), 3):
        point = sweep.parameter_point(i)
        assert np.array_equal(utilities_at(s, spec, point), sweep.utilities[i])


def test_sweep_matches_scalar_path_with_groups_and_power():
    s = generate_channels(21, mixed_skeleton(2, noise_power=0.5))  # N=2 forces power axes
    spec = UtilitySpec.from_scenario(s)
    sweep = sweep_utility_region(s, spec, step=0.5)
    kinds = [ax.kind for ax in sweep.axes]
    assert "power" in kinds and "split" in kinds
    for i in range(0, len(sweep), 7):
        point = sweep.parameter_point(i)
        # The vectorized path multiplies factors in a different order, so
        # agreement is to rounding, not bit-exact.
        assert np.allclose(utilities_at(s, spec, point), sweep.utilities[i], rtol=1e-13)


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
    assert pareto_filter(pts) == [1, 2]


def test_pareto_filter_single_point():
    assert pareto_filter([[3.0, 1.0, 2.0]]) == [0]


def test_pareto_filter_duplicates_retained():
    pts = [[1, 2], [1, 2], [0.5, 2], [1, 1.9]]
    assert pareto_filter(pts) == [0, 1]


def test_pareto_filter_weak_dominance_semantics():
    # Tied in one coordinate, strictly worse in the other: removed.
    assert pareto_filter([[1, 1], [1, 0.5]]) == [0]
    # Equal points: both kept.
    assert pareto_filter([[1, 1], [1, 1]]) == [0, 1]


def test_pareto_filter_matches_bruteforce(rng):
    pts = rng.uniform(0, 1, (1000, 3))
    for i in range(50):
        pts[i] = pts[int(rng.integers(0, 1000))]
    for i in range(50, 100):
        j = int(rng.integers(0, 1000))
        pts[i] = pts[j]
        pts[i, int(rng.integers(0, 3))] -= 0.25
    assert pareto_filter(pts) == pareto_filter_bruteforce(pts)


def test_pareto_filter_matches_bruteforce_low_and_high_dims(rng):
    for d in (1, 2, 4, 5):
        pts = rng.uniform(0, 1, (300, d))
        pts[10] = pts[20]
        assert pareto_filter(pts) == pareto_filter_bruteforce(pts)


def test_pareto_filter_invariant_under_monotone_transforms(rng):
    pts = rng.uniform(0.1, 2.0, (400, 3))
    pts[5] = pts[6]
    transformed = np.column_stack(
        [np.log1p(pts[:, 0]), pts[:, 1] ** 3, np.expm1(pts[:, 2])]
    )
    assert pareto_filter(pts) == pareto_filter(transformed)


def test_pareto_filter_tie_columns(rng):
    # Many shared coordinates stress the tie fallback.
    pts = np.round(rng.uniform(0, 1, (500, 3)), 1)
    assert pareto_filter(pts) == pareto_filter_bruteforce(pts)


def test_pareto_filter_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            pareto_filter([[1.0, 2.0], [bad, 0.5], [0.5, 1.0]])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 60), st.just(d)),
            elements=st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0]),
        )
    )
)
def test_pareto_filter_matches_bruteforce_on_dense_ties(pts):
    # Values in 0..3 (with both signed zeros) make exact duplicates and
    # shared coordinates common on every path: d <= 3 and the d > 3 scan.
    assert pareto_filter(pts) == pareto_filter_bruteforce(pts)


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
    point = ParameterPoint(
        lambdas={
            "11": np.array([0.6, 0.2, 0.2]),
            "12": np.array([0.2, 0.6, 0.2]),
            "2": np.array([0.2, 0.2, 0.6]),
        },
        splits={("11", "12"): np.array([0.5, 0.5])},
        free_powers={},
    )
    strategies = pareto_strategies(s, point)
    gains = strategy_gain_matrix(s, strategies)
    channels2 = s.channels_for("2")
    q2 = 0.5 * strategies["2"].covariance()
    for target, receiver in ((2, 3), (0, 1)):
        q2_full = full_power_completion(q2, channels2, target)
        new_gains = gains.copy()
        new_gains[2] = [power_gain(q2, h) for h in channels2]
        before = utilities(spec, s.tids, new_gains)
        new_gains[2] = [power_gain(q2_full, h) for h in channels2]
        after = utilities(spec, s.tids, new_gains)
        if receiver == 3:  # receiver 3 decodes transmitter 2
            assert after[receiver - 1] >= before[receiver - 1]
        else:  # receiver 1 suffers interference from transmitter 2
            assert after[receiver - 1] <= before[receiver - 1]


def test_interior_gain_tuples_are_never_pareto(rng):
    # Any strategy strictly inside its gain-region boundary can be
    # replaced by a completion that weakly improves the utility point.
    s = ic_scenario(seed=37, users=3, antennas=3, snr_db=10.0)
    spec = UtilitySpec.from_scenario(s)
    point = ParameterPoint(
        lambdas={t: np.full(3, 1 / 3) for t in s.tids}, splits={}, free_powers={}
    )
    strategies = pareto_strategies(s, point)
    gains = strategy_gain_matrix(s, strategies)
    # Shrink transmitter 1's power: its gain tuple moves strictly inside.
    q1 = 0.5 * strategies["1"].covariance()
    channels1 = s.channels_for("1")
    inner = gains.copy()
    inner[0] = [power_gain(q1, h) for h in channels1]
    q1_full = full_power_completion(q1, channels1, 0)  # its intended receiver
    outer = inner.copy()
    outer[0] = [power_gain(q1_full, h) for h in channels1]
    # Off-target gains agree to 1e-10; round so the domination is exact.
    u_inner = utilities(spec, s.tids, np.round(inner, 10))
    u_outer = utilities(spec, s.tids, np.round(outer, 10))
    assert np.all(u_outer >= u_inner)
    assert u_outer[0] > u_inner[0]
