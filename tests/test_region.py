import numpy as np
import pytest

from gainregion.linalg import outer_product, projector_complement
from gainregion.region import (
    BoundaryStrategy,
    PowerClass,
    boundary_strategy,
    boundary_table,
    dominates,
    full_power_completion,
    hyperplane_bound,
    needs_power_control,
    power_gain,
    power_rule,
    random_feasible_covariance,
    segment_covariance,
    simplex_grid,
    strategy_gains,
    sweep_boundary,
    weighted_objective,
)

from conftest import random_channels


# ---------------------------------------------------------------- gains


def test_power_gain_mrt_hits_channel_norm(rng):
    h = random_channels(rng, 3, 1)[0]
    q = outer_product(h) / np.linalg.norm(h) ** 2
    assert power_gain(q, h) == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)


def test_power_gain_orthogonal_beamformer_is_zero():
    h = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    assert power_gain(outer_product(w), h) == pytest.approx(0.0, abs=1e-15)


def test_power_gain_matches_trace_form(rng):
    for i in range(20):
        q = random_feasible_covariance(i, 3)
        h = random_channels(rng, 3, 1)[0]
        trace_form = float(np.trace(q @ outer_product(h)).real)
        assert abs(power_gain(q, h) - trace_form) <= 1e-12 * (1 + abs(trace_form))


def test_power_gain_dim_mismatch():
    with pytest.raises(ValueError):
        power_gain(np.eye(3), [1.0, 0.0])


# ------------------------------------------------------------ power rule


def test_power_rule_full():
    assert power_rule(np.diag([0.5, -0.5])) is PowerClass.FULL


def test_power_rule_zero_negative_definite(rng):
    h2, h3 = random_channels(rng, 2, 2)
    z = -0.4 * outer_product(h2) - 0.6 * outer_product(h3)
    assert power_rule(z) is PowerClass.ZERO


def test_power_rule_free_on_null_space(rng):
    h2 = random_channels(rng, 3, 1)[0]
    assert power_rule(-outer_product(h2)) is PowerClass.FREE


# ----------------------------------------------------- boundary strategy


def test_boundary_strategy_single_receiver_is_mrt(rng):
    h = random_channels(rng, 3, 1)[0]
    s = boundary_strategy([h], [1.0], [1])
    assert s.power_class is PowerClass.FULL
    assert s.power == 1.0
    gains = strategy_gains([h], s)
    assert gains[0] == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)


def test_boundary_strategy_orthogonal_channels_decouple():
    h1 = np.array([2.0, 0.0])
    h2 = np.array([0.0, 1.0])
    s = boundary_strategy([h1, h2], [0.7, 0.3], [1, -1])
    gains = strategy_gains([h1, h2], s)
    assert gains[0] == pytest.approx(4.0, rel=1e-12)
    assert gains[1] == pytest.approx(0.0, abs=1e-12)


def test_boundary_strategy_zero_class_shuts_down(rng):
    h2, h3 = random_channels(rng, 2, 2)
    channels = [random_channels(rng, 2, 1)[0], h2, h3]
    s = boundary_strategy(channels, [0.0, 0.5, 0.5], [1, -1, -1])
    assert s.power_class is PowerClass.ZERO
    assert s.power == 0.0
    assert np.allclose(strategy_gains(channels, s), 0.0)


def test_boundary_strategy_free_power_choice(rng):
    channels = random_channels(rng, 3, 2)
    s = boundary_strategy(channels, [0.0, 1.0], [1, -1], p_free=0.25)
    assert s.power_class is PowerClass.FREE
    assert s.power == 0.25
    with pytest.raises(ValueError, match="p_free"):
        boundary_strategy(channels, [0.0, 1.0], [1, -1], p_free=1.5)


def test_boundary_strategy_free_defaults_to_full_power(rng):
    channels = random_channels(rng, 3, 2)
    s = boundary_strategy(channels, [0.0, 1.0], [1, -1])
    assert s.power_class is PowerClass.FREE
    assert s.power == 1.0
    # The beamformer nulls the suppressed channel (zero forcing anchor).
    gains = strategy_gains(channels, s)
    assert gains[1] <= 1e-12 * np.linalg.norm(channels[1]) ** 2


def test_boundary_strategy_face_weights_are_interior_limits(rng):
    # On simplex faces the top eigenvalue of Z can be multiple.  The
    # direction there must be the limit of the interior directions toward
    # the barycentre, so a face row of a sweep continues its neighbours.
    channels = random_channels(rng, 4, 3)
    e = np.array([1, -1, -1])
    u = np.full(3, 1.0 / 3.0)
    faces = list(np.eye(3))
    faces += [np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.0, 0.5]), np.array([0.0, 0.5, 0.5])]
    for lam in faces:
        w = boundary_strategy(channels, lam, e).direction
        w_in = boundary_strategy(channels, lam + 1e-6 * (u - lam), e).direction
        assert 1.0 - abs(np.vdot(w, w_in)) ** 2 <= 1e-8, lam


# ------------------------------------------------------------------ grid


def test_simplex_grid_two_receivers():
    grid = simplex_grid(2, 0.5)
    assert np.allclose(grid, [[0, 1], [0.5, 0.5], [1, 0]])


def test_simplex_grid_counts():
    assert simplex_grid(3, 0.5).shape == (6, 3)
    assert simplex_grid(2, 0.02).shape == (51, 2)
    assert simplex_grid(3, 0.02).shape == (1326, 3)
    assert simplex_grid(3, 0.1).shape == (66, 3)


def test_simplex_grid_rejects_bad_step():
    with pytest.raises(ValueError):
        simplex_grid(2, 0.0)
    with pytest.raises(ValueError):
        simplex_grid(2, 1.5)
    with pytest.raises(ValueError):
        simplex_grid(2, 0.3)


def test_sweep_boundary_two_receivers(rng):
    channels = random_channels(rng, 2, 2)
    rows = sweep_boundary(channels, [1, -1], 0.5)
    assert len(rows) == 3
    lams = [tuple(r.lam) for r in rows]
    assert lams == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]


def test_sweep_boundary_three_receivers_count(rng):
    channels = random_channels(rng, 3, 3)
    rows = sweep_boundary(channels, [1, -1, -1], 0.5)
    assert len(rows) == 6


def test_sweep_boundary_rayleigh_oracle(rng):
    channels = random_channels(rng, 2, 2)
    e = np.array([1, -1])
    rows = sweep_boundary(channels, e, 0.02)
    assert len(rows) == 51
    for row in rows:
        bound = hyperplane_bound(channels, row.lam, e)
        assert weighted_objective(row.gains, row.lam, e) <= bound + 1e-9


def test_sweep_boundary_gain_box(rng):
    channels = random_channels(rng, 3, 3)
    box = np.array([np.linalg.norm(h) ** 2 for h in channels])
    for row in sweep_boundary(channels, [1, -1, -1], 0.1):
        assert np.all(row.gains >= -1e-12)
        assert np.all(row.gains <= box + 1e-9)


def test_sweep_boundary_power_control_fan_out(rng):
    # Two antennas, three receivers: the free vertices fan out over the
    # power samples and the negative-definite face is silent.
    channels = random_channels(rng, 2, 3)
    e = np.array([1, -1, -1])
    assert needs_power_control(2, e)
    assert not needs_power_control(3, e)
    rows = sweep_boundary(channels, e, 0.5, p_free_samples=3)
    by_class = {}
    for row in rows:
        by_class.setdefault(row.strategy.power_class, []).append(row)
    assert {tuple(r.lam) for r in by_class[PowerClass.FREE]} == {(0, 1, 0), (0, 0, 1)}
    assert sorted(r.strategy.power for r in by_class[PowerClass.FREE]) == [
        0.0, 0.0, 0.5, 0.5, 1.0, 1.0,
    ]
    for row in by_class[PowerClass.ZERO]:
        assert np.allclose(row.gains, 0.0)


def test_boundary_table_matches_scalar_strategies(rng):
    # N < K, so the table holds full, free and zero rows.
    channels = random_channels(rng, 2, 3)
    e = np.array([1, -1, -1])
    grid = simplex_grid(3, 0.1)
    strategies, gains = boundary_table(channels, grid, e)
    assert len(strategies) == len(grid) and gains.shape == (len(grid), 3)
    assert {s.power_class for s in strategies} == set(PowerClass)
    for lam, strat, row in zip(grid, strategies, gains):
        ref = boundary_strategy(channels, lam, e)
        assert np.array_equal(strat.lam, lam)
        assert np.array_equal(strat.direction, ref.direction)
        assert strat.power_class is ref.power_class
        assert strat.power == ref.power
        w = ref.direction
        assert np.array_equal(row, [abs(np.vdot(w, h)) ** 2 for h in channels])


def test_sweep_boundary_rows_match_strategy_gains(rng):
    channels = random_channels(rng, 2, 3)
    e = np.array([1, -1, -1])
    rows = sweep_boundary(channels, e, 0.1, p_free_samples=5)
    free = [row for row in rows if row.strategy.power_class is PowerClass.FREE]
    assert len(free) > 5  # the free rows fan out over the power samples
    assert {row.strategy.power for row in free} == {0.0, 0.25, 0.5, 0.75, 1.0}
    for row in rows:
        assert np.array_equal(row.gains, strategy_gains(channels, row.strategy))


def test_sweep_boundary_no_fan_out_when_full_power_suffices(rng):
    channels = random_channels(rng, 3, 3)
    rows = sweep_boundary(channels, [1, -1, -1], 0.1)
    assert len(rows) == 66  # one row per simplex point


# ------------------------------------------------------------- dominance


def test_dominates_examples():
    e = [1, -1]
    assert dominates([2, 0], [1, 1], e)
    assert not dominates([1, 1], [1, 1], e)
    assert not dominates([2, 2], [1, 1], e)


def test_dominates_length_mismatch():
    with pytest.raises(ValueError):
        dominates([1, 2], [1], [1, -1])


# ------------------------------------------------- segment covariance


def test_segment_covariance_endpoints(rng):
    qx = random_feasible_covariance(1, 3)
    qy = random_feasible_covariance(2, 3)
    assert np.allclose(segment_covariance(qx, qy, 1.0), qx)
    assert np.allclose(segment_covariance(qx, qy, 0.0), qy)


def test_segment_covariance_gain_average(rng):
    channels = random_channels(rng, 3, 3)
    for i in range(50):
        qx = random_feasible_covariance(2 * i, 3)
        qy = random_feasible_covariance(2 * i + 1, 3)
        qz = segment_covariance(qx, qy, 0.5)
        for h in channels:
            mix = 0.5 * power_gain(qx, h) + 0.5 * power_gain(qy, h)
            assert abs(power_gain(qz, h) - mix) <= 1e-12
        assert np.trace(qz).real <= 1 + 1e-12
        assert np.linalg.eigvalsh(qz).min() >= -1e-10


def test_segment_covariance_rejects_bad_t(rng):
    q = random_feasible_covariance(0, 2)
    with pytest.raises(ValueError):
        segment_covariance(q, q, 1.5)


# --------------------------------------------- full power completion


def test_full_power_completion_from_zero(rng):
    channels = random_channels(rng, 2, 2)
    q = full_power_completion(np.zeros((2, 2)), channels, 0)
    assert np.trace(q).real == pytest.approx(1.0, abs=1e-12)
    assert power_gain(q, channels[1]) <= 1e-10
    assert power_gain(q, channels[0]) > 0
    assert np.linalg.matrix_rank(q) == 1
    # The added direction is the projection of the target channel.
    d = projector_complement([channels[1]]) @ channels[0]
    assert abs(np.vdot(d / np.linalg.norm(d), q @ d / np.linalg.norm(q @ d))) == pytest.approx(
        1.0, abs=1e-10
    )


def test_full_power_completion_rejects_full_trace(rng):
    channels = random_channels(rng, 2, 2)
    with pytest.raises(ValueError, match="already full power"):
        full_power_completion(np.eye(2) / 2, channels, 0)


def test_full_power_completion_rejects_narrow_arrays(rng):
    channels = random_channels(rng, 2, 3)
    with pytest.raises(ValueError, match="n_antennas"):
        full_power_completion(np.zeros((2, 2)), channels, 0)


def test_full_power_completion_random(rng):
    channels = random_channels(rng, 3, 3)
    for i in range(50):
        q = random_feasible_covariance(i, 3)
        q = q * (0.3 / np.trace(q).real)
        target = i % 3
        qq = full_power_completion(q, channels, target)
        assert np.trace(qq).real == pytest.approx(1.0, abs=1e-12)
        for j, h in enumerate(channels):
            delta = power_gain(qq, h) - power_gain(q, h)
            if j == target:
                assert delta > 1e-6
            else:
                assert abs(delta) <= 1e-10


def test_full_power_completion_dominates_in_positive_directions(rng):
    channels = random_channels(rng, 3, 3)
    q = random_feasible_covariance(7, 3)
    q = q * (0.4 / np.trace(q).real)
    target = 1
    qq = full_power_completion(q, channels, target)
    before = np.round([power_gain(q, h) for h in channels], 10)
    after = np.round([power_gain(qq, h) for h in channels], 10)
    for bits in range(1, 8):
        e = [1 if bits & (1 << j) else -1 for j in range(3)]
        if e[target] == 1:
            assert dominates(after, before, e)


# ------------------------------------------- random covariance sampler


def test_random_feasible_covariance_basics():
    for i in range(20):
        q = random_feasible_covariance(i, 4)
        eigs = np.linalg.eigvalsh(q)
        assert eigs.min() >= -1e-12
        assert np.trace(q).real <= 1 + 1e-12


def test_random_feasible_covariance_full_power():
    q = random_feasible_covariance(3, 3, full_power=True)
    assert np.trace(q).real == pytest.approx(1.0, abs=1e-12)


def test_random_feasible_covariance_rank():
    q = random_feasible_covariance(5, 4, rank=2)
    eigs = np.linalg.eigvalsh(q)
    assert np.sum(eigs > 1e-10) == 2


def test_random_feasible_covariance_deterministic():
    assert np.array_equal(
        random_feasible_covariance(11, 3), random_feasible_covariance(11, 3)
    )


def test_random_feasible_covariance_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_feasible_covariance(0, 3, rank=4)


# --------------------------------------------------- rank-1 sufficiency


def test_rank_one_strategies_attain_hyperplane_bound(rng):
    # No feasible covariance of any rank exceeds the bound reached by the
    # rank-1 boundary strategy.
    channels = random_channels(rng, 3, 3)
    e = np.array([1, -1, -1])
    grid = simplex_grid(3, 0.2)
    for lam in grid:
        bound = hyperplane_bound(channels, lam, e)
        strat = boundary_strategy(channels, lam, e)
        attained = weighted_objective(strategy_gains(channels, strat), lam, e)
        if strat.power_class is PowerClass.FULL:
            assert attained == pytest.approx(bound, abs=1e-9)
        for i in range(40):
            q = random_feasible_covariance(1000 + i, 3, rank=(i % 3) + 1)
            value = weighted_objective([power_gain(q, h) for h in channels], lam, e)
            assert value <= bound + 1e-9
