import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainregion import region
from gainregion.linalg import (
    as_channels,
    eig_hermitian,
    eig_tolerance,
    outer_product,
    tied_blocks,
    weighted_combination,
)
from gainregion.region import (
    PowerClass,
    boundary_strategy,
    boundary_table,
    check_simplex_weight,
    class_power,
    needs_power_control,
    simplex_grid,
    simplex_grid_size,
    strategy_gains,
    sweep_boundary,
    unit_gains,
)
from gainregion.verify import (
    full_power_completion,
    hyperplane_bound,
    power_gain,
    power_rule,
    projector_complement,
    random_feasible_covariance,
    segment_covariance,
    weighted_objective,
)

from conftest import oracle_sweep, random_channels


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


def test_power_gain_of_a_unit_vector_is_below_the_top_eigenvalue(rng):
    # Supporting-hyperplane oracle: no unit vector beats the top eigenvalue.
    for _ in range(50):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        z = (g + g.conj().T) / 2
        mu_max = eig_hermitian(z).values[-1]
        u = random_channels(rng, 4, 1)[0]
        u = u / np.linalg.norm(u)
        assert power_gain(z, u) <= mu_max + 1e-10


def test_unit_gains_is_the_per_pair_vdot_bitwise(rng):
    # unit_gains is the one gain evaluator, stacked; every gain must carry
    # the bits of the scalar abs(np.vdot(w, h)) ** 2, at every scale, on
    # strided rows (the eigenvector columns the table reads), and for a
    # row alone as inside its stack.
    compared = 0
    for n, k in itertools.product([1, 2, 3, 4, 5, 8], range(1, 7)):
        for scale in np.logspace(-6, 5, 12):
            h = scale * np.array(random_channels(rng, n, k))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            columns = np.linalg.eigh(g + g.conj().T)[1]  # row j = column j, strided
            for rows in (columns.T, scale * np.array(random_channels(rng, n, 12))):
                gains = unit_gains(h, rows)
                ref = np.array([[abs(np.vdot(w, c)) ** 2 for c in h] for w in rows])
                assert gains.shape == (len(rows), k)
                assert np.array_equal(gains, ref), (n, k, scale)
                assert all(np.array_equal(unit_gains(h, w), r) for w, r in zip(rows, ref))
                compared += ref.size
    assert compared == 12 * (23 + 6 * 12) * 21  # scales x rows over all N x sum of K


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


def test_power_rule_rejects_a_nan_matrix():
    with pytest.raises(ValueError, match="non-finite"):
        power_rule(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_weights_must_be_finite(rng):
    channels = random_channels(rng, 2, 3)
    e = [1, -1, -1]
    nan = [np.nan] * 3
    with pytest.raises(ValueError, match="finite"):
        check_simplex_weight(nan)
    with pytest.raises(ValueError, match="finite"):
        check_simplex_weight([[1.0, 0.0, 0.0], [np.nan, 0.5, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        hyperplane_bound(channels, nan, e)
    with pytest.raises(ValueError, match="finite"):
        boundary_strategy(channels, nan, e)


@pytest.mark.parametrize(
    "check, value, message",
    [
        pytest.param(region.check_direction, [1.5, -1.9, -1], r"entries must be \+-1", id="e0"),
        pytest.param(region.check_direction, [1, 0.5, -1], r"entries must be \+-1", id="e1"),
        pytest.param(region.check_direction, [1, 1.0000001], r"entries must be \+-1", id="e2"),
        # A channel set is refused in as_channels, the one place it is checked.
        pytest.param(as_channels, [[1.0, 0.0], [1.0]], "inhomogeneous", id="channels-ragged"),
        pytest.param(as_channels, [["1", 0.0]], "numeric", id="channels-text"),
        pytest.param(as_channels, [], r"nonempty numeric \(K, N\)", id="channels-none"),
        pytest.param(as_channels, np.zeros((2, 0)), r"got float64 \(2, 0\)", id="channels-empty"),
        pytest.param(as_channels, [1.0, 0.0], r"got float64 \(2,\)", id="channels-vector"),
        pytest.param(as_channels, np.ones((2, 2, 2)), r"got float64 \(2, 2, 2\)", id="channels-3d"),
        pytest.param(as_channels, [[1.0, np.inf]], "non-finite", id="channels-inf"),
    ],
)
def test_check_direction_refuses_entries_other_than_plus_or_minus_one(check, value, message):
    # Each per-transmitter input check refuses a malformed entry by name.
    with pytest.raises(ValueError, match=message):
        check(value)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: simplex_grid_size(0, 0.5), "k must be >= 1", id="grid-k-0"),
        pytest.param(lambda: check_simplex_weight(np.ones((2, 2, 2))),
                     r"shape \(K,\) or \(G, K\), got shape \(2, 2, 2\)", id="weights-3d"),
        pytest.param(lambda: check_simplex_weight([1.5, -0.5]), r"must lie in \[0, 1\]",
                     id="weights-range"),
        pytest.param(lambda: region.check_direction([[1, -1]]),
                     r"1-D direction vector, got shape \(1, 2\)", id="direction-2d"),
        pytest.param(lambda: unit_gains(np.eye(2), [[1.0, 0.0], [np.inf, 0.0]]),
                     r"finite beamformer rows, got shape \(2, 2\)", id="beamformer-inf"),
        pytest.param(lambda: sweep_boundary(np.eye(2), [1, -1, -1], 0.5),
                     "2 channels but direction has 3 entries", id="sweep-lengths"),
    ],
)
def test_region_checks_refuse_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_check_direction_accepts_integral_floats():
    d = region.check_direction([1.0, -1.0, 1.0])
    assert d.dtype.kind == "i" and d.tolist() == [1, -1, 1]


# ----------------------------------------------------- boundary strategy


def test_boundary_strategy_single_receiver_is_mrt(rng):
    h = random_channels(rng, 3, 1)[0]
    s = boundary_strategy([h], [1.0], [1])
    assert s.power_class is PowerClass.FULL
    assert s.power == 1.0
    gains = strategy_gains([h], s)
    assert gains[0] == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)


def test_single_antenna_weight_where_z_cancels_is_accepted(rng):
    # For one antenna Z = lam_1 |h_1|^2 - lam_2 |h_2|^2 along (+1, -1), which
    # cancels at lam = (|h_2|^2, |h_1|^2) / sum down to rounding residue; the
    # outer products leave it an imaginary part far above 1e-12 of Z itself.
    e = [1, -1]
    for _ in range(200):
        h = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        h *= 10 ** rng.uniform(-3, 3)
        norms = np.abs(h[:, 0]) ** 2
        lam = norms[::-1] / norms.sum()
        ref = boundary_strategy(h, lam, e)
        directions, classes, _ = boundary_table(h, lam[None, :], e)
        assert np.array_equal(directions[0], ref.direction) and classes[0] is ref.power_class
        assert abs(abs(ref.direction[0]) - 1.0) < 1e-15
        assert ref.power_class is PowerClass.FREE
        # Every power is optimal there: the supporting hyperplane is at 0.
        assert hyperplane_bound(h, lam, e) <= 1e-15 * norms.max()


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


def test_boundary_strategy_tied_top_takes_the_in_span_null_direction():
    # At lam = (0, 1), Z = -h2 h2^H has top eigenvalue 0 with multiplicity
    # 2; the interior limit must select the in-span null direction e1.
    h2 = np.array([0, 0, 1.0])
    s = boundary_strategy([np.array([1.0, 0, 0]), h2], [0, 1], [1, -1])
    assert abs(np.vdot(s.direction, [1, 0, 0])) ** 2 == pytest.approx(1.0, abs=1e-12)


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


# ----------------------------------------------------------- symmetries


@st.composite
def boundary_instances(draw):
    """Channels, simplex weights and a direction.  The weights lie on a
    random face (often the whole simplex), either at its barycentre (so
    vertices and edge midpoints occur, where Z has multiple eigenvalues)
    or at a Dirichlet draw on it."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = np.ones(k)
    if draw(st.booleans()):
        support = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k).filter(any)), float)
    lam = support if draw(st.integers(0, 2)) == 0 else rng.dirichlet(np.ones(k)) * support
    e = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k).filter(lambda d: 1 in d))
    return random_channels(rng, n, k), lam / lam.sum(), np.array(e)


def _misalignment(w, v) -> float:
    return 1.0 - abs(np.vdot(w, v)) ** 2


@settings(max_examples=200, deadline=None)
@given(boundary_instances(), st.floats(-8.0, 8.0))
def test_boundary_strategy_is_scale_invariant(instance, log10_c):
    # Scaling every channel by c scales Z by c^2: neither the power class
    # nor the direction may depend on the units of the channels.
    channels, lam, e = instance
    c = 10.0**log10_c
    s = boundary_strategy(channels, lam, e)
    s_c = boundary_strategy([c * h for h in channels], lam, e)
    assert s_c.power_class is s.power_class
    assert _misalignment(s.direction, s_c.direction) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(boundary_instances(), st.randoms(use_true_random=False))
def test_boundary_strategy_is_permutation_equivariant(instance, random):
    # Relabelling the receivers (channels, weights and directions together)
    # leaves the beamformer alone and permutes its gains.
    channels, lam, e = instance
    perm = list(range(len(channels)))
    random.shuffle(perm)
    s = boundary_strategy(channels, lam, e)
    s_p = boundary_strategy([channels[i] for i in perm], lam[perm], e[perm])
    assert s_p.power_class is s.power_class
    assert _misalignment(s.direction, s_p.direction) <= 1e-10
    scale = max(np.linalg.norm(h) ** 2 for h in channels)
    gains = strategy_gains(channels, s)
    permuted = strategy_gains([channels[i] for i in perm], s_p)
    assert np.abs(permuted - gains[perm]).max() <= 1e-9 * scale


@settings(max_examples=100, deadline=None)
@given(boundary_instances(), st.lists(st.floats(0.0, 2.0 * np.pi), min_size=4, max_size=4))
def test_channel_phases_leave_gains_unchanged(instance, phases):
    # Gains see a channel only through |w^H h|^2, so a phase per channel
    # changes neither the gains of a beamformer nor the boundary strategy.
    channels, lam, e = instance
    rotated = [np.exp(1j * t) * h for t, h in zip(phases, channels)]
    s = boundary_strategy(channels, lam, e)
    scale = max(np.linalg.norm(h) ** 2 for h in channels)
    gains = unit_gains(channels, s.direction)
    assert np.abs(unit_gains(rotated, s.direction) - gains).max() <= 1e-12 * scale
    s_r = boundary_strategy(rotated, lam, e)
    assert s_r.power_class is s.power_class
    assert np.abs(unit_gains(rotated, s_r.direction) - gains).max() <= 1e-9 * scale


# ------------------------------------------------------------------ grid


def test_simplex_grid_two_receivers():
    grid = simplex_grid(2, 0.5)
    assert np.allclose(grid, [[0, 1], [0.5, 0.5], [1, 0]])


def test_simplex_grid_counts():
    assert simplex_grid(3, 0.5).shape == (6, 3)
    assert simplex_grid(2, 0.02).shape == (51, 2)
    assert simplex_grid(3, 0.02).shape == (1326, 3)
    assert simplex_grid(3, 0.1).shape == (66, 3)


def test_simplex_grid_is_the_filtered_product_bitwise():
    # Every composition of m into K parts, in lexicographic order.
    for k in range(1, 5):
        for m in range(1, 11):
            rows = [p for p in itertools.product(range(m + 1), repeat=k) if sum(p) == m]
            want = np.array(rows, dtype=float) / m
            got = simplex_grid(k, 1.0 / m)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (k, m)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("step", [1 / 16, 1 / 30, 0.02, 0.01])
def test_simplex_grid_is_the_combinations_reference(k, step):
    # The stars-and-bars rows built through a list of bar-position tuples, at
    # steps too fine for the filtered product above.
    m = round(1.0 / step)
    bars = np.array(list(itertools.combinations(range(m + k - 1), k - 1)), dtype=np.intp)
    want = np.diff(bars.reshape(len(bars), k - 1), prepend=-1, append=m + k - 1) - 1
    got = simplex_grid(k, step)
    assert got.shape == want.shape and got.tobytes() == (want / m).tobytes()


def test_simplex_grid_builds_no_object_per_row():
    # 5,151 rows of 3 floats: 124 KB.  A list of one tuple per row peaked
    # near 0.6 MB; the bar positions and the rows alone stay under the bound.
    tracemalloc.start()
    try:
        grid = simplex_grid(3, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * grid.nbytes + 64 * 1024


def test_simplex_grid_size_counts_without_building():
    for k, step in ((1, 0.5), (2, 0.02), (3, 0.1), (4, 0.25), (5, 1.0)):
        assert simplex_grid_size(k, step) == len(simplex_grid(k, step))
    assert simplex_grid_size(8, 0.01) == 26_075_972_546  # C(107, 7)
    with pytest.raises(ValueError, match="divide"):
        simplex_grid_size(3, 0.3)


def test_simplex_grid_rejects_bad_step():
    with pytest.raises(ValueError):
        simplex_grid(2, 0.0)
    with pytest.raises(ValueError):
        simplex_grid(2, 1.5)
    with pytest.raises(ValueError):
        simplex_grid(2, 0.3)


def _sweep(channels, e, step, p_free_samples=11):
    """sweep_boundary's columns, after checking every row bit for bit
    against boundary_strategy and strategy_gains."""
    lam, power, classes, gains = sweep_boundary(channels, e, step, p_free_samples)
    refs = oracle_sweep(channels, np.asarray(e), step, p_free_samples)
    assert len(lam) == len(power) == len(classes) == len(gains) == len(refs)
    for l, p, c, g, ref in zip(lam, power, classes, gains, refs):
        assert np.array_equal(l, ref.lam)
        assert p == ref.power
        assert c is ref.power_class
        assert np.array_equal(g, strategy_gains(channels, ref))
    return lam, power, classes, gains


def test_sweep_boundary_two_receivers(rng):
    channels = random_channels(rng, 2, 2)
    lam, *_ = _sweep(channels, [1, -1], 0.5)
    assert len(lam) == 3
    assert [tuple(r) for r in lam] == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]


def test_sweep_boundary_three_receivers_count(rng):
    channels = random_channels(rng, 3, 3)
    lam, *_ = _sweep(channels, [1, -1, -1], 0.5)
    assert len(lam) == 6


def test_sweep_boundary_rayleigh_oracle(rng):
    channels = random_channels(rng, 2, 2)
    e = np.array([1, -1])
    lam, _, _, gains = _sweep(channels, e, 0.02)
    assert len(lam) == 51
    for l, g in zip(lam, gains):
        bound = hyperplane_bound(channels, l, e)
        assert weighted_objective(g, l, e) <= bound + 1e-9


def test_sweep_boundary_gain_box(rng):
    channels = random_channels(rng, 3, 3)
    box = np.array([np.linalg.norm(h) ** 2 for h in channels])
    _, _, _, gains = _sweep(channels, [1, -1, -1], 0.1)
    for g in gains:
        assert np.all(g >= -1e-12)
        assert np.all(g <= box + 1e-9)


def test_sweep_boundary_power_control_fan_out(rng):
    # Two antennas, three receivers: the free vertices fan out over the
    # power samples and the negative-definite face is silent.
    channels = random_channels(rng, 2, 3)
    e = np.array([1, -1, -1])
    assert needs_power_control(2, e)
    assert not needs_power_control(3, e)
    lam, power, classes, gains = _sweep(channels, e, 0.5, p_free_samples=3)
    free = classes == PowerClass.FREE
    zero = classes == PowerClass.ZERO
    assert {tuple(r) for r in lam[free]} == {(0, 1, 0), (0, 0, 1)}
    assert sorted(power[free]) == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
    assert zero.any()
    for g in gains[zero]:
        assert np.allclose(g, 0.0)


def test_boundary_table_matches_scalar_strategies(rng):
    # N < K, so the table holds full, free and zero rows.
    channels = random_channels(rng, 2, 3)
    e = np.array([1, -1, -1])
    grid = simplex_grid(3, 0.1)
    directions, classes, gains = _assert_table_is_oracle(channels, grid, e)
    assert directions.shape == (len(grid), 2) and gains.shape == (len(grid), 3)
    assert set(classes) == set(PowerClass)


def _assert_table_is_oracle(channels, grid, e):
    directions, classes, gains = boundary_table(channels, grid, e)
    assert len(directions) == len(classes) == len(grid)
    assert gains.shape == (len(grid), len(channels))
    for lam, w, cls, power, row in zip(grid, directions, classes, class_power(classes), gains):
        ref = boundary_strategy(channels, lam, e)
        assert np.array_equal(w, ref.direction)
        assert cls is ref.power_class
        assert power == ref.power
        assert np.array_equal(row, [abs(np.vdot(ref.direction, h)) ** 2 for h in channels])
    return directions, classes, gains


def test_boundary_table_hands_only_top_tied_rows_to_the_oracle(rng, monkeypatch):
    # The split rewrites only tied blocks, so only a tied top eigenvalue
    # can move the direction.  At step 1/3 the +1 vertices tie the lower
    # eigenvalues of Z alone, and the faces of the -1 receivers tie the top.
    channels = random_channels(rng, 4, 4)
    e = np.array([1, 1, -1, -1])
    grid = simplex_grid(4, 1.0 / 3.0)
    seen = []
    oracle = region.boundary_strategy

    def spy(vecs, lam, direction):
        seen.append(tuple(lam))
        return oracle(vecs, lam, direction)

    monkeypatch.setattr(region, "boundary_strategy", spy)
    boundary_table(channels, grid, e)
    top_tied, lower_tied = [], 0
    for lam in grid:
        values = eig_hermitian(weighted_combination(channels, lam, e)).values
        if values[-2] >= values[-1] - eig_tolerance(values):
            top_tied.append(tuple(lam))
        elif tied_blocks(values):
            lower_tied += 1
    assert top_tied and lower_tied
    assert seen == top_tied


@st.composite
def table_instances(draw):
    """Channels at scale 10^x, a feasible direction and a simplex grid of
    step 1/m, whose vertices and face points give tied eigenvalues."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = 10.0 ** draw(st.floats(-8.0, 8.0))
    e = draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k).filter(lambda d: 1 in d))
    m = draw(st.integers(1, 8 if k < 4 else 5))
    return [c * h for h in random_channels(rng, n, k)], simplex_grid(k, 1.0 / m), np.array(e)


@settings(max_examples=150, deadline=None)
@given(table_instances())
def test_boundary_table_is_the_scalar_oracle_bitwise(instance):
    _assert_table_is_oracle(*instance)


def test_boundary_table_across_blocks_is_the_scalar_oracle(rng):
    # 1,326 weights: more than one block of the stacked eigendecomposition.
    channels = [1e-3 * h for h in random_channels(rng, 3, 3)]
    _assert_table_is_oracle(channels, simplex_grid(3, 0.02), np.array([1, -1, -1]))


def test_sweep_boundary_rows_match_strategy_gains(rng):
    channels = random_channels(rng, 2, 3)
    e = np.array([1, -1, -1])
    _, power, classes, _ = _sweep(channels, e, 0.1, p_free_samples=5)
    free = classes == PowerClass.FREE
    assert np.count_nonzero(free) > 5  # the free rows fan out over the power samples
    assert set(power[free]) == {0.0, 0.25, 0.5, 0.75, 1.0}


def test_sweep_boundary_no_fan_out_when_full_power_suffices(rng):
    channels = random_channels(rng, 3, 3)
    lam, *_ = _sweep(channels, [1, -1, -1], 0.1)
    assert len(lam) == 66  # one row per simplex point


def test_class_power_is_the_one_power_rule():
    classes = np.array([PowerClass.FULL, PowerClass.FREE, PowerClass.ZERO], dtype=object)
    assert class_power(classes).tolist() == [1.0, 1.0, 0.0]
    assert class_power(classes, 0.25).tolist() == [1.0, 0.25, 0.0]
    assert class_power(PowerClass.FREE, 0.25) == 0.25
    assert type(class_power(PowerClass.FULL)) is float
    with pytest.raises(ValueError, match="p_free"):
        class_power(classes, 1.5)
    # A (G, 1) column of classes against a row of FREE levels: a (G, P) table.
    levels = np.array([0.0, 0.5, 1.0])
    assert class_power(classes[:, None], levels).tolist() == [
        [1.0, 1.0, 1.0],
        [0.0, 0.5, 1.0],
        [0.0, 0.0, 0.0],
    ]
    with pytest.raises(ValueError, match="p_free"):
        class_power(classes[:, None], np.array([0.0, 1.5, 1.0]))


def test_sweep_boundary_refuses_a_grid_above_the_budget(rng, monkeypatch):
    def spy(*args):
        raise AssertionError("simplex_grid ran on a grid above the budget")

    monkeypatch.setattr(region, "simplex_grid", spy)
    channels = random_channels(rng, 2, 3)
    with pytest.raises(ValueError, match="5151 grid rows, above the budget of 100"):
        sweep_boundary(channels, [1, -1, -1], 0.01, point_budget=100)


def test_sweep_boundary_refuses_a_fan_out_above_the_budget(rng):
    # Two free vertices at step 0.5 (6 grid rows), each fanned out over 100
    # levels: 6 + 2 * 99 rows, more than a budget of 100.
    channels = random_channels(rng, 2, 3)
    with pytest.raises(ValueError, match="204 rows after the free fan-out"):
        sweep_boundary(channels, [1, -1, -1], 0.5, p_free_samples=100, point_budget=100)
    lam = sweep_boundary(channels, [1, -1, -1], 0.5, p_free_samples=48, point_budget=100)[0]
    assert len(lam) == 100


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
            # after dominates before in direction e: >= everywhere, > once
            gain = (after - before) * e
            assert np.all(gain >= 0) and np.any(gain > 0)


# ------------------------------------------- random covariance sampler


def test_random_feasible_covariance_basics():
    for i in range(20):
        q = random_feasible_covariance(i, 4)
        eigs = np.linalg.eigvalsh(q)
        assert eigs.min() >= -1e-12
        assert np.trace(q).real <= 1 + 1e-12


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
