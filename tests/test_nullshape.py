import numpy as np
import pytest

from gainregion.linalg import eig_hermitian, weighted_combination
from gainregion.region import boundary_eigensystem, boundary_strategy, unit_gains
from gainregion.verify import (
    eigenvalue_structure,
    null_constraints,
    projected_mrt,
    unit,
    verify_gain_equivalence,
)

from conftest import random_channels


E3 = np.array([1, -1, -1])


def test_constraint_indices_miso_ic_three_user(rng):
    # One intended receiver: the high index range is empty and the
    # constraints are the two smallest-eigenvalue eigenvectors.
    channels = random_channels(rng, 3, 3)
    cs = null_constraints(channels, [0.2, 0.5, 0.3], E3)
    assert cs.shape[1] == 2
    assert not cs.flags.writeable
    # low range [0, 2), high range [2, 2) empty: 3..2 in 1-based terms
    vectors = boundary_eigensystem(channels, [0.2, 0.5, 0.3], E3).vectors
    assert np.array_equal(cs, vectors[:, np.r_[0:2, 2:2]])
    es = eig_hermitian(weighted_combination(channels, [0.2, 0.5, 0.3], E3))
    assert np.allclose(np.abs(cs.conj().T @ es.vectors[:, :2]), np.eye(2), atol=1e-12)


def test_constraint_indices_multicast_transmitter(rng):
    # Two intended receivers: one low constraint plus one high constraint.
    channels = random_channels(rng, 3, 3)
    cs = null_constraints(channels, [0.3, 0.4, 0.3], np.array([-1, 1, 1]))
    assert cs.shape[1] == 2
    # low range [0, 1), high range [1, 2); the top eigenvector is left out
    vectors = boundary_eigensystem(channels, [0.3, 0.4, 0.3], [-1, 1, 1]).vectors
    assert np.array_equal(cs, vectors[:, np.r_[0:1, 1:2]])


def test_constraint_set_empty_for_single_receiver(rng):
    h = random_channels(rng, 2, 1)
    cs = null_constraints(h, [1.0], [1])
    assert cs.shape[1] == 0
    w = projected_mrt(cs, h[0])
    assert np.array_equal(w, unit(h[0]))


def test_constraint_columns_orthonormal(rng):
    channels = random_channels(rng, 4, 3)
    cs = null_constraints(channels, [0.5, 0.25, 0.25], E3)
    gram = cs.conj().T @ cs
    assert np.abs(gram - np.eye(2)).max() <= 1e-10


def test_rejects_narrow_transmitter(rng):
    channels = random_channels(rng, 2, 3)
    with pytest.raises(ValueError, match="n_antennas"):
        null_constraints(channels, [0.4, 0.3, 0.3], E3)


def test_zero_eigenvalue_count(rng):
    # Four antennas, three receivers: at least one exact zero eigenvalue.
    channels = random_channels(rng, 4, 3)
    for i in range(20):
        lam = np.random.default_rng(i).dirichlet(np.ones(3))
        m = weighted_combination(channels, lam, E3)
        es = eig_hermitian(m)
        tau = 1e-9 * (1.0 + np.abs(m).max())
        assert np.sum(np.abs(es.values) <= tau) >= 1


def test_projected_mrt_satisfies_constraints(rng):
    channels = random_channels(rng, 4, 3)
    cs = null_constraints(channels, [0.2, 0.3, 0.5], E3)
    w = projected_mrt(cs, channels[0])
    assert np.abs(cs.conj().T @ w).max() <= 1e-10
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


def test_projected_mrt_gains_equal_the_boundary_direction(rng):
    channels = random_channels(rng, 4, 3)
    lam = np.array([0.25, 0.35, 0.4])
    cs = null_constraints(channels, lam, E3)
    w_proj = projected_mrt(cs, channels[0])
    v_top = boundary_strategy(channels, lam, E3).direction
    probes = random_channels(rng, 4, 6) + list(channels)
    a = unit_gains(probes, w_proj)
    b = unit_gains(probes, v_top)
    rel = np.abs(a - b) / np.maximum(np.maximum(a, b), 1e-9)
    assert rel.max() <= 1e-8


def test_verify_gain_equivalence_single_receiver(rng):
    h = random_channels(rng, 3, 1)
    assert verify_gain_equivalence(h, [1.0], [1], probes=20, seed=1) <= 1e-12


def test_verify_gain_equivalence_batch(rng):
    channels = random_channels(rng, 4, 3)
    worst = 0.0
    for i in range(50):
        lam = np.random.default_rng(100 + i).dirichlet(np.ones(3))
        worst = max(
            worst, verify_gain_equivalence(channels, lam, E3, probes=20, seed=i)
        )
    assert worst <= 1e-8


def test_verify_gain_equivalence_degenerate_weights(rng):
    # All weight on one unintended receiver: the top eigenvalue is
    # multiple and the interior-limit tie-break has to hold the equivalence.
    channels = random_channels(rng, 4, 3)
    lam = np.array([0.0, 1.0, 0.0])
    assert verify_gain_equivalence(channels, lam, E3, probes=30, seed=5) <= 1e-8


def test_eigenvalue_sign_structure(rng):
    channels = random_channels(rng, 4, 3)
    for i in range(20):
        lam = np.random.default_rng(200 + i).dirichlet(np.ones(3))
        diag = eigenvalue_structure(channels, lam, E3)
        assert diag["low_max"] <= diag["tau"]
        assert diag["middle_absmax"] <= diag["tau"]
        assert diag["annihilation"] <= 1e-9


def test_eigenvalue_structure_rejects_narrow_transmitter():
    # Two antennas, three receivers: the constraint ranges need N >= K, so
    # the diagnostics refuse, as null_constraints does.
    channels = random_channels(np.random.default_rng(1), 2, 3)
    with pytest.raises(ValueError, match="n_antennas >= receivers"):
        eigenvalue_structure(channels, [0.2, 0.3, 0.5], E3)


def test_completeness_identity(rng):
    # The top eigenvector's outer product equals the projector onto the
    # complement of the remaining eigenvectors.
    channels = random_channels(rng, 4, 3)
    lam = np.array([0.4, 0.3, 0.3])
    es = eig_hermitian(weighted_combination(channels, lam, E3))
    v_top = es.vectors[:, -1]
    rest = es.vectors[:, :-1]
    complement = np.eye(4) - rest @ rest.conj().T
    assert np.abs(np.outer(v_top, v_top.conj()) - complement).max() <= 1e-10
