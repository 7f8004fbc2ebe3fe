import numpy as np
import pytest

from gainregion.linalg import (
    HERMITIAN_RTOL,
    DegenerateEigenspaceWarning,
    eig_hermitian,
    fix_phase,
    outer_product,
    split_ties,
    tied_blocks,
    weighted_combination,
)
from gainregion.verify import projector_complement, projector_onto

from conftest import random_channels


def _rebuild(es):
    """The matrix (or stack) V diag(values) V^H of an eigensystem."""
    v = es.vectors
    return (v * es.values[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def test_outer_product_basis_vector():
    assert np.allclose(outer_product([1, 0]), [[1, 0], [0, 0]])


def test_outer_product_phase_cancels_on_diagonal():
    assert np.allclose(outer_product([0, 1j]), [[0, 0], [0, 1]])


def test_outer_product_symmetric():
    h = np.array([1, 1]) / np.sqrt(2)
    assert np.allclose(outer_product(h), 0.5 * np.ones((2, 2)))


def test_outer_product_trace_and_rank(rng):
    h = random_channels(rng, 4, 1)[0]
    q = outer_product(h)
    assert np.isclose(np.trace(q).real, np.linalg.norm(h) ** 2)
    assert np.linalg.matrix_rank(q) == 1
    assert np.linalg.eigvalsh(q).min() >= -1e-12


def test_weighted_combination_single_channel():
    z = weighted_combination([[1, 0]], [1.0], [1])
    assert np.allclose(z, [[1, 0], [0, 0]])


def test_weighted_combination_orthogonal_channels():
    z = weighted_combination([[1, 0], [0, 1]], [0.5, 0.5], [1, -1])
    assert np.allclose(z, np.diag([0.5, -0.5]))


def test_weighted_combination_negative_definite(rng):
    # Two transmit antennas, all weight on two independent suppressed
    # channels: the combination must be negative definite.
    h2, h3 = random_channels(rng, 2, 2)
    z = weighted_combination([np.zeros(2), h2, h3], [0.0, 0.5, 0.5], [1, -1, -1])
    assert np.linalg.eigvalsh(z).max() < 0


def test_weighted_combination_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        weighted_combination([[1, 0]], [0.5, 0.5], [1, -1])


def test_weighted_combination_stack_matches_rows(rng):
    channels = random_channels(rng, 3, 4)
    e = [1, -1, 1, -1]
    weights = rng.dirichlet(np.ones(4), size=7)
    stack = weighted_combination(channels, weights, e)
    assert stack.shape == (7, 3, 3)
    for w, z in zip(weights, stack):
        assert np.array_equal(z, weighted_combination(channels, w, e))


def test_eig_hermitian_diagonal():
    es = eig_hermitian(np.diag([2.0, -1.0]))
    assert np.allclose(es.values, [-1.0, 2.0])
    assert np.allclose(np.abs(es.vectors[:, 0]), [0, 1])
    assert np.allclose(np.abs(es.vectors[:, 1]), [1, 0])


def test_eig_hermitian_rank_one():
    h = np.array([1, 1]) / np.sqrt(2)
    es = eig_hermitian(outer_product(h))
    assert np.allclose(es.values, [0, 1], atol=1e-12)
    assert abs(np.vdot(es.vectors[:, 1], h)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_eig_hermitian_reconstruction(rng):
    for _ in range(20):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        z = (g + g.conj().T) / 2
        es = eig_hermitian(z)
        scale = 1.0 + np.abs(z).max()
        assert np.abs(_rebuild(es) - z).max() <= 1e-10 * scale
        assert np.all(np.diff(es.values) >= 0)
        gram = es.vectors.conj().T @ es.vectors
        assert np.abs(gram - np.eye(5)).max() <= 1e-10


def test_eig_hermitian_deterministic(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    z = (g + g.conj().T) / 2
    a = eig_hermitian(z)
    b = eig_hermitian(z.copy())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_eig_hermitian_phase_convention(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    es = eig_hermitian((g + g.conj().T) / 2)
    for i in range(4):
        v = es.vectors[:, i]
        first = v[np.abs(v) > 1e-12 * np.abs(v).max()][0]
        assert first.imag == pytest.approx(0.0, abs=1e-12)
        assert first.real > 0


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_rejects_non_finite_entries():
    # NaN fails every comparison, so the Hermitian test alone would pass it.
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    for z in (nan, np.stack([np.eye(2), nan]), np.array([[1.0, np.inf], [np.inf, 1.0]])):
        with pytest.raises(ValueError, match="non-finite"):
            eig_hermitian(z)


def test_eig_hermitian_rejects_non_hermitian_at_any_scale():
    # The asymmetry bound is relative to the matrix's own entries, so a
    # tiny non-Hermitian matrix is refused like its unit-scale version.
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    for c in (1e-13, 1e-30, 1e20):
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(c * bad)
    # In a stack each matrix is held to its own scale.
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(np.stack([1e6 * np.eye(2), 1e-3 * bad]))


def test_eig_hermitian_accepts_rounding_asymmetry_at_any_scale(rng):
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    z = g + g.conj().T
    z[0, 1] *= 1.0 + 0.1 * HERMITIAN_RTOL
    for c in (1e-30, 1.0, 1e30):
        eig_hermitian(c * z)


def test_eig_hermitian_reads_both_triangles(rng):
    # Only the Hermitian part (a + a^H)/2 is decomposed: a matrix within
    # the tolerance of Hermitian and its conjugate transpose give the same
    # eigensystem, bit for bit.
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    z = g + g.conj().T + 1e-14 * (g - g.conj().T)
    a = eig_hermitian(z)
    b = eig_hermitian(z.conj().T)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_eig_hermitian_stack_matches_single_matrices(rng):
    # Random Hermitian matrices at scales 1e-8..1e8, with rank-deficient
    # ones whose zero eigenvalue is multiple.
    mats = []
    for i in range(60):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        z = g + g.conj().T if i % 3 else -np.outer(g[0], g[0].conj())
        mats.append(10.0 ** rng.uniform(-8, 8) * z)
    stack = np.stack(mats).reshape(3, 20, 4, 4)
    es = eig_hermitian(stack)
    assert es.values.shape == (3, 20, 4) and es.vectors.shape == (3, 20, 4, 4)
    assert es.dim == 4
    for i, z in enumerate(mats):
        one = eig_hermitian(z)
        assert np.array_equal(es.values[i // 20, i % 20], one.values)
        assert np.array_equal(es.vectors[i // 20, i % 20], one.vectors)
    assert np.allclose(_rebuild(es), stack, rtol=0, atol=1e-9 * np.abs(stack).max())


def test_eig_hermitian_rejects_empty():
    with pytest.raises(ValueError, match="zero-dimensional"):
        eig_hermitian(np.zeros((0, 0)))


def test_tied_blocks_groups_multiple_eigenvalues():
    assert tied_blocks([-1.0, 0.0, 1e-12, 1.0, 1.0]) == [(1, 3), (3, 5)]
    assert tied_blocks([-1.0, 0.0, 1.0]) == []


def _rotated(rng, diagonal):
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(g)
    return q, (q * np.asarray(diagonal, dtype=float)) @ q.conj().T


def test_split_ties_orders_block_by_perturbation(rng):
    # Top eigenvalue 0 is double on span{q1, q2}; the perturbation splits
    # it with q2 on top, so the limit eigensystem ends in q1, q2.  The span
    # rule, which would put q1 last, is not consulted.
    q, z = _rotated(rng, [0.0, 0.0, -1.0])
    d = (q * np.array([1.0, 2.0, 0.0])) @ q.conj().T
    es = eig_hermitian(z)
    limit = split_ties(es, tied_blocks(es.values), d, [q[:, 0]])
    assert abs(np.vdot(limit.vectors[:, 1], q[:, 0])) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(limit.vectors[:, 2], q[:, 1])) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert np.abs(_rebuild(limit) - z).max() <= 1e-12


def test_split_ties_falls_back_to_span_rule(rng):
    # A perturbation that leaves the top tied: the span rule picks the top.
    q, z = _rotated(rng, [0.0, 0.0, -1.0])
    es = eig_hermitian(z)
    limit = split_ties(es, tied_blocks(es.values), np.zeros((3, 3)), [q[:, 1]])
    assert abs(np.vdot(limit.vectors[:, 2], q[:, 1])) ** 2 == pytest.approx(1.0, abs=1e-12)
    # A span with no overlap warns, and the result is still a valid top
    # eigenvector.
    with pytest.warns(DegenerateEigenspaceWarning):
        limit = split_ties(es, tied_blocks(es.values), np.zeros((3, 3)), [q[:, 2]])
    assert np.linalg.norm(z @ limit.vectors[:, 2]) <= 1e-10
    z = np.diag([0.0, 1.0, 1.0])
    es = eig_hermitian(z)
    with pytest.warns(DegenerateEigenspaceWarning):
        limit = split_ties(es, tied_blocks(es.values), np.zeros((3, 3)), [np.array([1.0, 0, 0])])
    v = limit.vectors[:, 2]
    assert np.linalg.norm(z @ v - v) <= 1e-10


def test_weyl_top_eigenvalue_bound(rng):
    for _ in range(50):
        ga = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        gb = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = (ga + ga.conj().T) / 2
        b = (gb + gb.conj().T) / 2
        mu = lambda m: eig_hermitian(m).values[-1]
        assert mu(a + b) <= mu(a) + mu(b) + 1e-10


def test_projector_complement_single_column():
    p = projector_complement([np.array([1.0, 0.0])])
    assert np.allclose(p, np.diag([0.0, 1.0]))


def test_projector_complement_empty_is_identity():
    assert np.array_equal(projector_complement([], dim=3), np.eye(3))


def test_projector_complement_identities(rng):
    a = np.column_stack(random_channels(rng, 5, 3))
    p = projector_complement([a[:, j] for j in range(3)])
    assert np.abs(p @ a).max() <= 1e-10
    assert np.abs(p @ p - p).max() <= 1e-10
    assert np.abs(p - p.conj().T).max() <= 1e-12


def test_projector_complement_rank_deficient_names_columns():
    h = np.array([1.0, 2.0, 0.0])
    with pytest.raises(ValueError, match=r"dependent columns: \[1\]"):
        projector_complement([h, 2 * h, np.array([0.0, 0.0, 1.0])])


def test_projector_complement_names_columns_at_any_scale():
    e1, e2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    for c in (1e-11, 1.0, 1e11):
        with pytest.raises(ValueError, match=r"dependent columns: \[2\]"):
            projector_complement([c * e1, c * e2, c * (e1 + e2)])


def test_projector_complement_rejects_more_columns_than_dimensions():
    e1, e2, e3 = np.eye(3)
    with pytest.raises(ValueError, match=r"dependent columns: \[3\]"):
        projector_complement([e1, e2, e3, e1 + e2])


def test_projector_onto_accepts_the_kahan_matrix():
    # K = diag(s^i) (I - c U): its smallest singular value is far below
    # 1e-12 of the largest, but every Gram-Schmidt residual is s^i >= s^29,
    # about 5e-10, so the columns are independent under the one rank rule.
    n, theta = 30, 0.5
    s, c = np.sin(theta), np.cos(theta)
    k = np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    p = projector_onto([k[:, j] for j in range(n)])
    assert np.abs(p - np.eye(n)).max() <= 1e-10


def test_projector_onto_vs_complement(rng):
    cols = random_channels(rng, 4, 2)
    assert np.allclose(projector_onto(cols) + projector_complement(cols), np.eye(4))


def test_fix_phase_first_nonzero_positive():
    v = np.array([0.0, -2.0, 1.0 + 1.0j])
    w = fix_phase(v)
    assert w[1].real > 0 and abs(w[1].imag) < 1e-15
    assert np.allclose(np.abs(w), np.abs(v))
