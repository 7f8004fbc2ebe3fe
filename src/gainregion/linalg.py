"""Complex vector and Hermitian matrix primitives.

All functions here are pure: they validate their inputs and never
mutate them.  Eigenvalues are always returned in nondecreasing order, and
eigenvectors carry a fixed phase (first nonzero component real and
positive) so identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITIAN_RTOL",
    "MULTIPLICITY_RTOL",
    "RANK_RTOL",
    "DegenerateEigenspaceWarning",
    "EigenSystem",
    "as_cvec",
    "unit",
    "fix_phase",
    "outer_product",
    "weighted_combination",
    "check_hermitian",
    "eig_hermitian",
    "dominant_eigpair",
    "dominant_eigvec",
    "tied_blocks",
    "split_ties",
    "projector_onto",
    "projector_complement",
    "rayleigh",
]

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-12
# Relative gap below which eigenvalues are treated as one multiple
# eigenvalue (a tie-break rule then picks the eigenvectors).
MULTIPLICITY_RTOL = 1e-9
# Smallest/largest singular value ratio below which a column set is
# treated as rank deficient.
RANK_RTOL = 1e-12

_PHASE_RTOL = 1e-12


class DegenerateEigenspaceWarning(UserWarning):
    """A degenerate top eigenspace has no usable overlap with the span."""


def as_cvec(h) -> np.ndarray:
    """Validate and return a finite, nonempty 1-D complex vector."""
    v = np.asarray(h, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    return v


def unit(v) -> np.ndarray:
    """Return v scaled to unit Euclidean norm."""
    v = as_cvec(v)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate v so that its first nonzero component is real and positive.

    Beamformers only enter results through squared magnitudes, so a global
    phase is free; fixing it makes outputs reproducible.
    """
    v = np.asarray(v, dtype=np.complex128)
    mags = np.abs(v)
    scale = mags.max(initial=0.0)
    if scale == 0.0:
        return v.copy()
    idx = int(np.argmax(mags > _PHASE_RTOL * scale))
    pivot = v[idx]
    return v * (pivot.conjugate() / abs(pivot))


def outer_product(h) -> np.ndarray:
    """Rank-1 Hermitian outer product h h^H."""
    v = as_cvec(h)
    return np.outer(v, v.conj())


def weighted_combination(channels, weights, directions) -> np.ndarray:
    """Weighted Hermitian combination  sum_l w_l e_l h_l h_l^H.

    ``channels`` is a sequence of equal-dimension complex vectors,
    ``weights`` a real vector and ``directions`` a +-1 vector of the same
    length.
    """
    vecs = [as_cvec(h) for h in channels]
    w = np.asarray(weights, dtype=float)
    e = np.asarray(directions, dtype=float)
    if not (len(vecs) == w.size == e.size):
        raise ValueError(
            f"length mismatch: {len(vecs)} channels, {w.size} weights, {e.size} directions"
        )
    dim = vecs[0].size
    for i, v in enumerate(vecs):
        if v.size != dim:
            raise ValueError(f"channel {i} has dimension {v.size}, expected {dim}")
    z = np.zeros((dim, dim), dtype=np.complex128)
    for wl, el, v in zip(w, e, vecs):
        z += (wl * el) * np.outer(v, v.conj())
    return z


def check_hermitian(z) -> np.ndarray:
    """Validate that z is square and Hermitian within HERMITIAN_RTOL."""
    a = np.asarray(z, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("zero-dimensional eigenproblem")
    scale = np.abs(a).max(initial=0.0)
    err = np.abs(a - a.conj().T).max(initial=0.0)
    if err > HERMITIAN_RTOL * (1.0 + scale):
        raise ValueError(f"matrix is not Hermitian: max asymmetry {err:.3e}")
    return a


@dataclass(frozen=True)
class EigenSystem:
    """Full eigendecomposition of a Hermitian matrix.

    ``values`` are real and nondecreasing; ``vectors`` holds the matching
    orthonormal eigenvectors as columns, each phase-fixed.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.size

    def reconstruct(self) -> np.ndarray:
        """Rebuild the original matrix from the factors."""
        return (self.vectors * self.values) @ self.vectors.conj().T


def eig_hermitian(z) -> EigenSystem:
    """Eigendecompose a Hermitian matrix, eigenvalues nondecreasing."""
    a = check_hermitian(z)
    sym = (a + a.conj().T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    for i in range(values.size):
        vectors[:, i] = fix_phase(vectors[:, i])
    values.flags.writeable = False
    vectors.flags.writeable = False
    return EigenSystem(values=values, vectors=vectors)


def _span_tiebreak(eigvecs: np.ndarray, span_basis, full: bool = False) -> np.ndarray | None:
    """Rank the members of an eigenspace by their alignment with a span.

    The degenerate eigenspace columns are orthonormal; the span basis is
    projected onto them.  Returns the left singular vectors of the
    projected coordinates (coordinates in the eigenspace), best aligned
    first, or None when the projection is numerically zero.  ``full``
    completes them to a unitary matrix.
    """
    basis = np.column_stack([as_cvec(b) for b in span_basis])
    coords = eigvecs.conj().T @ basis
    u, s, _ = np.linalg.svd(coords, full_matrices=full)
    col_scale = np.linalg.norm(basis, axis=0).max(initial=0.0)
    if s.size == 0 or s[0] <= RANK_RTOL * max(1.0, col_scale):
        return None
    return u


def _warn_trivial_span() -> None:
    warnings.warn(
        "top eigenspace has trivial intersection with the channel span; "
        "returning an arbitrary eigenspace member",
        DegenerateEigenspaceWarning,
        stacklevel=3,
    )


def _block_start(values: np.ndarray, hi: int) -> int:
    """First index of the tied block whose largest member is values[hi - 1].

    The block holds every eigenvalue within MULTIPLICITY_RTOL * (1 + |mu|)
    of its largest member mu.
    """
    mu = float(values[hi - 1])
    tol = MULTIPLICITY_RTOL * (1.0 + abs(mu))
    return int(np.searchsorted(values[:hi], mu - tol, side="left"))


def dominant_eigpair(z, span_basis) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a matching unit eigenvector of Hermitian z.

    This is the span rule, for callers without simplex weights (the
    two-user MRT/ZF code).  When the top eigenvalue is (numerically)
    multiple, the eigenvector is the member of the top eigenspace best
    aligned with the span of ``span_basis``; if the eigenspace has no
    overlap with that span, an arbitrary eigenspace member is returned and
    a DegenerateEigenspaceWarning is emitted.  Boundary strategies at
    simplex weights break ties by the interior limit instead (see
    split_ties), which can pick a different member of the eigenspace.
    """
    es = eig_hermitian(z)
    mu_max = float(es.values[-1])
    first = _block_start(es.values, es.dim)
    if first == es.dim - 1 or span_basis is None:
        return mu_max, es.vectors[:, -1].copy()
    eigvecs = es.vectors[:, first:]
    coeffs = _span_tiebreak(eigvecs, span_basis)
    if coeffs is None:
        _warn_trivial_span()
        return mu_max, es.vectors[:, -1].copy()
    return mu_max, fix_phase(eigvecs @ coeffs[:, 0])


def dominant_eigvec(z, span_basis) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue; see dominant_eigpair."""
    return dominant_eigpair(z, span_basis)[1]


def tied_blocks(values) -> list[tuple[int, int]]:
    """Half-open index ranges of the numerically multiple eigenvalues.

    ``values`` must be nondecreasing.  Scanning down from the largest, each
    block holds every eigenvalue within MULTIPLICITY_RTOL * (1 + |mu|) of
    its largest member mu (the rule dominant_eigpair applies to the top
    block); only blocks of two or more eigenvalues are returned.
    """
    v = np.asarray(values, dtype=float)
    blocks = []
    hi = v.size
    while hi > 0:
        lo = _block_start(v, hi)
        if hi - lo > 1:
            blocks.append((lo, hi))
        hi = lo
    return blocks[::-1]


def split_ties(es: EigenSystem, blocks, perturbation, span_basis) -> EigenSystem:
    """Resolve tied eigenvalues by the first-order split under a perturbation.

    For Z + t D with t -> 0+, the eigenvectors of a multiple eigenvalue of Z
    with eigenspace V converge to V y, where y are the eigenvectors of
    V^H D V, and their eigenvalues split in the order of those of V^H D V
    (first-order degenerate perturbation theory; Kato, Perturbation Theory
    for Linear Operators).  Each block in ``blocks`` is rotated onto that
    basis, ordered ascending, so the result is the limit of the
    eigensystems of Z + t D.  Eigenvalues are kept as they are.

    If the split still leaves the top eigenvalue tied and ``span_basis`` is
    given, the top sub-block falls back to the span rule of
    dominant_eigpair: its member best aligned with the span of
    ``span_basis`` is put last.  A
    DegenerateEigenspaceWarning is emitted when that span has no overlap
    with the sub-block, and the sub-block is kept in the split basis.
    """
    d = np.asarray(perturbation, dtype=np.complex128)
    vectors = es.vectors.copy()
    for lo, hi in blocks:
        v = vectors[:, lo:hi]
        m = v.conj().T @ d @ v
        nu, y = np.linalg.eigh((m + m.conj().T) / 2.0)
        v = v @ y
        first = _block_start(nu, nu.size)
        if hi == es.dim and first < nu.size - 1 and span_basis is not None:
            coeffs = _span_tiebreak(v[:, first:], span_basis, full=True)
            if coeffs is None:
                _warn_trivial_span()
            else:
                v[:, first:] = v[:, first:] @ coeffs[:, ::-1]
        for j in range(v.shape[1]):
            vectors[:, lo + j] = fix_phase(v[:, j])
    vectors.flags.writeable = False
    return EigenSystem(values=es.values, vectors=vectors)


def _independent_prefix(a: np.ndarray) -> list[int]:
    """Indices of columns that a greedy Gram-Schmidt pass rejects."""
    dim = a.shape[0]
    basis: list[np.ndarray] = []
    offending = []
    for j in range(a.shape[1]):
        v = a[:, j].copy()
        norm0 = np.linalg.norm(v)
        for b in basis:
            v -= b * (b.conj() @ v)
        if np.linalg.norm(v) <= max(RANK_RTOL, 1e-10) * max(norm0, 1.0) or len(basis) == dim:
            offending.append(j)
        else:
            basis.append(v / np.linalg.norm(v))
    return offending


def _stack_columns(columns, dim: int | None) -> np.ndarray:
    cols = list(columns) if columns is not None else []
    if len(cols) == 0:
        if dim is None:
            raise ValueError("dim is required when the column set is empty")
        return np.zeros((dim, 0), dtype=np.complex128)
    a = np.column_stack([as_cvec(c) for c in cols])
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"columns have dimension {a.shape[0]}, expected {dim}")
    return a


def projector_onto(columns, dim: int | None = None) -> np.ndarray:
    """Orthogonal projector onto the column space of the given vectors."""
    a = _stack_columns(columns, dim)
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], a.shape[0]), dtype=np.complex128)
    _require_full_rank(a)
    q, _ = np.linalg.qr(a, mode="reduced")
    return q @ q.conj().T


def projector_complement(columns, dim: int | None = None) -> np.ndarray:
    """Orthogonal projector onto the orthogonal complement of the columns.

    An empty column set yields the identity.  Rank-deficient column sets
    are rejected, naming the offending columns.
    """
    a = _stack_columns(columns, dim)
    n = a.shape[0]
    if a.shape[1] == 0:
        return np.eye(n, dtype=np.complex128)
    _require_full_rank(a)
    q, _ = np.linalg.qr(a, mode="reduced")
    return np.eye(n, dtype=np.complex128) - q @ q.conj().T


def _require_full_rank(a: np.ndarray) -> None:
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= RANK_RTOL * s[0]:
        offending = _independent_prefix(a)
        raise ValueError(
            f"columns are numerically rank deficient; dependent columns: {offending}"
        )


def rayleigh(z, v) -> float:
    """Real Rayleigh quotient numerator v^H Z v for unit-normalized use."""
    a = np.asarray(z, dtype=np.complex128)
    u = as_cvec(v)
    return float(np.real(u.conj() @ (a @ u)))
