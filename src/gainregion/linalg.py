"""Complex vector and Hermitian matrix primitives.

All functions here are pure: they validate their inputs and never
mutate them.  Eigenvalues are always returned in nondecreasing order, and
eigenvectors carry a fixed phase (first nonzero component real and
positive) so identical inputs produce bit-identical outputs.  Entry g of
a stacked result is bitwise the result for entry g alone.  A channel set
is one (K, N) complex matrix, row l the channel to receiver l, validated
only by ``as_channels``.  The projectors and the rank test, which only
the checks read, live in ``verify``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITIAN_RTOL",
    "EIG_RTOL",
    "RANK_RTOL",
    "DegenerateEigenspaceWarning",
    "EigenSystem",
    "as_cvec",
    "as_channels",
    "fix_phase",
    "outer_product",
    "weighted_combination",
    "combination_scale",
    "check_hermitian",
    "eig_hermitian",
    "eig_tolerance",
    "tied_blocks",
    "split_ties",
]

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-12
# Fraction of the largest eigenvalue magnitude within which eigenvalues
# count as tied, or as zero (see eig_tolerance).
EIG_RTOL = 1e-9
# Bound, relative to the largest column, at or below which a projection
# (the span tie-break's) or a residual (verify's rank test) counts as zero.
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


def as_channels(channels) -> np.ndarray:
    """Validate and return a finite (K, N) complex channel matrix, K, N >= 1,
    given as the matrix or as K vectors of one length."""
    h = np.asarray(channels)
    if h.ndim != 2 or h.size == 0 or h.dtype.kind not in "iufc":
        raise ValueError(f"expected a nonempty numeric (K, N) matrix, got {h.dtype} {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("channels contain non-finite entries")
    return h.astype(np.complex128, copy=False)


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate v, shape (N,), or each column of v, shape (..., N, M), so
    that its first nonzero component is real and positive.

    Beamformers only enter results through squared magnitudes, so a global
    phase is free; fixing it makes outputs reproducible.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim == 1:
        return fix_phase(v[:, None])[:, 0]
    mags = np.abs(v)
    scale = mags.max(axis=-2, keepdims=True, initial=0.0)
    idx = np.argmax(mags > _PHASE_RTOL * scale, axis=-2)[..., None, :]
    pivot = np.take_along_axis(v, idx, axis=-2)
    size = np.hypot(pivot.real, pivot.imag)  # = scalar abs(); np.abs may differ
    zero = size == 0.0  # an all-zero column stays as it is
    return v * np.where(zero, 1.0, pivot.conjugate() / np.where(zero, 1.0, size))


def outer_product(h) -> np.ndarray:
    """Rank-1 Hermitian outer product h h^H."""
    v = as_cvec(h)
    return np.outer(v, v.conj())


def weighted_combination(channels, weights, directions) -> np.ndarray:
    """Weighted Hermitian combination  sum_l w_l e_l h_l h_l^H.

    ``channels`` is the (K, N) channel matrix (see as_channels),
    ``directions`` a +-1 vector of length K and ``weights`` a real vector
    of length K (one (N, N) matrix) or a (G, K) array of weight rows (a
    (G, N, N) stack, the terms added in the same order for every row).
    """
    h = as_channels(channels)
    w = np.asarray(weights, dtype=float)
    e = np.asarray(directions, dtype=float)
    if w.ndim not in (1, 2) or not (len(h) == w.shape[-1] == e.size):
        raise ValueError(
            f"length mismatch: {len(h)} channels, weights {w.shape}, {e.size} directions"
        )
    dim = h.shape[1]
    z = np.zeros(w.shape[:-1] + (dim, dim), dtype=np.complex128)
    for l, (el, v) in enumerate(zip(e, h)):
        z += (w[..., l] * el)[..., None, None] * np.outer(v, v.conj())
    return z


def combination_scale(channels, weights) -> np.ndarray:
    """Scale sum_l |w_l| ||h_l||^2 of the terms of weighted_combination, for
    a weight vector (a float) or each row of a (G, K) array of weights.

    Z's rounding residue is relative to its terms, not to Z itself, which
    cancels far below them where the weighted gains balance: for one
    antenna, Z vanishes at lam = (|h_2|^2, |h_1|^2) / sum along (+1, -1).
    """
    h = as_channels(channels)
    norms = np.sum(h.real**2 + h.imag**2, axis=1)
    return np.sum(np.abs(np.asarray(weights, dtype=float)) * norms, axis=-1)


def check_hermitian(z, scale=None) -> np.ndarray:
    """Validate a finite square matrix, or a stack (..., N, N), as Hermitian
    within HERMITIAN_RTOL times ``scale`` (one per matrix), by default each
    matrix's own largest entry magnitude, so every scale is checked alike."""
    a = np.asarray(z, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise ValueError("zero-dimensional eigenproblem")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if scale is None:
        scale = np.abs(a).max(axis=(-2, -1))
    err = np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1))
    bad = err > HERMITIAN_RTOL * scale
    if bad.any():
        raise ValueError(f"matrix is not Hermitian: max asymmetry {err[bad].max():.3e}")
    return a


@dataclass(frozen=True)
class EigenSystem:
    """Full eigendecomposition of a Hermitian matrix, or of a stack.

    ``values`` (..., N) are real and nondecreasing; ``vectors`` (..., N, N)
    holds the matching orthonormal eigenvectors as columns, phase-fixed.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[-1]


def eig_hermitian(z, scale=None) -> EigenSystem:
    """Eigendecompose a Hermitian matrix (N, N), or a stack (..., N, N).

    Each matrix takes the same steps: check_hermitian (against ``scale``),
    the symmetrization (a + a^H)/2, its own LAPACK call within one
    np.linalg.eigh, and fix_phase on each column; so entry g of a stack is
    bitwise the eigensystem of matrix g alone.
    """
    a = check_hermitian(z, scale)
    sym = (a + np.swapaxes(a.conj(), -1, -2)) / 2.0
    values, vectors = np.linalg.eigh(sym)
    vectors = fix_phase(vectors)
    values.flags.writeable = False
    vectors.flags.writeable = False
    return EigenSystem(values=values, vectors=vectors)


def eig_tolerance(values):
    """Half-width EIG_RTOL * max|eigenvalue| of the bands in which
    eigenvalues count as tied, or as zero; scaling the matrix by c > 0
    changes no decision made with it.  ``values`` (N,) or (..., N) must be
    nondecreasing along the last axis."""
    return EIG_RTOL * np.maximum(-values[..., 0], values[..., -1])


def _span_tiebreak(eigvecs: np.ndarray, span_basis) -> np.ndarray | None:
    """Rank the members of an eigenspace by their alignment with a span.

    The degenerate eigenspace columns are orthonormal; the span basis is
    projected onto them.  Returns the left singular vectors of the
    projected coordinates as a unitary matrix (coordinates in the
    eigenspace), best aligned first, or None when the projection is
    numerically zero.
    """
    # C order: matmul and norm round differently on a transposed view.
    basis = as_channels(span_basis).T.copy()
    coords = eigvecs.conj().T @ basis
    u, s, _ = np.linalg.svd(coords)
    if s.size == 0 or s[0] <= RANK_RTOL * np.linalg.norm(basis, axis=0).max():
        return None
    return u


def _block_start(values: np.ndarray, hi: int) -> int:
    """First index of the tied block whose largest member is values[hi - 1].

    The block holds every eigenvalue within eig_tolerance(values) of its
    largest member.
    """
    mu = float(values[hi - 1])
    return int(np.searchsorted(values[:hi], mu - eig_tolerance(values), side="left"))


def tied_blocks(values) -> list[tuple[int, int]]:
    """Half-open index ranges of the numerically multiple eigenvalues.

    ``values`` must be nondecreasing.  Scanning down from the largest, each
    block holds every eigenvalue within eig_tolerance(values) of its
    largest member; only blocks of two or more eigenvalues are returned.
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

    If the split still leaves the top eigenvalue tied (within
    eig_tolerance of the eigenvalues of V^H D V), the top sub-block falls
    back to the span rule: its member best aligned with the span of
    ``span_basis`` (the channels, in region.boundary_eigensystem) is put
    last.  A DegenerateEigenspaceWarning is emitted when that span has no
    overlap with the sub-block, and the sub-block is kept in the split
    basis.  This is the library's one tie rule.
    """
    d = np.asarray(perturbation, dtype=np.complex128)
    vectors = es.vectors.copy()
    for lo, hi in blocks:
        v = vectors[:, lo:hi]
        m = v.conj().T @ d @ v
        nu, y = np.linalg.eigh((m + m.conj().T) / 2.0)
        v = v @ y
        first = _block_start(nu, nu.size)
        if hi == es.dim and first < nu.size - 1:
            coeffs = _span_tiebreak(v[:, first:], span_basis)
            if coeffs is None:
                warnings.warn(
                    "top eigenspace has trivial intersection with the channel span; "
                    "returning an arbitrary eigenspace member",
                    DegenerateEigenspaceWarning,
                    stacklevel=2,
                )
            else:
                v[:, first:] = v[:, first:] @ coeffs[:, ::-1]
        vectors[:, lo:hi] = fix_phase(v)
    vectors.flags.writeable = False
    return EigenSystem(values=es.values, vectors=vectors)
