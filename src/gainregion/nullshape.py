"""Null-shaping characterization of efficient beamformers.

Builds the null-constraint matrix, a read-only (N, C) array of selected
eigenvectors of the weighted channel combination, forms the projected-MRT
beamformer that satisfies those constraints, and verifies that it
achieves exactly the same power gains as ``region.boundary_strategy``,
the strategy the boundary sweeps emit.  Both read the same
interior-limit eigensystem (``region.boundary_eigensystem``), so they
also agree on simplex faces, where the eigenvalues of the combination
are multiple.

Requires at least as many transmit antennas as receivers; below that the
constraints cannot all be met and the construction errors out.
"""

from __future__ import annotations

import numpy as np

from .linalg import RANK_RTOL, as_channels, as_cvec, eig_tolerance
from .region import (
    boundary_eigensystem,
    boundary_strategy,
    check_direction,
    check_simplex_weight,
    unit_gains,
)

__all__ = [
    "null_constraints",
    "projected_mrt",
    "verify_gain_equivalence",
    "eigenvalue_structure",
]


def _ranges(h, lam: np.ndarray, e: np.ndarray) -> tuple[tuple[int, int], tuple[int, int]]:
    """Half-open 0-based low and high constraint ranges: the first
    |unintended| positions and N - |intended| .. N - 2; refuses N < K."""
    k, n = h.shape
    if not (k == lam.size == e.size):
        raise ValueError(
            f"length mismatch: {k} channels, {lam.size} weights, {e.size} directions"
        )
    if n < k:
        raise ValueError(f"null shaping needs n_antennas >= receivers, got {n} < {k}")
    n_in = int(np.sum(e == 1))
    # n >= k, so the ranges cannot overlap: n - n_in >= k - n_in.
    return (0, k - n_in), (n - n_in, n - 1)


def null_constraints(channels, lam, e) -> np.ndarray:
    """The eigenvectors that act as null-shaping constraints, as the
    read-only orthonormal columns (N, C) of the directions to radiate zero
    power; C = K - 1 when the receiver sets are exhaustive.

    With eigenvalues in nondecreasing order, takes the first
    |unintended| eigenvectors and the ones at positions
    N - |intended| + 1 .. N - 1 (1-based), leaving out the zero-eigenvalue
    middle block and the top eigenvector.  The eigenvectors come from
    ``region.boundary_eigensystem``: inside a multiple eigenvalue they are
    the limit from the interior of the simplex toward its barycentre,
    ordered as that limit orders them, so the complement of the
    constraints holds the top eigenvector that boundary_strategy uses.
    """
    h = as_channels(channels)
    lam = check_simplex_weight(lam)
    e = check_direction(e)
    low, high = _ranges(h, lam, e)
    es = boundary_eigensystem(h, lam, e)
    cols = np.hstack([es.vectors[:, low[0] : low[1]], es.vectors[:, high[0] : high[1]]])
    cols.flags.writeable = False
    return cols


def projected_mrt(cols, h_intended) -> np.ndarray:
    """MRT projected onto the orthogonal complement of the constraint
    columns (N, C), as ``null_constraints`` returns them.

    The result radiates zero power along every constraint column.  No
    columns (C = 0) give plain MRT, unit(h), bit for bit.
    """
    h = as_cvec(h_intended)
    if cols.shape[0] != h.size:
        raise ValueError(
            f"constraints have dimension {cols.shape[0]}, channel has {h.size}"
        )
    # Eigenvector columns are orthonormal, so the projector is I - C C^H.
    d = h - cols @ (cols.conj().T @ h)
    norm = np.linalg.norm(d)
    if norm <= RANK_RTOL * np.linalg.norm(h):
        raise ValueError("projected intended channel is numerically zero")
    return d / norm


def verify_gain_equivalence(channels, lam, e, probes: int = 50, seed: int = 0) -> float:
    """Largest relative gain mismatch between projected MRT and the
    direction of ``region.boundary_strategy``.

    The MRT is that of the first intended channel (the first +1 entry of
    e).  Gains are compared on ``probes`` random unit vectors plus every
    channel vector.  The relative difference uses an absolute floor of
    1e-9 times the probe's maximum achievable gain, so vanishing gains do
    not inflate the ratio.
    """
    h = as_channels(channels)
    e = check_direction(e)
    w_proj = projected_mrt(null_constraints(h, lam, e), h[int(np.argmax(e == 1))])
    v_top = boundary_strategy(h, lam, e).direction
    # Each probe draws its N real parts, then its N imaginary parts.
    z = np.random.default_rng(seed).standard_normal((probes, 2, h.shape[1]))
    probe_rows = np.vstack([*(g / np.linalg.norm(g) for g in z[:, 0] + 1j * z[:, 1]), h])
    bound = np.real([np.vdot(g, g) for g in probe_rows])
    a = unit_gains(probe_rows, w_proj)
    b = unit_gains(probe_rows, v_top)
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(a, b), 1e-9 * bound)))


def eigenvalue_structure(channels, lam, e) -> dict:
    """Diagnostics of the eigenvalue sign pattern of the combination.

    Reads the eigensystem that null_constraints and boundary_strategy use
    (``region.boundary_eigensystem``) at the same index ranges, and refuses
    N < K as null_constraints does.  Returns a dict of four floats:
    ``tau`` = linalg.eig_tolerance of the eigenvalues; ``low_max``, the
    largest of the low block (must be <= tau; -inf if empty);
    ``middle_absmax``, the largest magnitude in the middle block (must be
    <= tau; 0 if empty); and ``annihilation``, the worst |h^H v| / |h| of
    the middle-block eigenvectors v over channels h with positive weight.
    """
    h = as_channels(channels)
    lam = check_simplex_weight(lam)
    e = check_direction(e)
    (_, mid_lo), (mid_hi, _) = _ranges(h, lam, e)
    es = boundary_eigensystem(h, lam, e)
    tau = eig_tolerance(es.values)
    low = es.values[:mid_lo]
    middle = es.values[mid_lo:mid_hi]
    middle_vectors = es.vectors[:, mid_lo:mid_hi].T
    overlaps = [abs(np.vdot(c, v)) / np.linalg.norm(c) for v in middle_vectors for c in h[lam > 0]]
    return {
        "tau": tau,
        "low_max": float(low.max()) if low.size else float("-inf"),
        "middle_absmax": float(np.abs(middle).max()) if middle.size else 0.0,
        "annihilation": float(max(overlaps, default=0.0)),
    }
