"""Null-shaping characterization of efficient beamformers.

Builds the null-constraint matrix from selected eigenvectors of the
weighted channel combination, forms the projected-MRT beamformer that
satisfies those constraints, and verifies that it achieves exactly the
same power gains as ``region.boundary_strategy``, the strategy the
boundary sweeps emit.  Both read the same interior-limit eigensystem
(``region.boundary_eigensystem``), so they also agree on simplex faces,
where the eigenvalues of the combination are multiple.

Requires at least as many transmit antennas as receivers; below that the
constraints cannot all be met and the construction errors out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_cvec, eig_tolerance
from .region import (
    boundary_eigensystem,
    boundary_strategy,
    check_direction,
    check_simplex_weight,
    unit_gains,
)

__all__ = [
    "NullConstraintSet",
    "null_constraints",
    "projected_mrt",
    "verify_gain_equivalence",
    "eigenvalue_structure",
]


@dataclass(frozen=True)
class NullConstraintSet:
    """Null-shaping constraints: orthonormal directions to radiate zero power.

    ``columns`` (N, C), read-only, holds the eigenvectors of the weighted
    channel combination at ``low_range`` (the smallest-eigenvalue block),
    then at ``high_range`` (the block below the top), half-open 0-based
    ranges in nondecreasing eigenvalue order; C = K - 1 when the receiver
    sets are exhaustive.
    """

    columns: np.ndarray
    low_range: tuple[int, int]
    high_range: tuple[int, int]

    def __post_init__(self):
        cols = np.asarray(self.columns)
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)

    @property
    def n_constraints(self) -> int:
        return self.columns.shape[1]


def null_constraints(channels, lam, e) -> NullConstraintSet:
    """Select the eigenvectors that act as null-shaping constraints.

    With eigenvalues in nondecreasing order, takes the first
    |unintended| eigenvectors and the ones at positions
    N - |intended| + 1 .. N - 1 (1-based), leaving out the zero-eigenvalue
    middle block and the top eigenvector.  The eigenvectors come from
    ``region.boundary_eigensystem``: inside a multiple eigenvalue they are
    the limit from the interior of the simplex toward its barycentre,
    ordered as that limit orders them, so the complement of the
    constraints holds the top eigenvector that boundary_strategy uses.
    """
    vecs = [as_cvec(h) for h in channels]
    lam = check_simplex_weight(lam)
    e = check_direction(e)
    if not (len(vecs) == lam.size == e.size):
        raise ValueError(
            f"length mismatch: {len(vecs)} channels, {lam.size} weights, {e.size} directions"
        )
    n = vecs[0].size
    k = len(vecs)
    if n < k:
        raise ValueError(f"null shaping needs n_antennas >= receivers, got {n} < {k}")
    n_in = int(np.sum(e == 1))
    n_un = k - n_in
    # n >= k, so the ranges cannot overlap: n - n_in >= k - n_in = n_un.
    low = (0, n_un)
    high = (n - n_in, n - 1)
    es = boundary_eigensystem(vecs, lam, e)
    cols = np.hstack([es.vectors[:, low[0] : low[1]], es.vectors[:, high[0] : high[1]]])
    return NullConstraintSet(columns=cols, low_range=low, high_range=high)


def projected_mrt(constraints: NullConstraintSet, h_intended) -> np.ndarray:
    """MRT projected onto the orthogonal complement of the constraints.

    The result radiates zero power along every constraint column.  An
    empty constraint set gives plain MRT, unit(h), bit for bit.
    """
    h = as_cvec(h_intended)
    cols = constraints.columns
    if cols.shape[0] != h.size:
        raise ValueError(
            f"constraints have dimension {cols.shape[0]}, channel has {h.size}"
        )
    # Eigenvector columns are orthonormal, so the projector is I - C C^H.
    d = h - cols @ (cols.conj().T @ h)
    norm = np.linalg.norm(d)
    if norm <= 1e-12 * np.linalg.norm(h):
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
    vecs = [as_cvec(h) for h in channels]
    e = check_direction(e)
    constraints = null_constraints(vecs, lam, e)
    w_proj = projected_mrt(constraints, vecs[int(np.argmax(e == 1))])
    v_top = boundary_strategy(vecs, lam, e).direction
    rng = np.random.default_rng(seed)
    n = vecs[0].size
    probe_list = []
    for _ in range(probes):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        probe_list.append(g / np.linalg.norm(g))
    probe_list.extend(vecs)
    bound = np.real([np.vdot(g, g) for g in probe_list])
    a = unit_gains(probe_list, w_proj)
    b = unit_gains(probe_list, v_top)
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(a, b), 1e-9 * bound)))


def eigenvalue_structure(channels, lam, e) -> dict:
    """Diagnostics of the eigenvalue sign pattern of the combination.

    Reads the eigensystem that null_constraints and boundary_strategy use
    (``region.boundary_eigensystem``).  Returns a dict of four floats:
    ``tau`` = linalg.eig_tolerance of the eigenvalues; ``low_max``, the
    largest of the low block (must be <= tau; -inf if empty);
    ``middle_absmax``, the largest magnitude in the middle block (must be
    <= tau; 0 if empty); and ``annihilation``, the worst |h^H v| / |h| of
    the middle-block eigenvectors v over channels h with positive weight.
    """
    vecs = [as_cvec(h) for h in channels]
    lam = check_simplex_weight(lam)
    e = check_direction(e)
    n = vecs[0].size
    k = len(vecs)
    n_in = int(np.sum(e == 1))
    n_un = k - n_in
    es = boundary_eigensystem(vecs, lam, e)
    tau = eig_tolerance(es.values)
    low = es.values[:n_un]
    middle = es.values[n_un : n - n_in]
    annihilation = 0.0
    for i in range(n_un, n - n_in):
        v = es.vectors[:, i]
        for weight, h in zip(lam, vecs):
            if weight > 0.0:
                annihilation = max(
                    annihilation, abs(np.vdot(h, v)) / np.linalg.norm(h)
                )
    return {
        "tau": tau,
        "low_max": float(low.max()) if low.size else float("-inf"),
        "middle_absmax": float(np.abs(middle).max()) if middle.size else 0.0,
        "annihilation": annihilation,
    }
