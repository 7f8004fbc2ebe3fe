"""Self-check suites, and the check-only mathematics they read.

Each suite builds seeded random instances, measures the worst residual of
one invariant and compares it against the library tolerance.  The CLI
`verify` command runs them and reports per-check pass/fail lines.

The oracles here are the paper's side results, which no sweep reads, so no
sweep imports this module: one transmitter's covariance oracles (power
gains, segment covariances, full-power completion, random feasible
covariances, the supporting-hyperplane bound), the orthogonal projectors,
the two-user MRT/ZF combination with its projector identity, and null
shaping.  Null shaping takes selected eigenvectors of the weighted channel
combination as constraints (a read-only (N, C) array), projects MRT off
them, and must give exactly the gains of ``region.boundary_strategy``.
Both read the interior-limit eigensystem ``region.boundary_eigensystem``,
so they agree on simplex faces too, where the eigenvalues are multiple.
Null shaping needs at least as many antennas as receivers; with fewer the
constraints cannot all be met, and it refuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    RANK_RTOL,
    as_channels,
    as_cvec,
    combination_scale,
    eig_hermitian,
    eig_tolerance,
    weighted_combination,
)
from .pareto import pareto_filter, pareto_filter_bruteforce
from .region import (
    PowerClass,
    _power_class,
    boundary_eigensystem,
    boundary_strategy,
    boundary_table,
    check_direction,
    check_simplex_weight,
    class_power,
    simplex_grid,
    strategy_gains,
    unit_gains,
)

__all__ = [
    # covariance oracles
    "power_gain", "power_rule", "segment_covariance", "full_power_completion",
    "random_feasible_covariance", "hyperplane_bound", "weighted_objective",
    # projectors and the two-user MRT/ZF combination
    "unit", "projector_onto", "projector_complement", "zf_beamformer",
    "two_user_combination", "two_user_boundary_vector", "verify_two_user_identity",
    "alignment_search",
    # null shaping
    "null_constraints", "projected_mrt", "verify_gain_equivalence", "eigenvalue_structure",
    # suites
    "Check", "SUITES", "run_suite", "suite_names",
]


def power_gain(q, h) -> float:
    """Received power gain h^H Q h of a covariance at one receiver."""
    a = np.asarray(q, dtype=np.complex128)
    v = as_cvec(h)
    if a.ndim != 2 or a.shape != (v.size, v.size):
        raise ValueError(f"covariance shape {a.shape} does not match channel dim {v.size}")
    return float(np.real(v.conj() @ (a @ v)))


def power_rule(z) -> PowerClass:
    """Classify the boundary power allocation from the top eigenvalue of Z
    with ``region._power_class``.  Z alone carries no scale of its terms, so
    tau is linalg.eig_tolerance of its eigenvalues; the class does not
    change when Z is scaled."""
    values = eig_hermitian(z).values
    return _power_class(values, eig_tolerance(values))


def segment_covariance(qx, qy, t: float) -> np.ndarray:
    """Convex combination t Qx + (1 - t) Qy of two feasible covariances.

    Gains are exactly bilinear, so the gain tuple of the result is the
    same convex combination of the input gain tuples.
    """
    a = np.asarray(qx, dtype=np.complex128)
    b = np.asarray(qy, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"covariance shapes differ: {a.shape} vs {b.shape}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t}")
    return t * a + (1.0 - t) * b


def full_power_completion(p, channels, target: int) -> np.ndarray:
    """Raise a covariance to full power without touching off-target gains.

    Adds the residual power along the projection of the target channel
    onto the orthogonal complement of all other channels, so the gain at
    ``target`` (0-based position in ``channels``) strictly increases while
    every other gain is unchanged.  Requires at least as many antennas as
    receivers and linearly independent channels.
    """
    q = np.asarray(p, dtype=np.complex128)
    h = as_channels(channels)
    k, n = h.shape
    if not 0 <= target < k:
        raise ValueError(f"target must be in 0..{k - 1}, got {target}")
    if q.shape != (n, n):
        raise ValueError(f"covariance shape {q.shape} does not match channel dim {n}")
    if n < k:
        raise ValueError(f"needs n_antennas >= receivers, got {n} < {k}")
    trace = float(np.trace(q).real)
    if trace >= 1.0 - 1e-12:
        raise ValueError("already full power (trace >= 1)")
    proj = projector_complement(np.delete(h, target, axis=0), dim=n)
    d = proj @ h[target]
    nd2 = float(np.real(np.vdot(d, d)))
    if nd2 <= (RANK_RTOL * np.linalg.norm(h[target])) ** 2:
        raise ValueError("projected target channel is numerically zero")
    return q + (1.0 - trace) * np.outer(d, d.conj()) / nd2


def random_feasible_covariance(seed: int, n: int, rank: int | None = None) -> np.ndarray:
    """Deterministic random PSD covariance of rank ``rank`` (default n) and
    trace drawn from [0.05, 0.95], so strictly below full power.

    The eigenvalues are bounded away from zero relative to the trace, so
    the requested rank is achieved decisively.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = n if rank is None else int(rank)
    if not 1 <= r <= n:
        raise ValueError(f"rank must be in 1..{n}, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    basis, _ = np.linalg.qr(g)
    weights = rng.uniform(0.1, 1.0, r)
    trace = float(rng.uniform(0.05, 0.95))
    weights = weights / weights.sum() * trace
    return (basis * weights) @ basis.conj().T


def hyperplane_bound(channels, lam, e) -> float:
    """Supporting-hyperplane value max(0, mu_max(Z)) for the weighted gains.

    For every feasible covariance Q, sum_l lam_l e_l x_l(Q) never exceeds
    this bound; full-class boundary strategies attain it.
    """
    lam = check_simplex_weight(lam)
    z = weighted_combination(channels, lam, check_direction(e))
    es = eig_hermitian(z, combination_scale(channels, lam))
    return max(0.0, float(es.values[-1]))


def weighted_objective(gains, lam, e) -> float:
    """Weighted sum of gains sum_l lam_l e_l x_l."""
    x = np.asarray(gains, dtype=float)
    return float(np.sum(x * np.asarray(lam, dtype=float) * np.asarray(e, dtype=float)))


def unit(v) -> np.ndarray:
    """Return v scaled to unit Euclidean norm."""
    v = as_cvec(v)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def _dependent_columns(a: np.ndarray) -> list[int]:
    """Indices of the columns that a greedy Gram-Schmidt pass rejects: those
    whose residual against the accepted ones is at most RANK_RTOL times the
    largest column norm (so independent of units), and any column after
    the accepted ones fill the space.  This is the library's one rank test."""
    dim = a.shape[0]
    floor = RANK_RTOL * np.linalg.norm(a, axis=0).max()
    basis: list[np.ndarray] = []
    dependent = []
    for j in range(a.shape[1]):
        v = a[:, j].copy()
        for b in basis:
            v -= b * (b.conj() @ v)
        if np.linalg.norm(v) <= floor or len(basis) == dim:
            dependent.append(j)
        else:
            basis.append(v / np.linalg.norm(v))
    return dependent


def projector_onto(columns, dim: int | None = None) -> np.ndarray:
    """Orthogonal projector onto the span of the given vectors (a sequence,
    or the rows of a matrix), zero for none; a set that _dependent_columns
    finds rank deficient is rejected, naming the dependent columns."""
    if len(columns) == 0:
        if dim is None:
            raise ValueError("dim is required when the column set is empty")
        return np.zeros((dim, dim), dtype=np.complex128)
    a = as_channels(columns).T.copy()  # C order, as in linalg._span_tiebreak
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"columns have dimension {a.shape[0]}, expected {dim}")
    dependent = _dependent_columns(a)
    if dependent:
        raise ValueError(
            f"columns are numerically rank deficient; dependent columns: {dependent}"
        )
    q, _ = np.linalg.qr(a, mode="reduced")
    return q @ q.conj().T


def projector_complement(columns, dim: int | None = None) -> np.ndarray:
    """Orthogonal projector I - projector_onto(columns) onto the orthogonal
    complement of the columns; an empty column set yields the identity."""
    p = projector_onto(columns, dim)
    return np.eye(p.shape[0], dtype=np.complex128) - p


def zf_beamformer(h_own, h_cross) -> np.ndarray:
    """Zero forcing: project the intended channel off the cross channel."""
    own = as_cvec(h_own)
    proj = projector_complement([as_cvec(h_cross)])
    d = proj @ own
    if np.linalg.norm(d) <= RANK_RTOL * np.linalg.norm(own):
        raise ValueError("channels are collinear; the zero-forcing direction vanishes")
    return d / np.linalg.norm(d)


def two_user_combination(lam_hat: float, h_own, h_cross) -> np.ndarray:
    """Unit combination of MRT and ZF for the two-user interference channel.

    lam_hat = 1 gives MRT (the unit intended channel), lam_hat = 0 gives
    ZF; intermediate values trace the efficient boundary.
    """
    if not 0.0 <= lam_hat <= 1.0:
        raise ValueError(f"lam_hat must be in [0, 1], got {lam_hat}")
    w = lam_hat * unit(h_own) + (1.0 - lam_hat) * zf_beamformer(h_own, h_cross)
    return w / np.linalg.norm(w)


def two_user_boundary_vector(lam1: float, h_own, h_cross) -> np.ndarray:
    """Boundary beamformer for two receivers in direction (+1, -1): the
    boundary strategy at simplex weights (lam1, 1 - lam1), whose Z is
    lam1 h1 h1^H - (1 - lam1) h2 h2^H."""
    return boundary_strategy([h_own, h_cross], [lam1, 1.0 - lam1], [1, -1]).direction


def verify_two_user_identity(lam1: float, h_own, h_cross) -> float:
    """Residual of the projector identity behind the MRT/ZF combination.

    The top eigenvector w of Z = lam1 h1 h1^H - (1 - lam1) h2 h2^H, from
    region.boundary_eigensystem at weights (lam1, 1 - lam1), must satisfy
    (lam1 |h1|^2 P_{h1} + (1 - lam1) |h2|^2 P^perp_{h2}) w =
    (mu + (1 - lam1) |h2|^2) w; returns the Euclidean residual.
    """
    own, cross = as_cvec(h_own), as_cvec(h_cross)
    es = boundary_eigensystem([own, cross], [lam1, 1.0 - lam1], [1, -1])
    mu, w = float(es.values[-1]), es.vectors[:, -1]
    n_own = float(np.real(np.vdot(own, own)))
    n_cross = float(np.real(np.vdot(cross, cross)))
    lhs = lam1 * n_own * projector_onto([own]) + (1.0 - lam1) * n_cross * projector_complement([cross])
    rhs = (mu + (1.0 - lam1) * n_cross) * w
    return float(np.linalg.norm(lhs @ w - rhs))


def alignment_search(w, h_own, h_cross) -> tuple[float, float]:
    """Find the boundary parameter whose eigenvector matches w.

    An eigenvector w of Z = lam1 h1 h1^H - (1 - lam1) h2 h2^H satisfies
    lam1 (h1 h1^H + h2 h2^H) w - mu w = h2 h2^H w, which is linear in the
    real unknowns (lam1, mu); they are solved by real least squares and
    lam1 is clipped to [0, 1].  Returns (lam1, alignment), the alignment
    being |<w, v_max(lam1)>|^2 against two_user_boundary_vector(lam1).
    """
    wv = unit(w)
    own, cross = as_cvec(h_own), as_cvec(h_cross)
    a_w = own * np.vdot(own, wv)
    b_w = cross * np.vdot(cross, wv)
    m = np.column_stack([a_w + b_w, -wv])
    coef = np.linalg.lstsq(
        np.vstack([m.real, m.imag]), np.concatenate([b_w.real, b_w.imag]), rcond=None
    )[0]
    lam1 = float(np.clip(coef[0], 0.0, 1.0))
    v = two_user_boundary_vector(lam1, own, cross)
    return lam1, float(unit_gains([v], wv)[0])


def _constraint_eigensystem(channels, lam, e):
    """The validated channels and weights, the half-open 0-based low and high
    constraint ranges (the first |unintended| positions and
    N - |intended| .. N - 2) and the interior-limit eigensystem; refuses
    N < K."""
    h = as_channels(channels)
    lam = check_simplex_weight(lam)
    e = check_direction(e)
    k, n = h.shape
    if not (k == lam.size == e.size):
        raise ValueError(
            f"length mismatch: {k} channels, {lam.size} weights, {e.size} directions"
        )
    if n < k:
        raise ValueError(f"null shaping needs n_antennas >= receivers, got {n} < {k}")
    n_in = int(np.sum(e == 1))
    # n >= k, so the ranges cannot overlap: n - n_in >= k - n_in.
    return h, lam, (0, k - n_in), (n - n_in, n - 1), boundary_eigensystem(h, lam, e)


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
    _, _, low, high, es = _constraint_eigensystem(channels, lam, e)
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
    h, lam, (_, mid_lo), (mid_hi, _), es = _constraint_eigensystem(channels, lam, e)
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


@dataclass(frozen=True)
class Check:
    """Outcome of one verification check."""

    name: str
    value: float
    tol: float
    ok: bool
    detail: str = ""

    def __post_init__(self):
        # Suites compute with numpy; the record holds plain Python scalars.
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "ok", bool(self.ok))


def _at_most(name: str, value, tol: float, detail: str = "") -> Check:
    """A check that passes when value <= tol."""
    return Check(name, value, tol, value <= tol, detail)


def _random_channels(rng: np.random.Generator, n: int, k: int) -> list[np.ndarray]:
    return [
        (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        for _ in range(k)
    ]


def suite_convexity(seed: int = 0, trials: int = 1000) -> list[Check]:
    """Segment covariances reproduce convex combinations of gains exactly."""
    rng = np.random.default_rng(seed)
    channels = _random_channels(rng, 3, 3)
    worst = 0.0
    worst_trace = 0.0
    for i in range(trials):
        qx = random_feasible_covariance(seed * 1_000_003 + 2 * i, 3)
        qy = random_feasible_covariance(seed * 1_000_003 + 2 * i + 1, 3)
        qz = segment_covariance(qx, qy, 0.5)
        for h in channels:
            mix = 0.5 * power_gain(qx, h) + 0.5 * power_gain(qy, h)
            worst = max(worst, abs(power_gain(qz, h) - mix))
        worst_trace = max(worst_trace, float(np.trace(qz).real) - 1.0)
    return [
        _at_most("segment gains equal convex combination", worst, 1e-12),
        _at_most("segment trace stays feasible", worst_trace, 1e-12),
    ]


def suite_hyperplane(seed: int = 0, trials: int = 100_000) -> list[Check]:
    """No feasible covariance beats the top-eigenvalue bound on any grid
    weighting; full-class boundary strategies attain it."""
    rng = np.random.default_rng(seed)
    channels = _random_channels(rng, 3, 3)
    e = np.array([1, -1, -1])
    grid = simplex_grid(3, 0.02)
    weights = grid * e  # (G, 3)
    bounds = np.array([hyperplane_bound(channels, lam, e) for lam in grid])
    box = np.array([float(np.real(np.vdot(h, h))) for h in channels])
    block = 2_000  # each block's (block, G) objective is about 21 MB
    worst_violation = -np.inf
    box_excess = -np.inf
    hvecs = np.column_stack(channels)  # (3, 3), column l = channel l
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        qs = np.empty((stop - start, 3, 3), dtype=np.complex128)
        for i in range(start, stop):
            qs[i - start] = random_feasible_covariance(seed * 7_000_003 + i, 3, rank=(i % 3) + 1)
        # x[q, l] = h_l^H Q h_l
        x = np.real(np.einsum("il,qij,jl->ql", hvecs.conj(), qs, hvecs))
        objective = x @ weights.T  # (block, G)
        worst_violation = max(worst_violation, float((objective.max(axis=0) - bounds).max()))
        box_excess = max(box_excess, float((x - box[None, :]).max()))
    worst_attain = 0.0
    _, classes, table = boundary_table(channels, grid, e)
    attained = class_power(classes)[:, None] * table
    full = classes == PowerClass.FULL
    for lam, bound, g in zip(grid[full], bounds[full], attained[full]):
        value = weighted_objective(g, lam, e)
        worst_attain = max(worst_attain, abs(value - bound))
    return [
        _at_most("hyperplane bound violations", worst_violation, 1e-9),
        _at_most("full-class strategies attain the bound", worst_attain, 1e-9),
        _at_most("gains stay in the MRT box", box_excess, 1e-9),
    ]


def suite_full_power(seed: int = 0, trials: int = 500) -> list[Check]:
    """Full-power completion: trace 1, off-target gains fixed, target gain up."""
    rng = np.random.default_rng(seed)
    worst_trace = 0.0
    worst_off = 0.0
    min_gain_up = np.inf
    for size in (2, 3):
        channels = _random_channels(rng, size, size)
        for i in range(trials):
            q = random_feasible_covariance(seed * 11_000_003 + size * trials + i, size)
            target = i % size
            qq = full_power_completion(q, channels, target)
            worst_trace = max(worst_trace, abs(float(np.trace(qq).real) - 1.0))
            for j, h in enumerate(channels):
                delta = power_gain(qq, h) - power_gain(q, h)
                if j == target:
                    min_gain_up = min(min_gain_up, delta)
                else:
                    worst_off = max(worst_off, abs(delta))
    return [
        _at_most("completed trace equals 1", worst_trace, 1e-12),
        _at_most("off-target gains unchanged", worst_off, 1e-10),
        Check(
            "target gain strictly larger",
            min_gain_up,
            1e-6,
            min_gain_up >= 1e-6,
            detail="minimum observed increase",
        ),
    ]


def suite_power_rule(seed: int = 0, trials: int = 500) -> list[Check]:
    """Power rule matches the top eigenvalue sign and maximizes the objective."""
    rng = np.random.default_rng(seed)
    channels = _random_channels(rng, 2, 3)
    e = np.array([1, -1, -1])
    lams = list(rng.dirichlet(np.ones(3), size=trials))
    # Deterministic free/zero probes: weight only the unintended receivers.
    lams += [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.5, 0.5])]
    mismatches = 0
    worst_suboptimality = -np.inf
    worst_free_spread = 0.0
    for lam in lams:
        z = weighted_combination(channels, lam, e)
        values = eig_hermitian(z).values
        mu_max = float(values[-1])
        tau = eig_tolerance(values)
        cls = power_rule(z)
        expected = (
            PowerClass.FULL
            if mu_max > tau
            else PowerClass.ZERO
            if mu_max < -tau
            else PowerClass.FREE
        )
        if cls is not expected:
            mismatches += 1
        strat = boundary_strategy(channels, lam, e)
        chosen = weighted_objective(strategy_gains(channels, strat), lam, e)
        # Objective at power p is p * mu_max for the dominant direction.
        endpoint = max(0.0, mu_max)
        worst_suboptimality = max(worst_suboptimality, endpoint - chosen)
        if cls is PowerClass.FREE:
            worst_free_spread = max(worst_free_spread, abs(mu_max))
    return [
        _at_most("classification matches eigenvalue sign", mismatches, 0),
        _at_most("chosen power maximizes the objective", worst_suboptimality, 1e-9),
        _at_most("free-class endpoints agree", worst_free_spread, 1e-8),
    ]


def suite_two_user(seed: int = 0, trials: int = 100) -> list[Check]:
    """Projector identity residuals and MRT/ZF-combination alignment."""
    rng = np.random.default_rng(seed)
    worst_resid = 0.0
    for n in (2, 3, 4):
        for _ in range(trials):
            own, cross = _random_channels(rng, n, 2)
            lam1 = float(rng.uniform(0.0, 1.0))
            worst_resid = max(worst_resid, verify_two_user_identity(lam1, own, cross))
    worst_alignment = 1.0
    for n in (2, 3, 4):
        own, cross = _random_channels(rng, n, 2)
        for lam_hat in np.linspace(0.0, 1.0, 6):
            w = two_user_combination(float(lam_hat), own, cross)
            _, alignment = alignment_search(w, own, cross)
            worst_alignment = min(worst_alignment, alignment)
    return [
        _at_most("projector identity residual", worst_resid, 1e-9),
        Check(
            "combination aligns with a boundary eigenvector",
            1.0 - worst_alignment,
            1e-6,
            worst_alignment >= 1.0 - 1e-6,
        ),
    ]


def suite_null_shaping(seed: int = 0, trials: int = 200) -> list[Check]:
    """Projected MRT reproduces the boundary-strategy gains exactly."""
    rng = np.random.default_rng(seed)
    channels = _random_channels(rng, 4, 3)
    e = np.array([1, -1, -1])
    worst_gain = 0.0
    worst_structure = 0.0
    worst_annihilation = 0.0
    lams = [rng.dirichlet(np.ones(3)) for _ in range(trials)]
    # Deterministic face probes, where eigenvalues of the combination are
    # multiple: the three vertices and the three edge midpoints.
    lams += list(np.eye(3))
    lams += [np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.0, 0.5]), np.array([0.0, 0.5, 0.5])]
    for i, lam in enumerate(lams):
        worst_gain = max(
            worst_gain, verify_gain_equivalence(channels, lam, e, probes=50, seed=seed + i)
        )
        diag = eigenvalue_structure(channels, lam, e)
        worst_structure = max(
            worst_structure, diag["low_max"] / diag["tau"], diag["middle_absmax"] / diag["tau"]
        )
        worst_annihilation = max(worst_annihilation, diag["annihilation"])
    return [
        _at_most("projected MRT gain mismatch", worst_gain, 1e-8),
        _at_most("eigenvalue sign structure (relative to tau)", worst_structure, 1.0),
        _at_most(
            "middle eigenvectors annihilate weighted channels", worst_annihilation, 1e-9
        ),
    ]


def suite_pareto_oracle(seed: int = 0, trials: int = 1000) -> list[Check]:
    """Fast nondominated filter agrees with the pairwise reference scan on a
    3-D cloud (one staircase sweep) and a 4-D cloud (the divide and conquer,
    with broadcast leaves and staircase merges).  A cloud of at most
    ``pareto._LEAF`` distinct points is one broadcast comparison."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    agree = True
    counts = []
    for d in (3, 4):
        pts = rng.uniform(0.0, 1.0, size=(trials, d))
        # Plant duplicates and weakly dominated points.
        n_special = max(trials // 20, 1)
        for i in range(n_special):
            j = int(rng.integers(0, trials))
            pts[i] = pts[j]
        # One trial has no row left for a weakened copy.
        for i in range(n_special, min(2 * n_special, trials)):
            j = int(rng.integers(0, trials))
            pts[i] = pts[j]
            pts[i, int(rng.integers(0, d))] -= 0.1
        fast = pareto_filter(pts)
        slow = pareto_filter_bruteforce(pts)
        mismatches += len(set(fast) ^ set(slow))
        agree = agree and np.array_equal(fast, slow)
        counts.append(f"{len(fast)} nondominated of {trials} in {d}-D")
    return [
        Check(
            "filter matches pairwise oracle",
            float(mismatches),
            0,
            agree,
            detail=", ".join(counts),
        )
    ]


SUITES = {
    "convexity": suite_convexity,
    "hyperplane": suite_hyperplane,
    "full-power": suite_full_power,
    "power-rule": suite_power_rule,
    "two-user": suite_two_user,
    "null-shaping": suite_null_shaping,
    "pareto-oracle": suite_pareto_oracle,
}


def suite_names() -> list[str]:
    return sorted(SUITES) + ["all"]


def run_suite(name: str, seed: int = 0, trials: int | None = None) -> list[Check]:
    """Run one suite (or 'all'); unknown names raise KeyError, and a
    negative seed or fewer than one trial raises ValueError."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if name == "all":
        out = []
        for key in sorted(SUITES):
            out.extend(run_suite(key, seed=seed, trials=trials))
        return out
    if name not in SUITES:
        raise KeyError(name)
    kwargs = {"seed": seed}
    if trials is not None:
        kwargs["trials"] = trials
    return SUITES[name](**kwargs)
