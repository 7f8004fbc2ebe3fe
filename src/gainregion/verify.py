"""Self-check suites mirroring the library's core guarantees.

Each suite builds seeded random instances, measures the worst residual of
one invariant and compares it against the library tolerance.  The CLI
`verify` command runs them and reports per-check pass/fail lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nullshape, pareto, region
from .linalg import eig_hermitian, eig_tolerance, weighted_combination

__all__ = ["Check", "SUITES", "run_suite", "suite_names"]


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
        qx = region.random_feasible_covariance(seed * 1_000_003 + 2 * i, 3)
        qy = region.random_feasible_covariance(seed * 1_000_003 + 2 * i + 1, 3)
        qz = region.segment_covariance(qx, qy, 0.5)
        for h in channels:
            mix = 0.5 * region.power_gain(qx, h) + 0.5 * region.power_gain(qy, h)
            worst = max(worst, abs(region.power_gain(qz, h) - mix))
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
    grid = region.simplex_grid(3, 0.02)
    weights = grid * e  # (G, 3)
    bounds = np.array([region.hyperplane_bound(channels, lam, e) for lam in grid])
    box = np.array([float(np.real(np.vdot(h, h))) for h in channels])
    block = 2_000  # each block's (block, G) objective is about 21 MB
    worst_violation = -np.inf
    box_excess = -np.inf
    hvecs = np.column_stack(channels)  # (3, 3), column l = channel l
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        qs = np.empty((stop - start, 3, 3), dtype=np.complex128)
        for i in range(start, stop):
            qs[i - start] = region.random_feasible_covariance(
                seed * 7_000_003 + i, 3, rank=(i % 3) + 1
            )
        # x[q, l] = h_l^H Q h_l
        x = np.real(np.einsum("il,qij,jl->ql", hvecs.conj(), qs, hvecs))
        objective = x @ weights.T  # (block, G)
        worst_violation = max(worst_violation, float((objective.max(axis=0) - bounds).max()))
        box_excess = max(box_excess, float((x - box[None, :]).max()))
    worst_attain = 0.0
    _, classes, table = region.boundary_table(channels, grid, e)
    attained = region.class_power(classes)[:, None] * table
    full = classes == region.PowerClass.FULL
    for lam, bound, g in zip(grid[full], bounds[full], attained[full]):
        value = region.weighted_objective(g, lam, e)
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
            q = region.random_feasible_covariance(seed * 11_000_003 + size * trials + i, size)
            target = i % size
            qq = region.full_power_completion(q, channels, target)
            worst_trace = max(worst_trace, abs(float(np.trace(qq).real) - 1.0))
            for j, h in enumerate(channels):
                delta = region.power_gain(qq, h) - region.power_gain(q, h)
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
        cls = region.power_rule(z)
        expected = (
            region.PowerClass.FULL
            if mu_max > tau
            else region.PowerClass.ZERO
            if mu_max < -tau
            else region.PowerClass.FREE
        )
        if cls is not expected:
            mismatches += 1
        strat = region.boundary_strategy(channels, lam, e)
        chosen = region.weighted_objective(region.strategy_gains(channels, strat), lam, e)
        # Objective at power p is p * mu_max for the dominant direction.
        endpoint = max(0.0, mu_max)
        worst_suboptimality = max(worst_suboptimality, endpoint - chosen)
        if cls is region.PowerClass.FREE:
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
            worst_resid = max(worst_resid, pareto.verify_two_user_identity(lam1, own, cross))
    worst_alignment = 1.0
    for n in (2, 3, 4):
        own, cross = _random_channels(rng, n, 2)
        for lam_hat in np.linspace(0.0, 1.0, 6):
            w = pareto.two_user_combination(float(lam_hat), own, cross)
            _, alignment = pareto.alignment_search(w, own, cross)
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
            worst_gain,
            nullshape.verify_gain_equivalence(channels, lam, e, probes=50, seed=seed + i),
        )
        diag = nullshape.eigenvalue_structure(channels, lam, e)
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
        for i in range(n_special, 2 * n_special):
            j = int(rng.integers(0, trials))
            pts[i] = pts[j]
            pts[i, int(rng.integers(0, d))] -= 0.1
        fast = pareto.pareto_filter(pts)
        slow = pareto.pareto_filter_bruteforce(pts)
        mismatches += len(set(fast) ^ set(slow))
        agree = agree and fast == slow
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
