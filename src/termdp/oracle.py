"""Independent verification oracles.

Everything here deliberately avoids the solver's code paths where it can:
brute-force search grids policy simplices and evaluates objectives with its
own batched recursion, and the two-step landscapes rebuild the objective from
single-stage convex solves.  Two steps are shared with the solver rather than
duplicated: value iteration is the solver's ``backward_induction`` (which also
seeds the plan starts), and the batched single-stage iteration uses the
sweep's ``gibbs_step``.
The property suites drive these oracles over seeded random instances and are
shared by the test suite and the ``verify`` CLI subcommand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InstanceError, ResourceError
from .model import (
    FiniteMdp,
    MemoryPolicy,
    check_beta,
    conditional_mutual_information,
    gibbs_step,
    slide_split,
    transfer_entropy,
    transfer_entropy_terms,
)
from .solver import (
    SolveOptions,
    backward_induction,
    classical_blahut,
    multi_start,
    residual_from_policy,
    solve,
)

__all__ = [
    "LandscapeGrid",
    "RateBoundEntry",
    "RateBoundReport",
    "random_mdp",
    "random_policy",
    "finite_horizon_value_iteration",
    "ValueIterationResult",
    "bellman_landscape_stage2",
    "objective_landscape_stage1",
    "brute_force_policy_search",
    "BruteForceResult",
    "directed_optimum_t2",
    "structural_reduction_check",
    "StructuralReductionReport",
    "rate_bound_report",
    "SuiteResult",
    "suite_prop1b",
    "suite_prop2",
    "suite_eq10",
    "suite_oracle_agreement",
    "suite_descent",
    "suite_residual",
    "all_suites",
]

MAX_FREE_PARAMS = 6
DEFAULT_COMBO_BUDGET = 20_000_000


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_mdp(
    rng: np.random.Generator,
    horizon: int,
    max_states: int = 5,
    max_actions: int = 5,
    min_states: int = 2,
    min_actions: int = 2,
) -> FiniteMdp:
    """Random dense instance with strictly positive transition rows."""
    X = [int(rng.integers(min_states, max_states + 1)) for _ in range(horizon + 1)]
    U = [int(rng.integers(min_actions, max_actions + 1)) for _ in range(horizon)]
    transitions, costs = [], []
    for t in range(horizon):
        p = rng.random((X[t], U[t], X[t + 1])) + 0.05
        p /= p.sum(axis=2, keepdims=True)
        transitions.append(p)
        costs.append(rng.random((X[t], U[t])))
    initial = rng.random(X[0]) + 0.05
    initial /= initial.sum()
    return FiniteMdp(
        tuple(transitions), tuple(costs), rng.random(X[horizon]), initial
    )


def random_policy(
    rng: np.random.Generator, mdp: FiniteMdp, degree: int
) -> MemoryPolicy:
    tables = []
    for step in mdp.sweep_plan(degree).steps:
        q = rng.random(step.shape) + 0.05
        q /= q.sum(axis=2, keepdims=True)
        tables.append(q)
    return MemoryPolicy(degree, tuple(tables))


# ---------------------------------------------------------------------------
# Value iteration (the beta -> 0 reference)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueIterationResult:
    actions: tuple[np.ndarray, ...]
    expected_cost: float
    values: tuple[np.ndarray, ...]


def finite_horizon_value_iteration(mdp: FiniteMdp) -> ValueIterationResult:
    """Deterministic optimal policy of the plain cost-only problem.

    Backward induction with argmin tie-breaking toward the lowest action
    index; the returned expected cost is taken from the initial distribution.
    """
    actions, values = backward_induction(mdp, mdp.stage_costs)
    return ValueIterationResult(
        actions=tuple(actions),
        expected_cost=float(mdp.initial @ values[0]),
        values=tuple(values),
    )


# ---------------------------------------------------------------------------
# Landscapes for the two-step binary instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LandscapeGrid:
    """Objective values over an axis-aligned parameter grid.

    classification (when present) holds "" / "local_min" / "saddle_candidate"
    per cell; minima are strict 8-neighborhood minimizers, saddle candidates
    have a small solver fixed-point residual without being minima.
    """

    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    classification: np.ndarray | None = None
    minima: tuple[tuple[int, ...], ...] = ()
    saddles: tuple[tuple[int, ...], ...] = ()


def _require_toy_shape(mdp: FiniteMdp) -> None:
    if mdp.horizon != 2 or mdp.state_cards != (2, 2, 2) or mdp.action_cards != (2, 2):
        raise InstanceError(
            "landscape oracles need the two-step binary instance, got "
            f"horizon {mdp.horizon}, states {mdp.state_cards}, actions "
            f"{mdp.action_cards}"
        )


def _check_resolution(resolution: int) -> None:
    if resolution < 11:
        raise InstanceError(f"grid resolution must be >= 11, got {resolution}")


def bellman_landscape_stage2(
    mdp: FiniteMdp, resolution: int, beta: float = 1.0
) -> LandscapeGrid:
    """Second-stage optimal value over the one-dimensional belief simplex.

    Each grid point solves the single-stage convex problem to convergence;
    the resulting curve is the nonconvex continuation value of the first
    stage.
    """
    _require_toy_shape(mdp)
    _check_resolution(resolution)
    lambdas = np.linspace(0.0, 1.0, resolution)
    cost = np.asarray(mdp.stage_costs[1])
    values = np.array(
        [
            classical_blahut(np.array([lam, 1.0 - lam]), cost, beta).value
            for lam in lambdas
        ]
    )
    return LandscapeGrid(axes=(lambdas,), values=values)


def _strict_local_minima(values: np.ndarray) -> list[tuple[int, int]]:
    """Cells strictly below all of their (up to eight) neighbors, row-major."""
    rows, cols = values.shape
    padded = np.pad(values, 1, constant_values=np.inf)
    strict = np.ones(values.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                strict &= padded[1 + di: 1 + di + rows, 1 + dj: 1 + dj + cols] > values
    return [(int(i), int(j)) for i, j in np.argwhere(strict)]


def objective_landscape_stage1(
    mdp: FiniteMdp,
    resolution: int,
    beta: float = 1.0,
    saddle_tol: float | None = None,
) -> LandscapeGrid:
    """First-stage objective over the two free policy parameters.

    Axis 0 is the probability of action 0 in state 0, axis 1 the same in
    state 1.  Each cell adds the first-stage cost and information to the
    exactly solved second-stage continuation; cells are classified by strict
    8-neighborhood dominance plus the solver fixed-point residual.  The
    residual grows about linearly with the distance to a true stationary
    point, so the saddle threshold defaults to six tenths of the grid
    spacing: enough to always catch the cell nearest a true saddle.
    """
    _require_toy_shape(mdp)
    _check_resolution(resolution)
    if saddle_tol is None:
        saddle_tol = 0.6 / (resolution - 1)
    thetas = np.linspace(0.0, 1.0, resolution)
    mu0 = np.asarray(mdp.initial)
    c0 = np.asarray(mdp.stage_costs[0])
    c1 = np.asarray(mdp.stage_costs[1])
    p0 = np.asarray(mdp.transitions[0])
    values = np.empty((resolution, resolution))
    residuals = np.empty((resolution, resolution))
    inner_cache: dict[float, tuple[float, np.ndarray]] = {}

    def inner(lam: float) -> tuple[float, np.ndarray]:
        got = inner_cache.get(lam)
        if got is None:
            sol = classical_blahut(np.array([lam, 1.0 - lam]), c1, beta)
            got = (sol.value, sol.policy)
            inner_cache[lam] = got
        return got

    for i, th0 in enumerate(thetas):
        for j, th1 in enumerate(thetas):
            q1 = np.array([[th0, 1.0 - th0], [th1, 1.0 - th1]])
            joint = mu0[:, None] * q1
            stage = float(np.sum(joint * c0))
            info = conditional_mutual_information(joint, (0,), (1,))
            mu1 = np.einsum("xu,xuy->y", joint, p0)
            lam = float(mu1[0])
            v2, q2 = inner(lam)
            values[i, j] = stage + beta * info + v2
            policy = MemoryPolicy(
                0, (q1[:, None, :], q2[:, None, :])
            )
            residuals[i, j] = residual_from_policy(mdp, policy, beta)

    minima = _strict_local_minima(values)
    classification = np.full(values.shape, "", dtype="<U16")
    for cell in minima:
        classification[cell] = "local_min"
    saddles = []
    for i in range(resolution):
        for j in range(resolution):
            if classification[i, j] == "" and residuals[i, j] < saddle_tol:
                classification[i, j] = "saddle_candidate"
                saddles.append((i, j))
    return LandscapeGrid(
        axes=(thetas, thetas),
        values=values,
        classification=classification,
        minima=tuple(minima),
        saddles=tuple(saddles),
    )


# ---------------------------------------------------------------------------
# Brute-force policy search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteForceResult:
    policy: MemoryPolicy
    value: float
    combos: int


def _simplex_grid(card: int, resolution: float) -> np.ndarray:
    """All distributions over ``card`` atoms with coordinates on a 1/m grid."""
    m = int(round(1.0 / resolution))
    if m < 1:
        raise InstanceError(f"resolution {resolution!r} coarser than the simplex")
    points: list[tuple[float, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            points.append(tuple(prefix + [remaining]))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], m, card)
    return np.asarray(points, dtype=float) / m


def _batched_objective(
    mdp: FiniteMdp, beta: float, degree: int, tables: list[np.ndarray]
) -> np.ndarray:
    """Objective totals for a batch of policies stacked on a leading axis."""
    n_batch = tables[0].shape[0]
    mu = np.broadcast_to(mdp.initial[None, :, None], (n_batch, len(mdp.initial), 1))
    cost = np.zeros(n_batch)
    info = np.zeros(n_batch)
    for t in range(mdp.horizon):
        q = tables[t]
        lam = mu[:, :, :, None] * q
        cost += np.einsum("nxhu,xu->n", lam, mdp.stage_costs[t])
        lam_h = lam.sum(axis=1)  # (N, H, U)
        mass = mu.sum(axis=1)  # (N, H)
        num = q * mass[:, None, :, None]
        den = lam_h[:, None, :, :]
        mask = lam > 0.0
        ratio = np.ones_like(lam)
        np.divide(num, den, out=ratio, where=mask)
        info += np.sum(lam * np.log(ratio), where=mask, axis=(1, 2, 3))
        pushed = np.einsum("nxhu,xuy->nyhu", lam, mdp.transitions[t])
        if degree == 0:
            mu = pushed.sum(axis=3)
        else:
            dropped, kept = slide_split(mdp, degree, t)
            n_y, n_u = pushed.shape[1], pushed.shape[3]
            mu = (
                pushed.reshape(n_batch, n_y, dropped, kept, n_u)
                .sum(axis=2)
                .reshape(n_batch, n_y, kept * n_u)
            )
    cost += np.einsum("nxh,x->n", mu, mdp.terminal_cost)
    return cost + beta * info


def brute_force_policy_search(
    mdp: FiniteMdp,
    beta: float,
    degree: int,
    resolution: float,
    combo_budget: int = DEFAULT_COMBO_BUDGET,
    chunk: int = 32768,
) -> BruteForceResult:
    """Joint grid over every policy simplex; exact within the grid spacing.

    Guarded by the free-parameter count (at most 6 simplex coordinates) and
    by the total combination budget.
    """
    check_beta(beta)
    shapes = [step.shape for step in mdp.sweep_plan(degree).steps]
    slices: list[tuple[int, int, int]] = []  # (t, x, h)
    grids: list[np.ndarray] = []
    free = 0
    for t, (x_n, h_n, u_n) in enumerate(shapes):
        free += x_n * h_n * (u_n - 1)
        grid = _simplex_grid(u_n, resolution)
        for x in range(x_n):
            for h in range(h_n):
                slices.append((t, x, h))
                grids.append(grid)
    if free > MAX_FREE_PARAMS:
        raise ResourceError(
            f"instance has {free} free policy parameters; brute force is "
            f"guarded at {MAX_FREE_PARAMS}"
        )
    combos = 1
    for g in grids:
        combos *= len(g)
    if combos > combo_budget:
        raise ResourceError(
            f"{combos} grid combinations exceed the budget {combo_budget}; "
            "use a coarser resolution"
        )
    radices = [len(g) for g in grids]

    def tables_of(combo, batch: tuple[int, ...] = ()) -> list[np.ndarray]:
        """Policy tables of the combination index (or index array) combo."""
        digits = []
        for r in reversed(radices):
            digits.append(combo % r)
            combo = combo // r
        digits.reverse()
        tables = [np.empty(batch + shape) for shape in shapes]
        for pos, (t, x, h) in enumerate(slices):
            tables[t][..., x, h, :] = grids[pos][digits[pos]]
        return tables

    best_value = math.inf
    best_combo = 0
    for start in range(0, combos, chunk):
        idx = np.arange(start, min(start + chunk, combos))
        totals = _batched_objective(mdp, beta, degree, tables_of(idx, (len(idx),)))
        k = int(np.argmin(totals))
        if totals[k] < best_value:
            best_value = float(totals[k])
            best_combo = int(idx[k])
    policy = MemoryPolicy(degree, tuple(tables_of(best_combo)))
    return BruteForceResult(policy=policy, value=best_value, combos=combos)


# ---------------------------------------------------------------------------
# Two-step exhaustive optima (degree-restricted vs full history)
# ---------------------------------------------------------------------------


def _first_stage_grid_array(mdp: FiniteMdp, resolution: float) -> np.ndarray:
    """All first-stage policies on a joint per-state simplex grid, stacked."""
    x0 = mdp.state_cards[0]
    grid = _simplex_grid(mdp.action_cards[0], resolution)
    combos = list(itertools.product(range(len(grid)), repeat=x0))
    return np.stack([np.stack([grid[k] for k in combo]) for combo in combos])


def _batched_blahut(
    priors: np.ndarray,
    cost: np.ndarray,
    beta: float,
    tol: float = 1e-11,
    max_iters: int = 100_000,
) -> np.ndarray:
    """Single-stage alternating minimization over a whole batch of priors.

    priors has shape (N, Z) and cost (Z, U); returns the N optimal values of
    E c + beta I in unscaled units.  Iterates until the worst value change
    over the batch falls below tol.
    """
    scaled = cost / beta
    n, z = priors.shape
    u = cost.shape[1]
    q = np.full((n, z, u), 1.0 / u)
    values = np.full(n, np.inf)
    for _ in range(max_iters):
        nu = np.einsum("nz,nzu->nu", priors, q)
        log_phi, q = gibbs_step(nu[:, None, :], scaled)
        q /= q.sum(axis=2, keepdims=True)
        new_values = -beta * np.einsum("nz,nz->n", priors, log_phi)
        gap = float(np.abs(new_values - values).max())
        values = new_values
        if gap < tol:
            break
    return values


def _batched_mutual_information(joint: np.ndarray) -> np.ndarray:
    """I(A; B) per batch entry for joints of shape (N, A, B)."""
    p_a = joint.sum(axis=2, keepdims=True)
    p_b = joint.sum(axis=1, keepdims=True)
    mask = joint > 0.0
    ratio = np.ones_like(joint)
    np.divide(joint, p_a * p_b, out=ratio, where=mask)
    return np.sum(joint * np.log(ratio), where=mask, axis=(1, 2))


def _first_stage(
    mdp: FiniteMdp, beta: float, resolution: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-stage grid of a two-step instance.

    Returns the first-stage cost + beta * information per grid policy, the
    joints (N, x0, u0, x1) and the second-stage cost with the expected
    terminal cost folded in.
    """
    q1s = _first_stage_grid_array(mdp, resolution)  # (N, X0, U0)
    joint = mdp.initial[None, :, None] * q1s
    stage = np.einsum(
        "nxu,xu->n", joint, mdp.stage_costs[0]
    ) + beta * _batched_mutual_information(joint)
    full = joint[:, :, :, None] * mdp.transitions[0][None, :, :, :]
    c1_eff = mdp.stage_costs[1] + mdp.transitions[1] @ mdp.terminal_cost
    return stage, full, c1_eff


def directed_optimum_t2(
    mdp: FiniteMdp, beta: float, resolution: float, combo_budget: int = 100_000
) -> float:
    """Optimum of cost + beta * directed information over unrestricted policies.

    Two-step instances only.  The first stage is gridded; for each first-stage
    policy and each realized first control, the optimal continuation is a
    single-stage convex problem over the conditional joint of both states,
    solved exactly (vectorized over the whole grid).  The expected terminal
    cost is folded into the second-stage cost table.  The result is exact up
    to the first-stage grid spacing.
    """
    check_beta(beta)
    if mdp.horizon != 2:
        raise InstanceError("directed-information optimum oracle needs horizon 2")
    x0, u0 = mdp.state_cards[0], mdp.action_cards[0]
    x1, u1 = mdp.state_cards[1], mdp.action_cards[1]
    n_items = len(_simplex_grid(u0, resolution)) ** x0
    if n_items > combo_budget:
        raise ResourceError(
            f"{n_items} first-stage grid points exceed budget {combo_budget}"
        )
    totals, full, c1_eff = _first_stage(mdp, beta, resolution)
    lifted_cost = np.broadcast_to(c1_eff[None, :, :], (x0, x1, u1)).reshape(-1, u1)
    for u in range(u0):
        branch = full[:, :, u, :].reshape(len(full), -1)  # flattened (x0, x1)
        w = branch.sum(axis=1)
        safe = np.where(w[:, None] > 0.0, branch / np.maximum(w, 1e-300)[:, None], 0.0)
        uniform = np.full_like(safe, 1.0 / safe.shape[1])
        priors = np.where(w[:, None] > 0.0, safe, uniform)
        totals += w * _batched_blahut(priors, lifted_cost, beta)
    return float(totals.min())


@dataclass(frozen=True)
class StructuralReductionReport:
    degree_optimum: float
    full_history_optimum: float
    max_pointwise_gap: float


def structural_reduction_check(
    mdp: FiniteMdp, beta: float, resolution: float
) -> StructuralReductionReport:
    """Compare degree-0 and full-history policy classes on the same objective.

    Both sides share the first-stage grid; the continuation is solved exactly
    as a convex problem once over the current-state marginal (degree side)
    and once over the lifted joint of the whole past (full-history side).
    Equality of the optima is the structural claim under test.
    """
    check_beta(beta)
    if mdp.horizon > 2:
        raise InstanceError("structural reduction check is guarded at horizon 2")
    if mdp.horizon == 1:
        c_eff = mdp.stage_costs[0] + mdp.transitions[0] @ mdp.terminal_cost
        val = classical_blahut(mdp.initial, c_eff, beta).value
        return StructuralReductionReport(val, val, 0.0)
    x0, u0 = mdp.state_cards[0], mdp.action_cards[0]
    x1, u1 = mdp.state_cards[1], mdp.action_cards[1]
    stage, full, c1_eff = _first_stage(mdp, beta, resolution)
    # rows of the lifted cost follow the flattened (x0, u0, x1) source order
    lifted_cost = np.broadcast_to(
        c1_eff[None, None, :, :], (x0, u0, x1, u1)
    ).reshape(-1, u1)
    mu1 = full.sum(axis=(1, 2))
    v_marg = _batched_blahut(mu1, c1_eff, beta)
    v_lift = _batched_blahut(full.reshape(len(full), -1), lifted_cost, beta)
    return StructuralReductionReport(
        float((stage + v_marg).min()),
        float((stage + v_lift).min()),
        float(np.abs(v_marg - v_lift).max()),
    )


# ---------------------------------------------------------------------------
# Rate bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateBoundEntry:
    beta: float
    cost: float
    information_nats: float
    information_directed_nats: float | None
    rate_lower_bound_bits: float
    flag: str = ""


@dataclass(frozen=True)
class RateBoundReport:
    """Trade-off table with communication-rate lower bounds in bits.

    The bound column reads information / log 2 and lower-bounds the total
    codebook rate of any finite-memory encoder/decoder realization of the
    policy; no encoder is synthesized here.  Rows where the bound fails to
    decrease as beta grows are flagged, not rejected: multi-start solutions
    of a nonconvex problem need not be monotone.
    """

    entries: tuple[RateBoundEntry, ...]


def rate_bound_report(
    rows: list[dict], monotone_slack: float = 1e-9
) -> RateBoundReport:
    """Assemble per-beta sweep rows into the bound table.

    Each row needs keys beta, cost, information_nats and optionally
    information_directed_nats.
    """
    entries = []
    ordered = sorted(rows, key=lambda r: r["beta"])
    prev_bits: float | None = None
    for row in ordered:
        bits = row["information_nats"] / math.log(2.0)
        flag = ""
        if prev_bits is not None and bits > prev_bits + monotone_slack:
            flag = "nonmonotone"
        prev_bits = bits
        entries.append(
            RateBoundEntry(
                beta=float(row["beta"]),
                cost=float(row["cost"]),
                information_nats=float(row["information_nats"]),
                information_directed_nats=(
                    None
                    if row.get("information_directed_nats") is None
                    else float(row["information_directed_nats"])
                ),
                rate_lower_bound_bits=bits,
                flag=flag,
            )
        )
    return RateBoundReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def suite_prop1b(seed: int, trials: int = 100) -> SuiteResult:
    """Widening the state window never changes the information term."""
    result = SuiteResult("window-width-invariance", trials)
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        mdp = random_mdp(rng, int(rng.integers(1, 5)), 4, 4)
        n = int(rng.integers(0, 3))
        pol = random_policy(rng, mdp, n)
        base = transfer_entropy(mdp, pol, 0, n)
        for m in (1, 2):
            gap = abs(transfer_entropy(mdp, pol, m, n) - base)
            if gap >= 1e-12:
                result.failures.append(
                    f"seed={seed + i} m={m} n={n} gap={gap:.3e}"
                )
    return result


def suite_prop2(seed: int, trials: int = 100) -> SuiteResult:
    """Longer control conditioning never increases the per-step information."""
    result = SuiteResult("conditioning-monotonicity", trials)
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        mdp = random_mdp(rng, int(rng.integers(1, 5)), 4, 4)
        n = int(rng.integers(0, 3))
        pol = random_policy(rng, mdp, n)
        prev = transfer_entropy_terms(mdp, pol, 0, n)
        for ne in (n + 1, n + 2):
            cur = transfer_entropy_terms(mdp, pol, 0, ne)
            if not (cur <= prev + 1e-12).all():
                result.failures.append(
                    f"seed={seed + i} n={n} n_eval={ne} "
                    f"violation={(cur - prev).max():.3e}"
                )
            prev = cur
    return result


def suite_eq10(seed: int, trials: int = 20, resolution: float = 0.05) -> SuiteResult:
    """Finite-memory optima upper-bound the directed-information optimum."""
    result = SuiteResult("bound-chain", trials)
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        mdp = random_mdp(rng, 2, max_states=2, max_actions=2)
        beta = float(rng.uniform(0.2, 2.0))
        deg = brute_force_policy_search(mdp, beta, 0, resolution).value
        full = directed_optimum_t2(mdp, beta, resolution)
        if deg < full - 1e-3:
            result.failures.append(
                f"seed={seed + i} beta={beta:.3f} degree={deg:.6f} "
                f"directed={full:.6f}"
            )
    return result


def suite_oracle_agreement(
    seed: int, trials: int = 10, resolution: float = 0.02
) -> SuiteResult:
    """Multi-start solver totals agree with exhaustive grids on tiny instances."""
    result = SuiteResult("oracle-agreement", trials)
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        mdp = random_mdp(rng, 1, max_states=3, max_actions=2)
        beta = float(rng.uniform(0.2, 2.0))
        brute = brute_force_policy_search(mdp, beta, 0, resolution).value
        reports = multi_start(
            mdp, SolveOptions(beta=beta, degree=0), starts=4, seed=seed + i
        )
        best = min(r.total for r in reports)
        if best > brute + 1e-3 or best < brute - 1e-9:
            result.failures.append(
                f"seed={seed + i} solver={best:.9f} brute={brute:.9f}"
            )
    return result


def _random_solve(seed: int, max_iters: int):
    """Perturbed-start solve of a random instance drawn as in criterion 1."""
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, int(rng.integers(1, 11)), 5, 5)
    n = int(rng.integers(0, 3))
    opts = SolveOptions(
        beta=float(rng.uniform(0.1, 3.0)),
        degree=n,
        init="perturbed",
        seed=seed,
        max_iters=max_iters,
    )
    return solve(mdp, opts)


def suite_descent(seed: int, trials: int = 50) -> SuiteResult:
    """Objective traces of random solves are nonincreasing."""
    result = SuiteResult("monotone-descent", trials)
    for i in range(trials):
        trace = _random_solve(seed + i, 400).objective_trace
        worst = float((trace[1:] - trace[:-1]).max()) if len(trace) > 1 else 0.0
        if worst > 1e-12:
            result.failures.append(f"seed={seed + i} ascent={worst:.3e}")
    return result


def suite_residual(seed: int, trials: int = 50) -> SuiteResult:
    """Converged solves certify stationarity below 1e-8."""
    result = SuiteResult("stationarity-residual", trials)
    for i in range(trials):
        report = _random_solve(seed + i, 600)
        if report.converged and report.residual >= 1e-8:
            result.failures.append(
                f"seed={seed + i} residual={report.residual:.3e}"
            )
    return result


def all_suites(seed: int, scope: str = "full") -> list[SuiteResult]:
    """Run every verification suite; quick scope shrinks the trial counts."""
    quick = scope == "quick"
    return [
        suite_prop1b(seed, 20 if quick else 100),
        suite_prop2(seed + 1000, 20 if quick else 100),
        suite_eq10(seed + 2000, 5 if quick else 20),
        suite_oracle_agreement(seed + 3000, 4 if quick else 10),
        suite_descent(seed + 4000, 10 if quick else 50),
        suite_residual(seed + 5000, 10 if quick else 50),
    ]
