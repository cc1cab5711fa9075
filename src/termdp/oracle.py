"""Independent verification oracles.

Everything here deliberately avoids the solver's code paths where it can:
brute-force search grids policy simplices and evaluates objectives with its
own batched recursion, and the two-step landscapes rebuild the objective from
single-stage convex solves.  Two steps are shared with the solver rather than
duplicated: value iteration is the solver's ``backward_induction`` (which also
seeds the plan starts), and every single-stage convex solve is the solver's
batched ``classical_blahut``.
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
    DEFAULT_CELL_BUDGET,
    FiniteMdp,
    MemoryPolicy,
    check_beta,
    check_tables,
    conditional_mutual_information,
    slide_split,
    transfer_entropy,
    transfer_entropy_terms,
)
from .solver import (
    PolicyStack,
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
BRUTE_FORCE_CHUNK = 32_768  # grid policies evaluated per batch
DIRECTED_GRID_BUDGET = 100_000  # first-stage grid points of directed_optimum_t2
SADDLE_SPACINGS = 0.6  # stage-1 saddle threshold, in grid spacings
RATE_MONOTONE_SLACK = 1e-9  # bits a rate bound may rise before it is flagged
# The stage-1 landscape's tracemalloc peak is 473-475 bytes per grid cell at
# resolutions 61, 101 and 301, nearly all of it in the stacked certificate.
# Grids whose cells times LANDSCAPE_CELL_BYTES exceed MAX_LANDSCAPE_BYTES
# (160 MB, so resolution <= 577) are refused.  Both are fixed here, at
# import: the certificate's chunk size follows DEFAULT_CELL_BUDGET instead.
LANDSCAPE_CELL_BYTES = 480
MAX_LANDSCAPE_BYTES = 8 * DEFAULT_CELL_BUDGET


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

    Each grid point solves the single-stage convex problem to convergence,
    all of them in one batched ``classical_blahut`` call; the resulting curve
    is the nonconvex continuation value of the first stage.
    """
    _require_toy_shape(mdp)
    _check_resolution(resolution)
    lambdas = np.linspace(0.0, 1.0, resolution)
    priors = np.stack([lambdas, 1.0 - lambdas], axis=1)
    values = classical_blahut(priors, np.asarray(mdp.stage_costs[1]), beta).value
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


def _landscape_values(
    mdp: FiniteMdp, q1s: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage-1 objective per cell of q1s (cells, x, 1, u), the continuation
    policies of the distinct second-stage priors, and each cell's slot.

    A function of its own so that its whole-grid temporaries are freed
    before the certificate runs (LANDSCAPE_CELL_BYTES counts on that)."""
    joints = mdp.initial[:, None] * q1s[:, :, 0]  # (cells, x, u)
    first = np.sum(joints * mdp.stage_costs[0], axis=(1, 2))
    first += beta * conditional_mutual_information(joints, (1,), (2,))
    mu1 = np.einsum("nxu,xuy->ny", joints, mdp.transitions[0])
    lam, slot = np.unique(mu1[:, 0], return_inverse=True)
    priors = np.stack([lam, 1.0 - lam], axis=1)
    inner = classical_blahut(priors, mdp.stage_costs[1], beta)
    return first + inner.value[slot], inner.policy, slot


def objective_landscape_stage1(
    mdp: FiniteMdp,
    resolution: int,
    beta: float = 1.0,
) -> LandscapeGrid:
    """First-stage objective over the two free policy parameters.

    Axis 0 is the probability of action 0 in state 0, axis 1 the same in
    state 1.  Each cell adds the first-stage cost and information to the
    exactly solved second-stage continuation; cells are classified by strict
    8-neighborhood dominance plus the solver fixed-point residual.  The
    residual grows about linearly with the distance to a true stationary
    point, so the saddle threshold is SADDLE_SPACINGS (six tenths) of the
    grid spacing: enough to always catch the cell nearest a true saddle.

    The whole grid's first stage is one stacked expression, the distinct
    second-stage priors are solved in one batched ``classical_blahut`` call,
    and the cells' policies are certified as stacks of at most
    DEFAULT_CELL_BUDGET cells; every value and residual equals that of its
    cell computed alone.  A grid whose cells times LANDSCAPE_CELL_BYTES
    exceed MAX_LANDSCAPE_BYTES raises ResourceError before any allocation.
    """
    _require_toy_shape(mdp)
    _check_resolution(resolution)
    cells = resolution * resolution
    if cells * LANDSCAPE_CELL_BYTES > MAX_LANDSCAPE_BYTES:
        raise ResourceError(
            f"a landscape of {cells} cells needs about "
            f"{cells * LANDSCAPE_CELL_BYTES} bytes, budget is {MAX_LANDSCAPE_BYTES}"
        )
    thetas = np.linspace(0.0, 1.0, resolution)
    th = np.stack(np.meshgrid(thetas, thetas, indexing="ij"), axis=-1)
    q1s = np.stack([th, 1.0 - th], axis=-1).reshape(cells, 2, 1, 2)
    flat, policies, slot = _landscape_values(mdp, q1s, beta)
    values = flat.reshape(resolution, resolution)
    residuals = np.empty(cells)
    size = max(1, DEFAULT_CELL_BUDGET // mdp.sweep_plan(0).cells)
    for k in range(0, cells, size):  # stacks within the cell budget
        part = slice(k, k + size)
        tables = (q1s[part], policies[slot[part]][:, :, None, :])
        check_tables(tables)
        residuals[part] = residual_from_policy(mdp, PolicyStack(0, tables), beta)

    minima = _strict_local_minima(values)
    classification = np.full(values.shape, "", dtype="<U16")
    for cell in minima:
        classification[cell] = "local_min"
    saddle_tol = SADDLE_SPACINGS / (resolution - 1)
    near = (classification == "") & (residuals.reshape(values.shape) < saddle_tol)
    saddles = [(int(i), int(j)) for i, j in np.argwhere(near)]
    classification[near] = "saddle_candidate"
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
    for start in range(0, combos, BRUTE_FORCE_CHUNK):
        idx = np.arange(start, min(start + BRUTE_FORCE_CHUNK, combos))
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
    grid = _simplex_grid(mdp.action_cards[0], resolution)
    combos = itertools.product(range(len(grid)), repeat=mdp.state_cards[0])
    return grid[np.array(list(combos))]  # (N, X0, U0)


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
    mdp: FiniteMdp, beta: float, resolution: float
) -> float:
    """Optimum of cost + beta * directed information over unrestricted policies.

    Two-step instances only.  The first stage is gridded; for each first-stage
    policy and each realized first control, the optimal continuation is a
    single-stage convex problem over the conditional joint of both states,
    solved exactly (one batched ``classical_blahut`` call per first control).
    The expected terminal cost is folded into the second-stage cost table.
    The result is exact up to the first-stage grid spacing.
    """
    check_beta(beta)
    if mdp.horizon != 2:
        raise InstanceError("directed-information optimum oracle needs horizon 2")
    x0, u0 = mdp.state_cards[0], mdp.action_cards[0]
    x1, u1 = mdp.state_cards[1], mdp.action_cards[1]
    n_items = len(_simplex_grid(u0, resolution)) ** x0
    if n_items > DIRECTED_GRID_BUDGET:
        raise ResourceError(
            f"{n_items} first-stage grid points exceed budget {DIRECTED_GRID_BUDGET}"
        )
    totals, full, c1_eff = _first_stage(mdp, beta, resolution)
    lifted_cost = np.broadcast_to(c1_eff[None, :, :], (x0, x1, u1)).reshape(-1, u1)
    for u in range(u0):
        branch = full[:, :, u, :].reshape(len(full), -1)  # flattened (x0, x1)
        w = branch.sum(axis=1)
        # a first control never played gets a uniform (weightless) prior
        priors = np.where(w[:, None] > 0.0, branch / np.maximum(w, 1e-300)[:, None],
                          1.0 / branch.shape[1])
        totals += w * classical_blahut(priors, lifted_cost, beta).value
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
    v_marg = classical_blahut(mu1, c1_eff, beta).value
    v_lift = classical_blahut(full.reshape(len(full), -1), lifted_cost, beta).value
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


def rate_bound_report(rows: list[dict]) -> RateBoundReport:
    """Assemble per-beta sweep rows into the bound table.

    Each row needs keys beta, cost, information_nats and optionally
    information_directed_nats.
    """
    entries = []
    prev_bits = math.inf
    for row in sorted(rows, key=lambda r: r["beta"]):
        bits = row["information_nats"] / math.log(2.0)
        rising = bits > prev_bits + RATE_MONOTONE_SLACK
        prev_bits = bits
        directed = row.get("information_directed_nats")
        entries.append(RateBoundEntry(
            beta=float(row["beta"]),
            cost=float(row["cost"]),
            information_nats=float(row["information_nats"]),
            information_directed_nats=None if directed is None else float(directed),
            rate_lower_bound_bits=bits,
            flag="nonmonotone" if rising else "",
        ))
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
