"""Forward-backward alternating-minimization solver.

Each sweep first propagates the state/history joint forward under the current
policy and marginalizes out the state to get history-conditional action
marginals, then recurses backward computing a modified stage cost, a log
partition function, and the refreshed policy.  The sweep is an exact two-block
coordinate descent on the factored objective F(q, nu), so the recorded
objective trace is nonincreasing.

The trace costs no pass of its own: for q = Gibbs(nu, rho) the stage terms
c / beta + log(q / nu) telescope through log phi, so F of the policy a
backward pass builds, against the marginals it was built from, is that pass's
free energy -beta * E[log phi_0(x_0)].  Only the start policy's value is
evaluated directly, with ``factored_objective``.

The weight beta is absorbed by dividing stage costs by beta inside the
backward recursion; reported costs are always unscaled.  Partition functions
are kept in the log domain (large terminal penalties underflow otherwise).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InstanceError, NumericalError
from .model import (
    FiniteMdp,
    MemoryPolicy,
    ReducedBelief,
    expected_cost,
    factored_objective,
    canonicalize_policy,
    check_beta,
    forward_step,
    induced_action_marginals,
    per_step_information,
    propagate_reduced,
    slide_split,
)

__all__ = [
    "SolveOptions",
    "SolverIterate",
    "SolveReport",
    "forward_pass",
    "backward_pass",
    "solve",
    "multi_start",
    "plan_start_policies",
    "stationarity_residual",
    "residual_from_policy",
    "classical_blahut",
    "ClassicalSolution",
    "free_energy",
]

MASS_TOL = 1e-12
PLAN_MIX = 0.8  # weight of the greedy action in a plan start


@dataclass(frozen=True)
class SolveOptions:
    """Solve configuration.

    init is "uniform" or "perturbed"; perturbed starts need a seed.
    """

    beta: float
    degree: int = 0
    max_iters: int = 2000
    tol_objective: float = 1e-10
    tol_residual: float = 1e-8
    init: str = "uniform"
    seed: int | None = None

    def __post_init__(self) -> None:
        check_beta(self.beta)
        if self.degree < 0:
            raise InstanceError("memory degree must be nonnegative")
        if self.max_iters < 1:
            raise InstanceError("max_iters must be positive")
        for tol in (self.tol_objective, self.tol_residual):
            if not (math.isfinite(tol) and tol > 0):
                raise InstanceError(
                    f"tolerances must be positive and finite, got {tol!r}"
                )
        if self.init not in ("uniform", "perturbed"):
            raise InstanceError(f"unknown init {self.init!r}")
        if self.init == "perturbed" and self.seed is None:
            raise InstanceError("perturbed init requires a seed")


@dataclass(frozen=True)
class SolverIterate:
    """One sweep's variables: beliefs, marginals, costs-to-go, policy."""

    belief: ReducedBelief
    nu: tuple[np.ndarray, ...]
    rho: tuple[np.ndarray, ...]
    log_phi: tuple[np.ndarray, ...]
    policy: MemoryPolicy


@dataclass(frozen=True)
class SolveReport:
    """Converged policy plus objective decomposition and solve diagnostics."""

    policy: MemoryPolicy
    beta: float
    degree: int
    cost: float
    information_nats: float
    total: float
    residual: float
    iterations: int
    converged: bool
    objective_trace: np.ndarray
    wall_time_seconds: float


def forward_pass(
    mdp: FiniteMdp, policy: MemoryPolicy
) -> tuple[ReducedBelief, list[np.ndarray]]:
    """Propagate beliefs under the policy and marginalize out the state.

    Zero-mass histories get uniform marginals, so the backward pass always
    sees strictly positive normalizers somewhere in each slice.
    """
    belief = propagate_reduced(mdp, policy)
    return belief, induced_action_marginals(mdp, policy, belief)


def backward_pass(
    mdp: FiniteMdp, nu: list[np.ndarray], beta: float, degree: int
) -> tuple[list[np.ndarray], list[np.ndarray], MemoryPolicy]:
    """Backward recursion for the modified cost, log partition, and policy.

    Terminal condition: log_phi at T is -terminal_cost / beta, constant in
    the control history.  For t = T-1..0:

        rho_t(x, h, u)   = c_t(x, u) / beta - sum_y p(y|x,u) log_phi_{t+1}(y, h')
        log_phi_t(x, h)  = logsumexp_u(log nu_t(u|h) - rho_t(x, h, u))
        q_t(u|x, h)      = exp(log nu_t(u|h) - rho_t(x, h, u) - log_phi_t(x, h))

    where h' is h with u appended and the oldest control dropped once the
    window is full.  rho does not depend on the dropped coordinate; it is
    stored broadcast over it.
    """
    T = mdp.horizon
    X = mdp.state_cards
    rho: list[np.ndarray | None] = [None] * T
    log_phi: list[np.ndarray | None] = [None] * (T + 1)
    h_term = mdp.history_size(degree, T)
    log_phi[T] = np.broadcast_to(
        (-mdp.terminal_cost / beta)[:, None], (X[T], h_term)
    ).copy()
    tables: list[np.ndarray | None] = [None] * T
    for t in range(T - 1, -1, -1):
        rho[t] = _modified_cost(mdp, degree, t, log_phi[t + 1], beta)
        log_phi[t], q_t = gibbs_step(nu[t], rho[t])
        # exponent roundoff at extreme cost/beta ratios leaves row sums
        # off by more than the policy tolerance; renormalize exactly
        tables[t] = q_t / q_t.sum(axis=2, keepdims=True)
    policy = MemoryPolicy(degree, tuple(tables))
    return list(rho), list(log_phi), policy


def gibbs_step(nu: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log partition and Gibbs policy of a marginal against a scaled cost.

    Over the last axis, with z = log nu - cost (nu broadcast against cost):

        log_phi = logsumexp_u(z)
        q       = exp(z - log_phi)

    Zero marginal entries get log nu = -inf and so zero policy mass.  q is
    not renormalized; callers that keep it as a policy divide by its sums.
    """
    log_nu = np.where(nu > 0.0, np.log(np.maximum(nu, 1e-300)), -np.inf)
    z = log_nu - cost
    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax[..., 0] + np.log(np.exp(z - zmax).sum(axis=-1))
    return lse, np.exp(z - lse[..., None])


def _modified_cost(
    mdp: FiniteMdp, degree: int, t: int, log_phi_next: np.ndarray, beta: float
) -> np.ndarray:
    """rho_t as a full (X_t, H_t, U_t) array.

    rho does not depend on the history coordinate that drops out of the
    window at t + 1, so the core is computed once and broadcast over it.
    """
    X, A = mdp.state_cards, mdp.action_cards
    if degree == 0:
        summed = np.einsum("xuy,y->xu", mdp.transitions[t], log_phi_next[:, 0])
        return (mdp.stage_costs[t] / beta - summed)[:, None, :]
    dropped, kept = slide_split(mdp, degree, t)
    lp_next = log_phi_next.reshape(X[t + 1], kept, A[t])
    core = mdp.stage_costs[t][:, None, :] / beta - np.einsum(
        "xuy,yru->xru", mdp.transitions[t], lp_next
    )
    return np.broadcast_to(
        core[:, None, :, :], (X[t], dropped, kept, A[t])
    ).reshape(X[t], dropped * kept, A[t])


def _masked_policy_gap(
    belief: ReducedBelief, a: MemoryPolicy, b: MemoryPolicy
) -> float:
    """Sup-norm policy change over (state, history) pairs carrying mass."""
    gap = 0.0
    for t in range(len(a.tables)):
        mask = belief.mus[t] > MASS_TOL
        if mask.any():
            diff = np.abs(a.tables[t] - b.tables[t])[mask, :]
            gap = max(gap, float(diff.max()))
    return gap


def solve(mdp: FiniteMdp, opts: SolveOptions) -> SolveReport:
    """Iterate forward and backward sweeps until the objective stalls.

    The objective trace records one value per sweep and is nonincreasing up
    to roundoff.  trace[0] is the start policy's objective F(q_0, nu_0);
    trace[k] = F(q_k, nu_{k-1}) is the free energy of the backward pass that
    built q_k from the marginals of q_{k-1}.  The solve is declared
    converged once consecutive objective values differ by less than
    tol_objective and the policy change over massed pairs (equivalently the
    fixed-point relation on q) is below tol_residual; the certified
    stationarity residual of the final iterate is reported either way.
    """
    if opts.init == "uniform":
        q0 = MemoryPolicy.uniform(mdp, opts.degree)
    else:
        q0 = MemoryPolicy.perturbed(mdp, opts.degree, opts.seed)
    return _solve_loop(mdp, opts, q0)


def _sweeps(
    mdp: FiniteMdp,
    opts: SolveOptions,
    q0: MemoryPolicy,
    max_iters: int,
    check_stop: bool,
):
    """Shared sweep loop; returns (q, trace, iterations, converged).

    Sweep k records trace[k - 1]: the start policy's objective on the first
    sweep, after it the free energy of sweep k - 1's backward pass.
    """
    q = q0
    trace: list[float] = []
    converged = False
    iterations = 0
    for k in range(1, max_iters + 1):
        belief, nu = forward_pass(mdp, q)
        if k == 1:
            value = factored_objective(mdp, q, nu, opts.beta, belief=belief)
        trace.append(value)
        if not math.isfinite(value):
            raise NumericalError(f"non-finite objective at iteration {k}")
        _, log_phi, q_new = backward_pass(mdp, nu, opts.beta, opts.degree)
        value = free_energy(log_phi[0], mdp.initial, opts.beta)
        iterations = k
        if (
            check_stop
            and len(trace) >= 2
            and abs(trace[-2] - trace[-1]) < opts.tol_objective
            and _masked_policy_gap(belief, q, q_new) < opts.tol_residual
        ):
            q = q_new
            converged = True
            break
        q = q_new
    return q, trace, iterations, converged


def _solve_loop(
    mdp: FiniteMdp,
    opts: SolveOptions,
    q0: MemoryPolicy,
    iters_used: int = 0,
    trace_prefix: list[float] | None = None,
) -> SolveReport:
    start = time.perf_counter()
    budget = opts.max_iters - iters_used
    q, trace, iterations, converged = _sweeps(mdp, opts, q0, budget, True)
    # canonicalizing only rewrites massless slices, so q's belief is final's
    belief = propagate_reduced(mdp, q)
    final = canonicalize_policy(mdp, q, belief)
    cost = expected_cost(mdp, final, belief)
    info = float(per_step_information(mdp, final, belief).sum())
    residual = residual_from_policy(mdp, final, opts.beta)
    elapsed = time.perf_counter() - start
    full_trace = (trace_prefix or []) + trace
    return SolveReport(
        policy=final,
        beta=opts.beta,
        degree=opts.degree,
        cost=cost,
        information_nats=info,
        total=cost + opts.beta * info,
        residual=residual,
        iterations=iters_used + iterations,
        converged=converged,
        objective_trace=np.asarray(full_trace),
        wall_time_seconds=elapsed,
    )


def backward_induction(
    mdp: FiniteMdp, stage_costs: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Deterministic dynamic programming without the information cost.

    Returns the greedy actions for t = 0..T-1 (argmin ties go to the lowest
    action index) and the values to go for t = 0..T, the last being the
    terminal cost.  Seeds the plan starts and is the value-iteration oracle.
    """
    T = mdp.horizon
    values: list[np.ndarray] = [None] * (T + 1)
    actions: list[np.ndarray] = [None] * T
    values[T] = np.asarray(mdp.terminal_cost)
    for t in range(T - 1, -1, -1):
        q_val = stage_costs[t] + mdp.transitions[t] @ values[t + 1]
        actions[t] = np.argmin(q_val, axis=1)
        values[t] = q_val[np.arange(q_val.shape[0]), actions[t]]
    return actions, values


def plan_start_policies(
    mdp: FiniteMdp, degree: int, count: int
) -> list[MemoryPolicy]:
    """Structurally diverse starts from iteratively penalized planning.

    Plan 1 blends the cost-greedy deterministic policy with uniform; each
    further plan re-solves the planning problem after surcharging the states
    the previous plan occupies, which forces qualitatively different behavior
    (alternative routes) into the start set.  Deterministic, no seed needed.
    """
    scale = max(1.0, max(float(np.abs(c).max()) for c in mdp.stage_costs))
    penalties = [np.zeros(c.shape[0]) for c in mdp.stage_costs]
    plans = []
    for _ in range(count):
        costs = [
            c + p[:, None] for c, p in zip(mdp.stage_costs, penalties)
        ]
        actions, _ = backward_induction(mdp, costs)
        tables = []
        for t in range(mdp.horizon):
            u_card = mdp.action_cards[t]
            x_card = mdp.state_cards[t]
            h = mdp.history_size(degree, t)
            q = np.full((x_card, h, u_card), (1.0 - PLAN_MIX) / u_card)
            q[np.arange(x_card), :, actions[t]] += PLAN_MIX
            tables.append(q)
        policy = MemoryPolicy(degree, tuple(tables))
        plans.append(policy)
        belief = propagate_reduced(mdp, policy)
        for t in range(mdp.horizon):
            occupied = belief.mus[t].sum(axis=1) > 1e-3
            penalties[t] = penalties[t] + 2.0 * scale * occupied
    return plans


def multi_start(
    mdp: FiniteMdp,
    opts: SolveOptions,
    starts: int,
    seed: int,
    include_uniform: bool = True,
    plan_starts: int = 0,
    screen_iters: int | None = None,
) -> list[SolveReport]:
    """Solve from diverse initializations and return the reports.

    The start set is the uniform policy (optional), ``plan_starts``
    deterministic penalized-planning blends, and ``starts`` seeded random
    perturbations drawn from the master seed.  With ``screen_iters`` set,
    every start first runs that many sweeps and only the screening winner is
    polished, within the rest of max_iters, into the one report returned;
    values agreeing to 12 digits tie and go to the earliest start.  Otherwise
    every start is solved fully.  Both modes are reproducible bit for bit.
    """
    if starts < 0 or starts + int(include_uniform) + plan_starts < 1:
        raise InstanceError("multi-start needs at least one start")
    rng = np.random.default_rng(seed)
    start_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=starts)]
    inits = [MemoryPolicy.uniform(mdp, opts.degree)] if include_uniform else []
    inits.extend(plan_start_policies(mdp, opts.degree, plan_starts))
    inits.extend(MemoryPolicy.perturbed(mdp, opts.degree, s) for s in start_seeds)
    if screen_iters is None:
        return [_solve_loop(mdp, opts, q0) for q0 in inits]
    screen_budget = min(screen_iters, opts.max_iters)
    screened = [_sweeps(mdp, opts, q0, screen_budget, True) for q0 in inits]
    low = min(trace[-1] for _, trace, _, _ in screened)
    q, trace, iters, _ = next(
        s for s in screened if s[1][-1] - low <= 1e-12 * abs(low)
    )
    return [_solve_loop(mdp, opts, q, iters_used=iters, trace_prefix=trace)]


def stationarity_residual(
    mdp: FiniteMdp, iterate: SolverIterate, beta: float
) -> float:
    """Max sup-norm violation of the five stationarity relations.

    The belief recursion and the cost-to-go relations are checked everywhere;
    the marginal relation and the policy relation only where the relevant
    belief mass exceeds 1e-12 (they are only pinned down almost everywhere).
    Returns 0 at an exact fixed point.
    """
    T = mdp.horizon
    n = iterate.policy.degree
    belief, nu, rho, log_phi, q = (
        iterate.belief,
        iterate.nu,
        iterate.rho,
        iterate.log_phi,
        iterate.policy,
    )
    worst = float(np.abs(belief.mus[0] - mdp.initial.reshape(-1, 1)).max())
    for t in range(T):
        nxt = forward_step(mdp, n, t, belief.mus[t], q.tables[t])
        worst = max(worst, float(np.abs(belief.mus[t + 1] - nxt).max()))
    fresh_nu = induced_action_marginals(mdp, q, belief)
    for t in range(T):
        mass = belief.mus[t].sum(axis=0) > MASS_TOL
        if mass.any():
            worst = max(
                worst, float(np.abs(nu[t] - fresh_nu[t])[mass, :].max())
            )
    h_term = mdp.history_size(n, T)
    term = np.broadcast_to(
        (-mdp.terminal_cost / beta)[:, None], (mdp.state_cards[T], h_term)
    )
    worst = max(worst, float(np.abs(log_phi[T] - term).max()))
    for t in range(T - 1, -1, -1):
        want_rho = _modified_cost(mdp, n, t, log_phi[t + 1], beta)
        worst = max(worst, float(np.abs(rho[t] - want_rho).max()))
        lse, q_want = gibbs_step(nu[t], rho[t])
        worst = max(worst, float(np.abs(log_phi[t] - lse).max()))
        mask = belief.mus[t] > MASS_TOL
        if mask.any():
            diff = np.abs(q.tables[t] - q_want)[mask, :]
            worst = max(worst, float(diff.max()))
    return worst


def residual_from_policy(mdp: FiniteMdp, policy: MemoryPolicy, beta: float) -> float:
    """Stationarity residual of the iterate one sweep builds from a policy.

    The forward and backward relations then hold by construction, so the
    residual reduces to the fixed-point gap on the policy itself: how much one
    further sweep would move q on the massed pairs.
    """
    belief, nu = forward_pass(mdp, policy)
    rho, log_phi, q_new = backward_pass(mdp, nu, beta, policy.degree)
    iterate = SolverIterate(
        belief=belief,
        nu=tuple(nu),
        rho=tuple(rho),
        log_phi=tuple(log_phi),
        policy=policy,
    )
    return stationarity_residual(mdp, iterate, beta)


@dataclass(frozen=True)
class ClassicalSolution:
    """Fixed point of the single-stage alternating iteration."""

    policy: np.ndarray
    marginal: np.ndarray
    value: float
    iterations: int
    converged: bool


def classical_blahut(
    prior: np.ndarray,
    cost: np.ndarray,
    beta: float = 1.0,
    tol: float = 1e-12,
    max_iters: int = 100_000,
) -> ClassicalSolution:
    """Single-stage alternating minimization of E c + beta * I(X; U).

    The problem is convex, so the fixed point is the global optimum.  Returns
    the conditional policy, its action marginal, and the optimal value
    -beta * sum_x p(x) log phi(x) in unscaled units (equal to E c + beta I).
    """
    p = np.asarray(prior, dtype=float)
    c = np.asarray(cost, dtype=float)
    if p.ndim != 1 or c.ndim != 2 or c.shape[0] != p.shape[0]:
        raise InstanceError(
            f"prior shape {p.shape} and cost shape {c.shape} are incompatible"
        )
    if (p < 0).any() or abs(float(p.sum()) - 1.0) > 1e-9:
        raise InstanceError("prior is not a probability distribution")
    check_beta(beta)
    scaled = c / beta
    n_u = c.shape[1]
    q = np.full_like(c, 1.0 / n_u)
    value = math.inf
    converged = False
    iterations = 0
    for k in range(1, max_iters + 1):
        log_phi, q_new = gibbs_step(p @ q, scaled)
        q_new /= q_new.sum(axis=1, keepdims=True)
        new_value = -beta * float(p @ log_phi)
        gap = float(np.abs(q_new - q)[p > 0.0, :].max()) if (p > 0).any() else 0.0
        q = q_new
        iterations = k
        if abs(new_value - value) < tol and gap < tol:
            value = new_value
            converged = True
            break
        value = new_value
    if (p == 0.0).any():
        q = q.copy()
        q[p == 0.0, :] = 1.0 / n_u
    return ClassicalSolution(
        policy=q, marginal=p @ q, value=value, iterations=iterations,
        converged=converged,
    )


def free_energy(log_phi_first: np.ndarray, initial: np.ndarray, beta: float) -> float:
    """Optimal-cost readout from the first-stage log partition function.

    At a converged iterate, -beta * E[log phi_0(x_0)] equals the objective
    total.
    """
    lp = np.asarray(log_phi_first, dtype=float).reshape(len(initial), -1)[:, 0]
    return -beta * float(np.asarray(initial, dtype=float) @ lp)
