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
free energy -beta * E[log phi_0(x_0)].  Only the starts' values are
evaluated directly, with one stacked ``factored_objective`` call.

Both passes run on the ``SweepPlan`` that the ``FiniteMdp`` caches per
degree: shapes are worked out once, and each contraction over the next state
is a stacked matmul.  The starts of a multi-start are swept as one batch
along a leading axis; a member leaves the batch at its own stop, and its
numbers are bit for bit those of solving it alone.  A solve is a batch of
one.  The swept tables stay one ``PolicyStack``: one stacked final forward
pass serves the batch's one stacked certificate and its stacked cost and
information, and a ``MemoryPolicy`` is built only for a start and for a
report.  The stop test and the certificate measure the same
policy gap: the sup-norm change one backward pass makes to the policy over
the pairs with belief mass (``_policy_gap``).

The weight beta is absorbed by dividing stage costs by beta inside the
backward recursion; reported costs are always unscaled.  Partition functions
are kept in the log domain (large terminal penalties underflow otherwise).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InstanceError, NumericalError
from .model import (
    DEFAULT_CELL_BUDGET,
    FiniteMdp,
    MemoryPolicy,
    ReducedBelief,
    expected_cost,
    factored_objective,
    canonicalize_policy,
    check_beta,
    check_compatible,
    gibbs_step,
    induced_action_marginals,
    per_step_information,
    propagate_reduced,
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
    tol_objective is absolute, not relative to the total: trace roundoff
    reaches about 1.4e-11 at totals near 1e4, so at much larger totals only
    the tol_residual half of the stop test decides.
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


class PolicyStack(NamedTuple):
    """K policies of one degree, tables stacked as (K, X_t, H_t, U_t)."""

    degree: int
    tables: tuple[np.ndarray, ...]

    @classmethod
    def of(cls, degree: int, policies: Sequence[MemoryPolicy]) -> "PolicyStack":
        stacked = zip(*(q.tables for q in policies))
        return cls(degree, tuple(np.stack(ts) for ts in stacked))

    def take(self, rows) -> "PolicyStack":
        return PolicyStack(self.degree, tuple(q[rows] for q in self.tables))


def forward_pass(
    mdp: FiniteMdp, policy: MemoryPolicy | PolicyStack
) -> tuple[ReducedBelief, list[np.ndarray]]:
    """Propagate beliefs under the policy and marginalize out the state.

    Zero-mass histories get uniform marginals, so the backward pass always
    sees strictly positive normalizers somewhere in each slice.  A
    ``PolicyStack`` gives beliefs and marginals stacked on its batch axis.
    """
    mus, nus = check_compatible(mdp, policy).forward(policy.tables)
    return ReducedBelief(policy.degree, tuple(mus)), nus


def backward_pass(
    mdp: FiniteMdp, nu: list[np.ndarray], beta: float, degree: int
) -> tuple[list[np.ndarray], list[np.ndarray], MemoryPolicy | PolicyStack]:
    """Backward recursion for the modified cost, log partition, and policy.

    Terminal condition: log_phi at T is -terminal_cost / beta, constant in
    the control history.  For t = T-1..0:

        rho_t(x, h, u)   = c_t(x, u) / beta - sum_y p(y|x,u) log_phi_{t+1}(y, h')
        log_phi_t(x, h)  = logsumexp_u(log nu_t(u|h) - rho_t(x, h, u))
        q_t(u|x, h)      = exp(log nu_t(u|h) - rho_t(x, h, u) - log_phi_t(x, h))

    where h' is h with u appended and the oldest control dropped once the
    window is full.  rho does not depend on the dropped coordinate; it is
    stored broadcast over it.  Marginals stacked (K, H_t, U_t) give stacked
    log_phi, a ``PolicyStack`` and rho entries of None.  A Gibbs normalizer
    that is not finite and positive raises NumericalError.
    """
    rho, log_phi, tables = mdp.sweep_plan(degree).backward(nu, beta)
    kind = PolicyStack if nu[0].ndim == 3 else MemoryPolicy
    return rho, log_phi, kind(degree, tuple(tables))


def _policy_gap(mus, old_tables, new_tables) -> np.ndarray:
    """Sup-norm change from old to new tables over pairs with mus mass.

    Tables stacked on a leading batch axis give one gap per member.
    """
    return np.max([
        np.abs(qa - qb).max(axis=(-3, -2, -1), where=(mu > MASS_TOL)[..., None],
                            initial=0.0)
        for mu, qa, qb in zip(mus, old_tables, new_tables)
    ], axis=0)


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
    return _solve_batch(mdp, opts, PolicyStack.of(opts.degree, [q0]))[0]


def _sweeps(
    mdp: FiniteMdp,
    opts: SolveOptions,
    starts: MemoryPolicy | PolicyStack,
    max_iters: int,
    check_stop: bool,
) -> tuple[PolicyStack, list[list[float]], list[int], list[bool]]:
    """Sweep the starts in lockstep, each until its own stop or max_iters.

    Returns the start stack with each member's final tables written into it
    in place, then each start's trace, iterations and converged flag; a
    single MemoryPolicy is a batch of one.  Sweep k records trace[k - 1]:
    the start's objective, then the free energy of sweep k - 1's backward
    pass.  A member leaves the stack at its own stop, so its numbers are its
    solo run's bit for bit.  A non-finite objective drops its start and all
    later ones; the earlier starts sweep on, and the earliest failure is
    raised, as when starts are swept one at a time.
    """
    if isinstance(starts, MemoryPolicy):
        starts = PolicyStack.of(starts.degree, [starts])
    count = len(starts.tables[0])
    traces = [[] for _ in range(count)]
    iterations, converged = [0] * count, [False] * count
    stack, live = starts, list(range(count))  # the start swept in each row
    error, k = None, 0
    while live and k < max_iters:
        k += 1
        belief, nu = forward_pass(mdp, stack)
        mus = belief.mus
        if k == 1:
            values = factored_objective(mdp, stack, nu, opts.beta, belief).tolist()
        tested = []  # rows that pass the objective test, which comes first
        for row, i in enumerate(live):
            tr = traces[i]
            tr.append(values[row])
            if not math.isfinite(values[row]):
                error = NumericalError(f"non-finite objective at iteration {k}")
                live, stack = live[:row], stack.take(slice(row))
                mus, nu = [m[:row] for m in mus], [n[:row] for n in nu]
                break
            if check_stop and len(tr) > 1 and abs(tr[-2] - tr[-1]) < opts.tol_objective:
                tested.append(row)
        if not live:
            break
        # only the tested members' old tables outlive the backward pass
        old, stack = stack.take(tested) if tested else None, None
        log_phi, stack = backward_pass(mdp, nu, opts.beta, opts.degree)[1:]
        values = [free_energy(lp, mdp.initial, opts.beta) for lp in log_phi[0]]
        del log_phi
        gaps = _policy_gap([m[tested] for m in mus], old.tables,
                           stack.take(tested).tables) if tested else []
        stops = {row for row, gap in zip(tested, gaps) if gap < opts.tol_residual}
        stay = [r for r in range(len(live)) if r not in stops and k < max_iters]
        gone = [r for r in range(len(live)) if r not in stay]
        if gone:
            ids = [live[r] for r in gone]
            for q0, q in zip(starts.tables, stack.tables):
                q0[ids] = q[gone]
            for r, i in zip(gone, ids):
                iterations[i], converged[i] = k, r in stops
            live, values = [live[r] for r in stay], [values[r] for r in stay]
            stack = stack.take(stay)
    if error is not None:
        raise error
    return starts, traces, iterations, converged


def _solve_batch(
    mdp: FiniteMdp,
    opts: SolveOptions,
    starts: PolicyStack,
    iters_used: int = 0,
    trace_prefix: Sequence[float] = (),
) -> list[SolveReport]:
    """Sweep the starts as one batch, then report on each (see multi_start)."""
    start = time.perf_counter()
    swept, traces, iterations, converged = _sweeps(
        mdp, opts, starts, opts.max_iters - iters_used, True
    )
    # canonicalizing only rewrites massless slices, so the swept policies'
    # forward pass is the final policies', bit for bit
    belief, nu = forward_pass(mdp, swept)
    finals = canonicalize_policy(mdp, swept, belief)
    residuals = _certificate(mdp, finals, opts.beta, belief, nu).tolist()
    costs = expected_cost(mdp, finals, belief).tolist()
    infos = per_step_information(mdp, finals, belief).sum(axis=-1).tolist()
    seconds = time.perf_counter() - start
    return [
        SolveReport(
            policy=MemoryPolicy(opts.degree, tuple(q[i] for q in finals.tables)),
            beta=opts.beta, degree=opts.degree, cost=cost,
            information_nats=info, total=cost + opts.beta * info,
            residual=residual, iterations=iters_used + iters, converged=stopped,
            objective_trace=np.asarray([*trace_prefix, *trace]),
            wall_time_seconds=seconds,
        )
        for i, (cost, info, residual, trace, iters, stopped) in enumerate(
            zip(costs, infos, residuals, traces, iterations, converged)
        )
    ]


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
    steps = mdp.sweep_plan(degree).steps
    scale = max(1.0, max(float(np.abs(c).max()) for c in mdp.stage_costs))
    penalties = [np.zeros(c.shape[0]) for c in mdp.stage_costs]
    plans = []
    for _ in range(count):
        costs = [
            c + p[:, None] for c, p in zip(mdp.stage_costs, penalties)
        ]
        actions, _ = backward_induction(mdp, costs)
        tables = []
        for s, greedy in zip(steps, actions):
            x, _, u = s.shape
            q = np.full(s.shape, (1.0 - PLAN_MIX) / u)
            q[np.arange(x), :, greedy] += PLAN_MIX
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

    The starts are swept as one batch, each leaving it at its own stop, and
    every report equals that of the start solved alone, except that its wall
    time is that of its whole batch.  Starts whose stacked tables exceed
    DEFAULT_CELL_BUDGET cells are swept in consecutive batches that fit.
    """
    count = starts + int(include_uniform) + plan_starts
    if starts < 0 or count < 1:
        raise InstanceError("multi-start needs at least one start")
    if screen_iters is not None and screen_iters < 1:
        raise InstanceError(f"screen_iters must be positive, got {screen_iters}")
    size = max(1, DEFAULT_CELL_BUDGET // mdp.sweep_plan(opts.degree).cells)
    rng = np.random.default_rng(seed)
    start_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=starts)]
    inits = [MemoryPolicy.uniform(mdp, opts.degree)] if include_uniform else []
    inits.extend(plan_start_policies(mdp, opts.degree, plan_starts))
    inits.extend(MemoryPolicy.perturbed(mdp, opts.degree, s) for s in start_seeds)
    chunks = [
        PolicyStack.of(opts.degree, inits[i:i + size]) for i in range(0, count, size)
    ]
    del inits  # the stacks hold the starts, and then their final tables
    if screen_iters is None:
        return [r for chunk in chunks for r in _solve_batch(mdp, opts, chunk)]
    sweeps = min(screen_iters, opts.max_iters)
    screened = [_sweeps(mdp, opts, chunk, sweeps, True) for chunk in chunks]
    last = [trace[-1] for _, traces, _, _ in screened for trace in traces]
    low = min(last)
    win = next(i for i, v in enumerate(last) if v - low <= 1e-12 * abs(low))
    (stack, traces, iterations, _), row = screened[win // size], win % size
    return _solve_batch(mdp, opts, stack.take([row]), iters_used=iterations[row],
                        trace_prefix=traces[row])


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
    belief, nu, rho, log_phi, q = (
        iterate.belief, iterate.nu, iterate.rho, iterate.log_phi, iterate.policy
    )
    plan = mdp.sweep_plan(q.degree)

    def sup(diff, where=True):  # over the entries where holds
        return np.abs(diff).max(where=where, initial=0.0)

    terms = [sup(belief.mus[0] - mdp.initial.reshape(-1, 1))]
    for t in range(T):
        nxt = plan.push(t, belief.mus[t][..., None] * q.tables[t])
        terms.append(sup(belief.mus[t + 1] - nxt))
    fresh_nu = induced_action_marginals(mdp, q, belief)
    for t in range(T):
        mass = belief.mus[t].sum(axis=0) > MASS_TOL
        terms.append(sup(nu[t] - fresh_nu[t], mass[:, None]))
    terms.append(sup(log_phi[T] - plan.terminal_log_phi(beta)))
    for t in range(T - 1, -1, -1):
        terms.append(sup(rho[t] - plan.cost_to_go(t, log_phi[t + 1], beta)))
        lse, q_want = gibbs_step(nu[t][None], rho[t])
        terms.append(sup(log_phi[t] - lse))
        mask = belief.mus[t] > MASS_TOL
        terms.append(sup(q.tables[t] - q_want, mask[..., None]))
    return float(np.max(terms))


def residual_from_policy(
    mdp: FiniteMdp, policy: MemoryPolicy | PolicyStack, beta: float
) -> float | np.ndarray:
    """Stationarity residual of the iterate one sweep builds from a policy.

    Four of the five relations hold there by construction, so only the
    policy relation is measured: the stop test's gap between the policy and
    the tables of its own backward pass.  This equals ``stationarity_residual``
    of that iterate up to the roundoff of renormalizing the Gibbs tables.  A
    ``PolicyStack`` gives one residual per member, each its single call's.
    """
    gap = _certificate(mdp, policy, beta, *forward_pass(mdp, policy))
    return gap if gap.ndim else float(gap)


def _certificate(mdp, policy, beta, belief, nu):
    """``residual_from_policy`` given the policy's forward pass."""
    fresh = backward_pass(mdp, nu, beta, policy.degree)[2]
    return _policy_gap(belief.mus, policy.tables, fresh.tables)


@dataclass(frozen=True)
class ClassicalSolution:
    """Fixed point of the single-stage alternating iteration.

    Stacked priors give every field stacked on their batch axis.
    """

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

    Priors stacked as (N, Z) are solved in lockstep and give every field
    stacked on that axis.  Each member stops at its own stop (value change
    and policy gap over its massed states both below tol) and its numbers are
    those of solving it alone, bit for bit; a 1-d prior is a batch of one.
    """
    p = np.asarray(prior, dtype=float)
    c = np.asarray(cost, dtype=float)
    if p.ndim not in (1, 2) or c.ndim != 2 or c.shape[0] != p.shape[-1]:
        raise InstanceError(
            f"prior shape {p.shape} and cost shape {c.shape} are incompatible"
        )
    ps = p.reshape(-1, p.shape[-1])
    if not ((ps >= 0).all() and (np.abs(ps.sum(axis=1) - 1.0) <= 1e-9).all()):
        raise InstanceError("prior is not a probability distribution")
    check_beta(beta)
    scaled = c / beta
    n_u = c.shape[1]
    q = np.full((len(ps), *c.shape), 1.0 / n_u)
    out = q.copy()
    value = np.full(len(ps), math.inf)
    iterations = np.zeros(len(ps), dtype=int)
    converged = np.zeros(len(ps), dtype=bool)
    live = np.arange(len(ps))  # the member in each row of q
    pl, massed = ps[:, None, :], (ps > 0.0)[:, :, None]
    for k in range(1, max_iters + 1):
        log_phi, q_new = gibbs_step(pl @ q, scaled)
        q_new /= q_new.sum(axis=2, keepdims=True)
        # a zero-mass state's log partition may be NaN (c / beta overflows);
        # it carries no weight, so 0 * NaN must not reach the value
        log_phi = np.where(massed[:, :, 0], log_phi, 0.0)
        new_value = -beta * (pl @ log_phi[:, :, None])[:, 0, 0]
        gap = np.abs(q_new - q).max(axis=(1, 2), where=massed, initial=0.0)
        stop = (np.abs(new_value - value[live]) < tol) & (gap < tol)
        q, value[live] = q_new, new_value
        done = stop | (k == max_iters)
        if done.any():  # a member leaves the batch at its own stop
            out[live[done]], iterations[live[done]] = q[done], k
            converged[live[stop]] = True
            live, q, pl, massed = (a[~done] for a in (live, q, pl, massed))
            if not len(live):
                break
    out[ps == 0.0] = 1.0 / n_u
    marginal = (ps[:, None, :] @ out)[:, 0]
    if p.ndim == 1:
        return ClassicalSolution(out[0], marginal[0], float(value[0]),
                                 int(iterations[0]), bool(converged[0]))
    return ClassicalSolution(out, marginal, value, iterations, converged)


def free_energy(log_phi_first: np.ndarray, initial: np.ndarray, beta: float) -> float:
    """Optimal-cost readout from the first-stage log partition function.

    At a converged iterate, -beta * E[log phi_0(x_0)] equals the objective
    total.
    """
    lp = np.asarray(log_phi_first, dtype=float).reshape(len(initial), -1)[:, 0]
    return -beta * float(np.asarray(initial, dtype=float) @ lp)
