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
free energy -beta * E[log phi_0(x_0)], one stacked matmul.  Only the starts'
values are evaluated directly, by ``model.objective_rows``.  From the first
sweep ``_sweeps`` extrapolates the action marginals, the state of the
iteration: a SqS3 point is a marginals row, valued by the backward pass run
on it; every tenth sweep, Blahut's test holds vanishing actions out of it.

Both passes run on the ``SweepPlan`` that the ``FiniteMdp`` caches per
degree, whose kernels the sweeps call directly on one row of tables per
member (``SweepPlan.layout``), in the plan's per-thread workspace.  The
starts of a multi-start are swept as one batch; a member leaves it at its
own stop, and its numbers are bit for bit those of solving it alone.  A
solve is a batch of one.  One stacked final forward pass serves the batch's
certificate and, on rows, its cost, information and canonical policies.  A
policy is one tables row per member from its start, built on the reachable
states (``FiniteMdp.restriction``), to its report, the only ``MemoryPolicy``.
The stop test and the certificate measure the same residual: the sup-norm
change one backward pass makes to the policy where there is belief mass, or
Blahut's boundary term at held marginals where larger (``_residual``).

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
    CACHE_LOCK,
    DEFAULT_CELL_BUDGET,
    LOG_FLOOR,
    MARGINAL_FLOOR,
    FiniteMdp,
    Flow,
    MemoryPolicy,
    PolicyStack,
    ReducedBelief,
    canonical_rows,
    check_array,
    check_bool,
    check_count,
    check_distributions,
    check_finite,
    check_real,
    check_steps,
    check_type,
    cost_rows,
    gibbs_step,
    information_rows,
    log_marginals,
    objective_rows,
    perturbed_tables,
    uniform_tables,
    _bin_sums,
    _rows,
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
STEP_GROWTH = 4.0  # factor by which a SqS3 step bound moves
ACTIVE_EVERY = 10  # sweeps between a member's active-set checks
HOLD_BELOW = 1e-3  # a marginal below it whose multiplier is below 1 is held
HELD = 1e-200  # the mass of a held marginal; a released one gets HOLD_BELOW
HELD_LEVEL = 1e-150  # a marginal at or below it counts as held


@dataclass(frozen=True)
class SolveOptions:
    """Solve configuration.

    init is "uniform" or "perturbed"; perturbed starts need a seed.
    tol_objective is absolute, not relative to the total: trace roundoff
    reaches about 1.4e-11 at totals near 1e4, and a member reaches the
    tol_residual half of the stop test only on a sweep that passes this
    half, so at much larger totals a solve can sweep to max_iters with its
    policy gap below tol_residual.
    """

    beta: float
    degree: int = 0
    max_iters: int = 2000
    tol_objective: float = 1e-10
    tol_residual: float = 1e-8
    init: str = "uniform"
    seed: int | None = None

    def __post_init__(self) -> None:
        checked = {  # stored as Python numbers
            "beta": check_real("beta", self.beta),
            "degree": check_count("memory degree", self.degree, 0),
            "max_iters": check_count("max_iters", self.max_iters, 1),
            "tol_objective": check_real("tol_objective", self.tol_objective),
            "tol_residual": check_real("tol_residual", self.tol_residual),
        }
        if self.seed is not None:
            checked["seed"] = check_count("seed", self.seed, 0)
        for name, value in checked.items():
            object.__setattr__(self, name, value)
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
    mdp: FiniteMdp, policy: MemoryPolicy | PolicyStack
) -> tuple[ReducedBelief, list[np.ndarray]]:
    """Propagate beliefs under the policy and marginalize out the state.

    Zero-mass histories get uniform marginals, so the backward pass always
    sees strictly positive normalizers somewhere in each slice.  A
    ``PolicyStack`` gives beliefs and marginals stacked on its batch axis.
    """
    plan, _, flow, _ = _rows(mdp, policy)
    lay = plan.layout
    mus, nus = lay.beliefs.split(flow.mu), lay.marginals.split(flow.nu)
    return ReducedBelief(policy.degree, mus), list(nus)


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
    window is full; rho is broadcast over the dropped coordinate, on which it
    does not depend; a single policy's rho is computed after the recursion
    (``SweepPlan.backward_flat``).  Marginals stacked (K, H_t, U_t) give
    stacked log_phi, a ``PolicyStack`` and rho entries of None.  Marginals
    that are not T arrays of shape (H_t, U_t) past one shared batch shape
    raise InstanceError; a Gibbs normalizer that is not finite and positive
    raises NumericalError.
    """
    beta = check_real("beta", beta)
    plan = check_type("mdp", mdp, FiniteMdp).sweep_plan(degree)
    lay = plan.layout
    nu = check_steps(lay.marginals.shapes, nu, "marginal", mdp.horizon)
    log_phi, q = plan.backward_flat(lay.marginals.join(nu), beta)
    log_phi, stacked = list(lay.beliefs.split(log_phi)), nu[0].ndim == 3
    rho = [None if stacked else plan.rho_table(t, plan.cost_to_go(t, lp, beta))
           for t, lp in enumerate(log_phi[1:])]
    kind = PolicyStack if stacked else MemoryPolicy
    return rho, log_phi, kind(degree, lay.tables.split(q))


def solve(mdp: FiniteMdp, opts: SolveOptions) -> SolveReport:
    """Iterate forward and backward sweeps until the objective stalls.

    The objective trace records one value per sweep and is nonincreasing up
    to roundoff.  trace[0] is the start policy's objective F(q_0, nu_0);
    trace[k] = F(q_k, n_{k-1}) is the free energy of the backward pass that
    built q_k from the marginals n_{k-1}: those of q_{k-1}, or a SqS3 point
    extrapolated from them, from sweep 3 on, or with a moved active set (see
    ``_sweeps``).  The solve is declared converged once, on two consecutive
    sweeps clear of a kept point, consecutive objective values differ by
    less than tol_objective and the residual (``residual_from_policy``) is
    below tol_residual; the final iterate's residual is reported either way.
    """
    check_type("mdp", mdp, FiniteMdp)
    check_type("opts", opts, SolveOptions)
    mdp.sweep_plan(opts.degree)  # one policy over the budget raises here
    cut = mdp.restriction
    if opts.init == "uniform":
        tables = uniform_tables(cut.mdp, opts.degree)
    else:
        tables = perturbed_tables(mdp, opts.degree, opts.seed, states=cut.states)
    rows = cut.mdp.sweep_plan(opts.degree).layout.tables.join(tables)
    return _solve_batch(mdp, opts, rows[None])[0]


def _sweeps(
    mdp: FiniteMdp, opts: SolveOptions, rows: np.ndarray, max_iters: int
) -> tuple[list[list[float]], list[int], list[bool]]:
    """Sweep the start rows (K, ``layout.tables.size``) in lockstep, each
    until its own stop or max_iters.

    Writes each member's final row into ``rows`` in place and returns each
    start's trace, iterations and converged flag.  Sweep k records
    trace[k - 1]: the start's objective, then the free energy of sweep
    k - 1's backward pass.  A member leaves the stack at its own stop, so
    its numbers are its solo run's bit for bit.  A non-finite objective
    drops its start and all later ones; the earlier starts sweep on, and the
    earliest failure is raised, as when starts are swept one at a time.  The
    callers build the rows valid, at the plan's shapes.

    The marginals map nu -> nu(Gibbs(nu)) is extrapolated as in
    ``classical_blahut``: each sweep logs its forward pass's marginals, and
    on every third log, the first on sweep 3, each member takes a SqS3 point
    (``_squarem``) of its last three, each one row of the plan's ``layout``,
    so that one step length serves its T marginals (``_Cycle``).  That
    sweep's backward pass runs on the points, and its free energy is each
    point's value F(Gibbs(nu_p), nu_p).  A member keeps its point if that
    value is no higher than its last trace value, so the trace still
    descends; otherwise a second backward pass runs on its plain marginals,
    as if no point had been tried.  A member may not stop on the sweep of a
    kept point or the next one, and it stops only when the stop test passes
    on two consecutive sweeps outside that wait; a pass during the wait ends
    its extrapolation.

    Every ACTIVE_EVERY sweeps but a member's last, ``_Cycle.check`` moves
    vanishing marginals out of its active set and back by Blahut's test; a
    move is judged as a point is, by one trial backward pass, and a kept
    one is logged as the member's set iterates, so that no step sees a jump.
    """
    plan = mdp.sweep_plan(opts.degree)
    layout = plan.layout
    q = rows  # the live members' tables; no pass writes into it
    count = len(q)
    traces = [[] for _ in range(count)]
    iterations, converged = [0] * count, [False] * count
    live = list(range(count))  # the start swept in each row
    # per row: SqS3 step bound (0 once the member takes no more points), the
    # last sweep it may not stop on, and the last sweep its stop test passed
    bound, wait, passed_at = [1.0] * count, [0] * count, [0] * count
    cycle, error, k = _Cycle(plan, count), None, 0

    def free(log_phi):  # -beta E log phi_0(x_0) per row: free_energy's bits
        first = log_phi[:, None, :len(mdp.initial)]
        return (-opts.beta * (first @ mdp.initial[:, None])[:, 0, 0]).tolist()

    while live and k < max_iters:
        k += 1
        flow = plan.forward_flat(q)
        if k == 1:
            log_q = np.log(q, out=np.full_like(q, -np.inf), where=q > 0.0)
            values = objective_rows(mdp, layout, opts.beta, plan.lam(len(q)), log_q,
                                    flow).tolist()
        tested = []  # rows that pass the objective test, which comes first
        for row, i in enumerate(live):
            tr = traces[i]
            tr.append(values[row])
            if not math.isfinite(values[row]):
                error = NumericalError(f"non-finite objective at iteration {k}")
                live, q, flow = live[:row], q[:row], Flow(*(x[:row] for x in flow))
                bound, wait, passed_at = bound[:row], wait[:row], passed_at[:row]
                break
            if len(tr) > 1 and abs(tr[-2] - tr[-1]) < opts.tol_objective:
                tested.append(row)
        if not live:
            break
        point = None  # the marginals to sweep and the steps, on a SqS3 sweep
        if any(bound):
            point = cycle.add(flow, bound)
        # only the tested members' old tables outlive the backward pass
        old, q = q[tested] if tested else None, None
        log_phi, q = plan.backward_flat(flow.nu if point is None else point[0], opts.beta)
        values = free(log_phi)
        if point is not None:  # judge the points by their own free energy
            kept = [b > 0.0 and v <= traces[i][-1] for b, v, i in zip(bound, values, live)]
            dropped = [r for r, b in enumerate(bound) if b > 0.0 and not kept[r]]
            if dropped:  # these sweep their plain marginals
                log_phi, q[dropped] = plan.backward_flat(flow.nu[dropped], opts.beta)
                for r, v in zip(dropped, free(log_phi)):
                    values[r] = v
            bound = _step_bound(bound, point[1], kept)
            wait = [k + 1 if kp else h for h, kp in zip(wait, kept)]
            cycle.restart(kept)
        elif k % ACTIVE_EVERY == 0 and k < max_iters and flow.nu.min() < HOLD_BELOW:
            trial, changed = cycle.check(flow, q)
            moved = np.flatnonzero(changed.any(axis=-1)).tolist()
            if moved:  # judged as a point is, by its own free energy
                log_phi, new = plan.backward_flat(trial[moved], opts.beta)
                keep = []
                for j, (r, v) in enumerate(zip(moved, free(log_phi))):
                    if v <= traces[live[r]][-1]:
                        q[r], values[r], keep = new[j], v, keep + [r]
                x = np.log(np.maximum(trial[keep], MARGINAL_FLOOR))  # kept moves, logged
                for j, log in enumerate(cycle.logs[:cycle.filled], 1 - cycle.filled):
                    log[keep] = np.where(changed[keep], x, log[keep]) if j else x  # x1 whole
        stops = []
        if tested:
            gaps = _residual(layout, flow.mu[tested], old, q[tested], flow.nu[tested],
                             opts.tol_residual)
            # a member stops on the second of two passing sweeps after its
            # wait; one that passes during it takes no more points
            for row in (r for r, gap in zip(tested, gaps.tolist()) if gap < opts.tol_residual):
                if wait[row] < k - 1 == passed_at[row]:
                    stops.append(row)
                passed_at[row] = k
                if k <= wait[row]:
                    bound[row] = 0.0
        if stops or k == max_iters:
            stay = [r for r in range(len(live)) if r not in stops and k < max_iters]
            gone = [r for r in range(len(live)) if r not in stay]
            ids = [live[r] for r in gone]
            rows[ids] = q[gone]
            for r, i in zip(gone, ids):
                iterations[i], converged[i] = k, r in stops
            live, values, q = [live[r] for r in stay], [values[r] for r in stay], q[stay]
            bound, wait, passed_at = ([x[r] for r in stay] for x in (bound, wait, passed_at))
            for x in cycle.logs[:cycle.filled]:  # the set iterates
                x[:len(stay)] = x[stay]
    if error is not None:
        raise error
    return traces, iterations, converged


class _Cycle:
    """The SqS3 cycle of ``_sweeps`` on marginals rows for a stack of up to
    cap members, built before the first sweep: the log iterates x0, x1, x2
    (the first ``filled`` set), r and v, and the point and its marginals,
    which hold the step's products first; ``starts`` and ``lengths`` locate
    the (t, h) segments of U_t entries.  Only the active set is extrapolated:
    a held marginal, or one of a history without mass, keeps x2."""

    def __init__(self, plan, cap) -> None:
        lay = self.layout = plan.layout
        self.lengths = np.bincount(lay.history_of)
        self.starts = np.cumsum(self.lengths) - self.lengths
        n, self.filled = lay.marginals.size, 0
        self.logs, self.pair, self.out = (np.empty((c, cap, n)) for c in (3, 2, 2))
        self.logs, (self.point, self.marginals) = list(self.logs), self.out
        self.top, self.lse = np.empty((2, cap, len(self.starts)))  # per segment

    def add(self, flow, bound):
        """Log flow's marginals rows as the next iterate; on the third, return
        the rows to sweep (the point, floored and renormalized per segment,
        as marginals where the bound is positive, else flow's row) and the steps."""
        k, nu = len(flow.nu), flow.nu
        x = self.logs[self.filled][:k]
        np.log(np.maximum(nu, MARGINAL_FLOOR, out=x), out=x)
        self.filled += 1
        if self.filled < 3:
            return None
        out = x <= math.log(HELD_LEVEL)
        if flow.mu.min() <= MASS_TOL:  # else every history has mass
            out |= _history_mass(self.layout, flow.mu) <= MASS_TOL
        if out.any():  # x0 = x1 = x2 outside the active set
            for log in self.logs[:2]:
                np.copyto(log[:k], x, where=out)
        x, alpha = _squarem(*(log[:k] for log in self.logs), bound,
                            (self.point[:k], self.pair[:, :k], self.out[:, :k]))
        top, lse, e = self.top[:k], self.lse[:k], self.marginals[:k]
        np.maximum(x, LOG_FLOOR, out=x)
        np.maximum.reduceat(x, self.starts, axis=-1, out=top)
        np.exp(np.subtract(x, top.repeat(self.lengths, axis=-1), out=e), out=e)
        np.log(np.add.reduceat(e, self.starts, axis=-1, out=lse), out=lse)
        np.subtract(x, np.add(top, lse, out=lse).repeat(self.lengths, axis=-1), out=x)
        marginals = np.exp(x, out=self.marginals[:k])
        for r in (r for r, b in enumerate(bound) if not b > 0.0):
            marginals[r] = nu[r]
        return marginals, alpha

    def check(self, flow, q):
        """Trial marginals rows for a sweep that built tables rows q from
        flow's, and where they changed: in histories with mass, a marginal
        below HOLD_BELOW with multiplier below 1 is held at HELD, a held one
        with multiplier above 1 released at HOLD_BELOW, segments renormalized."""
        mu, nu = flow
        s, held = _multipliers(self.layout, mu, q, nu), (nu > 0.0) & (nu <= HELD_LEVEL)
        hold = (nu < HOLD_BELOW) & (s < 1.0) & ~held
        changed = (hold | held & (s > 1.0)) & (_history_mass(self.layout, mu) > MASS_TOL)
        trial = np.where(changed, np.where(hold, HELD, HOLD_BELOW), nu)
        trial /= np.add.reduceat(trial, self.starts, axis=-1).repeat(self.lengths, axis=-1)
        return trial, changed

    def restart(self, kept) -> None:
        """Start the next cycle at x0: the point where kept, else x2."""
        x0 = self.logs[2]
        for r in (r for r, kp in enumerate(kept) if kp):
            x0[r] = self.point[r]
        self.logs, self.filled = [x0, *self.logs[:2]], 1


def _solve_batch(
    mdp: FiniteMdp,
    opts: SolveOptions,
    rows: np.ndarray,
    iters_used: int = 0,
    trace_prefix: Sequence[float] = (),
) -> list[SolveReport]:
    """Sweep the start rows, on the reachable states, as one batch, then
    report on each, its policy at the instance's shapes (see multi_start)."""
    start = time.perf_counter()
    cut = mdp.restriction
    traces, iterations, converged = _sweeps(cut.mdp, opts, rows, opts.max_iters - iters_used)
    # canonicalizing only rewrites massless slices, so the swept policies'
    # functionals and certificate are the final policies', bit for bit; lam
    # is read before the certificate's backward pass overwrites it
    plan = cut.mdp.sweep_plan(opts.degree)
    lay = plan.layout
    flow = plan.forward_flat(rows)
    lam = plan.lam(len(rows))
    costs = cost_rows(cut.mdp, lay, lam, flow.mu).tolist()
    infos = information_rows(lay, lam, rows, flow.nu).sum(axis=-1).tolist()
    finals = lay.tables.split(canonical_rows(lay, rows, flow.mu))
    residuals = _certificate(plan, rows, opts.beta, flow).tolist()
    seconds = time.perf_counter() - start
    return [
        SolveReport(
            policy=MemoryPolicy(opts.degree, cut.widen([q[i] for q in finals])),
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
    (alternative routes) into the start set.  Deterministic, cached per degree.
    """
    check_count("plan start count", count, 0)
    plan = check_type("mdp", mdp, FiniteMdp).sweep_plan(degree)
    return [MemoryPolicy(degree, _plan_tables(plan, actions))
            for actions in _plan_actions(mdp, degree, count)]


def _plan_tables(plan, actions) -> tuple[np.ndarray, ...]:
    """A plan start's tables at a plan's shapes, PLAN_MIX on each greedy action."""
    tables = []
    for s, greedy in zip(plan.steps, actions):
        q = np.full(s.shape, (1.0 - PLAN_MIX) / s.shape[2])
        q[np.arange(len(q)), :, greedy] += PLAN_MIX
        tables.append(q)
    return tuple(tables)


def _plan_actions(mdp: FiniteMdp, degree: int, count: int) -> list[tuple]:
    """Greedy actions per step of the first ``count`` plan starts, cached per
    degree and grown on demand: plan k + 1 reads plans 1..k only through their
    penalties.  The DP runs on the full instance (a cut one breaks argmin ties
    differently); the beliefs that set the penalties run on the reachable rows."""
    plans = mdp._cache.get(("starts", degree), ())
    if len(plans) >= count:  # a hit takes no lock
        return list(plans[:count])
    with CACHE_LOCK:  # a miss: threads that start on a fresh instance grow them once
        plans = list(mdp._cache.get(("starts", degree), ()))
        cut = mdp.restriction
        plan = cut.mdp.sweep_plan(degree)
        lay = plan.layout
        scale = max(1.0, max(float(np.abs(c).max()) for c in mdp.stage_costs))
        penalties = [np.zeros(c.shape[0]) for c in mdp.stage_costs]
        for k in range(count):
            if k == len(plans):
                costs = [c + p[:, None] for c, p in zip(mdp.stage_costs, penalties)]
                plans.append(tuple(backward_induction(mdp, costs)[0]))
            if k + 1 == count:  # no further plan reads the penalties
                break
            start = lay.tables.join(_plan_tables(plan, map(np.take, plans[k], cut.states)))
            mus = lay.beliefs.split(plan.forward_flat(start).mu)
            for t, mu in enumerate(mus[:-1]):
                penalties[t][cut.states[t]] += 2.0 * scale * (mu.sum(axis=1) > 1e-3)
        mdp._cache[("starts", degree)] = tuple(plans)
    return plans[:count]  # another thread may have grown them further


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
    Starts are built and swept at their reachable rows, with the values of
    the instance-shape starts there; reports are uniform at unreachable rows.
    """
    check_type("mdp", mdp, FiniteMdp)
    check_type("opts", opts, SolveOptions)
    for name, n in (("starts", starts), ("plan_starts", plan_starts), ("seed", seed)):
        check_count(name, n, 0)
    if screen_iters is not None:
        check_count("screen_iters", screen_iters, 1)
    include_uniform = check_bool("include_uniform", include_uniform)
    count = starts + include_uniform + plan_starts
    if count < 1:
        raise InstanceError("multi-start needs a start")
    mdp.sweep_plan(opts.degree)  # one policy over the budget raises here
    cut = mdp.restriction
    plan = cut.mdp.sweep_plan(opts.degree)
    size = max(1, DEFAULT_CELL_BUDGET // plan.cells)
    rng = np.random.default_rng(seed)
    start_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=starts)]
    # starts built valid need no check, at their reachable rows
    inits = [uniform_tables(cut.mdp, opts.degree)] if include_uniform else []
    inits.extend(_plan_tables(plan, map(np.take, actions, cut.states))
                 for actions in _plan_actions(mdp, opts.degree, plan_starts))
    inits.extend(perturbed_tables(mdp, opts.degree, s, states=cut.states)
                 for s in start_seeds)
    inits = [plan.layout.tables.join(tables) for tables in inits]
    chunks = [np.stack(inits[i:i + size]) for i in range(0, count, size)]
    del inits  # the chunks hold the starts, and then their final tables
    if screen_iters is None:
        return [r for chunk in chunks for r in _solve_batch(mdp, opts, chunk)]
    sweeps = min(screen_iters, opts.max_iters)
    screened = [_sweeps(cut.mdp, opts, chunk, sweeps) for chunk in chunks]
    last = [trace[-1] for traces, _, _ in screened for trace in traces]
    low = min(last)
    win = next(i for i, v in enumerate(last) if v - low <= 1e-12 * abs(low))
    (traces, iterations, _), row = screened[win // size], win % size
    return _solve_batch(mdp, opts, chunks[win // size][[row]],
                        iters_used=iterations[row], trace_prefix=traces[row])


def stationarity_residual(
    mdp: FiniteMdp, iterate: SolverIterate, beta: float
) -> float:
    """Max sup-norm violation of the five stationarity relations.

    The belief recursion and the cost-to-go relations are checked everywhere;
    the marginal relation and the policy relation only where the relevant
    belief mass exceeds 1e-12 (they are only pinned down almost everywhere).
    Returns 0 at an exact fixed point.  Arrays of other shapes than the
    instance's at the policy's degree, or a bad beta, raise InstanceError.
    """
    beta = check_real("beta", beta)
    check_type("iterate", iterate, SolverIterate)
    plan, _, flow, lam = _rows(mdp, iterate.policy, iterate.belief, stacks=False)
    lay, T = plan.layout, mdp.horizon
    nu = check_steps(lay.marginals.shapes, iterate.nu, "marginal", T, ())
    rho = check_steps(lay.tables.shapes, iterate.rho, "rho", T, ())
    log_phi = check_steps(lay.beliefs.shapes, iterate.log_phi, "log phi", T, ())
    mus, fresh_nu = lay.beliefs.split(flow.mu), lay.marginals.split(flow.nu)

    def sup(diff, where=True):  # over the entries where holds
        return np.abs(diff).max(where=where, initial=0.0)

    terms = [sup(flow.mu - plan.pushed(lam))]  # mu_0 = initial, mu_t+1 = push(lam_t)
    for t in range(T):
        mass = mus[t].sum(axis=0) > MASS_TOL
        terms.append(sup(nu[t] - fresh_nu[t], mass[:, None]))
    terms.append(sup(log_phi[T] - plan.scaled(beta)[1]))
    for t in range(T - 1, -1, -1):
        r = plan.cost_to_go(t, log_phi[t + 1], beta)
        terms.append(sup(rho[t] - plan.rho_table(t, r)))
        z = (log_marginals(nu[t]).swapaxes(-1, -2)[..., None, :]
             - np.moveaxis(rho[t], -1, -3))
        lse, q_want = gibbs_step(z)
        terms.append(sup(log_phi[t] - lse))
        mask = mus[t] > MASS_TOL
        terms.append(sup(iterate.policy.tables[t] - q_want, mask[..., None]))
    return float(np.max(terms))


def residual_from_policy(
    mdp: FiniteMdp, policy: MemoryPolicy | PolicyStack, beta: float
) -> float | np.ndarray:
    """Stationarity residual of the iterate one sweep builds from a policy.

    Four of the five relations hold there by construction, so only the
    policy relation is measured, as the stop test measures it (``_residual``):
    the gap to the tables of its own backward pass, which equals
    ``stationarity_residual`` of that iterate up to roundoff, or Blahut's
    boundary term at marginals of at most 1e-150 where larger.  A
    ``PolicyStack`` gives one residual per member, each its single call's.
    """
    beta = check_real("beta", beta)
    plan, q, flow, _ = _rows(mdp, policy)
    gap = _certificate(plan, q, beta, flow)
    return gap if gap.ndim else float(gap)


def _certificate(plan, q, beta, flow):
    """``residual_from_policy``, gap and boundary term, of tables rows q and their flow."""
    fresh = plan.backward_flat(flow.nu, beta)[1]
    return _residual(plan.layout, flow.mu, q, fresh, flow.nu)


def _history_mass(layout, mu):
    """Each marginals entry's history mass, sum_x mu_t(x, h), of beliefs rows mu."""
    at = layout.bin_of[layout.tables.size:] - layout.marginals.size  # (t, h), or T
    return _bin_sums(at, mu, layout.histories + 1, layout.offsets).take(layout.history_of, -1)


def _multipliers(layout, mu, q, nu):
    """Blahut's multipliers s = nu-hat / nu of marginals rows nu, whose Gibbs
    tables rows are q, under beliefs rows mu: nu-hat is the action marginal
    of mu q, and nu is floored as the backward pass reads it."""
    hat = layout.action_marginals(np.concatenate([mu.take(layout.row_of, -1) * q, mu], -1))
    return np.divide(hat, np.maximum(nu, MARGINAL_FLOOR), out=hat)


def _residual(layout, mu, old, new, nu, below=math.inf):
    """The stop test's and the certificate's residual of tables rows old,
    whose marginals rows nu under beliefs rows mu give Gibbs tables rows new:
    the policy gap, the sup-norm change over (t, x, h) with mass, or where
    larger and the gap is below ``below``, Blahut's boundary term
    max(0, s - 1) over held marginals of histories with mass, per member."""
    gap = np.maximum.reduce(np.abs(old - new), axis=-1, initial=0.0,
                            where=mu.take(layout.row_of, axis=-1) > MASS_TOL)
    if nu.min() <= HELD_LEVEL and (gap < below).any():  # else the gap's bits
        held = (nu > 0.0) & (nu <= HELD_LEVEL) & (gap < below)[..., None]
        held &= _history_mass(layout, mu) > MASS_TOL
        s = _multipliers(layout, mu, new, nu)
        gap = np.maximum(gap, np.maximum.reduce(s, -1, where=held, initial=1.0) - 1.0)
    return gap


@dataclass(frozen=True)
class ClassicalSolution:
    """Optimum of the single-stage problem, with its certified gap.

    value - gap <= optimum <= value; converged means that the gap is
    certified (see ``classical_blahut``), and iterations counts map
    evaluations.  Stacked priors give every field stacked on their batch axis.
    """

    policy: np.ndarray
    marginal: np.ndarray
    value: float
    gap: float
    iterations: int
    converged: bool


def _log_normalize(x: np.ndarray) -> np.ndarray:
    """Floor log-probabilities at LOG_FLOOR, then renormalize the last axis."""
    x = np.maximum(x, LOG_FLOOR)
    top = x.max(axis=-1, keepdims=True)
    return x - (top + np.log(np.exp(x - top).sum(axis=-1, keepdims=True)))


def _squarem(x0, x1, x2, bound, out=None) -> tuple[np.ndarray, list[float]]:
    """SqS3 extrapolation (Varadhan & Roland 2008) of stacked log-iterates.

    x1 = F(x0) and x2 = F(x1) for a fixed-point map F, one row per member: a
    marginal, or all its T marginals laid end to end in one row, so that one
    step length serves them all.  With r = x1 - x0 and v = x2 - 2 x1 + x0,
    each member takes its own step length alpha = -|r| / |v|, clipped to
    [-bound, -1] (-1 gives x2 itself), to the point x0 - 2 alpha r + alpha^2
    v.  Returns the points, which the caller floors and renormalizes, and
    the |alpha|, Python floats as ``bound``.  ``out`` holds (points, (r, v),
    two product rows, of which the first may be the points' own).
    """
    point, rv, prod = out or (np.empty_like(x0), *np.empty((2, 2, *x0.shape)))
    np.subtract(x1, x0, out=rv[0])
    np.subtract(np.subtract(x2, x1, out=rv[1]), rv[0], out=rv[1])
    rr, vv = np.add.reduce(np.multiply(rv, rv, out=prod), axis=-1).tolist()
    # |alpha| by numpy's IEEE rules: 0 / 0 is NaN (step 1), r / 0 infinite
    alpha = [math.sqrt(a / b if b else math.inf if a > 0.0 else math.nan)
             for a, b in zip(rr, vv)]
    alpha = [1.0 if a != a else max(min(a, b), 1.0) for a, b in zip(alpha, bound)]
    coef = np.array([[-2.0 * a for a in alpha], [a * a for a in alpha]])
    np.multiply(rv, coef[:, :, None], out=prod)
    np.add(np.subtract(x0, prod[0], out=point), prod[1], out=point)
    return point, alpha


def _step_bound(bound, alpha, kept) -> list[float]:
    """SqS3 step bounds after judging the points: a kept point taken at its
    bound multiplies the bound by STEP_GROWTH, a dropped one sets it to
    max(1, |alpha| / STEP_GROWTH), and a bound of 0 (no point tried) stays."""
    return [(STEP_GROWTH * b if a == b else b) if k
            else max(1.0, a / STEP_GROWTH) if b > 0.0 else b
            for b, a, k in zip(bound, alpha, kept)]


def _blahut_map(x, pl, scaled, massed, beta):
    """The Blahut map at stacked log-marginals x (K, U): the value, certified
    gap, image and Gibbs policy of each row.

    With log phi from ``gibbs_step`` and s(u) = sum_x p(x) exp(-c(x, u) /
    beta - log phi(x)), the value is -beta E log phi, the gap beta log max_u
    s (Blahut's bound) and the image log r + log s, floored and
    renormalized.  s is not computed as a ratio to r(u), so an action at the
    floor still counts toward the max.  A zero-mass state's log partition
    may be NaN (c / beta overflows); it carries no weight and is masked out.
    """
    z = log_marginals(np.exp(x))[:, :, None, None] - scaled.T[:, :, None]
    log_phi, q = gibbs_step(z)
    log_phi = np.where(massed, log_phi[..., 0], 0.0)
    value = -beta * (pl @ log_phi[:, :, None])[:, 0, 0]
    ratio = np.where(massed[:, :, None], np.exp(-scaled - log_phi[:, :, None]), 0.0)
    s = (pl @ ratio)[:, 0]
    gap = beta * np.log(s.max(axis=1))
    log_s = np.log(s, out=np.full_like(s, -np.inf), where=s > 0.0)
    return value, gap, _log_normalize(x + log_s), q[:, :, 0]


def classical_blahut(
    prior: np.ndarray,
    cost: np.ndarray,
    beta: float = 1.0,
    tol: float = 1e-12,
    max_iters: int = 100_000,
) -> ClassicalSolution:
    """Single-stage minimization of E c + beta * I(X; U), with a certified gap.

    The problem is convex in the action marginal r: the Blahut map
    r(u) <- r(u) s_r(u) (``_blahut_map``) descends the value
    V(r) = -beta sum_x p(x) log phi_r(x) to the global optimum, and
    V(r) - beta log max_u s_r(u) <= optimum (Blahut 1972).  Each member
    iterates on log r from the uniform marginal.  After two plain maps it
    tries a SqS3 point (``_squarem``) and judges it in the step that
    evaluates it: a point whose value is higher than the last plain
    iterate's is dropped for the plain double step, which the member
    evaluates in the same step, and its step bound shrinks to a quarter of
    its step (a step taken at the bound quadruples it).  A member stops at
    the first point after the start whose gap is at most tol, or at most
    2 beta eps (two ulps of s, all that float64 resolves), and returns that
    point's Gibbs policy, its action marginal, V(r) in unscaled units and the
    gap: value - gap <= optimum <= value.  A member the cap stops has
    converged False and returns the lowest-valued point of its run, with that
    point's gap.  iterations counts map evaluations.

    Priors stacked as (N, Z) are solved in lockstep and give every field
    stacked on that axis; each member's numbers are those of solving it
    alone, bit for bit.  A 1-d prior is a batch of one.
    """
    p, c = check_array("prior", prior), check_array("cost", cost)
    if p.ndim not in (1, 2) or c.ndim != 2 or c.shape[0] != p.shape[-1] or not c.size:
        raise InstanceError(
            f"prior shape {p.shape} and cost shape {c.shape} are incompatible"
        )
    ps = p.reshape(-1, p.shape[-1])
    check_distributions("prior", ps, ("x",), tol=1e-9)
    check_finite("cost", c, ("x", "u"))
    beta = check_real("beta", beta)
    max_iters = check_count("max_iters", max_iters, 1)
    tol = check_real("tol", tol)
    scaled = c / beta
    stop_tol = max(tol, 2.0 * beta * np.finfo(float).eps)
    count, n_u = len(ps), c.shape[1]
    out = np.empty((count, *c.shape))
    value, gap = np.empty(count), np.empty(count)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    pl, massed = ps[:, None, :], ps > 0.0
    # Odd steps evaluate the x0 that starts a cycle (the uniform marginal at
    # first, then the point judged there); even steps evaluate x1 = F(x0),
    # with value v1, and build the next point from x0, x1 and x2 = F(x1).
    x = np.full((count, n_u), -math.log(n_u))
    x0, x2, v1 = x, x, np.full(count, math.inf)
    bound, alpha = [1.0] * count, [1.0] * count  # step bound, last |alpha|
    best, best_x = np.full(count, math.inf), x.copy()  # lowest value, its point
    live = np.arange(count)  # the member in each row of the state
    for k in range(1, max_iters + 1):
        val, g, fx, q = _blahut_map(x, pl, scaled, massed, beta)
        iterations[live] += 1
        lower = val < best
        best[lower], best_x[lower] = val[lower], x[lower]
        if k % 2 and k > 1:  # x is a SqS3 point
            kept = val <= v1
            bound = _step_bound(bound, alpha, kept.tolist())
            fall = ~kept & ~(g <= stop_tol) & (iterations[live] < max_iters)
            if fall.any():  # x2 replaces the dropped points in this step
                x[fall] = x2[fall]
                val[fall], g[fall], fx[fall], q[fall] = _blahut_map(
                    x2[fall], pl[fall], scaled, massed[fall], beta
                )
                iterations[live[fall]] += 1
                lower = val < best
                best[lower], best_x[lower] = val[lower], x[lower]
        stop = (g <= stop_tol) & (k > 1)
        done = stop | (iterations[live] == max_iters)
        cap = done & ~stop
        if cap.any():  # the capped return their best
            val[cap], g[cap], _, q[cap] = _blahut_map(
                best_x[cap], pl[cap], scaled, massed[cap], beta
            )
        if done.any():  # a member leaves the batch at its own stop
            rows = live[done]
            out[rows] = q[done]
            value[rows], gap[rows] = val[done], g[done]
            converged[rows] = stop[done]
            if done.all():
                break
            bound, alpha = ([b for b, d in zip(a, done) if not d] for a in (bound, alpha))
            live, pl, massed, x, fx, val, x0, x2, v1, best, best_x = (a[~done] for a in (
                live, pl, massed, x, fx, val, x0, x2, v1, best, best_x))
        if k % 2:
            x0, x = x, fx
        else:
            x2, v1 = fx, val
            x, alpha = _squarem(x0, x, fx, bound)
            x = _log_normalize(x)
    out[ps == 0.0] = 1.0 / n_u
    marginal = (ps[:, None, :] @ out)[:, 0]
    if p.ndim == 1:
        return ClassicalSolution(out[0], marginal[0], float(value[0]), float(gap[0]),
                                 int(iterations[0]), bool(converged[0]))
    return ClassicalSolution(out, marginal, value, gap, iterations, converged)


def free_energy(log_phi_first: np.ndarray, initial: np.ndarray, beta: float) -> float:
    """Optimal-cost readout from the first-stage log partition function.

    At a converged iterate, -beta * E[log phi_0(x_0)] equals the objective
    total.  log_phi_first is (X_0,) or (X_0, H_0), initial (X_0,).
    """
    beta = check_real("beta", beta)
    p, lp = check_array("initial", initial), check_array("log_phi_first", log_phi_first)
    if lp.shape[:1] != p.shape or not 0 < lp.ndim <= 2 or not lp.size:
        raise InstanceError(f"log_phi_first {lp.shape} does not match initial {p.shape}")
    return -beta * float(p @ lp.reshape(len(p), -1)[:, 0])
