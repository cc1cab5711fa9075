"""Sweep workspaces: the per-thread rows and per-step views of a plan's passes.

Property tests over random horizons, state and action counts, degrees 0-2
and stack heights: the workspace's rows equal the reference path, a
returned row outlives later passes, members of a stack whose height changes
stay bit for bit their solo runs, no sweep re-splits a row after its
first sweep, and the SqS3 cycle on its preallocated marginals rows gives the
numbers of the reference cycle (``reference.squarem`` and the rest).  Then threads
that share one instance must reproduce sequential runs bit for bit, and
build each of its caches once; an instance still pickles and copies.
"""

import copy
import pickle
import sys
import threading

import numpy as np
from hypothesis import given, settings, strategies as st

import termdp as td
from termdp import oracle, solver
from termdp.model import FiniteMdp, Flow, Space, SweepPlan
from termdp.solver import PolicyStack, residual_from_policy

import reference
from reference import (
    edge_marginals,
    enum_beliefs_and_marginals,
    loop_backward,
    reachable_rows,
)

TOL = 1e-12  # as the plan's kernel tests

CASES = st.fixed_dictionaries({
    "horizon": st.integers(1, 3),
    "states": st.integers(1, 3),
    "actions": st.integers(2, 3),
    "degree": st.integers(0, 2),
    "k": st.integers(1, 4),
    "beta": st.floats(0.2, 5.0),
    "seed": st.integers(0, 2**32 - 1),
})


def _draw(case):
    """The case's instance and k random policies at its degree."""
    rng = np.random.default_rng(case["seed"])
    mdp = oracle.random_mdp(rng, case["horizon"], case["states"], case["actions"],
                            min_states=1, min_actions=2)
    pols = [oracle.random_policy(rng, mdp, case["degree"]) for _ in range(case["k"])]
    return mdp, pols


def _rows(plan, pols):
    return np.stack([plan.layout.tables.join(p.tables) for p in pols])


@settings(max_examples=40, deadline=None)
@given(case=CASES)
def test_workspace_rows_equal_the_reference_path(case):
    # the stack first, then each member alone on the stack's buffers: every
    # row equals the enumeration and the scalar backward loop, and the solo
    # rows are the stack's bit for bit
    mdp, pols = _draw(case)
    plan, beta = mdp.sweep_plan(case["degree"]), case["beta"]
    lay = plan.layout
    flow = plan.forward_flat(_rows(plan, pols))
    log_phi, q = plan.backward_flat(flow.nu, beta)
    for i, pol in enumerate(pols):
        solo = plan.forward_flat(lay.tables.join(pol.tables))
        solo_log_phi, solo_q = plan.backward_flat(solo.nu, beta)
        for got, want in [(flow.mu[i], solo.mu), (flow.nu[i], solo.nu),
                          (log_phi[i], solo_log_phi), (q[i], solo_q)]:
            assert np.array_equal(got, want)
        mus, nus = enum_beliefs_and_marginals(mdp, pol)
        want_log_phi, want_q = loop_backward(
            mdp, lay.marginals.split(flow.nu[i]), beta, case["degree"])
        for got, want in [(lay.beliefs.split(flow.mu[i]), mus),
                          (lay.marginals.split(flow.nu[i]), nus),
                          (lay.beliefs.split(log_phi[i]), want_log_phi),
                          (lay.tables.split(q[i]), want_q)]:
            assert len(got) == len(want)
            assert all(np.abs(a - b).max() <= TOL for a, b in zip(got, want))


@settings(max_examples=40, deadline=None)
@given(case=CASES, kind=st.sampled_from(["zeros", "penalty", "massless"]),
       k=st.integers(1, 6))
def test_backward_edge_cases_equal_the_reference_path(case, kind, k):
    # marginals with exact zeros, massless histories or a terminal penalty
    # that puts log phi near -1e3 (see reference.edge_marginals), stacked
    # k = 1..6 high: every member is its solo pass bit for bit, within TOL
    # (relative above 1) of the scalar backward loop, with a policy entry of
    # exactly 0 wherever its marginal is 0
    mdp, _ = _draw(case)
    mdp, nus = edge_marginals(np.random.default_rng(case["seed"]), mdp,
                              case["degree"], kind, k)
    plan, beta = mdp.sweep_plan(case["degree"]), case["beta"]
    lay = plan.layout
    log_phi, q = plan.backward_flat(np.stack([lay.marginals.join(nu) for nu in nus]), beta)
    for i, nu in enumerate(nus):
        solo_log_phi, solo_q = plan.backward_flat(lay.marginals.join(nu), beta)
        assert np.array_equal(log_phi[i], solo_log_phi) and np.array_equal(q[i], solo_q)
        want_log_phi, want_q = loop_backward(mdp, nu, beta, case["degree"])
        for got, want in [*zip(lay.beliefs.split(log_phi[i]), want_log_phi),
                          *zip(lay.tables.split(q[i]), want_q)]:
            assert np.all(np.abs(got - want) <= TOL * np.maximum(1.0, np.abs(want)))
        for got, n in zip(lay.tables.split(q[i]), nu):
            assert np.array_equal(got == 0.0, np.broadcast_to(n == 0.0, got.shape))


@settings(max_examples=30, deadline=None)
@given(case=CASES)
def test_returned_rows_outlive_later_passes(case):
    # hold the first passes' rows, run passes on other policies at the same
    # height and at height 1, and find the held rows, and the input rows,
    # unchanged
    mdp, pols = _draw(case)
    plan, beta = mdp.sweep_plan(case["degree"]), case["beta"]
    rows = _rows(plan, pols)
    flow = plan.forward_flat(rows)
    log_phi, q = plan.backward_flat(flow.nu, beta)
    held = [a.copy() for a in (rows, *flow, log_phi, q)]
    others = _rows(plan, [oracle.random_policy(np.random.default_rng(i), mdp,
                                               case["degree"]) for i in range(len(pols))])
    for other in (others, others[:1], others[0]):
        plan.backward_flat(plan.forward_flat(other).nu, 2.0 * beta)
    assert all(np.array_equal(a, b) for a, b in zip((rows, *flow, log_phi, q), held))


@settings(max_examples=15, deadline=None)
@given(case=CASES)
def test_members_of_a_changing_stack_equal_their_solo_runs(case):
    # from sweep 3 the members try SqS3 points, and dropped points are
    # reswept at smaller heights; one member starts from a
    # fixed point and leaves early; each member's trace, stop and final row
    # are its solo run's bit for bit
    mdp, pols = _draw(case)
    opts = td.SolveOptions(beta=case["beta"], degree=case["degree"],
                           max_iters=30)
    fixed = td.solve(mdp, td.SolveOptions(beta=case["beta"], degree=case["degree"],
                                          max_iters=1000))
    starts = reachable_rows(mdp, [fixed.policy, *pols])
    cut = mdp.restriction.mdp
    rows = starts.copy()
    traces, iterations, converged = solver._sweeps(cut, opts, rows, opts.max_iters)
    for i, start in enumerate(starts):
        solo = start[None].copy()
        (trace,), (its,), (conv,) = solver._sweeps(cut, opts, solo, opts.max_iters)
        assert traces[i] == trace and iterations[i] == its and converged[i] == conv
        assert np.array_equal(rows[i], solo[0])


@settings(max_examples=15, deadline=None)
@given(case=CASES)
def test_sweeps_split_no_row_after_the_first_sweep(case):
    # a second solve, and the second run of a multi-start, split no row in
    # _sweeps at all: the first runs built the views for every stack height,
    # and every sweep, start value, SqS3 judging and resweep included, runs
    # on the workspace's views
    mdp, _ = _draw(case)
    opts = td.SolveOptions(beta=case["beta"], degree=case["degree"], init="perturbed",
                           seed=case["seed"], max_iters=20)
    multi = dict(starts=case["k"], seed=case["seed"], plan_starts=1)
    runs = (lambda: td.multi_start(mdp, opts, **multi), lambda: td.solve(mdp, opts))
    for run in runs:
        run()
    sweeps, splits = [0], [0]
    real_split, real_backward = Space.split, SweepPlan.backward_flat

    def in_sweeps():
        frame = sys._getframe(2)
        while frame is not None and frame.f_code.co_name != "_sweeps":
            frame = frame.f_back
        return frame is not None

    def split(space, row):
        splits[0] += in_sweeps()
        return real_split(space, row)

    def backward_flat(plan, nu, beta):
        if sys._getframe(1).f_code.co_name == "_sweeps":
            sweeps[0] += 1
        return real_backward(plan, nu, beta)

    Space.split, SweepPlan.backward_flat = split, backward_flat
    try:
        for run in runs:
            sweeps[0] = 0
            run()
            assert sweeps[0] > 1 and splits[0] == 0
    finally:
        Space.split, SweepPlan.backward_flat = real_split, real_backward


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=40, deadline=None)
@given(case=CASES, data=st.data())
def test_cycle_equals_the_reference(case, data):
    # three marginals rows per member, some entries at or below the 1e-300
    # floor or the 1e-150 held level, some histories without mass, each
    # member with its own bound (0: it tries no point): the workspace
    # cycle's steps, points, marginals, next bounds and next x0 are the
    # reference's bit for bit, on the active set's iterates
    mdp, pols = _draw(case)
    k, plan = case["k"], mdp.sweep_plan(case["degree"])
    lay = plan.layout
    rng = np.random.default_rng(case["seed"])
    flows = []
    for _ in range(3):
        pols = [oracle.random_policy(rng, mdp, case["degree"]) for _ in range(k)]
        mu, x = plan.forward_flat(_rows(plan, pols))
        tiny = rng.random(x.shape) < 0.2
        x[tiny] = rng.choice([0.0, 5e-324, 1e-300, 1e-299, 1e-160], size=x.shape)[tiny]
        mu[rng.random(mu.shape) < 0.3] = 0.0
        flows.append(Flow(mu, x))
    rows = [flow.nu for flow in flows]
    bound = data.draw(st.lists(st.sampled_from([0.0, 1.0, 4.0, 16.0, 1e6]),
                               min_size=k, max_size=k))
    kept = [kp and b > 0.0 for kp, b in zip(
        data.draw(st.lists(st.booleans(), min_size=k, max_size=k)), bound)]
    cycle = solver._Cycle(plan, k)
    assert cycle.add(flows[0], bound) is None and cycle.add(flows[1], bound) is None
    marginals, alpha = cycle.add(flows[2], bound)
    logs = [np.log(np.maximum(x, solver.MARGINAL_FLOOR)) for x in rows]
    logs = reference.active_logs(lay, logs, flows[2].mu)
    points, want_alpha = reference.squarem(*logs, np.asarray(bound))
    points = reference.log_normalize_marginals(lay, points)
    want = np.where((np.asarray(bound) > 0.0)[:, None], np.exp(points), rows[2])
    assert _bits(alpha) == _bits(want_alpha) and _bits(marginals) == _bits(want)
    tried = np.asarray(bound) > 0.0
    assert _bits(solver._step_bound(bound, alpha, kept)) == _bits(
        reference.step_bound(np.asarray(bound), want_alpha, tried, np.asarray(kept)))
    cycle.restart(kept)
    assert cycle.filled == 1 and _bits(cycle.logs[0][:k]) == _bits(
        np.where(np.asarray(kept)[:, None], points, logs[2]))


def test_step_length_edge_cases():
    # member 0 has r = v = 0 (step 1), member 1 r > 0 and v = 0 (its bound,
    # or 1 for a bound of 0), member 2 a step inside (1, bound): the shared
    # SqS3 point and steps equal the reference's for every bound
    x0 = np.array([[0.0, 1.0, -2.0], [0.0, 1.0, -2.0], [0.5, 0.25, -1.0]])
    x1 = x0 + np.array([[0.0], [1.0], [0.5]])
    x2 = x1 + np.array([[0.0], [1.0], [0.25]])
    for bound in ([1.0, 16.0, 16.0], [4.0, 0.0, 4.0], [0.0, 1e6, 1.0]):
        points, alpha = solver._squarem(x0, x1, x2, bound)
        want, want_alpha = reference.squarem(x0, x1, x2, np.asarray(bound))
        assert _bits(points) == _bits(want) and _bits(alpha) == _bits(want_alpha)
        assert alpha[0] == 1.0 and alpha[1] == max(bound[1], 1.0)


def _fields(report):
    """A report as comparable values: every field but the wall time."""
    return [report.policy.degree, *report.policy.tables, report.cost,
            report.information_nats, report.total, report.residual,
            report.iterations, report.converged, report.objective_trace]


def _same(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def test_threads_sharing_an_instance_match_sequential_runs():
    # two threads share one fresh instance, so its restriction, plans and
    # workspaces are built while both run; one solves and certifies single
    # policies, the other sweeps a stack of four (another height, one plan)
    def make():
        return oracle.random_mdp(np.random.default_rng(21), 5, 4, 3)

    def first(mdp):
        opts = td.SolveOptions(beta=0.8, degree=1, init="perturbed", seed=4, max_iters=40)
        rep = td.solve(mdp, opts)
        return [*_fields(rep), residual_from_policy(mdp, rep.policy, 0.8)]

    def second(mdp):
        opts = td.SolveOptions(beta=0.8, degree=1, max_iters=40)
        reps = td.multi_start(mdp, opts, starts=2, seed=9, plan_starts=1)
        stack = PolicyStack.of(1, [r.policy for r in reps])
        return [v for r in reps for v in _fields(r)] + [
            residual_from_policy(mdp, stack, 1.3)]

    jobs = (first, second)
    rounds = 3
    want = [job(make()) for job in jobs]
    shared = make()
    results = [[] for _ in jobs]
    errors = []

    def run(i):
        try:
            for _ in range(rounds):
                results[i].append(jobs[i](shared))
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for got, expected in zip(results, want):
        assert len(got) == rounds and all(_same(g, expected) for g in got)


def test_threads_build_each_cache_once(monkeypatch):
    # two threads start a multi-start on one fresh instance at once, at a
    # 1-us switch interval; over 20 instances, each builds its sweep plan and
    # its restriction once and runs the plan starts' DP once per plan
    builds = []
    real_init, real_restrict = SweepPlan.__init__, FiniteMdp._restrict
    real_dp = solver.backward_induction

    def init(plan, mdp, degree):
        builds.append(("plan", degree))
        real_init(plan, mdp, degree)

    def restrict(mdp):
        builds.append(("restriction",))
        return real_restrict(mdp)

    def dp(mdp, costs):
        builds.append(("dp",))
        return real_dp(mdp, costs)

    monkeypatch.setattr(SweepPlan, "__init__", init)
    monkeypatch.setattr(FiniteMdp, "_restrict", restrict)
    monkeypatch.setattr(solver, "backward_induction", dp)
    opts = td.SolveOptions(beta=0.8, degree=1, max_iters=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            mdp = oracle.random_mdp(np.random.default_rng(trial), 3, 3, 3)
            builds.clear()
            errors = []

            def run():
                try:
                    td.multi_start(mdp, opts, starts=1, seed=1, plan_starts=2)
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=run) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads) and not errors
            assert sorted(builds) == [("dp",), ("dp",), ("plan", 1), ("restriction",)]
    finally:
        sys.setswitchinterval(interval)


def test_instance_pickles_and_copies():
    # after a solve, whose plan holds per-thread buffers: the twins are built
    # from the four arrays, read-only, and solve to the same numbers
    mdp = oracle.random_mdp(np.random.default_rng(3), 3, 3, 3)
    opts = td.SolveOptions(beta=0.8, degree=1, max_iters=60)
    want = td.solve(mdp, opts)
    twins = pickle.loads(pickle.dumps(mdp)), copy.deepcopy(mdp)
    for twin in twins:
        assert all(np.array_equal(a, b) and not b.flags.writeable for a, b in zip(
            (*mdp.transitions, *mdp.stage_costs, mdp.terminal_cost, mdp.initial),
            (*twin.transitions, *twin.stage_costs, twin.terminal_cost, twin.initial)))
        got = td.solve(twin, opts)
        assert np.array_equal(got.objective_trace, want.objective_trace)
        assert _same(got.policy.tables, want.policy.tables)
