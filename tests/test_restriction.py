"""Solves on the reachable states: the restricted instance and its reports."""

import numpy as np
import pytest

import termdp as td
from termdp import oracle, solver
from termdp.solver import plan_start_policies, residual_from_policy

from reference import forward_split, reachable_rows


def partly_reachable():
    """Four states over three steps: state 3 starts with no mass and no
    transition enters it, and state 2 is entered only from t = 1 on, so the
    reachable sets are {0, 1}, {0, 1}, {0, 1, 2} and {0, 1, 2}."""
    rng = np.random.default_rng(7)
    transitions = []
    for t in range(3):
        p = rng.uniform(0.1, 1.0, (4, 2, 4))
        p[:, :, 3] = 0.0
        if t == 0:
            p[:, :, 2] = 0.0
        transitions.append(p / p.sum(axis=2, keepdims=True))
    costs = tuple(rng.uniform(0.0, 2.0, (4, 2)) for _ in range(3))
    return td.FiniteMdp(
        tuple(transitions), costs, rng.uniform(0.0, 3.0, 4),
        np.array([0.6, 0.4, 0.0, 0.0]),
    )


def capture_starts(monkeypatch):
    """Record a copy of the start rows of every ``_sweeps`` call."""
    seen = []
    real = solver._sweeps

    def sweeps(mdp, opts, rows, *args):
        seen.append(rows.copy())
        return real(mdp, opts, rows, *args)

    monkeypatch.setattr(solver, "_sweeps", sweeps)
    return seen


class TestReachableSets:
    def test_sample_maze(self):
        mdp = td.build_maze(td.sample_maze_spec(horizon=55))
        cut = mdp.restriction
        counts = [len(s) for s in cut.states]
        assert counts[:6] == [1, 3, 5, 7, 9, 12]
        assert counts[23:] == [59] * 33
        assert max(counts[:23]) < 59
        assert cut.mdp.state_cards == tuple(counts)
        plan = cut.mdp.sweep_plan(0)
        assert plan.cells == 12_760
        # steps 23-54 repeat (states, next states, buffer): one restricted buffer
        assert len({id(p) for p in cut.mdp.transitions[23:]}) == 1
        assert mdp.restriction is cut  # built once, then cached

    def test_restricted_instance_keeps_the_reachable_numbers(self):
        mdp = partly_reachable()
        cut = mdp.restriction
        assert [s.tolist() for s in cut.states] == [[0, 1], [0, 1], [0, 1, 2], [0, 1, 2]]
        sub = cut.mdp
        for t, (s, nxt) in enumerate(zip(cut.states, cut.states[1:])):
            np.testing.assert_array_equal(
                sub.transitions[t], mdp.transitions[t][np.ix_(s, [0, 1], nxt)]
            )
            np.testing.assert_array_equal(sub.stage_costs[t], mdp.stage_costs[t][s])
        np.testing.assert_array_equal(sub.terminal_cost, mdp.terminal_cost[:3])
        np.testing.assert_array_equal(sub.initial, [0.6, 0.4])

    @pytest.mark.parametrize("mdp", [
        pytest.param(oracle.random_mdp(np.random.default_rng(3), 4), id="random"),
        pytest.param(td.load_instance("instances/toy.json"), id="toy"),
        pytest.param(td.load_instance("instances/binary_hamming.json"),
                     id="binary_hamming"),
    ])
    def test_fully_reachable_instance_is_its_own_restriction(self, mdp):
        cut = mdp.restriction
        assert cut.mdp is mdp
        q = td.MemoryPolicy.uniform(mdp, 1)
        assert all(a is b for a, b in zip(cut.widen(q.tables), q.tables))


class TestRestrictedSolves:
    """Reports of restricted solves against full-shape math."""

    # (degree, maze horizon or None for the small instance)
    CASES = [
        pytest.param(0, 25, id="maze-0"),
        *(pytest.param(n, None, id=f"small-{n}") for n in (0, 1, 2)),
    ]

    @staticmethod
    def instance(horizon):
        return partly_reachable() if horizon is None else td.build_maze(
            td.sample_maze_spec(horizon=horizon)
        )

    @staticmethod
    def check_report(mdp, rep, beta):
        cut = mdp.restriction
        for q, s, step in zip(rep.policy.tables, cut.states,
                              mdp.sweep_plan(rep.degree).steps):
            assert q.shape == step.shape
            off = np.setdiff1d(np.arange(q.shape[0]), s)
            assert len(off)  # every case leaves some state unreachable
            np.testing.assert_array_equal(q[off], 1.0 / q.shape[-1])
        full = td.objective(mdp, rep.policy, beta)
        assert abs(rep.total - full.total) <= 1e-12 * abs(full.total)
        assert abs(rep.residual - residual_from_policy(mdp, rep.policy, beta)) <= 1e-12

    @pytest.mark.parametrize("degree, horizon", CASES)
    def test_solve(self, monkeypatch, degree, horizon):
        mdp = self.instance(horizon)
        opts = td.SolveOptions(beta=1.5, degree=degree, max_iters=300,
                               init="perturbed", seed=11)
        seen = capture_starts(monkeypatch)
        rep = td.solve(mdp, opts)
        self.check_report(mdp, rep, opts.beta)
        # the start, built at the reachable rows, is the full-shape draw cut
        # to those rows
        drawn = td.MemoryPolicy.perturbed(mdp, degree, 11)
        want = reachable_rows(mdp, [drawn])
        assert seen[0].shape == want.shape and seen[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("screen_iters", [None, 9])
    @pytest.mark.parametrize("degree, horizon", CASES + [
        pytest.param(0, 55, id="maze55-0"), pytest.param(1, 25, id="maze-1"),
    ])
    def test_multi_start(self, monkeypatch, degree, horizon, screen_iters):
        mdp = self.instance(horizon)
        opts = td.SolveOptions(beta=1.5, degree=degree, max_iters=300)
        seen = capture_starts(monkeypatch)
        reports = td.multi_start(mdp, opts, starts=2, seed=5, plan_starts=2,
                                 screen_iters=screen_iters)
        assert len(reports) == (1 if screen_iters else 5)
        for rep in reports:
            self.check_report(mdp, rep, opts.beta)
        # the starts, built at the reachable rows, are the uniform, plan and
        # perturbed starts of the instance's shapes cut to those rows; drawn
        # on a fresh instance, whose plan starts the cache does not serve
        fresh = self.instance(horizon)
        seeds = np.random.default_rng(5).integers(0, 2**63 - 1, size=2)
        starts = [td.MemoryPolicy.uniform(fresh, degree)]
        starts += plan_start_policies(fresh, degree, 2)
        starts += [td.MemoryPolicy.perturbed(fresh, degree, int(s)) for s in seeds]
        want = reachable_rows(fresh, starts)
        assert seen[0].shape == want.shape and seen[0].tobytes() == want.tobytes()


def full_shape_plans(mdp, degree, count):
    """Plan starts built and propagated on the instance's shapes: each plan's
    beliefs, pushed through every state, set the next plan's penalties."""
    plan = mdp.sweep_plan(degree)
    scale = max(1.0, max(float(np.abs(c).max()) for c in mdp.stage_costs))
    penalties = [np.zeros(c.shape[0]) for c in mdp.stage_costs]
    plans = []
    for _ in range(count):
        costs = [c + p[:, None] for c, p in zip(mdp.stage_costs, penalties)]
        actions, _ = solver.backward_induction(mdp, costs)
        tables = []
        for s, greedy in zip(plan.steps, actions):
            q = np.full(s.shape, (1.0 - solver.PLAN_MIX) / s.shape[2])
            q[np.arange(s.shape[0]), :, greedy] += solver.PLAN_MIX
            tables.append(q)
        plans.append(tables)
        mus, _ = forward_split(plan, tables)
        for t, mu in enumerate(mus[:-1]):
            penalties[t] = penalties[t] + 2.0 * scale * (mu.sum(axis=1) > 1e-3)
    return plans


class TestPlanStarts:
    """Plan starts: computed once per (instance, degree), built at the rows
    each caller needs."""

    @pytest.mark.parametrize("degree, horizon", [
        *((n, h) for n in (0, 1) for h in (10, 55)),
        *((n, None) for n in (0, 1, 2)),
    ])
    def test_plans_equal_the_full_shape_plans(self, degree, horizon):
        # the penalties' beliefs are pushed on the reachable rows only
        mdp = TestRestrictedSolves.instance(horizon)
        ours = [p.tables for p in plan_start_policies(mdp, degree, 3)]
        want = full_shape_plans(mdp, degree, 3)
        assert [[q.tobytes() for q in p] for p in ours] == [
            [q.tobytes() for q in p] for p in want]

    def test_backward_induction_runs_once_per_plan(self, monkeypatch):
        # criterion 10's pair of calls (beta 10, then beta 1, plan_starts=3)
        # on one T=55 maze, capped as the benchmark caps them: the plans do
        # not depend on beta, so the second call computes none
        mdp = td.build_maze(td.sample_maze_spec(horizon=55))
        runs = []
        real = solver.backward_induction

        def spy(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(solver, "backward_induction", spy)
        for beta in (10.0, 1.0):
            td.multi_start(mdp, td.SolveOptions(beta=beta, max_iters=12), starts=2,
                           seed=910, plan_starts=3, screen_iters=4)
        assert len(runs) == 3
        two = plan_start_policies(mdp, 0, 2)  # a prefix of the cached plans
        assert len(runs) == 3
        td.multi_start(mdp, td.SolveOptions(beta=1.0, max_iters=2), starts=0,
                       seed=910, plan_starts=4, screen_iters=1)
        assert len(runs) == 4  # the fourth plan only
        plan_start_policies(mdp, 1, 2)
        assert len(runs) == 6  # degree 1 plans its own
        # the prefix and the grown list are the full-shape plans
        want = full_shape_plans(mdp, 0, 4)
        for ours, theirs in zip(two + plan_start_policies(mdp, 0, 4),
                                want[:2] + want, strict=True):
            assert [q.tobytes() for q in ours.tables] == [q.tobytes() for q in theirs]

    def test_a_caller_cannot_change_the_next_starts(self, monkeypatch):
        mdp = td.build_maze(td.sample_maze_spec(horizon=10))
        opts = td.SolveOptions(beta=2.0, max_iters=3)
        seen = capture_starts(monkeypatch)
        td.multi_start(mdp, opts, starts=0, seed=3, plan_starts=2)
        (first, second) = plan_start_policies(mdp, 0, 2)
        want = [q.copy() for q in second.tables]
        with pytest.raises(ValueError, match="read-only"):
            first.tables[0][...] = 0.0
        q = second.tables[3]
        q.setflags(write=True)  # a caller forcing its way in writes its own copy
        q[...] = 0.0
        assert all(np.array_equal(a, b) for a, b in
                   zip(plan_start_policies(mdp, 0, 2)[1].tables, want))
        td.multi_start(mdp, opts, starts=0, seed=3, plan_starts=2)
        assert seen[0].tobytes() == seen[1].tobytes()
