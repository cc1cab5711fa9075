"""Solves on the reachable states: the restricted instance and its reports."""

import numpy as np
import pytest

import termdp as td
from termdp import oracle, solver
from termdp.solver import PolicyStack, plan_start_policies, residual_from_policy


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
    """Record a copy of the start tables of every ``_sweeps`` call."""
    seen = []
    real = solver._sweeps

    def sweeps(mdp, opts, starts, *args):
        seen.append([q.copy() for q in starts.tables])
        return real(mdp, opts, starts, *args)

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
        assert all(a is b for a, b in zip(cut.restrict(q.tables), q.tables))
        assert all(a is b for a, b in zip(cut.widen(q.tables), q.tables))


class TestRestrictedSolves:
    """Reports of restricted solves against full-shape math."""

    CASES = [
        pytest.param(0, False, id="maze-0"),
        *(pytest.param(n, True, id=f"small-{n}") for n in (0, 1, 2)),
    ]

    @staticmethod
    def instance(small):
        return partly_reachable() if small else td.build_maze(
            td.sample_maze_spec(horizon=25)
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

    @pytest.mark.parametrize("degree, small", CASES)
    def test_solve(self, monkeypatch, degree, small):
        mdp = self.instance(small)
        opts = td.SolveOptions(beta=1.5, degree=degree, max_iters=300,
                               init="perturbed", seed=11)
        seen = capture_starts(monkeypatch)
        rep = td.solve(mdp, opts)
        self.check_report(mdp, rep, opts.beta)
        # the start is drawn on the full shapes and mapped in by rows
        drawn = td.MemoryPolicy.perturbed(mdp, degree, 11)
        want = mdp.restriction.restrict(drawn.tables)
        assert [q[0].tobytes() for q in seen[0]] == [q.tobytes() for q in want]

    @pytest.mark.parametrize("screen_iters", [None, 9])
    @pytest.mark.parametrize("degree, small", CASES)
    def test_multi_start(self, monkeypatch, degree, small, screen_iters):
        mdp = self.instance(small)
        opts = td.SolveOptions(beta=1.5, degree=degree, max_iters=300)
        seen = capture_starts(monkeypatch)
        reports = td.multi_start(mdp, opts, starts=2, seed=5, plan_starts=2,
                                 screen_iters=screen_iters)
        assert len(reports) == (1 if screen_iters else 5)
        for rep in reports:
            self.check_report(mdp, rep, opts.beta)
        # uniform, plan and perturbed starts are drawn on the full shapes,
        # then cut to their reachable rows
        seeds = np.random.default_rng(5).integers(0, 2**63 - 1, size=2)
        starts = [td.MemoryPolicy.uniform(mdp, degree)]
        starts += plan_start_policies(mdp, degree, 2)
        starts += [td.MemoryPolicy.perturbed(mdp, degree, int(s)) for s in seeds]
        want = mdp.restriction.restrict(PolicyStack.of(degree, starts).tables)
        assert [q.tobytes() for q in seen[0]] == [q.tobytes() for q in want]
