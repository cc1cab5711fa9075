"""Solver tests: sweep mechanics, descent, fixed points, classical case."""

import math
from dataclasses import replace

import numpy as np
import pytest

import termdp as td
from termdp import oracle, solver
from termdp.errors import InstanceError, NumericalError
from termdp.model import SweepPlan, induced_action_marginals, objective_rows
from termdp.solver import (
    PolicyStack,
    SolverIterate,
    backward_pass,
    forward_pass,
    free_energy,
    plan_start_policies,
    residual_from_policy,
    stationarity_residual,
)

import reference
from reference import reachable_rows, symmetric_classical_minimum

Q_STAR = 1.0 / (1.0 + math.exp(-1.0))  # matching probability of the
# symmetric binary fixed point at unit information price


def binary_hamming(beta_scale=1.0):
    p = np.full((2, 2, 2), 0.5)
    return td.FiniteMdp(
        (p,),
        (np.array([[0.0, 1.0], [1.0, 0.0]]) * beta_scale,),
        np.zeros(2),
        np.array([0.5, 0.5]),
    )


def one_prior_blahut(p, cost, beta, max_iters):
    """The plain Blahut loop, one prior at a time: alternate the Gibbs policy
    and its action marginal for max_iters iterations, or until the value no
    longer decreases (the descent has stalled at roundoff).  Returns the
    value.  Its log-sum-exp is its own, not the solver's ``gibbs_step``."""
    q = np.full_like(cost, 1.0 / cost.shape[1])
    value = math.inf
    for _ in range(max_iters):
        with np.errstate(divide="ignore"):  # unused actions get log 0 = -inf
            z = np.log(p @ q) - cost / beta
        top = z.max(axis=1, keepdims=True)
        w = np.exp(z - top)
        log_phi = top[:, 0] + np.log(w.sum(axis=1))
        q_new = w / w.sum(axis=1, keepdims=True)
        new_value = -beta * float(p @ log_phi)
        if not new_value < value:
            break
        q, value = q_new, new_value
    return value


def criterion_1_draw(seed, i):
    """Draw i of the criterion-1 sequence started at seed * 1000 + i."""
    rng = np.random.default_rng(seed * 1000 + i)
    mdp = oracle.random_mdp(rng, int(rng.integers(1, 11)), 5, 5)
    opts = td.SolveOptions(
        beta=float(rng.uniform(0.1, 3.0)), degree=int(rng.integers(0, 3)),
        init="perturbed", seed=i, max_iters=400,
    )
    return mdp, opts


def boundary_term(mdp, policy, beta):
    """Blahut's boundary term of a policy, by the public passes: max(0, s - 1)
    over the marginals in (0, 1e-150] of histories with mass, s the ratio of
    the action marginal of its Gibbs policy to the marginal; and how many
    such marginals there are."""
    belief, nu = forward_pass(mdp, policy)
    fresh = backward_pass(mdp, nu, beta, policy.degree)[2]
    hats = induced_action_marginals(mdp, fresh, belief)
    term, count = 0.0, 0
    for mu, n, hat in zip(belief.mus, nu, hats):
        held = (n > 0.0) & (n <= 1e-150) & (mu.sum(axis=0)[:, None] > 1e-12)
        count += int(held.sum())
        term = max([term, *(hat[held] / np.maximum(n[held], 1e-300) - 1.0)])
    return term, count


def eq10_trial(seed):
    """The instance and beta of criterion 7's trial drawn from seed."""
    rng = np.random.default_rng(seed)
    mdp = oracle.random_mdp(rng, 2, max_states=2, max_actions=2)
    return mdp, float(rng.uniform(0.2, 2.0))


class TestOptions:
    def test_bad_options_rejected(self):
        with pytest.raises(InstanceError):
            td.SolveOptions(beta=0.0)
        with pytest.raises(InstanceError):
            td.SolveOptions(beta=1.0, degree=-1)
        with pytest.raises(InstanceError):
            td.SolveOptions(beta=1.0, init="perturbed")
        with pytest.raises(InstanceError):
            td.SolveOptions(beta=1.0, init="warm")
        # counts are integers, Python or numpy
        for kwargs in ({"degree": 1.5}, {"max_iters": 2.5}, {"degree": True},
                       {"max_iters": np.float64(3.0)},
                       {"init": "perturbed", "seed": 2.5}):
            with pytest.raises(InstanceError, match="must be an integer"):
                td.SolveOptions(beta=1.0, **kwargs)
        opts = td.SolveOptions(beta=1.0, degree=np.int64(1), max_iters=np.int32(5),
                               init="perturbed", seed=np.uint8(3))
        assert td.solve(td.build_nonconvex_toy(), opts).iterations <= 5

    def test_non_integer_counts_and_non_real_beta_rejected(self):
        # input errors (exit 2), not TypeErrors from deep inside numpy
        toy = td.build_nonconvex_toy()
        pol = td.MemoryPolicy.uniform(toy, 0)
        calls = [
            (lambda: plan_start_policies(toy, 0, 2.5), "plan start count"),
            (lambda: plan_start_policies(toy, 1.5, 1), "memory degree"),
            (lambda: td.MemoryPolicy.uniform(toy, 1.5), "memory degree"),
            (lambda: td.MemoryPolicy.perturbed(toy, 0, 1.5), "seed"),
            (lambda: td.MemoryPolicy.perturbed(toy, True, 1), "memory degree"),
            (lambda: td.MemoryPolicy(0.5, pol.tables), "memory degree"),
            (lambda: residual_from_policy(toy, pol, "1"), "beta"),
            (lambda: td.SolveOptions(beta="1"), "beta"),
            (lambda: td.SolveOptions(beta=True), "beta"),
            (lambda: td.classical_blahut([0.5, 0.5], np.eye(2), beta=1j), "beta"),
        ]
        for call, match in calls:
            with pytest.raises(InstanceError, match=match):
                call()

    def test_numpy_beta_gives_python_floats(self):
        # a float32 beta once came back as a float32 total, 1.1e-8 away from
        # the float beta's
        toy = td.build_nonconvex_toy()
        want = td.solve(toy, td.SolveOptions(beta=1.0, max_iters=50))
        for beta in (np.float32(1.0), np.float64(1.0), np.int64(1)):
            opts = td.SolveOptions(beta=beta, max_iters=50)
            assert type(opts.beta) is float
            got = td.solve(toy, opts)
            assert type(got.beta) is float and type(got.total) is float
            assert got.total == want.total

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": math.nan},
            {"beta": math.inf},
            {"beta": 1.0, "tol_objective": math.nan},
            {"beta": 1.0, "tol_residual": math.inf},
        ],
    )
    def test_non_finite_options_rejected(self, kwargs):
        with pytest.raises(InstanceError, match="finite"):
            td.SolveOptions(**kwargs)


class TestForwardPass:
    def test_toy_uniform_marginals_uniform(self):
        toy = td.build_nonconvex_toy()
        _, nu = forward_pass(toy, td.MemoryPolicy.uniform(toy, 0))
        np.testing.assert_allclose(nu[0], 0.5, atol=1e-15)

    def test_point_mass_history_recovers_policy(self):
        toy = td.build_nonconvex_toy()
        q0 = np.zeros((2, 1, 2))
        q0[:, 0, 1] = 1.0  # both states pick action 1, so x_1 = 1 surely
        rng = np.random.default_rng(8)
        q1 = rng.random((2, 1, 2)) + 0.1
        q1 /= q1.sum(axis=2, keepdims=True)
        pol = td.MemoryPolicy(0, (q0, q1))
        _, nu = forward_pass(toy, pol)
        np.testing.assert_allclose(nu[1][0], q1[1, 0], atol=1e-15)

    def test_maze_marginals_normalized(self):
        mdp = td.build_maze(td.sample_maze_spec(horizon=55))
        _, nu = forward_pass(mdp, td.MemoryPolicy.perturbed(mdp, 0, seed=1))
        for nu_t in nu:
            np.testing.assert_allclose(nu_t.sum(axis=1), 1.0, atol=1e-12)


class TestBackwardPass:
    def test_zero_cost_policy_equals_marginal(self):
        p = np.full((2, 2, 2), 0.5)
        mdp = td.FiniteMdp(
            (p,), (np.zeros((2, 2)),), np.zeros(2), np.array([0.5, 0.5])
        )
        nu = [np.array([[0.3, 0.7]])]
        _, _, q = backward_pass(mdp, nu, beta=1.0, degree=0)
        np.testing.assert_allclose(q.tables[0][:, 0, :], [[0.3, 0.7]] * 2, atol=1e-15)

    def test_symmetric_fixed_point_closed_form(self):
        # by symmetry the marginal stays uniform, so one backward pass from
        # the uniform marginal must return the closed-form matching policy
        mdp = binary_hamming()
        nu = [np.array([[0.5, 0.5]])]
        _, log_phi, q = backward_pass(mdp, nu, beta=1.0, degree=0)
        np.testing.assert_allclose(q.tables[0][0, 0, 0], Q_STAR, atol=1e-15)
        np.testing.assert_allclose(q.tables[0][1, 0, 1], Q_STAR, atol=1e-15)
        # and the pair (q*, uniform) reproduces itself: a true fixed point
        _, nu2 = forward_pass(mdp, q)
        np.testing.assert_allclose(nu2[0], 0.5, atol=1e-15)

    def test_large_terminal_penalty_stays_finite(self):
        mdp = td.build_maze(td.sample_maze_spec(horizon=8))
        pol = td.MemoryPolicy.uniform(mdp, 0)
        _, nu = forward_pass(mdp, pol)
        rho, log_phi, q = backward_pass(mdp, nu, beta=1.0, degree=0)
        for lp in log_phi:
            assert np.isfinite(lp).all()
        for t in range(8):
            np.testing.assert_allclose(
                q.tables[t].sum(axis=2), 1.0, atol=1e-12
            )

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_bad_beta_rejected_at_the_boundary(self, beta):
        # not a NumericalError from a zero Gibbs normalizer inside the pass
        toy = td.build_nonconvex_toy()
        pol = td.MemoryPolicy.uniform(toy, 0)
        _, nu = forward_pass(toy, pol)
        with pytest.raises(InstanceError, match="beta"):
            backward_pass(toy, nu, beta, 0)
        with pytest.raises(InstanceError, match="beta"):
            residual_from_policy(toy, pol, beta)

    def test_marginal_shapes_checked_at_the_boundary(self):
        # the pass copies rows into buffers of the plan's sizes, so wrong
        # shapes must not reach it: too few steps, (1, 7) marginals on the
        # toy's (1, 2) steps, a step with another batch shape, 1-d marginals
        toy = td.build_nonconvex_toy()
        _, nu = forward_pass(toy, td.MemoryPolicy.uniform(toy, 0))
        stacked = [np.stack([n, n]) for n in nu]
        for bad, match in [
            (nu[:1], "1 marginals for horizon 2"),
            ([np.full((1, 7), 1.0 / 7.0)] * 2, r"marginal 0 has shape \(1, 7\)"),
            ([stacked[0], stacked[1][:1]], r"marginal 1 has shape \(1, 1, 2\)"),
            ([n[0] for n in nu], r"marginal 0 has shape \(2,\)"),
        ]:
            with pytest.raises(InstanceError, match=match):
                backward_pass(toy, bad, 1.0, 0)
        _, log_phi, stack = backward_pass(toy, stacked, 1.0, 0)
        _, want, single = backward_pass(toy, [n.tolist() for n in nu], 1.0, 0)
        for got, one in [(log_phi, want), (stack.tables, single.tables)]:
            assert all(np.array_equal(a[1], b) for a, b in zip(got, one))

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("beta", [1e-3, 1e-1, 1e1, 1e3, 1e5])
    def test_floored_stack_sweeps_without_a_zero_normalizer(self, degree, beta):
        # a kept SqS3 point may hold entries at the 1e-300 floor; every
        # massed history's marginal keeps a positive entry all the same, so
        # the backward pass of the stack's own forward pass cannot fail
        rng = np.random.default_rng(80 + degree)
        mdp = oracle.random_mdp(rng, 5)
        layout = mdp.sweep_plan(degree).layout
        shape = (6, len(layout.cost))
        x = np.where(rng.random(shape) < 0.4, rng.uniform(-5.0, 0.0, shape), -1e3)
        q = np.exp(reference.log_normalize(layout, x))
        stack = PolicyStack(degree, layout.tables.split(q))
        assert (q < 1e-290).mean() > 0.3  # at the floor, up to renormalizing
        _, nu = forward_pass(mdp, stack)
        _, log_phi, fresh = backward_pass(mdp, nu, beta, degree)
        assert all(np.isfinite(lp).all() for lp in log_phi)
        for table in fresh.tables:
            np.testing.assert_allclose(table.sum(axis=-1), 1.0, atol=1e-12)


class TestSolve:
    def test_classical_case_recovered(self):
        mdp = binary_hamming()
        rep = td.solve(mdp, td.SolveOptions(beta=1.0, degree=0))
        sol = td.classical_blahut(
            np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0
        )
        assert np.abs(rep.policy.tables[0][:, 0, :] - sol.policy).max() < 1e-9
        assert abs(rep.total - sol.value) < 1e-9

    def test_two_seeds_reach_distinct_stationary_points(self):
        toy = td.build_nonconvex_toy()
        r1 = td.solve(toy, td.SolveOptions(beta=1.0, degree=0, init="perturbed", seed=1))
        r2 = td.solve(toy, td.SolveOptions(beta=1.0, degree=0, init="perturbed", seed=2))
        assert r1.residual < 1e-8 and r2.residual < 1e-8
        gap = max(
            np.abs(a - b).max() for a, b in zip(r1.policy.tables, r2.policy.tables)
        )
        assert gap > 0.5  # opposite constant-action optima

    def test_descent_and_residual_on_random_instances(self):
        rng = np.random.default_rng(77)
        for i in range(10):
            mdp = oracle.random_mdp(rng, int(rng.integers(1, 8)))
            rep = td.solve(
                mdp,
                td.SolveOptions(
                    beta=float(rng.uniform(0.2, 2.0)),
                    degree=int(rng.integers(0, 3)),
                    init="perturbed",
                    seed=i,
                    max_iters=500,
                ),
            )
            trace = rep.objective_trace
            assert (trace[1:] - trace[:-1] <= 1e-12).all()
            if rep.converged:
                assert rep.residual < 1e-8

    def test_same_seed_bitwise_identical(self):
        rng = np.random.default_rng(11)
        mdp = oracle.random_mdp(rng, 4)
        opts = td.SolveOptions(beta=0.7, degree=1, init="perturbed", seed=42)
        r1, r2 = td.solve(mdp, opts), td.solve(mdp, opts)
        assert (r1.objective_trace == r2.objective_trace).all()
        for a, b in zip(r1.policy.tables, r2.policy.tables):
            assert (a == b).all()
        assert r1.total == r2.total and r1.residual == r2.residual

    def test_beta_scaling_consistency(self):
        # solving (beta, c) and (1, c / beta) gives bitwise-equal policies
        rng = np.random.default_rng(13)
        mdp = oracle.random_mdp(rng, 3)
        beta = 2.5
        scaled = td.FiniteMdp(
            transitions=mdp.transitions,
            stage_costs=tuple(c / beta for c in mdp.stage_costs),
            terminal_cost=mdp.terminal_cost / beta,
            initial=mdp.initial,
        )
        opts_a = td.SolveOptions(beta=beta, degree=1, init="perturbed", seed=5)
        opts_b = td.SolveOptions(beta=1.0, degree=1, init="perturbed", seed=5)
        r_a, r_b = td.solve(mdp, opts_a), td.solve(scaled, opts_b)
        for a, b in zip(r_a.policy.tables, r_b.policy.tables):
            assert (a == b).all()

    @pytest.mark.parametrize("max_iters", [1, 3, 2000])
    def test_k_sweep_solve_runs_k_plus_one_forward_passes(self, monkeypatch, max_iters):
        # one forward pass per sweep plus one for the final policy, which the
        # report's cost, information and certificate share; every forward
        # pass runs the plan's one forward kernel.  Backward passes: one per
        # sweep and the certificate's, a dropped SqS3 point costs one more
        # (its sweep then sweeps the plain marginals), and so does an
        # active-set check that moves a marginal: its trial pass
        calls = {"forward_flat": 0, "backward_flat": 0}
        dropped, trials = [], []
        for name in calls:
            original = getattr(SweepPlan, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(SweepPlan, name, counted)
        real_step_bound = solver._step_bound

        def step_bound(bound, alpha, kept):
            dropped.extend(r for r, (b, kp) in enumerate(zip(bound, kept)) if b > 0 and not kp)
            return real_step_bound(bound, alpha, kept)

        monkeypatch.setattr(solver, "_step_bound", step_bound)
        real_check = solver._Cycle.check

        def check(cycle, flow, q):
            trial, changed = real_check(cycle, flow, q)
            trials.append(bool(changed.any()))
            return trial, changed

        monkeypatch.setattr(solver._Cycle, "check", check)
        mdp = oracle.random_mdp(np.random.default_rng(3), 4)
        opts = td.SolveOptions(beta=0.9, degree=1, max_iters=max_iters)
        rep = td.solve(mdp, opts)
        assert rep.converged or rep.iterations == max_iters
        assert calls["forward_flat"] == rep.iterations + 1
        assert calls["backward_flat"] == rep.iterations + 1 + len(dropped) + sum(trials)
        assert any(trials) == (max_iters > solver.ACTIVE_EVERY)

    @pytest.mark.parametrize("i", [3, 40])
    def test_stop_test_of_a_dropped_point_measures_the_plain_policy(self, monkeypatch, i):
        # criterion-1 draws where the stop test runs on the sweep of a
        # dropped SqS3 point, found by its second backward pass with no
        # active-set check before it: its residual is the plain policy's own
        events = []
        for owner, name in ((SweepPlan, "forward_flat"), (SweepPlan, "backward_flat"),
                            (solver._Cycle, "check"), (solver, "_residual")):
            original = getattr(owner, name)

            def logged(*args, _name=name, _original=original):
                out = _original(*args)
                if _name == "forward_flat":  # the policy swept
                    plan, q = args
                    tables = plan.layout.tables.split(q[0].copy())
                    events.append((_name, td.MemoryPolicy(plan.degree, tables)))
                else:
                    events.append((_name, out))
                return out

            monkeypatch.setattr(owner, name, logged)
        mdp, opts = criterion_1_draw(910, i)
        td.solve(mdp, opts)
        monkeypatch.undo()
        names = [name for name, _ in events]
        tested = [j for j in range(len(events) - 3) if names[j:j + 4] == [
            "forward_flat", "backward_flat", "backward_flat", "_residual"]]
        assert tested
        for j in tested:
            plain, gap = events[j][1], events[j + 3][1]
            assert gap == residual_from_policy(mdp, plain, opts.beta)

    @pytest.mark.parametrize("i", [8, 29, 69])
    def test_trace_is_the_free_energy_of_backward_passes(self, monkeypatch, i):
        # criterion-1 draws that keep SqS3 points: past trace[0], every
        # trace value is the free energy of one of the solve's backward
        # passes, a kept point's or a plain one's, and the trace descends
        passes = backward_passes(monkeypatch)
        mdp, opts = criterion_1_draw(910, i)
        trace = td.solve(mdp, opts).objective_trace
        free = {v for v, _, _, _ in passes}
        assert set(trace[1:].tolist()) <= free
        assert {v for v, point, _, _ in passes if point} & set(trace.tolist())
        assert (trace[1:] - trace[:-1] <= 1e-12).all()

    @pytest.mark.parametrize("i", [8, 69])
    def test_kept_point_value_is_its_factored_objective(self, monkeypatch, i):
        # a kept point's value, its backward pass's free energy, is
        # F(Gibbs(nu_p), nu_p) by the factored objective
        passes = backward_passes(monkeypatch)
        mdp, opts = criterion_1_draw(910, i)
        trace = set(td.solve(mdp, opts).objective_trace.tolist())
        monkeypatch.undo()
        kept = [(v, nu, q) for v, point, nu, q in passes if point and v in trace]
        assert kept
        cut = mdp.restriction.mdp
        lay = cut.sweep_plan(opts.degree).layout
        for v, nu, q in kept:
            policy = td.MemoryPolicy(opts.degree, lay.tables.split(q))
            want = td.factored_objective(cut, policy, lay.marginals.split(nu), opts.beta)
            assert abs(v - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("seed, i", [(7, 7), (2, 9), (18, 14)])
    def test_no_false_convergence_after_extrapolation(self, monkeypatch, seed, i):
        # criterion-1 draws where a stop shortly after a kept SqS3 point
        # claimed convergence with a certificate of 1.0e-8 to 2.4e-8
        passes = backward_passes(monkeypatch)
        mdp, opts = criterion_1_draw(seed, i)
        rep = td.solve(mdp, opts)
        assert any(point for _, point, _, _ in passes)
        assert not rep.converged or rep.residual < opts.tol_residual
        trace = rep.objective_trace
        assert (trace[1:] - trace[:-1] <= 1e-12).all()

    def test_third_backward_pass_runs_on_a_sqs3_point(self, monkeypatch):
        # the cycle logs the marginals of sweeps 1-3 and builds its first
        # point from them, so sweep 3's backward pass runs on that point
        passes = backward_passes(monkeypatch)
        mdp, opts = criterion_1_draw(910, 8)
        rep = td.solve(mdp, replace(opts, max_iters=3))
        assert rep.iterations == 3 and not rep.converged
        assert [point for _, point, _, _ in passes[:3]] == [False, False, True]

    def test_extrapolation_cuts_sweeps_without_changing_the_optimum(self, monkeypatch):
        # the same draw with a cycle that builds no point: fewer sweeps to a
        # certified stop, and the same stationary value
        mdp, opts = criterion_1_draw(910, 8)
        opts = replace(opts, max_iters=2000)
        fast = td.solve(mdp, opts)
        monkeypatch.setattr(solver._Cycle, "add", lambda cycle, nu, bound: None)
        plain = td.solve(mdp, opts)
        assert fast.converged and plain.converged
        assert fast.iterations < plain.iterations / 2
        assert fast.residual < opts.tol_residual
        assert abs(fast.total - plain.total) < 1e-12

    def test_boundary_draw_converges_certified(self):
        # criterion-1 draw 910005, capped at 400 sweeps before the active
        # set (residual 4.8e-6): it converges, and its residual certifies
        # the held marginals by Blahut's test
        mdp, opts = criterion_1_draw(910, 5)
        rep = td.solve(mdp, opts)
        assert rep.converged and rep.residual < opts.tol_residual
        term, count = boundary_term(mdp, rep.policy, opts.beta)
        assert count > 0 and term <= opts.tol_residual

    def test_held_marginal_of_an_interior_optimum_is_released(self, monkeypatch):
        # the classical binary case, started with action 0 held at 1e-200;
        # its optimum uses both actions, so its multiplier exceeds 1: the
        # start's residual says so, the first check releases the action,
        # and the solve converges to Blahut's optimum
        mdp = binary_hamming()
        opts = td.SolveOptions(beta=1.0, max_iters=400)
        q = np.array([[[1e-200, 1.0]], [[1e-200, 1.0]]])
        assert residual_from_policy(mdp, td.MemoryPolicy(0, (q,)), 1.0) > 0.5
        moves = active_set_moves(monkeypatch)
        (rep,) = solver._solve_batch(mdp, opts, q.reshape(1, -1).copy())
        sweep, values, trial, changed = moves[0]
        assert sweep == solver.ACTIVE_EVERY and changed[0].tolist() == [True, False]
        assert trial[0, 0] > 1e-4 and rep.objective_trace[sweep] == values[0]
        sol = td.classical_blahut(np.array([0.5, 0.5]), mdp.stage_costs[0], 1.0)
        assert rep.converged and abs(rep.total - sol.value) < 1e-9
        assert np.abs(rep.policy.tables[0][:, 0, :] - sol.policy).max() < 1e-8

    @pytest.mark.parametrize("i", [5, 13, 49])
    def test_trace_does_not_rise_on_a_judged_move(self, monkeypatch, i):
        # criterion-1 draws whose checks move marginals: on each such sweep
        # the trace takes the trial's free energy, never above the last
        # value, or the plain sweep's, as if no move had been tried
        moves = active_set_moves(monkeypatch)
        mdp, opts = criterion_1_draw(910, i)
        trace = td.solve(mdp, opts).objective_trace
        kept = [k for k, (v,), _, _ in moves if k < len(trace) and trace[k] == v]
        assert kept
        for k in (k for k, _, _, _ in moves if k < len(trace)):
            assert trace[k] <= trace[k - 1] + (0.0 if k in kept else 1e-12)

    def test_information_is_never_negative(self):
        # beta 100, far above the costs: each (t, x, h) KL term is at
        # roundoff, and their sum read -1.6e-16 before each was taken at
        # max(0, .)
        rng = np.random.default_rng(6)
        mdp = oracle.random_mdp(rng, int(rng.integers(1, 8)), 4, 4)
        opts = td.SolveOptions(beta=100.0, degree=int(rng.integers(0, 3)),
                               init="perturbed", seed=6, max_iters=400)
        rep = td.solve(mdp, opts)
        assert rep.information_nats >= 0.0
        assert (td.per_step_information(mdp, rep.policy) >= 0.0).all()

    def test_fixed_point_consistency_one_extra_sweep(self):
        rng = np.random.default_rng(19)
        mdp = oracle.random_mdp(rng, 5)
        opts = td.SolveOptions(beta=1.0, degree=0, init="perturbed", seed=3, max_iters=2000)
        rep = td.solve(mdp, opts)
        assert rep.converged
        belief, nu = forward_pass(mdp, rep.policy)
        _, _, q2 = backward_pass(mdp, nu, 1.0, 0)
        gap = 0.0
        for t in range(mdp.horizon):
            mask = belief.mus[t] > 1e-12
            gap = max(gap, np.abs(rep.policy.tables[t] - q2.tables[t])[mask, :].max())
        assert gap < opts.tol_residual


class TestStationarityResidual:
    def test_exact_classical_fixed_point(self):
        mdp = binary_hamming()
        q = np.array([[Q_STAR, 1 - Q_STAR], [1 - Q_STAR, Q_STAR]])
        pol = td.MemoryPolicy(0, (q[:, None, :],))
        assert residual_from_policy(mdp, pol, 1.0) < 1e-12

    def test_fresh_random_policy_not_stationary(self):
        toy = td.build_nonconvex_toy()
        rng = np.random.default_rng(23)
        pol = oracle.random_policy(rng, toy, 0)
        assert residual_from_policy(toy, pol, 1.0) > 1e-3

    def test_converged_solve_certificate(self):
        toy = td.build_nonconvex_toy()
        rep = td.solve(toy, td.SolveOptions(beta=1.0, degree=0, init="perturbed", seed=4))
        assert rep.converged and rep.residual < 1e-8

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_without_held_marginals_it_is_the_policy_gap(self, degree):
        # no marginal at or below 1e-150: the residual is the sup-norm policy
        # gap over massed (t, x, h), bit for bit, for a policy and a stack
        rng = np.random.default_rng(degree)
        mdp = oracle.random_mdp(rng, 4, 4, 3)
        pols = [oracle.random_policy(rng, mdp, degree) for _ in range(3)]
        for pol in [*pols, PolicyStack.of(degree, pols)]:
            belief, nu = forward_pass(mdp, pol)
            assert min(n.min() for n in nu) > 1e-150
            fresh = backward_pass(mdp, nu, 0.7, degree)[2]
            gaps = [np.where(mu[..., None] > 1e-12, np.abs(q - f), 0.0)
                    for mu, q, f in zip(belief.mus, pol.tables, fresh.tables)]
            want = np.max([g.reshape(*g.shape[:g.ndim - 3], -1).max(axis=-1) for g in gaps],
                          axis=0)
            assert np.array_equal(residual_from_policy(mdp, pol, 0.7), want)


BETA_CERT = 0.8
DELTA = 1e-3


def _bumped(
    arrays: tuple[np.ndarray, ...], t: int, index: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """Copy of the arrays with DELTA added to arrays[t][index]."""
    out = [np.array(a) for a in arrays]
    out[t][index] += DELTA
    return tuple(out)


def one_sweep_iterate(mdp, policy, beta):
    """The iterate one sweep builds from a policy, the policy kept as is."""
    belief, nu = forward_pass(mdp, policy)
    rho, log_phi, _ = backward_pass(mdp, nu, beta, policy.degree)
    return SolverIterate(belief, tuple(nu), tuple(rho), tuple(log_phi), policy)


class TestStationarityResidualRelations:
    """Break one stationarity relation at a time on an exact iterate.

    Time T - 1 is perturbed (time T for beliefs and log partitions); at
    degree 1 the belief step there slides the history window.
    """

    @pytest.fixture(scope="class", params=[0, 1])
    def exact(self, request):
        """One sweep's iterate from a converged policy: every relation holds."""
        degree = request.param
        mdp = oracle.random_mdp(np.random.default_rng(31), 3, 3, 3)
        rep = td.solve(mdp, td.SolveOptions(beta=BETA_CERT, degree=degree))
        assert rep.converged
        return mdp, one_sweep_iterate(mdp, rep.policy, BETA_CERT)

    def test_exact_iterate_certified(self, exact):
        mdp, it = exact
        assert stationarity_residual(mdp, it, BETA_CERT) < 1e-8

    @pytest.mark.parametrize(
        "relation", ["belief", "marginal", "cost", "partition", "terminal"]
    )
    def test_perturbation_detected(self, exact, relation):
        mdp, it = exact
        T = mdp.horizon
        if relation == "belief":
            mus = _bumped(it.belief.mus, T, (0, 0))
            it = replace(it, belief=td.ReducedBelief(it.belief.degree, mus))
        elif relation == "marginal":
            # the marginal relation is only checked on histories with mass
            h = int(np.argmax(it.belief.mus[T - 1].sum(axis=0)))
            it = replace(it, nu=_bumped(it.nu, T - 1, (h, 0)))
        elif relation == "cost":
            it = replace(it, rho=_bumped(it.rho, T - 1, (0, 0, 0)))
        elif relation == "partition":
            it = replace(it, log_phi=_bumped(it.log_phi, T - 1, (0, 0)))
        else:
            it = replace(it, log_phi=_bumped(it.log_phi, T, (0, 0)))
        assert stationarity_residual(mdp, it, BETA_CERT) >= DELTA - 1e-12


class TestCertificateIsTheFullCheck:
    """residual_from_policy reads only the policy relation; on the one-sweep
    iterate the other four hold, so it equals the five-relation check."""

    @pytest.fixture(scope="class", params=[0, 1, 2])
    def policies(self, request):
        degree = request.param
        mdp = oracle.random_mdp(np.random.default_rng(50 + degree), 3, 3, 3)
        rng = np.random.default_rng(60 + degree)
        rep = td.solve(mdp, td.SolveOptions(beta=BETA_CERT, degree=degree))
        assert rep.converged
        pols = [oracle.random_policy(rng, mdp, degree), rep.policy,
                oracle.random_policy(rng, mdp, degree)]
        return mdp, pols

    def test_equals_stationarity_residual(self, policies):
        mdp, pols = policies
        want = [
            stationarity_residual(mdp, one_sweep_iterate(mdp, p, BETA_CERT), BETA_CERT)
            for p in pols
        ]
        single = [residual_from_policy(mdp, p, BETA_CERT) for p in pols]
        stack = PolicyStack.of(pols[0].degree, pols)
        stacked = residual_from_policy(mdp, stack, BETA_CERT)
        assert all(type(r) is float for r in single) and stacked.shape == (3,)
        np.testing.assert_allclose(single, want, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(stacked, want, rtol=0.0, atol=1e-14)
        assert want[1] < 1e-8 < min(want[0], want[2])

    def test_policy_bump_detected(self, policies):
        # bump the massed entry where the policy relation is worst, away from
        # the Gibbs table, and take the bump back from another action
        mdp, pols = policies
        for policy in pols:
            it = one_sweep_iterate(mdp, policy, BETA_CERT)
            before = stationarity_residual(mdp, it, BETA_CERT)
            fresh = backward_pass(mdp, list(it.nu), BETA_CERT, policy.degree)[2]
            diffs = [q - f for q, f in zip(policy.tables, fresh.tables)]
            scores = [np.where(mu[..., None] > 1e-12, np.abs(d), -1.0)
                      for mu, d in zip(it.belief.mus, diffs)]
            t = max(range(mdp.horizon), key=lambda s: scores[s].max())
            x, h, u = np.unravel_index(scores[t].argmax(), scores[t].shape)
            step = DELTA if diffs[t][x, h, u] >= 0.0 else -DELTA
            tables = [np.array(q) for q in policy.tables]
            row = tables[t][x, h]
            other = max((a for a in range(len(row)) if a != u), key=row.__getitem__)
            row[u] += step
            row[other] -= step
            assert row.min() >= 0.0
            bumped = replace(it, policy=td.MemoryPolicy(policy.degree, tuple(tables)))
            after = stationarity_residual(mdp, bumped, BETA_CERT)
            assert after >= before + DELTA - 1e-12


class TestStationarityResidualInputs:
    """stationarity_residual checks beta and every array of the iterate
    against the instance at the policy's degree."""

    @pytest.fixture(scope="class")
    def case(self):
        mdp = oracle.random_mdp(np.random.default_rng(33), 3, 3, 3)
        pol = oracle.random_policy(np.random.default_rng(34), mdp, 1)
        return mdp, one_sweep_iterate(mdp, pol, BETA_CERT)

    @pytest.mark.parametrize("beta", [-1.0, 0.0, math.nan, math.inf, True, "1"])
    def test_bad_beta_rejected(self, case, beta):
        # beta = -1 once returned a residual
        mdp, it = case
        with pytest.raises(InstanceError, match="beta must be positive and finite"):
            stationarity_residual(mdp, it, beta)

    def test_mis_shaped_iterate_rejected(self, case):
        mdp, it = case
        stacked, _ = forward_pass(mdp, PolicyStack.of(1, [it.policy, it.policy]))
        for bad, match in [
            (replace(it, nu=it.nu[:-1]), "2 marginals for horizon 3"),
            (replace(it, nu=(it.nu[0][:, :1], *it.nu[1:])), "marginal 0 has shape"),
            (replace(it, rho=(None,) * 3), r"rho 0 has shape \(\)"),
            (replace(it, rho=tuple(r.swapaxes(-1, -3) for r in it.rho)), r"rho \d has shape"),
            (replace(it, log_phi=it.log_phi[1:]), "3 log phis for horizon 3"),
            (replace(it, log_phi=(*it.log_phi[:-1], it.log_phi[-1][:, :1])),
             "log phi 3 has shape"),
            (replace(it, belief=stacked), r"after batch shape \(\)"),
            (replace(it, belief=td.ReducedBelief(0, it.belief.mus)),
             "belief degree 0 != policy degree 1"),
        ]:
            with pytest.raises(InstanceError, match=match):
                stationarity_residual(mdp, bad, BETA_CERT)

    def test_iterate_of_another_instance_rejected(self, case):
        mdp, _ = case
        other = oracle.random_mdp(np.random.default_rng(35), 3, 4, 4)
        pol = oracle.random_policy(np.random.default_rng(36), other, 1)
        with pytest.raises(InstanceError, match="instance requires"):
            stationarity_residual(mdp, one_sweep_iterate(other, pol, BETA_CERT), BETA_CERT)

    def test_non_numeric_marginals_rejected(self, case):
        mdp, it = case
        with pytest.raises(InstanceError, match="marginals are not numeric"):
            backward_pass(mdp, [["x"]] * 3, BETA_CERT, 1)
        with pytest.raises(InstanceError, match="marginals are not numeric"):
            stationarity_residual(mdp, replace(it, nu=({"a": 1},) * 3), BETA_CERT)


class TestClassicalBlahut:
    def test_zero_cost(self):
        sol = td.classical_blahut(np.array([0.3, 0.7]), np.zeros((2, 3)), 1.0)
        assert abs(sol.value) < 1e-12
        np.testing.assert_allclose(sol.policy[0], sol.policy[1], atol=1e-12)

    def test_closed_form_fixed_point(self):
        sol = td.classical_blahut(
            np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0
        )
        assert abs(sol.policy[0, 0] - Q_STAR) < 1e-12
        assert sol.converged

    def test_extreme_beta_against_grid_oracle(self):
        prior = np.array([0.5, 0.5])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        # expensive information: the policy flattens toward its marginal
        sol = td.classical_blahut(prior, cost, beta=100.0)
        assert abs(sol.value - symmetric_classical_minimum(100.0)) < 1e-6
        assert abs(sol.policy[0, 0] - 0.5) < 0.01
        # cheap information: near-deterministic matching, about one bit used
        sol = td.classical_blahut(prior, cost, beta=0.01)
        assert abs(sol.value - symmetric_classical_minimum(0.01)) < 1e-6
        assert sol.policy[0, 0] > 0.99
        info = sol.value / 0.01 - 100.0 * (
            0.5 * sol.policy[0, 1] + 0.5 * sol.policy[1, 0]
        )
        assert abs(info - math.log(2.0)) < 0.01

    def test_zero_prior_states_get_uniform_rows(self):
        sol = td.classical_blahut(
            np.array([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0
        )
        np.testing.assert_allclose(sol.policy[1], [0.5, 0.5], atol=1e-15)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_zero_prior_state_keeps_value_finite_when_costs_overflow(self):
        # c / beta overflows, so the zero-mass state's log partition is NaN;
        # it must not reach the value through 0 * NaN
        toy = td.build_nonconvex_toy()
        sol = td.classical_blahut(np.array([1.0, 0.0]), toy.stage_costs[1], 1e-320)
        assert sol.converged and sol.iterations == 2
        assert sol.value == 0.0
        np.testing.assert_array_equal(sol.policy, [[1.0, 0.0], [0.5, 0.5]])

    @pytest.mark.parametrize("beta", [0.3, 1.0, 4.0])
    def test_batched_priors_equal_single_calls(self, beta):
        # priors with zero entries, the two point masses, and members that
        # stop before max_iters next to members the cap stops
        rng = np.random.default_rng(7)
        cost = rng.random((4, 3)) * 2.0
        priors = rng.random((9, 4))
        priors[2, 1] = priors[3, :2] = priors[4, 1:] = 0.0
        priors /= priors.sum(axis=1, keepdims=True)
        priors = np.concatenate([priors, np.eye(4)[:2]])
        free = td.classical_blahut(priors, cost, beta)
        assert free.converged.all() and (free.gap <= 1e-12).all()
        for prior, value, gap in zip(priors, free.value, free.gap):
            # the certified bracket holds the plain loop's limit, up to the
            # roundoff of the gap (the bound is tight for some members)
            plain = one_prior_blahut(prior, cost, beta, 100_000)
            assert value - gap <= plain + 1e-15 and plain <= value + 1e-12
        cap = int(np.sort(free.iterations)[len(priors) // 2])
        batch = td.classical_blahut(priors, cost, beta, max_iters=cap)
        assert 0 < batch.converged.sum() < len(priors)
        assert (batch.iterations <= cap).all()
        for i, prior in enumerate(priors):
            one = td.classical_blahut(prior, cost, beta, max_iters=cap)
            member = td.ClassicalSolution(*(f[i] for f in vars(batch).values()))
            for name, field in vars(one).items():
                assert np.array_equal(field, getattr(member, name)), name
            assert one.converged == (one.gap <= 1e-12)
        assert isinstance(one.value, float) and isinstance(one.gap, float)
        assert isinstance(one.iterations, int)

    @pytest.mark.parametrize("beta", [1e4, 1e7])
    def test_large_beta_certified_to_roundoff(self, beta):
        # two ulps of s (2 beta eps) exceed tol here, so the stop asks for
        # what float64 resolves; the tol alone left members at the cap
        rng = np.random.default_rng(7)
        cost = rng.random((4, 3)) * 2.0
        priors = rng.random((9, 4))
        priors /= priors.sum(axis=1, keepdims=True)
        sol = td.classical_blahut(priors, cost, beta)
        assert sol.converged.all() and sol.iterations.max() < 100
        assert (sol.gap <= 2.0 * beta * np.finfo(float).eps).all()

    @pytest.mark.parametrize("seed", [907_003, 907_008])
    def test_criterion_7_boundary_priors_certified(self, monkeypatch, seed):
        # these trials hold the priors whose optimum puts no mass on an
        # action; the plain loop left them at its 100,000-iteration cap
        solutions = []
        real = oracle.classical_blahut

        def recorded(prior, cost, beta):
            solutions.append(real(prior, cost, beta))
            return solutions[-1]

        monkeypatch.setattr(oracle, "classical_blahut", recorded)
        mdp, beta = eq10_trial(seed)
        oracle.directed_optimum_t2(mdp, beta, 0.05)
        assert len(solutions) == mdp.action_cards[0]
        for sol in solutions:
            assert sol.converged.all() and sol.gap.max() <= 1e-12
            assert sol.iterations.max() < 200

    def test_capped_member_returns_the_best_point_of_its_run(self, monkeypatch):
        # a cap can fall right after a dropped SqS3 point; the member then
        # returns the lowest value its run evaluated, and that point's gap
        visited = []
        real = solver._blahut_map

        def recorded(x, *args):
            out = real(x, *args)
            visited.append(out[0][0])
            return out

        monkeypatch.setattr(solver, "_blahut_map", recorded)
        rng = np.random.default_rng(7)
        cost = rng.random((4, 3)) * 2.0
        prior = rng.random(4)
        prior /= prior.sum()
        optimum = td.classical_blahut(prior, cost, 0.3).value
        after_drop = 0
        for cap in range(2, 30):
            visited.clear()
            sol = td.classical_blahut(prior, cost, 0.3, max_iters=cap)
            if sol.converged:
                break
            run = visited[:cap]
            after_drop += run[-1] > min(run)
            assert sol.value == min(run) and sol.iterations == cap
            assert optimum <= sol.value and sol.value - sol.gap <= optimum + 1e-15
        assert after_drop > 0

    def test_a_dropped_point_counts_its_fallback_evaluation(self, monkeypatch):
        # a member that drops its SqS3 point evaluates the plain double step
        # in the same step; iterations counts both, alone and in a batch
        evaluated = []
        real = solver._blahut_map

        def recorded(x, *args):
            out = real(x, *args)
            evaluated.append(out[0])
            return out

        monkeypatch.setattr(solver, "_blahut_map", recorded)
        rng = np.random.default_rng(7)
        cost = rng.random((4, 3)) * 2.0
        priors = rng.random((9, 4))
        priors /= priors.sum(axis=1, keepdims=True)
        batch = td.classical_blahut(priors, cost, 0.3)
        assert batch.converged.all()
        assert sum(len(v) for v in evaluated) == batch.iterations.sum()
        drops = 0
        for prior, iterations in zip(priors, batch.iterations):
            evaluated.clear()
            one = td.classical_blahut(prior, cost, 0.3)
            values = [v[0] for v in evaluated]
            assert one.iterations == len(values) == iterations
            drops += sum(b > a for a, b in zip(values, values[1:]))
        assert drops > 0

    @pytest.mark.parametrize("kwargs, message", [
        # max_iters=0 returned its empty buffers, tol=nan ran to the cap
        ({"max_iters": 0}, "max_iters"), ({"max_iters": 2.5}, "max_iters"),
        ({"tol": math.nan}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": math.inf}, "tol"),
    ])
    def test_bad_cap_or_tolerance_rejected(self, kwargs, message):
        with pytest.raises(InstanceError, match=message):
            td.classical_blahut(np.array([0.5, 0.5]), np.eye(2), 1.0, **kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_rejected(self, bad):
        # a NaN, or +inf in every action of a massed state, ran to the cap
        # and returned a NaN value and gap
        for cost in (np.array([[0.0, bad], [1.0, 0.0]]), np.array([[bad, bad], [1.0, 0.0]])):
            with pytest.raises(InstanceError, match="non-finite"):
                td.classical_blahut(np.array([0.5, 0.5]), cost, 1.0)

    @pytest.mark.parametrize("row", [[0.5, -0.1, 0.6], [0.5, 0.2, 0.2],
                                     [0.5, math.nan, 0.5]])
    def test_bad_prior_row_raises_as_alone(self, row):
        cost = np.zeros((3, 2))
        priors = np.array([[0.2, 0.3, 0.5], row, [1.0, 0.0, 0.0]])
        for prior in (priors, np.array(row)):
            with pytest.raises(InstanceError, match="not a probability distribution"):
                td.classical_blahut(prior, cost)


class TestFreeEnergy:
    def test_classical_symmetric_matches_cost_plus_information(self):
        mdp = binary_hamming()
        rep = td.solve(mdp, td.SolveOptions(beta=1.0, degree=0))
        _, nu = forward_pass(mdp, rep.policy)
        _, log_phi, _ = backward_pass(mdp, nu, 1.0, 0)
        assert abs(free_energy(log_phi[0], mdp.initial, 1.0) - rep.total) < 1e-12

    def test_zero_costs_zero(self):
        p = np.full((2, 2, 2), 0.5)
        mdp = td.FiniteMdp(
            (p,) * 3, (np.zeros((2, 2)),) * 3, np.zeros(2), np.array([0.5, 0.5])
        )
        rep = td.solve(mdp, td.SolveOptions(beta=1.0, degree=0))
        _, nu = forward_pass(mdp, rep.policy)
        _, log_phi, _ = backward_pass(mdp, nu, 1.0, 0)
        assert abs(free_energy(log_phi[0], mdp.initial, 1.0)) < 1e-12

    def test_converged_solve_matches_total(self):
        rng = np.random.default_rng(29)
        mdp = oracle.random_mdp(rng, 6)
        beta = 1.7
        rep = td.solve(mdp, td.SolveOptions(beta=beta, degree=1, init="perturbed", seed=6))
        assert rep.converged
        _, nu = forward_pass(mdp, rep.policy)
        _, log_phi, _ = backward_pass(mdp, nu, beta, 1)
        assert abs(free_energy(log_phi[0], mdp.initial, beta) - rep.total) < 1e-8

    def test_inputs_checked(self):
        # a log_phi_first that does not match initial once raised a bare
        # ValueError from a reshape, and beta was not checked
        initial = np.array([0.25, 0.75])
        assert free_energy(np.array([[1.0], [2.0]]), initial, 2.0) == -3.5
        assert free_energy(np.array([1.0, 2.0]), initial, 2.0) == -3.5
        for log_phi in (np.zeros(3), np.zeros((3, 1)), np.zeros((2, 0)), np.zeros((2, 1, 1)),
                        np.float64(1.0)):
            with pytest.raises(InstanceError, match="does not match initial"):
                free_energy(log_phi, initial, 1.0)
        for beta in (0.0, -1.0, math.nan, True):
            with pytest.raises(InstanceError, match="beta must be positive"):
                free_energy(np.zeros(2), initial, beta)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_one_sweep_from_random_policy_is_factored_objective(self, degree):
        # the telescoping identity the objective trace rests on holds after
        # any backward pass, not only at a fixed point
        rng = np.random.default_rng(40 + degree)
        mdp = oracle.random_mdp(rng, 4)
        beta = 0.8
        q = oracle.random_policy(rng, mdp, degree)
        _, nu = forward_pass(mdp, q)
        _, log_phi, q_new = backward_pass(mdp, nu, beta, degree)
        assert residual_from_policy(mdp, q, beta) > 1e-3
        want = td.factored_objective(mdp, q_new, nu, beta)
        got = free_energy(log_phi[0], mdp.initial, beta)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_flat_objective_equals_factored_objective(self, degree):
        # the row objective (trace[0]'s) and the factored objective, both
        # ``objective_rows``, against the brute-force oracle's batched totals, an
        # independent path (F at a policy's own marginals is its total); a
        # member that never plays action 0 has zero entries and massless
        # histories
        rng = np.random.default_rng(60 + degree)
        mdp = oracle.random_mdp(rng, 5)
        pols = [oracle.random_policy(rng, mdp, degree) for _ in range(2)]
        tables = []
        for q in oracle.random_policy(rng, mdp, degree).tables:
            q = q.copy()
            q[..., 0] = 0.0
            tables.append(q / q.sum(axis=2, keepdims=True))
        stack = PolicyStack.of(degree, [*pols, td.MemoryPolicy(degree, tuple(tables))])
        plan = mdp.sweep_plan(degree)
        flat = plan.layout
        q = flat.tables.join(stack.tables)
        assert all(np.array_equal(a, b) for a, b in zip(flat.tables.split(q), stack.tables))
        belief, nu = forward_pass(mdp, stack)
        flow = plan.forward_flat(q)
        with np.errstate(divide="ignore"):
            log_q = np.log(q)
        got = objective_rows(mdp, flat, 0.8, plan.lam(len(q)), log_q, flow)
        want = oracle._batched_objective(mdp, 0.8, degree, list(stack.tables))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        got = td.factored_objective(mdp, stack, nu, 0.8, belief)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_solve_trace_equals_factored_objective_of_hand_sweeps(self):
        rng = np.random.default_rng(41)
        mdp = oracle.random_mdp(rng, 5)
        opts = td.SolveOptions(
            beta=0.6, degree=1, init="perturbed", seed=2, max_iters=4
        )
        rep = td.solve(mdp, opts)
        q = td.MemoryPolicy.perturbed(mdp, 1, seed=2)
        _, nu = forward_pass(mdp, q)
        want = [td.factored_objective(mdp, q, nu, opts.beta)]
        for _ in range(3):
            _, _, q = backward_pass(mdp, nu, opts.beta, 1)
            want.append(td.factored_objective(mdp, q, nu, opts.beta))
            _, nu = forward_pass(mdp, q)
        assert rep.iterations == 4 and not rep.converged
        np.testing.assert_allclose(rep.objective_trace, want, rtol=1e-12, atol=0)


def backward_passes(monkeypatch):
    """Record, from then on, each row of each backward pass: its free energy
    as ``_sweeps`` computes it, whether it ran on a SqS3 point (an output of
    ``_Cycle.add``), and copies of its marginals and its Gibbs tables.
    Returns the list of (value, point, nu, q) rows."""
    passes, points = [], []
    real_add, real_backward = solver._Cycle.add, SweepPlan.backward_flat

    def add(cycle, nu, bound):
        out = real_add(cycle, nu, bound)
        points[:] = [] if out is None else [out[0]]
        return out

    def backward_flat(plan, nu, beta):
        log_phi, q = real_backward(plan, nu, beta)
        first = log_phi[:, None, :len(plan.initial)]
        free = (-beta * (first @ plan.initial[:, None])[:, 0, 0]).tolist()
        point = bool(points) and nu is points[0]
        passes.extend((v, point, n, t) for v, n, t in zip(free, nu.copy(), q.copy()))
        return log_phi, q

    monkeypatch.setattr(solver._Cycle, "add", add)
    monkeypatch.setattr(SweepPlan, "backward_flat", backward_flat)
    return passes


class Moves(list):
    """``active_set_moves``' records; ``sweeps`` counts forward passes since
    the list was made or last cleared."""

    sweeps = 0

    def clear(self):
        super().clear()
        self.sweeps = 0


def active_set_moves(monkeypatch):
    """Record, from then on, each active-set check that moves a marginal as
    [sweep, free energies of its trial backward pass, the check's trial
    rows, its changed mask].  Returns the ``Moves`` list."""
    moves = Moves()
    real_check, real_forward = solver._Cycle.check, SweepPlan.forward_flat
    real_backward = SweepPlan.backward_flat

    def forward_flat(plan, q):
        moves.sweeps += 1
        return real_forward(plan, q)

    def check(cycle, flow, q):
        trial, changed = real_check(cycle, flow, q)
        if changed.any():
            moves.append([moves.sweeps, None, trial.copy(), changed.copy()])
        return trial, changed

    def backward_flat(plan, nu, beta):
        log_phi, q = real_backward(plan, nu, beta)
        if moves and moves[-1][1] is None:  # the trial pass follows its check
            first = log_phi[:, None, :len(plan.initial)]
            moves[-1][1] = (-beta * (first @ plan.initial[:, None])[:, 0, 0]).tolist()
        return log_phi, q

    monkeypatch.setattr(solver._Cycle, "check", check)
    monkeypatch.setattr(SweepPlan, "forward_flat", forward_flat)
    monkeypatch.setattr(SweepPlan, "backward_flat", backward_flat)
    return moves


def assert_same_report(a, b):
    """Every SolveReport field but the wall time, bit for bit."""
    assert [q.tobytes() for q in a.policy.tables] == [
        q.tobytes() for q in b.policy.tables
    ]
    assert a.objective_trace.tobytes() == b.objective_trace.tobytes()
    assert (a.iterations, a.converged, a.residual, a.cost, a.total) == (
        b.iterations, b.converged, b.residual, b.cost, b.total
    )


class TestMultiStart:
    def test_plan_starts_have_full_support(self):
        mdp = td.build_maze(td.sample_maze_spec(horizon=10))
        for pol in plan_start_policies(mdp, 0, 3):
            for q in pol.tables:
                assert (q > 0).all()

    def test_screened_equals_full_solve_winner_on_toy(self):
        toy = td.build_nonconvex_toy()
        opts = td.SolveOptions(beta=1.0, degree=0)
        full = td.multi_start(toy, opts, starts=4, seed=9)
        screened = td.multi_start(toy, opts, starts=4, seed=9, screen_iters=50)
        assert len(screened) == 1
        assert abs(min(r.total for r in full) - screened[0].total) < 1e-9

    def test_deterministic_report_list(self):
        toy = td.build_nonconvex_toy()
        opts = td.SolveOptions(beta=1.0, degree=0)
        a = td.multi_start(toy, opts, starts=3, seed=1, plan_starts=2)
        b = td.multi_start(toy, opts, starts=3, seed=1, plan_starts=2)
        assert [r.total for r in a] == [r.total for r in b]

    @pytest.mark.parametrize("screen_iters", [3, 5])
    def test_screening_and_polishing_share_max_iters(self, screen_iters):
        mdp = oracle.random_mdp(np.random.default_rng(1), 5)
        opts = td.SolveOptions(beta=0.3, max_iters=5)
        (rep,) = td.multi_start(
            mdp, opts, starts=1, seed=0, screen_iters=screen_iters
        )
        assert rep.iterations <= opts.max_iters
        assert len(rep.objective_trace) == rep.iterations

    @pytest.mark.parametrize("degree, maze", [
        *(pytest.param(n, False, id=str(n)) for n in (0, 1, 2)),
        # the T=25 sample maze; its members try SqS3 points and converge at
        # different sweeps
        pytest.param(0, True, id="maze-0"),
    ])
    def test_batched_starts_equal_starts_run_alone(self, degree, maze):
        if maze:
            mdp = td.build_maze(td.sample_maze_spec(horizon=25))
        else:
            mdp = oracle.random_mdp(np.random.default_rng(40), 4, 4, 3)
        opts = td.SolveOptions(beta=0.8, degree=degree, max_iters=300)
        # the start set multi_start builds: uniform, 2 plans, 3 perturbed
        seeds = np.random.default_rng(5).integers(0, 2**63 - 1, size=3)
        starts = [td.MemoryPolicy.uniform(mdp, degree)]
        starts += plan_start_policies(mdp, degree, 2)
        starts += [td.MemoryPolicy.perturbed(mdp, degree, int(s)) for s in seeds]
        full = td.multi_start(mdp, opts, starts=3, seed=5, plan_starts=2)
        # members leave the batch at different sweeps
        assert len({r.iterations for r in full}) > 1
        for rep, q0 in zip(full, starts, strict=True):
            alone = solver._solve_batch(mdp, opts, reachable_rows(mdp, [q0]))
            assert_same_report(rep, alone[0])
        # screened: the batch screens as each start alone would, and the
        # winner is polished as a batch of one.  multi_start screens on the
        # reachable states, whose sums round differently from the full maze's
        cut = mdp.restriction
        rows = reachable_rows(mdp, starts)
        ones = [rows[[i]] for i in range(len(rows))]
        alone = [solver._sweeps(cut.mdp, opts, one, 9) for one in ones]
        rest = solver._sweeps(cut.mdp, opts, rows, 9)
        assert all(len(r) == len(alone) for r in rest)
        for i, (one, one_rest) in enumerate(zip(ones, alone)):
            assert rows[i].tobytes() == one[0].tobytes()
            # trace, iterations, converged
            assert [r[i] for r in rest] == [r[0] for r in one_rest]
        low = min(traces[0][-1] for traces, _, _ in alone)
        i = next(i for i, s in enumerate(alone) if s[0][0][-1] - low <= 1e-12 * abs(low))
        (tr,), (iters,), _ = alone[i]
        want = solver._solve_batch(mdp, opts, ones[i], iters_used=iters, trace_prefix=tr)
        (got,) = td.multi_start(
            mdp, opts, starts=3, seed=5, plan_starts=2, screen_iters=9
        )
        assert_same_report(got, want[0])

    def test_members_that_keep_sqs3_points_equal_their_solo_solves(self, monkeypatch):
        # degree 1: every start tries SqS3 points, members keep some (a kept
        # point's free energy enters the trace) and leave at their own
        # sweeps, each report its start's solo solve bit for bit
        mdp = oracle.random_mdp(np.random.default_rng(40), 4, 4, 3)
        opts = td.SolveOptions(beta=0.8, degree=1, max_iters=300)
        full = td.multi_start(mdp, opts, starts=3, seed=5, plan_starts=2)
        assert len({r.iterations for r in full}) > 1
        seeds = np.random.default_rng(5).integers(0, 2**63 - 1, size=3)
        starts = [td.MemoryPolicy.uniform(mdp, 1)] + plan_start_policies(mdp, 1, 2)
        starts += [td.MemoryPolicy.perturbed(mdp, 1, int(s)) for s in seeds]
        passes = backward_passes(monkeypatch)  # the free energies of the points tried
        kept = 0
        for rep, q0 in zip(full, starts, strict=True):
            passes.clear()
            (alone,) = solver._solve_batch(mdp, opts, reachable_rows(mdp, [q0]))
            assert_same_report(rep, alone)
            points = {v for v, point, _, _ in passes if point}
            assert points
            kept += len(points & set(alone.objective_trace.tolist()))
        assert kept > 0

    def test_members_that_drop_points_on_different_sweeps_equal_their_solo_solves(
        self, monkeypatch
    ):
        # degree 2: on some SqS3 sweep of the batch a strict subset of the
        # members that try points drops them, so the plain marginals' second
        # backward pass runs on that subset alone; each report is still its
        # start's solo solve bit for bit
        mdp = oracle.random_mdp(np.random.default_rng(44), 4, 4, 3)
        opts = td.SolveOptions(beta=0.5, degree=2, max_iters=300)
        splits = []
        real = solver._step_bound

        def step_bound(bound, alpha, kept):
            tried = [b > 0.0 for b in bound]
            splits.append((sum(tried), sum(t and not k for t, k in zip(tried, kept))))
            return real(bound, alpha, kept)

        monkeypatch.setattr(solver, "_step_bound", step_bound)
        full = td.multi_start(mdp, opts, starts=4, seed=9, plan_starts=1)
        monkeypatch.undo()
        assert any(0 < dropped < tried for tried, dropped in splits)
        seeds = np.random.default_rng(9).integers(0, 2**63 - 1, size=4)
        starts = [td.MemoryPolicy.uniform(mdp, 2)] + plan_start_policies(mdp, 2, 1)
        starts += [td.MemoryPolicy.perturbed(mdp, 2, int(s)) for s in seeds]
        for rep, q0 in zip(full, starts, strict=True):
            (alone,) = solver._solve_batch(mdp, opts, reachable_rows(mdp, [q0]))
            assert_same_report(rep, alone)

    def test_members_that_hold_on_different_sweeps_equal_their_solo_solves(
        self, monkeypatch
    ):
        # solo, some starts keep their first active-set move on sweep 10 and
        # others on sweep 20, as the batch's members do on its shared
        # sweeps; each report is still its start's solo solve bit for bit
        mdp = oracle.random_mdp(np.random.default_rng(43), 4, 4, 3)
        opts = td.SolveOptions(beta=0.8, degree=1, max_iters=300)
        full = td.multi_start(mdp, opts, starts=3, seed=5, plan_starts=2)
        seeds = np.random.default_rng(5).integers(0, 2**63 - 1, size=3)
        starts = [td.MemoryPolicy.uniform(mdp, 1)] + plan_start_policies(mdp, 1, 2)
        starts += [td.MemoryPolicy.perturbed(mdp, 1, int(s)) for s in seeds]
        moves = active_set_moves(monkeypatch)
        first = set()
        for rep, q0 in zip(full, starts, strict=True):
            moves.clear()
            (alone,) = solver._solve_batch(mdp, opts, reachable_rows(mdp, [q0]))
            assert_same_report(rep, alone)
            trace = alone.objective_trace
            first.add(min(k for k, (v,), _, _ in moves if trace[k] == v))
        assert first == {10, 20}

    @pytest.mark.parametrize("degree", [0, 2])
    def test_swept_members_are_certified_in_one_call(self, monkeypatch, degree):
        # full mode certifies all swept members with one stacked certificate;
        # each report's tail equals the one computed for its policy alone
        mdp = oracle.random_mdp(np.random.default_rng(40), 4, 4, 3)
        opts = td.SolveOptions(beta=0.6, degree=degree, max_iters=300)
        seeds = np.random.default_rng(5).integers(0, 2**63 - 1, size=3)
        starts = [td.MemoryPolicy.uniform(mdp, degree)]
        starts += plan_start_policies(mdp, degree, 2)
        starts += [td.MemoryPolicy.perturbed(mdp, degree, int(s)) for s in seeds]
        rows = reachable_rows(mdp, starts)
        swept = solver._sweeps(mdp.restriction.mdp, opts, rows, opts.max_iters)
        stacks = []
        real = solver._certificate

        def certificate(plan, q, *args):
            stacks.append(len(q))
            return real(plan, q, *args)

        monkeypatch.setattr(solver, "_certificate", certificate)
        reports = td.multi_start(mdp, opts, starts=3, seed=5, plan_starts=2)
        assert stacks == [6]
        monkeypatch.undo()
        layout = mdp.sweep_plan(degree).layout
        for i, (rep, (trace, iterations, converged)) in enumerate(
            zip(reports, zip(*swept), strict=True)
        ):
            q = td.MemoryPolicy(degree, layout.tables.split(rows[i]))
            belief, _ = forward_pass(mdp, q)
            final = td.canonicalize_policy(mdp, q, belief)
            cost = td.expected_cost(mdp, final, belief)
            info = float(td.per_step_information(mdp, final, belief).sum())
            assert [a.tobytes() for a in rep.policy.tables] == [
                b.tobytes() for b in final.tables
            ]
            assert (rep.cost, rep.information_nats, rep.total) == (
                cost, info, cost + opts.beta * info
            )
            assert rep.residual == residual_from_policy(mdp, final, opts.beta)
            assert rep.objective_trace.tobytes() == np.asarray(trace).tobytes()
            assert (rep.iterations, rep.converged) == (iterations, converged)

    @pytest.mark.parametrize(
        "poisoned, message",
        [({2: 3, 1: 6}, "iteration 7"), ({2: 3, 1: 6, 0: 8}, "iteration 9")],
    )
    def test_earliest_failing_start_is_raised(self, monkeypatch, poisoned, message):
        # a start's sweep k + 1 records trace[k]; make chosen ones non-finite.
        # The failure raised is the earliest start's, as if the starts ran one
        # after another, so start 0 must sweep on after starts 1 and 2 fail
        mdp = oracle.random_mdp(np.random.default_rng(40), 4, 4, 3)
        opts = td.SolveOptions(beta=0.6, max_iters=300)
        traces = [r.objective_trace for r in td.multi_start(mdp, opts, 2, seed=5)]
        poison = {traces[i][k] for i, k in poisoned.items()}
        assert sum(v in poison for tr in traces for v in tr) == len(poisoned)
        real = SweepPlan.backward_flat

        def backward_flat(plan, nu, beta):
            # a member's free energy is read from its log phi_0: poison that
            log_phi, q = real(plan, nu, beta)
            first = log_phi[..., :len(plan.initial)]
            for lp in first.reshape(-1, first.shape[-1]):
                if free_energy(lp, plan.initial, beta) in poison:
                    lp[:] = math.nan
            return log_phi, q

        monkeypatch.setattr(SweepPlan, "backward_flat", backward_flat)
        with pytest.raises(NumericalError, match=f"{message}$"):
            td.multi_start(mdp, opts, 2, seed=5)

    @pytest.mark.parametrize("degree", [0, 1])
    @pytest.mark.parametrize("per_chunk", [1, 2, 4])
    def test_over_budget_starts_are_swept_in_chunks(
        self, monkeypatch, degree, per_chunk
    ):
        # a cell budget that fits per_chunk stacked starts: the six starts are
        # swept in consecutive chunks, and every report, full or screened,
        # equals the unchunked one byte for byte
        mdp = oracle.random_mdp(np.random.default_rng(40), 4, 4, 3)
        opts = td.SolveOptions(beta=0.6, degree=degree, max_iters=300)
        calls = dict(starts=3, seed=5, plan_starts=2)
        full = td.multi_start(mdp, opts, **calls)
        (screened,) = td.multi_start(mdp, opts, screen_iters=9, **calls)
        batches = []
        real = solver._sweeps

        def sweeps(mdp, opts, rows, *args):
            batches.append(len(rows))
            return real(mdp, opts, rows, *args)

        monkeypatch.setattr(solver, "_sweeps", sweeps)
        cells = mdp.sweep_plan(degree).cells
        budget = (per_chunk + 1) * cells - 1  # fits per_chunk starts, not one more
        monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", budget)
        chunked = td.multi_start(mdp, opts, **calls)
        sizes = [min(per_chunk, 6 - i) for i in range(0, 6, per_chunk)]
        assert batches == sizes
        for a, b in zip(chunked, full, strict=True):
            assert_same_report(a, b)
        batches.clear()
        (got,) = td.multi_start(mdp, opts, screen_iters=9, **calls)
        assert batches == sizes + [1]  # the winner is polished alone
        assert_same_report(got, screened)

    def test_chunked_screening_ties_go_to_the_earliest_start(self, monkeypatch):
        # the tie case below, its five starts screened two at a time: the
        # uniform start, first of the first chunk, must still win
        mdp = td.build_maze(td.sample_maze_spec(horizon=10))
        opts = td.SolveOptions(beta=2.0, max_iters=150)
        calls = dict(starts=1, seed=3, plan_starts=3, screen_iters=300)
        (whole,) = td.multi_start(mdp, opts, **calls)
        cells = mdp.restriction.mdp.sweep_plan(0).cells  # what the chunks hold
        monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", 2 * cells)
        (chunked,) = td.multi_start(mdp, opts, **calls)
        (first,) = td.multi_start(mdp, opts, starts=0, seed=3, screen_iters=300)
        assert_same_report(chunked, whole)
        assert_same_report(chunked, first)

    @pytest.mark.parametrize("screen_iters", [0, -1, 2.5])
    def test_nonpositive_screen_iters_rejected(self, screen_iters):
        with pytest.raises(InstanceError, match="screen_iters"):
            td.multi_start(
                td.build_nonconvex_toy(), td.SolveOptions(beta=1.0),
                starts=1, seed=0, screen_iters=screen_iters,
            )

    def test_negative_seed_rejected(self):
        toy, opts = td.build_nonconvex_toy(), td.SolveOptions(beta=1.0)
        with pytest.raises(InstanceError, match="seed"):
            td.multi_start(toy, opts, starts=1, seed=-1)
        with pytest.raises(InstanceError, match="seed must be an integer"):
            td.multi_start(toy, opts, starts=1, seed=2.5)
        with pytest.raises(InstanceError, match="seed"):
            td.solve(toy, replace(opts, init="perturbed", seed=-1))

    def test_negative_plan_start_count_rejected(self):
        # plan_starts=-1 next to starts=2 counted two starts but built three
        toy, opts = td.build_nonconvex_toy(), td.SolveOptions(beta=1.0)
        with pytest.raises(InstanceError, match="plan_starts must be an integer >= 0"):
            td.multi_start(toy, opts, starts=2, seed=0, plan_starts=-1)
        with pytest.raises(InstanceError, match="needs a start"):
            td.multi_start(toy, opts, starts=0, seed=0, include_uniform=False)
        for counts in ({"starts": 1.5}, {"starts": 1, "plan_starts": 1.5}):
            with pytest.raises(InstanceError, match="must be an integer"):
                td.multi_start(toy, opts, seed=0, **counts)
        with pytest.raises(InstanceError, match="plan start count must be an integer >= 0"):
            plan_start_policies(toy, 0, -1)

    def test_roundoff_ties_go_to_the_earliest_start(self):
        # the goal lies beyond the horizon, so every policy costs the same and
        # every stationary point has total 10010; screened values differ by
        # roundoff alone, and the uniform start, listed first, must win
        mdp = td.build_maze(td.sample_maze_spec(horizon=10))
        opts = td.SolveOptions(beta=2.0, max_iters=150)
        (rep,) = td.multi_start(
            mdp, opts, starts=1, seed=3, plan_starts=3, screen_iters=300
        )
        (first,) = td.multi_start(mdp, opts, starts=0, seed=3, screen_iters=300)
        for a, b in zip(rep.policy.tables, first.policy.tables):
            np.testing.assert_array_equal(a, b)
