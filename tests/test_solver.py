"""Solver tests: sweep mechanics, descent, fixed points, classical case."""

import math
from dataclasses import replace

import numpy as np
import pytest

import termdp as td
from termdp import oracle, solver
from termdp.errors import InstanceError, NumericalError
from termdp.model import gibbs_step
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

from reference import symmetric_classical_minimum

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
    """The single-prior Blahut loop: vector-matrix and dot products, one
    prior at a time.  Returns (policy, marginal, value, iterations,
    converged)."""
    q = np.full_like(cost, 1.0 / cost.shape[1])
    value, converged, iterations = math.inf, False, 0
    for k in range(1, max_iters + 1):
        log_phi, q_new = gibbs_step(p @ q, cost / beta)
        q_new /= q_new.sum(axis=1, keepdims=True)
        new_value = -beta * float(p @ log_phi)
        gap = float(np.abs(q_new - q)[p > 0.0, :].max())
        q, iterations = q_new, k
        converged = abs(new_value - value) < 1e-12 and gap < 1e-12
        value = new_value
        if converged:
            break
    q[p == 0.0, :] = 1.0 / cost.shape[1]
    return q, p @ q, value, iterations, converged


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
        # report's cost, information and certificate share; bare belief
        # propagations count as forward passes too
        calls = []
        for name in ("forward_pass", "propagate_reduced"):
            original = getattr(solver, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(None)
                return _original(*args, **kwargs)

            monkeypatch.setattr(solver, name, counted)
        mdp = oracle.random_mdp(np.random.default_rng(3), 4)
        opts = td.SolveOptions(beta=0.9, degree=1, max_iters=max_iters)
        rep = td.solve(mdp, opts)
        assert rep.converged or rep.iterations == max_iters
        assert len(calls) == rep.iterations + 1

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
        free = [one_prior_blahut(p, cost, beta, 100_000)[3] for p in priors]
        cap = sorted(free)[len(free) // 2]
        batch = td.classical_blahut(priors, cost, beta, max_iters=cap)
        assert 0 < batch.converged.sum() < len(priors)
        for i, prior in enumerate(priors):
            want = one_prior_blahut(prior, cost, beta, cap)
            one = td.classical_blahut(prior, cost, beta, max_iters=cap)
            member = td.ClassicalSolution(*(f[i] for f in vars(batch).values()))
            for sol in (one, member):
                assert np.array_equal(sol.policy, want[0])
                assert np.array_equal(sol.marginal, want[1])
                assert (sol.value, sol.iterations, sol.converged) == want[2:]
        assert isinstance(one.value, float) and isinstance(one.iterations, int)

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

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_batched_starts_equal_starts_run_alone(self, degree):
        mdp = oracle.random_mdp(np.random.default_rng(40), 4, 4, 3)
        opts = td.SolveOptions(beta=0.6, degree=degree, max_iters=300)
        # the start set multi_start builds: uniform, 2 plans, 3 perturbed
        seeds = np.random.default_rng(5).integers(0, 2**63 - 1, size=3)
        starts = [td.MemoryPolicy.uniform(mdp, degree)]
        starts += plan_start_policies(mdp, degree, 2)
        starts += [td.MemoryPolicy.perturbed(mdp, degree, int(s)) for s in seeds]
        full = td.multi_start(mdp, opts, starts=3, seed=5, plan_starts=2)
        # members leave the batch at different sweeps
        assert len({r.iterations for r in full}) > 1
        for rep, q0 in zip(full, starts, strict=True):
            alone = solver._solve_batch(mdp, opts, PolicyStack.of(degree, [q0]))
            assert_same_report(rep, alone[0])
        # screened: the batch screens as each start alone would, and the
        # winner is polished as a batch of one
        alone = [solver._sweeps(mdp, opts, q0, 9, True) for q0 in starts]
        stack, *rest = solver._sweeps(mdp, opts, PolicyStack.of(degree, starts), 9, True)
        assert all(len(r) == len(alone) for r in rest)
        for i, (one, *one_rest) in enumerate(alone):
            assert [q[i].tobytes() for q in stack.tables] == [
                q[0].tobytes() for q in one.tables
            ]
            # trace, iterations, converged
            assert [r[i] for r in rest] == [r[0] for r in one_rest]
        low = min(traces[0][-1] for _, traces, _, _ in alone)
        q, (tr,), (iters,), _ = next(
            s for s in alone if s[1][0][-1] - low <= 1e-12 * abs(low)
        )
        want = solver._solve_batch(mdp, opts, q, iters_used=iters, trace_prefix=tr)
        (got,) = td.multi_start(
            mdp, opts, starts=3, seed=5, plan_starts=2, screen_iters=9
        )
        assert_same_report(got, want[0])

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
        swept = solver._sweeps(
            mdp, opts, PolicyStack.of(degree, starts), opts.max_iters, True
        )
        stacks = []
        real = solver._certificate

        def certificate(mdp, policy, *args):
            stacks.append(policy.tables[0].shape[0])
            return real(mdp, policy, *args)

        monkeypatch.setattr(solver, "_certificate", certificate)
        reports = td.multi_start(mdp, opts, starts=3, seed=5, plan_starts=2)
        assert stacks == [6]
        monkeypatch.undo()
        stack, *rest = swept
        for i, (rep, (trace, iterations, converged)) in enumerate(
            zip(reports, zip(*rest), strict=True)
        ):
            q = td.MemoryPolicy(degree, tuple(t[i] for t in stack.tables))
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
        real = solver.free_energy

        def free_energy(*args):
            value = real(*args)
            return math.nan if value in poison else value

        monkeypatch.setattr(solver, "free_energy", free_energy)
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

        def sweeps(mdp, opts, policy, *args):
            batches.append(len(policy.tables[0]))
            return real(mdp, opts, policy, *args)

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
        cells = mdp.sweep_plan(0).cells
        monkeypatch.setattr(solver, "DEFAULT_CELL_BUDGET", 2 * cells)
        (chunked,) = td.multi_start(mdp, opts, **calls)
        (first,) = td.multi_start(mdp, opts, starts=0, seed=3, screen_iters=300)
        assert_same_report(chunked, whole)
        assert_same_report(chunked, first)

    @pytest.mark.parametrize("screen_iters", [0, -1])
    def test_nonpositive_screen_iters_rejected(self, screen_iters):
        with pytest.raises(InstanceError, match="screen_iters"):
            td.multi_start(
                td.build_nonconvex_toy(), td.SolveOptions(beta=1.0),
                starts=1, seed=0, screen_iters=screen_iters,
            )

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
