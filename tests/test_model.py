"""Model-layer tests: instance validation, propagation, information terms."""

import math

import numpy as np
import pytest

import termdp as td
from termdp import oracle
from termdp.errors import InstanceError, ResourceError
from termdp.model import (
    conditional_mutual_information,
    induced_action_marginals,
    transfer_entropy_terms,
)

from reference import enum_directed_information, enum_te_terms

LN2 = math.log(2.0)


def det_chain(length=3, states=2):
    """Deterministic cycle dynamics: the control picks the next state."""
    p = np.zeros((states, states, states))
    for x in range(states):
        for u in range(states):
            p[x, u, u] = 1.0
    cost = np.zeros((states, states))
    init = np.zeros(states)
    init[0] = 1.0
    return td.FiniteMdp(
        transitions=(p,) * length,
        stage_costs=(cost,) * length,
        terminal_cost=np.zeros(states),
        initial=init,
    )


def det_policy(mdp, action):
    tables = []
    for t in range(mdp.horizon):
        q = np.zeros((mdp.state_cards[t], 1, mdp.action_cards[t]))
        q[:, :, action] = 1.0
        tables.append(q)
    return td.MemoryPolicy(0, tuple(tables))


class TestFiniteMdpValidation:
    def test_row_sum_violation_reports_indices(self):
        p = np.full((2, 2, 2), 0.5)
        p[1, 0] = [0.5, 0.49]
        with pytest.raises(InstanceError, match=r"\(x=1, u=0\)"):
            td.FiniteMdp((p,), (np.zeros((2, 2)),), np.zeros(2), np.array([0.5, 0.5]))

    def test_negative_transition_rejected(self):
        p = np.full((2, 2, 2), 0.5)
        p[0, 1] = [1.5, -0.5]
        with pytest.raises(InstanceError, match="negative"):
            td.FiniteMdp((p,), (np.zeros((2, 2)),), np.zeros(2), np.array([0.5, 0.5]))

    def test_negative_costs_are_fine(self):
        p = np.full((2, 2, 2), 0.5)
        mdp = td.FiniteMdp(
            (p,), (np.array([[-3.0, 1.0], [0.0, -7.5]]),), np.zeros(2),
            np.array([0.5, 0.5]),
        )
        assert mdp.stage_costs[0][0, 0] == -3.0

    def test_non_finite_cost_rejected(self):
        p = np.full((2, 2, 2), 0.5)
        with pytest.raises(InstanceError, match="non-finite"):
            td.FiniteMdp(
                (p,), (np.array([[0.0, np.inf], [0.0, 0.0]]),), np.zeros(2),
                np.array([0.5, 0.5]),
            )

    def test_initial_must_normalize(self):
        p = np.full((2, 2, 2), 0.5)
        with pytest.raises(InstanceError, match="initial"):
            td.FiniteMdp((p,), (np.zeros((2, 2)),), np.zeros(2), np.array([0.6, 0.5]))

    def test_arrays_frozen(self):
        mdp = td.build_nonconvex_toy()
        with pytest.raises(ValueError):
            mdp.initial[0] = 0.3


class TestMemoryPolicy:
    def test_unnormalized_slice_rejected(self):
        q = np.full((2, 1, 2), 0.4)
        with pytest.raises(InstanceError, match="sums to"):
            td.MemoryPolicy(0, (q,))

    @pytest.mark.parametrize("fill", [np.nan, -np.inf])
    def test_non_finite_table_rejected(self, fill):
        # NaN compares false with both the sign and the row-sum check
        with pytest.raises(InstanceError, match="NaN"):
            td.MemoryPolicy(0, (np.full((2, 1, 2), fill),))

    def test_perturbed_is_normalized_and_positive(self):
        mdp = td.build_nonconvex_toy()
        pol = td.MemoryPolicy.perturbed(mdp, 1, seed=3, magnitude=0.5)
        for t, q in enumerate(pol.tables):
            assert q.shape == (2, mdp.history_size(1, t), 2)
            assert (q > 0).all()
            np.testing.assert_allclose(q.sum(axis=2), 1.0, atol=1e-12)

    def test_perturbed_magnitude_bounds(self):
        mdp = td.build_nonconvex_toy()
        with pytest.raises(InstanceError, match="magnitude"):
            td.MemoryPolicy.perturbed(mdp, 0, seed=1, magnitude=1.0)

    def test_dimension_mismatch_detected(self):
        mdp = td.build_nonconvex_toy()
        pol = td.MemoryPolicy.uniform(mdp, 0)
        other = det_chain(length=2, states=3)
        with pytest.raises(InstanceError, match="shape"):
            td.propagate_reduced(other, pol)


class TestPropagation:
    def test_deterministic_composition_gives_point_masses(self):
        mdp = det_chain(3)
        pol = det_policy(mdp, 1)
        belief = td.propagate_reduced(mdp, pol)
        for t in range(1, 4):
            marg = belief.state_marginal(t)
            assert marg[1] == 1.0 and marg.sum() == 1.0

    def test_toy_uniform_second_step_marginal(self):
        # hand summation: the next state copies the control, which is a fair
        # coin under the uniform policy
        toy = td.build_nonconvex_toy()
        belief = td.propagate_reduced(toy, td.MemoryPolicy.uniform(toy, 0))
        np.testing.assert_allclose(belief.state_marginal(1), [0.5, 0.5], atol=1e-15)

    def test_maze_masses_normalized_over_horizon(self):
        mdp = td.build_maze(td.sample_maze_spec(horizon=55))
        pol = td.MemoryPolicy.uniform(mdp, 0)
        belief = td.propagate_reduced(mdp, pol)
        for t in range(56):
            assert abs(belief.mus[t].sum() - 1.0) < 1e-10

    def test_marginal_consistency_between_steps(self):
        rng = np.random.default_rng(5)
        mdp = oracle.random_mdp(rng, 4)
        pol = oracle.random_policy(rng, mdp, 2)
        belief = td.propagate_reduced(mdp, pol)
        for t in range(4):
            mu = belief.mus[t]
            lam = mu[:, :, None] * pol.tables[t]
            pushed = np.einsum("xhu,xuy->yhu", lam, mdp.transitions[t])
            assert abs(pushed.sum() - belief.mus[t + 1].sum()) < 1e-10


class TestWindowJoints:
    def test_zero_width_matches_reduced(self):
        rng = np.random.default_rng(11)
        mdp = oracle.random_mdp(rng, 3)
        pol = oracle.random_policy(rng, mdp, 1)
        reduced = td.propagate_reduced(mdp, pol)
        window = td.propagate_window(mdp, pol, m=0)
        for t in range(4):
            flat = window.joints[t].reshape(window.joints[t].shape[0], -1)
            np.testing.assert_allclose(flat, reduced.mus[t], atol=1e-15)

    def test_deterministic_two_step_window_is_point_mass(self):
        mdp = det_chain(2)
        window = td.propagate_window(mdp, det_policy(mdp, 1), m=1)
        final = window.joints[2]
        assert final.max() == 1.0 and final.sum() == 1.0

    def test_window_marginalizes_to_reduced(self):
        # independent code paths: multi-axis window scan vs flat propagation
        rng = np.random.default_rng(23)
        mdp = oracle.random_mdp(rng, 4, max_states=2, max_actions=3)
        pol = oracle.random_policy(rng, mdp, 1)
        reduced = td.propagate_reduced(mdp, pol)
        window = td.propagate_window(mdp, pol, m=1)
        for t in range(5):
            j = window.joints[t]
            nx = window.x_axis_count(t)
            collapsed = j.sum(axis=tuple(range(nx - 1))) if nx > 1 else j
            flat = collapsed.reshape(collapsed.shape[0], -1)
            np.testing.assert_allclose(flat, reduced.mus[t], atol=1e-12)

    def test_memory_budget_guard(self):
        mdp = td.build_maze(td.sample_maze_spec(horizon=20))
        pol = td.MemoryPolicy.uniform(mdp, 0)
        with pytest.raises(ResourceError):
            td.propagate_window(mdp, pol, m=6, max_cells=100_000)


class TestTransferEntropy:
    def test_state_independent_policy_has_zero_flow(self):
        rng = np.random.default_rng(2)
        mdp = oracle.random_mdp(rng, 3)
        tables = []
        for t in range(3):
            row = rng.random(mdp.action_cards[t]) + 0.1
            row /= row.sum()
            tables.append(
                np.tile(row, (mdp.state_cards[t], 1, 1))
            )
        pol = td.MemoryPolicy(0, tuple(tables))
        for m in (0, 1, 2):
            for n_eval in (0, 1):
                assert abs(td.transfer_entropy(mdp, pol, m, n_eval)) < 1e-13

    def test_copied_fair_bit_is_log_two(self):
        p = np.full((2, 2, 2), 0.5)
        mdp = td.FiniteMdp(
            (p,), (np.zeros((2, 2)),), np.zeros(2), np.array([0.5, 0.5])
        )
        q = np.zeros((2, 1, 2))
        q[0, 0, 0] = 1.0
        q[1, 0, 1] = 1.0
        pol = td.MemoryPolicy(0, (q,))
        assert abs(td.transfer_entropy(mdp, pol) - LN2) < 1e-15

    def test_toy_uniform_matches_enumeration(self):
        toy = td.build_nonconvex_toy()
        pol = td.MemoryPolicy.uniform(toy, 0)
        got = td.transfer_entropy(toy, pol, 0, 0)
        want = enum_te_terms(toy, pol, 0, 0).sum()
        assert abs(got - want) < 1e-13
        assert abs(got) < 1e-13

    @pytest.mark.parametrize("trial", range(12))
    def test_terms_match_enumeration_oracle(self, trial):
        rng = np.random.default_rng(300 + trial)
        mdp = oracle.random_mdp(rng, int(rng.integers(1, 4)), 3, 3)
        n = int(rng.integers(0, 3))
        pol = oracle.random_policy(rng, mdp, n)
        for m in (0, 1, 2):
            for n_eval in (n, n + 1):
                got = transfer_entropy_terms(mdp, pol, m, n_eval)
                want = enum_te_terms(mdp, pol, m, n_eval)
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_nonnegativity(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            mdp = oracle.random_mdp(rng, int(rng.integers(1, 5)))
            pol = oracle.random_policy(rng, mdp, int(rng.integers(0, 3)))
            terms = transfer_entropy_terms(mdp, pol)
            assert (terms >= -1e-12).all()

    def test_per_step_information_matches_window_path(self):
        rng = np.random.default_rng(31)
        mdp = oracle.random_mdp(rng, 5)
        pol = oracle.random_policy(rng, mdp, 1)
        np.testing.assert_allclose(
            td.per_step_information(mdp, pol),
            transfer_entropy_terms(mdp, pol),
            atol=1e-12,
        )


class TestDirectedInformation:
    def test_constant_policy_zero(self):
        mdp = det_chain(3)
        assert td.directed_information(mdp, det_policy(mdp, 0)) == 0.0

    def test_single_step_equals_mutual_information(self):
        p = np.full((2, 2, 2), 0.5)
        mdp = td.FiniteMdp(
            (p,), (np.zeros((2, 2)),), np.zeros(2), np.array([0.5, 0.5])
        )
        rng = np.random.default_rng(4)
        pol = oracle.random_policy(rng, mdp, 0)
        assert abs(
            td.directed_information(mdp, pol) - td.transfer_entropy(mdp, pol, 0, 0)
        ) < 1e-14

    @pytest.mark.parametrize("trial", range(6))
    def test_degree_policy_full_history_equivalences(self, trial):
        # directed information (trajectory path) equals the fully conditioned
        # window evaluation, and the enumeration oracle agrees
        rng = np.random.default_rng(700 + trial)
        mdp = oracle.random_mdp(rng, 3, max_states=2, max_actions=2)
        pol = oracle.random_policy(rng, mdp, int(rng.integers(0, 2)))
        di = td.directed_information(mdp, pol)
        te_inf = td.transfer_entropy(mdp, pol, m=math.inf, n_eval=math.inf)
        assert abs(di - te_inf) < 1e-12
        assert abs(di - enum_directed_information(mdp, pol)) < 1e-12

    def test_full_history_table_input(self):
        p = np.full((2, 2, 2), 0.5)
        mdp = td.FiniteMdp(
            (p,) * 2, (np.zeros((2, 2)),) * 2, np.zeros(2), np.array([0.5, 0.5])
        )
        rng = np.random.default_rng(9)
        t0 = rng.random((2, 2)) + 0.1
        t0 /= t0.sum(axis=-1, keepdims=True)
        t1 = rng.random((2, 2, 2, 2)) + 0.1
        t1 /= t1.sum(axis=-1, keepdims=True)
        value = td.directed_information(mdp, [t0, t1])
        assert value >= -1e-12

    def test_guard(self):
        mdp = td.build_maze(td.sample_maze_spec(horizon=10))
        pol = td.MemoryPolicy.uniform(mdp, 0)
        with pytest.raises(ResourceError):
            td.directed_information(mdp, pol)


class TestObjective:
    def test_zero_cost_state_independent_policy(self):
        mdp = det_chain(3)
        obj = td.objective(mdp, det_policy(mdp, 1), beta=2.0)
        assert obj.cost == 0.0 and obj.information_nats == 0.0 and obj.total == 0.0

    def test_distinct_stationary_points_have_distinct_totals(self):
        # constant-action minimum versus the interior symmetric fixed point
        toy = td.build_nonconvex_toy()
        corner = td.solve(toy, td.SolveOptions(beta=1.0, degree=0, init="perturbed", seed=2))
        saddle = td.solve(toy, td.SolveOptions(beta=1.0, degree=0))
        assert abs(corner.total - 0.5) < 1e-9
        assert saddle.total - corner.total > 1e-3

    def test_beta_zero_limit_matches_value_iteration(self):
        mdp = td.build_maze(td.sample_maze_spec(horizon=12))
        rep = td.solve(mdp, td.SolveOptions(beta=1e-6, degree=0, max_iters=300))
        vi = oracle.finite_horizon_value_iteration(mdp)
        assert rep.cost <= vi.expected_cost * 1.01 + 1e-9


class TestFactoredObjective:
    def test_induced_marginals_reproduce_objective(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            mdp = oracle.random_mdp(rng, int(rng.integers(1, 5)))
            n = int(rng.integers(0, 3))
            pol = oracle.random_policy(rng, mdp, n)
            beta = float(rng.uniform(0.2, 3.0))
            nu = induced_action_marginals(mdp, pol)
            want = td.objective(mdp, pol, beta).total
            got = td.factored_objective(mdp, pol, nu, beta)
            assert abs(got - want) < 1e-10

    def test_other_marginals_never_beat_induced(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            mdp = oracle.random_mdp(rng, int(rng.integers(1, 4)))
            n = int(rng.integers(0, 2))
            pol = oracle.random_policy(rng, mdp, n)
            beta = float(rng.uniform(0.2, 3.0))
            base = td.factored_objective(mdp, pol, induced_action_marginals(mdp, pol), beta)
            other = [
                (lambda a: a / a.sum(axis=-1, keepdims=True))(
                    rng.random(nu_t.shape) + 0.05
                )
                for nu_t in induced_action_marginals(mdp, pol)
            ]
            assert td.factored_objective(mdp, pol, other, beta) >= base - 1e-10

    def test_single_step_uniform_zero_cost_is_zero(self):
        p = np.full((2, 2, 2), 0.5)
        mdp = td.FiniteMdp(
            (p,), (np.zeros((2, 2)),), np.zeros(2), np.array([0.5, 0.5])
        )
        pol = td.MemoryPolicy.uniform(mdp, 0)
        nu = induced_action_marginals(mdp, pol)
        assert abs(td.factored_objective(mdp, pol, nu, 1.0)) < 1e-15

    def test_zero_marginal_under_positive_mass_flags_infinity(self):
        toy = td.build_nonconvex_toy()
        pol = td.MemoryPolicy.uniform(toy, 0)
        nu = [np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]])]
        assert td.factored_objective(toy, pol, nu, 1.0) == math.inf


class TestCoordinatewiseConvexity:
    def test_marginal_block_midpoint_inequality(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            mdp = oracle.random_mdp(rng, int(rng.integers(1, 4)))
            n = int(rng.integers(0, 2))
            pol = oracle.random_policy(rng, mdp, n)
            beta = float(rng.uniform(0.2, 2.0))

            def rand_nu():
                out = []
                for t in range(mdp.horizon):
                    a = rng.random(
                        (mdp.history_size(n, t), mdp.action_cards[t])
                    ) + 0.05
                    out.append(a / a.sum(axis=-1, keepdims=True))
                return out

            nu_a, nu_b = rand_nu(), rand_nu()
            nu_mid = [(a + b) / 2 for a, b in zip(nu_a, nu_b)]
            f_a = td.factored_objective(mdp, pol, nu_a, beta)
            f_b = td.factored_objective(mdp, pol, nu_b, beta)
            f_mid = td.factored_objective(mdp, pol, nu_mid, beta)
            assert f_mid <= (f_a + f_b) / 2 + 1e-10

    def test_policy_block_midpoint_inequality_per_time(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            mdp = oracle.random_mdp(rng, int(rng.integers(1, 4)))
            n = int(rng.integers(0, 2))
            base = oracle.random_policy(rng, mdp, n)
            beta = float(rng.uniform(0.2, 2.0))
            nu = induced_action_marginals(mdp, base)
            tau = int(rng.integers(0, mdp.horizon))
            alt_slice = rng.random(base.tables[tau].shape) + 0.05
            alt_slice /= alt_slice.sum(axis=-1, keepdims=True)

            def with_slice(q_tau):
                tables = list(base.tables)
                tables[tau] = q_tau
                return td.MemoryPolicy(n, tuple(tables))

            q_a, q_b = base.tables[tau], alt_slice
            f_a = td.factored_objective(mdp, with_slice(q_a), nu, beta)
            f_b = td.factored_objective(mdp, with_slice(q_b), nu, beta)
            f_mid = td.factored_objective(mdp, with_slice((q_a + q_b) / 2), nu, beta)
            assert f_mid <= (f_a + f_b) / 2 + 1e-10


class TestCanonicalization:
    def test_dead_slices_become_uniform_without_changing_anything(self):
        mdp = det_chain(3)
        pol = det_policy(mdp, 1)
        before = td.objective(mdp, pol, 1.0)
        canon = td.canonicalize_policy(mdp, pol)
        after = td.objective(mdp, canon, 1.0)
        assert before == after
        # state 0 at t=1 is unreachable under the all-ones policy
        assert (canon.tables[1][0, 0] == 0.5).all()


def test_cmi_handles_zero_mass_cells():
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert abs(conditional_mutual_information(joint, (0,), (1,)) - LN2) < 1e-15
    joint = np.array([[0.5, 0.5], [0.0, 0.0]])
    assert abs(conditional_mutual_information(joint, (0,), (1,))) < 1e-15
