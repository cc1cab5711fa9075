"""Oracle tests: value iteration, exhaustive grids, landscapes, suites."""

import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import termdp as td
from termdp import oracle
from termdp.errors import InstanceError, NumericalError, ResourceError
from termdp.model import conditional_mutual_information, induced_action_marginals


def shortest_path_chain():
    """Three-state line: going right costs 1 per step, terminal rewards state 2."""
    p = np.zeros((3, 2, 3))
    for x in range(3):
        p[x, 0, x] = 1.0  # stay
        p[x, 1, min(x + 1, 2)] = 1.0  # step right
    cost = np.tile(np.array([[0.0, 1.0]]), (3, 1))
    term = np.array([10.0, 10.0, 0.0])
    init = np.array([1.0, 0.0, 0.0])
    return td.FiniteMdp((p,) * 2, (cost,) * 2, term, init)


@functools.cache
def per_cell_landscape(resolution, beta=1.0):
    """Stage-1 values and residuals of the toy, one certificate a cell and one
    Blahut solve a distinct second-stage prior."""
    mdp = td.build_nonconvex_toy()
    c0, c1 = mdp.stage_costs
    inner = functools.cache(
        lambda lam: td.classical_blahut(np.array([lam, 1.0 - lam]), c1, beta)
    )
    thetas = np.linspace(0.0, 1.0, resolution)
    values = np.empty((resolution, resolution))
    residuals = np.empty((resolution, resolution))
    for i, th0 in enumerate(thetas):
        for j, th1 in enumerate(thetas):
            q1 = np.array([[th0, 1.0 - th0], [th1, 1.0 - th1]])
            joint = mdp.initial[:, None] * q1
            stage = float(np.sum(joint * c0))
            info = conditional_mutual_information(joint, (0,), (1,))
            lam = float(np.einsum("xu,xuy->y", joint, mdp.transitions[0])[0])
            sol = inner(lam)
            values[i, j] = stage + beta * info + sol.value
            policy = td.MemoryPolicy(0, (q1[:, None, :], sol.policy[:, None, :]))
            residuals[i, j] = td.residual_from_policy(mdp, policy, beta)
    return values, residuals


def small_mdp(rng, states, actions, massless=False):
    """Random instance with the given state and action counts; with massless,
    state 0 starts with zero probability."""
    transitions = tuple(rng.dirichlet(np.ones(y), size=(x, u))
                        for x, u, y in zip(states, actions, states[1:]))
    costs = tuple(rng.random((x, u)) for x, u in zip(states, actions))
    initial = rng.random(states[0]) + 0.05
    initial[0] *= not massless
    return td.FiniteMdp(transitions, costs, rng.random(states[-1]),
                        initial / initial.sum())


# (state counts, action counts, degree, grid steps m, massless state 0); a
# 1/m grid holds the simplex vertices, so rows with exact zeros, and a
# massless state or control history makes lam and its history sums zero
PINNED_GRIDS = [
    ((3, 2), (2,), 0, 4, False),
    ((3, 2), (2,), 0, 4, True),
    ((2, 2, 2), (2, 2), 0, 2, False),
    ((2, 2, 2), (2, 2), 1, 2, False),
    ((3, 2, 2), (2, 2), 1, 1, True),
    ((2, 2, 2), (2, 2), 2, 1, False),
    ((2, 2, 2, 2), (2, 2, 2), 0, 2, False),
    ((1, 2, 2, 2), (2, 2, 2), 1, 1, False),
    ((1, 2, 1, 2), (2, 2, 2), 2, 1, False),
    # the history (u0, u1) slides to (u1, u2) into a step that still acts
    ((1, 1, 1, 2, 2), (2, 2, 1, 2), 2, 1, False),
]


class TestValueIteration:
    def test_shortest_path_cost(self):
        vi = oracle.finite_horizon_value_iteration(shortest_path_chain())
        assert vi.expected_cost == 2.0  # two paid steps beat the penalty
        assert int(vi.actions[0][0]) == 1 and int(vi.actions[1][1]) == 1

    def test_single_step_argmin(self):
        p = np.full((2, 3, 2), 0.5)
        cost = np.array([[3.0, 1.0, 2.0], [0.5, 2.0, 9.0]])
        mdp = td.FiniteMdp((p,), (cost,), np.zeros(2), np.array([0.5, 0.5]))
        vi = oracle.finite_horizon_value_iteration(mdp)
        assert list(vi.actions[0]) == [1, 0]
        assert abs(vi.expected_cost - 0.75) < 1e-15


class TestBruteForce:
    def test_matches_classical_solution(self):
        p = np.full((2, 2, 2), 0.5)
        mdp = td.FiniteMdp(
            (p,), (np.array([[0.0, 1.0], [1.0, 0.0]]),), np.zeros(2),
            np.array([0.5, 0.5]),
        )
        brute = oracle.brute_force_policy_search(mdp, 1.0, 0, 0.01)
        sol = td.classical_blahut(
            np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0
        )
        assert brute.value >= sol.value - 1e-12
        assert brute.value - sol.value < 1e-4

    def test_zero_cost_optimum_is_zero(self):
        p = np.full((2, 2, 2), 0.5)
        mdp = td.FiniteMdp(
            (p,) * 2, (np.zeros((2, 2)),) * 2, np.zeros(2), np.array([0.5, 0.5])
        )
        brute = oracle.brute_force_policy_search(mdp, 1.0, 0, 0.25)
        assert abs(brute.value) < 1e-12

    def test_parameter_guard(self):
        rng = np.random.default_rng(3)
        mdp = oracle.random_mdp(rng, 3, max_states=3, min_states=3,
                                max_actions=3, min_actions=3)
        with pytest.raises(ResourceError, match="free policy parameters"):
            oracle.brute_force_policy_search(mdp, 1.0, 0, 0.1)

    def test_combo_budget_guard(self):
        p = np.full((2, 2, 2), 0.5)
        mdp = td.FiniteMdp(
            (p,) * 3, (np.zeros((2, 2)),) * 3, np.zeros(2), np.array([0.5, 0.5])
        )
        with pytest.raises(ResourceError, match="budget"):
            oracle.brute_force_policy_search(mdp, 1.0, 0, 1e-3, combo_budget=10_000)

    def test_parameter_guard_fires_before_allocation(self):
        # one step, 2 states, 5 actions: 8 free parameters; at resolution
        # 1e-3 each slice's grid alone would hold 4e10 points
        rng = np.random.default_rng(4)
        mdp = oracle.random_mdp(rng, 1, max_states=2, min_states=2,
                                max_actions=5, min_actions=5)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="free policy parameters"):
                oracle.brute_force_policy_search(mdp, 1.0, 0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_one_action_slices_need_no_digit(self):
        # 70 one-action slices: more than np.unravel_index's 64 dimensions,
        # but a single grid policy
        X = 70
        p = np.full((X, 1, X), 1.0 / X)
        cost = np.arange(X, dtype=float)[:, None]
        mdp = td.FiniteMdp((p,), (cost,), np.zeros(X), np.full(X, 1.0 / X))
        brute = oracle.brute_force_policy_search(mdp, 1.0, 0, 0.1)
        assert brute.combos == 1
        assert brute.value == pytest.approx((X - 1) / 2, abs=1e-12)
        assert np.array_equal(brute.policy.tables[0], np.ones((X, 1, 1)))

    @pytest.mark.parametrize("states, actions, degree, m, massless", PINNED_GRIDS)
    def test_batched_objective_matches_model_objective(
        self, states, actions, degree, m, massless
    ):
        rng = np.random.default_rng([*states, *actions, degree, m, massless])
        mdp = small_mdp(rng, states, actions, massless)
        shapes = [step.shape for step in mdp.sweep_plan(degree).steps]
        count, decode = oracle._policy_grid(shapes, 1 / m, 10**4)
        totals = oracle._batched_objective(mdp, 0.7, degree, decode(np.arange(count)))
        for combo in range(count):
            policy = td.MemoryPolicy(degree, tuple(decode(combo)))
            want = td.objective(mdp, policy, 0.7).total
            assert abs(totals[combo] - want) <= 1e-12 * max(1.0, abs(want))

    def test_chunk_boundaries_keep_value_and_first_tie(self, monkeypatch):
        # state 0 is massless at t = 0, so its row there (the slowest digit)
        # never changes a total: each value ties across combinations 243
        # apart, which chunks of 7 put in different chunks
        mdp = small_mdp(np.random.default_rng(23), (2, 2, 2), (2, 2), True)
        whole = oracle.brute_force_policy_search(mdp, 0.7, 1, 0.5)
        monkeypatch.setattr(oracle, "BRUTE_FORCE_CHUNK", 7)
        chunked = oracle.brute_force_policy_search(mdp, 0.7, 1, 0.5)
        assert whole.combos == chunked.combos == 729
        assert chunked.value == whole.value
        for a, b in zip(chunked.policy.tables, whole.policy.tables):
            assert np.array_equal(a, b)
        assert np.array_equal(whole.policy.tables[0][0, 0], oracle._simplex_grid(2, 2)[0])

    @pytest.mark.parametrize("budget", [-1, 0, 2.5, True])
    def test_combo_budget_must_be_a_positive_integer(self, budget):
        mdp = oracle.random_mdp(np.random.default_rng(3), 1)
        with pytest.raises(InstanceError, match="combo_budget"):
            oracle.brute_force_policy_search(mdp, 1.0, 0, 0.25, combo_budget=budget)

    def test_toy_global_minimum_matches_multistart(self):
        toy = td.build_nonconvex_toy()
        brute = oracle.brute_force_policy_search(toy, 1.0, 0, 0.05)
        reports = td.multi_start(
            toy, td.SolveOptions(beta=1.0, degree=0), starts=6, seed=2
        )
        best = min(r.total for r in reports)
        assert best <= brute.value + 1e-9
        assert best >= brute.value - 0.05  # grid gap only


class TestLandscapes:
    def test_resolution_floor(self):
        toy = td.build_nonconvex_toy()
        with pytest.raises(InstanceError, match="resolution"):
            oracle.bellman_landscape_stage2(toy, 10)

    @pytest.mark.parametrize("resolution", [20.5, math.nan, True])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_resolution_must_be_an_integer(self, stage, resolution):
        landscape = {1: oracle.objective_landscape_stage1,
                     2: oracle.bellman_landscape_stage2}[stage]
        with pytest.raises(InstanceError, match="resolution"):
            landscape(td.build_nonconvex_toy(), resolution)

    def test_stage2_size_guard_refuses_before_allocation(self):
        # 10**7 points would need about 5 GB; the guard's edge, one point
        # past the largest admitted curve, is refused with nothing built too
        toy = td.build_nonconvex_toy()
        largest = oracle.MAX_LANDSCAPE_BYTES // oracle.LANDSCAPE_POINT_BYTES
        tracemalloc.start()
        try:
            for resolution in (10**7, largest + 1):
                with pytest.raises(ResourceError, match=f"{resolution} cells"):
                    oracle.bellman_landscape_stage2(toy, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_stage2_curve_shape(self):
        toy = td.build_nonconvex_toy()
        curve = oracle.bellman_landscape_stage2(toy, 41)
        assert abs(curve.values[0]) < 1e-10 and abs(curve.values[-1]) < 1e-10
        mid = curve.values[20]
        assert mid <= 0.5 + 1e-12  # the constant-action policy upper bound
        # independent 1-d inner search at the uniform belief
        grid = np.linspace(0, 1, 20001)[1:-1]
        info = math.log(2) + grid * np.log(grid) + (1 - grid) * np.log(1 - grid)
        vals = (1 - grid) + info
        assert abs(mid - min(vals.min(), 0.5)) < 1e-6

    def test_stage1_landscape_classification(self):
        toy = td.build_nonconvex_toy()
        grid = oracle.objective_landscape_stage1(toy, 41)
        assert len(grid.minima) >= 2
        # symmetric under the joint relabeling of both binary alphabets
        np.testing.assert_allclose(
            grid.values, grid.values[::-1, ::-1].T, atol=1e-12
        )
        assert len(grid.saddles) >= 1

    @pytest.mark.parametrize("resolution", [21, 31])
    def test_stage1_landscape_equals_per_cell_loop(self, monkeypatch, resolution):
        # the batched landscape (one Blahut call over the distinct priors,
        # one stacked certificate for all cells) against the per-cell loop,
        # bit for bit
        toy = td.build_nonconvex_toy()
        want_values, want_residuals = per_cell_landscape(resolution)
        want_curve = [
            td.classical_blahut(np.array([lam, 1.0 - lam]), toy.stage_costs[1]).value
            for lam in np.linspace(0.0, 1.0, resolution)
        ]
        stacks = []
        real = oracle.residual_from_policy

        def residual_from_policy(mdp, policy, beta):
            stacks.append(real(mdp, policy, beta))
            return stacks[-1]

        monkeypatch.setattr(oracle, "residual_from_policy", residual_from_policy)
        grid = oracle.objective_landscape_stage1(toy, resolution)
        assert len(stacks) == 1
        assert np.array_equal(stacks[0], want_residuals.ravel())
        assert np.array_equal(grid.values, want_values)
        saddle_tol = 0.6 / (resolution - 1)
        minima = oracle._strict_local_minima(want_values)
        saddles = [
            (i, j) for i in range(resolution) for j in range(resolution)
            if (i, j) not in minima and want_residuals[i, j] < saddle_tol
        ]
        assert grid.minima == tuple(minima) and grid.saddles == tuple(saddles)
        kinds = np.full(grid.values.shape, "", dtype="<U16")
        kinds[tuple(np.array(minima).T)] = "local_min"
        kinds[tuple(np.array(saddles).T)] = "saddle_candidate"
        assert np.array_equal(grid.classification, kinds)
        curve = oracle.bellman_landscape_stage2(toy, resolution)
        assert np.array_equal(curve.values, want_curve)

    def test_solver_limit_points_land_on_stationary_cells(self):
        toy = td.build_nonconvex_toy()
        grid = oracle.objective_landscape_stage1(toy, 41)
        cells = set(grid.minima) | set(grid.saddles)
        reports = td.multi_start(
            toy, td.SolveOptions(beta=1.0, degree=0), starts=6, seed=5
        )
        spacing = 1.0 / 40
        for rep in reports:
            assert rep.residual < 1e-8
            th0 = rep.policy.tables[0][0, 0, 0]
            th1 = rep.policy.tables[0][1, 0, 0]
            i, j = round(th0 / spacing), round(th1 / spacing)
            near = any(abs(i - a) <= 1 and abs(j - b) <= 1 for a, b in cells)
            assert near, (th0, th1, sorted(cells))


class TestBetaValidation:
    def test_brute_force_rejects_nan_beta(self):
        mdp = oracle.random_mdp(np.random.default_rng(3), 1)
        with pytest.raises(InstanceError, match="beta"):
            oracle.brute_force_policy_search(mdp, math.nan, 0, 0.25)

    def test_directed_optimum_rejects_nan_beta(self):
        with pytest.raises(InstanceError, match="beta"):
            oracle.directed_optimum_t2(td.build_nonconvex_toy(), math.nan, 0.1)

    def test_structural_reduction_rejects_nan_beta(self):
        with pytest.raises(InstanceError, match="beta"):
            oracle.structural_reduction_check(
                td.build_nonconvex_toy(), math.nan, 0.1
            )


def simplex_points(card, m):
    """Compositions of m into card parts, lexicographic: the recursive
    reference for the stars-and-bars grid."""
    if card == 1:
        return [(m,)]
    return [(k, *rest) for k in range(m + 1) for rest in simplex_points(card - 1, m - k)]


ORACLES = {
    "brute_force": lambda mdp, res: oracle.brute_force_policy_search(mdp, 1.0, 0, res),
    "directed": lambda mdp, res: oracle.directed_optimum_t2(mdp, 1.0, res),
    "structural": lambda mdp, res: oracle.structural_reduction_check(mdp, 1.0, res),
}


class TestGridSizing:
    @pytest.mark.parametrize("resolution", [0.0, math.nan, -0.1, math.inf])
    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_resolution_must_be_positive_and_finite(self, name, resolution):
        with pytest.raises(InstanceError, match="resolution"):
            ORACLES[name](td.build_nonconvex_toy(), resolution)

    @pytest.mark.parametrize(
        "shapes", [[(2, 1, 3)], [(1, 1, 2), (2, 2, 2)], [(3, 1, 1), (1, 2, 4)]]
    )
    def test_decoder_matches_digit_loop(self, shapes):
        # every combination index against a digit loop over the slices in
        # (t, x, h) order, the last slice varying fastest
        m = 3
        count, decode = oracle._policy_grid(shapes, 1 / m, 10**6)
        slices = [(t, x, h) for t, (xs, hs, _) in enumerate(shapes)
                  for x in range(xs) for h in range(hs)]
        grids = [np.array(simplex_points(shapes[t][2], m)) / m for t, _, _ in slices]
        assert count == math.prod(len(g) for g in grids)
        got = decode(np.arange(count))
        for combo in range(count):
            rest = combo
            for pos in reversed(range(len(slices))):
                rest, digit = divmod(rest, len(grids[pos]))
                t, x, h = slices[pos]
                assert np.array_equal(got[t][combo, x, h], grids[pos][digit])
        last = decode(count - 1)
        assert all(np.array_equal(a, b[-1]) for a, b in zip(last, got))

    @pytest.mark.parametrize("name", ["directed", "structural"])
    def test_first_stage_guard_fires_before_allocation(self, name):
        # two steps, 3 states, 5 actions: the first-stage grid at resolution
        # 1e-3 would hold about 7.5e31 policies
        rng = np.random.default_rng(6)
        mdp = oracle.random_mdp(rng, 2, max_states=3, min_states=3,
                                max_actions=5, min_actions=5)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="budget"):
                ORACLES[name](mdp, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestStructuralReduction:
    def test_single_step_classes_identical(self):
        rng = np.random.default_rng(21)
        mdp = oracle.random_mdp(rng, 1, max_states=3, max_actions=3)
        rep = oracle.structural_reduction_check(mdp, 1.0, 0.05)
        assert rep.degree_optimum == rep.full_history_optimum

    def test_toy_optima_agree(self):
        toy = td.build_nonconvex_toy()
        rep = oracle.structural_reduction_check(toy, 1.0, 0.01)
        assert rep.max_pointwise_gap < 1e-9
        assert abs(rep.degree_optimum - rep.full_history_optimum) < 1e-3

    def test_deterministic_instance_near_zero_beta(self):
        mdp = shortest_path_chain()
        rep = oracle.structural_reduction_check(mdp, 1e-4, 0.1)
        vi = oracle.finite_horizon_value_iteration(mdp)
        assert abs(rep.degree_optimum - vi.expected_cost) < 0.05
        assert abs(rep.full_history_optimum - vi.expected_cost) < 0.05

    def test_horizon_guard(self):
        rng = np.random.default_rng(2)
        mdp = oracle.random_mdp(rng, 3, max_states=2, max_actions=2)
        with pytest.raises(InstanceError, match="horizon"):
            oracle.structural_reduction_check(mdp, 1.0, 0.1)

    @pytest.mark.parametrize("resolution", [0.0, math.nan])
    def test_single_step_resolution_checked(self, resolution):
        # horizon 1 needs no grid, but its resolution is an input all the same
        rng = np.random.default_rng(21)
        mdp = oracle.random_mdp(rng, 1, max_states=3, max_actions=3)
        with pytest.raises(InstanceError, match=r"grid resolution must be in \(0, 2\)"):
            oracle.structural_reduction_check(mdp, 1.0, resolution)


def one_step_toy():
    toy = td.build_nonconvex_toy()
    return td.FiniteMdp(toy.transitions[:1], toy.stage_costs[:1],
                        toy.terminal_cost, toy.initial)


class TestCertifiedContinuations:
    @pytest.mark.parametrize("call", [
        lambda: oracle.bellman_landscape_stage2(td.build_nonconvex_toy(), 11),
        lambda: oracle.objective_landscape_stage1(td.build_nonconvex_toy(), 11),
        lambda: oracle.directed_optimum_t2(td.build_nonconvex_toy(), 1.0, 0.25),
        lambda: oracle.structural_reduction_check(td.build_nonconvex_toy(), 1.0, 0.25),
        lambda: oracle.structural_reduction_check(one_step_toy(), 1.0, 0.25),
    ], ids=["stage2", "stage1", "directed", "structural", "structural-one-step"])
    def test_uncertified_member_raises(self, monkeypatch, call):
        # the last member of every solve reports a gap its tol does not cover
        real = oracle.classical_blahut

        def last_uncertified(prior, cost, beta):
            sol = real(prior, cost, beta)
            converged = np.array(sol.converged)
            converged.flat[-1] = False
            return replace(sol, converged=converged)

        monkeypatch.setattr(oracle, "classical_blahut", last_uncertified)
        uncertified = r"^1 of \d+ single-stage solves stopped uncertified"
        with pytest.raises(NumericalError, match=uncertified):
            call()


class TestBoundChain:
    def test_toy_degree_bound_directed(self):
        toy = td.build_nonconvex_toy()
        deg = oracle.brute_force_policy_search(toy, 1.0, 0, 0.05).value
        full = oracle.directed_optimum_t2(toy, 1.0, 0.05)
        assert deg >= full - 1e-3

    def test_random_binary_instances(self):
        res = oracle.suite_eq10(seed=900, trials=4)
        assert res.passed, res.failures

    def test_solver_optimum_upper_bounds_directed(self):
        rng = np.random.default_rng(905)
        for trial in range(5):
            mdp = oracle.random_mdp(rng, 2, max_states=2, max_actions=2)
            beta = float(rng.uniform(0.3, 2.0))
            reports = td.multi_start(
                mdp, td.SolveOptions(beta=beta, degree=0), starts=4, seed=trial
            )
            best = min(r.total for r in reports)
            full = oracle.directed_optimum_t2(mdp, beta, 0.05)
            assert best >= full - 1e-3, (trial, best, full)


class TestRateBounds:
    def test_unit_conversions(self):
        report = oracle.rate_bound_report(
            [
                {"beta": 1.0, "cost": 1.0, "information_nats": 0.0},
                {"beta": 0.5, "cost": 0.5, "information_nats": math.log(2.0)},
            ]
        )
        by_beta = {e.beta: e for e in report.entries}
        assert by_beta[1.0].rate_lower_bound_bits == 0.0
        assert abs(by_beta[0.5].rate_lower_bound_bits - 1.0) < 1e-15

    def test_nonmonotone_rows_flagged_not_rejected(self):
        report = oracle.rate_bound_report(
            [
                {"beta": 0.5, "cost": 1.0, "information_nats": 0.2},
                {"beta": 1.0, "cost": 0.9, "information_nats": 0.5},
                {"beta": 2.0, "cost": 1.2, "information_nats": 0.1},
            ]
        )
        flags = [e.flag for e in report.entries]
        assert flags == ["", "nonmonotone", ""]


class TestFirstOrderStationarity:
    def test_feasible_directional_derivatives_nonnegative(self):
        # central differences of the factored objective along simplex-tangent
        # directions at a converged iterate
        rng = np.random.default_rng(31)
        for trial in range(5):
            mdp = oracle.random_mdp(rng, int(rng.integers(1, 4)), 3, 3)
            beta = float(rng.uniform(0.3, 2.0))
            rep = td.solve(
                mdp,
                td.SolveOptions(beta=beta, degree=0, init="perturbed", seed=trial),
            )
            if not rep.converged:
                continue
            nu = induced_action_marginals(mdp, rep.policy)
            base = rep.policy
            eps = 1e-6
            for _ in range(10):
                t = int(rng.integers(0, mdp.horizon))
                q_t = np.array(base.tables[t])
                direction = rng.standard_normal(q_t.shape)
                # zero out coordinates too close to the boundary, then
                # re-project onto the simplex tangent over the free support
                free = np.minimum(q_t, 1 - q_t) > 2 * eps
                direction[~free] = 0.0
                n_free = free.sum(axis=-1, keepdims=True)
                mean = np.where(
                    n_free > 0, direction.sum(axis=-1, keepdims=True), 0.0
                ) / np.maximum(n_free, 1)
                direction = np.where(free, direction - mean, 0.0)
                norm = np.abs(direction).max()
                if norm < 1e-9:
                    continue
                direction /= norm

                def value(sign):
                    tables = list(base.tables)
                    tables[t] = q_t + sign * eps * direction
                    pol = td.MemoryPolicy(base.degree, tuple(tables))
                    return td.factored_objective(mdp, pol, nu, beta)

                deriv = (value(+1) - value(-1)) / (2 * eps)
                assert deriv >= -1e-6


class TestSuites:
    def test_prop1b_quick(self):
        res = oracle.suite_prop1b(seed=100, trials=10)
        assert res.passed, res.failures

    def test_prop2_quick(self):
        res = oracle.suite_prop2(seed=200, trials=10)
        assert res.passed, res.failures

    def test_descent_quick(self):
        res = oracle.suite_descent(seed=300, trials=5)
        assert res.passed, res.failures

    def test_residual_quick(self):
        res = oracle.suite_residual(seed=400, trials=5)
        assert res.passed, res.failures

    def test_oracle_agreement_quick(self):
        res = oracle.suite_oracle_agreement(seed=500, trials=3)
        assert res.passed, res.failures

    @pytest.mark.parametrize(
        "run",
        [
            lambda: oracle.all_suites(0, "bogus"),
            lambda: oracle.suite_eq10(0, -1),
            lambda: oracle.suite_eq10(0, 1.5),
            lambda: oracle.suite_descent(-1, 1),
        ],
        ids=["unknown-scope", "negative-trials", "fractional-trials", "negative-seed"],
    )
    def test_entry_arguments_checked(self, run):
        with pytest.raises(InstanceError, match="scope|seed|trials"):
            run()
