"""Sweep plan tests: kernels against independent references, cell budget.

The plan's forward kernel is compared with the window scan and with
trajectory enumeration, its backward kernel with a scalar loop written here;
neither reference shares code with the plan.
"""

import functools
import math

import numpy as np
import pytest

import termdp as td
from termdp import oracle
from termdp.errors import NumericalError, ResourceError
from termdp.model import DEFAULT_CELL_BUDGET, conditional_mutual_information
from termdp.solver import PolicyStack, backward_pass, forward_pass, residual_from_policy

from reference import enum_trajectory_probs

TOL = 1e-12  # fixed before any comparison was run

# (horizon, degree): every degree 0..3, horizons shorter than the degree too
CASES = [(h, n) for n in range(4) for h in (2, 4)]


def _instance(horizon: int, degree: int):
    rng = np.random.default_rng(1000 * horizon + degree)
    mdp = oracle.random_mdp(rng, horizon, max_states=3, max_actions=3, min_states=1)
    return mdp, oracle.random_policy(rng, mdp, degree)


def _flat_history(controls, cards) -> int:
    h = 0
    for u, card in zip(controls, cards):
        h = h * card + u
    return h


def enum_beliefs_and_marginals(mdp, policy):
    """mu_t(x, h) and nu_t(u | h) summed from the exhaustive trajectory joint."""
    X, A, n = mdp.state_cards, mdp.action_cards, policy.degree
    probs = enum_trajectory_probs(mdp, policy)
    mus, joints = [], []
    for t in range(mdp.horizon + 1):
        span = range(max(0, t - n), t)
        cards = [A[s] for s in span]
        mu = np.zeros((X[t], math.prod(cards)))
        joint = np.zeros((mu.shape[1], A[t])) if t < mdp.horizon else None
        for (xs, us), p in probs.items():
            h = _flat_history([us[s] for s in span], cards)
            mu[xs[t], h] += p
            if joint is not None:
                joint[h, us[t]] += p
        mus.append(mu)
        joints.append(joint)
    nus = [j / j.sum(axis=1, keepdims=True) for j in joints[:-1]]
    return mus, nus


def loop_backward(mdp, nu, beta, degree):
    """log_phi and Gibbs policies by scalar loops over (t, x, h, u, y)."""
    T, X, A = mdp.horizon, mdp.state_cards, mdp.action_cards
    H = [mdp.history_size(degree, t) for t in range(T + 1)]
    log_phi = [None] * (T + 1)
    log_phi[T] = np.array(
        [[-mdp.terminal_cost[x] / beta] * H[T] for x in range(X[T])]
    )
    tables = [None] * T
    for t in range(T - 1, -1, -1):
        kept = H[t + 1] // A[t] if degree else 1  # history left after the slide
        lp = np.empty((X[t], H[t]))
        q = np.empty((X[t], H[t], A[t]))
        for x in range(X[t]):
            for h in range(H[t]):
                z = []
                for u in range(A[t]):
                    h_next = (h % kept) * A[t] + u if degree else 0
                    to_go = sum(
                        mdp.transitions[t][x, u, y] * log_phi[t + 1][y, h_next]
                        for y in range(X[t + 1])
                    )
                    rho = mdp.stage_costs[t][x, u] / beta - to_go
                    z.append(math.log(nu[t][h, u]) - rho)
                top = max(z)
                lse = top + math.log(sum(math.exp(v - top) for v in z))
                lp[x, h] = lse
                q[x, h, :] = [math.exp(v - lse) for v in z]
        log_phi[t], tables[t] = lp, q
    return log_phi, tables


@pytest.mark.parametrize("horizon, degree", CASES)
def test_forward_kernel_matches_window_scan_and_enumeration(horizon, degree):
    mdp, pol = _instance(horizon, degree)
    mus, nus = mdp.sweep_plan(degree).forward(pol.tables)
    window = td.propagate_window(mdp, pol, 0, degree)
    want_mus, want_nus = enum_beliefs_and_marginals(mdp, pol)
    assert len(mus) == horizon + 1 and len(nus) == horizon
    for t in range(horizon + 1):
        scan = window.joints[t].reshape(mdp.state_cards[t], -1)
        assert np.abs(mus[t] - scan).max() <= TOL
        assert np.abs(mus[t] - want_mus[t]).max() <= TOL
        np.testing.assert_allclose(
            mus[t].sum(axis=1), window.state_marginal(t), rtol=0, atol=TOL
        )
    for t in range(horizon):
        assert np.abs(nus[t] - want_nus[t]).max() <= TOL


@pytest.mark.parametrize("horizon, degree", CASES)
def test_backward_pass_matches_loop_reference(horizon, degree):
    mdp, pol = _instance(horizon, degree)
    beta = 0.7
    _, nu = forward_pass(mdp, pol)
    _, log_phi, q = backward_pass(mdp, nu, beta, degree)
    want_log_phi, want_tables = loop_backward(mdp, nu, beta, degree)
    for t in range(horizon + 1):
        assert np.abs(log_phi[t] - want_log_phi[t]).max() <= TOL
    for t in range(horizon):
        assert np.abs(q.tables[t] - want_tables[t]).max() <= TOL


@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("horizon, degree", CASES)
def test_stacked_kernels_equal_single_calls(horizon, degree, k):
    # K policies stacked on a leading axis give, member by member, exactly
    # the arrays of K single calls
    mdp, _ = _instance(horizon, degree)
    rng = np.random.default_rng(10 * k + degree)
    pols = [oracle.random_policy(rng, mdp, degree) for _ in range(k)]
    plan = mdp.sweep_plan(degree)
    stacked = [np.stack(ts) for ts in zip(*(p.tables for p in pols))]
    mus, nus = plan.forward(stacked)
    rho, log_phi, tables = plan.backward(nus, 0.7)
    assert rho == [None] * horizon
    for i, pol in enumerate(pols):
        mus_i, nus_i = plan.forward(pol.tables)
        _, log_phi_i, tables_i = plan.backward(nus_i, 0.7)
        for got, want in [(mus, mus_i), (nus, nus_i), (log_phi, log_phi_i),
                          (tables, tables_i)]:
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape[1:] == b.shape and np.array_equal(a[i], b)


@functools.cache
def _fixed_point(horizon: int, degree: int):
    """A converged solve's policy on the case's instance: residual near 0."""
    mdp, _ = _instance(horizon, degree)
    rep = td.solve(mdp, td.SolveOptions(beta=0.5, degree=degree, max_iters=4000))
    assert rep.converged
    return rep.policy


def _massless_policy(rng, mdp, degree):
    """A random policy that never plays action 0, so histories holding it
    carry no mass and the masked relations skip them."""
    tables = []
    for q in oracle.random_policy(rng, mdp, degree).tables:
        q = q.copy()
        q[..., 0] = 0.0
        tables.append(q / q.sum(axis=2, keepdims=True))
    return td.MemoryPolicy(degree, tuple(tables))


@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("horizon, degree", CASES)
def test_stacked_residuals_equal_single_calls(horizon, degree, k):
    # members cycle through a random policy, a fixed point and a policy with
    # massless histories; the stack gives, member by member, exactly the
    # single call's residual
    mdp, _ = _instance(horizon, degree)
    rng = np.random.default_rng(10 * k + degree)
    kinds = [lambda: oracle.random_policy(rng, mdp, degree),
             lambda: _fixed_point(horizon, degree),
             lambda: _massless_policy(rng, mdp, degree)]
    pols = [kinds[i % 3]() for i in range(k)]
    got = residual_from_policy(mdp, PolicyStack.of(degree, pols), 0.5)
    want = [residual_from_policy(mdp, p, 0.5) for p in pols]
    assert got.shape == (k,) and np.array_equal(got, want)
    assert max(want[1::3], default=0.0) < 1e-8 < min(want[::3])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("horizon, degree", CASES)
def test_stacked_functionals_equal_single_calls(horizon, degree, k):
    # cost, information, factored objective and conditional mutual
    # information of a stack equal, member by member, the single calls';
    # members cycle through random, fixed-point and massless policies, and
    # the factored objective is also taken against the next member's
    # marginals and against marginals starved under one member's mass
    mdp, _ = _instance(horizon, degree)
    rng = np.random.default_rng(10 * k + degree)
    kinds = [lambda: oracle.random_policy(rng, mdp, degree),
             lambda: _fixed_point(horizon, degree),
             lambda: _massless_policy(rng, mdp, degree)]
    pols = [kinds[i % 3]() for i in range(k)]
    stack = PolicyStack.of(degree, pols)
    belief, nu = forward_pass(mdp, stack)
    other = [np.roll(n, 1, axis=0) for n in nu]
    starved = [n.copy() for n in nu]
    starved[-1][k // 2] = 0.0
    beliefs = [td.propagate_reduced(mdp, p) for p in pols]
    nus = [[n[i] for n in nu] for i in range(k)]
    got = {
        "cost": td.expected_cost(mdp, stack, belief),
        "info": td.per_step_information(mdp, stack, belief),
        "own": td.factored_objective(mdp, stack, nu, 0.6, belief),
        "other": td.factored_objective(mdp, stack, other, 0.6, belief),
        "starved": td.factored_objective(mdp, stack, starved, 0.6, belief),
    }
    want = {
        "cost": [td.expected_cost(mdp, p, b) for p, b in zip(pols, beliefs)],
        "info": [td.per_step_information(mdp, p, b) for p, b in zip(pols, beliefs)],
        "own": [td.factored_objective(mdp, p, n, 0.6, b)
                for p, n, b in zip(pols, nus, beliefs)],
        "other": [td.factored_objective(mdp, p, nus[i - 1], 0.6, b)
                  for i, (p, b) in enumerate(zip(pols, beliefs))],
        "starved": [
            td.factored_objective(mdp, p, [n[i] for n in starved], 0.6, b)
            for i, (p, b) in enumerate(zip(pols, beliefs))
        ],
    }
    for name, values in want.items():
        assert np.array_equal(got[name], values), name
    assert got["starved"][k // 2] == math.inf
    assert all(type(v) is float for v in want["cost"] + want["own"])
    # the last step's (x_t, h_t, u_t) joints, stacked: I(x; u | h); a
    # fixed point's tiny entries can make p * p_c and p_ac * p_cb both
    # underflow, and then the single call's NaN must come back too
    lams = belief.mus[-2][..., None] * stack.tables[-1]
    got_mi = conditional_mutual_information(lams, (1,), (3,), (2,))
    want_mi = [conditional_mutual_information(lam, (0,), (2,), (1,)) for lam in lams]
    assert got_mi.shape == (k,)
    assert np.array_equal(got_mi, want_mi, equal_nan=True)
    assert all(type(v) is float for v in want_mi)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_marginal_raises_numerical_error():
    mdp, pol = _instance(4, 1)
    _, nu = forward_pass(mdp, pol)
    nu[2] = np.full_like(nu[2], np.nan)
    with pytest.raises(NumericalError, match="normalizer at t=2"):
        backward_pass(mdp, nu, 0.7, 1)


def test_plan_is_cached_and_holds_views():
    mdp, _ = _instance(4, 2)
    plan = mdp.sweep_plan(2)
    assert mdp.sweep_plan(2) is plan
    for s, p in zip(plan.steps, mdp.transitions):
        assert not s.flat.flags.owndata and np.shares_memory(s.flat, p)
        assert not s.by_action.flags.owndata and np.shares_memory(s.by_action, p)


def test_policy_table_cell_budget():
    # degree 8 on the maze: 153 * 5**7 * 5 cells at t = 7, above the budget;
    # the plan refuses before any table is allocated
    mdp = td.build_maze(td.sample_maze_spec(horizon=10))
    with pytest.raises(ResourceError, match="budget"):
        td.MemoryPolicy.uniform(mdp, 8)


def test_cell_budget_bounds_the_whole_policy():
    # degree 6 on the T=55 maze: each table is under the budget, the 55 of
    # them hold 5.9e8 cells; shapes are read without building the plan
    mdp = td.build_maze(td.sample_maze_spec(horizon=55))
    cells = [
        mdp.state_cards[t] * mdp.history_size(6, t) * mdp.action_cards[t]
        for t in range(mdp.horizon)
    ]
    assert max(cells) < DEFAULT_CELL_BUDGET < sum(cells)
    with pytest.raises(ResourceError, match="budget"):
        mdp.sweep_plan(6)
