"""Sweep plan tests: kernels against independent references, cell budget.

The plan's forward kernel is compared with the window scan and with
trajectory enumeration (on the maze, too large to enumerate, with scalar
loops over the scan), its backward kernel with a scalar loop written here;
no reference shares code with the plan.
"""

import functools
import math
import sys
import warnings

import numpy as np
import pytest

import termdp as td
from termdp import oracle
from termdp.errors import NumericalError, ResourceError
from termdp.model import (
    DEFAULT_CELL_BUDGET,
    MARGINAL_FLOOR,
    ROW_TOL,
    SweepPlan,
    conditional_mutual_information,
    information_rows,
    log_marginals,
)
from termdp.solver import (
    PolicyStack,
    backward_pass,
    forward_pass,
    plan_start_policies,
    residual_from_policy,
)

from reference import (
    edge_marginals,
    enum_beliefs_and_marginals,
    forward_split,
    loop_backward,
    massless_policy,
)

TOL = 1e-12  # fixed before any comparison was run

# (horizon, degree): every degree 0..3, horizons shorter than the degree too
CASES = [(h, n) for n in range(4) for h in (2, 4)]
# (horizon, degree, maze): the random dense cases and the T=3 sample maze
# (153 states, 1.2% dense)
PATH_CASES = [
    *(pytest.param(h, n, False, id=f"{h}-{n}") for h, n in CASES),
    *(pytest.param(3, n, True, id=f"maze-{n}") for n in range(3)),
]


def _instance(horizon: int, degree: int, actions: tuple[int, int] = (2, 3),
              maze: bool = False):
    rng = np.random.default_rng(1000 * horizon + degree)
    if maze:
        mdp = td.build_maze(td.sample_maze_spec(horizon=horizon))
    else:
        mdp = oracle.random_mdp(rng, horizon, max_states=3, min_states=1,
                                min_actions=actions[0], max_actions=actions[1])
    return mdp, oracle.random_policy(rng, mdp, degree)


def scan_marginals(window, policy):
    """nu_t(u | h) by scalar loops over (x, h, u) from the window scan's
    joints mu_t(x, h) and the policy; every history must carry mass."""
    nus = []
    for t, q in enumerate(policy.tables):
        mu = window.joints[t].reshape(q.shape[:2])
        joint = np.zeros(q.shape[1:])
        for x in range(q.shape[0]):
            for h in range(q.shape[1]):
                for u in range(q.shape[2]):
                    joint[h, u] += mu[x, h] * q[x, h, u]
        nus.append(joint / joint.sum(axis=1, keepdims=True))
    return nus


@pytest.mark.parametrize("horizon, degree, maze", PATH_CASES)
def test_forward_kernel_matches_window_scan_and_enumeration(horizon, degree, maze):
    mdp, pol = _instance(horizon, degree, maze=maze)
    mus, nus = forward_split(mdp.sweep_plan(degree), pol.tables)
    window = td.propagate_window(mdp, pol, 0, degree)
    if maze:  # too many trajectories to enumerate
        want_mus, want_nus = None, scan_marginals(window, pol)
    else:
        want_mus, want_nus = enum_beliefs_and_marginals(mdp, pol)
    assert len(mus) == horizon + 1 and len(nus) == horizon
    for t in range(horizon + 1):
        scan = window.joints[t].reshape(mdp.state_cards[t], -1)
        assert np.abs(mus[t] - scan).max() <= TOL
        if want_mus is not None:
            assert np.abs(mus[t] - want_mus[t]).max() <= TOL
        np.testing.assert_allclose(
            mus[t].sum(axis=1), window.state_marginal(t), rtol=0, atol=TOL
        )
    for t in range(horizon):
        assert np.abs(nus[t] - want_nus[t]).max() <= TOL


@pytest.mark.parametrize("horizon, degree, actions, beta", [
    *(pytest.param(h, n, (2, 3), 0.7, id=f"{h}-{n}") for h, n in CASES),
    # 9-12 actions, more than the 8 below which numpy sums a contiguous axis
    # in order, and cost / beta spanning hundreds; no pass renormalizes rows
    *(pytest.param(3, n, (9, 12), 3e-3, id=f"wide-{n}") for n in (0, 1)),
])
def test_backward_pass_matches_loop_reference(horizon, degree, actions, beta):
    mdp, pol = _instance(horizon, degree, actions)
    _, nu = forward_pass(mdp, pol)
    _, log_phi, q = backward_pass(mdp, nu, beta, degree)
    want_log_phi, want_tables = loop_backward(mdp, nu, beta, degree)
    for t in range(horizon + 1):
        assert np.abs(log_phi[t] - want_log_phi[t]).max() <= TOL
    for t in range(horizon):
        assert np.abs(q.tables[t] - want_tables[t]).max() <= TOL
        assert np.abs(q.tables[t].sum(axis=-1) - 1.0).max() <= ROW_TOL


_massless_policy = massless_policy  # moved to reference.py, shared with edge_marginals


def _close(got, want):
    """Within TOL, relative to the entry's magnitude where it exceeds 1."""
    return np.all(np.abs(got - want) <= TOL * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("kind", ["zeros", "penalty", "massless"])
@pytest.mark.parametrize("horizon, degree", CASES)
def test_backward_edge_cases_match_loop_reference(horizon, degree, kind):
    # exact zeros in nu stay exact zeros in the policy; a terminal penalty
    # puts log phi near -1e3, where exp(z) underflows without the max shift;
    # massless histories get uniform marginals; stacks of 1..6 members are
    # each member's solo pass bit for bit
    mdp, _ = _instance(horizon, degree)
    rng = np.random.default_rng(100 * horizon + 10 * degree + len(kind))
    mdp, nus = edge_marginals(rng, mdp, degree, kind, 6)
    plan, beta = mdp.sweep_plan(degree), 0.7
    lay = plan.layout
    rows = np.stack([lay.marginals.join(nu) for nu in nus])
    solo = [plan.backward_flat(row, beta) for row in rows]
    for k in range(1, 7):
        log_phi, q = plan.backward_flat(rows[:k], beta)
        assert all(np.array_equal(log_phi[i], lp) and np.array_equal(q[i], qi)
                   for i, (lp, qi) in enumerate(solo[:k]))
    for nu, (log_phi, q) in zip(nus, solo):
        want_log_phi, want_tables = loop_backward(mdp, nu, beta, degree)
        assert all(_close(a, b) for a, b in zip(lay.beliefs.split(log_phi), want_log_phi))
        for t, (got, want) in enumerate(zip(lay.tables.split(q), want_tables)):
            assert _close(got, want)
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.array_equal(got == 0.0, np.broadcast_to(nu[t] == 0.0, got.shape))
            assert np.abs(got.sum(axis=-1) - 1.0).max() <= ROW_TOL
        if kind == "penalty":
            assert np.abs(log_phi).max() > 900.0
    assert kind != "zeros" or any((nu[0] == 0.0).any() for nu in nus)


@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("horizon, degree, maze", PATH_CASES)
def test_stacked_kernels_equal_single_calls(horizon, degree, maze, k):
    # K policies stacked on a leading axis give, member by member, exactly
    # the arrays of K single calls
    mdp, _ = _instance(horizon, degree, maze=maze)
    rng = np.random.default_rng(10 * k + degree)
    pols = [oracle.random_policy(rng, mdp, degree) for _ in range(k)]
    plan = mdp.sweep_plan(degree)
    stacked = [np.stack(ts) for ts in zip(*(p.tables for p in pols))]
    mus, nus = forward_split(plan, stacked)
    rho, log_phi, stack = backward_pass(mdp, nus, 0.7, degree)
    assert rho == [None] * horizon
    for i, pol in enumerate(pols):
        mus_i, nus_i = forward_split(plan, pol.tables)
        _, log_phi_i, pol_i = backward_pass(mdp, nus_i, 0.7, degree)
        for got, want in [(mus, mus_i), (nus, nus_i), (log_phi, log_phi_i),
                          (stack.tables, pol_i.tables)]:
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
    # the last step's (x_t, h_t, u_t) joints, stacked: I(x; u | h), finite
    # even at a fixed point's tiny entries
    lams = belief.mus[-2][..., None] * stack.tables[-1]
    got_mi = conditional_mutual_information(lams, (1,), (3,), (2,))
    want_mi = [conditional_mutual_information(lam, (0,), (2,), (1,)) for lam in lams]
    assert got_mi.shape == (k,) and np.isfinite(got_mi).all()
    assert np.array_equal(got_mi, want_mi)
    assert all(type(v) is float for v in want_mi)


@pytest.mark.parametrize("horizon, degree", CASES)
def test_stacked_information_equals_window_terms(horizon, degree):
    # per-step information of a stack whose members have zero entries and
    # massless histories (they never play action 0) against the window
    # scan's transfer-entropy terms, member by member; marginals starved
    # under one member's mass make its last step and its objective +inf
    mdp, _ = _instance(horizon, degree)
    rng = np.random.default_rng(70 + degree)
    pols = [oracle.random_policy(rng, mdp, degree), _massless_policy(rng, mdp, degree),
            _massless_policy(rng, mdp, degree)]
    stack = PolicyStack.of(degree, pols)
    got = td.per_step_information(mdp, stack)
    assert got.shape == (3, horizon)
    for info, pol in zip(got, pols):
        np.testing.assert_allclose(info, td.transfer_entropy_terms(mdp, pol),
                                   rtol=TOL, atol=TOL)
    belief, nu = forward_pass(mdp, stack)
    joint = (belief.mus[-2][1][..., None] * stack.tables[-1][1]).sum(axis=0)
    starved = [n.copy() for n in nu]
    starved[-1][1][np.unravel_index(joint.argmax(), joint.shape)] = 0.0
    lay = mdp.sweep_plan(degree).layout
    q, mu = lay.tables.join(stack.tables), lay.beliefs.join(belief.mus)
    lam = mu.take(lay.row_of, -1) * q
    rows = information_rows(lay, lam, q, lay.marginals.join(starved))
    assert np.array_equal(np.delete(rows, -1, axis=1), np.delete(got, -1, axis=1))
    assert rows[1, -1] == math.inf and rows[[0, 2], -1].tolist() == got[[0, 2], -1].tolist()
    values = td.factored_objective(mdp, stack, starved, 0.6, belief)
    assert values[1] == math.inf and np.isfinite(values[[0, 2]]).all()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_marginal_raises_numerical_error():
    mdp, pol = _instance(4, 1)
    _, nu = forward_pass(mdp, pol)
    nu[2] = np.full_like(nu[2], np.nan)
    with pytest.raises(NumericalError, match="normalizer at t=2"):
        backward_pass(mdp, nu, 0.7, 1)


@pytest.mark.parametrize("horizon, degree, maze", PATH_CASES)
def test_pushed_lam_gives_the_pass_beliefs(horizon, degree, maze):
    # the pushes of a forward pass's own lam = mu q, without its multiply,
    # give the pass's beliefs bit for bit, for a stack and for each member
    mdp, _ = _instance(horizon, degree, maze=maze)
    rng = np.random.default_rng(20 + degree)
    pols = [oracle.random_policy(rng, mdp, degree) for _ in range(3)]
    plan = mdp.sweep_plan(degree)
    rows = np.stack([plan.layout.tables.join(p.tables) for p in pols])
    flow = plan.forward_flat(rows)
    lam = plan.lam(3).copy()
    assert np.array_equal(plan.pushed(lam), flow.mu)
    for i in range(3):
        assert np.array_equal(plan.pushed(lam[i]), flow.mu[i])


def test_subnormal_mass_history_gets_uniform_marginal():
    # the history u_0 = 1 has mass 5e-324, and every entry of its joint row,
    # 5e-324 / 3, underflows to 0: the history counts as massless, so its
    # marginal is uniform and the backward pass stays finite
    mdp = td.FiniteMdp(
        (np.ones((1, 2, 1)), np.ones((1, 3, 1))),
        (np.zeros((1, 2)), np.array([[0.0, 1.0, 2.0]])),
        np.zeros(1),
        np.ones(1),
    )
    q0 = np.array([[[1.0, 5e-324]]])
    q1 = np.full((1, 2, 3), 1.0 / 3.0)
    plan = mdp.sweep_plan(1)
    mus, nus = forward_split(plan, (q0, q1))
    assert mus[1][0, 1] == 5e-324 and not (mus[1][0, 1] * q1[0, 1]).any()
    assert np.array_equal(nus[1], np.full((2, 3), 1.0 / 3.0))
    _, log_phi, pol = backward_pass(mdp, nus, 0.7, 1)
    assert all(np.isfinite(lp).all() for lp in log_phi)
    np.testing.assert_allclose(pol.tables[1].sum(axis=-1), 1.0, rtol=0, atol=TOL)


def _per_step_marginals(mus, tables):
    """nu_t as the sweeps computed them step by step before the per-pass
    bin sums: lam summed over the x axis over mu summed over it, uniform
    where the history's joint row is all 0; and whether some history has
    zero mass, and whether some history has mass but an all-0 joint row.
    The mass adds in x order (cumsum), as a sum over a strided axis does; a
    sum over a contiguous one (a single history) of 8 or more states adds
    pairwise."""
    nus, massless, underflow = [], False, False
    for mu, q in zip(mus, tables):
        joint = (mu[..., None] * q).sum(axis=-3)
        mass = np.cumsum(mu, axis=-2)[..., -1, :, None]
        fed = joint.any(axis=-1, keepdims=True)
        nu = np.full_like(joint, 1.0 / joint.shape[-1])
        np.divide(joint, mass, out=nu, where=fed)
        nus.append(nu)
        massless |= bool((mass == 0.0).any())
        underflow |= bool(((mass > 0.0) & ~fed).any())
    return nus, massless, underflow


@pytest.mark.parametrize("degree, k", [
    *((n, k) for n in (0, 1, 2) for k in (1, 3)), (0, 6),
])
def test_per_pass_marginals_equal_per_step_sums(degree, k):
    # the one bin sum per pass adds, per (t, h, u), the entries in the
    # order the per-step sums over x did: equal bit for bit, on members with
    # massless histories (never action 0) and, on test_subnormal_mass_
    # history_gets_uniform_marginal's instance one step longer, with a
    # history of mass 5e-324 whose joint row underflows to 0; with k = 6,
    # also on the benchmark's six maze starts at the reachable rows
    mdp, _ = _instance(4, degree)
    rng = np.random.default_rng(70 + 10 * k + degree)
    kinds = [lambda: oracle.random_policy(rng, mdp, degree),
             lambda: _massless_policy(rng, mdp, degree)]
    tiny = td.FiniteMdp(
        (np.ones((1, 2, 1)), np.ones((1, 3, 1)), np.ones((1, 2, 1))),
        (np.zeros((1, 2)), np.array([[0.0, 1.0, 2.0]]), np.zeros((1, 2))),
        np.zeros(1),
        np.ones(1),
    )
    q0 = np.array([[[1.0, 5e-324]]])
    q1 = np.full(tiny.sweep_plan(degree).steps[1].shape, 1.0 / 3.0)
    cases = [
        (mdp, [kinds[(i + 1) % 2]() for i in range(k)]),
        (tiny, [td.MemoryPolicy(degree, (q0, q1, oracle.random_policy(
            rng, tiny, degree).tables[2])) for _ in range(k)]),
    ]
    if k == 6:
        maze = td.build_maze(td.sample_maze_spec(horizon=55))
        pols = [td.MemoryPolicy.uniform(maze, 0), *plan_start_policies(maze, 0, 3),
                *(td.MemoryPolicy.perturbed(maze, 0, s) for s in (1, 2))]
        cut = maze.restriction
        cases.append((cut.mdp, [td.MemoryPolicy(0, tuple(
            q[..., s, :, :] for q, s in zip(p.tables, cut.states))) for p in pols]))
    seen = []
    for inst, pols in cases:
        tables = [np.stack(ts) for ts in zip(*(p.tables for p in pols))]
        if k == 1:
            tables = [q[0] for q in tables]
        mus, nus = forward_split(inst.sweep_plan(degree), tables)
        want, *flags = _per_step_marginals(mus, tables)
        assert all(np.array_equal(a, b) for a, b in zip(nus, want, strict=True))
        seen.append(flags)
    assert [any(f) for f in zip(*seen)] == [degree > 0, degree > 0]


def test_sweep_tables_are_views_of_one_c_ordered_row_per_member(monkeypatch):
    # every forward pass of a multi-start's sweeps, those after a SqS3 point
    # too, reads one C-ordered tables row per member, and the backward pass
    # of a stack returns per-step tables that are views of such rows
    mdp = oracle.random_mdp(np.random.default_rng(40), 4, 4, 3)
    opts = td.SolveOptions(beta=0.6, degree=1, max_iters=20)
    seen = []
    real = SweepPlan.forward_flat

    def forward_flat(plan, q):
        if sys._getframe(1).f_code.co_name == "_sweeps":
            seen.append(q)
        return real(plan, q)

    monkeypatch.setattr(SweepPlan, "forward_flat", forward_flat)
    td.multi_start(mdp, opts, starts=2, seed=5, plan_starts=1)
    monkeypatch.undo()
    cells = mdp.sweep_plan(1).cells

    def one_row_per_member(tables):
        row = tables[0].base
        return (row.ndim == 2 and row.shape[1] == cells and row.flags.c_contiguous
                and all(q.base is row for q in tables)
                and all(q[i].flags.c_contiguous for q in tables for i in range(len(q))))

    assert len(seen) > 3 and all(  # the first point is swept on sweep 3
        q.ndim == 2 and q.shape[1] == cells and q.flags.c_contiguous for q in seen)
    pols = [oracle.random_policy(np.random.default_rng(i), mdp, 1) for i in range(3)]
    _, nu = forward_pass(mdp, PolicyStack.of(1, pols))
    assert one_row_per_member(backward_pass(mdp, nu, 0.6, 1)[2].tables)


@pytest.mark.parametrize("low", [0.3, 1e-299, 1e-300, 1e-310, 0.0, np.nan])
def test_log_marginals_floor_zeros_and_nan(low):
    # rows with no entry below the floor take the log alone; an entry below
    # it, a zero or a NaN anywhere takes the floor, -inf at zeros and NaN
    nu = np.array([[0.5, 0.25, low], [0.7, 0.2, 0.1]])
    want = np.where(nu > 0.0, np.log(np.maximum(nu, MARGINAL_FLOOR)), -np.inf)
    assert log_marginals(nu).tobytes() == want.tobytes()
    out = np.empty_like(nu)
    assert log_marginals(nu, out=out) is out and out.tobytes() == want.tobytes()


def test_finite_log_phi_whose_sum_overflows_is_no_error():
    # a terminal cost near the float maximum puts every log phi entry near
    # -1e308: their sum overflows, and the per-step scan that follows finds
    # every step finite, so the pass returns
    mdp, pol = _instance(4, 1)
    big = td.FiniteMdp(mdp.transitions, mdp.stage_costs,
                       np.full_like(mdp.terminal_cost, 1e308), mdp.initial)
    _, nu = forward_pass(big, pol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, log_phi, _ = backward_pass(big, nu, 1.0, 1)
    assert all(np.isfinite(lp).all() for lp in log_phi)
    assert not math.isfinite(sum(v for lp in log_phi[:-1] for v in lp.ravel().tolist()))


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("degree, poisoned, beta, t", [
    (0, (1, 3), 0.7, 3), (1, (0, 2), 0.7, 2), (2, (), 5e-324, 3),
])
def test_nonfinite_normalizer_names_its_largest_step(degree, poisoned, beta, t, stacked):
    # the finiteness of log_phi is checked once per pass, after the whole
    # recursion: the error names the largest failing step, as the check of
    # every step on the way down did, and no RuntimeWarning escapes
    mdp, pol = _instance(4, degree)
    policy = PolicyStack.of(degree, [pol] * 3) if stacked else pol
    _, nu = forward_pass(mdp, policy)
    for s in poisoned:
        if stacked:
            nu[s][1] = np.nan
        else:
            nu[s] = np.full_like(nu[s], np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"normalizer at t={t}$"):
            backward_pass(mdp, nu, beta, degree)


def test_plan_is_cached_and_holds_views():
    mdp, _ = _instance(4, 2)
    plan = mdp.sweep_plan(2)
    assert mdp.sweep_plan(2) is plan
    for s, p in zip(plan.steps, mdp.transitions):
        assert not s.flat.flags.owndata and np.shares_memory(s.flat, p)
        assert not s.by_action.flags.owndata and np.shares_memory(s.by_action, p)
    # the flat layout is built once, by the first forward pass, whose rows
    # it lays out, and serves the sweep of the first SqS3 point too
    assert "layout" not in vars(plan)
    forward_pass(mdp, td.MemoryPolicy.uniform(mdp, 2))
    layout = vars(plan)["layout"]
    opts = td.SolveOptions(beta=1.0, degree=2, tol_objective=1e-300,
                           tol_residual=1e-300, max_iters=3)
    td.solve(mdp, opts)
    assert plan.layout is layout
    assert layout.tables.shapes == tuple(s.shape for s in plan.steps)
    assert layout.tables.size == len(layout.cost) == plan.cells
    # the T=55 maze repeats one transition array, and every step's kernels
    # are views of that one buffer
    maze = td.build_maze(td.sample_maze_spec(horizon=55))
    buffer = maze.transitions[0]
    steps = maze.sweep_plan(0).steps
    assert len(steps) == 55
    for s in steps:
        assert np.shares_memory(s.flat, buffer) and np.shares_memory(s.by_action, buffer)


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
