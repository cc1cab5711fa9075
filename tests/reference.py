"""Reference oracles for the test suite.

Everything here is written for clarity over speed and deliberately avoids
the package's array-based code paths: trajectory probabilities come from
explicit recursion over realizations, beliefs, marginals and information
terms from sums over them, the backward recursion from scalar loops.  Tests
compare package outputs against these.
"""

from __future__ import annotations

import math

import numpy as np

from termdp import oracle
from termdp.model import LOG_FLOOR, FiniteMdp, MemoryPolicy
from termdp.solver import forward_pass


def enum_trajectory_probs(mdp: FiniteMdp, policy: MemoryPolicy) -> dict:
    """Exhaustive trajectory distribution {(states, controls): probability}."""
    T = mdp.horizon
    X, A = mdp.state_cards, mdp.action_cards
    n = policy.degree
    probs: dict[tuple, float] = {}

    def rec(t: int, xs: list[int], us: list[int], p: float) -> None:
        if p == 0.0:
            return
        if t == T:
            key = (tuple(xs), tuple(us))
            probs[key] = probs.get(key, 0.0) + p
            return
        h = 0
        for s in range(max(0, t - n), t):
            h = h * A[s] + us[s]
        for u in range(A[t]):
            pu = policy.tables[t][xs[t], h, u]
            for y in range(X[t + 1]):
                rec(t + 1, xs + [y], us + [u], p * pu * mdp.transitions[t][xs[t], u, y])

    for x0 in range(X[0]):
        rec(0, [x0], [], float(mdp.initial[x0]))
    return probs


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


def _cmi_from_dict(entries: dict) -> float:
    """I(A; B | C) from {(a, c, b): p} with the 0 log 0 convention."""
    p_ac: dict = {}
    p_cb: dict = {}
    p_c: dict = {}
    for (a, c, b), p in entries.items():
        p_ac[(a, c)] = p_ac.get((a, c), 0.0) + p
        p_cb[(c, b)] = p_cb.get((c, b), 0.0) + p
        p_c[c] = p_c.get(c, 0.0) + p
    val = 0.0
    for (a, c, b), p in entries.items():
        if p > 0.0:
            val += p * math.log(p * p_c[c] / (p_ac[(a, c)] * p_cb[(c, b)]))
    return val


def enum_te_terms(
    mdp: FiniteMdp, policy: MemoryPolicy, m: int, n_eval: int
) -> np.ndarray:
    """Per-step transfer entropy terms from the exhaustive trajectory joint."""
    probs = enum_trajectory_probs(mdp, policy)
    terms = []
    for t in range(mdp.horizon):
        d: dict = {}
        for (xs, us), p in probs.items():
            a = tuple(xs[max(0, t - m): t + 1])
            c = tuple(us[max(0, t - n_eval): t])
            key = (a, c, us[t])
            d[key] = d.get(key, 0.0) + p
        terms.append(_cmi_from_dict(d))
    return np.asarray(terms)


def enum_directed_information(mdp: FiniteMdp, policy: MemoryPolicy) -> float:
    """Directed information from the exhaustive trajectory joint."""
    probs = enum_trajectory_probs(mdp, policy)
    total = 0.0
    for t in range(mdp.horizon):
        d: dict = {}
        for (xs, us), p in probs.items():
            key = (tuple(xs[: t + 1]), tuple(us[:t]), us[t])
            d[key] = d.get(key, 0.0) + p
        total += _cmi_from_dict(d)
    return total


def symmetric_classical_value(beta: float, crossover: float) -> float:
    """Objective of the symmetric single-stage binary instance.

    The policy matches the state with probability ``crossover``; the prior is
    uniform and the cost is one on mismatch.
    """
    p = crossover
    cost = 1.0 - p
    if p in (0.0, 1.0):
        info = math.log(2.0)
    else:
        info = math.log(2.0) + p * math.log(p) + (1.0 - p) * math.log(1.0 - p)
    return cost + beta * info


def symmetric_classical_minimum(beta: float, resolution: int = 2_000_001) -> float:
    """Fine-grid minimum of the symmetric single-stage objective."""
    p = np.linspace(0.0, 1.0, resolution)[1:-1]
    info = math.log(2.0) + p * np.log(p) + (1.0 - p) * np.log(1.0 - p)
    values = (1.0 - p) + beta * info
    endpoints = min(
        symmetric_classical_value(beta, 0.0), symmetric_classical_value(beta, 1.0)
    )
    return min(float(values.min()), endpoints)


def reachable_rows(mdp: FiniteMdp, policies) -> np.ndarray:
    """Policies at the instance's shapes as the solver's start rows: each
    table cut to the reachable states by indexing, and the cut tables laid
    end to end in C order, one row per policy."""
    states = mdp.restriction.states
    return np.stack([
        np.concatenate([q[s].ravel() for q, s in zip(p.tables, states)])
        for p in policies
    ])


def forward_split(plan, tables):
    """The package's forward pass of per-step tables (one policy, or K
    stacked), split back into steps: beliefs mu_0..mu_T and marginals
    nu_0..nu_{T-1}.  Not a reference: one ``SweepPlan.forward_flat``."""
    lay = plan.layout
    flow = plan.forward_flat(lay.tables.join(tables))
    return list(lay.beliefs.split(flow.mu)), list(lay.marginals.split(flow.nu))


def massless_policy(rng, mdp, degree):
    """A random policy that never plays action 0, so histories holding it
    carry no mass and the masked relations skip them."""
    tables = []
    for q in oracle.random_policy(rng, mdp, degree).tables:
        q = q.copy()
        q[..., 0] = 0.0
        tables.append(q / q.sum(axis=2, keepdims=True))
    return MemoryPolicy(degree, tuple(tables))


def edge_marginals(rng, mdp, degree, kind, count):
    """An instance and count marginal lists that stress the backward pass.

    "zeros": random policies' marginals with about a third of the entries
    set to exactly 0 (never a whole row); "massless": the marginals of
    ``massless_policy``s, uniform at massless histories and 0 at action 0
    elsewhere; "penalty": random policies' marginals on the instance with a
    terminal cost near 1e3, so that log phi reaches about -1e3 / beta and
    exp(z) underflows to 0 without the max shift.  These are inputs, not
    references: the marginals come from the package's forward pass."""
    if kind == "penalty":
        terminal = 1e3 + 50.0 * rng.random(mdp.state_cards[-1])
        mdp = FiniteMdp(mdp.transitions, mdp.stage_costs, terminal, mdp.initial)
    make = massless_policy if kind == "massless" else oracle.random_policy
    nus = []
    for _ in range(count):
        nu = forward_pass(mdp, make(rng, mdp, degree))[1]
        if kind == "zeros":
            for n in nu:
                zero = rng.random(n.shape) < 0.35
                zero[np.arange(len(n)), rng.integers(0, n.shape[1], len(n))] = False
                n[zero] = 0.0
                n /= n.sum(axis=1, keepdims=True)
        nus.append(nu)
    return mdp, nus


def loop_backward(mdp, nu, beta, degree):
    """log_phi and Gibbs policies by scalar loops over (t, x, h, u, y); a
    zero marginal gives log nu = -inf and a policy entry of exactly 0."""
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
                    log_nu = math.log(nu[t][h, u]) if nu[t][h, u] > 0.0 else -math.inf
                    z.append(log_nu - rho)
                top = max(z)
                lse = top + math.log(sum(math.exp(v - top) for v in z))
                lp[x, h] = lse
                q[x, h, :] = [math.exp(v - lse) for v in z]
        log_phi[t], tables[t] = lp, q
    return log_phi, tables


# The SqS3 cycle of the solver's sweeps on fresh arrays: K-element numpy
# arrays for the per-member scalars, and the (t, h) segments of a marginals
# row found from the layout's history_of.  The workspace cycle must give these
# numbers bit for bit.

STEP_GROWTH = 4.0


def squarem(x0, x1, x2, bound):
    """SqS3 points of stacked log-iterates and |alpha|, bound an array."""
    r = x1 - x0
    v = x2 - x1 - r
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = -np.sqrt((r * r).sum(axis=1) / (v * v).sum(axis=1))
    alpha = np.where(np.isnan(alpha), -1.0, np.minimum(np.maximum(alpha, -bound), -1.0))
    a = alpha[:, None]
    return x0 - 2.0 * a * r + a * a * v, -alpha


def step_bound(bound, alpha, tried, kept):
    """SqS3 step bounds after judging the points."""
    grown = np.where(alpha == bound, STEP_GROWTH * bound, bound)
    shrunk = np.where(tried, np.maximum(1.0, alpha / STEP_GROWTH), bound)
    return np.where(kept, grown, shrunk)


def _segment_normalize(x, seg):
    """Floor log rows at LOG_FLOOR, renormalize each run of entries with
    equal seg."""
    x = np.maximum(x, LOG_FLOOR)
    starts = np.flatnonzero(np.diff(seg, prepend=-1))
    top = np.maximum.reduceat(x, starts, axis=-1)
    lse = np.log(np.add.reduceat(np.exp(x - top[:, seg]), starts, axis=-1))
    return x - (top + lse)[:, seg]


def log_normalize(layout, x):
    """Floor flattened log-tables at LOG_FLOOR, renormalize each (t, x, h) segment."""
    return _segment_normalize(x, layout.row_of)


def log_normalize_marginals(layout, x):
    """Floor log-marginals rows at LOG_FLOOR, renormalize each (t, h) segment."""
    return _segment_normalize(x, layout.history_of)
