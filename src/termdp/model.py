"""Finite-horizon controlled Markov chains with an information cost on the
state-to-control channel.

Data layout conventions used throughout the package:

- Time is 0-based internally.  Decisions happen at t = 0..T-1 and states live
  at t = 0..T, so ``transitions[t]`` maps (x_t, u_t) to a distribution over
  x_{t+1}.
- A policy of memory degree n conditions on the current state and on the last
  min(n, t) controls.  Control histories are flattened in C order with the
  oldest control as the most significant coordinate, so appending a control u
  to a flat history h of width U gives the flat index h * U + u.
- All information quantities are in nats (natural logarithm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InstanceError, NumericalError, ResourceError

__all__ = [
    "FiniteMdp",
    "MemoryPolicy",
    "SweepPlan",
    "ReducedBelief",
    "WindowJoint",
    "ObjectiveValue",
    "propagate_reduced",
    "propagate_window",
    "induced_action_marginals",
    "per_step_information",
    "expected_cost",
    "transfer_entropy",
    "transfer_entropy_terms",
    "directed_information",
    "objective",
    "factored_objective",
    "canonicalize_policy",
    "conditional_mutual_information",
]

ROW_TOL = 1e-12
DEFAULT_CELL_BUDGET = 20_000_000


def _frozen(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteMdp:
    """Finite MDP instance: transition kernels, costs, initial distribution.

    ``transitions[t]`` has shape (X_t, U_t, X_{t+1}) and every slice
    ``transitions[t][x, u]`` is a probability row.  ``stage_costs[t]`` has
    shape (X_t, U_t), ``terminal_cost`` shape (X_T,), ``initial`` shape
    (X_0,).  Arrays are made read-only on construction; instances are safe to
    share between threads.  Sweep plans are built on first use and cached
    per memory degree.
    """

    transitions: tuple[np.ndarray, ...]
    stage_costs: tuple[np.ndarray, ...]
    terminal_cost: np.ndarray
    initial: np.ndarray
    _cards: tuple = field(init=False, repr=False, compare=False)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "transitions", tuple(_frozen(p) for p in self.transitions)
        )
        object.__setattr__(
            self, "stage_costs", tuple(_frozen(c) for c in self.stage_costs)
        )
        object.__setattr__(self, "terminal_cost", _frozen(self.terminal_cost))
        object.__setattr__(self, "initial", _frozen(self.initial))
        self._validate()
        states = tuple(p.shape[0] for p in self.transitions)
        actions = tuple(p.shape[1] for p in self.transitions)
        states += (self.transitions[-1].shape[2],)
        object.__setattr__(self, "_cards", (states, actions))

    # -- shape helpers -----------------------------------------------------

    @property
    def horizon(self) -> int:
        return len(self.transitions)

    @property
    def state_cards(self) -> tuple[int, ...]:
        return self._cards[0]

    @property
    def action_cards(self) -> tuple[int, ...]:
        return self._cards[1]

    def sweep_plan(self, degree: int) -> "SweepPlan":
        """The sweep plan at a memory degree, built on first use."""
        plan = self._plans.get(degree)
        if plan is None:
            plan = self._plans[degree] = SweepPlan(self, degree)
        return plan

    def history_span(self, degree: int, t: int) -> range:
        """Decision times whose controls a degree-n history at time t covers."""
        return range(max(0, t - degree), t)

    def history_dims(self, degree: int, t: int) -> tuple[int, ...]:
        acts = self.action_cards
        return tuple(acts[s] for s in self.history_span(degree, t))

    def history_size(self, degree: int, t: int) -> int:
        return math.prod(self.history_dims(degree, t))

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        if not self.transitions:
            raise InstanceError("horizon must be at least 1")
        if len(self.stage_costs) != len(self.transitions):
            raise InstanceError(
                f"{len(self.stage_costs)} stage cost tables for horizon "
                f"{len(self.transitions)}"
            )
        for t, p in enumerate(self.transitions):
            if p.ndim != 3:
                raise InstanceError(f"transitions[{t}] must be 3-d, got {p.ndim}-d")
            if t + 1 < len(self.transitions):
                nxt = self.transitions[t + 1].shape[0]
                if p.shape[2] != nxt:
                    raise InstanceError(
                        f"transitions[{t}] has {p.shape[2]} next states but "
                        f"transitions[{t + 1}] has {nxt} states"
                    )
            if not np.isfinite(p).all():
                idx = tuple(int(i) for i in np.argwhere(~np.isfinite(p))[0])
                raise InstanceError(f"transitions[{t}] non-finite at {idx}")
            if (p < 0).any():
                x, u, y = (int(i) for i in np.argwhere(p < 0)[0])
                raise InstanceError(
                    f"transitions[{t}] negative entry at (x={x}, u={u}, x'={y})"
                )
            sums = p.sum(axis=2)
            bad = np.argwhere(np.abs(sums - 1.0) > ROW_TOL)
            if bad.size:
                x, u = (int(i) for i in bad[0])
                raise InstanceError(
                    f"transitions[{t}] row (x={x}, u={u}) sums to "
                    f"{sums[x, u]!r}, expected 1"
                )
        for t, c in enumerate(self.stage_costs):
            want = self.transitions[t].shape[:2]
            if c.shape != want:
                raise InstanceError(
                    f"stage_costs[{t}] shape {c.shape} does not match {want}"
                )
            if not np.isfinite(c).all():
                idx = tuple(int(i) for i in np.argwhere(~np.isfinite(c))[0])
                raise InstanceError(f"stage_costs[{t}] non-finite at {idx}")
        if self.terminal_cost.shape != (self.transitions[-1].shape[2],):
            raise InstanceError(
                f"terminal cost shape {self.terminal_cost.shape} does not match "
                f"{self.transitions[-1].shape[2]} terminal states"
            )
        if not np.isfinite(self.terminal_cost).all():
            idx = int(np.argwhere(~np.isfinite(self.terminal_cost))[0][0])
            raise InstanceError(f"terminal cost non-finite at x={idx}")
        if self.initial.shape != (self.transitions[0].shape[0],):
            raise InstanceError(
                f"initial distribution shape {self.initial.shape} does not match "
                f"{self.transitions[0].shape[0]} states"
            )
        if (self.initial < 0).any():
            idx = int(np.argwhere(self.initial < 0)[0][0])
            raise InstanceError(f"initial distribution negative at x={idx}")
        if abs(float(self.initial.sum()) - 1.0) > ROW_TOL:
            raise InstanceError(
                f"initial distribution sums to {float(self.initial.sum())!r}"
            )


@dataclass(frozen=True)
class MemoryPolicy:
    """Randomized decision rule q_t(u_t | x_t, last-n controls).

    ``tables[t]`` has shape (X_t, H_t, U_t) with H_t the flattened history
    size at time t; every (x, h) slice is a distribution over actions.
    """

    degree: int
    tables: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise InstanceError("memory degree must be nonnegative")
        object.__setattr__(self, "tables", tuple(_frozen(q) for q in self.tables))
        for t, q in enumerate(self.tables):
            if q.ndim != 3:
                raise InstanceError(f"policy table {t} must be 3-d, got {q.ndim}-d")
        check_tables(self.tables)

    @property
    def horizon(self) -> int:
        return len(self.tables)

    @classmethod
    def uniform(cls, mdp: FiniteMdp, degree: int) -> "MemoryPolicy":
        steps = mdp.sweep_plan(degree).steps
        return cls(degree, tuple(np.full(s.shape, 1.0 / s.shape[2]) for s in steps))

    @classmethod
    def perturbed(
        cls, mdp: FiniteMdp, degree: int, seed: int, magnitude: float = 0.1
    ) -> "MemoryPolicy":
        """Uniform policy with a seeded multiplicative perturbation.

        magnitude must lie in (0, 1) so every entry stays strictly positive.
        """
        if not 0.0 < magnitude < 1.0:
            raise InstanceError(f"perturbation magnitude {magnitude!r} not in (0, 1)")
        steps = mdp.sweep_plan(degree).steps
        rng = np.random.default_rng(seed)
        tables = []
        for s in steps:
            raw = 1.0 + magnitude * (2.0 * rng.random(s.shape) - 1.0)
            tables.append(raw / raw.sum(axis=2, keepdims=True))
        return cls(degree, tuple(tables))


@dataclass(frozen=True)
class ReducedBelief:
    """Joint distributions mu_t(x_t, last-n controls) for t = 0..T.

    ``mus[t]`` has shape (X_t, H_t) with the usual flattened-history layout;
    the last entry is the terminal joint.
    """

    degree: int
    mus: tuple[np.ndarray, ...]

    def state_marginal(self, t: int) -> np.ndarray:
        return self.mus[t].sum(axis=1)


@dataclass(frozen=True)
class WindowJoint:
    """Per-time joints over a sliding window of states and controls.

    ``joints[t]`` carries axes (x_{t-mx}, ..., x_t, u_{t-h}, ..., u_{t-1})
    with mx = min(m, t) and h = min(u_depth, t); oldest coordinates first.
    """

    m: int
    u_depth: int
    joints: tuple[np.ndarray, ...]

    def x_axis_count(self, t: int) -> int:
        return min(self.m, t) + 1

    def state_marginal(self, t: int) -> np.ndarray:
        j = self.joints[t]
        nx = self.x_axis_count(t)
        axes = tuple(range(nx - 1)) + tuple(range(nx, j.ndim))
        return j.sum(axis=axes) if axes else j.copy()


@dataclass(frozen=True)
class ObjectiveValue:
    """Objective decomposition: expected cost, information, weighted total."""

    cost: float
    information_nats: float
    total: float


def check_beta(beta: float) -> None:
    """Reject an information price that is not a positive finite number."""
    if not (math.isfinite(beta) and beta > 0):
        raise InstanceError(f"beta must be positive and finite, got {beta!r}")


# ---------------------------------------------------------------------------
# Sweep plan: shapes and kernels of the forward and backward passes
# ---------------------------------------------------------------------------


def check_tables(tables: Sequence[np.ndarray]) -> None:
    """Reject action slices that are not distributions, past any batch axis."""
    for t, q in enumerate(tables):
        bad = ~(q >= 0.0)  # NaN compares false too
        if bad.any():
            *_, x, h, u = (int(i) for i in np.argwhere(bad)[0])
            raise InstanceError(
                f"policy table {t} negative or NaN at (x={x}, history={h}, u={u})"
            )
        sums = q.sum(axis=-1)
        off = np.abs(sums - 1.0) > ROW_TOL
        if off.any():
            at = tuple(int(i) for i in np.argwhere(off)[0])
            raise InstanceError(
                f"policy table {t} slice (x={at[-2]}, history={at[-1]}) sums "
                f"to {sums[at]!r}, expected 1"
            )


def check_compatible(mdp: FiniteMdp, policy: MemoryPolicy) -> "SweepPlan":
    """Check table shapes, past any batch axis, against the instance; get the plan."""
    if len(policy.tables) != mdp.horizon:
        raise InstanceError(
            f"policy horizon {len(policy.tables)} != instance horizon {mdp.horizon}"
        )
    plan = mdp.sweep_plan(policy.degree)
    for t, (q, step) in enumerate(zip(policy.tables, plan.steps)):
        if q.shape[-3:] != step.shape:
            raise InstanceError(
                f"policy table {t} has shape {q.shape}, instance requires {step.shape}"
            )
    return plan


def slide_split(mdp: FiniteMdp, degree: int, t: int) -> tuple[int, int]:
    """Split H_t into (dropped, kept) flat sizes when stepping to t + 1.

    The new history at t + 1 is (kept oldest-trimmed part, u_t) for degree
    >= 1 and empty for degree 0, where u_t is never recorded.
    """
    dims = mdp.history_dims(degree, t)
    h = math.prod(dims)
    if dims and max(0, t + 1 - degree) > max(0, t - degree):
        return dims[0], h // dims[0]
    return 1, h


def gibbs_step(nu: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log partition and Gibbs policy of a marginal against a scaled cost.

    Over the last axis, with z = log nu - cost (nu broadcast against cost):

        log_phi = logsumexp_u(z)
        q       = exp(z - log_phi)

    Zero marginal entries get log nu = -inf and so zero policy mass.  q is
    not renormalized; callers that keep it as a policy divide by its sums.
    """
    log_nu = np.where(nu > 0.0, np.log(np.maximum(nu, 1e-300)), -np.inf)
    z = log_nu - cost
    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax[..., 0] + np.log(np.exp(z - zmax).sum(axis=-1))
    return lse, np.exp(z - lse[..., None])


def _action_marginal(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """nu_t(u | h) from lam_t(x, h, u) and mu_t(x, h); uniform where h is massless."""
    joint = lam.sum(axis=-3)  # (..., H, U)
    mass = mu.sum(axis=-2)[..., None]
    nu = np.full_like(joint, 1.0 / joint.shape[-1])
    np.divide(joint, mass, out=nu, where=mass > 0.0)
    return nu


class PlanStep(NamedTuple):
    """Decision time t of a sweep plan.

    ``shape`` is the policy table shape (X_t, H_t, U_t); ``dropped * kept``
    splits H_t by the oldest control, which leaves the window at t + 1.
    ``flat`` (X_t * U_t, X_{t+1}) and ``by_action`` (U_t, X_t, X_{t+1}) are
    views of ``transitions[t]``, not copies.
    """

    shape: tuple[int, int, int]
    dropped: int
    kept: int
    flat: np.ndarray
    by_action: np.ndarray
    cost: np.ndarray


class SweepPlan:
    """Shapes and kernels of the forward and backward passes at one degree.

    Built once per (instance, degree) by ``FiniteMdp.sweep_plan``.  Kernels
    take one policy, or K stacked on a leading axis.  Each contraction over
    x_{t+1} is a stacked matmul, (K, 1, n) @ (n, m) and (n, m) @ (K, m, 1) at
    degree 0 and batched over u_t at degree >= 1, so each member's numbers are
    its solo run's bit for bit (a 2-d (K, n) @ (n, m) gemm's are not).  Raises
    ResourceError when one policy's ``cells`` exceed DEFAULT_CELL_BUDGET.
    """

    def __init__(self, mdp: FiniteMdp, degree: int) -> None:
        if degree < 0:
            raise InstanceError("memory degree must be nonnegative")
        steps = []
        for t, p in enumerate(mdp.transitions):
            x, u, y = p.shape
            h = mdp.history_size(degree, t)
            dropped, kept = slide_split(mdp, degree, t)
            steps.append(
                PlanStep(
                    (x, h, u), dropped, kept, p.reshape(x * u, y),
                    p.transpose(1, 0, 2), mdp.stage_costs[t],
                )
            )
        self.cells = sum(math.prod(s.shape) for s in steps)
        if self.cells > DEFAULT_CELL_BUDGET:
            raise ResourceError(
                f"policy tables need {self.cells} cells at degree {degree}, "
                f"budget is {DEFAULT_CELL_BUDGET}"
            )
        self.degree = degree
        self.steps = tuple(steps)
        self.initial = mdp.initial
        self.terminal_cost = mdp.terminal_cost
        self.terminal_histories = mdp.history_size(degree, mdp.horizon)

    def push(self, t: int, lam: np.ndarray) -> np.ndarray:
        """mu_{t+1} from the joint lam_t(x, h, u) = mu_t(x, h) q_t(u | x, h).

        Appends u_t to the history and drops the oldest control once the
        window is full; at degree 0 the control never enters the history.
        """
        s, lead = self.steps[t], lam.shape[:-3]
        if self.degree == 0:
            return (lam.reshape(*lead, 1, -1) @ s.flat).reshape(*lead, -1, 1)
        pushed = np.matmul(lam.swapaxes(-1, -3), s.by_action)  # (..., U, H, Y)
        if s.dropped > 1:
            split = (*lead, s.shape[2], s.dropped, s.kept, -1)
            pushed = pushed.reshape(split).sum(axis=-3)
        return pushed.swapaxes(-1, -3).reshape(*lead, s.flat.shape[1], -1)

    def forward(self, tables: Sequence[np.ndarray]) -> tuple[list, list]:
        """Beliefs mu_0..mu_T and action marginals nu_0..nu_{T-1} of a policy."""
        lead = tables[0].shape[:-3]
        mus = [np.ones((*lead, 1, 1)) * self.initial[:, None]]
        nus = []
        for t, q in enumerate(tables):
            lam = mus[-1][..., None] * q
            nus.append(_action_marginal(lam, mus[-1]))
            mus.append(self.push(t, lam))
        return mus, nus

    def terminal_log_phi(self, beta: float) -> np.ndarray:
        """-terminal_cost / beta, repeated over the histories at T."""
        return (-self.terminal_cost / beta)[:, None].repeat(
            self.terminal_histories, axis=1
        )

    def cost_to_go(self, t: int, log_phi_next: np.ndarray, beta: float) -> np.ndarray:
        """rho_t(x, h, u) = c_t(x, u) / beta - E[log_phi_{t+1}(x_{t+1}, h')].

        rho does not depend on the history coordinate that drops out of the
        window at t + 1, so the core is computed once and repeated over it.
        """
        s, lead = self.steps[t], log_phi_next.shape[:-2]
        if self.degree == 0:
            summed = (s.flat @ log_phi_next).reshape(*lead, *s.cost.shape)
            return (s.cost / beta - summed)[..., None, :]
        lp = log_phi_next.reshape(*lead, s.flat.shape[1], s.kept, s.shape[2])
        lp = lp.swapaxes(-1, -3).swapaxes(-1, -2)  # (..., U, Y, kept)
        summed = np.matmul(s.by_action, lp).swapaxes(-3, -1)  # (..., kept, X, U)
        core = s.cost[:, None, :] / beta - summed.swapaxes(-3, -2)
        if s.dropped == 1:
            return core
        return core[..., None, :, :].repeat(s.dropped, axis=-3).reshape(*lead, *s.shape)

    def backward(self, nu: Sequence[np.ndarray], beta: float) -> tuple:
        """rho_0..rho_{T-1}, log_phi_0..log_phi_T and the Gibbs policy tables.

        A stack keeps no rho (None entries).  A normalizer that is not finite
        and positive raises NumericalError; dividing entries exp(z - lse) >= 0
        by any other gives a row that sums to 1 within a few ulps.
        """
        lead = nu[0].shape[:-2]
        T = len(self.steps)
        rho, tables, log_phi = [None] * T, [None] * T, [None] * (T + 1)
        log_phi[T] = np.ones((*lead, 1, 1)) * self.terminal_log_phi(beta)
        for t in range(T - 1, -1, -1):
            r = self.cost_to_go(t, log_phi[t + 1], beta)
            log_phi[t], q_t = gibbs_step(nu[t][..., None, :, :], r)
            rho[t] = None if lead else r
            # exponent roundoff at extreme cost/beta ratios leaves row sums
            # off by more than the policy tolerance; renormalize exactly
            norm = q_t.sum(axis=-1, keepdims=True)
            if not norm.min() > 0.0:  # NaN fails too; terms lie in [0, 1]
                raise NumericalError(f"non-finite or zero Gibbs normalizer at t={t}")
            tables[t] = q_t / norm
        return rho, log_phi, tables


def propagate_reduced(mdp: FiniteMdp, policy: MemoryPolicy) -> ReducedBelief:
    """Propagate the joint state/control-history distribution exactly."""
    mus, _ = check_compatible(mdp, policy).forward(policy.tables)
    return ReducedBelief(policy.degree, tuple(mus))


def _window_scan(
    mdp: FiniteMdp,
    policy: MemoryPolicy,
    m: int,
    u_depth: int,
    max_cells: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
    """Yield (t, window joint, joint extended by u_t) for t = 0..T.

    Valid because under a degree-n policy (n <= u_depth) the window process
    is Markov.  The terminal joint is yielded with extension None.
    """
    check_compatible(mdp, policy)
    if u_depth < policy.degree:
        raise InstanceError(
            f"window control depth {u_depth} is below policy degree {policy.degree}"
        )
    X, A, T = mdp.state_cards, mdp.action_cards, mdp.horizon
    n = policy.degree

    def guard(t: int, cells: int) -> None:
        if cells > max_cells:
            raise ResourceError(f"window joint at t={t} needs {cells} cells, "
                                f"budget is {max_cells}")

    joint = mdp.initial.copy()  # axes (x_0,)
    for t in range(T):
        nx = min(m, t) + 1
        nu = min(u_depth, t)
        hist = mdp.history_dims(n, t)
        guard(t, joint.size * A[t])
        q_shape = (1,) * (nx - 1) + (X[t],) + (1,) * (nu - len(hist)) + hist + (A[t],)
        lam = joint[..., None] * policy.tables[t].reshape(q_shape)
        yield t, joint, lam
        guard(t + 1, lam.size * X[t + 1])
        p_shape = (1,) * (nx - 1) + (X[t],) + (1,) * nu + (A[t], X[t + 1])
        big = lam[..., None] * mdp.transitions[t].reshape(p_shape)
        big = np.moveaxis(big, -1, nx)  # (x-axes..., x_{t+1}, u-axes..., u_t)
        keep_x = min(m, t + 1) + 1
        drop_x = nx + 1 - keep_x
        if drop_x:
            big = big.sum(axis=tuple(range(drop_x)))
        drop_u = nu + 1 - min(u_depth, t + 1)
        if drop_u:
            big = big.sum(axis=tuple(range(keep_x, keep_x + drop_u)))
        joint = big
    yield T, joint, None


def propagate_window(
    mdp: FiniteMdp,
    policy: MemoryPolicy,
    m: int,
    u_depth: int | None = None,
    max_cells: int = DEFAULT_CELL_BUDGET,
) -> WindowJoint:
    """Exact joints over (x_{t-m}..x_t, last u_depth controls) for t = 0..T.

    u_depth defaults to the policy degree.  Raises ResourceError when a joint
    would exceed ``max_cells`` entries.
    """
    if m < 0:
        raise InstanceError("window width m must be nonnegative")
    depth = policy.degree if u_depth is None else u_depth
    joints = [
        joint for _, joint, _ in _window_scan(mdp, policy, m, depth, max_cells)
    ]
    return WindowJoint(m, depth, tuple(joints))


# ---------------------------------------------------------------------------
# Information functionals
# ---------------------------------------------------------------------------


def _scalar(value: np.ndarray) -> float | np.ndarray:
    """A Python float for one policy or joint, the array for a stack."""
    return value if value.ndim else float(value)


def conditional_mutual_information(
    joint: np.ndarray,
    a_axes: Sequence[int],
    b_axes: Sequence[int],
    c_axes: Sequence[int] = (),
) -> float | np.ndarray:
    """I(A; B | C) in nats from an exact joint array.

    Terms with zero joint mass contribute zero (0 log 0 = 0).  Axes outside
    the three groups are batch axes: joints stacked (N, ...) give one value
    per member, each its single call's bit for bit.  A joint without batch
    axes gives a float.
    """
    p = np.asarray(joint, dtype=float)
    a_axes, b_axes = tuple(a_axes), tuple(b_axes)
    p_ac = p.sum(axis=b_axes, keepdims=True)
    p_cb = p.sum(axis=a_axes, keepdims=True)
    p_c = p_ac.sum(axis=a_axes, keepdims=True)
    mask = p > 0.0
    ratio = np.ones_like(p)
    np.divide(p * p_c, p_ac * p_cb, out=ratio, where=mask)
    groups = (*a_axes, *b_axes, *tuple(c_axes))
    return _scalar(np.sum(p * np.log(ratio), axis=groups, where=mask))


def transfer_entropy_terms(
    mdp: FiniteMdp,
    policy: MemoryPolicy,
    m: int | float = 0,
    n_eval: int | float | None = None,
    max_cells: int = DEFAULT_CELL_BUDGET,
) -> np.ndarray:
    """Per-step conditional mutual informations I(window; u_t | recent controls).

    ``m`` widens the state window to x_{t-m}..x_t; ``n_eval`` sets how many
    recent controls are conditioned on (defaults to the policy degree; pass
    math.inf for full-history conditioning, which is guarded by max_cells).
    """
    T = mdp.horizon
    if n_eval is None:
        n_eval = policy.degree
    m_eff = T if math.isinf(m) else int(m)
    n_eff = T if math.isinf(n_eval) else int(n_eval)
    if m_eff < 0 or n_eff < 0:
        raise InstanceError("window degrees must be nonnegative")
    depth = max(n_eff, policy.degree)
    terms = []
    for t, _, lam in _window_scan(mdp, policy, m_eff, depth, max_cells):
        if lam is None:
            break
        nx = min(m_eff, t) + 1
        nu = min(depth, t)
        drop = nu - min(n_eff, t)
        if drop:
            lam = lam.sum(axis=tuple(range(nx, nx + drop)))
        kept = nu - drop
        a_axes = tuple(range(nx))
        c_axes = tuple(range(nx, nx + kept))
        b_axes = (lam.ndim - 1,)
        terms.append(conditional_mutual_information(lam, a_axes, b_axes, c_axes))
    return np.asarray(terms)


def transfer_entropy(
    mdp: FiniteMdp,
    policy: MemoryPolicy,
    m: int | float = 0,
    n_eval: int | float | None = None,
    max_cells: int = DEFAULT_CELL_BUDGET,
) -> float:
    """Total directional information flow from states to controls, in nats."""
    return float(transfer_entropy_terms(mdp, policy, m, n_eval, max_cells).sum())


def _full_history_tables(
    mdp: FiniteMdp, policy: "MemoryPolicy | Sequence[np.ndarray]"
) -> list[np.ndarray]:
    """Policy tables broadcastable against the interleaved trajectory joint.

    The trajectory joint carries axes (x_0, u_0, x_1, u_1, ..., x_t); the
    returned table for time t appends the u_t axis.  Memory policies are
    lifted by inserting singleton axes; explicit full-history tables must
    have exact shape (X_0, U_0, ..., X_t, U_t).
    """
    X, A, T = mdp.state_cards, mdp.action_cards, mdp.horizon
    if isinstance(policy, MemoryPolicy):
        check_compatible(mdp, policy)
        out = []
        for t in range(T):
            span = mdp.history_span(policy.degree, t)
            hist = mdp.history_dims(policy.degree, t)
            q = policy.tables[t].reshape((X[t],) + hist + (A[t],))
            q = np.moveaxis(q, 0, len(hist))  # (hist..., x_t, u_t)
            shape = []
            for s in range(t):
                shape.append(1)
                shape.append(A[s] if s in span else 1)
            shape += [X[t], A[t]]
            out.append(q.reshape(shape))
        return out
    tables = list(policy)
    if len(tables) != T:
        raise InstanceError(
            f"full-history policy has {len(tables)} tables for horizon {T}"
        )
    out = []
    for t, q in enumerate(tables):
        q = np.asarray(q, dtype=float)
        want: tuple[int, ...] = ()
        for s in range(t + 1):
            want += (X[s],)
            if s < t:
                want += (A[s],)
        want += (A[t],)
        if q.shape != want:
            raise InstanceError(
                f"full-history table {t} has shape {q.shape}, expected {want}"
            )
        if (q < 0).any() or np.abs(q.sum(axis=-1) - 1.0).max() > ROW_TOL:
            raise InstanceError(f"full-history table {t} rows are not distributions")
        out.append(q)
    return out


def directed_information(
    mdp: FiniteMdp,
    policy: "MemoryPolicy | Sequence[np.ndarray]",
    max_cells: int = 2_000_000,
) -> float:
    """Sum over t of I(x_0..x_t; u_t | u_0..u_{t-1}) by exhaustive enumeration.

    Equals the transfer entropy with unbounded windows.  The full trajectory
    joint must fit in ``max_cells`` entries; otherwise ResourceError.
    """
    X, A, T = mdp.state_cards, mdp.action_cards, mdp.horizon
    full = math.prod(X) * math.prod(A)
    if full > max_cells:
        raise ResourceError(
            f"trajectory joint needs {full} cells, budget is {max_cells}"
        )
    tables = _full_history_tables(mdp, policy)
    joint = mdp.initial  # axes (x_0,)
    total = 0.0
    for t in range(T):
        joint = joint[..., None] * tables[t]  # axes (x_0, u_0, ..., x_t, u_t)
        a_axes = tuple(range(0, 2 * t + 1, 2))
        c_axes = tuple(range(1, 2 * t, 2))
        total += conditional_mutual_information(joint, a_axes, (2 * t + 1,), c_axes)
        p = mdp.transitions[t].reshape((1,) * (2 * t) + (X[t], A[t], X[t + 1]))
        joint = joint[..., None] * p
    return total


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def induced_action_marginals(
    mdp: FiniteMdp, policy: MemoryPolicy, belief: ReducedBelief | None = None
) -> list[np.ndarray]:
    """History-conditional action marginals of the policy under its own flow.

    Returns per-time arrays of shape (H_t, U_t).  Histories with zero mass
    get the uniform distribution.
    """
    if belief is None:
        return check_compatible(mdp, policy).forward(policy.tables)[1]
    return [
        _action_marginal(mu[..., None] * q, mu)
        for mu, q in zip(belief.mus, policy.tables)
    ]


def _information_terms(policy, nu: Sequence[np.ndarray], belief: ReducedBelief):
    """Per step t: lam_t = mu_t q_t, sum lam_t log(q_t / nu_t), starved flag.

    Only entries with joint mass count.  Starved means nu_t is not positive
    somewhere lam_t is (the term is +inf; those entries are left out of the
    sum).  Stacks give a value and a flag per member, its single call's.
    """
    for mu, q, n in zip(belief.mus, policy.tables, nu):
        lam = mu[..., None] * q
        n = np.asarray(n, dtype=float)[..., None, :, :]
        mask = lam > 0.0
        fed = n > 0.0
        ratio = np.ones_like(lam)
        np.divide(q, n, out=ratio, where=mask & fed)
        info = np.sum(lam * np.log(ratio), axis=(-3, -2, -1), where=mask)
        yield lam, info, (mask & ~fed).any(axis=(-3, -2, -1))


def _terminal_cost(mdp: FiniteMdp, belief: ReducedBelief) -> np.ndarray:
    """Expected terminal cost; (K, 1, X) @ (X, 1) keeps each member's bits."""
    marginal = belief.mus[-1].sum(axis=-1)[..., None, :]
    return (marginal @ mdp.terminal_cost[:, None])[..., 0, 0]


def per_step_information(
    mdp: FiniteMdp, policy: MemoryPolicy, belief: ReducedBelief | None = None
) -> np.ndarray:
    """I(x_t; u_t | recent controls) per step at the policy's own degree.

    Tables and beliefs stacked on a batch axis give shape (K, T).
    """
    if belief is None:
        belief = propagate_reduced(mdp, policy)
    nus = induced_action_marginals(mdp, policy, belief)
    infos = [info for _, info, _ in _information_terms(policy, nus, belief)]
    return np.stack(infos, axis=-1)


def expected_cost(
    mdp: FiniteMdp, policy: MemoryPolicy, belief: ReducedBelief | None = None
) -> float | np.ndarray:
    """Expected stage-additive cost of the policy, terminal term included.

    Tables and beliefs stacked on a batch axis give one cost per member.
    """
    if belief is None:
        belief = propagate_reduced(mdp, policy)
    total = 0.0
    for mu, q, c in zip(belief.mus, policy.tables, mdp.stage_costs):
        lam = (mu[..., None] * q).sum(axis=-2)  # (..., X, U)
        total = total + np.sum(lam * c, axis=(-2, -1))
    return _scalar(total + _terminal_cost(mdp, belief))


def objective(
    mdp: FiniteMdp,
    policy: MemoryPolicy,
    beta: float,
    m: int | float = 0,
    n_eval: int | float | None = None,
) -> ObjectiveValue:
    """Cost, information, and the weighted total cost + beta * information."""
    check_beta(beta)
    belief = propagate_reduced(mdp, policy)
    cost = expected_cost(mdp, policy, belief)
    if (m == 0 or m is None) and (n_eval is None or n_eval == policy.degree):
        info = float(per_step_information(mdp, policy, belief).sum())
    else:
        info = transfer_entropy(mdp, policy, m, n_eval)
    return ObjectiveValue(cost, info, cost + beta * info)


def factored_objective(
    mdp: FiniteMdp,
    policy: MemoryPolicy,
    nu: Sequence[np.ndarray],
    beta: float,
    belief: ReducedBelief | None = None,
) -> float | np.ndarray:
    """Stage-wise objective with a free action-marginal block.

    Evaluates sum_t E[c_t + beta * log(q_t / nu_t)] + terminal cost with the
    beliefs induced by the policy alone.  Returns +inf when some nu entry is
    zero where the corresponding joint policy mass is positive; equals
    ``objective(...).total`` when nu is the induced marginal, and is never
    below it for any other feasible nu.  Tables, marginals and beliefs
    stacked on a batch axis give one value per member.
    """
    check_beta(beta)
    if belief is None:
        belief = propagate_reduced(mdp, policy)
    total, starved = 0.0, False
    steps = _information_terms(policy, nu, belief)
    for (lam, info, short), c in zip(steps, mdp.stage_costs):
        total = total + np.sum(lam * c[:, None, :], axis=(-3, -2, -1))
        total = total + beta * info
        starved = starved | short
    total = np.where(starved, math.inf, total + _terminal_cost(mdp, belief))
    return _scalar(total)


def canonicalize_policy(
    mdp: FiniteMdp, policy: MemoryPolicy, belief: ReducedBelief | None = None
) -> MemoryPolicy:
    """Replace action slices at unreachable (state, history) pairs by uniform.

    The replaced slices carry no probability mass, so every functional of the
    policy is unchanged; the canonical form makes reports deterministic and
    keeps policy comparisons meaningful.  Tables and beliefs stacked on a
    batch axis (a solver ``PolicyStack``) give the stack of the same type.
    """
    if belief is None:
        belief = propagate_reduced(mdp, policy)
    tables = tuple(
        np.where((mu == 0.0)[..., None], 1.0 / q.shape[-1], q)
        for mu, q in zip(belief.mus, policy.tables)
    )
    return type(policy)(policy.degree, tables)
