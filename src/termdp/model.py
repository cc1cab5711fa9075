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
import numbers
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InstanceError, NumericalError, ResourceError

__all__ = [
    "FiniteMdp",
    "MemoryPolicy",
    "SweepPlan",
    "Restriction",
    "PolicyStack",
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
MARGINAL_FLOOR = 1e-300  # gibbs_step takes logs of positive marginals above this
LOG_FLOOR = math.log(MARGINAL_FLOOR)  # floor of the solver's log-probabilities
CACHE_LOCK = threading.RLock()  # held while an instance's cache fills a miss
POLICY_AXES = ("x", "history", "u")  # a policy table's axes, in messages


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteMdp:
    """Finite MDP instance: transition kernels, costs, initial distribution.

    ``transitions[t]`` has shape (X_t, U_t, X_{t+1}) and every slice
    ``transitions[t][x, u]`` is a probability row.  ``stage_costs[t]`` has
    shape (X_t, U_t), ``terminal_cost`` shape (X_T,), ``initial`` shape
    (X_0,).  Arrays are made read-only on construction; instances are safe to
    share between threads.  Sweep plans and plan starts' greedy actions (per
    memory degree) and the ``restriction`` are built once, on first use, under
    one module-wide lock.  A plan's sweep buffers are per thread
    (``SweepPlan``), so threads that solve on one instance at once do not
    share them.  A pickled or copied instance is rebuilt from its arrays.
    """

    transitions: tuple[np.ndarray, ...]
    stage_costs: tuple[np.ndarray, ...]
    terminal_cost: np.ndarray
    initial: np.ndarray
    _cards: tuple = field(init=False, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("transitions", "stage_costs"):
            arrays = check_array(name, getattr(self, name), per_step=True)
            object.__setattr__(self, name, tuple(map(_frozen, arrays)))
        for name in ("terminal_cost", "initial"):
            object.__setattr__(self, name, _frozen(check_array(name, getattr(self, name))))
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

    def __reduce__(self):  # rebuilt by the constructor: read-only, no caches
        return FiniteMdp, (self.transitions, self.stage_costs, self.terminal_cost,
                           self.initial)

    def _cached(self, key, build):
        """The value cached at key, built by build() under CACHE_LOCK on a miss."""
        if key not in self._cache:
            with CACHE_LOCK:  # a thread that waited here finds the value built
                self._cache[key] = self._cache.get(key) or build()
        return self._cache[key]

    def sweep_plan(self, degree: int) -> "SweepPlan":
        """The sweep plan at a memory degree, an integer >= 0, built on first use."""
        degree = check_count("memory degree", degree, 0)
        return self._cached(degree, lambda: SweepPlan(self, degree))

    @property
    def restriction(self) -> "Restriction":
        """The instance on the states it can reach, built on first use: the
        support of ``initial`` pushed through ``transitions > 0``.  Steps that
        repeat (states, next states, transition buffer) share one buffer."""
        return self._cached("restriction", self._restrict)

    def _restrict(self) -> "Restriction":
        states = [np.flatnonzero(self.initial > 0.0)]
        for p in self.transitions:
            states.append(np.flatnonzero((p[states[-1]] > 0.0).any(axis=(0, 1))))
        if all(len(s) == x for s, x in zip(states, self.state_cards)):
            return Restriction(tuple(states), self.state_cards, self)
        buffers, transitions = {}, []
        for s, nxt, p in zip(states, states[1:], self.transitions):
            key = (s.tobytes(), nxt.tobytes(), p.__array_interface__["data"][0])
            if key not in buffers:
                buffers[key] = _frozen(p[s][:, :, nxt])
            transitions.append(buffers[key])
        sub = FiniteMdp(
            tuple(transitions), tuple(c[s] for c, s in zip(self.stage_costs, states)),
            self.terminal_cost[states[-1]], self.initial[states[0]],
        )
        return Restriction(tuple(states), self.state_cards, sub)

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
        for t, p in enumerate(self.transitions):
            if p.ndim != 3 or not p.shape[1]:
                raise InstanceError(f"transitions[{t}] must be 3-d with an action, "
                                    f"got shape {p.shape}")
            prev = self.transitions[t - 1].shape[2] if t else p.shape[0]
            if p.shape[0] != prev:
                raise InstanceError(f"transitions[{t - 1}] has {prev} next states but "
                                    f"transitions[{t}] has {p.shape[0]} states")
            check_finite(f"transitions[{t}]", p, ("x", "u", "x'"))
            check_distributions(f"transitions[{t}]", p, ("x", "u", "x'"))
        shapes = [p.shape[:2] for p in self.transitions]
        check_steps(shapes, self.stage_costs, "stage cost table", len(shapes), ())
        for t, c in enumerate(self.stage_costs):
            check_finite(f"stage cost table {t}", c, ("x", "u"))
        last, first = self.transitions[-1].shape[2], self.transitions[0].shape[0]
        if self.terminal_cost.shape != (last,):
            raise InstanceError(f"terminal cost shape {self.terminal_cost.shape} does "
                                f"not match {last} terminal states")
        check_finite("terminal cost", self.terminal_cost, ("x",))
        if self.initial.shape != (first,):
            raise InstanceError(f"initial distribution shape {self.initial.shape} does "
                                f"not match {first} states")
        check_finite("initial distribution", self.initial, ("x",))
        check_distributions("initial distribution", self.initial, ("x",))


class Restriction(NamedTuple):
    """An instance on its reachable states (``FiniteMdp.restriction``), where
    the solver builds its starts: ``states[t]`` indexes the states reachable
    at t = 0..T, ``cards`` holds the instance's state counts, and ``mdp`` is
    the instance on ``states``, or itself where all are reachable (README,
    Sweeps).  Its steps that repeat (states, next states, buffer) share one
    restricted transition buffer, so their plan steps' matmuls read one operand."""

    states: tuple[np.ndarray, ...]
    cards: tuple[int, ...]
    mdp: FiniteMdp

    def widen(self, tables: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
        """Restricted tables at the instance's shapes, uniform at unreachable rows."""
        out = []
        for q, s, x in zip(tables, self.states, self.cards):
            if len(s) < x:
                full = np.full((*q.shape[:-3], x, *q.shape[-2:]), 1.0 / q.shape[-1])
                full[..., s, :, :] = q
                q = full
            out.append(q)
        return tuple(out)


@dataclass(frozen=True)
class MemoryPolicy:
    """Randomized decision rule q_t(u_t | x_t, last-n controls).

    ``tables[t]`` has shape (X_t, H_t, U_t) with H_t the flattened history
    size at time t; every (x, h) slice is a distribution over actions.
    """

    degree: int
    tables: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", check_count("memory degree", self.degree, 0))
        tables = check_array("policy tables", self.tables, per_step=True)
        object.__setattr__(self, "tables", tuple(map(_frozen, tables)))
        for t, q in enumerate(self.tables):
            if q.ndim != 3:
                raise InstanceError(f"policy table {t} must be 3-d, got {q.ndim}-d")
            check_distributions(f"policy table {t}", q, POLICY_AXES)

    @property
    def horizon(self) -> int:
        return len(self.tables)

    @classmethod
    def uniform(cls, mdp: FiniteMdp, degree: int) -> "MemoryPolicy":
        return cls(degree, uniform_tables(check_type("mdp", mdp, FiniteMdp), degree))

    @classmethod
    def perturbed(
        cls, mdp: FiniteMdp, degree: int, seed: int, magnitude: float = 0.1
    ) -> "MemoryPolicy":
        """Uniform policy with a seeded multiplicative perturbation.

        magnitude must lie in (0, 1) so every entry stays strictly positive.
        """
        return cls(degree, perturbed_tables(check_type("mdp", mdp, FiniteMdp), degree, seed,
                                            magnitude))


class PolicyStack(NamedTuple):
    """K policies of one degree, tables stacked as (K, X_t, H_t, U_t): the
    solver's batches, and an argument of the public functions that say so.
    Not checked on construction; ``check_compatible`` checks it on entry."""

    degree: int
    tables: tuple[np.ndarray, ...]

    @classmethod
    def of(cls, degree: int, policies: Sequence[MemoryPolicy]) -> "PolicyStack":
        stacked = zip(*(q.tables for q in policies))
        return cls(degree, tuple(np.stack(ts) for ts in stacked))


def uniform_tables(mdp: FiniteMdp, degree: int) -> tuple[np.ndarray, ...]:
    """The uniform policy's tables, distributions by construction."""
    steps = mdp.sweep_plan(degree).steps
    return tuple(np.full(s.shape, 1.0 / s.shape[2]) for s in steps)


def perturbed_tables(mdp: FiniteMdp, degree: int, seed: int, magnitude: float = 0.1,
                     states=None):
    """``MemoryPolicy.perturbed``'s tables (or rows ``states``), valid as built."""
    magnitude = check_real("perturbation magnitude", magnitude, 0.0, 1.0)
    seed = check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    tables = []
    for s, r in zip(mdp.sweep_plan(degree).steps, states or [Ellipsis] * mdp.horizon):
        raw = 1.0 + magnitude * (2.0 * rng.random(s.shape)[r] - 1.0)
        tables.append(raw / raw.sum(axis=2, keepdims=True))
    return tuple(tables)


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


# ---------------------------------------------------------------------------
# Argument checkers: the public functions check their arguments only through
# these, one per kind (README, Command-line usage), each raising InstanceError
# ---------------------------------------------------------------------------


def check_real(name: str, x, low: float = 0.0, high: float = math.inf) -> float:
    """A real scalar as a Python float: a real number, Python or numpy, in
    the open interval (low, high) as a float; not a bool."""
    try:
        value = float(x) if type(x) is not bool and isinstance(x, numbers.Real) else math.nan
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not low < value < high:
        where = "positive and finite" if (low, high) == (0.0, math.inf) else f"in ({low:g}, {high:g})"
        raise InstanceError(f"{name} must be {where}, got {x!r}")
    return value


def check_count(name: str, n, low: int) -> int:
    """A count as a Python int: an integer, Python or numpy, of at least
    low; not a bool."""
    if type(n) is bool or not isinstance(n, (int, np.integer)) or n < low:
        raise InstanceError(f"{name} must be an integer >= {low}, got {n!r}")
    return int(n)


def check_bool(name: str, flag) -> bool:
    """A flag as a Python bool: a bool, Python or numpy; not a number."""
    if not isinstance(flag, (bool, np.bool_)):
        raise InstanceError(f"{name} must be a bool, got {flag!r}")
    return bool(flag)


def check_type(name: str, value, *kinds: type):
    """value, if it is an instance of one of kinds."""
    if not isinstance(value, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise InstanceError(f"{name} must be a {names}, got {type(value).__name__}")
    return value


def check_window(name: str, n, horizon: int | None = None) -> int:
    """A window degree as an int: an integer >= 0, or math.inf, which stands
    for the full ``horizon``, where one is given."""
    if horizon is not None and isinstance(n, float) and n == math.inf:
        return horizon
    return check_count(name, n, 0)


def check_array(name: str, value, per_step: bool = False):
    """value as a float64 array, or where per_step, a list of value's items
    as float64 arrays (``name`` then names them all)."""
    try:
        if per_step:
            return [np.asarray(a, dtype=float) for a in value]
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        what = "are not numeric arrays" if per_step else "is not a numeric array"
        raise InstanceError(f"{name} {what}: {exc}") from None


def _at(index: tuple, axes) -> str:
    """' at (x=0, u=1)': an index's last coordinates, named by axes; '' without."""
    if not axes:
        return ""
    names = zip(axes, index[len(index) - len(axes):])
    return f" at ({', '.join(f'{a}={int(i)}' for a, i in names)})"


def check_finite(name: str, a: np.ndarray, axes=None, nonnegative: bool = False) -> None:
    """Reject an array with an entry that is not finite, or where
    nonnegative, is negative; ``axes`` name its last axes in the message."""
    ok = (a >= 0.0) & (a < np.inf) if nonnegative else np.isfinite(a)
    if not ok.all():
        at = tuple(np.argwhere(~ok)[0])
        rule = "entries must be finite and nonnegative" if nonnegative else "non-finite"
        raise InstanceError(f"{name} {rule}, got {float(a[at])!r}{_at(at, axes)}")


def check_distributions(name: str, q: np.ndarray, axes=None, tol: float = ROW_TOL) -> None:
    """Reject an array whose slices along the last axis, past any batch
    axes, are not distributions: an entry negative or NaN, or a sum off 1
    by more than tol.  A valid array costs two reductions, and the failing
    index is searched for only after a failure (an infinite entry fails the
    sum); ``axes`` name the last axes in the message."""
    bad = ~(q >= 0.0)  # NaN compares false too
    if bad.any():
        problem = "negative or NaN" + _at(tuple(np.argwhere(bad)[0]), axes)
    else:
        sums = q.sum(axis=-1)
        off = np.abs(sums - 1.0) > tol
        if not off.any():
            return
        at = tuple(np.argwhere(off)[0])
        problem = f"sums to {float(sums[at])!r}" + _at(at, axes and axes[:-1])
    raise InstanceError(f"{name} {problem}: not a probability distribution")


def check_compatible(mdp: FiniteMdp, policy, stacks: bool = False):
    """The plan and tables of a policy of the instance: a MemoryPolicy, or
    where ``stacks``, a PolicyStack, whose tables have the plan's shapes past
    a batch shape they all share.  A stack's slices must be distributions
    (a MemoryPolicy checks its own); one passed where no stack is taken is
    checked as one, then refused."""
    check_type("mdp", mdp, FiniteMdp)
    stack = isinstance(check_type("policy", policy, MemoryPolicy, PolicyStack), PolicyStack)
    plan = mdp.sweep_plan(policy.degree)
    shapes = [s.shape for s in plan.steps]
    tables = check_steps(shapes, policy.tables, "policy table", mdp.horizon)
    if stack:
        for t, q in enumerate(tables):
            check_distributions(f"policy table {t}", q, POLICY_AXES)
        if not stacks:
            raise InstanceError("policy must be a MemoryPolicy here, got a PolicyStack")
    return plan, tables


def check_steps(shapes, arrays, name: str, horizon: int, lead=None):
    """arrays as float arrays, one per step of ``shapes`` (a plan's, at its
    ``horizon``), of its shape past a batch shape that every step shares,
    ``lead`` if given.  ``name`` names an array in the messages."""
    arrays = check_array(f"{name}s", arrays, per_step=True)
    if len(arrays) != len(shapes):
        raise InstanceError(f"{len(arrays)} {name}s for horizon {horizon}")
    lead = arrays[0].shape[:arrays[0].ndim - len(shapes[0])] if lead is None else lead
    for t, (a, shape) in enumerate(zip(arrays, shapes)):
        if a.shape != (*lead, *shape):
            raise InstanceError(
                f"{name} {t} has shape {a.shape}, instance requires "
                f"{shape} after batch shape {lead}"
            )
    return arrays


# ---------------------------------------------------------------------------
# Sweep plan: shapes and kernels of the forward and backward passes
# ---------------------------------------------------------------------------


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


def log_marginals(nu: np.ndarray, out=None) -> np.ndarray:
    """log nu floored at LOG_FLOOR, and -inf (zero policy mass) at zero
    entries; into out if given."""
    out = np.maximum(nu, MARGINAL_FLOOR, out=out)
    np.log(out, out=out)
    np.copyto(out, -np.inf, where=~(nu > 0.0))
    return out


def gibbs_step(z: np.ndarray):
    """Log partition and Gibbs policy of z = log nu - cost (..., U, X, H),
    which is overwritten, over its leading action axis (numpy reduces a
    short last axis ~10x slower):

        log_phi = max_u z + log s,   s = sum_u e,   e = exp(z - max_u z)
        q       = e / s, as (..., X, H, U)

    Returns log_phi (..., X, H) and q (..., X, H, U).  The sweeps'
    ``SweepPlan.backward_flat`` runs the same step on its log-weight row,
    and divides by s once per pass.
    """
    *lead, u, x, h = z.shape
    top = np.maximum.reduce(z, axis=-3, keepdims=True)
    np.exp(np.subtract(z, top, out=z), out=z)  # z is now e
    s = np.add.reduce(z, axis=-3, keepdims=True)
    q = np.empty((*lead, x, h, u))
    np.divide(z, s, out=np.moveaxis(q, -1, -3))
    return np.add(top, np.log(s, out=s), out=s)[..., 0, :, :], q


def _bin_sums(index: np.ndarray, weights: np.ndarray, bins: int,
              offsets: dict) -> np.ndarray:
    """Sums of rows (..., n) into ``bins`` bins by ``index``, each bin in row
    order, as a strided sum adds: one bincount per row of a stack of rows of 1000
    or more entries, else one over a (K, n) offset index, the cheaper below
    that, kept in ``offsets`` per (bins, K)."""
    lead, n = weights.shape[:-1], weights.shape[-1]
    count = math.prod(lead)
    if count > 1 and n >= 1000:
        sums = [np.bincount(index, w, bins) for w in weights.reshape(-1, n)]
        return np.concatenate(sums).reshape(*lead, bins)
    if count > 1:
        key = (bins, count)
        if key not in offsets:
            offsets[key] = (index + bins * np.arange(count)[:, None]).ravel()
        index = offsets[key]
    return np.bincount(index, weights.ravel(), count * bins).reshape(*lead, bins)


class PlanStep(NamedTuple):
    """Decision time t of a sweep plan.

    ``shape`` is the policy table shape (X_t, H_t, U_t); ``dropped * kept``
    splits H_t by the oldest control, which leaves the window at t + 1.
    ``flat`` (X_t * U_t, X_{t+1}) and ``by_action`` (U_t, X_t, X_{t+1}) are
    views of ``transitions[t]``, not copies, and the only operands of the
    plan's contractions with the transitions.
    """

    shape: tuple[int, int, int]
    dropped: int
    kept: int
    flat: np.ndarray
    by_action: np.ndarray
    cost: np.ndarray


class Flow(NamedTuple):
    """A forward pass as ``layout`` rows: beliefs mu_0..mu_T and action
    marginals nu_0..nu_{T-1}."""

    mu: np.ndarray
    nu: np.ndarray


class PushStep(NamedTuple):
    """The operands of one forward push, as workspace views: ``lam @ by``
    into ``prod``.  At degree 0 ``prod`` is mu_{t+1} itself.  Above it, ``prod``
    is summed over the control that leaves the window (``parts``) into
    ``summed`` where one does, and that sum or ``prod``, action axis last
    (``moved``), is copied into ``dest``, mu_{t+1}."""

    lam: np.ndarray
    by: np.ndarray
    prod: np.ndarray
    parts: np.ndarray | None = None
    summed: np.ndarray | None = None
    moved: np.ndarray | None = None
    dest: np.ndarray | None = None


class BackStep(NamedTuple):
    """The views of one backward step: E log phi_{t+1} = ``by @ lp`` into
    ``e`` (..., U, X, kept); the step's block ``z`` (..., U, X, H) of the
    log-weights, and ``z5``, the same split by the dropped control, which
    ``e5`` broadcasts against; ``top``, ``s`` and ``log_phi`` (..., 1, X, H)."""

    by: np.ndarray
    lp: np.ndarray
    e: np.ndarray
    z5: np.ndarray
    e5: np.ndarray
    z: np.ndarray
    top: np.ndarray
    s: np.ndarray
    log_phi: np.ndarray


class StackViews(NamedTuple):
    """A workspace's rows for a stack of K members, (K, size) prefixes of
    its buffers (``tables`` and ``beliefs`` split ``flow``), with every
    step's views of them: ``forward`` holds per step mu_t (K, X, H, 1), the
    tables row's lam_t and the ``PushStep``'s fields; ``backward`` the
    ``BackStep``s, t ascending.  ``weights`` and ``sums`` view the
    log-weight and normalizer buffers as (K, size): for one member, its
    rows.  For more, ``restack`` holds the tables row's (K, size_t) column
    blocks and per step the z, s and action-major Gibbs table to divide."""

    flow: np.ndarray
    tables: np.ndarray
    beliefs: np.ndarray
    log_nu: np.ndarray
    weights: np.ndarray
    sums: np.ndarray
    restack: tuple | None
    first: np.ndarray
    last: np.ndarray
    forward: tuple
    backward: tuple


class Workspace:
    """One thread's buffers for a plan's passes on stacks of up to
    ``capacity`` members, and their views per stack height, built on first
    use.  ``flow`` holds per member a tables row (the policy copied in, lam
    in place of it) and a beliefs row (mu forward, log phi backward) end to
    end, for one bincount over both; then ``log_nu``; ``weights`` and
    ``sums``, the backward pass's log-weights (z order) and normalizers,
    step by step with each step's K members contiguous; and one
    ``scratch``, shared by every step's temporaries and sized to the
    largest step."""

    def __init__(self, plan: "SweepPlan", capacity: int) -> None:
        lay = plan.layout
        self.capacity = capacity
        self.flow = np.empty((capacity, lay.tables.size + lay.beliefs.size))
        self.log_nu = np.empty((capacity, lay.marginals.size))
        self.weights = np.empty(capacity * lay.tables.size)
        self.sums = np.empty(capacity * lay.beliefs.spans[-1].start)
        self.scratch = np.empty(capacity * plan.scratch_cells)
        self.stacks: dict[int, StackViews] = {}


def _carver(buffer: np.ndarray):
    """take(shape): consecutive C-ordered views of a flat buffer from its start."""
    at = 0

    def take(shape):
        nonlocal at
        n = math.prod(shape)
        at += n
        return buffer[at - n:at].reshape(shape)

    return take


class SweepPlan:
    """Shapes and kernels of the forward and backward passes at one degree.

    Built once per (instance, degree) by ``FiniteMdp.sweep_plan``; kernels
    take one policy, or K stacked on a leading axis.  Only the two
    recursions run step by step: lam_t = mu_t q_t and the push forward, the
    expected log_phi_{t+1} and the log partition backward.  The action
    marginals, the log-weight row log nu - c / beta, the Gibbs division and
    the finiteness check of log_phi run once per pass on rows of the plan's
    ``layout``: ``forward_flat`` takes a tables row, as ``backward_flat``
    returns it, and ``pushed`` a row of lam; the scaled costs are kept per
    beta.  The push and the backward contraction are stacked matmuls,
    (K, 1, n) @ (n, m) and (n, m) @ (K, m, 1) at degree 0 and batched over
    u_t above, so each member's numbers are its solo run's bit for bit (a
    2-d (K, n) @ (n, m) gemm's are not).  Raises ResourceError when one
    policy's ``cells`` exceed DEFAULT_CELL_BUDGET.

    ``forward_flat`` and ``backward_flat`` run in a ``Workspace`` that each
    thread keeps per plan, built by its first pass and rebuilt only for a
    larger stack: its rows, and every step's views of them for each stack
    height met, are built once, so each step of a pass makes only its ufunc
    and matmul calls.  A pass returns copies of the rows it hands out, which
    the next pass does not overwrite.
    """

    def __init__(self, mdp: FiniteMdp, degree: int) -> None:
        steps, scratch = [], 0
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
            # per member: push's product and its sum over the dropped
            # control; the expected log_phi_{t+1} and the max over actions
            push = u * h * y + (u * kept * y if dropped > 1 else 0) if degree else 0
            scratch = max(scratch, push, u * x * kept + x * h)
        self.cells = sum(math.prod(s.shape) for s in steps)
        if self.cells > DEFAULT_CELL_BUDGET:
            raise ResourceError(
                f"policy tables need {self.cells} cells at degree {degree}, "
                f"budget is {DEFAULT_CELL_BUDGET}"
            )
        self.degree = degree
        self.steps = tuple(steps)
        self.scratch_cells = scratch
        self.initial = mdp.initial
        self.terminal_cost = mdp.terminal_cost
        self.terminal_histories = mdp.history_size(degree, mdp.horizon)
        self._scaled = (None, None)  # the last beta, and scaled(beta)
        self._local = threading.local()  # this thread's Workspace, as .space

    def _push_step(self, t: int, lam: np.ndarray, out: np.ndarray, take) -> PushStep:
        """Step t's push from lam_t into mu_{t+1} (``out``), temporaries from take(shape)."""
        s, lead = self.steps[t], lam.shape[:-3]
        (x, h, u), y = s.shape, s.flat.shape[1]
        if self.degree == 0:
            return PushStep(lam.reshape(*lead, 1, -1), s.flat, out.reshape(*lead, 1, y))
        prod = moved = take((*lead, u, h, y))  # (..., U, H, Y)
        parts = summed = None
        if s.dropped > 1:
            parts = prod.reshape(*lead, u, s.dropped, s.kept, y)
            summed = moved = take((*lead, u, s.kept, y))
        return PushStep(lam.swapaxes(-1, -3), s.by_action, prod, parts, summed,
                        moved.swapaxes(-1, -3), out.reshape(*lead, y, s.kept, u))

    def _workspace(self, count: int) -> StackViews:
        """This thread's workspace views for a stack of count members."""
        space = getattr(self._local, "space", None)
        if space is None or space.capacity < count:
            space = self._local.space = Workspace(self, count)
        views = space.stacks.get(count)
        if views is None:
            views = space.stacks[count] = self._stack_views(space, count)
        return views

    def _stack_views(self, space: Workspace, count: int) -> StackViews:
        """Every step's views of the first count rows of space's buffers."""
        lay = self.layout
        n, size = lay.tables.size, lay.beliefs.spans[-1].start
        flow = space.flow[:count]
        tables, beliefs = flow[:, :n], flow[:, n:]
        weights, sums = space.weights[:count * n], space.sums[:count * size]
        lams, mus = lay.tables.split(tables), lay.beliefs.split(beliefs)
        zs, ss = _carver(weights), _carver(sums)  # step by step, K members each
        forward, backward, divides = [], [], []
        for t, s in enumerate(self.steps):
            x, h, u = s.shape
            push = self._push_step(t, lams[t], mus[t + 1], _carver(space.scratch))
            forward.append((mus[t][..., None], lams[t], *push))
            take = _carver(space.scratch)
            e, top = take((count, u, x, s.kept)), take((count, 1, x, h))
            z, norm = zs((count, u, x, h)), ss((count, 1, x, h))
            divides.append((z, norm, np.moveaxis(lams[t], -1, -3)))
            backward.append(BackStep(
                s.by_action, self._next_log_phi(t, mus[t + 1]), e,
                z.reshape(count, u, x, s.dropped, s.kept), e[..., None, :], z, top,
                norm, mus[t].reshape(count, 1, x, h),
            ))
        restack = None
        if count > 1:
            restack = ([tables[:, span] for span in lay.tables.spans], divides)
        return StackViews(flow, tables, beliefs, space.log_nu[:count],
                          weights.reshape(count, n), sums.reshape(count, size), restack,
                          mus[0], mus[-1], tuple(forward), tuple(backward))

    def _push_all(self, rows: np.ndarray, multiply: bool) -> StackViews:
        """Copy tables rows into the workspace and run every step's push,
        after lam_t = mu_t q_t in place if multiply: the loop of
        ``forward_flat`` and ``pushed``."""
        ws = self._workspace(math.prod(rows.shape[:-1]))
        ws.tables[...] = rows.reshape(ws.tables.shape)
        ws.first[...] = self.initial[:, None]
        for mu, lam, lam_by, by, prod, parts, summed, moved, dest in ws.forward:
            if multiply:
                np.multiply(mu, lam, out=lam)
            np.matmul(lam_by, by, out=prod)
            if summed is not None:
                np.add.reduce(parts, axis=-3, out=summed)
            if dest is not None:
                dest[...] = moved
        return ws

    def forward_flat(self, q: np.ndarray) -> Flow:
        """The forward pass of tables rows q (..., ``layout.tables.size``)."""
        lay, lead = self.layout, q.shape[:-1]
        ws = self._push_all(q, True)
        nu = lay.action_marginals(ws.flow)
        return Flow(ws.beliefs.reshape(*lead, lay.beliefs.size).copy(),
                    nu.reshape(*lead, lay.marginals.size))

    def pushed(self, lam: np.ndarray) -> np.ndarray:
        """Beliefs rows mu_0 = initial, mu_{t+1} = push(lam_t) of lam rows:
        ``forward_flat``'s pushes, without its multiply lam = mu q."""
        ws = self._push_all(lam, False)
        return ws.beliefs.reshape(*lam.shape[:-1], self.layout.beliefs.size).copy()

    def lam(self, count: int) -> np.ndarray:
        """lam = mu q of this thread's last ``forward_flat`` of count rows: a
        workspace view, valid until the thread's next pass on the plan."""
        return self._workspace(count).tables

    def scaled(self, beta: float) -> tuple[tuple, np.ndarray, np.ndarray]:
        """c_t / beta as (U, X, 1) for each t, log_phi_T = -terminal_cost /
        beta repeated over the histories at T, and c / beta as a z-order row;
        kept for the last beta."""
        cached = self._scaled  # one read: another thread may replace it
        if cached[0] != beta:
            z_costs = np.empty(self.layout.tables.size)
            with np.errstate(over="ignore"):  # backward_flat raises on inf
                costs = tuple(s.cost.T[:, :, None] / beta for s in self.steps)
                log_phi = (-self.terminal_cost / beta)[:, None]
                z_costs[self.layout.z_at] = self.layout.cost / beta
            cached = self._scaled = (
                beta, (costs, log_phi.repeat(self.terminal_histories, 1), z_costs))
        return cached[1]

    def _next_log_phi(self, t: int, log_phi_next: np.ndarray) -> np.ndarray:
        """log_phi_{t+1} (..., Y, H_{t+1}) as the right operand of the
        backward contraction's matmul: (..., 1, Y, 1) at degree 0, else
        (..., U, Y, kept)."""
        if self.degree == 0:
            return log_phi_next[..., None, :, :]
        s = self.steps[t]
        lp = log_phi_next.reshape(*log_phi_next.shape[:-2], s.flat.shape[1],
                                  s.kept, s.shape[2])
        return lp.swapaxes(-1, -3).swapaxes(-1, -2)

    def cost_to_go(self, t: int, log_phi_next: np.ndarray, beta: float) -> np.ndarray:
        """rho_t(u, x, h) = c_t(x, u) / beta - E[log_phi_{t+1}(x_{t+1}, h')],
        action-major as ``by_action``'s matmul gives it, (..., U, X, 1, kept):
        not repeated over the coordinate that leaves the window at t + 1."""
        s = self.steps[t]
        rho = np.empty((*log_phi_next.shape[:-2], s.shape[2], s.shape[0], s.kept))
        np.matmul(s.by_action, self._next_log_phi(t, log_phi_next), out=rho)
        np.subtract(self.scaled(beta)[0][t], rho, out=rho)
        return rho[..., None, :]

    def rho_table(self, t: int, rho: np.ndarray) -> np.ndarray:
        """A ``cost_to_go`` rho_t as an (..., X, H, U) table, broadcast over
        the dropped coordinate: a view where strides can express that."""
        s = self.steps[t]
        full = np.broadcast_to(rho, (*rho.shape[:-2], s.dropped, s.kept))
        return np.moveaxis(full.reshape(*rho.shape[:-2], -1), -3, -1)

    def backward_flat(self, nu: np.ndarray, beta: float) -> tuple:
        """Rows of log_phi_0..log_phi_T and of the Gibbs policy tables (one
        C-ordered row per member) of a marginals row.  The log-weights
        A = log nu - c / beta are built once, in the z order (``layout.z_nu``;
        a stack is restacked step by step); step t adds E log_phi_{t+1} into
        its block, z = A + E, and keeps e = exp(z - max_u z) there and
        s = sum_u e; the tables are e / s, for one member reordered
        (``layout.z_at``) and divided once, for a stack divided step by step
        into the tables row.  A log_phi_t that is not finite (a Gibbs normalizer
        that is not finite and positive) raises NumericalError for the
        largest such t, and no RuntimeWarning."""
        lay, lead = self.layout, nu.shape[:-1]
        ws = self._workspace(math.prod(lead))
        _, terminal, costs = self.scaled(beta)
        log_marginals(nu.reshape(ws.log_nu.shape), out=ws.log_nu)
        ws.last[...] = terminal
        log_phi = ws.beliefs
        with np.errstate(all="ignore"):  # the check below raises
            ws.log_nu.take(lay.z_nu, axis=1, out=ws.weights, mode="clip")
            if ws.restack is None:
                np.subtract(ws.weights, costs, out=ws.weights)
            else:  # member by member into the tables row, then step by step
                np.subtract(ws.weights, costs, out=ws.tables)
                np.concatenate(ws.restack[0], axis=None, out=ws.weights.reshape(-1))
            for by, lp, e, z5, e5, z, top, s, lse in reversed(ws.backward):
                np.matmul(by, lp, out=e)
                np.add(z5, e5, out=z5)
                np.maximum.reduce(z, axis=-3, keepdims=True, out=top)
                np.exp(np.subtract(z, top, out=z), out=z)  # z is now e
                np.add.reduce(z, axis=-3, keepdims=True, out=s)
                np.add(top, np.log(s, out=lse), out=lse)
            total = np.add.reduce(log_phi[:, :lay.beliefs.spans[-1].start], axis=None)
        if not math.isfinite(total):  # an entry is not finite, or the sum overflowed
            for t, lp in reversed(list(enumerate(lay.beliefs.split(log_phi)[:-1]))):
                if not np.isfinite(lp).all():
                    raise NumericalError(f"non-finite or zero Gibbs normalizer at t={t}")
        if ws.restack is None:
            q = ws.weights.take(lay.z_at, axis=1, mode="clip")
            s = ws.sums.take(lay.row_of, axis=1, out=ws.weights, mode="clip")
            np.divide(q, s, out=q)
        else:
            for z, s, q in ws.restack[1]:
                np.divide(z, s, out=q)
            q = ws.tables.copy()
        return (log_phi.reshape(*lead, lay.beliefs.size).copy(),
                q.reshape(*lead, lay.tables.size))

    @cached_property
    def layout(self) -> "FlatLayout":
        return FlatLayout.of(self)


class Space(NamedTuple):
    """Per-step arrays laid end to end in C order: shapes, slices, length."""

    shapes: tuple[tuple[int, ...], ...]
    spans: tuple[slice, ...]
    size: int

    @classmethod
    def of(cls, shapes: Sequence[tuple[int, ...]]) -> "Space":
        ends = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
        return cls(tuple(shapes), tuple(map(slice, ends, ends[1:])), ends[-1])

    def split(self, row: np.ndarray) -> tuple[np.ndarray, ...]:
        """The per-step arrays of rows (..., size), as views."""
        lead = row.shape[:-1]
        return tuple(row[..., span].reshape(*lead, *shape)
                     for span, shape in zip(self.spans, self.shapes))

    def join(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Per-step arrays, past any batch axis, as rows: a copy."""
        lead = arrays[0].shape[:arrays[0].ndim - len(self.shapes[0])]
        return np.concatenate([a.reshape(*lead, -1) for a in arrays], axis=-1)


class FlatLayout(NamedTuple):
    """A plan's per-step arrays as one row per member, in three ``Space``s:
    ``tables`` for q_t and lam_t(x, h, u), ``beliefs`` for mu_t and
    log_phi_t(x, h) with t <= T, ``marginals`` for nu_t(h, u).  For each
    tables entry, ``row_of`` is its (t, x, h) segment and beliefs index,
    ``nu_of`` its marginals index, ``cost`` its stage cost and ``z_at`` its
    index in the backward pass's action-major z order (t, u, x, h), whose
    entries' marginals indices are ``z_nu``.  ``bin_of`` bins a tables row
    and a beliefs row laid end to end: marginals indices, then marginals.size
    plus each beliefs entry's (t, h), terminal ones in the last bin.
    ``history_of`` gives each marginals entry's (t, h), its segment of U_t
    entries, and ``uniform`` its 1 / U_t."""

    tables: Space
    beliefs: Space
    marginals: Space
    row_of: np.ndarray
    nu_of: np.ndarray
    cost: np.ndarray
    z_at: np.ndarray
    z_nu: np.ndarray
    bin_of: np.ndarray
    history_of: np.ndarray
    uniform: np.ndarray
    histories: int
    offsets: dict  # _bin_sums' offset indices

    @classmethod
    def of(cls, plan: SweepPlan) -> "FlatLayout":
        lengths, nu_of, cost, z_of, mass_of, history_of, uniform = ([] for _ in range(7))
        seen = histories = cells = 0
        for s in plan.steps:
            x, h, u = s.shape
            lengths.append(np.full(x * h, u))
            nu_of.append(seen + np.arange(x * h * u) % (h * u))
            cost.append(np.broadcast_to(s.cost[:, None, :], s.shape).ravel())
            z_of.append(cells + np.arange(x * h * u).reshape(x, h, u)
                        .transpose(2, 0, 1).ravel())
            mass_of.append(histories + np.arange(x * h) % h)
            history_of.append(np.repeat(histories + np.arange(h), u))
            uniform.append(np.full(h * u, 1.0 / u))
            seen, histories, cells = seen + h * u, histories + h, cells + x * h * u
        terminal = (len(plan.terminal_cost), plan.terminal_histories)
        mass_of.append(np.full(math.prod(terminal), histories))
        lengths, nu_of, z_of = map(np.concatenate, (lengths, nu_of, z_of))
        return cls(
            Space.of([s.shape for s in plan.steps]),
            Space.of([s.shape[:2] for s in plan.steps] + [terminal]),
            Space.of([s.shape[1:] for s in plan.steps]),
            np.repeat(np.arange(len(lengths)), lengths), nu_of,
            np.concatenate(cost), np.argsort(z_of), nu_of[z_of],
            np.concatenate([nu_of, seen + np.concatenate(mass_of)]),
            *map(np.concatenate, (history_of, uniform)), histories, {},
        )

    def action_marginals(self, rows: np.ndarray) -> np.ndarray:
        """nu_t(u | h) of all steps from rows of mu and lam: lam summed over x
        over mu summed over x, the two sums one bincount over the rows laid
        end to end, uniform where h is massless, which a history whose joint
        row underflows to 0 (a subnormal mass spread over the actions)
        counts as too."""
        size = self.marginals.size
        sums = _bin_sums(self.bin_of, rows, size + self.histories + 1, self.offsets)
        joint, mass = sums[..., :size], sums[..., size:].take(self.history_of, -1)
        fed = _bin_sums(self.history_of, joint, self.histories, self.offsets)
        fed = fed.take(self.history_of, -1)
        nu = np.empty_like(joint)
        nu[...] = self.uniform
        return np.divide(joint, mass, out=nu, where=fed != 0.0)


def propagate_reduced(mdp: FiniteMdp, policy: MemoryPolicy) -> ReducedBelief:
    """Propagate the joint state/control-history distribution exactly; a
    ``PolicyStack`` gives the beliefs stacked on its batch axis."""
    plan, _, flow, _ = _rows(mdp, policy)
    return ReducedBelief(policy.degree, plan.layout.beliefs.split(flow.mu))


def _window_scan(
    mdp: FiniteMdp,
    policy: MemoryPolicy,
    m: int,
    u_depth: int,
    max_cells: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
    """Yield (t, window joint, joint extended by u_t) for t = 0..T of a
    checked policy.

    Valid because under a degree-n policy (n <= u_depth) the window process
    is Markov.  The terminal joint is yielded with extension None.
    """
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

    m and u_depth are integers >= 0; u_depth defaults to the policy degree.
    Raises ResourceError when a joint would exceed ``max_cells`` entries.
    """
    check_compatible(mdp, policy)
    m = check_window("m", m)
    depth = policy.degree if u_depth is None else check_window("u_depth", u_depth)
    max_cells = check_count("max_cells", max_cells, 0)
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
    p = check_array("joint", joint)
    groups = []
    for name, group in (("a_axes", a_axes), ("b_axes", b_axes), ("c_axes", c_axes)):
        try:
            groups.append(tuple(check_count(f"{name} entry", ax, 0) for ax in group))
        except TypeError:  # not iterable
            raise InstanceError(f"{name} must be a sequence of axes, got {group!r}") from None
    axes = tuple(ax for group in groups for ax in group)
    if max(axes, default=-1) >= p.ndim or len(set(axes)) < len(axes):
        raise InstanceError(f"axis groups {groups} must be disjoint, in range({p.ndim})")
    a_axes, b_axes, _ = groups
    p_ac = p.sum(axis=b_axes, keepdims=True)
    p_cb = p.sum(axis=a_axes, keepdims=True)
    p_c = p_ac.sum(axis=a_axes, keepdims=True)
    mask = p > 0.0
    # p(b | a, c) / p(b | c) as two quotients in (0, 1], which tiny masses
    # cannot underflow to 0 / 0 the way p * p_c and p_ac * p_cb can
    ratio = np.ones_like(p)
    np.divide(p, p_ac, out=ratio, where=mask)
    np.divide(ratio, p_cb / np.where(p_c > 0.0, p_c, 1.0), out=ratio, where=mask)
    return _scalar(np.sum(p * np.log(ratio), axis=axes, where=mask))


def transfer_entropy_terms(
    mdp: FiniteMdp,
    policy: MemoryPolicy,
    m: int | float = 0,
    n_eval: int | float | None = None,
    max_cells: int = DEFAULT_CELL_BUDGET,
) -> np.ndarray:
    """Per-step conditional mutual informations I(window; u_t | recent controls).

    ``m`` widens the state window to x_{t-m}..x_t; ``n_eval`` sets how many
    recent controls are conditioned on (defaults to the policy degree).  Both
    are integers >= 0, or math.inf for the full history, which is guarded by
    max_cells.
    """
    check_compatible(mdp, policy)
    m_eff = check_window("m", m, mdp.horizon)
    n_eff = check_window("n_eval", policy.degree if n_eval is None else n_eval, mdp.horizon)
    max_cells = check_count("max_cells", max_cells, 0)
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
    if isinstance(policy, (MemoryPolicy, PolicyStack)):
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
    tables = check_array("full-history tables", policy, per_step=True)
    if len(tables) != T:
        raise InstanceError(
            f"full-history policy has {len(tables)} tables for horizon {T}"
        )
    for t, q in enumerate(tables):
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
        check_distributions(f"full-history table {t}", q)
    return tables


def directed_information(
    mdp: FiniteMdp,
    policy: "MemoryPolicy | Sequence[np.ndarray]",
    max_cells: int = 2_000_000,
) -> float:
    """Sum over t of I(x_0..x_t; u_t | u_0..u_{t-1}) by exhaustive enumeration.

    Equals the transfer entropy with unbounded windows.  The full trajectory
    joint must fit in ``max_cells`` entries; otherwise ResourceError.
    """
    check_type("mdp", mdp, FiniteMdp)
    X, A, T = mdp.state_cards, mdp.action_cards, mdp.horizon
    full = math.prod(X) * math.prod(A)
    if full > check_count("max_cells", max_cells, 0):
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


def _terminal_cost(mdp: FiniteMdp, mu: np.ndarray) -> np.ndarray:
    """Expected terminal cost of the terminal belief mu_T; (K, 1, X) @ (X, 1)
    keeps each member's bits."""
    marginal = np.add.reduce(mu, axis=-1)[..., None, :]
    return (marginal @ mdp.terminal_cost[:, None])[..., 0, 0]


def _terminal_rows(mdp: FiniteMdp, layout: FlatLayout, mu) -> np.ndarray:
    last = mu[..., layout.beliefs.spans[-1]]
    return _terminal_cost(mdp, last.reshape(*last.shape[:-1], *layout.beliefs.shapes[-1]))


def objective_rows(mdp: FiniteMdp, layout, beta: float, lam, log_q, flow) -> np.ndarray:
    """The factored objective F(q, nu), the package's one evaluation of it,
    from tables rows lam = mu q and log q and the beliefs and marginals rows
    of ``flow``: sum lam (c + beta (log q - log nu)) over the entries where
    lam > 0, plus the expected terminal cost; +inf where nu is 0 under mass."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = layout.cost + beta * (log_q - np.log(flow.nu).take(layout.nu_of, -1))
        total = np.add.reduce(lam * gain, axis=-1, where=lam > 0.0)
    return total + _terminal_rows(mdp, layout, flow.mu)


def cost_rows(mdp: FiniteMdp, layout: FlatLayout, lam, mu) -> np.ndarray:
    """Expected cost, terminal term included, of rows lam = mu q and mu."""
    return np.add.reduce(lam * layout.cost, axis=-1) + _terminal_rows(mdp, layout, mu)


def information_rows(layout: FlatLayout, lam, q, nu) -> np.ndarray:
    """Per-step information (..., T) of rows lam = mu q, q and nu: sum
    lam log(q / nu) over each step's entries where lam > 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = lam * (np.log(q) - np.log(nu).take(layout.nu_of, -1))
    terms[~(lam > 0.0)] = 0.0
    return np.add.reduceat(terms, [s.start for s in layout.tables.spans], axis=-1)


def canonical_rows(layout: FlatLayout, q, mu) -> np.ndarray:
    """Tables rows q with 1 / U_t at every (t, x, h) where beliefs rows mu are 0."""
    uniform = layout.uniform.take(layout.nu_of)
    return np.where(mu.take(layout.row_of, -1) == 0.0, uniform, q)


def _rows(mdp: FiniteMdp, policy, belief: ReducedBelief | None = None,
          stacks: bool = True):
    """Every public evaluation's entry: ``check_compatible``, then the plan,
    tables rows q, the flow (mu, nu) and lam = mu q.  Without a belief, one
    ``forward_flat``, whose lam is a workspace view (``SweepPlan.lam``); a
    belief is checked against the policy's degree and batch shape, and its
    entries must be finite and nonnegative."""
    plan, tables = check_compatible(mdp, policy, stacks)
    lay = plan.layout
    q = lay.tables.join(tables)
    if belief is None:
        flow = plan.forward_flat(q)
        return plan, q, flow, plan.lam(math.prod(q.shape[:-1])).reshape(q.shape)
    check_type("belief", belief, ReducedBelief)
    if belief.degree != policy.degree:
        raise InstanceError(f"belief degree {belief.degree} != policy degree {policy.degree}")
    mus = check_steps(lay.beliefs.shapes, belief.mus, "belief", mdp.horizon, q.shape[:-1])
    mu = lay.beliefs.join(mus)
    check_finite("belief", mu, nonnegative=True)
    lam = mu.take(lay.row_of, -1) * q
    return plan, q, Flow(mu, lay.action_marginals(np.concatenate([lam, mu], -1))), lam


def induced_action_marginals(
    mdp: FiniteMdp, policy: MemoryPolicy, belief: ReducedBelief | None = None
) -> list[np.ndarray]:
    """History-conditional action marginals of the policy under its own flow.

    Returns per-time arrays of shape (H_t, U_t), stacked (K, H_t, U_t) for a
    ``PolicyStack``.  Histories with zero mass get the uniform distribution.
    """
    plan, _, flow, _ = _rows(mdp, policy, belief)
    return list(plan.layout.marginals.split(flow.nu))


def per_step_information(
    mdp: FiniteMdp, policy: MemoryPolicy, belief: ReducedBelief | None = None
) -> np.ndarray:
    """I(x_t; u_t | recent controls) per step at the policy's own degree.

    Tables and beliefs stacked on a batch axis give shape (K, T).
    """
    plan, q, flow, lam = _rows(mdp, policy, belief)
    return information_rows(plan.layout, lam, q, flow.nu)


def expected_cost(
    mdp: FiniteMdp, policy: MemoryPolicy, belief: ReducedBelief | None = None
) -> float | np.ndarray:
    """Expected stage-additive cost of the policy, terminal term included.

    Tables and beliefs stacked on a batch axis give one cost per member.
    """
    plan, _, flow, lam = _rows(mdp, policy, belief)
    return _scalar(cost_rows(mdp, plan.layout, lam, flow.mu))


def objective(
    mdp: FiniteMdp,
    policy: MemoryPolicy,
    beta: float,
    m: int | float = 0,
    n_eval: int | float | None = None,
) -> ObjectiveValue:
    """Cost, information, and the weighted total cost + beta * information
    of one ``MemoryPolicy``."""
    plan, q, flow, lam = _rows(mdp, policy, stacks=False)
    beta, m = check_real("beta", beta), check_window("m", m, mdp.horizon)
    if n_eval is not None:
        check_window("n_eval", n_eval, mdp.horizon)
    cost = float(cost_rows(mdp, plan.layout, lam, flow.mu))
    if not m and (n_eval is None or n_eval == policy.degree):
        info = float(information_rows(plan.layout, lam, q, flow.nu).sum())
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
    stacked on a batch axis give one value per member.  Marginals of other
    shapes, or with entries that are negative or not finite, raise
    InstanceError.
    """
    beta = check_real("beta", beta)
    plan, q, flow, lam = _rows(mdp, policy, belief)
    lay = plan.layout
    nu = check_steps(lay.marginals.shapes, nu, "marginal", mdp.horizon, q.shape[:-1])
    nu = lay.marginals.join(nu)
    check_finite("marginal", nu, nonnegative=True)
    log_q = np.log(q, out=np.full_like(q, -np.inf), where=q > 0.0)
    return _scalar(objective_rows(mdp, lay, beta, lam, log_q, Flow(flow.mu, nu)))


def canonicalize_policy(
    mdp: FiniteMdp, policy: MemoryPolicy, belief: ReducedBelief | None = None
) -> MemoryPolicy:
    """Replace action slices by uniform wherever the belief mu_t(x, h) is 0.

    The replaced slices carry no probability mass, so every functional of the
    policy is unchanged; the canonical form makes reports deterministic and
    keeps policy comparisons meaningful.  Tables and beliefs stacked on a
    batch axis (a solver ``PolicyStack``) give the stack of the same type.
    """
    plan, q, flow, _ = _rows(mdp, policy, belief)
    lay = plan.layout
    return type(policy)(policy.degree, lay.tables.split(canonical_rows(lay, q, flow.mu)))
