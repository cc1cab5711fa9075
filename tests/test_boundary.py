"""Property fuzz of the public boundary.

One strategy per argument kind, each of which ``termdp.model`` checks with
one checker: real scalars in an interval (``check_real``), counts
(``check_count``), window degrees (``check_window``), numeric arrays
(``check_array``), distributions along the last axis
(``check_distributions``), finite or nonnegative arrays (``check_finite``)
and policies (``check_compatible``).  Each strategy draws valid values and
malformations.  Every malformation must raise InstanceError, never a bare
Python or numpy error, and every valid call must return Python floats (or
ints) and float64 arrays.  The CLI part passes the same malformations as
flags and in instance files, and expects exit code 2.  The draws are
derandomized, so a run is reproducible.
"""

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import termdp as td
from termdp import cli, envs, oracle
from termdp.errors import InstanceError
from termdp.model import conditional_mutual_information
from termdp.solver import PolicyStack

FUZZ = settings(max_examples=60, deadline=None, database=None, derandomize=True)
INSTANCES = Path(__file__).resolve().parent.parent / "instances"

MDP = oracle.random_mdp(np.random.default_rng(1), 3)
POLICY = td.MemoryPolicy.perturbed(MDP, 0, 1)
POLICY1 = td.MemoryPolicy.perturbed(MDP, 1, 2)
STACK = PolicyStack.of(0, [POLICY, POLICY])
BELIEF, NU = td.forward_pass(MDP, POLICY)
_RHO, _LOG_PHI, _ = td.backward_pass(MDP, NU, 1.0, 0)
ITERATE = td.SolverIterate(BELIEF, tuple(NU), tuple(_RHO), tuple(_LOG_PHI), POLICY)
TINY = oracle.random_mdp(np.random.default_rng(2), 2, max_states=2, max_actions=2)
ONE_STEP = oracle.random_mdp(np.random.default_rng(3), 1, max_states=2, max_actions=2)
TOY = td.build_nonconvex_toy()

# malformed as any scalar: not a real number, a bool, or not finite
NOT_SCALARS = [None, "1", "x", True, False, np.bool_(True), 1j, np.array(1.0), [1.0],
               math.nan, math.inf, -math.inf, np.float32("nan"), np.float64("inf"),
               -(10**400)]
NOT_NUMERIC = ["abc", ["a", "b"], [[1.0, 2.0], [3.0]], {"a": 1.0}, object(), [None, 1.0]]


def f32(x) -> np.float32:
    """x as a numpy float32, infinite where it is beyond float32's range."""
    with np.errstate(over="ignore"):
        return np.float32(x)


def assert_plain(out) -> None:
    """Python floats and ints, and float64 arrays, all the way down."""
    if isinstance(out, np.ndarray):
        assert out.dtype == np.float64
    elif isinstance(out, (list, tuple)):
        for x in out:
            assert_plain(x)
    elif dataclasses.is_dataclass(out):
        for f in dataclasses.fields(out):
            if not f.name.startswith("_"):  # a FiniteMdp's caches
                assert_plain(getattr(out, f.name))
    else:
        assert type(out) in (float, int), type(out)


def assert_rejected(call, value) -> None:
    with pytest.raises(InstanceError):
        call(value)


# -- real scalars -------------------------------------------------------------

POSITIVE = {  # a positive finite real: betas and tolerances
    "objective": lambda b: td.objective(MDP, POLICY, b),
    "factored_objective": lambda b: td.factored_objective(MDP, POLICY, NU, b),
    "residual_from_policy": lambda b: td.residual_from_policy(MDP, POLICY, b),
    "stationarity_residual": lambda b: td.stationarity_residual(MDP, ITERATE, b),
    "backward_pass": lambda b: td.backward_pass(MDP, NU, b, 0)[:2],
    "free_energy": lambda b: td.free_energy(np.zeros(len(MDP.initial)), MDP.initial, b),
    "classical_blahut beta": lambda b: td.classical_blahut([0.3, 0.7], np.eye(2), b).value,
    "classical_blahut tol": lambda b: td.classical_blahut([0.3, 0.7], np.eye(2), tol=b).value,
    "SolveOptions beta": lambda b: td.SolveOptions(b).beta,
    "SolveOptions tol_objective": lambda b: td.SolveOptions(1.0, tol_objective=b).tol_objective,
    "SolveOptions tol_residual": lambda b: td.SolveOptions(1.0, tol_residual=b).tol_residual,
    "brute_force_policy_search": lambda b: oracle.brute_force_policy_search(TINY, b, 0, 0.5).value,
    "directed_optimum_t2": lambda b: oracle.directed_optimum_t2(TINY, b, 0.5),
    "structural_reduction_check": lambda b: oracle.structural_reduction_check(ONE_STEP, b, 0.5),
    "bellman_landscape_stage2": lambda b: oracle.bellman_landscape_stage2(TOY, 11, b).values,
    "objective_landscape_stage1": lambda b: oracle.objective_landscape_stage1(TOY, 11, b).values,
}
BOUNDED = {  # a real in (0, high)
    "perturbation magnitude": (1.0, lambda v: td.MemoryPolicy.perturbed(MDP, 0, 1, magnitude=v)),
    "grid resolution": (2.0, lambda v: oracle.structural_reduction_check(ONE_STEP, 1.0, v)),
}


def reals(low: float, high: float):
    """A real in [low, high] as a float, a numpy float64 or float32, or an int."""
    x = st.floats(low, high)
    return st.one_of(x, x.map(np.float64), x.map(f32),
                     st.integers(math.ceil(low), math.floor(high)))


def not_positive():
    zero = [0, 0.0, -0.0, np.float32(0.0), np.int64(0), 10**400]  # and beyond floats
    return st.one_of(st.sampled_from(NOT_SCALARS + zero), st.floats(max_value=0.0),
                     st.integers(max_value=0), st.floats(max_value=0.0).map(f32))


@FUZZ
@given(st.sampled_from(sorted(POSITIVE)), reals(0.2, 5.0))
def test_valid_positive_reals(name, value):
    assert_plain(POSITIVE[name](value))


@FUZZ
@given(st.sampled_from(sorted(POSITIVE)), not_positive())
def test_malformed_positive_reals(name, value):
    assert_rejected(POSITIVE[name], value)


@FUZZ
@given(st.sampled_from(sorted(BOUNDED)), st.data())
def test_bounded_reals(name, data):
    high, call = BOUNDED[name]
    assert_plain(call(data.draw(st.floats(0.01, 0.99 * high).map(f32))))
    bad = st.one_of(not_positive(), st.floats(min_value=high), st.integers(min_value=high))
    assert_rejected(call, data.draw(bad))


# -- counts and window degrees --------------------------------------------------

OPTS = td.SolveOptions(1.0, max_iters=3)
COUNTS = {  # name: (least valid count, the smallest count drawn as valid, call)
    "SolveOptions degree": (0, 0, lambda n: td.SolveOptions(1.0, degree=n).degree),
    "SolveOptions max_iters": (1, 1, lambda n: td.SolveOptions(1.0, max_iters=n).max_iters),
    "SolveOptions seed": (0, 0, lambda n: td.SolveOptions(1.0, init="perturbed", seed=n).seed),
    "MemoryPolicy degree": (0, 0, lambda n: td.MemoryPolicy.uniform(MDP, n)),
    "perturbed seed": (0, 0, lambda n: td.MemoryPolicy.perturbed(MDP, 0, n)),
    "plan_start_policies": (0, 0, lambda n: td.plan_start_policies(MDP, 0, n)),
    "multi_start starts": (0, 0, lambda n: [r.total for r in td.multi_start(MDP, OPTS, n, 0)]),
    "multi_start seed": (0, 0, lambda n: [r.total for r in td.multi_start(MDP, OPTS, 1, n)]),
    "multi_start screen_iters": (1, 1, lambda n: [
        r.total for r in td.multi_start(MDP, OPTS, 1, 0, screen_iters=n)]),
    "propagate_window max_cells": (0, 10**6, lambda n: td.propagate_window(
        MDP, POLICY, 1, max_cells=n)),
    "transfer_entropy max_cells": (0, 10**6, lambda n: td.transfer_entropy(
        MDP, POLICY, 1, max_cells=n)),
    "directed_information max_cells": (0, 10**6, lambda n: td.directed_information(
        MDP, POLICY, max_cells=n)),
    "brute_force combo_budget": (1, 10**6, lambda n: oracle.brute_force_policy_search(
        TINY, 1.0, 0, 0.5, n).value),
    "landscape resolution": (11, 11, lambda n: oracle.bellman_landscape_stage2(TOY, n).values),
    "suite trials": (0, 0, lambda n: oracle.suite_prop2(0, n).failures),
    "suite seed": (0, 0, lambda n: oracle.suite_prop2(n, 1).failures),
}
WINDOWS = {  # name: (math.inf means the full history, call)
    "transfer_entropy m": (True, lambda n: td.transfer_entropy(MDP, POLICY1, n)),
    "transfer_entropy n_eval": (True, lambda n: td.transfer_entropy(MDP, POLICY1, 0, n)),
    "transfer_entropy_terms m": (True, lambda n: td.transfer_entropy_terms(MDP, POLICY, n)),
    "objective m": (True, lambda n: td.objective(MDP, POLICY1, 1.0, n)),
    "objective n_eval": (True, lambda n: td.objective(MDP, POLICY1, 1.0, 0, n)),
    "propagate_window m": (False, lambda n: td.propagate_window(MDP, POLICY, n)),
    "propagate_window u_depth": (False, lambda n: td.propagate_window(MDP, POLICY, 0, n)),
}


NONE_DEFAULTS = {"multi_start screen_iters", "transfer_entropy n_eval", "objective n_eval",
                 "propagate_window u_depth"}  # None is the documented default


def integers(low: int, high: int):
    """An integer as a Python int or a numpy integer."""
    n = st.integers(low, high)
    return st.one_of(n, n.map(np.int64), n.map(np.int32), n.map(np.uint32))


def not_counts(low: int, name: str):
    """Not an integer >= low: below it, a float (integral ones too), a bool,
    a string, None where that is not the default."""
    floats = st.floats(allow_nan=True, allow_infinity=True)
    bad = st.one_of(st.sampled_from(NOT_SCALARS + [1.0, np.float64(2.0), 0.5]),
                    st.integers(max_value=low - 1), floats, floats.map(f32))
    return bad.filter(lambda n: n is not None or name not in NONE_DEFAULTS)


@FUZZ
@given(st.sampled_from(sorted(COUNTS)), st.data())
def test_counts(name, data):
    low, base, call = COUNTS[name]
    assert_plain(call(data.draw(integers(base, base + 2))))
    assert_rejected(call, data.draw(not_counts(low, name)))


@FUZZ
@given(st.sampled_from(sorted(WINDOWS)), st.data())
def test_window_degrees(name, data):
    full, call = WINDOWS[name]
    valid = st.one_of(integers(0, 2), st.just(math.inf)) if full else integers(0, 2)
    assert_plain(call(data.draw(valid)))
    bad = not_counts(0, name)
    if full:
        bad = bad.filter(lambda n: not (isinstance(n, float) and n == math.inf))
    assert_rejected(call, data.draw(bad))


# -- arrays ----------------------------------------------------------------------

def _mdp_with(**fields):
    """The instance MDP with some of its four arrays replaced."""
    arrays = {"transitions": MDP.transitions, "stage_costs": MDP.stage_costs,
              "terminal_cost": MDP.terminal_cost, "initial": MDP.initial, **fields}
    return td.FiniteMdp(**arrays)


def _tables_with(policy, t, table):
    return (*policy.tables[:t], table, *policy.tables[t + 1:])


def _full_history_uniform(mdp):
    """The uniform policy as full-history tables (X_0, U_0, ..., X_t, U_t)."""
    dims = [[d for s in range(t + 1) for d in (mdp.state_cards[s], mdp.action_cards[s])]
            for t in range(mdp.horizon)]
    return [np.full(shape, 1.0 / shape[-1]) for shape in dims]


FULL_HISTORY = _full_history_uniform(MDP)
ARRAYS = {  # name: (a valid value, call with it in place, its kind)
    "transitions": (MDP.transitions[1], lambda a: _mdp_with(
        transitions=(*MDP.transitions[:1], a, *MDP.transitions[2:])), "distributions"),
    "initial": (MDP.initial, lambda a: _mdp_with(initial=a), "distributions"),
    "policy table": (POLICY.tables[1], lambda a: td.objective(
        MDP, td.MemoryPolicy(0, _tables_with(POLICY, 1, a)), 1.0), "distributions"),
    "stack table": (STACK.tables[1], lambda a: td.expected_cost(
        MDP, PolicyStack(0, _tables_with(STACK, 1, a))), "distributions"),
    "prior": (np.array([0.2, 0.3, 0.5]), lambda a: td.classical_blahut(
        a, np.arange(6.0).reshape(3, 2)).value, "distributions"),
    "full-history table": (FULL_HISTORY[1], lambda a: td.directed_information(
        MDP, [FULL_HISTORY[0], a, FULL_HISTORY[2]]), "distributions"),
    "stage costs": (MDP.stage_costs[0], lambda a: _mdp_with(
        stage_costs=(a, *MDP.stage_costs[1:])), "finite"),
    "terminal cost": (MDP.terminal_cost, lambda a: _mdp_with(terminal_cost=a), "finite"),
    "blahut cost": (np.arange(6.0).reshape(3, 2), lambda a: td.classical_blahut(
        [0.2, 0.3, 0.5], a).value, "finite"),
    "belief": (BELIEF.mus[1], lambda a: td.expected_cost(MDP, POLICY, td.ReducedBelief(
        0, (*BELIEF.mus[:1], a, *BELIEF.mus[2:]))), "nonnegative"),
    "marginals": (NU[1], lambda a: td.factored_objective(
        MDP, POLICY, [NU[0], a, NU[2]], 1.0), "nonnegative"),
}


@FUZZ
@given(st.sampled_from(sorted(ARRAYS)), st.data())
def test_arrays(name, data):
    valid, call, kind = ARRAYS[name]
    assert_plain(call(valid))
    assert_plain(call(valid.tolist()))  # any numeric array-like
    malformed = data.draw(st.sampled_from(["non-numeric", "shape", "entry"]))
    if malformed == "non-numeric":
        bad = data.draw(st.sampled_from(NOT_NUMERIC))
    elif malformed == "shape":
        bad = data.draw(st.sampled_from([valid[:-1], valid[..., :0], valid[..., None],
                                         valid.sum(), np.zeros((0, *valid.shape[1:]))]))
    else:  # one entry that breaks the kind's rule
        entries = [math.nan, math.inf, -math.inf]
        entries += {"distributions": [-0.25, 1.5], "finite": [], "nonnegative": [-0.25]}[kind]
        bad = valid.copy()
        bad[np.unravel_index(data.draw(st.integers(0, valid.size - 1)), valid.shape)] = (
            data.draw(st.sampled_from(entries)))
    assert_rejected(call, bad)


def test_empty_action_sets_rejected():
    # an instance without actions was accepted, and solving it raised
    # ZeroDivisionError; a cost without actions raised ValueError
    with pytest.raises(InstanceError, match="action"):
        td.FiniteMdp((np.zeros((2, 0, 2)),), (np.zeros((2, 0)),), np.zeros(2), [0.5, 0.5])
    with pytest.raises(InstanceError, match="incompatible"):
        td.classical_blahut([0.5, 0.5], np.zeros((2, 0)))


def test_non_numeric_arrays_of_each_entry():
    # each raised a bare ValueError from numpy's float conversion
    for call in [lambda: td.FiniteMdp(("x",), ("y",), "z", "w"),
                 lambda: td.MemoryPolicy(0, ("abc",)),
                 lambda: td.classical_blahut("ab", np.eye(2)),
                 lambda: td.free_energy(np.zeros(3), "abc", 1.0),
                 lambda: conditional_mutual_information("x", (0,), (1,))]:
        with pytest.raises(InstanceError, match="numeric"):
            call()


# -- policies --------------------------------------------------------------------

POLICIES = {  # name: (takes a PolicyStack, call)
    "objective": (False, lambda p: td.objective(MDP, p, 1.0)),
    "transfer_entropy": (False, lambda p: td.transfer_entropy(MDP, p)),
    "transfer_entropy_terms": (False, lambda p: td.transfer_entropy_terms(MDP, p)),
    "propagate_window": (False, lambda p: td.propagate_window(MDP, p, 0)),
    "directed_information": (False, lambda p: td.directed_information(MDP, p)),
    "stationarity_residual": (False, lambda p: td.stationarity_residual(
        MDP, dataclasses.replace(ITERATE, policy=p), 1.0)),
    "expected_cost": (True, lambda p: td.expected_cost(MDP, p)),
    "per_step_information": (True, lambda p: td.per_step_information(MDP, p)),
    "induced_action_marginals": (True, lambda p: td.model.induced_action_marginals(MDP, p)),
    "canonicalize_policy": (True, lambda p: td.canonicalize_policy(MDP, p)),
    "propagate_reduced": (True, lambda p: td.propagate_reduced(MDP, p)),
    "forward_pass": (True, lambda p: td.forward_pass(MDP, p)),
    "residual_from_policy": (True, lambda p: td.residual_from_policy(MDP, p, 1.0)),
}
NOT_POLICIES = [
    None, 0, "policy", (0, POLICY.tables), POLICY.tables, ITERATE,
    td.MemoryPolicy.uniform(TINY, 0),  # another instance's shapes
    PolicyStack(1, STACK.tables),  # the tables of another degree
    PolicyStack(0.5, STACK.tables), PolicyStack(0, STACK.tables[:2]),
    PolicyStack(0, (STACK.tables[0], *(np.stack([q] * 3) for q in POLICY.tables[1:]))),
    PolicyStack(0, tuple(np.stack([q, -q]) for q in POLICY.tables)),
    PolicyStack(0, tuple(np.stack([q, 2.0 * q]) for q in POLICY.tables)),
    PolicyStack(0, ("abc",) * 3),
]


@FUZZ
@given(st.sampled_from(sorted(POLICIES)), st.sampled_from([POLICY, POLICY1, STACK]),
       st.sampled_from(NOT_POLICIES))
def test_policies(name, policy, bad):
    stacks, call = POLICIES[name]
    if stacks or not isinstance(policy, PolicyStack):
        if not (name == "stationarity_residual" and policy is not POLICY):
            assert_plain(call(policy))
    else:
        bad = policy  # a valid stack where none is taken
    assert_rejected(call, bad)


@pytest.mark.parametrize("name", ["objective", "transfer_entropy", "transfer_entropy_terms",
                                  "propagate_window", "directed_information"])
def test_stack_rejected_where_not_taken(name):
    # objective raised TypeError, the window functions ValueError from a
    # reshape, and directed_information read the stack as full-history tables
    with pytest.raises(InstanceError, match="PolicyStack"):
        POLICIES[name][1](STACK)


# -- scalars that reach a comparison ----------------------------------------------

def test_numpy_beta_gives_the_float_beta_value():
    want = td.objective(MDP, POLICY, 1.0).total
    got = td.objective(MDP, POLICY, np.float32(1.0)).total
    assert type(got) is float and got == want
    log_phi = td.backward_pass(MDP, NU, 2.0, 0)[1][0]
    want = td.free_energy(log_phi, MDP.initial, 2.0)
    got = td.free_energy(log_phi, MDP.initial, np.float32(2.0))
    assert type(got) is float and got == want


@pytest.mark.parametrize("call", [
    lambda: td.SolveOptions(1.0, tol_residual=True),
    lambda: td.SolveOptions(1.0, tol_objective="x"),
    lambda: td.classical_blahut([0.5, 0.5], np.eye(2), tol="x"),
    lambda: td.MemoryPolicy.perturbed(MDP, 0, 1, magnitude="x"),
    lambda: td.propagate_window(MDP, POLICY, 0, max_cells="x"),
    lambda: td.transfer_entropy(MDP, POLICY, max_cells=None),
    lambda: td.directed_information(MDP, POLICY, max_cells="x"),
    lambda: td.propagate_window(MDP, POLICY, 0, max_cells=-1),
    lambda: td.transfer_entropy(MDP, POLICY, max_cells=-1),
    lambda: td.directed_information(MDP, POLICY, max_cells=-1),
], ids=["tol-true", "tol-str", "blahut-tol-str", "magnitude-str", "window-cells-str",
        "te-cells-none", "di-cells-str", "window-cells-neg", "te-cells-neg", "di-cells-neg"])
def test_scalars_checked_before_use(call):
    # a TypeError from a comparison, a stored True, or ResourceError (exit 4)
    # for a negative budget
    with pytest.raises(InstanceError):
        call()


def test_numpy_tolerance_stored_as_float():
    opts = td.SolveOptions(np.float32(1.0), np.int64(1), np.int32(5), np.float32(1e-9),
                           np.float64(1e-8))
    assert_plain(dataclasses.astuple(opts)[:5])


# -- arguments of other kinds: instances, options, flags, axes and rows ----------

HALVES = np.ones((2, 2)) / 4


@pytest.mark.parametrize("call", [
    lambda: envs.MazeSpec(3, 3, frozenset(), 0, 8, p_intended="x", horizon=3),
    lambda: envs.MazeSpec(3, 3, frozenset(), 0, 8, p_slip=None, horizon=3),
    lambda: envs.MazeSpec(3, 3, frozenset(), 0, 8, intended_slip_share="x", horizon=3),
    lambda: envs.MazeSpec(3, 3, frozenset(), 0, 8, terminal_penalty=math.inf, horizon=3),
    lambda: oracle.rate_bound_report([{"beta": 1.0}]),
    lambda: oracle.rate_bound_report([{"beta": 1.0, "cost": "x", "information_nats": 0.0}]),
    lambda: oracle.rate_bound_report([None]),
    lambda: conditional_mutual_information(HALVES, (0,), (2,)),
    lambda: conditional_mutual_information(HALVES, 0, (1,)),
    lambda: conditional_mutual_information(HALVES, (0,), (0,)),
    lambda: conditional_mutual_information(HALVES, (0,), (1,), (-1,)),
    lambda: td.multi_start(MDP, OPTS, 1, 0, include_uniform="x"),
    lambda: td.multi_start(MDP, OPTS, 1, 0, include_uniform=1),
    lambda: td.multi_start(None, OPTS, 1, 0),
    lambda: td.multi_start(MDP, None, 1, 0),
    lambda: td.solve(MDP, None),
    lambda: td.solve(None, OPTS),
    lambda: td.objective(None, POLICY, 1.0),
    lambda: td.directed_information(None, POLICY),
    lambda: td.backward_pass(None, td.forward_pass(MDP, POLICY)[1], 1.0, 0),
    lambda: td.MemoryPolicy.uniform(None, 0),
    lambda: td.MemoryPolicy.perturbed(None, 0, 1),
    lambda: td.plan_start_policies(None, 0, 1),
    lambda: td.stationarity_residual(MDP, None, 1.0),
    lambda: oracle.brute_force_policy_search(None, 1.0, 0, 0.5),
    lambda: oracle.objective_landscape_stage1(None, 11),
    lambda: oracle.finite_horizon_value_iteration(None),
    lambda: envs.build_maze(None),
    lambda: oracle.rate_bound_report(None),
    lambda: envs.MazeSpec(3, 3, [(1,)], 0, 8, horizon=3),
    lambda: envs.MazeSpec(3, 3, None, 0, 8, horizon=3),
    lambda: envs.MazeSpec(3, 3, [(1, "N", 2)], 0, 8, horizon=3),
    lambda: envs.MazeSpec(3, 3, [1], 0, 8, horizon=3),
    lambda: envs.MazeSpec(3, 3, "1N", 0, 8, horizon=3),
], ids=["maze-p-intended-str", "maze-p-slip-none", "maze-share-str", "maze-penalty-inf",
        "rate-row-keys", "rate-cost-str", "rate-row-none", "cmi-axis-range", "cmi-axes-int",
        "cmi-axes-overlap", "cmi-axis-negative", "uniform-str", "uniform-int",
        "multi-start-mdp-none", "multi-start-opts-none", "solve-opts-none", "solve-mdp-none",
        "objective-mdp-none", "di-mdp-none", "backward-mdp-none", "uniform-mdp-none",
        "perturbed-mdp-none", "plan-starts-mdp-none", "stationarity-iterate-none",
        "brute-force-mdp-none", "landscape-mdp-none", "value-iteration-mdp-none",
        "build-maze-spec-none", "rate-rows-none", "maze-wall-short", "maze-walls-none",
        "maze-wall-long", "maze-wall-int", "maze-walls-str"])
def test_other_arguments_checked(call):
    # each raised a bare TypeError, ValueError, KeyError, AxisError or
    # AttributeError, or was accepted
    with pytest.raises(InstanceError):
        call()


def test_maze_spec_stores_python_values():
    spec = envs.MazeSpec(np.int64(3), 3, frozenset(), np.int32(0), 8, np.float32(0.5),
                         np.float64(0.1), 3, 100, np.bool_(False))
    fields = dataclasses.astuple(spec)
    assert_plain([*fields[:2], *fields[3:9]])
    assert type(spec.intended_slip_share) is bool


# -- the command line ------------------------------------------------------------

BAD_FLAGS = {
    "--beta": ["0", "-1", "nan", "inf", "-inf", "x", ""],
    "--tol": ["0", "-1e-9", "nan", "inf", "x"],
    "--tol-residual": ["0", "-1", "nan", "-inf", "x"],
    "--max-iters": ["0", "-1", "1.5", "x"],
    "--degree-n": ["-1", "1.5", "x"],
    "--seed": ["-1", "1.5", "x"],
    "--starts": ["-1", "x"],
}
BAD_ENTRIES = {
    "transition": [math.nan, math.inf, -0.5, 2.0, "x", None, []],
    "stage_cost": [math.nan, -math.inf, "x", None, []],
    "terminal_cost": [math.inf, "x", None, []],
    "initial": [math.nan, -0.5, 2.0, "x", None, []],
}
BAD_FIELDS = {"horizon": [0, -1, 1.5, True, "2", None], "states": [3, [2, 2]],
              "actions": [3, "2"], "transition": ["x", [], 1.0],
              "initial": [[1.0], 0.5, "x"], "terminal_cost": [[0.0], {}]}


def _exit_code(argv) -> int:
    try:
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


@FUZZ
@given(st.sampled_from(sorted(BAD_FLAGS)), st.data())
def test_cli_flags(tmp_path_factory, flag, data):
    out = tmp_path_factory.mktemp("out")
    value = data.draw(st.sampled_from(BAD_FLAGS[flag]))
    assert _exit_code(["solve", INSTANCES / "toy.json", flag, value, "--out-dir", out]) == 2
    assert not any(out.iterdir())


@pytest.mark.parametrize("value", ["10", "-1", "1.5", "x"])
def test_cli_landscape_resolution(tmp_path, value):
    assert _exit_code(["landscape", "--toy", "--resolution", value,
                       "--out-dir", tmp_path]) == 2


def _leaf_paths(value, path=()):
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaf_paths(item, (*path, i))
    else:
        yield path


@FUZZ
@given(st.data())
def test_cli_instance_files(tmp_path_factory, data):
    doc = json.loads((INSTANCES / "toy.json").read_text())
    if data.draw(st.booleans()):  # one entry of an array
        field = data.draw(st.sampled_from(sorted(BAD_ENTRIES)))
        *path, last = data.draw(st.sampled_from(list(_leaf_paths(doc[field]))))
        parent = doc[field]
        for i in path:
            parent = parent[i]
        parent[last] = data.draw(st.sampled_from(BAD_ENTRIES[field]))
    else:  # a whole field
        field = data.draw(st.sampled_from(sorted(BAD_FIELDS)))
        doc[field] = data.draw(st.sampled_from(BAD_FIELDS[field]))
    tmp = tmp_path_factory.mktemp("instance")
    path = tmp / "instance.json"
    path.write_text(json.dumps(doc))
    for argv in (["solve", path], ["sweep", path, "--betas", "1"], ["value-iteration", path]):
        assert _exit_code([*argv, "--out-dir", tmp / "out"]) == 2
    assert not (tmp / "out").exists()
