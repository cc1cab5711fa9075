"""Outside-in tracing of termdp's layers.

The tracer replaces public functions of the package by timing wrappers, in
every ``termdp`` namespace that holds them (``termdp``, ``termdp.model``,
``termdp.solver``, ``termdp.oracle``, ``termdp.envs``, ``termdp.cli``), and
puts the originals back when it is closed.  Nothing in ``src/`` changes.

Each wrapped call records one span ``[name, start, end, parent, thread,
payload]``.  Spans are kept in a list in memory; every thread has its own
span stack, because ``termdp sweep`` solves in pool threads.  The first span
of a pool thread is parented to the span open on the main thread at that
moment, so the pool's work counts as a child of ``cli.cmd_sweep``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

NAMESPACES = (
    "termdp",
    "termdp.model",
    "termdp.solver",
    "termdp.oracle",
    "termdp.envs",
    "termdp.cli",
)

# span name -> (defining module, function name)
LAYER_FUNCTIONS = {
    "model.propagate_reduced": ("termdp.model", "propagate_reduced"),
    "model.induced_action_marginals": ("termdp.model", "induced_action_marginals"),
    "model.factored_objective": ("termdp.model", "factored_objective"),
    "model.check_compatible": ("termdp.model", "check_compatible"),
    "model.per_step_information": ("termdp.model", "per_step_information"),
    "model.expected_cost": ("termdp.model", "expected_cost"),
    "model.canonicalize_policy": ("termdp.model", "canonicalize_policy"),
    "model.transfer_entropy_terms": ("termdp.model", "transfer_entropy_terms"),
    "model.directed_information": ("termdp.model", "directed_information"),
    "solver.forward_pass": ("termdp.solver", "forward_pass"),
    "solver.backward_pass": ("termdp.solver", "backward_pass"),
    "solver.residual_from_policy": ("termdp.solver", "residual_from_policy"),
    "solver.stationarity_residual": ("termdp.solver", "stationarity_residual"),
    "solver.classical_blahut": ("termdp.solver", "classical_blahut"),
    "solver.plan_start_policies": ("termdp.solver", "plan_start_policies"),
    "oracle.objective_landscape_stage1": ("termdp.oracle", "objective_landscape_stage1"),
    "oracle.brute_force_policy_search": ("termdp.oracle", "brute_force_policy_search"),
    "oracle.directed_optimum_t2": ("termdp.oracle", "directed_optimum_t2"),
    "oracle.suite.prop1b": ("termdp.oracle", "suite_prop1b"),
    "oracle.suite.prop2": ("termdp.oracle", "suite_prop2"),
    "oracle.suite.eq10": ("termdp.oracle", "suite_eq10"),
    "oracle.suite.oracle_agreement": ("termdp.oracle", "suite_oracle_agreement"),
    "oracle.suite.descent": ("termdp.oracle", "suite_descent"),
    "oracle.suite.residual": ("termdp.oracle", "suite_residual"),
    "envs.build_maze": ("termdp.envs", "build_maze"),
    "envs.load_instance": ("termdp.envs", "load_instance"),
    "cli.main": ("termdp.cli", "main"),
    "cli.cmd_sweep": ("termdp.cli", "cmd_sweep"),
}

# Entry points whose return values (solve reports) are kept with the span.
# They are wrapped in untraced runs too, so that every solve can be checked.
REPORT_FUNCTIONS = {
    "solver.solve": ("termdp.solver", "solve"),
    "solver.multi_start": ("termdp.solver", "multi_start"),
}

# Spans that also record process CPU time (all threads).
CPU_SPANS = frozenset({"cli.cmd_sweep"})

NAME, START, END, PARENT, THREAD, PAYLOAD = range(6)


class Tracer:
    """Context manager that wraps termdp functions and records spans.

    With ``layers=False`` only the solve entry points are wrapped (to keep
    their reports); with ``layers=True`` every function in LAYER_FUNCTIONS,
    ``MemoryPolicy.__post_init__`` and the FiniteMdp shape properties are
    instrumented as well.
    """

    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list[list] = []
        self._stacks: dict[int, list] = {}
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []
        self._shape_reads = itertools.count()
        self.shape_reads = 0

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        targets = dict(REPORT_FUNCTIONS)
        if self.layers:
            targets.update(LAYER_FUNCTIONS)
        modules = [importlib.import_module(m) for m in NAMESPACES]
        for name, (home, attr) in targets.items():
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, original, name in REPORT_FUNCTIONS)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        if self.layers:
            from termdp.model import FiniteMdp, MemoryPolicy

            post_init = MemoryPolicy.__dict__["__post_init__"]
            self._patch(
                MemoryPolicy,
                "__post_init__",
                self._wrap("model.MemoryPolicy.validate", post_init, False),
            )
            counter = self._shape_reads
            for attr in ("state_cards", "action_cards"):
                fget = FiniteMdp.__dict__[attr].fget
                counted = property(
                    lambda mdp, fget=fget: (next(counter), fget(mdp))[1]
                )
                self._patch(FiniteMdp, attr, counted)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # next() returns how many reads came before it
        self.shape_reads = next(self._shape_reads)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- spans ----------------------------------------------------------------

    def _parent(self, tid: int, stack: list):
        if stack:
            return stack[-1]
        if tid == self._main:
            return None
        main_stack = self._stacks.get(self._main)
        try:
            return main_stack[-1] if main_stack else None
        except IndexError:  # the main thread closed its span meanwhile
            return None

    def _wrap(self, name: str, fn, keep_result: bool):
        spans, stacks = self.spans, self._stacks
        clock = time.perf_counter
        cpu = time.process_time if name in CPU_SPANS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            rec = [name, 0.0, 0.0, self._parent(tid, stack), tid, None]
            spans.append(rec)
            stack.append(rec)
            cpu0 = cpu() if cpu else 0.0
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
                if keep_result:
                    opts = args[1] if len(args) > 1 else kwargs.get("opts")
                    rec[PAYLOAD] = (opts, out)
                return out
            finally:
                rec[END] = clock()
                if cpu:
                    rec[PAYLOAD] = cpu() - cpu0
                stack.pop()

        return traced


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """id(span) -> span duration minus the union of its children's intervals.

    Children in pool threads overlap each other, hence the union.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            p = s[PARENT]
            children.setdefault(id(p), []).append(
                (max(s[START], p[START]), min(s[END], p[END]))
            )
    return {
        id(s): (s[END] - s[START]) - _covered(children.get(id(s), []))
        for s in spans
    }


def under(span: list, name: str) -> bool:
    """True when some ancestor of the span has the given name."""
    p = span[PARENT]
    while p is not None:
        if p[NAME] == name:
            return True
        p = p[PARENT]
    return False


def root_coverage(spans: list[list], windows: list[tuple[float, float]]) -> float:
    """Share of the timed windows covered by root spans of the main thread."""
    main = threading.main_thread().ident
    roots = [
        (s[START], s[END])
        for s in spans
        if s[PARENT] is None and s[THREAD] == main
    ]
    covered = 0.0
    for a, b in windows:
        covered += _covered([(max(s, a), min(e, b)) for s, e in roots if s < b and e > a])
    total = sum(b - a for a, b in windows)
    return covered / total if total > 0 else 0.0
