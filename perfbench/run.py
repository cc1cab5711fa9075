"""Run one termdp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload random-batch --seed 910 --seconds 25 --trace 0

Run from the repository root.  The workload's inputs are generated from
``--seed`` (``default`` = 910, ``holdout`` = 7919 may be given by name).  The
run repeats the workload's fixed list of timed calls ("a pass") while another
pass fits into ``--seconds`` and reports medians over passes.  With
``--trace 1`` it runs one traced pass, reports its per-layer numbers, and
re-runs as many of its calls untraced as fit, for the tracing overhead.

Standard output ends with two lines: the full record (metrics of both kinds,
checks, environment) and, last, the summary the benchmark contract asks for:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
of BENCHMARK.json (``--trace 0``) or its per-layer metrics (``--trace 1``).
The record is also written to ``perfbench/results/``.

``--record-references`` runs one pass and stores every operation's total and
convergence in ``perfbench/references.json``; later runs fail an operation
whose total is worse than its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 5
MAX_PASSES = 20
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SEED_NAMES = {"default": 910, "holdout": 7919}


def seed_arg(text: str) -> int:
    seed = SEED_NAMES[text] if text in SEED_NAMES else int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are nonnegative")
    return seed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("random-batch", "maze", "oracle", "cli-sweep"),
    )
    parser.add_argument("--seed", default="default", type=seed_arg)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "smoke"), default="bench")
    parser.add_argument("--record-references", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_probe(args) -> int:
    """Time import plus input generation in this fresh interpreter."""
    start = time.perf_counter()
    import workloads

    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        print(repr(time.perf_counter() - start))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up time of SETUP_REPEATS fresh interpreters, raw and rescaled."""
    cmd = [
        sys.executable, str(Path(__file__)), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    calibrate = Calibration(dense=False)  # importing is interpreter work
    raw, rescaled = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        after = calibrate()
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        rescaled.append(raw[-1] * calibrate.ref_s * 2 / (before + after))
    return raw, rescaled


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Calibration:
    """A fixed numpy kernel, timed, to rescale operation times by.

    On a shared machine the speed of the whole CPU drifts by 10-30% within
    seconds.  Timing this kernel next to every operation and multiplying the
    operation's time by ``ref_s / kernel time`` removes most of that drift.
    termdp's code does not run in the kernel, so a change to the package
    moves the rescaled time as it moves the raw one.

    Two mixes, matched to what the work spends its time on: ``dense`` (one
    153x5x153 contraction per step plus a Python loop) for the maze, whose
    sweeps are dense contractions; otherwise interpreter overhead around
    tiny arrays, like the other workloads and imports.  A mismatched kernel
    over- or under-corrects: on the maze the small-array kernel left a 9%
    spread across runs where the dense one left 3%.
    """

    def __init__(self, dense: bool):
        import numpy as np

        rng = np.random.default_rng(0)
        self.dense = dense
        self.ref_s = 0.010 if dense else 0.015  # the kernel on a quiet 2-core machine
        self._small = rng.random((4, 3, 5))
        self._kernel = rng.random((153, 5, 153))
        self._mass = rng.random((153, 1, 5))

    def __call__(self) -> float:
        import numpy as np

        start = time.perf_counter()
        if self.dense:
            for _ in range(60):
                np.einsum("xuy,xhu->yhu", self._kernel, self._mass)
                sum(i * i for i in range(2000))
        else:
            for _ in range(50):
                for _ in range(30):
                    z = np.exp(self._small - self._small.max(axis=2, keepdims=True))
                    z /= z.sum(axis=2, keepdims=True)
                np.einsum("xuy,xhu->yhu", self._kernel, self._mass)
        return time.perf_counter() - start


@dataclass
class Pass:
    """One run of every unit, with its timings, outcomes and spans."""

    outcomes: list
    tracer: object
    windows: list[tuple[float, float]]  # each unit's (start, end)
    calibration: list[float]  # kernel seconds around each unit (mean of before/after)
    ref_s: float  # the kernel's reference time

    @property
    def unit_times(self) -> list[float]:
        return [b - a for a, b in self.windows]

    @property
    def wall(self) -> float:
        return sum(self.unit_times)

    @property
    def rescaled_times(self) -> list[float]:
        return [
            u * self.ref_s / c for u, c in zip(self.unit_times, self.calibration)
        ]


def run_pass(units, layers: bool, calibrate: Calibration, deadline=None, budget=None) -> Pass:
    """Run every unit once, timing the calibration kernel between units.

    With a deadline, a unit after the first starts only if ``budget[k]``
    seconds still fit before it.
    """
    from tracer import END, NAME, PAYLOAD, REPORT_FUNCTIONS, START, Tracer
    from workloads import Outcome

    timed, kernel = [], [calibrate()]
    with Tracer(layers) as tracer:
        for k, unit in enumerate(units):
            if deadline is not None and k and time.perf_counter() + budget[k] > deadline:
                break
            i0, t0 = len(tracer.spans), time.perf_counter()
            try:
                result, error = unit.run(), None
            except Exception as exc:  # a failed operation, counted and reported
                result, error = None, exc
            t1, i1 = time.perf_counter(), len(tracer.spans)
            timed.append((unit, result, error, t0, t1, i0, i1))
            kernel.append(calibrate())
    outcomes = []
    for k, (unit, result, error, t0, t1, i0, i1) in enumerate(timed):
        calls = [
            (s[PAYLOAD][0], s[PAYLOAD][1], s[END] - s[START])
            for s in tracer.spans[i0:i1]
            if s[NAME] in REPORT_FUNCTIONS and s[PAYLOAD] is not None
        ]
        if error is None:
            try:
                outs = unit.collect(result, calls)
            except Exception as exc:
                outs = [Outcome(key=f"unit#{k}", problems=[f"bad output: {exc!r}"])]
        else:
            outs = [Outcome(key=f"unit#{k}", problems=[f"raised {error!r}"])]
        for out in outs:
            if out.latency is None:
                out.latency = t1 - t0
        outcomes.extend(outs)
    return Pass(
        outcomes=outcomes,
        tracer=tracer,
        windows=[(t0, t1) for _, _, _, t0, t1, _, _ in timed],
        calibration=[(a + b) / 2 for a, b in zip(kernel, kernel[1:])],
        ref_s=calibrate.ref_s,
    )


def solve_reports(tracer) -> list:
    from tracer import NAME, PAYLOAD, REPORT_FUNCTIONS

    reports = []
    for s in tracer.spans:
        if s[NAME] in REPORT_FUNCTIONS and s[PAYLOAD] is not None:
            out = s[PAYLOAD][1]
            reports.extend(out if isinstance(out, list) else [out])
    return reports


def certified_frac(reports) -> float:
    from workloads import RESIDUAL_TOL

    good = sum(1 for r in reports if r.converged and r.residual < RESIDUAL_TOL)
    return good / len(reports) if reports else 0.0


def layer_metrics(tracer, setup_tracer, windows, workdir):
    """Per-layer numbers from the traced pass; envs.* include the set-up."""
    from tracer import END, NAME, PAYLOAD, START, root_coverage, self_times, under
    from workloads import output_bytes

    spans = tracer.spans
    by = defaultdict(list)
    for s in spans + [s for s in setup_tracer.spans if s[NAME].startswith("envs.")]:
        by[s[NAME]].append(s)
    selfs = self_times(spans)

    def calls(name):
        return len(by[name])

    def ms(name, pick=lambda s: True):
        return 1e3 * sum(s[END] - s[START] for s in by[name] if pick(s))

    def self_ms(*names):
        return 1e3 * sum(selfs.get(id(s), 0.0) for n in names for s in by[n])

    def loop(s):
        return not under(s, "solver.residual_from_policy")

    reports = solve_reports(tracer)
    sweeps = sum(1 for s in by["solver.forward_pass"] if loop(s))
    sweep_ms = sum(
        ms(n, loop)
        for n in ("solver.forward_pass", "model.factored_objective", "solver.backward_pass")
    )
    sweep_cpu = sum(s[PAYLOAD] for s in by["cli.cmd_sweep"])
    sweep_wall = sum(s[END] - s[START] for s in by["cli.cmd_sweep"])
    m = {
        "model.propagate_reduced.calls": (calls("model.propagate_reduced"), "count"),
        "model.propagate_reduced.ms": (ms("model.propagate_reduced"), "ms"),
        "model.induced_action_marginals.ms": (ms("model.induced_action_marginals"), "ms"),
        "model.factored_objective.ms": (ms("model.factored_objective"), "ms"),
        "model.MemoryPolicy.validate.calls": (calls("model.MemoryPolicy.validate"), "count"),
        "model.MemoryPolicy.validate.ms": (ms("model.MemoryPolicy.validate"), "ms"),
        "model.check_compatible.calls": (calls("model.check_compatible"), "count"),
        "model.check_compatible.ms": (ms("model.check_compatible"), "ms"),
        "model.shape_reads": (tracer.shape_reads, "count"),
        "model.transfer_entropy_terms.calls": (calls("model.transfer_entropy_terms"), "count"),
        "model.transfer_entropy_terms.ms": (ms("model.transfer_entropy_terms"), "ms"),
        "model.directed_information.calls": (calls("model.directed_information"), "count"),
        "model.directed_information.ms": (ms("model.directed_information"), "ms"),
        "solver.sweeps": (sweeps, "count"),
        "solver.sweeps_per_solve": (sweeps / len(reports) if reports else 0.0, "sweeps"),
        "solver.capped_frac": (
            sum(not r.converged for r in reports) / len(reports) if reports else 0.0,
            "frac",
        ),
        "solver.certified_frac": (certified_frac(reports), "frac"),
        "solver.sweep_ms": (sweep_ms / sweeps if sweeps else 0.0, "ms"),
        "solver.forward_pass.ms": (ms("solver.forward_pass"), "ms"),
        "solver.backward_pass.ms": (ms("solver.backward_pass"), "ms"),
        "solver.loop_self.ms": (self_ms("solver.solve", "solver.multi_start"), "ms"),
        "solver.residual_from_policy.calls": (calls("solver.residual_from_policy"), "count"),
        "solver.residual_from_policy.ms": (ms("solver.residual_from_policy"), "ms"),
        "solver.classical_blahut.calls": (calls("solver.classical_blahut"), "count"),
        "solver.classical_blahut.ms": (ms("solver.classical_blahut"), "ms"),
        "solver.plan_start_policies.ms": (ms("solver.plan_start_policies"), "ms"),
        "oracle.objective_landscape_stage1.self_ms": (
            self_ms("oracle.objective_landscape_stage1"), "ms",
        ),
        "oracle.brute_force_policy_search.calls": (
            calls("oracle.brute_force_policy_search"), "count",
        ),
        "oracle.brute_force_policy_search.ms": (ms("oracle.brute_force_policy_search"), "ms"),
        "oracle.directed_optimum_t2.ms": (ms("oracle.directed_optimum_t2"), "ms"),
    }
    for suite in ("prop1b", "prop2", "eq10", "oracle_agreement", "descent", "residual"):
        m[f"oracle.suite.{suite}.s"] = (ms(f"oracle.suite.{suite}") / 1e3, "s")
    m.update({
        "envs.build_maze.ms": (ms("envs.build_maze"), "ms"),
        "envs.load_instance.ms": (ms("envs.load_instance"), "ms"),
        "cli.sweep.cpu_per_wall": (sweep_cpu / sweep_wall if sweep_wall else 0.0, "ratio"),
        "cli.sweep.self_ms": (self_ms("cli.cmd_sweep"), "ms"),
        "cli.output_bytes": (output_bytes(workdir), "bytes"),
        "trace.root_coverage": (root_coverage(spans, windows), "frac"),
        "trace.spans": (len(spans), "count"),
    })
    return m


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "cpu_affinity": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "machine": platform.machine(),
    }


def tail_latency(latencies: list[float]):
    """Highest percentile with at least ten operations beyond it."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    return ordered[n - 11], 100.0 * (n - 10) / n


def load_references() -> dict:
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text())
    return {}


def record_references(args, outcomes, failures) -> int:
    if failures:
        print(json.dumps(failures[:10]), file=sys.stderr)
        print("not recording references from a run with failures", file=sys.stderr)
        return 1
    refs = load_references()
    mine = refs.setdefault(args.workload, {})
    for out in outcomes:
        mine[out.key] = out.reference()
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(outcomes)} references for {args.workload} seed {args.seed}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "termdp" / "__init__.py").is_file():
        print(f"termdp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    for key in [k for k in os.environ if k.startswith("TERMDP_")]:
        del os.environ[key]  # the CLI reads its defaults from these
    if args.setup_probe:
        return setup_probe(args)

    setup_raw, setup_times = ([], []) if args.record_references else measure_setup(args)
    import workloads
    from tracer import Tracer

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with Tracer(layers=bool(args.trace)) as setup_tracer:
            units = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        calibrate = Calibration(dense=args.workload == "maze")
        run_start = time.perf_counter()
        passes: list[Pass] = []
        if args.trace:
            # the traced pass, then as many of its units again untraced as
            # fit in the time left, for the tracing overhead
            passes.append(run_pass(units, True, calibrate))
            passes.append(
                run_pass(
                    units, False, calibrate,
                    deadline=run_start + args.seconds, budget=passes[0].unit_times,
                )
            )
        while not args.trace:
            passes.append(run_pass(units, False, calibrate))
            if args.record_references:
                break
            elapsed = time.perf_counter() - run_start
            typical = statistics.median(p.wall for p in passes)
            if elapsed + 1.2 * typical > args.seconds or len(passes) == MAX_PASSES:
                break

        refs = load_references().get(args.workload, {})
        attempted, failures, checked, latencies = 0, [], 0, []
        for p in passes:
            for out in p.outcomes:
                attempted += 1
                ref = refs.get(out.key)
                checked += ref is not None
                problems = workloads.check(out, ref)
                if problems:
                    failures.append({"op": out.key, "problems": problems})
                latencies.append(out.latency)
        if args.record_references:
            return record_references(args, passes[0].outcomes, failures)

        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "setup_raw_s": (statistics.median(setup_raw), "s"),
            "certified_frac": (certified_frac(solve_reports(passes[0].tracer)), "frac"),
            "failed_frac": (len(failures) / attempted, "frac"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
            ),
            "calibration_ms": (
                1e3 * statistics.median(c for p in passes for c in p.calibration), "ms",
            ),
            "ops_per_pass": (len(passes[0].outcomes), "count"),
        }
        if args.trace:
            traced, rerun = passes
            n = len(rerun.windows)
            metrics.update(
                layer_metrics(traced.tracer, setup_tracer, traced.windows, workdir)
            )
            metrics["trace.overhead_frac"] = (
                sum(traced.rescaled_times[:n]) / sum(rerun.rescaled_times) - 1.0, "frac",
            )
            metrics["trace.overhead_units"] = (n, "count")
        else:
            # per timed call, the median over passes of its rescaled time
            rescaled = zip(*(p.rescaled_times for p in passes))
            metrics.update({
                "wall_s": (statistics.median(p.wall for p in passes), "s"),
                "wall_rescaled_s": (sum(statistics.median(t) for t in rescaled), "s"),
                "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            })
            tail = tail_latency(latencies)
            if tail is not None:
                metrics["op_tail_ms"] = (1e3 * tail[0], "ms")
                metrics["op_tail_pct"] = (tail[1], "%")
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "trace": args.trace,
            "seconds": args.seconds,
            "passes_s": [p.wall for p in passes],
            "passes_rescaled_s": [sum(p.rescaled_times) for p in passes],
            "unit_times_s": [p.unit_times for p in passes],
            "calibration_s": [p.calibration for p in passes],
            "setup_samples_s": setup_raw,
            "setup_rescaled_samples_s": setup_times,
            "attempted": attempted,
            "failed": len(failures),
            "references_checked": checked,
            "failures": failures[:20],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "environment": environment(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: record["metrics"][k] for k in wanted},
    }
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
