"""Smoke self-check of the benchmark: every workload at minimal size.

    python3 perfbench/smoke.py

Runs each workload with ``--size smoke``, untraced and traced, and checks
that the summary line has the contract's keys, that every metric of
BENCHMARK.json is emitted with its unit, that the full record carries every
end-to-end and per-layer metric the benchmark defines, and that no operation
failed.  Exits 1 if any run falls short.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("random-batch", "maze", "oracle", "cli-sweep")

EVERY_RUN = {
    "setup_s": "s",
    "certified_frac": "frac",
    "failed_frac": "frac",
    "peak_rss_mb": "MB",
}
UNTRACED = {
    "wall_s": "s",
    "wall_rescaled_s": "s",
    "op_p50_ms": "ms",
}
# the tail needs at least 20 operations in the run; a smoke run may have fewer
OPTIONAL = {"op_tail_ms": "ms", "op_tail_pct": "%"}
SUITES = ("prop1b", "prop2", "eq10", "oracle_agreement", "descent", "residual")
PER_LAYER = {
    "model.propagate_reduced.calls": "count",
    "model.propagate_reduced.ms": "ms",
    "model.induced_action_marginals.ms": "ms",
    "model.factored_objective.ms": "ms",
    "model.MemoryPolicy.validate.calls": "count",
    "model.MemoryPolicy.validate.ms": "ms",
    "model.check_compatible.calls": "count",
    "model.check_compatible.ms": "ms",
    "model.shape_reads": "count",
    "model.transfer_entropy_terms.calls": "count",
    "model.transfer_entropy_terms.ms": "ms",
    "model.directed_information.calls": "count",
    "model.directed_information.ms": "ms",
    "solver.sweeps": "count",
    "solver.sweeps_per_solve": "sweeps",
    "solver.capped_frac": "frac",
    "solver.sweep_ms": "ms",
    "solver.forward_pass.ms": "ms",
    "solver.backward_pass.ms": "ms",
    "solver.loop_self.ms": "ms",
    "solver.residual_from_policy.calls": "count",
    "solver.residual_from_policy.ms": "ms",
    "solver.classical_blahut.calls": "count",
    "solver.classical_blahut.ms": "ms",
    "solver.plan_start_policies.ms": "ms",
    "oracle.objective_landscape_stage1.self_ms": "ms",
    "oracle.brute_force_policy_search.calls": "count",
    "oracle.brute_force_policy_search.ms": "ms",
    "oracle.directed_optimum_t2.ms": "ms",
    **{f"oracle.suite.{s}.s": "s" for s in SUITES},
    "envs.build_maze.ms": "ms",
    "envs.load_instance.ms": "ms",
    "cli.sweep.cpu_per_wall": "ratio",
    "cli.sweep.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "frac",
}


def run(workload: str, trace: int) -> list[str]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--size", "smoke", "--seconds", "1", "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    problems = []
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    record, summary = json.loads(lines[-2]), json.loads(lines[-1])
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"summary keys {sorted(summary)}")
    if not summary["correct"] or summary["failed"] or summary["attempted"] < 1:
        problems.append(f"failures: {record['failures'][:3]}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    for m in declared:
        got = summary["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"summary metric {m['name']} [{m['unit']}]: {got}")
    expected = dict(EVERY_RUN)
    if trace:
        expected.update(PER_LAYER)
    else:
        expected.update(UNTRACED)
        if record["attempted"] >= 20:
            expected.update(OPTIONAL)
    for name, unit in expected.items():
        got = record["metrics"].get(name)
        if got is None or got["unit"] != unit:
            problems.append(f"record metric {name} [{unit}]: {got}")
    if record["metrics"]["failed_frac"]["value"] != 0:
        problems.append("failed_frac is not 0")
    return problems


def main() -> int:
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = run(workload, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {workload} trace={trace}")
            for p in problems:
                print(f"     {p}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
