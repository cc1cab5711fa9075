"""Print a digest of every solve report on the reference inputs, one line each.

    python tests/report_digest.py > digest.txt

The inputs are the 1,020 reference draws (``perfbench`` random-batch at seeds
0-31, 910 and 7919, chosen as ``perfbench/workloads.random_batch`` chooses
them), criterion 1's 200 draws, and every report of the maze, oracle and
cli-sweep workloads at seeds 910 and 7919.  Each line gives a report's
iterations, converged flag and residual, the sha256 of its policy bytes and of
its objective trace after the first value, and the repr of trace[0], cost,
information and total.  Two trees' digests can be compared with ``diff``: a
kernel change that keeps its numbers changes no line.  Not collected by
pytest; a full run takes a few minutes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import termdp as td  # noqa: E402
from tracer import NAME, PAYLOAD, Tracer  # noqa: E402
from workloads import WORKLOADS, _criterion1_draw  # noqa: E402

REFERENCE_SEEDS = [*range(32), 910, 7919]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digest(label: str, rep) -> str:
    trace = np.asarray(rep.objective_trace, dtype=float)
    policy = b"".join(q.tobytes() for q in rep.policy.tables)
    numbers = {"trace[0]": trace[0], "cost": rep.cost,
               "information": rep.information_nats, "total": rep.total}
    return "\t".join([
        label, f"iterations={rep.iterations}", f"converged={rep.converged}",
        f"residual={float(rep.residual)!r}", f"policy={_sha(policy)}",
        f"trace[1:]={_sha(trace[1:].tobytes())}",
        *(f"{name}={float(x)!r}" for name, x in numbers.items()),
    ])


def workload_reports(name: str, seed: int, workdir: Path):
    """Every solve report of one pass of a workload, in call order."""
    units = WORKLOADS[name](seed, "bench", workdir)
    with Tracer(layers=False) as tracer, contextlib.redirect_stdout(io.StringIO()):
        for unit in units:
            unit.run()
    for span in tracer.spans:
        _, out = span[PAYLOAD]
        for i, rep in enumerate(out if isinstance(out, list) else [out]):
            yield f"{span[NAME]}#{i}", rep


def main() -> None:
    runs = [("random-batch", s) for s in REFERENCE_SEEDS]
    runs += [(w, s) for s in (910, 7919) for w in ("maze", "oracle", "cli-sweep")]
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in runs:
            workdir = Path(tmp) / f"{name}-{seed}"
            workdir.mkdir()
            for n, (call, rep) in enumerate(workload_reports(name, seed, workdir)):
                print(digest(f"{name} seed={seed} {n} {call}", rep), flush=True)
    for i in range(200):
        mdp, opts = _criterion1_draw(910, i)
        print(digest(f"criterion-1 draw={910_000 + i}", td.solve(mdp, opts)), flush=True)


if __name__ == "__main__":
    main()
