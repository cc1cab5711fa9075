"""Print a digest of every solve report on the reference inputs, one line
each, then one line per public-API output on fixed draws.

    python tests/report_digest.py > digest.txt

The inputs are the 1,020 reference draws (``perfbench`` random-batch at seeds
0-31, 910 and 7919, chosen as ``perfbench/workloads.random_batch`` chooses
them), criterion 1's 200 draws, and every report of the maze, oracle and
cli-sweep workloads at seeds 910 and 7919.  Each line gives a report's
iterations, converged flag and residual, the sha256 of its policy bytes and of
its objective trace after the first value, and the repr of trace[0], cost,
information and total.

The public-API lines follow, from 60 seeded random instances (horizon 1-4,
degree 0-2), each with a random policy, a sparse one and their stack:
``forward_pass``, ``propagate_reduced``, the five functionals that take a
belief (``factored_objective`` also at uniform marginals) with and without
one, ``objective`` at three window degrees, ``residual_from_policy``,
``backward_pass``, and ``stationarity_residual`` on the one-sweep iterates of
a solved policy and of the random ones; then calls that are input errors:
beliefs of another degree, and a negative beta.  Each line gives a float's
repr, the sha256 of an output's shapes and bytes, or the error class raised.
A line that reads an error on one tree and a value on another marks an input
that one tree rejects.

Two trees' digests are compared by

    python tests/report_digest.py --compare OLD NEW

which prints, for the report lines, the number that changed, the
convergences lost and gained, the totals worse and better by more than 1e-8
relative (count, largest relative change, labels) and each tree's total
iterations; then the number of public lines that changed.  A kernel change
that keeps its numbers changes no line.  Not collected by pytest; a full
digest run takes about a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import termdp as td  # noqa: E402
from termdp import model, oracle, solver  # noqa: E402
from tracer import NAME, PAYLOAD, Tracer  # noqa: E402
from workloads import WORKLOADS, _criterion1_draw  # noqa: E402

REFERENCE_SEEDS = [*range(32), 910, 7919]
TOTAL_RTOL = 1e-8  # a total that moves by more, relative, is listed


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


def _show(out) -> str:
    """A float's repr, else the sha256 of an output's shapes and bytes."""
    if isinstance(out, float):
        return repr(out)
    if isinstance(out, td.ObjectiveValue):
        return repr((out.cost, out.information_nats, out.total))
    parts = []

    def walk(x):
        if isinstance(x, td.ReducedBelief):
            walk(x.mus)
        elif hasattr(x, "tables"):  # MemoryPolicy, PolicyStack
            walk(x.tables)
        elif isinstance(x, (list, tuple)):
            for a in x:
                walk(a)
        else:  # an array, or None (a stack's rho entries)
            a = np.asarray(np.nan if x is None else x, dtype=float)
            parts.append(repr(a.shape).encode() + a.tobytes())

    walk(out)
    return _sha(b"".join(parts))


def _call(fn, *args) -> str:
    try:
        return _show(fn(*args))
    except Exception as exc:  # the class is the digest of a rejected input
        return f"raises {type(exc).__name__}"


def public_lines(draw: int):
    """(label, digest) of every public-API call on one fixed draw."""
    rng = np.random.default_rng(5_000 + draw)
    degree, beta = draw % 3, float(rng.uniform(0.3, 3.0))
    mdp = oracle.random_mdp(rng, 1 + draw % 4, max_states=4, max_actions=3)
    dense = oracle.random_policy(rng, mdp, degree)
    tables = [np.where(rng.random(q.shape) < 0.3, 0.0, q) for q in dense.tables]
    for q in tables:
        q[..., 0] += q.sum(axis=-1) == 0.0
    sparse = td.MemoryPolicy(degree, tuple(q / q.sum(-1, keepdims=True) for q in tables))
    stack = solver.PolicyStack.of(degree, [dense, sparse])
    other = oracle.random_policy(rng, mdp, degree + 1)
    functionals = [model.induced_action_marginals, model.per_step_information,
                   model.expected_cost, model.canonicalize_policy]
    for name, pol in (("dense", dense), ("sparse", sparse), ("stack", stack)):
        belief, nu = solver.forward_pass(mdp, pol)
        yield f"{name} forward_pass", _call(solver.forward_pass, mdp, pol)
        yield f"{name} propagate_reduced", _call(model.propagate_reduced, mdp, pol)
        for fn in functionals:
            yield f"{name} {fn.__name__}", _call(fn, mdp, pol)
            yield f"{name} {fn.__name__} belief", _call(fn, mdp, pol, belief)
        for b in (None, belief):
            yield f"{name} factored_objective {b is None}", _call(
                model.factored_objective, mdp, pol, nu, beta, b)
        yield f"{name} residual_from_policy", _call(
            solver.residual_from_policy, mdp, pol, beta)
        yield f"{name} backward_pass", _call(solver.backward_pass, mdp, nu, beta, degree)
    _, nu = solver.forward_pass(mdp, dense)
    uniform = [np.full_like(n, 1.0 / n.shape[-1]) for n in nu]
    yield "dense factored_objective uniform", _call(
        model.factored_objective, mdp, dense, uniform, beta)
    for m, n_eval in ((0, None), (1, None), (0, math.inf)):
        yield f"objective m={m} n_eval={n_eval}", _call(
            model.objective, mdp, dense, beta, m, n_eval)
    solved = td.solve(mdp, td.SolveOptions(beta=beta, degree=degree, max_iters=300)).policy
    for name, pol in (("solved", solved), ("dense", dense), ("sparse", sparse)):
        belief, nu = solver.forward_pass(mdp, pol)
        rho, log_phi, _ = solver.backward_pass(mdp, nu, beta, degree)
        it = solver.SolverIterate(belief, tuple(nu), tuple(rho), tuple(log_phi), pol)
        yield f"{name} stationarity_residual", _call(
            solver.stationarity_residual, mdp, it, beta)
        yield f"{name} stationarity_residual beta=-1", _call(
            solver.stationarity_residual, mdp, it, -1.0)
    wrong = model.propagate_reduced(mdp, other)
    for fn in functionals:
        yield f"other-degree belief {fn.__name__}", _call(fn, mdp, dense, wrong)


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


def _parse(lines):
    """Report fields by label, and public lines by label, of a digest."""
    reports, public = {}, {}
    for line in lines:
        label, *fields = line.rstrip("\n").split("\t")
        if label.startswith("public "):
            public[label] = fields
        elif fields:
            reports[label] = dict(f.split("=", 1) for f in fields)
    return reports, public


def compare(old_lines, new_lines) -> list[str]:
    """The summary lines of two digests' differences (see the module doc)."""
    (old, old_public), (new, new_public) = _parse(old_lines), _parse(new_lines)
    labels = [label for label in old if label in new]
    changed = sum(old[a] != new[a] for a in labels) + len(old.keys() ^ new.keys())
    out = [f"report lines changed: {changed} of {len(old.keys() | new.keys())}"]
    for name, was in (("lost", "True"), ("gained", "False")):
        moved = [a for a in labels if old[a]["converged"] == was != new[a]["converged"]]
        out.append(f"convergences {name}: {len(moved)}" + "".join(f"\n  {a}" for a in moved))
    rel = {}
    for a in labels:
        o, n = float(old[a]["total"]), float(new[a]["total"])
        rel[a] = (n - o) / abs(o) if o else n - o
    for name, sign in (("worse", 1.0), ("better", -1.0)):
        moved = sorted((a for a in labels if sign * rel[a] > TOTAL_RTOL),
                       key=lambda a: -sign * rel[a])
        worst = f", largest {abs(rel[moved[0]]):.3g}" if moved else ""
        out.append(f"totals {name} by more than {TOTAL_RTOL:g} relative: {len(moved)}{worst}"
                   + "".join(f"\n  {a} {rel[a]:+.3g}" for a in moved))
    for name, digest_ in (("old", old), ("new", new)):
        total = sum(int(f["iterations"]) for f in digest_.values())
        out.append(f"iterations {name}: {total}")
    public = sum(old_public.get(a) != new_public.get(a)
                 for a in old_public.keys() | new_public.keys())
    out.append(f"public lines changed: {public} of {len(old_public.keys() | new_public.keys())}")
    return out


def main() -> None:
    if sys.argv[1:2] == ["--compare"]:
        if len(sys.argv) != 4:
            sys.exit("usage: python tests/report_digest.py --compare OLD NEW")
        old, new = (Path(f).read_text().splitlines() for f in sys.argv[2:])
        print("\n".join(compare(old, new)))
        return
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
    for draw in range(60):
        for label, line in public_lines(draw):
            print(f"public draw={draw} {label}\t{line}", flush=True)


if __name__ == "__main__":
    main()
