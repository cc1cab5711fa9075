"""The four benchmark workloads: inputs from a seed, timed units, outcomes.

A workload turns ``(seed, size)`` into a fixed list of units.  A unit is one
timed call into termdp's public API; it yields one or more operations
(``Outcome``), each of which is checked afterwards, outside the timed region.

Sizes: ``bench`` is what the benchmark measures, ``smoke`` is the minimal
self-check.

Seeds: instance ``i`` of a workload is drawn from ``seed * 1000 + i``, so
with the default seed 910 the random batch draws exactly the criterion-1
instances (``910_000 + i``) and the maze multi-start uses criterion 10's
seed 910.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import termdp as td
from termdp import envs, oracle
import termdp.cli

RESIDUAL_TOL = 1e-8
ASCENT_TOL = 1e-12
REF_REL_TOL = 1e-8  # a total may exceed its reference by this share of max(1, |ref|)


@dataclass
class Outcome:
    """One operation's result, as the checks and references see it."""

    key: str
    latency: float | None = None  # seconds; None means the unit's wall time
    total: float | None = None
    converged: bool | None = None
    passed: bool | None = None
    minima: list | None = None
    problems: list[str] = field(default_factory=list)

    def reference(self) -> dict:
        doc = {}
        for name in ("total", "converged", "passed", "minima"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = value
        return doc


@dataclass
class Unit:
    """A timed call (``run``) and the function turning its result into outcomes.

    ``collect(result, calls)`` receives an (opts, result, seconds) triple for
    every solve/multi_start call made during the unit, in call order.
    """

    run: Callable[[], object]
    collect: Callable[[object, list], list[Outcome]]


def report_problems(reports) -> list[str]:
    """Objective-trace ascent and false convergence claims of solve reports."""
    problems = []
    for rep in reports:
        tr = np.asarray(rep.objective_trace)
        if len(tr) > 1:
            ascent = float((tr[1:] - tr[:-1]).max())
            if ascent > ASCENT_TOL:
                problems.append(f"objective trace rises by {ascent:.3e}")
        if rep.converged and not rep.residual < RESIDUAL_TOL:
            problems.append(f"converged with residual {rep.residual:.3e}")
    return problems


def _all_reports(calls: list) -> list:
    out = []
    for _, result, _ in calls:
        out.extend(result if isinstance(result, list) else [result])
    return out


def _solve_outcome(key: str, rep, calls: list) -> Outcome:
    return Outcome(
        key=key,
        total=float(rep.total),
        converged=bool(rep.converged),
        problems=report_problems(_all_reports(calls)),
    )


# ---------------------------------------------------------------------------
# random-batch: criterion-1 draws, stratified over (horizon, degree)
# ---------------------------------------------------------------------------

BATCH_CELLS = {
    # (horizon, degree) cells: every horizon 1..10 with every degree 0..2
    "bench": [(t, d) for t in range(1, 11) for d in range(3)],
    "smoke": [(1, 0), (2, 1), (3, 2)],
}


def _criterion1_draw(seed: int, i: int):
    rng = np.random.default_rng(seed * 1000 + i)
    mdp = oracle.random_mdp(rng, int(rng.integers(1, 11)), 5, 5)
    opts = td.SolveOptions(
        beta=float(rng.uniform(0.1, 3.0)),
        degree=int(rng.integers(0, 3)),
        init="perturbed",
        seed=i,
        max_iters=400,
    )
    return mdp, opts


def random_batch(seed: int, size: str, workdir: Path) -> list[Unit]:
    """One solve per instance.

    Scans the criterion's draw sequence and keeps the first draw for each
    (horizon, degree) cell, so every seed gets the same mix of sizes.
    """
    picked = []
    wanted = list(BATCH_CELLS[size])
    for i in range(1000):
        mdp, opts = _criterion1_draw(seed, i)
        cell = (mdp.horizon, opts.degree)
        if cell in wanted:
            wanted.remove(cell)
            picked.append((i, mdp, opts))
            if not wanted:
                break
    if wanted:
        raise RuntimeError(f"seed {seed}: cells {wanted} not drawn")
    units = []
    for i, mdp, opts in picked:
        key = f"draw={seed * 1000 + i}"
        units.append(
            Unit(
                run=lambda mdp=mdp, opts=opts: td.solve(mdp, opts),
                collect=lambda rep, calls, key=key: [_solve_outcome(key, rep, calls)],
            )
        )
    return units


# ---------------------------------------------------------------------------
# maze: criterion-10 multi-start on the T=55 two-route maze
# ---------------------------------------------------------------------------

MAZE_SWEEPS = {
    # (screen_iters, max_iters); criterion 10 itself uses (300, 3500)
    "bench": (4, 12),
    "smoke": (2, 4),
}


def maze(seed: int, size: str, workdir: Path) -> list[Unit]:
    """multi_start at beta 10 and beta 1: starts=2, plan_starts=3, screened.

    Keeps criterion 10's instance and start set and caps the screening and
    polishing sweeps: the criterion's own run takes about two minutes.
    """
    mdp = envs.build_maze(td.sample_maze_spec(horizon=55))
    screen, max_iters = MAZE_SWEEPS[size]
    units = []
    for beta in (10.0, 1.0):
        opts = td.SolveOptions(beta=beta, degree=0, max_iters=max_iters)
        key = f"beta={beta:g} seed={seed} screen={screen} max_iters={max_iters}"

        def run(opts=opts):
            return td.multi_start(
                mdp, opts, starts=2, seed=seed, plan_starts=3, screen_iters=screen
            )

        def collect(reports, calls, key=key):
            best = min(reports, key=lambda r: r.total)
            return [_solve_outcome(key, best, calls)]

        units.append(Unit(run, collect))
    return units


# ---------------------------------------------------------------------------
# oracle: the stage-1 landscape plus the six property suites
# ---------------------------------------------------------------------------


def _oracle_plan(seed: int, size: str) -> tuple[int, list]:
    base = seed * 1000
    if size == "smoke":
        return 11, [
            ("prop1b", "suite_prop1b", (base + 500, 2)),
            ("prop2", "suite_prop2", (base + 600, 2)),
            ("eq10", "suite_eq10", (2000, 1, 0.25)),
            ("oracle_agreement", "suite_oracle_agreement", (3000, 1, 0.25)),
            ("descent", "suite_descent", (4000, 1)),
            ("residual", "suite_residual", (5000, 1)),
        ]
    # bench: criterion 4 uses resolution 101, `termdp verify` all_suites(seed,
    # "quick"); the cheap window-width and conditioning suites follow the seed;
    # the others run fixed trials (criterion 7's first, and the `termdp
    # verify` defaults), because their cost varies tenfold from one random
    # instance to the next
    return 61, [
        ("prop1b", "suite_prop1b", (base + 500, 100)),
        ("prop2", "suite_prop2", (base + 600, 100)),
        ("eq10", "suite_eq10", (907_000, 1)),
        ("oracle_agreement", "suite_oracle_agreement", (3000, 4)),
        ("descent", "suite_descent", (4000, 3)),
        ("residual", "suite_residual", (5000, 3)),
    ]


def oracle_suites(seed: int, size: str, workdir: Path) -> list[Unit]:
    resolution, suites = _oracle_plan(seed, size)
    toy = envs.build_nonconvex_toy()

    def landscape_outcome(grid, calls):
        return [
            Outcome(
                key=f"landscape resolution={resolution}",
                total=float(grid.values.sum()),
                minima=[list(map(int, m)) for m in grid.minima],
            )
        ]

    units = [
        Unit(
            run=lambda: oracle.objective_landscape_stage1(toy, resolution),
            collect=landscape_outcome,
        )
    ]
    for name, attr, args in suites:
        key = f"suite={name} args={list(args)}"

        def collect(res, calls, key=key):
            out = Outcome(key=key, passed=bool(res.passed))
            out.problems = report_problems(_all_reports(calls))
            out.problems += [f"suite failure: {f}" for f in res.failures[:3]]
            return [out]

        # looked up at call time, so that the tracer's wrapper is the one called
        run = lambda attr=attr, args=args: getattr(oracle, attr)(*args)  # noqa: E731
        units.append(Unit(run, collect))
    return units


# ---------------------------------------------------------------------------
# cli-sweep: in-process `termdp sweep` on generated instance files
# ---------------------------------------------------------------------------

CLI_PLAN = {
    # instances, (horizon, states, actions), beta count, starts, max-iters
    "bench": (4, (4, 3, 3), 8, 2, 30),
    "smoke": (1, (2, 2, 2), 2, 1, 10),
}


def _read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def cli_sweep(seed: int, size: str, workdir: Path) -> list[Unit]:
    """One `termdp sweep` per instance; an operation is one per-beta solve.

    The instances are small enough (3 states, 3 actions, 4 steps in
    ``bench``) that the directed-information cross-check runs for every beta.
    """
    count, (horizon, states, actions), n_beta, starts, max_iters = CLI_PLAN[size]
    units = []
    for j in range(count):
        draw = seed * 1000 + 900 + j
        rng = np.random.default_rng(draw)
        mdp = oracle.random_mdp(rng, horizon, states, actions, states, actions)
        path = workdir / f"instance-{draw}.json"
        td.save_instance(mdp, path)
        out_dir = workdir / f"sweep-{draw}"
        options = [
            "--beta-min", "0.2", "--beta-max", "5", "--beta-count", str(n_beta),
            "--starts", str(starts), "--seed", str(seed + j),
            "--max-iters", str(max_iters),
        ]
        argv = ["sweep", str(path), *options, "--out-dir", str(out_dir)]
        tag = " ".join(options)

        def run(argv=argv, out_dir=out_dir):
            shutil.rmtree(out_dir, ignore_errors=True)
            return termdp.cli.main(argv)

        def collect(code, calls, key=f"draw={draw} {tag}", out_dir=out_dir):
            return _sweep_outcomes(code, calls, key, out_dir, n_beta)

        units.append(Unit(run, collect))
    return units


def _sweep_outcomes(code, calls, key: str, out_dir: Path, n_beta) -> list[Outcome]:
    outs = []
    by_beta = {float(opts.beta): (reps, span) for opts, reps, span in calls}
    rows = _read_csv(out_dir / "tradeoff.csv") if code == 0 else []
    for k in range(n_beta):
        out = Outcome(key=f"{key} beta#{k}")
        if code != 0:
            out.problems.append(f"termdp sweep exited with {code}")
        elif len(rows) != n_beta:
            out.problems.append(f"tradeoff.csv has {len(rows)} rows")
        else:
            row = rows[k]
            got = by_beta.get(float(row[0]))
            if got is None or row[7] not in ("", "not converged"):
                out.problems.append(f"beta {row[0]} failed: {row[7]!r}")
            else:
                reps, span = got
                best = min(reps, key=lambda r: r.total)
                out.latency = span
                out.total = float(best.total)
                out.converged = bool(best.converged)
                out.problems = report_problems(reps)
                if row[4] != repr(float(best.total)):
                    out.problems.append(f"csv total {row[4]} != {best.total!r}")
        outs.append(out)
    return outs


def output_bytes(workdir: Path) -> int:
    return sum(p.stat().st_size for p in workdir.glob("sweep-*/*") if p.is_file())


WORKLOADS = {
    "random-batch": random_batch,
    "maze": maze,
    "oracle": oracle_suites,
    "cli-sweep": cli_sweep,
}


def check(outcome: Outcome, ref: dict | None) -> list[str]:
    """Every reason the outcome fails, including disagreement with a reference."""
    problems = list(outcome.problems)
    if outcome.passed is False:
        problems.append("suite failed")
    if ref is None:
        return problems
    if "total" in ref:
        if outcome.total is None or not math.isfinite(outcome.total):
            problems.append("no total")
        elif outcome.total > ref["total"] + REF_REL_TOL * max(1.0, abs(ref["total"])):
            problems.append(f"total {outcome.total!r} worse than reference {ref['total']!r}")
    if ref.get("converged") and not outcome.converged:
        problems.append("reference converged, this run did not")
    if "minima" in ref and outcome.minima != ref["minima"]:
        problems.append(f"landscape minima {outcome.minima} != {ref['minima']}")
    return problems
