"""Command-line interface.

Subcommands: solve, sweep, landscape, maze, value-iteration, verify.  All
outputs are plot-ready CSV/JSON files with fixed headers; probabilities are
printed with 12 significant digits and everything else with full round-trip
precision, so identical inputs and seeds reproduce identical bytes.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 numerical
error, 4 resource guard.  Every option can also be set through an
environment variable with the TERMDP_ prefix (e.g. TERMDP_BETA, TERMDP_SEED,
TERMDP_OUT_DIR); command-line flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import oracle
from .envs import (
    build_maze,
    build_nonconvex_toy,
    load_instance,
    load_maze_spec,
    sample_maze_spec,
)
from .errors import InstanceError, NumericalError, ResourceError, TermdpError
from .model import (
    directed_information,
    per_step_information,
    propagate_reduced,
    transfer_entropy,
)
from .solver import SolveOptions, SolveReport, multi_start, solve

LOG2 = math.log(2.0)


def _env(name: str, default):
    """Option default from TERMDP_<name>.

    Raw strings are returned unconverted: argparse applies the option's type
    to string defaults, so a malformed value is a usage error (exit 2).
    """
    raw = os.environ.get(f"TERMDP_{name}")
    if raw is None:
        return default
    if isinstance(default, bool):
        return raw.lower() in ("1", "true", "yes", "on")
    return raw


def _fmt_prob(x: float) -> str:
    return format(float(x), ".12g")


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termdp",
        description=(
            "Solve finite MDPs with an information cost on the state-to-"
            "control channel, sweep trade-off curves, and verify the solver "
            "against independent oracles."
        ),
        epilog=(
            "Defaults come from TERMDP_* environment variables when set "
            "(TERMDP_BETA, TERMDP_DEGREE_N, TERMDP_DEGREE_M, TERMDP_MAX_ITERS, "
            "TERMDP_TOL, TERMDP_TOL_RESIDUAL, TERMDP_SEED, TERMDP_STARTS, "
            "TERMDP_OUT_DIR, TERMDP_BITS)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--beta", type=float, default=_env("BETA", 1.0),
        help="information price (must be positive)",
    )
    common.add_argument(
        "--degree-n", type=int, default=_env("DEGREE_N", 0),
        help="policy memory: number of past controls conditioned on",
    )
    common.add_argument(
        "--degree-m", type=int, default=_env("DEGREE_M", 0),
        help="state-window width used when evaluating information",
    )
    common.add_argument(
        "--max-iters", type=int, default=_env("MAX_ITERS", 2000),
    )
    common.add_argument(
        "--tol", type=float, default=_env("TOL", 1e-10),
        help="absolute objective-change stopping tolerance (not scaled by the total)",
    )
    common.add_argument(
        "--tol-residual", type=float, default=_env("TOL_RESIDUAL", 1e-8),
        help="stationarity residual required to declare convergence",
    )
    common.add_argument("--seed", type=int, default=_env("SEED", 0))
    common.add_argument(
        "--starts", type=int, default=_env("STARTS", 1),
        help="number of seeded random restarts (uniform start always included)",
    )
    common.add_argument(
        "--out-dir", type=Path, default=_env("OUT_DIR", "."),
    )
    common.add_argument(
        "--bits", action="store_true", default=_env("BITS", False),
        help="also print information in bits",
    )

    p = sub.add_parser("solve", parents=[common], help="solve one instance")
    p.add_argument("instance", type=Path)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[common], help="beta sweep trade-off curve")
    p.add_argument("instance", type=Path)
    p.add_argument("--betas", type=str, default=None, help="comma list of betas")
    p.add_argument("--beta-min", type=float, default=None)
    p.add_argument("--beta-max", type=float, default=None)
    p.add_argument("--beta-count", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "landscape", parents=[common],
        help="emit the two-step objective landscape grids",
    )
    p.add_argument(
        "--toy", action="store_true",
        help="use the built-in two-step binary instance",
    )
    p.add_argument("--resolution", type=int, default=101)
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("maze", parents=[common], help="maze navigation experiment")
    p.add_argument("spec", type=Path, nargs="?", default=None)
    p.add_argument(
        "--sample", action="store_true", help="use the shipped two-route maze"
    )
    p.add_argument("--horizon", type=int, default=None, help="override the horizon")
    p.add_argument(
        "--snapshot-times", type=str, default="25",
        help="comma list of 1-based times at which to emit state distributions",
    )
    p.set_defaults(func=cmd_maze)

    p = sub.add_parser(
        "value-iteration", parents=[common],
        help="deterministic baseline without the information cost",
    )
    p.add_argument("instance", type=Path)
    p.set_defaults(func=cmd_value_iteration)

    p = sub.add_parser("verify", parents=[common], help="run the property suites")
    p.add_argument("--scope", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_verify)
    return parser


def _solve_options(args, beta: float) -> SolveOptions:
    if beta <= 0:
        raise InstanceError(
            "beta must be positive; use the value-iteration subcommand for "
            "the beta = 0 baseline"
        )
    return SolveOptions(
        beta=beta,
        degree=args.degree_n,
        max_iters=args.max_iters,
        tol_objective=args.tol,
        tol_residual=args.tol_residual,
    )


def _best_report(mdp, args) -> SolveReport:
    """Best-of-multi-start solve: uniform + planning blends + seeded restarts.

    Starts are screened with short runs and only the screening winner is
    polished, so large instances stay within interactive budgets.
    """
    opts = _solve_options(args, args.beta)
    reports = multi_start(
        mdp,
        opts,
        starts=max(1, args.starts),
        seed=args.seed,
        plan_starts=3,
        screen_iters=300,
    )
    return min(reports, key=lambda r: r.total)


def _write_policy_csv(path: Path, report: SolveReport) -> None:
    rows = []
    for t, table in enumerate(report.policy.tables):
        x_n, h_n, u_n = table.shape
        for x in range(x_n):
            for h in range(h_n):
                for u in range(u_n):
                    rows.append(
                        [str(t + 1), str(x), str(h), str(u), _fmt_prob(table[x, h, u])]
                    )
    _write_csv(path, ["t", "state", "history", "action", "probability"], rows)


def _write_report(args, mdp, report: SolveReport) -> None:
    """Write report.json and policy.csv into the output directory."""
    # wall time is deliberately left out: output files must be reproducible
    # byte for byte under identical seeds
    doc = {
        "beta": report.beta,
        "degree": report.degree,
        "cost": report.cost,
        "information_nats": report.information_nats,
        "information_bits": report.information_nats / LOG2,
        "total": report.total,
        "residual": report.residual,
        "iterations": report.iterations,
        "converged": report.converged,
        "objective_trace": [float(v) for v in report.objective_trace],
    }
    if args.degree_m:
        # wider state windows change nothing for memory policies; recompute
        # the information at the requested window as a cross-check
        doc["information_nats_window"] = transfer_entropy(
            mdp, report.policy, m=args.degree_m, n_eval=args.degree_n
        )
        doc["window_m"] = args.degree_m
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "report.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    _write_policy_csv(args.out_dir / "policy.csv", report)


def _print_report(report: SolveReport, bits: bool) -> None:
    info_bits = report.information_nats / LOG2
    print(f"cost            {report.cost:.9g}")
    print(f"information     {report.information_nats:.9g} nats"
          + (f" ({info_bits:.9g} bits)" if bits else ""))
    print(f"total           {report.total:.9g}")
    print(f"residual        {report.residual:.3g}")
    print(f"iterations      {report.iterations}")
    print(f"converged       {report.converged}")
    print(f"wall time       {report.wall_time_seconds:.3f}s")


def cmd_solve(args) -> int:
    mdp = load_instance(args.instance)
    report = _best_report(mdp, args)
    _write_report(args, mdp, report)
    _print_report(report, args.bits)
    return 0


def _sweep_betas(args) -> list[float]:
    if args.betas:
        try:
            betas = [float(b) for b in args.betas.split(",") if b.strip()]
        except ValueError as exc:
            raise InstanceError(f"cannot parse --betas {args.betas!r}") from exc
    elif args.beta_min is not None and args.beta_max is not None:
        count = 10 if args.beta_count is None else args.beta_count
        if not (args.beta_min > 0 and args.beta_max > 0 and count > 0):
            raise InstanceError(
                "--beta-min, --beta-max and --beta-count must be positive"
            )
        betas = list(
            np.exp(np.linspace(math.log(args.beta_min), math.log(args.beta_max), count))
        )
    else:
        raise InstanceError("sweep needs --betas or --beta-min/--beta-max")
    if not betas:
        raise InstanceError(f"--betas {args.betas!r} lists no beta")
    return betas


def cmd_sweep(args) -> int:
    mdp = load_instance(args.instance)
    # a sweep solves its own betas only; the shared --beta plays no part
    runs = [_solve_options(args, beta) for beta in _sweep_betas(args)]
    rows = []
    bound_rows = []
    n_failed = 0
    for idx, opts in enumerate(runs):
        beta = opts.beta
        try:
            reports = multi_start(
                mdp, opts, starts=max(1, args.starts), seed=args.seed + idx
            )
        except TermdpError as exc:
            rows.append([_fmt(beta), "", "", "", "", "", "", str(exc)])
            n_failed += 1
            continue
        res = min(reports, key=lambda r: r.total)
        rows.append(
            [
                _fmt(beta),
                _fmt(res.cost),
                _fmt(res.information_nats),
                _fmt(res.information_nats / LOG2),
                _fmt(res.total),
                _fmt(res.residual),
                str(res.iterations),
                "" if res.converged else "not converged",
            ]
        )
        try:
            directed = directed_information(mdp, res.policy, max_cells=200_000)
        except ResourceError:
            directed = None
        bound_rows.append(
            {
                "beta": beta,
                "cost": res.cost,
                "information_nats": res.information_nats,
                "information_directed_nats": directed,
            }
        )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        args.out_dir / "tradeoff.csv",
        [
            "beta", "cost", "information_nats", "information_bits", "total",
            "residual", "iterations", "error",
        ],
        rows,
    )
    bound = oracle.rate_bound_report(bound_rows)
    _write_csv(
        args.out_dir / "rate_bounds.csv",
        [
            "beta", "cost", "information_nats", "information_directed_nats",
            "rate_lower_bound_bits", "flag",
        ],
        [
            [
                _fmt(e.beta),
                _fmt(e.cost),
                _fmt(e.information_nats),
                "" if e.information_directed_nats is None
                else _fmt(e.information_directed_nats),
                _fmt(e.rate_lower_bound_bits),
                e.flag,
            ]
            for e in bound.entries
        ],
    )
    print(f"swept {len(runs)} betas, {n_failed} failures")
    return 0


def cmd_landscape(args) -> int:
    if not args.toy:
        raise InstanceError(
            "only the built-in two-step binary landscape is supported; pass --toy"
        )
    mdp = build_nonconvex_toy()
    grid = oracle.objective_landscape_stage1(mdp, args.resolution, args.beta)
    curve = oracle.bellman_landscape_stage2(mdp, args.resolution, args.beta)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        args.out_dir / "v2_curve.csv",
        ["lambda", "value"],
        [
            [_fmt_prob(lam), _fmt(v)]
            for lam, v in zip(curve.axes[0], curve.values)
        ],
    )
    rows = []
    for i, th0 in enumerate(grid.axes[0]):
        for j, th1 in enumerate(grid.axes[1]):
            rows.append(
                [
                    _fmt_prob(th0),
                    _fmt_prob(th1),
                    _fmt(grid.values[i, j]),
                    grid.classification[i, j],
                ]
            )
    _write_csv(
        args.out_dir / "stage1_landscape.csv",
        ["theta0", "theta1", "objective", "classification"],
        rows,
    )
    print(
        f"landscape {args.resolution}x{args.resolution}: "
        f"{len(grid.minima)} local minima, {len(grid.saddles)} saddle candidates"
    )
    return 0


def cmd_maze(args) -> int:
    if args.sample:
        spec = sample_maze_spec()
    elif args.spec is not None:
        spec = load_maze_spec(args.spec)
    else:
        raise InstanceError("maze needs a spec path or --sample")
    if args.horizon is not None:
        spec = replace(spec, horizon=args.horizon)
    try:
        times = [int(s) for s in args.snapshot_times.split(",") if s.strip()]
    except ValueError as exc:
        raise InstanceError(
            f"cannot parse --snapshot-times {args.snapshot_times!r}"
        ) from exc
    for t in times:
        if not 1 <= t <= spec.horizon + 1:
            raise InstanceError(
                f"snapshot time {t} outside 1..{spec.horizon + 1}"
            )
    mdp = build_maze(spec)
    report = _best_report(mdp, args)
    _write_report(args, mdp, report)
    belief = propagate_reduced(mdp, report.policy)
    for t in times:
        marg = belief.state_marginal(t - 1)
        rows = []
        for cell in range(spec.n_cells):
            r, c = divmod(cell, spec.width)
            rows.append([str(r), str(c), str(cell), _fmt_prob(marg[cell])])
        _write_csv(
            args.out_dir / f"snapshot_t{t}.csv",
            ["row", "col", "state", "probability"],
            rows,
        )
    info = per_step_information(mdp, report.policy, belief)
    _write_csv(
        args.out_dir / "information_usage.csv",
        ["t", "information_nats", "information_bits"],
        [
            [str(t + 1), _fmt(v), _fmt(v / LOG2)]
            for t, v in enumerate(info)
        ],
    )
    _print_report(report, args.bits)
    return 0


def cmd_value_iteration(args) -> int:
    mdp = load_instance(args.instance)
    result = oracle.finite_horizon_value_iteration(mdp)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for t, acts in enumerate(result.actions):
        for x, u in enumerate(acts):
            rows.append([str(t + 1), str(x), str(int(u))])
    _write_csv(args.out_dir / "vi_policy.csv", ["t", "state", "action"], rows)
    (args.out_dir / "vi_report.json").write_text(
        json.dumps({"expected_cost": result.expected_cost}, sort_keys=True) + "\n"
    )
    print(f"optimal expected cost {result.expected_cost:.9g}")
    return 0


def cmd_verify(args) -> int:
    results = oracle.all_suites(args.seed, args.scope)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name} ({res.trials} trials)")
        for line in res.failures:
            print(f"    replay: {line}")
        failed = failed or not res.passed
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ResourceError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
