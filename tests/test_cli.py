"""Command-line surface tests: files, exit codes, determinism, env overrides."""

import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import termdp as td
import termdp.cli
from termdp import envs, oracle
from termdp.cli import main
from termdp.errors import NumericalError

TOY = "instances/toy.json"
HAMMING = "instances/binary_hamming.json"


def run(argv):
    return main([str(a) for a in argv])


def positive_cost_instance(tmp_path):
    """Two steps, identity transitions, every stage cost positive: at a tiny
    beta the costs over beta overflow and the Gibbs step fails."""
    eye = np.tile(np.eye(2)[:, None, :], (1, 2, 1))
    cost = np.array([[1.0, 2.0], [2.0, 1.0]])
    mdp = td.FiniteMdp((eye, eye), (cost, cost), np.zeros(2), np.full(2, 0.5))
    path = tmp_path / "positive.json"
    envs.save_instance(mdp, path)
    return path


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestSolveCommand:
    def test_writes_report_and_policy(self, tmp_path, capsys):
        code = run(["solve", TOY, "--beta", "1", "--out-dir", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["converged"] is True
        assert doc["residual"] < 1e-8
        assert "wall_time" not in json.dumps(doc)
        lines = (tmp_path / "policy.csv").read_text().splitlines()
        assert lines[0] == "t,state,history,action,probability"
        assert len(lines) == 1 + 2 * (2 * 1 * 2)
        out = capsys.readouterr().out
        assert "total" in out and "residual" in out

    def test_beta_zero_rejected_with_pointer(self, tmp_path, capsys):
        code = run(["solve", TOY, "--beta", "0", "--out-dir", tmp_path])
        assert code == 2
        assert "value-iteration" in capsys.readouterr().err

    def test_missing_instance_is_input_error(self, tmp_path, capsys):
        code = run(["solve", tmp_path / "nope.json", "--out-dir", tmp_path])
        assert code == 2

    def test_same_seed_bitwise_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            code = run(
                ["solve", TOY, "--beta", "1", "--seed", "7", "--starts", "2",
                 "--out-dir", tmp_path / sub]
            )
            assert code == 0
        for name in ("report.json", "policy.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_window_guard_exit_code(self, tmp_path, capsys):
        maze = tmp_path / "maze.json"
        envs.save_maze_spec(td.sample_maze_spec(horizon=12), maze)
        code = run(
            ["maze", maze, "--beta", "1", "--degree-m", "11",
             "--snapshot-times", "5", "--max-iters", "40",
             "--out-dir", tmp_path]
        )
        assert code == 4
        assert "resource guard" in capsys.readouterr().err

    def test_policy_table_guard_exit_code(self, tmp_path, capsys):
        # degree 8 would need 3e8-cell policy tables on the sample maze
        code = run(["maze", "--sample", "--degree-n", "8", "--out-dir", tmp_path])
        assert code == 4
        assert "budget" in capsys.readouterr().err

    def test_whole_policy_guard_exit_code(self, tmp_path, capsys):
        # degree 6 on the sample maze: every table is under the budget, but
        # the 55 tables hold 5.9e8 cells (4.7 GB); refused before allocating
        code = run(["maze", "--sample", "--degree-n", "6", "--out-dir", tmp_path])
        assert code == 4
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [["--beta", "nan"], ["--beta", "inf"], ["--tol", "nan"]]
    )
    def test_non_finite_numbers_are_input_errors(self, tmp_path, capsys, option):
        code = run(["solve", TOY, *option, "--out-dir", tmp_path])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        code = run(["solve", positive_cost_instance(tmp_path), "--beta", "1e-320",
                    "--out-dir", tmp_path])
        assert code == 3
        assert "non-finite or zero Gibbs normalizer at t=1" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("instance, want", [(TOY, 0), ("positive", 3)])
    def test_no_numpy_warnings_on_stderr(self, tmp_path, instance, want):
        # at beta 1e-320 the costs over beta overflow; the guards report (or
        # the run succeeds) without numpy's RuntimeWarnings on stderr
        if instance == "positive":
            instance = positive_cost_instance(tmp_path)
        src = os.path.dirname(os.path.dirname(td.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "termdp.cli", "solve", str(instance),
             "--beta", "1e-320", "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == want, done.stderr
        assert "RuntimeWarning" not in done.stderr

    def test_window_information_is_strict_json(self, tmp_path):
        # the degree-1 optimum of this instance has joint entries whose
        # products underflow; the windowed information stays a finite number
        rng = np.random.default_rng(2001)
        mdp = oracle.random_mdp(rng, 2, max_states=3, max_actions=3, min_states=1)
        path = tmp_path / "instance.json"
        envs.save_instance(mdp, path)
        code = run(["solve", path, "--beta", "0.5", "--degree-n", "1",
                    "--degree-m", "1", "--out-dir", tmp_path])
        assert code == 0
        doc = strict_json((tmp_path / "report.json").read_text())
        gap = abs(doc["information_nats_window"] - doc["information_nats"])
        assert gap < 1e-12

    def test_bits_flag_prints_bits(self, tmp_path, capsys):
        run(["solve", HAMMING, "--beta", "1", "--bits", "--out-dir", tmp_path])
        assert "bits" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "transition",
        [
            [[[0.5, "a"], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
            [[[0.5, 0.5], [1.0]], [[0.5, 0.5], [0.5, 0.5]]],
        ],
        ids=["non-numeric-entry", "ragged-slice"],
    )
    def test_malformed_transition_is_input_error(
        self, tmp_path, capsys, transition
    ):
        doc = envs.instance_to_dict(envs.load_instance(HAMMING))
        doc["transition"] = transition
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = run(["solve", path, "--out-dir", tmp_path])
        assert code == 2
        assert "transition" in capsys.readouterr().err


class TestSweepCommand:
    def test_tradeoff_and_bounds_files(self, tmp_path):
        code = run(
            ["sweep", HAMMING, "--betas", "0.5,1,2", "--out-dir", tmp_path]
        )
        assert code == 0
        rows = (tmp_path / "tradeoff.csv").read_text().splitlines()
        assert rows[0].startswith("beta,cost,information_nats")
        assert len(rows) == 4
        bounds = (tmp_path / "rate_bounds.csv").read_text().splitlines()
        assert bounds[0].startswith("beta,cost,information_nats")
        # single-stage binary instance: directed information is computable
        # and equals the windowed value
        first = bounds[1].split(",")
        assert first[3] != ""
        assert abs(float(first[2]) - float(first[3])) < 1e-9

    def test_closed_form_family(self, tmp_path):
        # symmetric single-stage fixed points: match probability
        # 1 / (1 + e^{-1/beta}) at each beta
        code = run(
            ["sweep", HAMMING, "--betas", "0.5,1,2", "--out-dir", tmp_path]
        )
        assert code == 0
        costs, infos = [], []
        for line in (tmp_path / "tradeoff.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            beta, cost, info = float(parts[0]), float(parts[1]), float(parts[2])
            p = 1.0 / (1.0 + math.exp(-1.0 / beta))
            assert abs(cost - (1.0 - p)) < 1e-6
            costs.append(cost)
            infos.append(info)
        # on the convex single-stage instance the trade-off ordering is
        # guaranteed: information falls and cost rises as beta grows
        assert infos == sorted(infos, reverse=True)
        assert costs == sorted(costs)

    def test_rows_reproducible(self, tmp_path):
        for sub in ("a", "b"):
            run(
                ["sweep", HAMMING, "--betas", "0.5,2", "--seed", "3",
                 "--out-dir", tmp_path / sub]
            )
        assert (tmp_path / "a" / "tradeoff.csv").read_bytes() == (
            tmp_path / "b" / "tradeoff.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "rate_bounds.csv").read_bytes() == (
            tmp_path / "b" / "rate_bounds.csv"
        ).read_bytes()

    def test_log_spaced_range(self, tmp_path):
        code = run(
            ["sweep", HAMMING, "--beta-min", "0.1", "--beta-max", "10",
             "--beta-count", "3", "--out-dir", tmp_path]
        )
        assert code == 0
        rows = (tmp_path / "tradeoff.csv").read_text().splitlines()[1:]
        betas = [float(r.split(",")[0]) for r in rows]
        np.testing.assert_allclose(betas, [0.1, 1.0, 10.0], rtol=1e-12)

    def test_needs_beta_specification(self, tmp_path, capsys):
        assert run(["sweep", HAMMING, "--out-dir", tmp_path]) == 2

    def test_failed_beta_goes_to_error_column(self, tmp_path, monkeypatch):
        solve_all = termdp.cli.multi_start

        def failing(mdp, opts, **kwargs):
            if opts.beta == 2.0:
                raise NumericalError("non-finite objective at iteration 1")
            return solve_all(mdp, opts, **kwargs)

        monkeypatch.setattr(termdp.cli, "multi_start", failing)
        code = run(
            ["sweep", HAMMING, "--betas", "0.5,2,4", "--out-dir", tmp_path]
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "tradeoff.csv").read_text().splitlines()[1:]
        ]
        assert [r[0] for r in rows] == ["0.5", "2.0", "4.0"]
        assert rows[1][1:] == ["", "", "", "", "", "", "non-finite objective at iteration 1"]
        assert rows[0][7] == rows[2][7] == ""
        bounds = (tmp_path / "rate_bounds.csv").read_text().splitlines()
        assert len(bounds) == 3

    def test_numerical_failure_goes_to_error_column(self, tmp_path):
        code = run(["sweep", positive_cost_instance(tmp_path), "--betas",
                    "1e-320,1", "--out-dir", tmp_path])
        assert code == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "tradeoff.csv").read_text().splitlines()[1:]
        ]
        assert rows[0] == ["1e-320", "", "", "", "", "", "",
                           "non-finite or zero Gibbs normalizer at t=1"]
        assert rows[1][0] == "1.0" and rows[1][7] == ""
        assert float(rows[1][4]) > 0.0

    def test_oversized_beta_count_refused_before_allocation(self, tmp_path, capsys):
        tracemalloc.start()
        try:
            code = run(["sweep", HAMMING, "--beta-min", "1", "--beta-max", "2",
                        "--beta-count", "100000000", "--out-dir", tmp_path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert "100000000 betas" in capsys.readouterr().err
        assert peak < 1_000_000
        assert not (tmp_path / "tradeoff.csv").exists()

    def test_oversized_beta_list_refused(self, tmp_path, capsys):
        betas = ",".join(["1"] * (termdp.cli.MAX_SWEEP_BETAS + 1))
        code = run(["sweep", HAMMING, "--betas", betas, "--out-dir", tmp_path])
        assert code == 4
        assert f"{termdp.cli.MAX_SWEEP_BETAS + 1} betas" in capsys.readouterr().err
        assert not (tmp_path / "tradeoff.csv").exists()

    def test_non_finite_beta_rejected_before_solving(self, tmp_path, capsys):
        code = run(["sweep", HAMMING, "--betas", "nan,1", "--out-dir", tmp_path])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "tradeoff.csv").exists()

    def test_shared_beta_not_used_by_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TERMDP_BETA", "0")
        code = run(["sweep", HAMMING, "--betas", "1,2", "--out-dir", tmp_path])
        assert code == 0
        assert len((tmp_path / "tradeoff.csv").read_text().splitlines()) == 3

    def test_nonpositive_range_rejected(self, tmp_path):
        code = run(
            ["sweep", HAMMING, "--beta-min", "0", "--beta-max", "1",
             "--out-dir", tmp_path]
        )
        assert code == 2

    @pytest.mark.parametrize("betas", [",", " , ,"])
    def test_empty_beta_list_rejected(self, tmp_path, capsys, betas):
        code = run(["sweep", HAMMING, "--betas", betas, "--out-dir", tmp_path])
        assert code == 2
        assert "lists no beta" in capsys.readouterr().err
        assert not (tmp_path / "tradeoff.csv").exists()


class TestLandscapeCommand:
    def test_requires_toy_flag(self, tmp_path):
        assert run(["landscape", "--out-dir", tmp_path]) == 2

    def test_oversized_grid_refused_before_allocation(self, tmp_path, capsys):
        # 5000 x 5000 cells exceed the budget; the refusal comes before any
        # grid or stage-2 curve is built, so almost nothing is allocated
        tracemalloc.start()
        try:
            code = run(
                ["landscape", "--toy", "--resolution", "5000", "--out-dir", tmp_path]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert "25000000 cells" in capsys.readouterr().err
        assert peak < 1_000_000
        assert not (tmp_path / "v2_curve.csv").exists()

    def test_smallest_refused_grid_exits_before_allocation(self, tmp_path, capsys):
        # the byte guard's edge: the largest admitted resolution needs at most
        # MAX_LANDSCAPE_BYTES, the next one is refused with nothing allocated
        largest = math.isqrt(oracle.MAX_LANDSCAPE_BYTES // oracle.LANDSCAPE_CELL_BYTES)
        assert largest >= 101
        tracemalloc.start()
        try:
            code = run(["landscape", "--toy", "--resolution", largest + 1,
                        "--out-dir", tmp_path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert f"{(largest + 1) ** 2} cells" in capsys.readouterr().err
        assert peak < 1_000_000
        assert not (tmp_path / "v2_curve.csv").exists()

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # at beta 1e-320 the costs over beta overflow: the continuation solves
        # still converge, and the certificate's Gibbs normalizer guard fires
        code = run(["landscape", "--toy", "--beta", "1e-320", "--resolution", "11",
                    "--out-dir", tmp_path])
        assert code == 3
        assert "Gibbs normalizer" in capsys.readouterr().err

    def test_emits_curves_with_classification(self, tmp_path, capsys):
        code = run(
            ["landscape", "--toy", "--resolution", "21", "--out-dir", tmp_path]
        )
        assert code == 0
        v2 = (tmp_path / "v2_curve.csv").read_text().splitlines()
        assert v2[0] == "lambda,value"
        assert float(v2[1].split(",")[1]) < 1e-9  # endpoint value is zero
        assert float(v2[-1].split(",")[1]) < 1e-9
        stage1 = (tmp_path / "stage1_landscape.csv").read_text().splitlines()
        assert stage1[0] == "theta0,theta1,objective,classification"
        labels = {line.split(",")[3] for line in stage1[1:]}
        assert "local_min" in labels
        out = capsys.readouterr().out
        assert "local minima" in out


class TestMazeCommand:
    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        code = run(["maze", "--sample", "--horizon", "30", "--beta", "1e-320",
                    "--max-iters", "5", "--out-dir", tmp_path])
        assert code == 3
        assert "non-finite or zero Gibbs normalizer at t=29" in capsys.readouterr().err

    def test_snapshots_and_information_usage(self, tmp_path):
        maze = tmp_path / "maze.json"
        envs.save_maze_spec(td.sample_maze_spec(horizon=10), maze)
        code = run(
            ["maze", maze, "--beta", "1", "--snapshot-times", "5,11",
             "--max-iters", "150", "--out-dir", tmp_path / "out"]
        )
        assert code == 0
        snap = (tmp_path / "out" / "snapshot_t5.csv").read_text().splitlines()
        assert snap[0] == "row,col,state,probability"
        total = sum(float(r.split(",")[3]) for r in snap[1:])
        assert abs(total - 1.0) < 1e-9
        usage = (tmp_path / "out" / "information_usage.csv").read_text().splitlines()
        assert usage[0] == "t,information_nats,information_bits"
        assert len(usage) == 11

    def test_sample_flag(self, tmp_path):
        code = run(
            ["maze", "--sample", "--horizon", "8", "--beta", "1",
             "--max-iters", "100", "--snapshot-times", "3",
             "--out-dir", tmp_path]
        )
        assert code == 0

    def test_snapshot_time_validated(self, tmp_path, capsys):
        code = run(
            ["maze", "--sample", "--horizon", "8", "--snapshot-times", "99",
             "--out-dir", tmp_path]
        )
        assert code == 2

    def test_malformed_spec_value_is_input_error(self, tmp_path, capsys):
        doc = envs.maze_spec_to_dict(td.sample_maze_spec(horizon=8))
        doc["width"] = "x"
        maze = tmp_path / "maze.json"
        maze.write_text(json.dumps(doc))
        code = run(["maze", maze, "--out-dir", tmp_path])
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("intended_slip_share", "false"), ("horizon", 2.7), ("start", 34.9),
        ("horizon", True), ("p_intended", "0.8"), ("terminal_penalty", "1e4"),
        ("p_slip", True), ("terminal_penalty", 10**400),
    ])
    def test_spec_values_are_not_coerced(self, tmp_path, capsys, field, value):
        doc = envs.maze_spec_to_dict(td.sample_maze_spec(horizon=8))
        doc[field] = value
        maze = tmp_path / "maze.json"
        maze.write_text(json.dumps(doc))
        code = run(["maze", maze, "--out-dir", tmp_path / "out"])
        err = capsys.readouterr().err
        assert code == 2
        assert "input error" in err and "malformed" in err and field in err
        assert not (tmp_path / "out").exists()

    def test_integer_float_field_loads(self):
        doc = envs.maze_spec_to_dict(td.sample_maze_spec(horizon=8))
        doc["terminal_penalty"] = 10000
        spec = envs.maze_spec_from_dict(doc)
        assert spec.terminal_penalty == 10000.0 and type(spec.terminal_penalty) is float

    def test_deterministic_outputs(self, tmp_path):
        maze = tmp_path / "maze.json"
        envs.save_maze_spec(td.sample_maze_spec(horizon=10), maze)
        for sub in ("a", "b"):
            run(
                ["maze", maze, "--beta", "2", "--seed", "5",
                 "--max-iters", "150", "--snapshot-times", "6",
                 "--out-dir", tmp_path / sub]
            )
        for name in ("report.json", "policy.csv", "snapshot_t6.csv",
                     "information_usage.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_deterministic_outputs_with_sqs3_points(self, tmp_path, monkeypatch):
        # at horizon 25 the goal is within reach, so the solve screens
        # between routes, and its sweeps try SqS3 points
        points = []
        real_add = td.solver._Cycle.add

        def add(cycle, nu, bound):
            out = real_add(cycle, nu, bound)
            points.append(out is not None)
            return out

        monkeypatch.setattr(td.solver._Cycle, "add", add)
        maze = tmp_path / "maze.json"
        envs.save_maze_spec(td.sample_maze_spec(horizon=25), maze)
        files = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = run(["maze", maze, "--beta", "2", "--seed", "3",
                        "--max-iters", "150", "--out-dir", out])
            assert code == 0
            files.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert files[0] == files[1]
        report = json.loads(files[0]["report.json"])
        assert any(points)
        assert report["converged"]


@pytest.mark.parametrize(
    "argv", [["solve", TOY], ["sweep", HAMMING, "--betas", "1"], ["maze", "--sample"]]
)
def test_oversized_starts_refused_before_allocation(tmp_path, capsys, argv):
    # multi_start builds every start before it solves any; the refusal comes
    # before the instance is even loaded
    tracemalloc.start()
    try:
        code = run([*argv, "--starts", termdp.cli.MAX_STARTS + 1,
                    "--out-dir", tmp_path / "out"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert f"{termdp.cli.MAX_STARTS + 1} starts" in capsys.readouterr().err
    assert peak < 1_000_000
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv", [["solve", TOY], ["sweep", HAMMING, "--betas", "1"], ["maze", "--sample"]],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("source", ["flag", "environment"])
def test_negative_starts_is_input_error(tmp_path, capsys, monkeypatch, argv, source):
    # a negative count was clamped to one seeded restart and exited 0
    if source == "flag":
        argv = [*argv, "--starts", "-1"]
    else:
        monkeypatch.setenv("TERMDP_STARTS", "-1")
    code = run([*argv, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error: starts must be nonnegative, got -1" in err
    assert not (tmp_path / "out").exists()


def test_zero_starts_runs_one_seeded_restart(tmp_path):
    # --starts 0 keeps its meaning: the same files as --starts 1
    files = []
    for starts in (0, 1):
        out = tmp_path / f"out{starts}"
        assert run(["solve", TOY, "--starts", starts, "--out-dir", out]) == 0
        files.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert files[0] == files[1]


@pytest.mark.parametrize("argv", [
    ["solve", TOY], ["sweep", HAMMING, "--betas", "1"], ["maze", "--sample"], ["verify"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("source", ["flag", "environment"])
def test_negative_seed_is_input_error(tmp_path, capsys, monkeypatch, argv, source):
    # numpy's generators raise ValueError on it; verify would exit 1, which
    # reads as a failed suite
    if source == "flag":
        argv = [*argv, "--seed", "-1"]
    else:
        monkeypatch.setenv("TERMDP_SEED", "-1")
    if argv[0] != "verify":  # verify writes no file
        argv = [*argv, "--out-dir", tmp_path / "out"]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "input error: seed must be nonnegative" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_non_finite_initial_is_input_error(tmp_path, capsys):
    # Python's json reads the NaN literal
    doc = envs.instance_to_dict(envs.load_instance(HAMMING))
    doc["initial"] = [float("nan"), 1.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code = run(["solve", path, "--out-dir", tmp_path / "out"])
    assert code == 2
    assert "input error: initial distribution non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SHARED_VALUES = {  # each shared flag with a valid value
    "--beta": ["2"], "--degree-n": ["1"], "--degree-m": ["1"], "--max-iters": ["5"],
    "--tol": ["1e-9"], "--tol-residual": ["1e-7"], "--seed": ["3"], "--starts": ["2"],
    "--out-dir": ["out"], "--bits": [],
}
READS = {  # the shared flags each subcommand reads
    "solve": set(SHARED_VALUES),
    "sweep": {"--degree-n", "--max-iters", "--tol", "--tol-residual", "--seed", "--starts",
              "--out-dir"},
    "landscape": {"--beta", "--out-dir"},
    "maze": set(SHARED_VALUES),
    "value-iteration": {"--out-dir"},
    "verify": {"--seed"},
}
COMMANDS = {  # a valid invocation of each subcommand
    "solve": ["solve", TOY], "sweep": ["sweep", HAMMING, "--betas", "1"],
    "landscape": ["landscape", "--toy"], "maze": ["maze", "--sample"],
    "value-iteration": ["value-iteration", TOY], "verify": ["verify"],
}


@pytest.mark.parametrize("command", sorted(READS))
def test_subcommand_takes_only_the_shared_flags_it_reads(tmp_path, monkeypatch, command):
    # every subcommand took all ten and ignored those it does not read
    parser = termdp.cli.build_parser()
    monkeypatch.chdir(tmp_path)  # where a relative --out-dir would write
    for flag, value in SHARED_VALUES.items():
        argv = [*COMMANDS[command], flag, *value]
        if flag in READS[command]:
            parser.parse_args(argv)
        else:
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2, flag
    assert not any(tmp_path.iterdir())


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command-line usage", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("termdp ")]
    assert {argv[0] for argv in commands} == set(READS)
    parser = termdp.cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


class TestValueIterationCommand:
    def test_reports_optimal_cost(self, tmp_path, capsys):
        code = run(["value-iteration", TOY, "--out-dir", tmp_path])
        assert code == 0
        assert "optimal expected cost 0" in capsys.readouterr().out
        doc = json.loads((tmp_path / "vi_report.json").read_text())
        assert doc["expected_cost"] == 0.0
        rows = (tmp_path / "vi_policy.csv").read_text().splitlines()
        assert rows[0] == "t,state,action"
        assert len(rows) == 5

    @pytest.mark.parametrize("content", [None, "{not json", '{"horizon": 2}'])
    def test_missing_or_malformed_instance_is_input_error(self, tmp_path, capsys,
                                                          content):
        path = tmp_path / "instance.json"
        if content is not None:
            path.write_text(content)
        code = run(["value-iteration", path, "--out-dir", tmp_path / "out"])
        assert code == 2
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "vi_report.json").exists()


class TestVerifyCommand:
    def test_quick_scope_passes(self, capsys):
        code = run(["verify", "--scope", "quick", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count("[PASS]") == 6


class TestEnvOverrides:
    def test_environment_defaults(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TERMDP_BETA", "2.5")
        monkeypatch.setenv("TERMDP_OUT_DIR", str(tmp_path))
        code = run(["solve", TOY])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["beta"] == 2.5

    def test_flags_beat_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TERMDP_BETA", "2.5")
        code = run(["solve", TOY, "--beta", "1", "--out-dir", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["beta"] == 1.0

    def test_malformed_environment_value_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("TERMDP_BETA", "abc")
        with pytest.raises(SystemExit) as exc:
            run(["solve", TOY, "--out-dir", tmp_path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid float value: 'abc'" in err
        assert "Traceback" not in err
        # a flag on the command line still wins over the bad default
        assert run(["solve", TOY, "--beta", "1", "--out-dir", tmp_path]) == 0
