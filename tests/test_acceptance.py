"""Acceptance criteria, one test per criterion.

Each test prints one `[criterion N] PASS/FAIL` line (run with -s to see them
live).  Shared heavy artifacts (the randomized solve batch, the maze runs)
are module-scoped fixtures.  Criterion 4 contains a sub-clause that cannot
hold on the two-step binary instance; see the assertion message there for the
precise reason.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import termdp as td
from termdp import envs, oracle
from termdp.cli import main as cli_main
from termdp.solver import backward_pass, forward_pass, _sweeps

from conftest import register_criterion_line

LN2 = math.log(2.0)


def report_line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status} — {detail}"
    print(line)
    register_criterion_line(line)


# ---------------------------------------------------------------------------
# Criteria 1 + 2: randomized descent batch with stationarity certificates
# ---------------------------------------------------------------------------


@dataclass
class BatchRun:
    reports: list
    instances: list
    elapsed: float


@pytest.fixture(scope="module")
def randomized_batch():
    reports = []
    instances = []
    start = time.monotonic()
    for i in range(200):
        rng = np.random.default_rng(910_000 + i)
        mdp = oracle.random_mdp(rng, int(rng.integers(1, 11)), 5, 5)
        opts = td.SolveOptions(
            beta=float(rng.uniform(0.1, 3.0)),
            degree=int(rng.integers(0, 3)),
            init="perturbed",
            seed=i,
            max_iters=400,
        )
        reports.append(td.solve(mdp, opts))
        instances.append((mdp, opts))
    return BatchRun(reports, instances, time.monotonic() - start)


def test_criterion_1_monotone_descent(randomized_batch):
    worst = 0.0
    for rep in randomized_batch.reports:
        tr = rep.objective_trace
        if len(tr) > 1:
            worst = max(worst, float((tr[1:] - tr[:-1]).max()))
    ok = worst <= 1e-12 and randomized_batch.elapsed < 60.0
    report_line(
        1, ok,
        f"200 solves, worst per-step ascent {worst:.2e} (slack 1e-12), "
        f"runtime {randomized_batch.elapsed:.1f}s (< 60s)",
    )
    assert worst <= 1e-12
    assert randomized_batch.elapsed < 60.0


def test_criterion_2_stationarity_certificates(randomized_batch):
    converged = [
        (rep, inst)
        for rep, inst in zip(randomized_batch.reports, randomized_batch.instances)
        if rep.converged
    ]
    worst_residual = 0.0
    worst_sweep_gap = 0.0
    for rep, (mdp, opts) in converged:
        worst_residual = max(worst_residual, rep.residual)
        belief, nu = forward_pass(mdp, rep.policy)
        _, _, q2 = backward_pass(mdp, nu, opts.beta, opts.degree)
        gap = 0.0
        for t in range(mdp.horizon):
            mask = belief.mus[t] > 1e-12
            if mask.any():
                gap = max(
                    gap,
                    float(
                        np.abs(rep.policy.tables[t] - q2.tables[t])[mask, :].max()
                    ),
                )
        worst_sweep_gap = max(worst_sweep_gap, gap)
    ok = worst_residual < 1e-8 and worst_sweep_gap < 1e-8 and converged
    report_line(
        2, bool(ok),
        f"{len(converged)} converged solves, worst residual "
        f"{worst_residual:.2e}, worst one-extra-sweep change "
        f"{worst_sweep_gap:.2e} (both < 1e-8)",
    )
    assert converged
    assert worst_residual < 1e-8
    assert worst_sweep_gap < 1e-8


# ---------------------------------------------------------------------------
# Criterion 3: classical single-stage equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_classical_equivalence():
    p = np.full((2, 2, 2), 0.5)
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    mdp = td.FiniteMdp((p,), (cost,), np.zeros(2), np.array([0.5, 0.5]))
    rep = td.solve(mdp, td.SolveOptions(beta=1.0, degree=0))
    q_star = 1.0 / (1.0 + math.exp(-1.0))
    want = np.array([[q_star, 1 - q_star], [1 - q_star, q_star]])
    policy_gap = float(np.abs(rep.policy.tables[0][:, 0, :] - want).max())
    brute = oracle.brute_force_policy_search(mdp, 1.0, 0, 1e-3)
    objective_gap = abs(rep.total - brute.value)
    ok = policy_gap < 1e-9 and objective_gap < 1e-4
    report_line(
        3, ok,
        f"policy gap {policy_gap:.2e} (< 1e-9), brute-force objective gap "
        f"{objective_gap:.2e} (< 1e-4 at resolution 1e-3)",
    )
    assert policy_gap < 1e-9
    assert objective_gap < 1e-4


# ---------------------------------------------------------------------------
# Criterion 4: nonconvexity reproduction on the two-step binary instance
# ---------------------------------------------------------------------------


def test_criterion_4_nonconvexity_reproduction():
    start = time.monotonic()
    toy = td.build_nonconvex_toy()
    grid = oracle.objective_landscape_stage1(toy, 101)
    reports = td.multi_start(
        toy, td.SolveOptions(beta=1.0, degree=0), starts=16, seed=404,
        include_uniform=False,
    )
    # cluster limit points by the first-stage parameters
    points: dict[tuple, object] = {}
    for rep in reports:
        key = (
            round(float(rep.policy.tables[0][0, 0, 0]), 6),
            round(float(rep.policy.tables[0][1, 0, 0]), 6),
        )
        points.setdefault(key, rep)
    spacing = 1.0 / 100
    near_minimum = {}
    for key, rep in points.items():
        i, j = round(key[0] / spacing), round(key[1] / spacing)
        near_minimum[key] = any(
            abs(i - a) <= 1 and abs(j - b) <= 1 for a, b in grid.minima
        )
    elapsed = time.monotonic() - start
    minima_ok = len(grid.minima) >= 2
    distinct_ok = len(points) >= 2
    near_ok = all(near_minimum.values())
    gaps = [
        abs(a.total - b.total)
        for ka, a in points.items()
        for kb, b in points.items()
        if ka < kb and near_minimum[ka] and near_minimum[kb]
    ]
    gap = max(gaps, default=0.0)
    gap_ok = gap > 1e-3
    ok = minima_ok and distinct_ok and near_ok and gap_ok and elapsed < 30
    report_line(
        4, ok,
        f"{len(grid.minima)} strict landscape minima, {len(points)} distinct "
        f"limit points (all near minima: {near_ok}), max objective gap "
        f"between minima-adjacent limit points {gap:.2e} (needs > 1e-3), "
        f"runtime {elapsed:.1f}s (< 30s)",
    )
    assert minima_ok, "landscape must contain at least two strict local minima"
    assert distinct_ok, "multi-start must reach at least two distinct limit points"
    assert near_ok, "every limit point must sit within one cell of a minimum"
    assert elapsed < 30.0
    assert gap_ok, (
        "unattainable as stated: the instance is invariant under relabeling "
        "both binary alphabets, which maps the two strict minima onto each "
        f"other, so their objectives are equal (measured gap {gap:.2e}); a "
        "gap above 1e-3 between minima-adjacent limit points cannot occur"
    )


# ---------------------------------------------------------------------------
# Criteria 5-7: structural property suites
# ---------------------------------------------------------------------------


def test_criterion_5_conditioning_monotonicity():
    res = oracle.suite_prop2(seed=905_000, trials=100)
    report_line(
        5, res.passed,
        f"per-step conditioning monotonicity on {res.trials} random "
        f"policies, {len(res.failures)} violations (slack 1e-12)",
    )
    assert res.passed, res.failures


def test_criterion_6_window_width_invariance():
    res = oracle.suite_prop1b(seed=906_000, trials=100)
    report_line(
        6, res.passed,
        f"window-width invariance |I_m - I_0| < 1e-12 on {res.trials} "
        f"random policies, {len(res.failures)} violations",
    )
    assert res.passed, res.failures


def test_criterion_7_bound_chain():
    res = oracle.suite_eq10(seed=907_000, trials=20, resolution=0.05)
    report_line(
        7, res.passed,
        f"finite-memory optimum upper-bounds the directed-information "
        f"optimum on {res.trials} two-step binary instances "
        f"(grid slack 1e-3), {len(res.failures)} violations",
    )
    assert res.passed, res.failures


# ---------------------------------------------------------------------------
# Criterion 8: per-iteration cost scaling
# ---------------------------------------------------------------------------


def test_criterion_8_per_iteration_scaling():
    opts = td.SolveOptions(beta=1.0, degree=0, max_iters=20)

    def sweep_times(mdps, rounds=7) -> list[float]:
        """Per instance, the median time per sweep over `rounds` 20-sweep
        runs from the uniform start, the instances alternating within each
        round.  One untimed sweep first builds each plan and its layout."""
        starts = [mdp.sweep_plan(0).layout.tables.join(
            td.MemoryPolicy.uniform(mdp, 0).tables)[None] for mdp in mdps]
        for mdp, start in zip(mdps, starts):
            _sweeps(mdp, opts, start.copy(), 1)
        times = [[] for _ in mdps]
        for _ in range(rounds):
            for mdp, start, runs in zip(mdps, starts, times):
                rows = start.copy()  # the sweeps write their final rows here
                t0 = time.perf_counter()
                _, iterations, _ = _sweeps(mdp, opts, rows, 20)
                runs.append((time.perf_counter() - t0) / 20)
                assert iterations == [20]
        return [float(np.median(runs)) for runs in times]

    t25, t50, t100 = sweep_times(
        [envs.build_maze(td.sample_maze_spec(horizon=h)) for h in (25, 50, 100)]
    )
    r1, r2 = t50 / t25, t100 / t50
    linear_ok = 1.6 <= r1 <= 2.6 and 1.6 <= r2 <= 2.6

    # the solve path takes no window-width argument at all; bracket it with
    # evaluations at different widths and check the iteration time is flat
    mdp = envs.build_maze(td.sample_maze_spec(horizon=25))
    stamps = []
    for m in (0, 1):
        td.transfer_entropy(mdp, td.MemoryPolicy.uniform(mdp, 0), m=m, n_eval=0)
        stamps += sweep_times([mdp])
    m_ratio = stamps[1] / stamps[0]
    m_ok = 0.5 <= m_ratio <= 2.0
    ok = linear_ok and m_ok
    report_line(
        8, ok,
        f"doubling ratios {r1:.2f}, {r2:.2f} (need [1.6, 2.6]); iteration "
        f"time ratio across evaluation widths {m_ratio:.2f} (need [0.5, 2])",
    )
    assert linear_ok, (t25, t50, t100)
    assert m_ok


# ---------------------------------------------------------------------------
# Criteria 9 + 10: maze reproduction
# ---------------------------------------------------------------------------


def test_criterion_9_beta_to_zero_consistency():
    mdp = envs.build_maze(td.sample_maze_spec(horizon=55))
    rep = td.solve(mdp, td.SolveOptions(beta=1e-6, degree=0, max_iters=400))
    vi = oracle.finite_horizon_value_iteration(mdp)
    excess = rep.cost / vi.expected_cost - 1.0
    ok = excess < 0.01
    report_line(
        9, ok,
        f"solver cost {rep.cost:.3f} vs dynamic-programming optimum "
        f"{vi.expected_cost:.3f}: excess {100 * excess:.3f}% (< 1%)",
    )
    assert ok


@pytest.fixture(scope="module")
def maze_runs():
    spec = td.sample_maze_spec(horizon=55)
    mdp = envs.build_maze(spec)
    short, long_ = envs.route_cells(spec)
    start = time.monotonic()
    best = {}
    for beta in (10.0, 1.0):
        reports = td.multi_start(
            mdp,
            td.SolveOptions(beta=beta, degree=0, max_iters=3500),
            starts=2,
            seed=910,
            plan_starts=3,
            screen_iters=300,
        )
        best[beta] = min(reports, key=lambda r: r.total)
    elapsed = time.monotonic() - start
    return spec, mdp, short, long_, best, elapsed


def test_maze_solves_certify_stationarity(maze_runs):
    # not a numbered criterion: the expensive-information maze solve should
    # come back converged with its residual certificate
    _, _, _, _, best, _ = maze_runs
    for beta, rep in best.items():
        assert rep.converged, (beta, rep.iterations, rep.residual)
        assert rep.residual < 1e-8


def test_criterion_10_maze_route_flip(maze_runs):
    spec, mdp, short, long_, best, elapsed = maze_runs
    masses = {}
    infos = {}
    for beta, rep in best.items():
        belief = td.propagate_reduced(mdp, rep.policy)
        mu25 = belief.state_marginal(24)  # 1-based time 25
        masses[beta] = (
            float(sum(mu25[c] for c in short)),
            float(sum(mu25[c] for c in long_)),
        )
        infos[beta] = float(td.per_step_information(mdp, rep.policy, belief).sum())
    long_ok = masses[10.0][1] >= 0.60
    short_ok = masses[1.0][0] >= 0.60
    info_ok = infos[1.0] > infos[10.0]
    ok = long_ok and short_ok and info_ok and elapsed < 120.0
    report_line(
        10, ok,
        f"beta=10 long-route mass {masses[10.0][1]:.3f} (needs >= 0.6), "
        f"beta=1 short-route mass {masses[1.0][0]:.3f} (needs >= 0.6), "
        f"information {infos[1.0]:.2f} > {infos[10.0]:.2f} nats, "
        f"runtime {elapsed:.0f}s (< 120s)",
    )
    assert long_ok and short_ok
    assert info_ok
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# Criterion 11: bitwise determinism of emitted files
# ---------------------------------------------------------------------------


def test_criterion_11_bitwise_determinism(tmp_path):
    maze_path = tmp_path / "maze.json"
    envs.save_maze_spec(td.sample_maze_spec(horizon=10), maze_path)
    commands = {
        "solve": ["solve", "instances/toy.json", "--beta", "1", "--seed", "3",
                  "--starts", "3"],
        "sweep": ["sweep", "instances/binary_hamming.json", "--betas",
                  "0.5,2", "--seed", "3"],
        "landscape": ["landscape", "--toy", "--resolution", "21"],
        "maze": ["maze", str(maze_path), "--beta", "2", "--seed", "3",
                 "--snapshot-times", "6", "--max-iters", "150"],
    }
    mismatches = []
    for name, argv in commands.items():
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / name / attempt
            code = cli_main(argv + ["--out-dir", str(out)])
            assert code == 0, (name, code)
            digests.append(
                {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            )
        if digests[0] != digests[1]:
            mismatches.append(name)
    ok = not mismatches
    report_line(
        11, ok,
        "repeated solve/sweep/landscape/maze runs reproduce byte-identical "
        + ("files" if ok else f"files; mismatches: {mismatches}"),
    )
    assert ok, mismatches
