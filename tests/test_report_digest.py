"""``report_digest.py --compare`` on two hand-written digests."""

import subprocess
import sys
from pathlib import Path

import report_digest

OLD = """\
a seed=1 0 solver.solve#0\titerations=400\tconverged=False\tresidual=2e-08\tpolicy=aa\ttrace[1:]=bb\ttrace[0]=5.0\tcost=1.0\tinformation=0.5\ttotal=2.0
a seed=1 1 solver.solve#0\titerations=90\tconverged=True\tresidual=1e-10\tpolicy=cc\ttrace[1:]=dd\ttrace[0]=5.0\tcost=1.0\tinformation=0.5\ttotal=3.0
a seed=1 2 solver.solve#0\titerations=70\tconverged=True\tresidual=1e-10\tpolicy=ee\ttrace[1:]=ff\ttrace[0]=5.0\tcost=1.0\tinformation=0.5\ttotal=4.0
criterion-1 draw=910000\titerations=400\tconverged=False\tresidual=3e-08\tpolicy=11\ttrace[1:]=22\ttrace[0]=5.0\tcost=1.0\tinformation=0.5\ttotal=10.0
public draw=0 dense forward_pass\t0123
public draw=0 dense backward_pass\t4567
public draw=0 solved stationarity_residual\t1e-09
"""

NEW = """\
a seed=1 0 solver.solve#0\titerations=120\tconverged=True\tresidual=4e-09\tpolicy=a1\ttrace[1:]=b1\ttrace[0]=5.0\tcost=1.0\tinformation=0.5\ttotal=1.99999
a seed=1 1 solver.solve#0\titerations=400\tconverged=False\tresidual=3e-08\tpolicy=c1\ttrace[1:]=d1\ttrace[0]=5.0\tcost=1.0\tinformation=0.5\ttotal=3.000000001
a seed=1 2 solver.solve#0\titerations=70\tconverged=True\tresidual=1e-10\tpolicy=ee\ttrace[1:]=ff\ttrace[0]=5.0\tcost=1.0\tinformation=0.5\ttotal=4.0
criterion-1 draw=910000\titerations=60\tconverged=True\tresidual=1e-09\tpolicy=12\ttrace[1:]=23\ttrace[0]=5.0\tcost=1.0\tinformation=0.5\ttotal=10.001
public draw=0 dense forward_pass\t0123
public draw=0 dense backward_pass\t4567
public draw=0 solved stationarity_residual\t2e-09
"""


def test_compare_counts_the_moved_reports():
    # one report unchanged; one convergence lost, with its total worse by
    # 3.3e-10 relative (inside 1e-8); two gained, one of them 5e-6 better
    # and the other 1e-4 worse; iterations 960 -> 650; one public line moved
    out = report_digest.compare(OLD.splitlines(), NEW.splitlines())
    assert out == [
        "report lines changed: 3 of 4",
        "convergences lost: 1\n  a seed=1 1 solver.solve#0",
        "convergences gained: 2\n  a seed=1 0 solver.solve#0\n  criterion-1 draw=910000",
        "totals worse by more than 1e-08 relative: 1, largest 0.0001"
        "\n  criterion-1 draw=910000 +0.0001",
        "totals better by more than 1e-08 relative: 1, largest 5e-06"
        "\n  a seed=1 0 solver.solve#0 -5e-06",
        "iterations old: 960",
        "iterations new: 650",
        "public lines changed: 1 of 3",
    ]


def test_compare_command_reads_two_files(tmp_path):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text(OLD)
    new.write_text(OLD)
    script = Path(report_digest.__file__)
    done = subprocess.run([sys.executable, str(script), "--compare", str(old), str(new)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [
        "report lines changed: 0 of 4", "convergences lost: 0", "convergences gained: 0",
        "totals worse by more than 1e-08 relative: 0",
        "totals better by more than 1e-08 relative: 0",
        "iterations old: 960", "iterations new: 960", "public lines changed: 0 of 3",
    ]
