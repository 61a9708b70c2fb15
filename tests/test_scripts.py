"""The scripts under scripts/ run end to end at small arguments: each exits 0
and prints a line that its own checks or the census fix.  A bad argument
exits 2, as argparse does, before any work."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["census_table.py", "--n-max", "7"], "  7   3        2       73       89"),
        (["verify_extremal.py", "--pairs", "7:2"], "all checks passed"),
        (["reconcile_ptc.py", "--n-max", "8", "--k-max", "3"], "8,3,120,120,273/2,33/2"),
        (
            ["verify_rewrites.py", "--n", "40", "--count", "3", "--seed", "1"],
            '{"graph": 2, "n": 40, "k": 12, "max_pn_is_ptc_summation": true, "max_is_chain": true, '
            '"min_pn_is_min_cactus_path_count": true, "min_is_end_triangle_cactus": true, '
            '"max_steps": 25, ',
        ),
    ],
    ids=["census_table", "verify_extremal", "reconcile_ptc", "verify_rewrites"],
)
def test_script_runs(argv, expected):
    script, *args = argv
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith(expected) for line in proc.stdout.splitlines()), proc.stdout


@pytest.mark.parametrize("pairs", ["3:5", "7:2,3-5", "0:0", "7:-1"])
def test_verify_extremal_rejects_a_bad_pair_before_any_check(pairs):
    # exit 1 means a failed check, so a pair with no census must not reach one
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "verify_extremal.py"), "--pairs", pairs],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: argument --pairs" in proc.stderr
    assert "Traceback" not in proc.stderr
