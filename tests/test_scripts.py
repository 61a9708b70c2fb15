"""The scripts under scripts/ run end to end at small arguments: each exits 0
and prints a line that its own checks or the census fix.  A bad argument
exits 2, as argparse does, before any work."""

import os
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


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_census_table_rejects_a_census_size_below_one(n_max):
    # printing the header alone and exiting 0 would pass for an empty table
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "census_table.py"), "--n-max", n_max],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: argument --n-max" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("count", ["0", "-2"])
def test_verify_rewrites_rejects_a_count_below_one(count):
    # checking no cactus and exiting 0 would pass for a run whose checks held
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "verify_rewrites.py"), "--count", count],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: argument --count" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [["--n-max", "0"], ["--n-min", "9", "--n-max", "3"], ["--k-max", "1"], ["--k-min", "3", "--n-max", "6"]],
    ids=["n_max_0", "n_min_above_n_max", "k_max_1", "no_n_for_k_min"],
)
def test_reconcile_ptc_rejects_a_grid_with_no_ptc(args):
    # a table of no rows would report "oracle == summation on 0" and exit 0
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reconcile_ptc.py"), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: the grid holds no PTC(n, k)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_reconcile_ptc_prints_the_table_of_cactuspaths_reconcile_byte_for_byte():
    grid = ["--n-min", "5", "--n-max", "9", "--k-max", "3"]
    src = str(SCRIPTS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script, cli = (
        subprocess.run(argv, capture_output=True, env=env, timeout=60)
        for argv in (
            [sys.executable, str(SCRIPTS / "reconcile_ptc.py"), *grid],
            [sys.executable, "-m", "cactuspaths", "reconcile", *grid],
        )
    )
    assert script.returncode == cli.returncode == 0, (script.stderr, cli.stderr)
    assert script.stdout == cli.stdout
    assert script.stdout.startswith(b"n,k,") and b"\r" not in script.stdout
