"""The cactus census pinned before its deduplication moved from the generic
canonical key to the block-cut-tree code, and the guard on every census a
request is grown from."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cactuspaths.census import CensusSizeError, census_rows, enumerate_cacti

# Classes per (n, k), k = 0, 1, ...; row sums are OEIS A000083.
CLASSES = {
    1: (1,),
    2: (1,),
    3: (1, 1),
    4: (2, 2),
    5: (3, 5, 1),
    6: (6, 13, 4),
    7: (11, 33, 17, 2),
    8: (23, 89, 65, 11),
    9: (47, 240, 241, 64, 4),
    10: (106, 657, 859, 326, 31),
    11: (235, 1806, 2985, 1532, 238, 8),
    12: (551, 5026, 10163, 6760, 1524, 94),
}
A000083 = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 23, 7: 63, 8: 188, 9: 596, 10: 1979, 11: 6804, 12: 24118}
TIER1_MAX_N = 10  # n = 11 and 12 take seconds; run them by raising this

# sha256 over json.dumps([g.to_json() for g in enumerate_cacti(n, k)]) + "\n"
# for every (n, k) with n <= 10, n then k ascending: the representatives and
# their order.  Re-recorded when every census came to be grown from
# generation-order parents, which changes the representatives but not the
# classes or their order (KEYS_SHA256 in test_pinned_digests.py held).
CENSUS_SHA256 = "62b91c5f09176403710421c96d78f17c47bafd2e83b18bd3033d471ee9263448"


def test_class_table_sums_to_a000083():
    assert {n: sum(row) for n, row in CLASSES.items()} == A000083


def test_class_counts_are_pinned():
    for n in range(1, TIER1_MAX_N + 1):
        counts = tuple(len(enumerate_cacti(n, k)) for k in range(len(CLASSES[n])))
        assert counts == CLASSES[n], n


def test_class_counts_one_size_past_tier1_are_pinned():
    # the n = 11 row, from the census rows, which compute no key
    counts = tuple(len(census_rows(11, k)) for k in range(len(CLASSES[11])))
    assert counts == CLASSES[11]


def test_representatives_and_order_are_pinned():
    h = hashlib.sha256()
    for n in range(1, TIER1_MAX_N + 1):
        for k in range((n - 1) // 2 + 1):
            h.update(json.dumps([g.to_json() for g in enumerate_cacti(n, k)]).encode())
            h.update(b"\n")
    assert h.hexdigest() == CENSUS_SHA256


def test_guard_reads_every_census_below_cold_and_warm():
    # (10, 3) is grown from (8, 2), whose 65 classes are the first over 64
    message = "census for n=8, k=2 has more classes than the guard 64"
    code = (
        "from cactuspaths.census import CensusSizeError, enumerate_cacti\n"
        "try:\n    enumerate_cacti(10, 3, guard=64)\n"
        "except CensusSizeError as exc:\n    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == message + "\n"
    assert len(enumerate_cacti(10, 3)) == 326
    with pytest.raises(CensusSizeError, match=message):
        enumerate_cacti(10, 3, guard=64)


def test_large_n_with_a_small_guard_stops_without_recursion():
    for n, k in ((1200, 0), (30, 14), (5000, 2000)):
        with pytest.raises(CensusSizeError):
            enumerate_cacti(n, k, guard=5)
