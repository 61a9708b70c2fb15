"""Bytes that no other test pins, held as sha256 digests recorded before the
code that produces them was rewritten: the census's canonical keys, the
theorem-check reports under every subset of invariants, and the sweep rows
of every invariant."""

import hashlib
import itertools
import json

from cactuspaths.census import canonical_key, enumerate_cacti
from cactuspaths.extremal import INVARIANTS, SWEEP_COLUMNS, extremal_sweep, sweep_rows, verify_theorems

# sha256 over canonical_key(g) for every class g of enumerate_cacti(n, k),
# n <= 10, in census order (n then k ascending); 2,866 classes.  The census
# digest in test_census_build.py covers the representatives, not their keys.
KEYS_SHA256 = "9383d21533f197371d1029d4aff7475a45eb124edde3e5c90cf599a891f2de03"

# sha256 over json.dumps(verify_theorems(n, k, invariants=s).to_json(),
# sort_keys=True) for every (n, k) with n <= 9, n then k ascending, and for
# each the 8 subsets s of INVARIANTS in itertools.combinations order, ()
# first: every check's name, position, applicability, result and detail.
REPORTS_SHA256 = "556a4299a17731ec4c0932de1df5d8afa0b3dfecfdd3c61fc3233b4f790b48b1"

# sha256 over the CSV lines of sweep_rows(extremal_sweep(n, k, inv)), each
# row's SWEEP_COLUMNS joined by commas and ended by a newline, for every
# (n, k) with n <= 9, n then k ascending, and for each inv of INVARIANTS in
# order: every class's key, value, argmin/argmax flags and edges.
SWEEPS_SHA256 = "c0f798a71af8b63e4494e2f333c89d832d4f8cce908f983fac03bc5b3e56ae83"


def _cells(n_max: int):
    return [(n, k) for n in range(1, n_max + 1) for k in range((n - 1) // 2 + 1)]


def test_canonical_keys_are_pinned():
    h = hashlib.sha256()
    for n, k in _cells(10):
        for g in enumerate_cacti(n, k):
            h.update(canonical_key(g))
    assert h.hexdigest() == KEYS_SHA256


def test_verify_reports_are_pinned():
    subsets = [s for r in range(len(INVARIANTS) + 1) for s in itertools.combinations(INVARIANTS, r)]
    h = hashlib.sha256()
    for n, k in _cells(9):
        for s in subsets:
            report = verify_theorems(n, k, invariants=s)
            h.update(json.dumps(report.to_json(), sort_keys=True).encode())
    assert h.hexdigest() == REPORTS_SHA256


def test_sweep_rows_are_pinned():
    h = hashlib.sha256()
    for n, k in _cells(9):
        for inv in INVARIANTS:
            for row in sweep_rows(extremal_sweep(n, k, inv)):
                h.update((",".join(row[c] for c in SWEEP_COLUMNS) + "\n").encode())
    assert h.hexdigest() == SWEEPS_SHA256
