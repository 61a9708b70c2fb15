"""Bytes that no other test pins, held as sha256 digests recorded before the
code that produces them was rewritten: the census's canonical keys, and the
theorem-check reports under every subset of invariants."""

import hashlib
import itertools
import json

from cactuspaths.census import canonical_key, enumerate_cacti
from cactuspaths.extremal import INVARIANTS, verify_theorems

# sha256 over canonical_key(g) for every class g of enumerate_cacti(n, k),
# n <= 10, in census order (n then k ascending); 2,866 classes.  The census
# digest in test_census_build.py covers the representatives, not their keys.
KEYS_SHA256 = "9383d21533f197371d1029d4aff7475a45eb124edde3e5c90cf599a891f2de03"

# sha256 over json.dumps(verify_theorems(n, k, invariants=s).to_json(),
# sort_keys=True) for every (n, k) with n <= 9, n then k ascending, and for
# each the 8 subsets s of INVARIANTS in itertools.combinations order, ()
# first: every check's name, position, applicability, result and detail.
REPORTS_SHA256 = "556a4299a17731ec4c0932de1df5d8afa0b3dfecfdd3c61fc3233b4f790b48b1"


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
