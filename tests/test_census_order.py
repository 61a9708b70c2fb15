"""Every census is grown and cached once, as rows in generation order: the
theorem checks read it as it is, and enumerate_cacti and sweep read it
sorted by canonical_key, which caches nothing, so each caller keys each
class it compares once and no graph outlives its call.  Neither the
census cache's state nor the order of calls may change any result."""

import gc
import hashlib
import json
import weakref

from test_census_build import CENSUS_SHA256
from test_pinned_digests import KEYS_SHA256

from cactuspaths import census as census_module
from cactuspaths import extremal
from cactuspaths.census import (
    canonical_key,
    census_rows,
    clear_caches,
    enumerate_cacti,
    row_graph,
)
from cactuspaths.cli import EXIT_BUDGET, EXIT_OK, main
from cactuspaths.extremal import extremal_sweep, sweep_rows, verify_theorems


def _cells(n_max):
    return [(n, k) for n in range(1, n_max + 1) for k in range((n - 1) // 2 + 1)]


def _sorted_census_digests():
    """The digests of test_census_build.py and test_pinned_digests.py, over
    the sorted census n <= 10."""
    reps, keys = hashlib.sha256(), hashlib.sha256()
    for n, k in _cells(10):
        census = enumerate_cacti(n, k)
        reps.update(json.dumps([g.to_json() for g in census]).encode())
        reps.update(b"\n")
        for g in census:
            keys.update(canonical_key(g))
    return reps.hexdigest(), keys.hexdigest()


def _reports(cells):
    return {cell: json.dumps(verify_theorems(*cell).to_json(), sort_keys=True) for cell in cells}


def test_cache_state_and_call_order_do_not_change_results():
    clear_caches()
    forward = _reports(_cells(9))
    assert _sorted_census_digests() == (CENSUS_SHA256, KEYS_SHA256)
    clear_caches()
    assert _sorted_census_digests() == (CENSUS_SHA256, KEYS_SHA256)
    assert _reports(reversed(_cells(9))) == forward


def test_clear_caches_empties_the_cactus_census():
    clear_caches()
    enumerate_cacti(7, 2)
    assert census_module._cactus_census and census_module._tables.cache_info().currsize
    clear_caches()
    assert census_module._cactus_census == {}
    assert census_module._tables.cache_info().currsize == 0


def test_a_census_is_held_once_in_one_order():
    clear_caches()
    cold = census_rows(7, 2)
    census = enumerate_cacti(7, 2)
    assert census_rows(7, 2) is cold
    # enumerate_cacti is the graphs of the cached rows, sorted
    assert tuple(census) == tuple(sorted((row_graph(7, row) for row in cold), key=canonical_key))


def test_a_sweep_reports_the_census_of_enumerate_cacti():
    assert list(extremal_sweep(9, 2, "pn").census) == list(enumerate_cacti(9, 2))


def test_enumerate_cacti_and_a_sweep_share_one_census_view():
    for n, k in _cells(9):
        census, swept = enumerate_cacti(n, k), extremal_sweep(n, k, "pn").census
        assert census == swept and census[1:] == swept[1:]


def _keyed(monkeypatch):
    """The graphs extremal keys from now on, one entry per canonical_key call."""
    keyed = []

    def counted(g):
        keyed.append(g)
        return canonical_key(g)

    monkeypatch.setattr(extremal, "canonical_key", counted)
    monkeypatch.setattr(census_module, "canonical_key", counted)
    return keyed


def test_verify_keys_only_the_classes_it_compares(monkeypatch):
    # sorting the census keyed every class: 517 and 390 keys before; the
    # bounds are the distinct classes and families compared, so none is
    # keyed twice
    keyed = _keyed(monkeypatch)
    for (n, k), most in (((10, 3), 21), ((9, 2), 26)):
        clear_caches()
        keyed.clear()
        verify_theorems(n, k)
        assert len(keyed) <= most, (n, k, len(keyed))


def test_a_sweep_and_its_rows_key_each_class_once(monkeypatch):
    # sweep_rows reads the report's keys: 654 keys before, each class twice
    keyed = _keyed(monkeypatch)
    report = extremal_sweep(10, 3, "subtrees")
    rows = sweep_rows(report)
    assert len(keyed) == len(rows) == 326
    assert [bytes.fromhex(row["canonical_key"]) for row in rows] == list(report.keys)
    assert list(report.keys) == [canonical_key(g) for g in report.census]


def test_no_census_graph_outlives_its_call():
    census = enumerate_cacti(8, 2)
    refs = [weakref.ref(g) for g in census]
    assert len(refs) == 65
    del census
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


def test_a_graph_read_from_a_census_is_freed_while_the_census_lives():
    census = enumerate_cacti(8, 2)
    ref = weakref.ref(census[0])
    gc.collect()
    assert ref() is None
    assert census[0] == census[0] and len(census) == 65


def test_verify_guard_binds_the_same_censuses_cold_and_after_a_sweep(capsys):
    # (10, 3) is grown from (8, 2), whose 65 classes are the first over 64
    message = "error: census for n=8, k=2 has more classes than the guard 64\n"
    guarded = ["--guard", "64", "verify", "--n", "10", "--k", "3"]
    clear_caches()
    assert main(guarded) == EXIT_BUDGET
    assert capsys.readouterr() == ("", message)
    assert main(["sweep", "--n", "10", "--k", "3"]) == EXIT_OK
    capsys.readouterr()
    assert main(guarded) == EXIT_BUDGET
    assert capsys.readouterr() == ("", message)
