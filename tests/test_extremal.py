import pytest

from cactuspaths import extremal
from cactuspaths.census import (
    _cactus_census,
    _code,
    cactus_key,
    canonical_key,
    clear_caches,
)
from cactuspaths.counting import count_paths
from cactuspaths.extremal import (
    SWEEP_COLUMNS,
    extremal_sweep,
    is_end_triangle_cactus,
    sweep_rows,
    verify_theorems,
)
from cactuspaths.families import (
    cycle_chain,
    cycle_graph,
    pseudo_friendship,
)
from cactuspaths.formulas import min_cactus_path_count, ptc_summation, tree_path_count
from cactuspaths.graphs import Graph, validate_cactus


def test_sweep_k1():
    rep = extremal_sweep(6, 1, "pn")
    assert rep.argmax_keys == {canonical_key(cycle_graph(6))}
    assert rep.max_value == 36
    tp = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    rep4 = extremal_sweep(4, 1, "pn")
    assert rep4.census_size == 2
    assert rep4.argmin_keys == {canonical_key(tp)}
    assert (rep4.min_value, rep4.max_value) == (15, 16)


def test_sweep_values_reproduced_by_oracle():
    rep = extremal_sweep(7, 2, "pn")
    assert rep.max_value == ptc_summation(7, 2) == 67
    assert rep.min_value == min_cactus_path_count(7, 2)
    for entry in (rep.argmin + rep.argmax)[:10]:
        value = count_paths(entry.graph)
        assert value in (rep.min_value, rep.max_value)


def test_sweep_trees_constant():
    rep = extremal_sweep(6, 0, "pn")
    assert rep.min_value == rep.max_value == tree_path_count(6)
    assert len(rep.argmin) == rep.census_size == 6


def test_sweep_rows_shape():
    rep = extremal_sweep(5, 2, "pn")
    rows = sweep_rows(rep)
    assert len(rows) == 1
    assert tuple(rows[0]) == SWEEP_COLUMNS
    assert rows[0]["is_argmin"] == rows[0]["is_argmax"] == "true"
    assert rows[0]["value"] == "33"


def test_sweep_rows_reads_values_from_the_report(monkeypatch):
    rep = extremal_sweep(7, 2, "subtrees")

    def no_evaluation(*args, **kwargs):
        raise AssertionError("sweep_rows evaluated an invariant")

    for name in ("_evaluate", "cactus_counters"):
        monkeypatch.setattr(extremal, name, no_evaluation)
    rows = sweep_rows(rep)
    assert [int(r["value"]) for r in rows] == list(rep.values)
    assert [r["canonical_key"] for r in rows] == [canonical_key(g).hex() for g in rep.census]


def test_verify_validates_each_class_once(monkeypatch):
    # each class is checked and evaluated from its rings hung from its
    # centre, once per run, and no class gets a block-cut tree
    hung, validated = [], []
    original = extremal.centred_rings

    def counted(n, rings):
        hung.append(_code(n, rings))
        return original(n, rings)

    monkeypatch.setattr(extremal, "centred_rings", counted)
    monkeypatch.setattr(extremal, "validate_cactus", validated.append)
    report = verify_theorems(9, 2)
    assert report.all_passed
    census = extremal_sweep(9, 2, "pn").census
    assert len(hung) == 2 * len(census)  # once in verify, once in the sweep
    assert sorted(hung) == sorted(2 * list(map(cactus_key, census)))
    assert not validated


def test_evaluate_refuses_rings_that_do_not_match_the_graph():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for rings in (((0, 1), (1, 2)), ((0, 1, 2),)):  # an edge short; three edges, one a cycle
        with pytest.raises(AssertionError, match="census rings do not match"):
            extremal._evaluate([(path, rings)], ("pn",))


def test_sweep_rejects_unknown_invariant():
    with pytest.raises(ValueError):
        extremal_sweep(6, 2, "girth")


def test_unknown_invariant_is_rejected_before_any_census_is_built():
    clear_caches()
    with pytest.raises(ValueError, match="unknown invariant 'bogus'"):
        extremal_sweep(12, 4, "bogus")
    with pytest.raises(ValueError, match="unknown invariant 'bogus'"):
        verify_theorems(12, 4, ("bogus",))
    assert not _cactus_census  # cleared in place, never rebound


def test_verify_counts_a_repeated_invariant_once():
    assert verify_theorems(7, 2, ("pn", "pn")) == verify_theorems(7, 2, ("pn",))


def test_end_triangle_predicate():
    assert is_end_triangle_cactus(validate_cactus(pseudo_friendship(10, 3)))
    assert is_end_triangle_cactus(validate_cactus(cycle_graph(3)))
    assert not is_end_triangle_cactus(validate_cactus(cycle_graph(4)))
    assert not is_end_triangle_cactus(validate_cactus(cycle_chain([3, 3, 3])))


def test_verify_small_all_pass():
    report = verify_theorems(6, 2)
    assert report.all_passed
    names = {c.name for c in report.checks}
    assert {
        "pn_max_is_ptc",
        "pn_min_is_end_triangle_family",
        "wiener_min_is_pfg",
        "wiener_max_is_bsg",
        "subtrees_max_is_pfg",
        "subtrees_min_is_bsg",
        "pn_max_differs_from_wiener_max",
        "pn_min_strictly_contains_wiener_min",
    } <= names


def test_verify_k1():
    report = verify_theorems(6, 1, invariants=("pn",))
    assert report.all_passed
    assert any(c.name == "pn_max_is_cycle" and c.passed for c in report.checks)


def test_verify_passes_on_every_class_up_to_ten_vertices():
    for n in range(1, 11):
        for k in range((n - 1) // 2 + 1):
            assert verify_theorems(n, k).all_passed, (n, k)


def test_cycle_ties_pfg_at_k1():
    # W(C_n) = W(PFG(n, 1)) only at n <= 5, and C_n and PFG(n, 1) have the
    # same subtree number only at n <= 4; at n = 3 the two are one graph
    ties = {(4, "wiener"): 8, (5, "wiener"): 15, (4, "subtrees"): 16}
    for n in (3, 4, 5, 6):
        checks = {c.name: c for c in verify_theorems(n, 1).checks}
        for invariant, name in (("wiener", "wiener_min_is_pfg"), ("subtrees", "subtrees_max_is_pfg")):
            rep = extremal_sweep(n, 1, invariant)
            if invariant == "wiener":
                keys, value = rep.argmin_keys, rep.min_value
            else:
                keys, value = rep.argmax_keys, rep.max_value
            expected = {canonical_key(pseudo_friendship(n, 1))}
            tie = (n, invariant) in ties
            if tie:
                expected.add(canonical_key(cycle_graph(n)))
                assert value == ties[n, invariant]
            assert keys == expected, (n, invariant)
            assert checks[name].passed
            assert checks[name].detail.endswith(f"; C_{n} ties PFG({n}, 1)") == tie


def test_verify_k0():
    report = verify_theorems(5, 0, invariants=("pn",))
    assert report.all_passed
    assert any(c.name == "pn_trees_constant" for c in report.checks)


def test_verify_smallest_class_unique_max():
    report = verify_theorems(5, 2, invariants=("pn",))
    assert report.all_passed


def test_verify_bsg_checks_skipped_when_undefined():
    report = verify_theorems(7, 3)  # n = 2k + 1, no BSG
    bsg_checks = [c for c in report.checks if "bsg" in c.name]
    assert bsg_checks and all(not c.applicable for c in bsg_checks)
    assert report.all_passed


def test_verify_json_shape():
    data = verify_theorems(5, 2, invariants=("pn",)).to_json()
    assert data["n"] == 5 and data["k"] == 2
    assert isinstance(data["all_passed"], bool)
    assert all({"name", "applicable", "passed", "detail"} == set(c) for c in data["checks"])
