import random
from math import comb

import pytest

from cactuspaths.census import connected_graphs, enumerate_cacti, random_cactus
from cactuspaths.counting import BudgetExceededError
from cactuspaths.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    pseudo_friendship,
)
from cactuspaths.formulas import pfg_subtree_count, pfg_wiener
from cactuspaths.graphs import DisconnectedError, Graph, validate_cactus
from cactuspaths.indices import (
    cactus_subtree_count,
    cactus_wiener,
    invariant_triple,
    subtree_count,
    wiener,
)


def test_wiener_examples():
    assert wiener(path_graph(3)) == 4
    assert wiener(cycle_graph(5)) == 15
    assert wiener(Graph.from_edges(1, [])) == 0
    assert wiener(complete_graph(5)) == 10


def test_wiener_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        wiener(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_subtree_examples():
    assert subtree_count(path_graph(3)) == 6
    assert subtree_count(cycle_graph(3)) == 9
    assert subtree_count(Graph.from_edges(1, [])) == 1
    # every subgraph tree of the 5-cycle: 5 vertices plus 5 paths of each
    # length 1..4 (the spanning paths drop one cycle edge each)
    assert subtree_count(cycle_graph(5)) == 25


def test_subtree_paths_are_segments():
    for n in range(1, 11):
        assert subtree_count(path_graph(n)) == comb(n + 1, 2)


def test_subtree_works_per_component():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    assert subtree_count(g) == 3 + 6


def test_subtree_budget_guard():
    with pytest.raises(BudgetExceededError):
        subtree_count(complete_graph(7), budget=20)


def test_pfg_indices_match_hand_formulas():
    for n, k in [(3, 1), (5, 2), (7, 3), (8, 2), (9, 3), (10, 3), (11, 4)]:
        g = pseudo_friendship(n, k)
        assert wiener(g) == pfg_wiener(n, k)
        assert subtree_count(g) == pfg_subtree_count(n, k)
    for n, k in [(2, 1), (5, 0)]:  # outside PFG's domain, as for the family
        for form in (pfg_wiener, pfg_subtree_count, pseudo_friendship):
            with pytest.raises(ValueError):
                form(n, k)


def census(max_n):
    for n in range(1, max_n + 1):
        for k in range((n - 1) // 2 + 1):
            yield from enumerate_cacti(n, k)


def test_cactus_subtree_count_matches_oracle_on_census():
    for g in census(9):
        assert cactus_subtree_count(validate_cactus(g)) == subtree_count(g), g


def test_cactus_wiener_matches_oracle_on_census():
    for g in census(10):
        assert cactus_wiener(validate_cactus(g)) == wiener(g), g


def test_cactus_indices_match_oracles_on_random_cacti():
    # relabeled: random_cactus (like the census) gives each block its
    # smallest vertex as the cut vertex towards vertex 0
    rng = random.Random(2005)
    for _ in range(200):
        n = rng.randrange(1, 60)
        perm = rng.sample(range(n), n)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng).relabel(perm)
        profile = validate_cactus(g)
        assert cactus_wiener(profile) == wiener(g), g
        if n < 15:
            assert cactus_subtree_count(profile) == subtree_count(g), g


def test_cactus_indices_of_the_empty_graph_and_k1():
    for n in (0, 1):
        profile = validate_cactus(Graph(n, frozenset()))
        assert cactus_subtree_count(profile) == subtree_count(profile.graph) == n
        assert cactus_wiener(profile) == 0


def test_cactus_indices_closed_forms_at_large_n():
    # where the oracles cannot run: cycles, paths and PFG at n near 10^4
    for n in (10000, 10001):
        profile = validate_cactus(cycle_graph(n))
        assert cactus_subtree_count(profile) == n * n
        assert cactus_wiener(profile) == (n**3 if n % 2 == 0 else n**3 - n) // 8
        profile = validate_cactus(path_graph(n))
        assert cactus_subtree_count(profile) == comb(n + 1, 2)
        assert cactus_wiener(profile) == n * (n * n - 1) // 6
    for n, k in [(10001, 5000), (10000, 3000)]:
        profile = validate_cactus(pseudo_friendship(n, k))
        assert cactus_subtree_count(profile) == pfg_subtree_count(n, k)
        assert cactus_wiener(profile) == pfg_wiener(n, k)
        t = invariant_triple(profile.graph)  # takes the linear path on a cactus
        assert (t.wiener, t.subtrees) == (pfg_wiener(n, k), pfg_subtree_count(n, k))


def test_adding_an_edge_strictly_decreases_wiener():
    for n in range(2, 8):
        for g in connected_graphs(n):
            base = wiener(g)
            for u in range(n):
                for v in range(u + 1, n):
                    if not g.has_edge(u, v):
                        assert wiener(g.add_edge(u, v)) < base


def test_invariant_triple():
    t = invariant_triple(pseudo_friendship(10, 3))
    assert (t.pn, t.wiener, t.subtrees) == (118, 78, 1740)
    c5 = invariant_triple(cycle_graph(5))
    assert (c5.pn, c5.wiener, c5.subtrees) == (25, 15, 25)
    k4 = invariant_triple(complete_graph(4))
    assert k4.pn == 34  # falls back to brute force off the cactus class
    with pytest.raises(DisconnectedError):
        invariant_triple(Graph.from_edges(3, [(0, 1)]))


def test_triple_json_uses_decimal_strings():
    data = invariant_triple(path_graph(4)).to_json()
    assert data == {"pn": "10", "wiener": "10", "subtrees": "10"}
