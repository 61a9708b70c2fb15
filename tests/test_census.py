import os
import random
import subprocess
import sys
from itertools import combinations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactuspaths import census as census_module
from cactuspaths.census import (
    CensusSizeError,
    all_graphs,
    are_isomorphic,
    canonical_key,
    cactus_census_sizes,
    clear_caches,
    connected_graphs,
    count_automorphisms,
    enumerate_cacti,
    random_cactus,
)
from cactuspaths.families import (
    cycle_graph,
    end_triangle_cactus,
    pseudo_friendship,
    star_graph,
)
from cactuspaths.graphs import Graph, is_cactus, is_connected, validate_cactus


def test_key_invariant_under_relabeling():
    c5 = cycle_graph(5)
    shuffled = c5.relabel([3, 0, 4, 1, 2])
    assert canonical_key(c5) == canonical_key(shuffled)


def test_key_separates_non_isomorphic():
    c4 = cycle_graph(4)
    tp = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert canonical_key(c4) != canonical_key(tp)


def test_three_minimizer_shapes_are_distinct():
    figs = [
        end_triangle_cactus(4, [(0, 1), (0, 2), (0, 3)], [0, 0, 0]),
        end_triangle_cactus(4, [(0, 1), (1, 2), (2, 3)], [0, 1, 2]),
        end_triangle_cactus(4, [(0, 1), (1, 2), (2, 3)], [0, 0, 3]),
    ]
    keys = {canonical_key(g) for g in figs}
    assert len(keys) == 3


def test_key_agrees_with_isomorphism_exhaustively():
    graphs = all_graphs(5)
    for g, h in combinations(graphs, 2):
        assert canonical_key(g) != canonical_key(h)
        assert not are_isomorphic(g, h)
    for g in graphs:
        assert are_isomorphic(g, g)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_key_relabeling_property(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 11)
    k = rng.randrange(0, (n - 1) // 2 + 1)
    g = random_cactus(n, k, rng)
    perm = list(range(n))
    rng.shuffle(perm)
    assert canonical_key(g) == canonical_key(g.relabel(perm))


def test_labeled_count_identity():
    """sum over the census of n!/|Aut| must equal the labeled count
    2^C(n,2); exact equality rules out both key collisions and duplicate
    classes."""
    for n in range(1, 7):
        total = sum(factorial(n) // count_automorphisms(g) for g in all_graphs(n))
        assert total == 2 ** comb(n, 2)


def test_automorphism_examples():
    assert count_automorphisms(cycle_graph(5)) == 10
    assert count_automorphisms(star_graph(5)) == 24
    assert count_automorphisms(Graph.from_edges(1, [])) == 1


def test_enumerate_small():
    only = enumerate_cacti(3, 1)
    assert len(only) == 1 and canonical_key(only[0]) == canonical_key(cycle_graph(3))
    pair = enumerate_cacti(4, 1)
    assert {canonical_key(g) for g in pair} == {
        canonical_key(cycle_graph(4)),
        canonical_key(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])),
    }
    assert len(enumerate_cacti(5, 0)) == 3


def test_enumerate_matches_filtered_baseline():
    for n in range(1, 8):
        expect: dict[int, set[bytes]] = {}
        for g in connected_graphs(n):
            if is_cactus(g):
                expect.setdefault(g.m - g.n + 1, set()).add(canonical_key(g))
        for k in range((n - 1) // 2 + 1):
            mine = {canonical_key(g) for g in enumerate_cacti(n, k)}
            assert mine == expect.get(k, set())


def test_census_totals_grow_with_n():
    totals = [sum(cactus_census_sizes(n).values()) for n in range(1, 9)]
    assert totals == sorted(totals)
    assert totals[-1] > totals[0]


def test_enumerate_census_properties():
    for n in range(1, 9):
        for k in range((n - 1) // 2 + 1):
            census = enumerate_cacti(n, k)
            keys = [canonical_key(g) for g in census]
            assert keys == sorted(keys)  # deterministic order
            assert len(set(keys)) == len(keys)
            for g in census:
                assert g.n == n and validate_cactus(g).k == k


def test_enumerate_rejects_bad_domain():
    with pytest.raises(ValueError):
        enumerate_cacti(0, 0)
    with pytest.raises(ValueError):
        enumerate_cacti(4, 2)
    with pytest.raises(ValueError):
        enumerate_cacti(5, -1)


def test_census_guard():
    with pytest.raises(CensusSizeError):
        enumerate_cacti(8, 2, guard=3)


def test_census_after_clear_caches_equals_the_one_before():
    cacti, graphs = enumerate_cacti(8, 2), all_graphs(5)
    clear_caches()
    assert census_module._cactus_census == census_module._graph_census == {}
    assert enumerate_cacti(8, 2) == cacti
    assert all_graphs(5) == graphs
    assert census_module._cactus_census and census_module._graph_census


def test_census_guard_ignores_smaller_censuses():
    # a fresh interpreter starts with every census uncached; the guard bounds
    # each census that (10, 3) is grown from on its own (the largest has 65
    # classes), not their sum
    code = "from cactuspaths.census import enumerate_cacti; print(len(enumerate_cacti(10, 3, guard=400)))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "326\n"
    assert len(enumerate_cacti(10, 3, guard=400)) == 326
    with pytest.raises(CensusSizeError):
        enumerate_cacti(10, 3, guard=325)


def test_census_sizes_shape():
    sizes = cactus_census_sizes(7)
    assert sizes[0] == 11 and sizes[3] == 2
    assert set(sizes) == {0, 1, 2, 3}


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_cactus_is_valid(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 13)
    k = rng.randrange(0, (n - 1) // 2 + 1)
    g = random_cactus(n, k, rng)
    assert g.n == n
    assert is_connected(g)
    assert validate_cactus(g).k == k


def test_random_cactus_rejects_bad_domain():
    with pytest.raises(ValueError):
        random_cactus(4, 2, random.Random(0))


def test_distinct_vertex_counts_distinct_keys():
    assert canonical_key(cycle_graph(3)) != canonical_key(cycle_graph(4))
    assert canonical_key(Graph.from_edges(2, [])) != canonical_key(
        Graph.from_edges(2, [(0, 1)])
    )


def test_figure_graphs_all_in_argmin_family():
    census_keys = {canonical_key(g) for g in enumerate_cacti(10, 3)}
    figs = [
        pseudo_friendship(10, 3),
        end_triangle_cactus(4, [(0, 1), (1, 2), (2, 3)], [0, 1, 2]),
        end_triangle_cactus(4, [(0, 1), (1, 2), (2, 3)], [0, 0, 3]),
    ]
    assert all(canonical_key(g) in census_keys for g in figs)
