import os
import random
import resource
import subprocess
import sys
import time
from itertools import permutations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactuspaths.census import connected_graphs, enumerate_cacti, random_cactus
from cactuspaths.counting import (
    BudgetExceededError,
    cactus_count_between,
    cactus_path_count,
    count_paths,
    count_paths_between,
    cycles_on_route,
    work_budget,
)
from cactuspaths.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    pseudo_friendship,
    pseudo_triangle_chain,
    star_graph,
)
from cactuspaths.formulas import (
    connected_graph_bounds,
    min_cactus_path_count,
    ptc_summation,
    tree_path_count,
)
from cactuspaths.graphs import Graph, validate_cactus


# ---------------------------------------------------------------- oracle values


@pytest.mark.parametrize(
    "g,expected",
    [
        (cycle_graph(5), 25),
        (path_graph(4), 10),
        (complete_graph(4), 34),
        (Graph.from_edges(1, []), 1),
        (complete_graph(5), 165),
    ],
)
def test_count_paths_examples(g, expected):
    assert count_paths(g) == expected


def test_count_paths_per_component():
    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    assert count_paths(two_triangles) == 18


def test_pair_counts():
    assert count_paths_between(path_graph(5), 0, 4) == 1
    assert count_paths_between(star_graph(5), 1, 2) == 1
    c6 = cycle_graph(6)
    for x in range(6):
        for y in range(x + 1, 6):
            assert count_paths_between(c6, x, y) == 2
    assert count_paths_between(complete_graph(4), 0, 1) == 5


def test_pair_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        count_paths_between(cycle_graph(4), 2, 2)


@pytest.mark.parametrize("x, y", [(0, 7), (7, 0), (-1, 2)])
def test_pair_rejects_out_of_range_endpoints(x, y):
    with pytest.raises(ValueError, match="vertex out of range"):
        count_paths_between(cycle_graph(5), x, y)


# ---------------------------------------------------------------- budget guard


def test_budget_guard_total():
    with pytest.raises(BudgetExceededError):
        count_paths(complete_graph(6), budget=10)


def test_budget_guard_pair():
    with pytest.raises(BudgetExceededError):
        count_paths_between(complete_graph(6), 0, 1, budget=5)


def test_budget_charges_each_start_vertex():
    # P_3: 3 start vertices and 6 extensions
    assert count_paths(path_graph(3), budget=9) == 6
    with pytest.raises(BudgetExceededError):
        count_paths(path_graph(3), budget=8)


def test_pair_budget_is_one_step_per_extension():
    # the smallest passing budget for every ordered pair, as charged by the
    # search over n-bit vertex masks that this one replaced
    p4 = {
        (0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 0): 3, (1, 2): 2, (1, 3): 3,
        (2, 0): 3, (2, 1): 2, (2, 3): 3, (3, 0): 3, (3, 1): 2, (3, 2): 1,
    }  # fmt: skip
    cases = (
        (path_graph(4), p4),
        (cycle_graph(5), dict.fromkeys(permutations(range(5), 2), 5)),
        (complete_graph(4), dict.fromkeys(permutations(range(4), 2), 9)),
    )
    for g, least in cases:
        for (x, y), b in least.items():
            assert count_paths_between(g, x, y, budget=b) >= 1
            if b > 1:
                with pytest.raises(BudgetExceededError):
                    count_paths_between(g, x, y, budget=b - 1)


def test_pair_budget_bounds_long_paths():
    # n-bit masks per vertex would take about 2.5 GB here; a 1 GiB address
    # space and a small budget must still end the search at once
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = (
        "import time\n"
        "from cactuspaths.counting import BudgetExceededError, count_paths_between\n"
        "from cactuspaths.families import path_graph\n"
        "g = path_graph(200_000)\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    count_paths_between(g, 0, 199_999, budget=5)\n"
        "except BudgetExceededError:\n"
        "    print(time.perf_counter() - start)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        preexec_fn=cap_memory,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0  # about 0.3 s, building the adjacency


def test_count_paths_is_linear_on_many_components():
    start = time.perf_counter()
    assert count_paths(Graph(200_000, frozenset())) == 200_000
    # about 0.3 s; masks indexed over the whole graph took 1.9 s on the same machine
    assert time.perf_counter() - start < 1.0


def test_budget_env_default(monkeypatch):
    monkeypatch.setenv("CACTUSPATHS_BUDGET", "7")
    assert work_budget() == 7
    with pytest.raises(BudgetExceededError):
        count_paths(complete_graph(5))
    monkeypatch.delenv("CACTUSPATHS_BUDGET")
    assert work_budget() == 10**9
    assert work_budget(123) == 123
    with pytest.raises(ValueError):
        work_budget(0)


# ---------------------------------------------------------------- cycles on the route


def test_cycles_on_route_examples():
    shared = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    p = validate_cactus(shared)
    assert cycles_on_route(p, 2, 0) == 1  # cut vertex to a triangle vertex
    assert cycles_on_route(p, 0, 3) == 2

    ptc = validate_cactus(pseudo_triangle_chain(9, 3))
    # end-cycle interiors: vertex 0 on the first cycle, vertex 7 on the last
    assert cycles_on_route(ptc, 0, 7) == 3

    tree = validate_cactus(path_graph(6))
    assert cycles_on_route(tree, 0, 5) == 0


def test_pair_count_cactus_examples():
    tree = validate_cactus(star_graph(6))
    assert cactus_count_between(tree, 1, 2) == 1
    ring = validate_cactus(cycle_graph(7))
    assert cactus_count_between(ring, 0, 3) == 2
    pfg = validate_cactus(pseudo_friendship(10, 3))
    assert cactus_count_between(pfg, 1, 3) == 4  # degree-2 rims of two triangles
    assert cactus_count_between(pfg, 1, 2) == 2  # same triangle
    assert cactus_count_between(pfg, 7, 8) == 1  # two pendants


def test_cactus_total_examples():
    for n in range(3, 13):
        assert cactus_path_count(validate_cactus(cycle_graph(n))) == n * n
    assert cactus_path_count(validate_cactus(pseudo_triangle_chain(7, 2))) == 67
    assert cactus_path_count(validate_cactus(pseudo_friendship(10, 3))) == 118
    assert cactus_path_count(validate_cactus(Graph.from_edges(1, []))) == 1


# ---------------------------------------------------------------- identities


def test_tree_identity():
    for n in range(1, 9):
        for g in enumerate_cacti(n, 0):
            assert count_paths(g) == comb(n + 1, 2)
    assert count_paths(path_graph(10)) == 55
    assert count_paths(star_graph(10)) == 55


def test_unicyclic_identity_small():
    from cactuspaths.formulas import unicyclic_path_count
    from cactuspaths.graphs import connected_components

    for n in range(3, 8):
        for g in enumerate_cacti(n, 1):
            p = validate_cactus(g)
            blk = next(p.tree.blocks[i] for i in p.cycle_blocks)
            stripped = g
            for e in blk.edges:
                stripped = stripped.remove_edge(*e)
            parts = [len(c) for c in connected_components(stripped)]
            assert count_paths(g) == unicyclic_path_count(n, parts)


def test_global_bounds_small():
    for n in range(1, 7):
        lo, hi = connected_graph_bounds(n)
        for g in connected_graphs(n):
            value = count_paths(g)
            assert lo <= value <= hi
            if value == lo:
                assert g.m == n - 1  # trees exactly
            if value == hi:
                assert g.m == comb(n, 2)  # the complete graph


def test_edge_removal_strictly_decreases_small():
    for n in range(2, 6):
        for g in connected_graphs(n):
            base = count_paths(g)
            for e in g.sorted_edges:
                assert count_paths(g.remove_edge(*e)) < base


# ---------------------------------------------------------------- oracle equivalence


def test_fast_counter_matches_oracle_on_census():
    for n in range(1, 8):
        for k in range((n - 1) // 2 + 1):
            for g in enumerate_cacti(n, k):
                assert cactus_path_count(validate_cactus(g)) == count_paths(g)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_fast_counter_matches_oracle_random(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 12)
    k = rng.randrange(0, (n - 1) // 2 + 1)
    g = random_cactus(n, k, rng)
    p = validate_cactus(g)
    assert cactus_path_count(p) == count_paths(g)
    x = rng.randrange(n)
    y = rng.randrange(n)
    if x != y:
        assert cactus_count_between(p, x, y) == count_paths_between(g, x, y)


@pytest.mark.parametrize("n,k", [(10_001, 50), (10_000, 1_000)])
def test_fast_counter_matches_closed_forms_at_large_n(n, k):
    # far beyond the oracle's reach: the closed forms are the judges here
    assert cactus_path_count(validate_cactus(pseudo_triangle_chain(n, k))) == ptc_summation(n, k)
    assert cactus_path_count(validate_cactus(pseudo_friendship(n, k))) == min_cactus_path_count(
        n, k
    )
    assert cactus_path_count(validate_cactus(path_graph(n))) == tree_path_count(n)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_tree_pairs_unique_random(seed):
    rng = random.Random(seed)
    g = random_cactus(rng.randrange(2, 10), 0, rng)
    x, y = rng.sample(range(g.n), 2)
    assert count_paths_between(g, x, y) == 1
    assert count_paths(g) == tree_path_count(g.n)
