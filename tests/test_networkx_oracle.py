"""A second, independent oracle: networkx, where it is installed.

networkx is not a dependency of the package; this module is skipped without
it.  It checks the block-cut tree, the Wiener index (brute force and cactus
pass), both canonical keys and the path enumerators against networkx's own
implementations.
"""

import random
from itertools import combinations

import pytest

from cactuspaths.census import (
    all_graphs,
    cactus_key,
    canonical_key,
    connected_graphs,
    enumerate_cacti,
    random_cactus,
)
from cactuspaths.counting import count_paths, count_paths_between
from cactuspaths.graphs import (
    BRIDGE,
    OTHER,
    DisconnectedError,
    Graph,
    block_cut_tree,
    validate_cactus,
)
from cactuspaths.indices import cactus_wiener, wiener

nx = pytest.importorskip("networkx")


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def census(max_n):
    for n in range(1, max_n + 1):
        for k in range((n - 1) // 2 + 1):
            yield from enumerate_cacti(n, k)


def test_wiener_agrees_with_networkx():
    rng = random.Random(1947)
    randoms = []
    for _ in range(60):
        n = rng.randrange(1, 201)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        randoms.append(g.relabel(rng.sample(range(n), n)))
    for g in [*census(8), *randoms]:
        expected = int(nx.wiener_index(to_nx(g)))
        assert wiener(g) == expected, g
        assert cactus_wiener(validate_cactus(g)) == expected, g


def test_canonical_key_agrees_with_networkx_isomorphism():
    rng = random.Random(1998)
    graphs = list(census(7))
    graphs += [g.relabel(rng.sample(range(g.n), g.n)) for g in graphs]
    # each graph with its canonical key and cactus key, each computed once
    keyed = [(g, canonical_key(g), cactus_key(g)) for g in graphs]
    for (g, gk, gc), (h, hk, hc) in combinations(keyed, 2):
        isomorphic = nx.is_isomorphic(to_nx(g), to_nx(h))
        assert (gk == hk) == isomorphic, (g, h)
        assert (gc == hc) == isomorphic, (g, h)


def test_block_cut_tree_agrees_with_networkx():
    rng = random.Random(1973)
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    for _ in range(100):
        n = rng.randrange(1, 301)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        graphs.append(g.relabel(rng.sample(range(n), n)))
    for _ in range(50):  # non-cacti deep enough for low points to climb far
        n = rng.randrange(10, 301)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        edges = set(g.relabel(rng.sample(range(n), n)).edges)
        for _ in range(rng.randint(1, 5)):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        graphs.append(Graph(n, frozenset(edges)))
    connected = other = 0
    for g in graphs:
        h = to_nx(g)
        if not nx.is_connected(h):
            with pytest.raises(DisconnectedError):
                block_cut_tree(g)
            continue
        connected += 1
        tree = block_cut_tree(g)
        expected = sorted(sorted(tuple(sorted(e)) for e in comp) for comp in nx.biconnected_component_edges(h))
        assert sorted(list(b.edges) for b in tree.blocks) == expected, g
        assert tree.cut_vertices == set(nx.articulation_points(h)), g
        bridges = sorted(b.edges[0] for b in tree.blocks if b.kind == BRIDGE)
        assert bridges == sorted(tuple(sorted(e)) for e in nx.bridges(h)), g
        for block, cuts in zip(tree.blocks, tree.incidence):
            assert cuts == tuple(sorted(tree.cut_vertices & block.vertex_set)), g
        other += g.n > 7 and any(b.kind == OTHER for b in tree.blocks)
    assert connected > 1000
    assert other > 40
    with pytest.raises(DisconnectedError):
        block_cut_tree(Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))


def test_path_counts_agree_with_networkx_simple_paths():
    rng = random.Random(1736)
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    for _ in range(20):
        n = rng.randrange(1, 13)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        graphs.append(g.relabel(rng.sample(range(n), n)))
    for g in graphs:
        h = to_nx(g)
        total = g.n
        for x, y in combinations(range(g.n), 2):
            expected = sum(1 for _ in nx.all_simple_paths(h, x, y))
            assert count_paths_between(g, x, y) == count_paths_between(g, y, x) == expected, (g, x, y)
            total += expected
        assert count_paths(g) == total, g
