"""The block-cut-tree key that deduplicates the cactus census, against the
generic canonical key, and the census's coding of each candidate from its
parent's peel, against the key's code."""

import random
from itertools import combinations

import pytest

from cactuspaths import census as census_module
from cactuspaths.census import cactus_key, canonical_key, enumerate_cacti, random_cactus
from cactuspaths.families import complete_graph, cycle_graph, path_graph
from cactuspaths.graphs import Graph, NotCactusError, validate_cactus


def classes(max_n):
    for n in range(1, max_n + 1):
        for k in range((n - 1) // 2 + 1):
            yield n, k, enumerate_cacti(n, k)


def test_census_keys_are_distinct_and_match_the_rings():
    keys = set()
    for n, k, census in classes(10):
        rows = census_module.census_rows(n, k)
        assert len(rows) == len(census)
        for row in rows:
            g, r = census_module.row_graph(n, row), census_module.row_rings(n, row)
            key = cactus_key(g)
            assert census_module._code(n, r) == key, g
            keys.add(key)
    assert len(keys) == sum(len(c) for _, _, c in classes(10))


def random_cacti(seed, count, max_n):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, max_n + 1)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        yield g, g.relabel(rng.sample(range(n), n))


def test_key_is_invariant_under_relabeling():
    for g, h in random_cacti(2718, 300, 40):
        assert cactus_key(g) == cactus_key(h), g


def test_key_splits_like_the_canonical_key():
    # small n, so that many pairs are isomorphic
    graphs = [h for _, h in random_cacti(1414, 250, 9)]
    graphs += [h for _, h in random_cacti(1732, 100, 40)]
    equal = 0
    for g, h in combinations(graphs, 2):
        if (g.n, g.m) != (h.n, h.m):
            continue
        same = canonical_key(g) == canonical_key(h)
        assert (cactus_key(g) == cactus_key(h)) == same, (g, h)
        equal += same
    assert equal > 100


def test_attach_codes_every_census_candidate_as_code_does():
    # every parent and attachment that grows the censuses with n <= 9
    checked = 0
    for n in range(1, 9):
        for k in range((n - 1) // 2 + 1):
            for row in census_module.census_rows(n, k):
                rings = census_module.row_rings(n, row)
                state = census_module._peel(n, rings)
                for length in range(2, 9 - n + 2):
                    for v in range(n):
                        child = rings + ((v, *range(n, n + length - 1)),)
                        code = census_module._code(n + length - 1, child)
                        assert census_module._attach(state, rings, v, length) == code, (child, v)
                        checked += 1
    assert checked > 3000


def test_attach_agrees_with_code_on_random_cacti():
    rng = random.Random(4242)
    single = onto_vertex = onto_block = 0
    for _, h in random_cacti(9001, 2000, 90):
        rings = tuple(b.vertices for b in validate_cactus(h).tree.blocks)
        v = rng.randrange(h.n)
        length = rng.choice((2, 2, 3, 4, 5))  # 2: a pendant edge
        n = h.n + length - 1
        state = census_module._peel(h.n, rings)
        child = census_module._peel(n, rings + ((v, *range(h.n, n)),))
        assert census_module._attach(state, rings, v, length) == child.code, (h, v, length)
        single += len(rings) == 1
        # the new ring comes last, so the old blocks keep their indices
        onto_vertex += child.cv >= 0 and child.cv != state.cv
        onto_block += child.cb >= 0 and child.cb != state.cb
    assert min(single, onto_vertex, onto_block) > 20, (single, onto_vertex, onto_block)


def test_key_examples():
    assert cactus_key(Graph(1, frozenset())) == "()"
    assert cactus_key(path_graph(2)) == "(()())"
    assert cactus_key(cycle_graph(5)) == "(" + "()" * 5 + ")"
    # a path with a cut-vertex centre, and one with a bridge centre
    assert cactus_key(path_graph(3)) == "[(())(())]"
    assert cactus_key(path_graph(4)) == "([(())][(())])"


def test_empty_graph_and_single_vertex_have_distinct_keys():
    k0, k1 = Graph(0, frozenset()), Graph(1, frozenset())
    assert canonical_key(k0) != canonical_key(k1)
    assert cactus_key(k0) == ""
    assert cactus_key(k1) == "()"


def test_non_cactus_is_refused():
    with pytest.raises(NotCactusError):
        cactus_key(complete_graph(4))
