import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactuspaths.census import connected_graphs, enumerate_cacti, random_cactus
from cactuspaths.families import (
    cycle_chain,
    cycle_graph,
    path_graph,
    pseudo_friendship,
    pseudo_triangle_chain,
)
from cactuspaths.graphs import (
    CYCLE,
    DisconnectedError,
    DuplicateEdgeError,
    Graph,
    MalformedLineError,
    NotCactusError,
    SelfLoopError,
    VertexRangeError,
    block_cut_tree,
    find_bridges,
    is_cactus,
    is_cactus_chain,
    is_connected,
    parse_edge_list,
    to_edge_list_text,
    validate_cactus,
)


def complete(n):
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def blocks_at(tree):
    """The ids of the blocks on each cut vertex, read off tree.incidence."""
    at = {v: [] for v in tree.cut_vertices}
    for i, cuts in enumerate(tree.incidence):
        for v in cuts:
            at[v].append(i)
    return {v: tuple(ids) for v, ids in at.items()}


# ---------------------------------------------------------------- parsing


def test_parse_triangle():
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2")
    assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_parse_single_vertex():
    g = parse_edge_list("1 0")
    assert g.n == 1 and not g.edges


def test_parse_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        parse_edge_list("3 2\n0 1\n0 1")
    with pytest.raises(DuplicateEdgeError):
        parse_edge_list("3 2\n0 1\n1 0")


def test_parse_self_loop():
    with pytest.raises(SelfLoopError):
        parse_edge_list("3 1\n2 2")


def test_parse_out_of_range():
    with pytest.raises(VertexRangeError):
        parse_edge_list("3 1\n0 3")
    with pytest.raises(VertexRangeError):
        parse_edge_list("3 1\n0 -1")


@pytest.mark.parametrize(
    "text",
    [
        "", "3", "3 1 7", "a b", "3 1\n0", "3 1\n0 x", "3 2\n0 1", "3 0\n0 1",
        # a label is an optional '-' and ASCII decimal digits, not any
        # integer literal that int() reads
        "11 1\n0 1_0", "3 1\n0 +1", "3 1\n0 \u0661", "3 1\n0 --1", "3 1\n0 -",
        "+3 1\n0 1", "3 +1\n0 1", "3_0 1\n0 1", "\u0663 1\n0 1",
    ],
)
def test_parse_malformed(text):
    with pytest.raises(MalformedLineError):
        parse_edge_list(text)


def test_edge_list_round_trip():
    g = pseudo_friendship(10, 3)
    assert parse_edge_list(to_edge_list_text(g)) == g


def random_graphs(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            lambda edges: Graph(n, frozenset(edges)),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] != e[1])
                .map(lambda e: (min(e), max(e)))
            ),
        )
    )


@given(random_graphs())
def test_round_trip_property(g):
    assert parse_edge_list(to_edge_list_text(g)) == g


def test_relabel_needs_a_permutation():
    g = Graph.from_edges(3, [(0, 2)])
    assert g.relabel([2, 0, 1]) == Graph.from_edges(3, [(2, 1)])
    # a repeated label, one too many and one too few
    for perm in ([1, 1, 2], [0, 1, 2, 3], [0, 1]):
        with pytest.raises(ValueError, match="permutation"):
            g.relabel(perm)


# ---------------------------------------------------------------- structure


def test_is_connected():
    assert is_connected(cycle_graph(3))
    assert is_connected(Graph.from_edges(1, []))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_bridges_path_and_cycle():
    assert find_bridges(path_graph(4)) == [(0, 1), (1, 2), (2, 3)]
    assert find_bridges(cycle_graph(5)) == []


def test_bridges_triangle_pendant():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert find_bridges(g) == [(2, 3)]


def test_bridges_reject_disconnected():
    with pytest.raises(DisconnectedError):
        find_bridges(Graph.from_edges(4, [(0, 1), (2, 3)]))


def bridges_by_removal(g):
    return [e for e in g.sorted_edges if not is_connected(g.remove_edge(*e))]


def test_bridges_match_removal_definition_small_census():
    for n in range(2, 7):
        for g in connected_graphs(n):
            assert find_bridges(g) == bridges_by_removal(g)


def test_bridges_match_removal_definition_cacti():
    for n in range(2, 9):
        for k in range((n - 1) // 2 + 1):
            for g in enumerate_cacti(n, k):
                assert find_bridges(g) == bridges_by_removal(g)


# ---------------------------------------------------------------- block-cut tree


def test_bct_triangle():
    t = block_cut_tree(cycle_graph(3))
    assert len(t.blocks) == 1 and t.blocks[0].kind == CYCLE
    assert not t.cut_vertices


def test_bct_two_triangles_sharing_vertex():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    t = block_cut_tree(g)
    assert [b.kind for b in t.blocks] == [CYCLE, CYCLE]
    assert t.cut_vertices == frozenset({2})


def test_bct_ptc93():
    t = block_cut_tree(pseudo_triangle_chain(9, 3))
    kinds = [b.kind for b in t.blocks]
    assert kinds.count(CYCLE) == 3 and len(t.cut_vertices) == 2
    # the incidence structure is a path: both cuts lie on exactly two blocks
    assert sorted(len(ids) for ids in blocks_at(t).values()) == [2, 2]


def test_bct_edge_partition_and_tree_shape():
    for g in [
        pseudo_friendship(10, 3),
        cycle_chain([3, 4, 3]),
        path_graph(6),
        complete(4),
        Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 3), (3, 6)]),
    ]:
        t = block_cut_tree(g)
        covered = [e for b in t.blocks for e in b.edges]
        assert sorted(covered) == list(g.sorted_edges)
        # bipartite incidence graph is connected and acyclic
        nodes = len(t.blocks) + len(t.cut_vertices)
        links = sum(len(c) for c in t.incidence)
        assert links == nodes - 1 or (nodes <= 1 and links == 0)
        at = blocks_at(t)
        seen = set()
        stack = [0] if t.blocks else []
        while stack:
            b = stack.pop()
            if ("b", b) in seen:
                continue
            seen.add(("b", b))
            for v in t.incidence[b]:
                if ("v", v) not in seen:
                    seen.add(("v", v))
                    stack.extend(at[v])
        assert len(seen) == nodes
        # cut vertices are exactly the vertices on two or more blocks
        multi = {
            v
            for v in range(g.n)
            if sum(1 for b in t.blocks if v in b.vertex_set) >= 2
        }
        assert multi == set(t.cut_vertices)


def test_bct_rooted_form():
    census = [g for n in range(2, 8) for k in range((n - 1) // 2 + 1) for g in enumerate_cacti(n, k)]
    # reversed labels, so that blocks hang from vertices other than their least
    reversed_labels = [g.relabel(range(g.n - 1, -1, -1)) for g in census]
    for g in [cycle_chain([3, 4, 3]), path_graph(6), pseudo_friendship(10, 3)] + census + reversed_labels:
        t = block_cut_tree(g)
        r = t.rooted
        cuts = sorted(t.cut_vertices)
        assert r.cuts == tuple(cuts)
        size = len(t.blocks) + len(cuts)
        assert r.order[0] == 0 and r.parent[0] == -1 and sorted(r.order) == list(range(size))
        position = {x: i for i, x in enumerate(r.order)}
        for x in r.order[1:]:
            p = r.parent[x]
            assert position[p] < position[x] and r.depth[x] == r.depth[p] + 1
            block, cut = (x, p) if x < len(t.blocks) else (p, x)
            assert cuts[cut - len(t.blocks)] in t.incidence[block]
        assert len(r.node) == g.n
        # the blocks, children before parents, each rotated to start at the
        # cut vertex it hangs from, the root block at vertex 0
        hung = []
        for x in reversed(r.order):
            if x < len(t.blocks):
                ring = t.blocks[x].vertices
                i = ring.index(cuts[r.parent[x] - len(t.blocks)] if x else 0)
                hung.append(ring[i:] + ring[:i])
        assert r.rings == tuple(hung)
        for v in range(g.n):
            x = r.node[v]
            assert (cuts[x - len(t.blocks)] == v) if v in t.cut_vertices else v in t.blocks[x].vertex_set


def test_bct_k4_is_one_other_block():
    t = block_cut_tree(complete(4))
    assert len(t.blocks) == 1 and t.blocks[0].kind == "other"


# ---------------------------------------------------------------- cactus profiles


def test_validate_cactus_rejects_k4():
    with pytest.raises(NotCactusError):
        validate_cactus(complete(4))


def test_validate_cactus_tree():
    p = validate_cactus(path_graph(5))
    assert p.k == 0 and not p.end_cycles and len(p.bridges) == 4


def test_validate_cactus_empty_graph():
    empty = Graph(0, frozenset())
    assert is_connected(empty) and is_cactus(empty)
    p = validate_cactus(empty)
    assert p.k == 0 and not p.tree.blocks and not p.bridges


def test_validate_cactus_pfg():
    p = validate_cactus(pseudo_friendship(10, 3))
    assert p.k == 3
    assert len(p.end_cycles) == 3 and not p.interior_cycles
    assert p.intersection_vertices == frozenset({0})


def test_cycle_rank_matches_edge_count():
    for n in range(1, 8):
        for k in range((n - 1) // 2 + 1):
            for g in enumerate_cacti(n, k):
                p = validate_cactus(g)
                assert p.k == g.m - g.n + 1 == k


def test_profile_json_shape():
    p = validate_cactus(pseudo_triangle_chain(9, 3))
    data = p.to_json()
    assert data["k"] == 3 and data["intersection_vertices"] == [3, 5]
    assert len(data["cycles"]) == 3 and data["bridges"] == []
    assert data["graph"]["n"] == 9
    assert data["tree"]["cut_vertices"] == [3, 5]
    assert all(b["kind"] == "cycle" for b in data["tree"]["blocks"])


def _disconnects(g, u, v):
    """True iff u cannot reach v once the edge uv is taken out."""
    seen = {u, v}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in g.adjacency[x]:
            if y == v and x != u:
                return False
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return True


def test_profile_matches_the_degree_definitions():
    """The profile reads every class off the block-cut tree; here each is
    derived from the graph as the paper defines it instead: an end cycle has
    at most one vertex of degree > 2, an intersection vertex lies on two or
    more cycles, k = m - n + 1, and a bridge is an edge whose removal
    disconnects the graph."""
    rng = random.Random(8)
    graphs = [g for n in range(1, 11) for k in range((n - 1) // 2 + 1) for g in enumerate_cacti(n, k)]
    for _ in range(300):
        n = rng.randrange(1, 301)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        graphs.append(g.relabel(rng.sample(range(n), n)))
    for g in graphs:
        p = validate_cactus(g)
        cycles = [p.tree.blocks[i].vertices for i in p.cycle_blocks]
        busy = [sum(g.degree(x) > 2 for x in ring) for ring in cycles]
        assert p.end_cycles == tuple(i for i, b in zip(p.cycle_blocks, busy) if b <= 1)
        assert p.interior_cycles == tuple(i for i, b in zip(p.cycle_blocks, busy) if b > 1)
        on_cycles = Counter(x for ring in cycles for x in ring)
        assert p.intersection_vertices == {x for x, c in on_cycles.items() if c >= 2}
        assert p.k == len(cycles) == g.m - g.n + 1
        assert p.bridges == tuple(e for e in g.sorted_edges if _disconnects(g, *e))


# ---------------------------------------------------------------- cycle-incidence view
# On a bridgeless cactus the block-cut tree is the cycle-incidence tree: its
# blocks are the cycles and its cut vertices the intersection vertices.


def test_cig_single_cycle():
    p = validate_cactus(cycle_graph(6))
    assert len(p.tree.blocks) == 1 and not p.tree.cut_vertices
    assert p.tree.incidence == ((),) and is_cactus_chain(p)


def test_cig_ptc93_is_path():
    p = validate_cactus(pseudo_triangle_chain(9, 3))
    tree = p.tree
    assert len(tree.blocks) == 3 and tree.cut_vertices == p.intersection_vertices == {3, 5}
    assert is_cactus_chain(p)
    assert sorted(len(c) for c in tree.incidence) == [1, 1, 2]  # two leaf cycles
    assert all(len(ids) == 2 for ids in blocks_at(tree).values())


def test_cig_three_triangles_star():
    p = validate_cactus(pseudo_friendship(7, 3))
    assert p.tree.cut_vertices == {0}
    assert blocks_at(p.tree)[0] == (0, 1, 2)
    assert not is_cactus_chain(p)


def test_cig_leaves_are_cycles_census():
    for n in range(3, 9):
        for k in range(1, (n - 1) // 2 + 1):
            for g in enumerate_cacti(n, k):
                p = validate_cactus(g)
                if p.bridges:
                    continue
                tree = p.tree
                assert all(b.kind == CYCLE for b in tree.blocks)
                assert tree.cut_vertices == p.intersection_vertices
                assert all(len(ids) >= 2 for ids in blocks_at(tree).values())


def test_chain_predicate_matches_path_definition():
    chain = validate_cactus(cycle_chain([4, 3, 5]))
    assert is_cactus_chain(chain)
    star = validate_cactus(pseudo_friendship(7, 3))
    assert not is_cactus_chain(star)
    bridged = validate_cactus(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    assert not is_cactus_chain(bridged)


def is_cycle_chain(p):
    """The definition: the cycles can be ordered so that consecutive cycles
    share exactly one vertex and all other pairs are disjoint."""
    rings = [p.tree.blocks[i].vertex_set for i in p.cycle_blocks]
    for order in permutations(rings):
        if all(
            len(a & b) == (1 if j == i + 1 else 0)
            for i, a in enumerate(order)
            for j, b in enumerate(order)
            if i < j
        ):
            return True
    return False


def test_chain_predicate_matches_the_definition_on_the_census():
    chains = 0
    for n in range(1, 11):
        for k in range((n - 1) // 2 + 1):
            for g in enumerate_cacti(n, k):
                p = validate_cactus(g)
                expected = not p.bridges and is_cycle_chain(p)
                assert is_cactus_chain(p) == expected, g
                chains += expected
    assert chains == 1 + 8 + 12 + 21 + 4  # K_1, then the chains with k = 1..4


# ---------------------------------------------------------------- immutability


def test_graph_edit_returns_new_value():
    g = cycle_graph(4)
    h = g.remove_edge(0, 1)
    assert g.m == 4 and h.m == 3 and g != h
    assert h.add_edge(0, 1) == g


@given(random_graphs(7))
@settings(max_examples=60)
def test_bct_partitions_edges_when_connected(g):
    if not is_connected(g):
        return
    t = block_cut_tree(g)
    assert sorted(e for b in t.blocks for e in b.edges) == list(g.sorted_edges)
