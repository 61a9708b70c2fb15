"""Large inputs are decomposed on the graph's own objects: parse_edge_list
shares one int per vertex label, and block_cut_tree and patch_cactus walk
and stack the graph's own edge tuples without building its adjacency.  The
walk's order then follows the edge set's iteration order, which the
returned tree must not show.  CactusProfile.write_json streams the report
from the tree and the graph without building it."""

import io
import json
import random
import tracemalloc

from cactuspaths.census import all_graphs, enumerate_cacti, random_cactus
from cactuspaths.counting import count_paths
from cactuspaths.families import cycle_chain, path_graph, pseudo_friendship
from cactuspaths.graphs import (
    Graph,
    block_cut_tree,
    is_connected,
    parse_edge_list,
    patch_cactus,
    to_edge_list_text,
    validate_cactus,
)
from cactuspaths.transforms import maximize_to_fixpoint, minimize_to_fixpoint


def insertion_orders(g, rng):
    """g's edge set built by inserting its edges sorted, reversed and
    shuffled: equal graphs whose edge sets may iterate differently."""
    edges = sorted(g.edges)
    shuffled = edges[:]
    rng.shuffle(shuffled)
    return [Graph(g.n, frozenset(order)) for order in (edges, edges[::-1], shuffled)]


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_block_cut_tree_does_not_depend_on_edge_iteration_order():
    rng = random.Random(22)
    graphs = [g for n in range(1, 7) for g in all_graphs(n) if is_connected(g)]
    for n in range(1, 10):
        graphs += [g for k in range((n - 1) // 2 + 1) for g in enumerate_cacti(n, k)]
    for _ in range(100):
        n = rng.randint(1, 60)
        graphs.append(relabelled(random_cactus(n, rng.randint(0, (n - 1) // 2), rng), rng))
    reordered = 0
    for g in graphs:
        variants = insertion_orders(g, rng)
        assert all(h == g for h in variants)
        trees = [block_cut_tree(h) for h in variants]
        assert all(t == trees[0] for t in trees)
        assert all(t.rooted == trees[0].rooted for t in trees)
        reordered += len({tuple(h.edges) for h in variants}) > 1
    # the check bites: many of these edge sets do iterate in another order
    assert reordered > len(graphs) // 4


def test_blocks_hold_the_graphs_own_edge_tuples():
    rng = random.Random(7)
    graphs = [pseudo_friendship(41, 12), cycle_chain([3, 5, 4, 3])]
    graphs += [relabelled(random_cactus(80, 20, rng), rng) for _ in range(10)]
    graphs += [g for g in all_graphs(5) if is_connected(g)]  # OTHER blocks too
    for g in graphs:
        own = {id(e) for e in g.edges}
        for b in block_cut_tree(g).blocks:
            assert all(id(e) in own for e in b.edges)


def test_patched_blocks_hold_the_new_graphs_own_edge_tuples():
    """A patch decomposes its region on the new graph's own labels and edge
    tuples, so every block it makes holds them, as validation's do."""
    rng = random.Random(24)
    steps = 0
    for _ in range(10):
        g = relabelled(random_cactus(60, 15, rng), rng)
        for driver in (maximize_to_fixpoint, minimize_to_fixpoint):
            for step in driver(g)[1]:
                patched = patch_cactus(
                    validate_cactus(step.before), step.after, step.removed, step.added
                )
                own = {id(e) for e in step.after.edges}
                for b in patched.tree.blocks:
                    assert all(id(e) in own for e in b.edges)
                steps += 1
    assert steps > 500


def test_validation_and_patching_build_no_adjacency():
    g = path_graph(6)
    profile = validate_cactus(g)
    assert "adjacency" not in g.__dict__
    after = Graph(g.n, g.edges - {(4, 5)} | {(0, 2), (0, 5)})
    patched = patch_cactus(profile, after, ((4, 5),), ((0, 2), (0, 5)))
    assert patched == validate_cactus(after)
    assert "adjacency" not in g.__dict__ and "adjacency" not in after.__dict__


def test_parsed_labels_are_one_object_each():
    rng = random.Random(3)
    g = relabelled(random_cactus(500, 120, rng), rng)
    parsed = parse_edge_list(to_edge_list_text(g))
    assert parsed == g
    first = {}
    for e in parsed.edges:
        for x in e:
            assert first.setdefault(x, x) is x


def test_count_paths_allocates_nothing_per_isolated_vertex():
    """The million vertices without edges are counted, not stored."""
    g = Graph(10**6, frozenset({(0, 1)}))
    tracemalloc.start()
    try:
        assert count_paths(g) == 10**6 + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_profile_writer_holds_no_report():
    """The report of a 20,001-vertex triangle chain is 1.2 MB of text, and
    as lists and dicts before json.dumps it peaked at 10.6 MiB; the writer
    holds one chunk of it at a time."""
    profile = validate_cactus(cycle_chain([3] * 10_000))
    profile.graph.sorted_edges  # the graph's own cache, not the report's
    written = 0

    def discard(text):
        nonlocal written
        written += len(text)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        profile.write_json(discard)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert written > 10**6
    assert peak < 2**20


def test_profile_writer_matches_the_report_as_lists_and_dicts():
    """Across chunk boundaries: every list here but k's has more than a
    chunk's items on some graph."""
    rng = random.Random(23)
    graphs = [path_graph(3000), cycle_chain([3] * 1500), pseudo_friendship(2201, 1100)]
    for g in [*graphs, relabelled(random_cactus(4000, 900, rng), rng)]:
        p = validate_cactus(g)
        report = {
            "graph": {"n": g.n, "edges": [list(e) for e in g.sorted_edges]},
            "tree": {
                "blocks": [{"kind": b.kind, "vertices": list(b.vertices)} for b in p.tree.blocks],
                "cut_vertices": sorted(p.tree.cut_vertices),
            },
            "k": p.k,
            "bridges": [list(e) for e in p.bridges],
            "cycles": [list(p.tree.blocks[i].vertices) for i in p.cycle_blocks],
            "end_cycles": list(p.end_cycles),
            "interior_cycles": list(p.interior_cycles),
            "intersection_vertices": sorted(p.intersection_vertices),
        }
        out = io.StringIO()
        p.write_json(out.write)
        assert out.getvalue() == json.dumps(report, sort_keys=True) + "\n"
