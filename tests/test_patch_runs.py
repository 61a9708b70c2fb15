"""graphs.patch_cactus decomposes the blocks of S, the smallest subtree of
the block-cut tree that holds every endpoint of the edited edges, in one
block walk, and no block outside S.  An edit at the tips of three arms hung
on a long cycle has every block in S, since each arm's blocks lie between
its tip and the cycle; an edit at one tip has one block in S."""

import pytest

from cactuspaths import graphs
from cactuspaths.graphs import Graph, patch_cactus, validate_cactus


def arms_on_a_cycle(length, m):
    """A cycle on 0..length-1 with an arm of m triangles, each hung from a
    non-cut vertex of the one before, at 0, length/3 and 2*length/3, and the
    edge between the two non-cut vertices of each arm's last triangle."""
    edges = [(i, (i + 1) % length) for i in range(length)]
    n = length
    last = []
    for a in (0, length // 3, 2 * length // 3):
        for _ in range(m):
            x, y = n, n + 1
            edges += [(a, x), (a, y), (x, y)]
            a, n = x, n + 2
        last.append((x, y))
    return Graph.from_edges(n, edges), tuple(last)


def walk_sizes(monkeypatch, g, removed):
    """The vertex count of each block walk that patching g's profile with
    the edges removed taken out makes, the patched profile, and the vertices
    of the blocks of S, from graphs._subtree."""
    after = Graph(g.n, g.edges.difference(removed))
    profile = validate_cactus(g)
    rooted, blocks = profile.tree.rooted, profile.tree.blocks
    _, region = graphs._subtree(rooted, [rooted.node[x] for e in removed for x in e])
    on_s = {x for i in region if i < len(blocks) for x in blocks[i].vertices}
    sizes = []
    original = graphs._blocks

    def counted(incident, disc, root):
        sizes.append(len(disc))
        return original(incident, disc, root)

    monkeypatch.setattr(graphs, "_blocks", counted)
    patched = patch_cactus(profile, after, removed, ())
    monkeypatch.undo()
    assert patched == validate_cactus(after)
    return sizes, on_s


@pytest.mark.parametrize("length, m", [(12, 3), (30, 3), (30, 10), (90, 10)])
def test_a_branching_untouched_run_is_not_decomposed(monkeypatch, length, m):
    """Opening the three last triangles puts the cycle and every arm in S:
    the one graph decomposed is S's blocks, here the whole cactus."""
    g, removed = arms_on_a_cycle(length, m)
    sizes, on_s = walk_sizes(monkeypatch, g, removed)
    assert sizes == [len(on_s)] and len(on_s) == g.n


@pytest.mark.parametrize("length, m", [(12, 3), (90, 10)])
def test_an_edit_at_one_tip_decomposes_its_triangle_alone(monkeypatch, length, m):
    """Opening one last triangle puts that triangle alone in S: the walk
    sees its three vertices, however long the cycle and the arms."""
    g, removed = arms_on_a_cycle(length, m)
    sizes, on_s = walk_sizes(monkeypatch, g, removed[:1])
    assert sizes == [len(on_s)] == [3]
