"""graphs.patch_cactus stands each connected run of untouched blocks in by
one star, also where the run branches: an edit at the tips of three arms
hung on a long cycle decomposes the edited blocks and one star centre,
however long the cycle and the arms."""

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


@pytest.mark.parametrize("length, m", [(12, 3), (30, 3), (30, 10), (90, 10)])
def test_a_branching_untouched_run_is_not_decomposed(monkeypatch, length, m):
    """Opening the three last triangles leaves the cycle and the other
    triangles untouched, joined at the cycle into one run with three rim
    vertices: the one graph decomposed is the three edited triangles plus
    the centre of one star."""
    g, removed = arms_on_a_cycle(length, m)
    after = Graph(g.n, g.edges.difference(removed))
    profile = validate_cactus(g)
    sizes = []
    original = graphs._blocks

    def counted(incident, disc, root):
        sizes.append(len(disc))
        return original(incident, disc, root)

    monkeypatch.setattr(graphs, "_blocks", counted)
    patched = patch_cactus(profile, after, removed, ())
    monkeypatch.undo()
    assert patched == validate_cactus(after)
    assert sizes == [3 * 3 + 1]
