"""On its general path graphs.patch_cactus decomposes H, the blocks of S
(the smallest subtree of the block-cut tree that holds every endpoint of
the edited edges) without the removed edges and with the added ones.  A
cut vertex of the old tree that lies on a block outside S keeps its status
even where H has it on one block alone: its node is outside S, or is S's
top, or has a child outside S.  Any other vertex of H takes the status H
gives it.  Each hand-made edit below hits one case, and the patch must
equal validate_cactus(after)."""

import pytest

from cactuspaths import graphs
from cactuspaths.graphs import Graph, patch_cactus, validate_cactus

from test_profile_patch import edit

ROOT = [(0, 1), (0, 2), (1, 2)]  # block 0, the root of the rooted tree

CASES = {
    # the chord 3-5 cuts 3-4-5 off the pentagon 2-3-4-5-6, the one block of
    # S: 4 keeps the triangle 4-7-8, below its node, outside S
    "outside S": (
        Graph.from_edges(
            9, ROOT + [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6), (4, 7), (7, 8), (4, 8)]
        ),
        [(5, 6)],
        [(3, 5)],
        4,
        "outside",
    ),
    # triangles 2-3-4 and 2-5-6 hang at 2 and become the cycle 2-3-4-5-6:
    # S's top is the cut node 2, which keeps the root triangle
    "at S's top": (
        Graph.from_edges(7, ROOT + [(2, 3), (3, 4), (2, 4), (2, 5), (5, 6), (2, 6)]),
        [(2, 4), (2, 5)],
        [(4, 5)],
        2,
        "top",
    ),
    # 4 leaves the square 2-3-4-5 for a bridge to 1 and keeps the triangle
    # 4-6-7, a child outside S
    "inside S, with a child outside S": (
        Graph.from_edges(8, ROOT + [(2, 3), (3, 4), (4, 5), (2, 5), (4, 6), (6, 7), (4, 7)]),
        [(3, 4), (4, 5)],
        [(3, 5), (1, 4)],
        4,
        "inside",
    ),
    # the triangle 2-3-4 joins the root triangle into one cycle: 2 lies on
    # no block outside S and is no longer a cut vertex
    "lost": (
        Graph.from_edges(5, ROOT + [(2, 3), (3, 4), (2, 4)]),
        [(1, 2), (2, 3)],
        [(1, 3)],
        2,
        "lost",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_cut_vertex_keeps_its_status_only_through_a_block_outside_s(case):
    g, removed, added, x, where = CASES[case]
    after, removed, added = edit(g, removed, added)
    profile = validate_cactus(g)
    tree = profile.tree
    rooted = tree.rooted
    nblocks = len(tree.blocks)
    terminals = [rooted.node[y] for e in (*removed, *added) for y in e]
    top, region = graphs._subtree(rooted, terminals)
    t = rooted.node[x]
    assert x in tree.cut_vertices and (t in region) == (where != "outside")
    _, _, h_cuts = graphs._local_blocks(
        tree, sorted(i for i in region if i < nblocks), removed, added
    )
    assert x not in h_cuts  # H alone would not make x a cut vertex
    if where == "top":
        assert t == top
    elif where == "outside":
        assert top < nblocks and rooted.parent[t] == top
    elif where == "inside":
        assert t != top and any(
            rooted.parent[b] == t and b not in region for b in range(nblocks)
        )
    else:
        assert t != top and all(
            b in region for b in range(nblocks) if rooted.parent[b] == t
        )

    patched = patch_cactus(profile, after, removed, added)
    oracle = validate_cactus(after)
    assert patched == oracle
    assert patched.tree.rooted == oracle.tree.rooted
    assert (x in oracle.tree.cut_vertices) == (where != "lost")
