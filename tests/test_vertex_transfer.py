"""A shrink or balance step moves one vertex u from one cycle to another:
patch_cactus builds the two new rings without a block walk and carries the
rest of the tree.  Every such step must give what validate_cactus gives,
and an edit of the same shape that is not such a move must take the
general path and still give what validate_cactus gives, value or error."""

import random

import pytest

from cactuspaths import graphs, transforms
from cactuspaths.graphs import Graph, patch_cactus, validate_cactus
from cactuspaths.transforms import TransformError, maximize_to_fixpoint

from test_pinned_outputs import relabeled_random_cacti
from test_profile_patch import edit, outcome
from test_rooted_splice import census_graphs


def edited_ids(before, after):
    """The ids of the blocks of before that after lacks, and of those of
    after that before lacks."""
    old = {b.edges for b in before.blocks}
    new = {b.edges for b in after.blocks}
    gone = [i for i, b in enumerate(before.blocks) if b.edges not in new]
    placed = [i for i, b in enumerate(after.blocks) if b.edges not in old]
    return gone, placed


@pytest.fixture
def walks(monkeypatch):
    """The calls of the general path's block walk since the last clear."""
    calls = []
    original = graphs._local_blocks

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(graphs, "_local_blocks", counted)
    return calls


def test_every_transfer_step_patches_what_validation_builds(monkeypatch, walks):
    """Every class with n <= 9 and two relabellings of each, and the pinned
    cacti, on which more steps keep block 0: shrink and balance applied
    alone wherever they fire, and maximize_to_fixpoint run to its end.
    Each shrink or balance step walks no block, and its profile, rooted
    tree and carried sizes and block_mask are those of
    validate_cactus(after)."""
    rule = [None]  # the rule whose move was made last
    for name in transforms._INCREASING:

        def named(profile, move=transforms._MOVES[name], name=name):
            rule[0] = name
            return move(profile)

        monkeypatch.setitem(transforms._MOVES, name, named)

    hits = {"ids unchanged": 0, "an id shifted": 0, "block 0 edited": 0}

    def checked(profile, after, removed, added):
        walks.clear()
        patched = patch_cactus(profile, after, removed, added)
        if rule[0] not in ("shrink", "balance"):
            return patched
        assert not walks  # no block walk
        tree, oracle = patched.tree, validate_cactus(after)
        carried = dict(tree.__dict__)
        assert patched.to_json() == oracle.to_json()
        assert patched == oracle
        gone, placed = edited_ids(profile.tree, oracle.tree)
        assert len(gone) == len(placed) == 2
        if 0 in gone or 0 in placed:  # block 0 is edited, or an edited block becomes it
            assert "rooted" not in carried  # built from scratch on first read
            hits["block 0 edited"] += 1
        else:
            rooted = carried["rooted"]
            assert rooted == oracle.tree.rooted
            assert rooted.sizes == oracle.tree.rooted.sizes
            assert rooted.block_mask == oracle.tree.rooted.block_mask
            hits["ids unchanged" if gone == placed else "an id shifted"] += 1
        assert tree.rooted == oracle.tree.rooted
        return patched

    monkeypatch.setattr(transforms, "patch_cactus", checked)
    rng = random.Random(9)
    for g in census_graphs(9) + list(relabeled_random_cacti(77, 20, 60)):
        for h in (g, g.relabel(range(g.n - 1, -1, -1)), g.relabel(rng.sample(range(g.n), g.n))):
            for name in ("shrink", "balance"):
                try:
                    transforms._apply(name, h)
                except TransformError:
                    pass
            maximize_to_fixpoint(h)
    assert all(hits.values()), hits


# u = 1 in each, with ring neighbours v = 0 and w = 2 on the square 0-1-2-3
SQUARE = [(0, 1), (1, 2), (2, 3), (0, 3)]
GENERAL = {
    # u is a cut vertex: a triangle hangs at 1, and 1 moves into the
    # triangle at 3
    "u is a cut vertex": (
        Graph.from_edges(8, SQUARE + [(1, 4), (4, 5), (1, 5), (3, 6), (6, 7), (3, 7)]),
        [(0, 1), (1, 2), (6, 7)],
        [(0, 2), (1, 6), (1, 7)],
    ),
    # the same, into a triangle on the triangle at 1: the square is cut
    # off, and the rest is no cactus
    "u is a cut vertex, and the edit leaves no cactus": (
        Graph.from_edges(8, SQUARE + [(1, 4), (4, 5), (1, 5), (4, 6), (6, 7), (4, 7)]),
        [(0, 1), (1, 2), (6, 7)],
        [(0, 2), (1, 6), (1, 7)],
    ),
    "ab is a bridge": (
        Graph.from_edges(5, SQUARE + [(3, 4)]),
        [(0, 1), (1, 2), (3, 4)],
        [(0, 2), (1, 3), (1, 4)],
    ),
    "E is C": (
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
        [(0, 1), (1, 2), (3, 4)],
        [(0, 2), (1, 3), (1, 4)],
    ),
    "a is v, and ab lies on C": (
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
        [(0, 1), (1, 2), (0, 5)],
        [(0, 2), (0, 1), (1, 5)],
    ),
    "a is v, and ab is a bridge": (
        Graph.from_edges(5, SQUARE + [(0, 4)]),
        [(0, 1), (1, 2), (0, 4)],
        [(0, 2), (0, 1), (1, 4)],
    ),
    "a is w, and ab is a bridge": (
        Graph.from_edges(5, SQUARE + [(2, 4)]),
        [(0, 1), (1, 2), (2, 4)],
        [(0, 2), (1, 2), (1, 4)],
    ),
}


@pytest.mark.parametrize("case", sorted(GENERAL))
def test_an_edit_of_the_shape_that_moves_no_vertex_takes_the_general_path(walks, case):
    g, removed, added = GENERAL[case]
    after, removed, added = edit(g, removed, added)
    profile = validate_cactus(g)
    walks.clear()
    assert outcome(patch_cactus, profile, after, removed, added) == outcome(validate_cactus, after)
    assert walks  # the block walk ran


def test_a_move_next_to_the_shared_cut_vertex_is_a_transfer(walks):
    """u = 1 leaves the square 0-1-2-3 for the triangle 0-4-5 that shares
    its ring neighbour 0, between 0 and 4: the edit removes and adds 01,
    and shrink makes such edits.  It is a transfer, and walks no block."""
    g = Graph.from_edges(6, SQUARE + [(0, 4), (4, 5), (0, 5)])
    after, removed, added = edit(g, [(0, 1), (1, 2), (0, 4)], [(0, 2), (0, 1), (1, 4)])
    profile = validate_cactus(g)
    walks.clear()
    patched = patch_cactus(profile, after, removed, added)
    assert not walks
    oracle = validate_cactus(after)
    assert patched == oracle
    assert patched.tree.rooted == oracle.tree.rooted
    assert sorted(len(b) for b in patched.tree.blocks) == [3, 4]


def labelled_shrink(profile):
    """shrink's move, with its sides found by a pass that labels every
    vertex off its cycle with the side it lies on; and whether the two
    sides have as many vertices."""
    blocks = profile.tree.blocks
    c_idx = next(i for i in profile.interior_cycles if len(blocks[i]) >= 4)
    ring = blocks[c_idx].vertex_set
    label = transforms._neighbour_labels(profile.tree.rooted, c_idx)
    sides = {}  # each side's vertex count and least vertex
    for x, node in enumerate(profile.tree.rooted.node):
        if x not in ring:
            count, least = sides.get(label[node], (0, x))
            sides[label[node]] = (count + 1, least)
    side = min(sides, key=sides.__getitem__)
    end_block = next(blocks[i] for i in profile.end_cycles if label[i] == side)
    u, v, w, a, b = transforms._transfer(profile, blocks[c_idx], end_block)
    (count, _), (other, _) = sides.values()
    return ([(u, v), (u, w), (a, b)], [(u, a), (u, b), (v, w)]), count == other


def test_shrink_takes_the_side_a_labelling_pass_gives():
    """Every class with n <= 10 on which shrink fires, in eight labellings:
    counting each side off the tree's runs picks the side, and so the move,
    that labelling every vertex picks, ties included."""
    rng = random.Random(10)
    fired = ties = 0
    for g in census_graphs(10):
        for _ in range(8):
            profile = validate_cactus(g.relabel(rng.sample(range(g.n), g.n)))
            try:
                move = transforms._MOVES["shrink"](profile)
            except TransformError:
                break
            want, tied = labelled_shrink(profile)
            assert move == want
            fired += 1
            ties += tied
    assert fired > ties > 0, (fired, ties)
