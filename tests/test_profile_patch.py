"""The fixpoint drivers patch the profile at each step instead of validating
the graph they build: graphs.patch_cactus must equal validate_cactus, value
for value and error for error."""

import random

import pytest

from cactuspaths import transforms
from cactuspaths.census import enumerate_cacti, random_cactus
from cactuspaths.counting import cactus_path_count
from cactuspaths.families import cycle_chain, cycle_graph, path_graph, pseudo_friendship
from cactuspaths.graphs import (
    DisconnectedError,
    Graph,
    GraphError,
    NotCactusError,
    patch_cactus,
    validate_cactus,
)
from cactuspaths.transforms import maximize_to_fixpoint, minimize_to_fixpoint

from test_pinned_outputs import relabeled_random_cacti


TRIANGLE_BRIDGE_SQUARE = Graph.from_edges(
    7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6)]
)


def assert_same_profile(patched, oracle):
    assert patched.to_json() == oracle.to_json()
    # every field, so also the blocks' edges and the incidence
    assert patched == oracle
    assert patched.tree.rooted == oracle.tree.rooted


def outcome(build, *args):
    """The profile build(*args) returns, or the type and message it raises."""
    try:
        return build(*args).to_json()
    except GraphError as exc:
        return type(exc), str(exc)


def edit(g, removed, added):
    """g with the edges removed taken out and added put in, as _apply builds it."""
    removed = tuple(tuple(sorted(e)) for e in removed)
    added = tuple(tuple(sorted(e)) for e in added)
    after = Graph(g.n, g.edges.difference(removed).union(added))
    return after, removed, added


# ---------------------------------------------------------------- every driver step


def test_every_driver_step_patches_what_validation_builds(monkeypatch):
    """Both drivers on the 20 pinned cacti and 300 relabelled random cacti:
    at every step the patched profile and its pn are the oracle's."""
    oracles = []

    def checked(profile, after, removed, added):
        patched = patch_cactus(profile, after, removed, added)
        oracle = validate_cactus(after)
        assert_same_profile(patched, oracle)
        oracles.append(oracle)
        return patched

    monkeypatch.setattr(transforms, "patch_cactus", checked)
    rng = random.Random(7)
    graphs = list(relabeled_random_cacti(77, 20, 60))
    for _ in range(300):
        n = rng.randrange(1, 121)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        graphs.append(g.relabel(rng.sample(range(n), n)))
    for g in graphs:
        for driver in (maximize_to_fixpoint, minimize_to_fixpoint):
            oracles.clear()
            _, history = driver(g)
            assert len(oracles) == len(history)
            for step, oracle in zip(history, oracles):
                assert oracle.graph == step.after
                assert step.pn_after == cactus_path_count(oracle)


@pytest.mark.parametrize("driver", [maximize_to_fixpoint, minimize_to_fixpoint])
def test_each_driver_run_validates_once(monkeypatch, driver):
    validated = []
    original = transforms.validate_cactus

    def counted(g):
        validated.append(g)
        return original(g)

    monkeypatch.setattr(transforms, "validate_cactus", counted)
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randrange(3, 60)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        validated.clear()
        _, history = driver(g)
        assert validated == [g]


# ---------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "g,removed,added,error",
    [
        # a bridge taken out
        (Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), [(2, 3)], [], DisconnectedError),
        (path_graph(6), [(2, 3)], [], DisconnectedError),
        # a cycle edge and a bridge taken out together
        (TRIANGLE_BRIDGE_SQUARE, [(2, 3), (4, 5)], [], DisconnectedError),
        # a bridge taken out and a chord put in: disconnection is reported first
        (Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)]), [(0, 5)], [(0, 2)], DisconnectedError),
        # a chord of a cycle of length >= 4
        (cycle_graph(4), [], [(0, 2)], NotCactusError),
        (cycle_graph(7), [], [(1, 4)], NotCactusError),
        # an edge between two cycles' vertices
        (cycle_chain([3, 3]), [], [(0, 3)], NotCactusError),
        (pseudo_friendship(9, 4), [], [(1, 3)], NotCactusError),
        (cycle_chain([3, 5, 3]), [], [(1, 7)], NotCactusError),
    ],
)
def test_patch_raises_what_validation_raises(g, removed, added, error):
    after, removed, added = edit(g, removed, added)
    with pytest.raises(error):
        validate_cactus(after)
    assert outcome(patch_cactus, validate_cactus(g), after, removed, added) == outcome(
        validate_cactus, after
    )


def test_patch_matches_validation_on_random_edits():
    """Random edits of relabelled random cacti: take out up to two edges and
    put in up to two, then compare the profile, or the error, with the
    oracle's.  Some keep a cactus of another cycle rank, some disconnect it,
    some leave a block that is not a cycle."""
    rng = random.Random(11)
    seen = {}
    for _ in range(400):
        n = rng.randrange(3, 40)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        g = g.relabel(rng.sample(range(n), n))
        present = sorted(g.edges)
        absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in g.edges]
        removed = rng.sample(present, min(len(present), rng.randrange(3)))
        added = rng.sample(absent, min(len(absent), rng.randrange(3)))
        if not removed and not added:
            continue
        after, removed, added = edit(g, removed, added)
        expected = outcome(validate_cactus, after)
        assert outcome(patch_cactus, validate_cactus(g), after, removed, added) == expected
        kind = expected[0].__name__ if isinstance(expected, tuple) else "cactus"
        seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"cactus", "DisconnectedError", "NotCactusError"}


# ---------------------------------------------------------------- the block order


def test_blocks_are_sorted_by_edges():
    """The patch splices new blocks into the old ones by their edges, and
    reads each incidence as a sorted tuple of cut vertices."""
    rng = random.Random(3)
    census = [g for n in range(1, 9) for k in range((n - 1) // 2 + 1) for g in enumerate_cacti(n, k)]
    randoms = []
    for _ in range(100):
        n = rng.randrange(1, 150)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        randoms.append(g.relabel(rng.sample(range(n), n)))
    for g in census + randoms:
        tree = validate_cactus(g).tree
        keys = [b.edges for b in tree.blocks]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(list(cuts) == sorted(cuts) for cuts in tree.incidence)
