"""patch_cactus carries the rooted block-cut tree across a rewrite step:
it splices the old tree.rooted in the region it re-decomposes instead of
building the new one from scratch, unless the step changes block 0, the
root.  The splice must give what the from-scratch build gives, and it
relies on the build's depth-first order: each subtree one run of order."""

import random
from functools import cached_property

import pytest

from cactuspaths import transforms
from cactuspaths.census import enumerate_cacti, random_cactus
from cactuspaths.families import cycle_chain
from cactuspaths.graphs import BlockCutTree, validate_cactus
from cactuspaths.transforms import TransformError, maximize_to_fixpoint, minimize_to_fixpoint

from test_pinned_outputs import relabeled_random_cacti


def census_graphs(max_n):
    sizes = [(n, k) for n in range(1, max_n + 1) for k in range((n - 1) // 2 + 1)]
    return [g for n, k in sizes for g in enumerate_cacti(n, k)]


def test_every_rule_splices_what_a_rebuild_builds(monkeypatch):
    """Each rule applied once to every class with n <= 8, and to two chains
    on which shrink and balance can keep block 0, and to two relabellings
    of each: wherever the step keeps block 0, the new tree comes with its
    rooted tree, equal to the one built from scratch."""
    patched = []  # the profile, and whether it came with its rooted tree
    original = transforms.patch_cactus

    def kept(profile, after, removed, added):
        profile = original(profile, after, removed, added)
        patched.append((profile, "rooted" in profile.tree.__dict__))
        return profile

    monkeypatch.setattr(transforms, "patch_cactus", kept)
    rng = random.Random(8)
    spliced = dict.fromkeys(transforms.RULES, 0)
    rerooted = 0
    for g in census_graphs(8) + [cycle_chain([3, 3, 3, 7]), cycle_chain([3, 3, 3, 6, 3])]:
        for h in (g, g.relabel(range(g.n - 1, -1, -1)), g.relabel(rng.sample(range(g.n), g.n))):
            for rule in transforms.RULES:
                patched.clear()
                try:
                    step = transforms._apply(rule, h)
                except TransformError:
                    continue
                ((profile, seeded),) = patched
                tree = profile.tree
                if not seeded:  # block 0 changed: built on first read
                    assert tree.blocks[0].edges != validate_cactus(h).tree.blocks[0].edges
                    rerooted += 1
                    continue
                oracle = validate_cactus(step.after).tree.rooted
                assert tree.rooted == oracle
                assert tree.rooted.sizes == oracle.sizes
                assert tree.rooted.block_mask == oracle.block_mask
                spliced[rule] += 1
    assert all(spliced.values()), spliced  # every rule spliced
    assert rerooted  # and some step changed block 0


@pytest.mark.parametrize("driver", [maximize_to_fixpoint, minimize_to_fixpoint])
def test_a_driver_builds_the_rooted_tree_only_when_block_0_changes(monkeypatch, driver):
    """Both drivers on the pinned cacti: one build for the input, and one
    for each step whose graph has another block 0; every other step's tree
    is spliced."""
    builds = []
    build = BlockCutTree.rooted.func

    def counted(tree):
        builds.append(tree)
        return build(tree)

    rooted = cached_property(counted)
    rooted.__set_name__(BlockCutTree, "rooted")
    steps = spliced = 0
    for g in relabeled_random_cacti(77, 20, 60):
        monkeypatch.setattr(BlockCutTree, "rooted", rooted)
        builds.clear()
        _, history = driver(g)
        built = len(builds)
        monkeypatch.undo()
        rerooted = sum(
            validate_cactus(step.before).tree.blocks[0].edges
            != validate_cactus(step.after).tree.blocks[0].edges
            for step in history
        )
        assert built == 1 + rerooted
        steps += len(history)
        spliced += len(history) - rerooted
    assert spliced > steps // 2


def assert_runs(rooted):
    """Each node's subtree, read off parent alone, is the run of order that
    starts at the node, sizes[node] long; block_mask marks the blocks."""
    parent, order = rooted.parent, rooted.order
    count = [0] * len(parent)
    for x in range(len(parent)):
        while x >= 0:  # x and each node above it
            count[x] += 1
            x = parent[x]
    assert rooted.sizes == tuple(count)
    for i, x in enumerate(order):
        for y in order[i : i + count[x]]:
            while y != x:  # x lies above every node of its run
                y = parent[y]
                assert y >= 0
    nblocks = len(rooted.rings)
    assert rooted.block_mask == bytes(x < nblocks for x in order)


def test_every_subtree_is_one_run_of_order(monkeypatch):
    rng = random.Random(200)
    cacti = census_graphs(9)
    for _ in range(200):
        n = rng.randrange(1, 150)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        cacti.append(g.relabel(rng.sample(range(n), n)))
    for g in cacti:
        assert_runs(validate_cactus(g).tree.rooted)
    # and on the trees the drivers splice
    original = transforms.patch_cactus

    def checked(profile, after, removed, added):
        patched = original(profile, after, removed, added)
        assert_runs(patched.tree.rooted)
        return patched

    monkeypatch.setattr(transforms, "patch_cactus", checked)
    for g in cacti[-20:]:
        maximize_to_fixpoint(g)
        minimize_to_fixpoint(g)
