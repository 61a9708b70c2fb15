"""The ring passes (counting.ring_path_count, indices.ring_wiener and
indices.ring_subtree_count) over hung rings, as the census stores them and
as RootedBlockCutTree.rings lists a profile's blocks: equal to the
brute-force oracles, and the same under relabelling."""

import random

from cactuspaths.census import census_rows, random_cactus, row_graph, row_rings
from cactuspaths.counting import cactus_path_count, count_paths, ring_path_count
from cactuspaths.families import cycle_chain, pseudo_friendship
from cactuspaths.formulas import pfg_subtree_count, pfg_wiener, ptc_summation
from cactuspaths.graphs import validate_cactus
from cactuspaths.indices import (
    cactus_subtree_count,
    cactus_wiener,
    ring_subtree_count,
    ring_wiener,
    subtree_count,
    wiener,
)


def ring_passes(n, rings):
    return ring_path_count(n, rings), ring_wiener(n, rings), ring_subtree_count(n, rings)


def profile_counters(profile):
    return cactus_path_count(profile), cactus_wiener(profile), cactus_subtree_count(profile)


def assert_hung(n, rings):
    # a ring's non-top vertices never reappear as a later ring's top
    passed: set[int] = set()
    for top, *below in rings:
        assert top not in passed, rings
        passed.update(below)
    assert len(passed) == max(n - 1, 0), rings


def test_ring_passes_match_the_counters_and_oracles_on_the_census():
    classes = 0
    for n in range(1, 11):
        for k in range((n - 1) // 2 + 1):
            for row in census_rows(n, k):
                g, rings = row_graph(n, row), row_rings(n, row)
                assert_hung(n, rings)
                values = ring_passes(n, rings)
                assert values == profile_counters(validate_cactus(g)), g
                assert values == (count_paths(g), wiener(g), subtree_count(g)), g
                classes += 1
    assert classes == 2866


def test_ring_passes_match_the_oracles_and_relabellings_on_random_cacti():
    # the profile counters are the ring passes on tree.rooted.rings, so they
    # are judged by the brute-force oracles up to n = 14, and up to n = 150
    # by two relabellings of each graph, which mostly root tree.rooted at
    # different blocks and so hang its rings differently
    rng = random.Random(1919)
    other_root = 0
    for i in range(400):
        n = rng.randrange(1, 15) if i < 100 else rng.randrange(1, 151)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        values, roots = set(), set()
        for _ in range(2):
            perm = rng.sample(range(n), n)
            profile = validate_cactus(g.relabel(perm))
            hung = profile.tree.rooted.rings
            # every block once
            assert sorted(map(sorted, hung)) == sorted(sorted(b.vertices) for b in profile.tree.blocks)
            assert_hung(n, hung)
            values.add(profile_counters(profile))
            if hung:
                roots.add(frozenset(perm.index(v) for v in hung[-1]))
        assert len(values) == 1, g
        if n <= 14:
            assert values == {(count_paths(g), wiener(g), subtree_count(g))}, g
        other_root += len(roots) > 1
    assert other_root > 300, other_root


def test_profile_counters_meet_closed_forms_on_a_large_pseudo_friendship_graph():
    # PFG(n, k): k triangles and n - 2k - 1 pendant vertices at one centre,
    # whose closed forms formulas.pfg_wiener and pfg_subtree_count derive
    n, k = 20001, 5000
    profile = validate_cactus(pseudo_friendship(n, k))
    assert cactus_wiener(profile) == pfg_wiener(n, k)
    assert cactus_subtree_count(profile) == pfg_subtree_count(n, k)


def test_profile_counters_are_label_free_on_a_long_triangle_chain():
    g = cycle_chain([3] * 5000)
    assert g.n == 10001
    natural = profile_counters(validate_cactus(g))
    relabelled = profile_counters(validate_cactus(g.relabel(random.Random(21).sample(range(g.n), g.n))))
    assert natural == relabelled
    assert natural[0] == ptc_summation(g.n, 5000)
