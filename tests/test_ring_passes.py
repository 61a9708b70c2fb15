"""The ring passes (counting.ring_path_count, indices.ring_wiener and
indices.ring_subtree_count) over hung rings, as the census stores them and
as indices._rings lists a profile's blocks: equal to the profile counters
and to the brute-force oracles."""

import random

from cactuspaths.census import census_with_rings, random_cactus
from cactuspaths.counting import cactus_path_count, count_paths, ring_path_count
from cactuspaths.graphs import validate_cactus
from cactuspaths.indices import (
    _rings,
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
            for g, rings in zip(*census_with_rings(n, k)):
                assert_hung(n, rings)
                values = ring_passes(n, rings)
                assert values == profile_counters(validate_cactus(g)), g
                assert values == (count_paths(g), wiener(g), subtree_count(g)), g
                classes += 1
    assert classes == 2866


def test_ring_passes_match_the_counters_on_relabelled_random_cacti():
    rng = random.Random(1919)
    for _ in range(300):
        n = rng.randrange(1, 151)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng).relabel(rng.sample(range(n), n))
        profile = validate_cactus(g)
        hung = list(_rings(profile))
        # every block once
        assert sorted(map(sorted, hung)) == sorted(sorted(b.vertices) for b in profile.tree.blocks)
        assert_hung(n, hung)
        assert ring_passes(n, hung) == profile_counters(profile), g
