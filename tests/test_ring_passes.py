"""The ring passes (counting.ring_path_count, indices.ring_wiener and
indices.ring_subtree_count) over rings hung by census.centred_rings: equal to
the profile counters and to the brute-force oracles."""

import random

from cactuspaths.census import _peel, census_with_rings, centred_rings, random_cactus
from cactuspaths.counting import cactus_path_count, count_paths, ring_path_count
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
    hung = centred_rings(n, rings)
    return ring_path_count(n, hung), ring_wiener(n, hung), ring_subtree_count(n, hung)


def profile_counters(profile):
    return cactus_path_count(profile), cactus_wiener(profile), cactus_subtree_count(profile)


def test_ring_passes_match_the_counters_and_oracles_on_the_census():
    classes = 0
    for n in range(1, 11):
        for k in range((n - 1) // 2 + 1):
            for g, rings in zip(*census_with_rings(n, k)):
                values = ring_passes(n, rings)
                assert values == profile_counters(validate_cactus(g)), g
                assert values == (count_paths(g), wiener(g), subtree_count(g)), g
                classes += 1
    assert classes == 2866


def test_ring_passes_match_the_counters_on_relabelled_random_cacti():
    rng = random.Random(1919)
    centres = {"vertex": 0, "block": 0}
    for _ in range(300):
        n = rng.randrange(1, 151)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng).relabel(rng.sample(range(n), n))
        profile = validate_cactus(g)
        rings = tuple(b.vertices for b in profile.tree.blocks)
        assert ring_passes(n, rings) == profile_counters(profile), g
        # every block once; a ring's non-top vertices never reappear as a later ring's top
        hung = centred_rings(n, rings)
        assert sorted(map(sorted, hung)) == sorted(map(sorted, rings))
        passed: set[int] = set()
        for top, *below in hung:
            assert top not in passed
            passed.update(below)
        assert len(passed) == max(n - 1, 0)
        state = _peel(n, rings)
        centres["vertex"] += state.cv >= 0
        centres["block"] += state.cb >= 0
    assert centres["vertex"] > 20 and centres["block"] > 20
