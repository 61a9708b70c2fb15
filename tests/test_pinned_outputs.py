"""Outputs pinned as sha256 digests, so that a rewrite of the block-cut tree
or of the fixpoint drivers must reproduce them byte for byte.

The digests were recorded with the edge-stack DFS that popped one edge at a
time and with drivers that validated every graph three times per step.
"""

import hashlib
import json
import random

from cactuspaths.census import enumerate_cacti, random_cactus
from cactuspaths.cli import main
from cactuspaths.graphs import to_edge_list_text, validate_cactus
from cactuspaths.transforms import maximize_to_fixpoint, minimize_to_fixpoint

# over the census n <= 8, whose representatives changed when every census
# came to be grown from generation-order parents: re-recorded then
PROFILES_SHA256 = "776910eccfa3a0d9fa039c9396a9dabbfda084ebd5d2777be04c5eb0f001d45b"
HISTORIES_SHA256 = "1b200eeec207259cae363eededd1a6616c9d3a67b36c350e948caa386cf2ea31"


def digest(objects):
    h = hashlib.sha256()
    for obj in objects:
        h.update(json.dumps(obj, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def relabeled_random_cacti(seed, count, max_n):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, max_n + 1)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        yield g.relabel(rng.sample(range(n), n))


def profiled_graphs():
    census = (g for n in range(1, 9) for k in range((n - 1) // 2 + 1) for g in enumerate_cacti(n, k))
    return [*census, *relabeled_random_cacti(2024, 50, 300)]


def test_profiles_are_pinned():
    assert digest(validate_cactus(g).to_json() for g in profiled_graphs()) == PROFILES_SHA256


def test_profile_stdout_is_pinned(capsys, tmp_path):
    """`profile` writes each report as json.dumps(..., sort_keys=True) plus
    a newline, which is what the digest hashes."""
    path = tmp_path / "g.edges"
    h = hashlib.sha256()
    for g in profiled_graphs():
        path.write_text(to_edge_list_text(g))
        assert main(["profile", "--in", str(path)]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == PROFILES_SHA256


def test_fixpoint_histories_are_pinned():
    def histories():
        for g in relabeled_random_cacti(77, 20, 60):
            for driver in (maximize_to_fixpoint, minimize_to_fixpoint):
                final, history = driver(g)
                yield final.to_json()
                yield [r.to_json() for r in history]

    assert digest(histories()) == HISTORIES_SHA256
