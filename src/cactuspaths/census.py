"""Isomorphism machinery and exhaustive generation at desk scale.

canonical_key computes a label-independent encoding by maximizing the
adjacency bit-string over vertex orderings (dense rows first prunes hard on
sparse graphs); the search is restricted to orderings compatible with an
iterated-degree stable coloring and further pruned by skipping
interchangeable (transposition-automorphic) candidates, which keeps
high-symmetry graphs (stars, friendship graphs) tractable.

enumerate_cacti grows every cactus from smaller ones by attaching a pendant
vertex or a fresh cycle and deduplicates with canonical keys; every cactus
arises this way because its block-cut tree always has a removable leaf
block.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .graphs import Graph, is_connected, validate_cactus

DEFAULT_CENSUS_GUARD = 10**7


class CensusSizeError(Exception):
    """The requested census exceeds the configured class-count guard."""


def _stable_coloring(n: int, masks: tuple[int, ...]) -> list[int]:
    """Iterated degree refinement; colors are ranks of label-free signatures."""
    color = [bin(m).count("1") for m in masks]
    while True:
        sigs = []
        for v in range(n):
            nb = masks[v]
            neigh = []
            while nb:
                bit = nb & -nb
                nb ^= bit
                neigh.append(color[bit.bit_length() - 1])
            neigh.sort()
            sigs.append((color[v], tuple(neigh)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refined = [ranks[s] for s in sigs]
        if refined == color:
            return color
        color = refined


@lru_cache(maxsize=None)
def canonical_key(g: Graph) -> bytes:
    """Label-independent key: equal for isomorphic graphs, distinct otherwise.

    Encodes n plus the extremal upper-triangle adjacency bit-string over all
    vertex orderings grouped by stable-coloring class.
    """
    n = g.n
    if n == 0:
        return (0).to_bytes(2, "big")
    masks = g.adjacency_masks
    color = _stable_coloring(n, masks)
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(color[v], []).append(v)
    layout: list[int] = []
    for c in sorted(by_color):
        layout.extend([c] * len(by_color[c]))

    # frontier holds every placement achieving the best bit-string prefix
    frontier: list[tuple[tuple[int, ...], int]] = [((), 0)]
    rows: list[int] = []
    for pos in range(n):
        cls = layout[pos]
        best_row = -1
        kept: list[tuple[tuple[int, ...], int, int]] = []  # placement, used, vertex
        for placement, used in frontier:
            local: list[tuple[int, int]] = []  # (row, vertex) kept for this placement
            for v in by_color[cls]:
                bv = 1 << v
                if used & bv:
                    continue
                row = 0
                mv = masks[v]
                for p in placement:
                    row = (row << 1) | ((mv >> p) & 1)
                if row < best_row:
                    continue
                # skip v when an equal-row candidate w is a swap-automorphism twin
                twin = False
                for rw, w in local:
                    if rw != row:
                        continue
                    bw = 1 << w
                    if (masks[v] | bv | bw) == (masks[w] | bv | bw):
                        twin = True
                        break
                if twin:
                    continue
                local.append((row, v))
                if row > best_row:
                    best_row = row
            for row, v in local:
                if row == best_row:
                    kept.append((placement, used, v))
        # best_row may have risen after earlier candidates were kept
        frontier = [
            (placement + (v,), used | (1 << v))
            for placement, used, v in kept
            if _row_of(masks[v], placement) == best_row
        ]
        rows.append(best_row)
    bits = 0
    for i, row in enumerate(rows):
        bits = (bits << i) | row
    nbits = n * (n - 1) // 2
    return n.to_bytes(2, "big") + bits.to_bytes(max(1, (nbits + 7) // 8), "big")


def _row_of(mask: int, placement: tuple[int, ...]) -> int:
    row = 0
    for p in placement:
        row = (row << 1) | ((mask >> p) & 1)
    return row


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism test (for cross-checking canonical keys)."""
    if g.n != h.n or g.m != h.m:
        return False
    n = g.n
    gm, hm = g.adjacency_masks, h.adjacency_masks
    gc = _stable_coloring(n, gm)
    hc = _stable_coloring(n, hm)
    if sorted(gc) != sorted(hc):
        return False
    mapping = [-1] * n
    used = [False] * n

    def place(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or gc[v] != hc[w]:
                continue
            ok = True
            for u in range(v):
                gbit = (gm[v] >> u) & 1
                hbit = (hm[w] >> mapping[u]) & 1
                if gbit != hbit:
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if place(v + 1):
                    return True
                used[w] = False
        return False

    return place(0)


def count_automorphisms(g: Graph) -> int:
    """Number of adjacency-preserving vertex permutations."""
    n = g.n
    if n == 0:
        return 1
    masks = g.adjacency_masks
    color = _stable_coloring(n, masks)
    mapping = [-1] * n
    used = [False] * n
    total = 0

    def place(v: int) -> None:
        nonlocal total
        if v == n:
            total += 1
            return
        for w in range(n):
            if used[w] or color[v] != color[w]:
                continue
            ok = True
            for u in range(v):
                if (masks[v] >> u) & 1 != (masks[w] >> mapping[u]) & 1:
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                place(v + 1)
                used[w] = False
        return

    place(0)
    return total


_graph_census: dict[int, tuple[Graph, ...]] = {}


def all_graphs(n: int) -> tuple[Graph, ...]:
    """All simple graphs on n vertices up to isomorphism (n small).

    Built by adding vertex n-1 with every possible neighborhood to every
    graph on n-1 vertices, then deduplicating.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n in _graph_census:
        return _graph_census[n]
    if n <= 1:
        result: tuple[Graph, ...] = (Graph(n, frozenset()),)
    else:
        seen: dict[bytes, Graph] = {}
        new = n - 1
        for h in all_graphs(n - 1):
            for subset in range(1 << new):
                edges = set(h.edges)
                s = subset
                while s:
                    bit = s & -s
                    s ^= bit
                    edges.add((bit.bit_length() - 1, new))
                g = Graph(n, frozenset(edges))
                seen.setdefault(canonical_key(g), g)
        result = tuple(seen[key] for key in sorted(seen))
    _graph_census[n] = result
    return result


def connected_graphs(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in all_graphs(n) if is_connected(g))


_cactus_census: dict[tuple[int, int], tuple[Graph, ...]] = {}


def enumerate_cacti(n: int, k: int, guard: int | None = None) -> tuple[Graph, ...]:
    """One representative per isomorphism class of connected cacti with n
    vertices and cycle rank k, in canonical-key order."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if k < 0 or 2 * k + 1 > n:
        raise ValueError(f"no cacti with n={n} and k={k}")
    limit = DEFAULT_CENSUS_GUARD if guard is None else guard
    result = _cacti(n, k, limit)
    if len(result) > limit:
        raise CensusSizeError(
            f"census for n={n}, k={k} has {len(result)} classes, over the guard {limit}"
        )
    return result


def _cacti(n: int, k: int, limit: int | None = None) -> tuple[Graph, ...]:
    """The (n, k) census; limit bounds its own classes only, so whether it
    raises does not depend on which smaller censuses are cached."""
    if k < 0 or n < 1 or 2 * k + 1 > n:
        return ()
    key = (n, k)
    if key in _cactus_census:
        return _cactus_census[key]
    if n == 1:
        result: tuple[Graph, ...] = (Graph(1, frozenset()),)
    else:
        seen: dict[bytes, Graph] = {}

        def record(g: Graph) -> None:
            ck = canonical_key(g)
            if ck not in seen:
                seen[ck] = g
                if limit is not None and len(seen) > limit:
                    raise CensusSizeError(
                        "census guard exceeded; raise the guard to continue"
                    )

        for h in _cacti(n - 1, k):
            for v in range(h.n):
                record(Graph(n, h.edges | {(v, n - 1)}))
        for length in range(3, n + 1):
            parent_n = n - (length - 1)
            for h in _cacti(parent_n, k - 1):
                for v in range(h.n):
                    ring = [v] + list(range(h.n, h.n + length - 1))
                    edges = set(h.edges)
                    for i in range(length - 1):
                        a, b = ring[i], ring[i + 1]
                        edges.add((a, b) if a < b else (b, a))
                    a, b = ring[0], ring[-1]
                    edges.add((a, b) if a < b else (b, a))
                    record(Graph(n, frozenset(edges)))
        result = tuple(seen[ck] for ck in sorted(seen))
    _cactus_census[key] = result
    return result


def clear_caches() -> None:
    """Empty the census caches and the canonical-key cache (whose hit and
    miss statistics restart too); results do not depend on them."""
    _graph_census.clear()
    _cactus_census.clear()
    canonical_key.cache_clear()


def cactus_census_sizes(n: int) -> dict[int, int]:
    """Class counts of the cactus censuses for every feasible k at this n."""
    return {k: len(enumerate_cacti(n, k)) for k in range((n - 1) // 2 + 1)}


def random_cactus(n: int, k: int, rng: random.Random) -> Graph:
    """A uniformly-haphazard labeled cactus with n vertices and k cycles.

    Not uniform over isomorphism classes; intended for randomized testing.
    """
    if n < 1 or k < 0 or 2 * k + 1 > n:
        raise ValueError(f"no cacti with n={n} and k={k}")
    lengths = [3] * k
    spare = n - 1 - 2 * k
    pendants = 0
    for _ in range(spare):
        if k and rng.random() < 0.5:
            lengths[rng.randrange(k)] += 1
        else:
            pendants += 1
    ops: list[int] = [0] * pendants + lengths  # 0 = pendant, else cycle length
    rng.shuffle(ops)
    edges: set[tuple[int, int]] = set()
    size = 1
    for op in ops:
        at = rng.randrange(size)
        if op == 0:
            edges.add((at, size))
            size += 1
        else:
            ring = [at] + list(range(size, size + op - 1))
            size += op - 1
            for i in range(op - 1):
                a, b = ring[i], ring[i + 1]
                edges.add((a, b) if a < b else (b, a))
            a, b = ring[0], ring[-1]
            edges.add((a, b) if a < b else (b, a))
    g = Graph(n, frozenset(edges))
    profile = validate_cactus(g)
    assert profile.k == k
    return g
