"""Isomorphism machinery and exhaustive generation at desk scale.

canonical_key computes a label-independent encoding by maximizing the
adjacency bit-string over vertex orderings (dense rows first prunes hard on
sparse graphs); the search is restricted to orderings compatible with an
iterated-degree stable coloring and further pruned by skipping
interchangeable (transposition-automorphic) candidates, which keeps
high-symmetry graphs (stars, friendship graphs) tractable.

enumerate_cacti grows every cactus from smaller ones by attaching a pendant
vertex or a fresh cycle; every cactus arises this way because its block-cut
tree always has a removable leaf block.  Candidates are deduplicated by an
AHU code of the block-cut tree rooted at its centre (cactus_key), computed
from the blocks the parent already knows plus the one just attached, so no
candidate is built as a Graph.  Every census is grown, and cached once, in
the order its classes are found; census_in_generation_order hands it out as
it is, for callers (the theorem checks) whose results depend only on the
set of classes, and enumerate_cacti sorts the census it is asked for by
canonical_key, which costs one key per class of that census only.
canonical_key stays the oracle for the code.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .graphs import Graph, is_connected, validate_cactus

DEFAULT_CENSUS_GUARD = 10**7

# A cactus's blocks: each bridge as its two ends, each cycle in cyclic order.
Rings = tuple[tuple[int, ...], ...]


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
    layout = sorted(color)

    # frontier holds every placement achieving the best bit-string prefix
    frontier: list[tuple[tuple[int, ...], int]] = [((), 0)]
    rows: list[int] = []
    for pos in range(n):
        cls = layout[pos]
        best_row = -1
        kept: list[tuple[tuple[int, ...], int, int, int]] = []  # placement, used, vertex, row
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
                    kept.append((placement, used, v, row))
        # best_row may have risen after earlier candidates were kept
        frontier = [
            (placement + (v,), used | (1 << v))
            for placement, used, v, row in kept
            if row == best_row
        ]
        rows.append(best_row)
    bits = 0
    for i, row in enumerate(rows):
        bits = (bits << i) | row
    nbits = n * (n - 1) // 2
    return n.to_bytes(2, "big") + bits.to_bytes(max(1, (nbits + 7) // 8), "big")


def _isomorphisms(gm: tuple[int, ...], gc: list[int], hm: tuple[int, ...], hc: list[int]):
    """Every isomorphism from the graph with adjacency masks gm and colours
    gc to the one with hm and hc that maps each vertex to one of its colour,
    as a tuple of images: a backtracking search that places the vertices of
    the first graph in order."""
    n = len(gm)
    mapping = [-1] * n
    used = [False] * n

    def place(v: int):
        if v == n:
            yield tuple(mapping)
            return
        for w in range(n):
            if used[w] or gc[v] != hc[w]:
                continue
            if all((gm[v] >> u) & 1 == (hm[w] >> mapping[u]) & 1 for u in range(v)):
                mapping[v] = w
                used[w] = True
                yield from place(v + 1)
                used[w] = False

    return place(0)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism test (for cross-checking canonical keys)."""
    if g.n != h.n or g.m != h.m:
        return False
    gm, hm = g.adjacency_masks, h.adjacency_masks
    gc, hc = _stable_coloring(g.n, gm), _stable_coloring(h.n, hm)
    if sorted(gc) != sorted(hc):
        return False
    return next(_isomorphisms(gm, gc, hm, hc), None) is not None


def count_automorphisms(g: Graph) -> int:
    """Number of adjacency-preserving vertex permutations."""
    masks = g.adjacency_masks
    color = _stable_coloring(g.n, masks)
    return sum(1 for _ in _isomorphisms(masks, color, masks, color))


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


Census = tuple[tuple[Graph, ...], tuple[Rings, ...]]
# (n, k) -> the classes in the order _grow finds them, and each one's rings;
# a class's representative depends on the order of its parents, so no
# cached census is ever reordered
_cactus_census: dict[tuple[int, int], Census] = {}


def enumerate_cacti(n: int, k: int, guard: int | None = None) -> tuple[Graph, ...]:
    """One representative per isomorphism class of connected cacti with n
    vertices and cycle rank k, in canonical-key order: the classes of
    census_in_generation_order(n, k, guard), sorted.

    Raises CensusSizeError when this census or any smaller census it is
    grown from has more classes than the guard, cached or not."""
    return tuple(sorted(census_in_generation_order(n, k, guard), key=canonical_key))


def census_in_generation_order(n: int, k: int, guard: int | None = None) -> tuple[Graph, ...]:
    """The classes of enumerate_cacti(n, k, guard), the same Graph objects,
    in the order they are generated and with no canonical_key computed; the
    order does not depend on what was called before.  The guard binds as in
    enumerate_cacti."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if k < 0 or 2 * k + 1 > n:
        raise ValueError(f"no cacti with n={n} and k={k}")
    limit = DEFAULT_CENSUS_GUARD if guard is None else guard
    # (n, k) is grown from every (n', k') with k' <= k and as many or fewer
    # spare vertices n' - 1 - 2k'; build them by increasing n'
    spare = n - 1 - 2 * k
    for size in range(1, n + 1):
        for rank in range(max(0, (size - spare) // 2), min(k, (size - 1) // 2) + 1):
            key = (size, rank)
            if key not in _cactus_census:
                _cactus_census[key] = _grow(size, rank, limit)
            if len(_cactus_census[key][0]) > limit:
                raise _over_guard(size, rank, limit)
    return _cactus_census[(n, k)][0]


def _over_guard(n: int, k: int, limit: int) -> CensusSizeError:
    return CensusSizeError(f"census for n={n}, k={k} has more classes than the guard {limit}")


def _grow(n: int, k: int, limit: int) -> Census:
    """The (n, k) census and each class's rings, from the cached censuses it
    is grown from: every cactus is a smaller one with a pendant vertex or a
    cycle attached at one vertex.  The first candidate with a new code
    represents its class, and the classes keep the order they are found in."""
    if n == 1:
        return (Graph(1, frozenset()),), ((),)
    seen: dict[str, tuple[frozenset[tuple[int, int]], Rings]] = {}  # code -> first candidate

    def record(edges: frozenset[tuple[int, int]], new: list[tuple[int, int]], rings: Rings) -> None:
        code = _code(n, rings)
        if code not in seen:
            seen[code] = (edges.union(new), rings)
            if len(seen) > limit:
                raise _over_guard(n, k, limit)

    # a parent (n', k') with 2k' + 1 > n' has no census: nothing to grow
    for h, rings in zip(*_cactus_census.get((n - 1, k), ((), ()))):
        for v in range(h.n):
            record(h.edges, [(v, n - 1)], rings + ((v, n - 1),))
    for length in range(3, n + 1):
        for h, rings in zip(*_cactus_census.get((n - length + 1, k - 1), ((), ()))):
            for v in range(h.n):
                ring = (v, *range(h.n, n))
                new = [(v, h.n), (v, n - 1)]
                new += [(u, u + 1) for u in range(h.n, n - 1)]
                record(h.edges, new, rings + (ring,))
    graphs = tuple(Graph(n, edges) for edges, _ in seen.values())
    return graphs, tuple(rings for _, rings in seen.values())


def _code(n: int, rings: Rings) -> str:
    """Centred AHU code of the cactus on vertices 0..n-1 whose blocks are
    rings (a bridge as its two ends, a cycle in cyclic order): equal for two
    cacti exactly when they are isomorphic.

    The leaves of the block-cut tree are blocks, so the tree has one centre.
    Peeling it leaf by leaf reaches the centre last and codes each node when
    it is peeled, after all its children.  A non-cut vertex codes as "()", a
    cut vertex as its child blocks' codes, sorted, in brackets.  A block
    codes as its ring's codes after its top vertex, read in the direction
    that gives the lesser string, in parentheses; a root block takes the
    least of its ring's rotations and reflections.  The strings nest, so the
    cost can grow quadratically in n, which census sizes do not feel.
    """
    if not rings:  # K_1, or the empty graph K_0
        return "()" if n else ""
    nb = len(rings)
    at: list[list[int]] = [[] for _ in range(n)]
    for b, ring in enumerate(rings):
        for v in ring:
            at[v].append(b)
    cuts = [v for v in range(n) if len(at[v]) > 1]
    # count and id sum of each node's neighbours not yet peeled: once the
    # count is 1, the sum is the parent
    bdeg, bsum = [0] * nb, [0] * nb
    cdeg, csum = [0] * n, [0] * n
    for v in cuts:
        cdeg[v], csum[v] = len(at[v]), sum(at[v])
        for b in at[v]:
            bdeg[b] += 1
            bsum[b] += v
    vcode = ["()"] * n
    kids: list[list[str]] = [[] for _ in range(n)]  # codes of a cut vertex's child blocks
    # peeling blocks can make only cut vertices leaves, and the other way
    # round, so the layers alternate, blocks first
    layer = [b for b in range(nb) if bdeg[b] == 1] if nb > 1 else [0]
    left = nb + len(cuts) - len(layer)
    while left:
        up = []
        for b in layer:
            v, ring = bsum[b], rings[b]
            if len(ring) == 2:
                kids[v].append("(" + vcode[ring[0] if ring[1] == v else ring[1]] + ")")
            else:
                i = ring.index(v)
                seq = [vcode[u] for u in ring[i + 1 :] + ring[:i]]
                fwd = "".join(seq)
                seq.reverse()
                bwd = "".join(seq)
                kids[v].append("(" + (fwd if fwd <= bwd else bwd) + ")")
            cdeg[v] -= 1
            csum[v] -= b
            if cdeg[v] == 1:
                up.append(v)
        left -= len(up)
        if not left:
            return "[" + "".join(sorted(kids[up[0]])) + "]"
        layer = []
        for v in up:
            vcode[v] = "[" + "".join(sorted(kids[v])) + "]"
            b = csum[v]
            bdeg[b] -= 1
            bsum[b] -= v
            if bdeg[b] == 1:
                layer.append(b)
        left -= len(layer)
    seq = [vcode[v] for v in rings[layer[0]]]
    rotations = (s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(len(seq)))
    return "(" + min("".join(r) for r in rotations) + ")"


def cactus_key(g: Graph) -> str:
    """Label-independent key of a cactus, from its block-cut tree: equal for
    isomorphic cacti, distinct otherwise.  Raises what validate_cactus
    raises (NotCactusError on a connected non-cactus).  Meant for census
    sizes: on a path or a cycle the time grows quadratically."""
    profile = validate_cactus(g)
    return _code(g.n, tuple(b.vertices for b in profile.tree.blocks))


def clear_caches() -> None:
    """Empty the graph census, the cactus census and the canonical-key cache
    (whose hit and miss statistics restart too); results do not depend on
    them."""
    _graph_census.clear()
    _cactus_census.clear()
    canonical_key.cache_clear()


def cactus_census_sizes(n: int) -> dict[int, int]:
    """Class counts of the cactus censuses for every feasible k at this n."""
    return {k: len(census_in_generation_order(n, k)) for k in range((n - 1) // 2 + 1)}


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
