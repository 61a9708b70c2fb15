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
AHU code of the block-cut tree rooted at its centre (cactus_key's code,
_code).  Each parent's tree is peeled once per census it grows, and each
candidate is coded from that peel by recoding only the route from the
attachment vertex up to the centre (_attach); the centre moves, one node
toward the new block, only when that block hangs at a non-cut vertex of a
deepest leaf block.  No candidate is built as a Graph, and _code stays the
oracle that _attach must equal string for string.  Every census is grown,
and cached once, in the order its classes are found;
census_in_generation_order hands it out as it is, for callers (the theorem
checks) whose results depend only on the set of classes, and
enumerate_cacti sorts the census it is asked for by canonical_key, which
costs one key per class of that census only.  canonical_key stays the
oracle for the code.

Beside each class the cache keeps its blocks as rings (census_with_rings),
so no census class needs a block-cut tree: centred_rings re-peels one
class's rings and hangs them from the centre, in the order the ring passes
(counting.ring_path_count, indices.ring_wiener, indices.ring_subtree_count)
read them, which is how the sweeps and the theorem checks evaluate a class.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

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
    return census_with_rings(n, k, guard)[0]


def census_with_rings(n: int, k: int, guard: int | None = None) -> Census:
    """census_in_generation_order(n, k, guard), and beside it each class's
    blocks as the census holds them: a bridge as its two ends, a cycle in
    cyclic order.  centred_rings hangs one class's rings for the ring
    passes."""
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
    return _cactus_census[(n, k)]


def _over_guard(n: int, k: int, limit: int) -> CensusSizeError:
    return CensusSizeError(f"census for n={n}, k={k} has more classes than the guard {limit}")


def _grow(n: int, k: int, limit: int) -> Census:
    """The (n, k) census and each class's rings, from the cached censuses it
    is grown from: every cactus is a smaller one with a pendant vertex or a
    cycle attached at one vertex.  Each parent is peeled once, and each of
    its candidates coded from that peel (_attach).  The first candidate with
    a new code represents its class, and the classes keep the order they are
    found in."""
    if n == 1:
        return (Graph(1, frozenset()),), ((),)
    seen: dict[str, tuple[frozenset[tuple[int, int]], Rings]] = {}  # code -> first candidate
    # a pendant vertex is a ring of length 2; a parent (n', k') with
    # 2k' + 1 > n' has no census: nothing to grow
    for length in range(2, n + 1):
        parents = _cactus_census.get((n - length + 1, k if length == 2 else k - 1), ((), ()))
        for h, rings in zip(*parents):
            state = _peel(h.n, rings)
            for v in range(h.n):
                code = _attach(state, rings, v, length)
                if code not in seen:
                    # for a pendant vertex, h.n == n - 1: one edge, twice
                    new = [(v, h.n), (v, n - 1)] + [(u, u + 1) for u in range(h.n, n - 1)]
                    seen[code] = (h.edges.union(new), rings + ((v, *range(h.n, n)),))
                    if len(seen) > limit:
                        raise _over_guard(n, k, limit)
    graphs = tuple(Graph(n, edges) for edges, _ in seen.values())
    return graphs, tuple(rings for _, rings in seen.values())


class _Peel(NamedTuple):
    """What _code's peel finds: the code, and every code it makes on the
    way.  A cut vertex's or a block's code is its code as its parent's
    child; the centre's is its code as the root."""

    code: str  # the centred code
    vcode: list[str]  # each vertex's code, "()" off the cut vertices
    kids: list[list[str]]  # each cut vertex's child blocks' codes, sorted
    home: list[int]  # each vertex's block towards the centre, -1 at the centre
    bcode: list[str]  # each block's code
    top: list[int]  # each block's top vertex, -1 at the centre
    depth: list[int]  # each block's distance from the centre
    cv: int  # the centre if it is a cut vertex, else -1
    cb: int  # the centre if it is a block, else -1
    r: int  # the centre's height: the depth of the deepest blocks


def _code(n: int, rings: Rings) -> str:
    """Centred AHU code of the cactus on vertices 0..n-1 whose blocks are
    rings (a bridge as its two ends, a cycle in cyclic order): equal for two
    cacti exactly when they are isomorphic.  It is cactus_key's code, and
    the oracle for _attach.

    The leaves of the block-cut tree are blocks, so the tree has one centre.
    Peeling it leaf by leaf reaches the centre last and codes each node when
    it is peeled, after all its children.  A non-cut vertex codes as "()", a
    cut vertex as its child blocks' codes, sorted, in brackets.  A block
    codes as its ring's codes after its top vertex, read in the direction
    that gives the lesser string, in parentheses; a root block takes the
    least of its ring's rotations and reflections.  The strings nest, so the
    cost can grow quadratically in n, which census sizes do not feel.
    """
    return _peel(n, rings).code


def _hang(seq: list[str]) -> str:
    """A block's code as a child, from the codes of its ring after its top
    vertex, in ring order (seq is reversed in place)."""
    fwd = "".join(seq)
    seq.reverse()
    bwd = "".join(seq)
    return "(" + (fwd if fwd <= bwd else bwd) + ")"


def _root(seq: list[str]) -> str:
    """A centre block's code, from the codes of its ring in ring order.

    No code is a proper prefix of another (each is one bracketed term), so
    two rotations compare as lists as their joined strings do."""
    rotations = (s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(len(seq)))
    return "(" + "".join(min(rotations)) + ")"


def _peel(n: int, rings: Rings) -> _Peel:
    """The peel that _code describes, and every code it makes on the way."""
    nb = len(rings)
    at: list[list[int]] = [[] for _ in range(n)]
    for b, ring in enumerate(rings):
        for v in ring:
            at[v].append(b)
    home = [a[0] if len(a) == 1 else -1 for a in at]
    vcode = ["()"] * n
    kids: list[list[str]] = [[] for _ in range(n)]
    if not rings:  # K_1, or the empty graph K_0
        return _Peel("()" if n else "", vcode, kids, home, [], [], [], -1, -1, 0)
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
    bcode, top = [""] * nb, [-1] * nb
    peeled: list[int] = []  # the blocks below the centre, in peeling order
    cv = -1
    # peeling blocks can make only cut vertices leaves, and the other way
    # round, so the layers alternate, blocks first
    layer = [b for b in range(nb) if bdeg[b] == 1] if nb > 1 else [0]
    left = nb + len(cuts) - len(layer)
    while left:
        up = []
        for b in layer:
            v, ring = bsum[b], rings[b]
            if len(ring) == 2:
                code = "(" + vcode[ring[0] if ring[1] == v else ring[1]] + ")"
            else:
                i = ring.index(v)
                code = _hang([vcode[u] for u in ring[i + 1 :] + ring[:i]])
            bcode[b], top[b] = code, v
            kids[v].append(code)
            cdeg[v] -= 1
            csum[v] -= b
            if cdeg[v] == 1:
                up.append(v)
        peeled += layer
        left -= len(up)
        for v in up:
            kids[v].sort()
            vcode[v] = "[" + "".join(kids[v]) + "]"
        if not left:
            cv = up[0]
            break
        layer = []
        for v in up:
            b = csum[v]
            home[v] = b
            bdeg[b] -= 1
            bsum[b] -= v
            if bdeg[b] == 1:
                layer.append(b)
        left -= len(layer)
    depth = [0] * nb
    for b in reversed(peeled):
        t = top[b]
        depth[b] = 1 if t == cv else depth[home[t]] + 2
    if cv >= 0:
        return _Peel(vcode[cv], vcode, kids, home, bcode, top, depth, cv, -1, max(depth))
    cb = layer[0]
    code = _root([vcode[v] for v in rings[cb]])
    return _Peel(code, vcode, kids, home, bcode, top, depth, -1, cb, max(depth))


def centred_rings(n: int, rings: Rings) -> list[tuple[int, ...]]:
    """The blocks of the cactus on vertices 0..n-1 whose blocks are rings,
    hung from the centre that _peel finds: each ring rotated to start at its
    top vertex (a centre block's ring as it is), the deepest blocks first,
    so that every block comes after the blocks below it.  Every vertex but
    the last ring's top is a non-top vertex of exactly one ring.  It is the
    sequence indices._rings yields for a profile, rooted at the centre
    instead of block 0, and the ring passes (counting.ring_path_count,
    indices.ring_wiener, indices.ring_subtree_count) read it."""
    state = _peel(n, rings)
    top, depth = state.top, state.depth
    hung = []
    for b in sorted(range(len(rings)), key=depth.__getitem__, reverse=True):
        ring = rings[b]
        i = ring.index(top[b]) if top[b] >= 0 else 0
        hung.append(ring[i:] + ring[:i])
    return hung


def _attach(state: _Peel, rings: Rings, v: int, length: int) -> str:
    """_code of the cactus with blocks rings plus a new block at v: a
    pendant edge when length is 2, else a cycle of that length.  state is
    the cactus's _peel, and only the nodes from v up to the centre are
    recoded.

    The new block is a leaf one below v.  The centre stays where it is
    unless v is a non-cut vertex of a block at the centre's height r (a
    leaf): the new leaf then lies at depth r + 2, and the centre moves one
    node towards v (onto v itself when the cactus is a single block).  The
    old centre is then coded as a child of the new one.
    """
    if not rings:
        return "(" + "()" * length + ")"
    _, vcode, kids, home, bcode, top, depth, cv, cb, r = state
    ks = kids[v] + ["(" + "()" * (length - 1) + ")"]  # the route vertex's child codes
    if v == cv:
        ks.sort()
        return "[" + "".join(ks) + "]"
    moves = depth[home[v]] == r
    t = v
    while True:
        b = home[t]
        ring = rings[b]
        if b == cb and moves:  # t is the new centre, the old one its child
            i = ring.index(t)
            ks.append(_hang([vcode[u] for u in ring[i + 1 :] + ring[:i]]))
            ks.sort()
            return "[" + "".join(ks) + "]"
        ks.sort()
        code = "[" + "".join(ks) + "]"
        if b == cb:
            return _root([code if u == t else vcode[u] for u in ring])
        p = top[b]
        ks = kids[p][:]
        ks.remove(bcode[b])
        if moves and p == cv:  # b is the new centre, the old one its child
            old = "[" + "".join(ks) + "]"
            return _root([code if u == t else old if u == p else vcode[u] for u in ring])
        i = ring.index(p)
        ks.append(_hang([code if u == t else vcode[u] for u in ring[i + 1 :] + ring[:i]]))
        if p == cv:
            ks.sort()
            return "[" + "".join(ks) + "]"
        t = p


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
    """Class counts of the cactus censuses for every feasible k at this n;
    raises ValueError when n < 1, as census_in_generation_order does."""
    if n < 1:
        raise ValueError("need at least one vertex")
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
