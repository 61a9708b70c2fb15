"""Graph rewrites that move a cactus toward the extremal shapes.

Each rewrite validates its own structural preconditions, keeps the input in
the same (n, k) cactus class, and changes the subpath number with a strict,
fixed sign:

  bridge_slide            pn up    absorbs a bridge into an adjacent cycle
  chain_straighten        pn up    lowers branching of the block-cut tree
  shrink_interior_cycle   pn up    moves a vertex from an interior cycle to an end cycle
  balance_end_cycles      pn up    moves a vertex from the big end cycle to the small one
  cycle_to_triangle       pn down  expels a vertex from a long cycle onto a bridge
  split_interior_triangle pn down  strips one branch vertex of an interior triangle

Each rule takes only the graph.  Its free choices (which bridge, which
neighbor, ...) go to the smallest valid labels, so results are
reproducible; the monotonicity holds for every valid choice, which the
tests check by applying each rule to relabelled copies of a graph, where
the smallest labels pick other moves.

The rules read what they need off the profile's block-cut tree, in which a
cycle vertex of degree > 2 is a cut vertex, so no rule reads the graph's
degrees or adjacency.

The fixpoint drivers thread one profile per step: the profile and pn that a
step computes for the graph it builds are the ones the next step reads.  A
driver validates its input once; each step derives the profile of the graph
it builds from the one before with graphs.patch_cactus, which re-decomposes
only the part of the block-cut tree that the step's edges touch, and counts
the new pn once.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass

from .counting import cactus_path_count
from .graphs import (
    CYCLE,
    BlockCutTree,
    CactusProfile,
    Graph,
    _normalize_edge,
    is_cactus_chain,
    patch_cactus,
    validate_cactus,
)


class TransformError(Exception):
    """The rewrite's structural precondition does not hold."""


class FixpointError(Exception):
    """A fixpoint driver exceeded its iteration cap."""


@dataclass(frozen=True)
class TransformResult:
    rule: str
    before: Graph
    after: Graph
    pn_before: int
    pn_after: int
    removed: tuple[tuple[int, int], ...]
    added: tuple[tuple[int, int], ...]

    @property
    def delta(self) -> int:
        return self.pn_after - self.pn_before

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "before": self.before.to_json(),
            "after": self.after.to_json(),
            "pn_before": str(self.pn_before),
            "pn_after": str(self.pn_after),
            "removed": [list(e) for e in self.removed],
            "added": [list(e) for e in self.added],
        }


class _Walk:
    """The graph a fixpoint driver stands at: its profile and, once
    counted, its pn.  _apply moves it on to the graph each step builds."""

    __slots__ = ("profile", "pn")

    def __init__(self, profile: CactusProfile) -> None:
        self.profile = profile
        self.pn: int | None = None


# Set only while a fixpoint driver runs; a context variable, so drivers in
# other threads or tasks each see their own.  The rules keep their public
# signatures, so the driver hands them the profile of the graph it stands
# at through this variable instead of an argument; a rule applied to any
# other graph validates it.
_walk: ContextVar[_Walk | None] = ContextVar("_walk", default=None)


def _profile(g: Graph) -> CactusProfile:
    walk = _walk.get()
    if walk is not None and walk.profile.graph is g:
        return walk.profile
    return validate_cactus(g)


def _apply(rule: str, profile: CactusProfile, removed, added) -> TransformResult:
    g = profile.graph
    removed = tuple(_normalize_edge(u, v) for u, v in removed)
    added = tuple(_normalize_edge(u, v) for u, v in added)
    edges = set(g.edges)
    for e in removed:
        if e not in edges:
            raise ValueError(f"no edge {e} to remove")
        edges.remove(e)
    for e in added:
        if e in edges:
            raise ValueError(f"edge {e} already present")
        edges.add(e)
    after = Graph(g.n, frozenset(edges))
    walk = _walk.get()
    if walk is None or walk.profile is not profile:
        walk = _Walk(profile)  # a rule called on its own: nothing to move on
    pn_before = walk.pn if walk.pn is not None else cactus_path_count(profile)
    walk.profile = patch_cactus(profile, after, removed, added)
    walk.pn = cactus_path_count(walk.profile)
    return TransformResult(
        rule=rule,
        before=g,
        after=after,
        pn_before=pn_before,
        pn_after=walk.pn,
        removed=removed,
        added=added,
    )


def _ring_neighbors(block, u: int) -> tuple[int, int]:
    ring = block.vertices
    i = ring.index(u)
    return ring[i - 1], ring[(i + 1) % len(ring)]


def bridge_slide(g: Graph) -> TransformResult:
    """Reroute a cycle through a bridge endpoint: for a bridge uv with v on
    cycle C and w a neighbor of v on C, replace vw by uw.  The bridge joins
    the enlarged cycle, pn strictly increases, and one bridge disappears."""
    profile = _profile(g)
    if not profile.bridges:
        raise TransformError("bridge_slide needs a bridge")
    tree = profile.tree
    candidates: list[tuple[int, int, int]] = []  # (u, v, w)
    for a, b in profile.bridges:
        for u, v in ((a, b), (b, a)):
            # v lies on a cycle as well as on the bridge only as a cut vertex
            for i in tree.blocks_of_cut_vertex.get(v, ()):
                blk = tree.blocks[i]
                if blk.kind == CYCLE:
                    candidates.extend((u, v, x) for x in _ring_neighbors(blk, v))
    if not candidates:
        raise TransformError("no bridge has an endpoint on a cycle")
    u, v, x = min(candidates)
    return _apply("bridge-slide", profile, removed=[(v, x)], added=[(u, x)])


def _components_without(tree: BlockCutTree, x: int) -> list[list[int]]:
    """The components of the block-cut tree without node x, one per
    neighbour y of x, each listed breadth-first from y.  Nodes are numbered
    as in tree.rooted: blocks 0..B-1, then the cut vertices in increasing
    order."""
    nblocks = len(tree.blocks)
    node, cuts = tree.rooted.node, tree.rooted.cuts

    def neighbors(y: int):
        if y < nblocks:
            return [node[v] for v in tree.incidence[y]]
        return tree.blocks_of_cut_vertex[cuts[y - nblocks]]

    seen = {x}
    comps = []
    for start in neighbors(x):
        comp = [start]
        seen.add(start)
        for y in comp:  # grows while it is read
            for z in neighbors(y):
                if z not in seen:
                    seen.add(z)
                    comp.append(z)
        comps.append(comp)
    return comps


def chain_straighten(g: Graph) -> TransformResult:
    """Detach a cycle from a branch point of the block-cut tree and hang it
    on the far end of a smallest thread, strictly increasing pn."""
    profile = _profile(g)
    if profile.bridges:
        raise TransformError("chain_straighten needs a bridgeless cactus")
    if is_cactus_chain(profile):
        raise TransformError("graph is already a cactus chain")
    tree = profile.tree
    blocks = tree.blocks
    nblocks = len(blocks)
    cuts = tree.rooted.cuts
    degree = [len(c) for c in tree.incidence]
    degree += [len(tree.blocks_of_cut_vertex[v]) for v in cuts]

    def order(x: int) -> tuple[bool, int]:  # cut vertices first, then blocks
        return (x < nblocks, x)

    def is_thread(comp: list[int]) -> bool:
        return all(degree[x] < 3 for x in comp)

    chosen = None
    for t in sorted((x for x, d in enumerate(degree) if d >= 3), key=order):
        comps = _components_without(tree, t)
        if sum(1 for c in comps if not is_thread(c)) <= 1:
            chosen = (t, comps)
            break
    assert chosen is not None  # a deepest branch node always qualifies
    t, comps = chosen

    def comp_key(comp: list[int]) -> tuple[int, tuple[bool, int]]:
        size = len(set().union(*(blocks[x].vertices for x in comp if x < nblocks)))
        return (size, min(map(order, comp)))

    threads = sorted((c for c in comps if is_thread(c)), key=comp_key)
    others = [c for c in comps if not is_thread(c)]
    t1 = threads[0]
    if others:
        tk = others[0]
    else:
        rest = [c for c in comps if c is not t1 and c is not threads[1]]
        tk = max(rest, key=comp_key)

    # tk[0] is the neighbour of t in tk: the block to detach when t is a cut
    # vertex, else the cut vertex at which tk hangs from the block t
    if t >= nblocks:
        u, c_idx = cuts[t - nblocks], tk[0]
    else:
        u = cuts[tk[0] - nblocks]
        c_idx = min(i for i in tree.blocks_of_cut_vertex[u] if i != t)
    v, w = _ring_neighbors(blocks[c_idx], u)

    leaf = min(x for x in t1 if degree[x] == 1)  # a cut vertex has degree >= 2
    z = min(x for x in blocks[leaf].vertices if x not in tree.cut_vertices)
    return _apply(
        "chain-straighten", profile, removed=[(u, v), (u, w)], added=[(z, v), (z, w)]
    )


def _chain_profile(g: Graph) -> CactusProfile:
    profile = _profile(g)
    if not is_cactus_chain(profile):
        raise TransformError("this rewrite needs a bridgeless cactus chain")
    return profile


def shrink_interior_cycle(g: Graph) -> TransformResult:
    """On a cactus chain, pull a non-intersection vertex u out of an interior
    cycle of length >= 4 and splice it into the end cycle on the smaller
    side, strictly increasing pn."""
    profile = _chain_profile(g)
    blocks = profile.tree.blocks
    targets = [i for i in profile.interior_cycles if len(blocks[i]) >= 4]
    if not targets:
        raise TransformError("every interior cycle is already a triangle")
    c_idx = targets[0]
    blk = blocks[c_idx]
    u = min(v for v in blk.vertex_set if v not in profile.intersection_vertices)
    v, w = _ring_neighbors(blk, u)

    sides = [
        set().union(*(blocks[x].vertices for x in comp if x < len(blocks)))
        - blk.vertex_set
        for comp in _components_without(profile.tree, c_idx)
    ]
    assert len(sides) == 2, "an interior cycle splits a chain into two sides"
    side = min(sides, key=lambda c: (len(c), min(c)))
    end_block = next(
        blocks[i] for i in profile.end_cycles if blocks[i].vertex_set & side
    )
    a = min(x for x in end_block.vertices if x not in profile.intersection_vertices)
    b = min(_ring_neighbors(end_block, a))
    return _apply(
        "shrink",
        profile,
        removed=[(u, v), (u, w), (a, b)],
        added=[(u, a), (u, b), (v, w)],
    )


def balance_end_cycles(g: Graph) -> TransformResult:
    """On a cactus chain whose interior cycles are all triangles, move one
    vertex from the larger end cycle to the smaller, strictly increasing
    pn."""
    profile = _chain_profile(g)
    if any(len(profile.tree.blocks[i]) >= 4 for i in profile.interior_cycles):
        raise TransformError("shrink interior cycles to triangles first")
    if len(profile.end_cycles) != 2:
        raise TransformError("needs a chain with two end cycles")
    e1, e2 = (profile.tree.blocks[i] for i in profile.end_cycles)
    big, small = sorted((e1, e2), key=lambda b: (-len(b), b.vertices))
    if len(big) - len(small) <= 1:
        raise TransformError("end cycles already differ by at most one")
    u = min(x for x in big.vertex_set if x not in profile.intersection_vertices)
    v, w = _ring_neighbors(big, u)
    a = min(x for x in small.vertex_set if x not in profile.intersection_vertices)
    b = min(_ring_neighbors(small, a))
    return _apply(
        "balance",
        profile,
        removed=[(u, v), (u, w), (a, b)],
        added=[(v, w), (u, a), (u, b)],
    )


def cycle_to_triangle(g: Graph) -> TransformResult:
    """Shrink a cycle of length >= 4: remove a cycle edge uv and connect v to
    u's other cycle neighbor w, leaving u hanging on the new bridge uw.
    pn strictly decreases (this inverts bridge_slide)."""
    profile = _profile(g)
    candidates: list[tuple[int, int, int]] = []
    for i in profile.cycle_blocks:
        blk = profile.tree.blocks[i]
        if len(blk) < 4:
            continue
        for x in blk.vertices:
            p, q = _ring_neighbors(blk, x)
            candidates.append((x, p, q))
            candidates.append((x, q, p))
    if not candidates:
        raise TransformError("every cycle is already a triangle")
    x, p, q = min(candidates)
    return _apply("to-triangle", profile, removed=[(x, p)], added=[(p, q)])


def split_interior_triangle(g: Graph) -> TransformResult:
    """In an all-triangle cactus, take an interior triangle with branch
    vertices u1, u2 and reattach every outside edge of u2 to u1, strictly
    decreasing pn and making the triangle an end triangle."""
    profile = _profile(g)
    if any(len(profile.tree.blocks[i]) >= 4 for i in profile.cycle_blocks):
        raise TransformError("every cycle must be a triangle first")
    if not profile.interior_cycles:
        raise TransformError("no interior triangle")
    c_idx = profile.interior_cycles[0]
    tree = profile.tree
    u1, u2 = tree.incidence[c_idx][:2]
    # every block is a bridge or a triangle, so u2's neighbours on its other
    # blocks are those blocks' other vertices
    outside = sorted(
        x
        for i in tree.blocks_of_cut_vertex[u2]
        if i != c_idx
        for x in tree.blocks[i].vertices
        if x != u2
    )
    return _apply(
        "split",
        profile,
        removed=[(u2, x) for x in outside],
        added=[(u1, x) for x in outside],
    )


RULES = {
    "bridge-slide": bridge_slide,
    "chain-straighten": chain_straighten,
    "shrink": shrink_interior_cycle,
    "balance": balance_end_cycles,
    "to-triangle": cycle_to_triangle,
    "split": split_interior_triangle,
}


def _fixpoint(g: Graph, cap: int | None, pick) -> tuple[Graph, list[TransformResult]]:
    """Apply the rule pick(profile) names until it names none.  Only g is
    validated; each step patches the profile of the graph it builds and
    counts its pn once."""
    walk = _Walk(validate_cactus(g))
    limit = cap if cap is not None else g.n + walk.profile.k + g.m
    history: list[TransformResult] = []
    token = _walk.set(walk)
    try:
        while (rule := pick(walk.profile)) is not None:
            history.append(rule(walk.profile.graph))
            if len(history) > limit:
                raise FixpointError(f"no fixpoint within {limit} rewrites")
    finally:
        _walk.reset(token)
    return walk.profile.graph, history


def _pick_increasing(profile: CactusProfile):
    if profile.bridges and profile.k >= 1:
        return bridge_slide
    if profile.k < 2:
        return None
    if not is_cactus_chain(profile):
        return chain_straighten
    if any(len(profile.tree.blocks[i]) >= 4 for i in profile.interior_cycles):
        return shrink_interior_cycle
    e1, e2 = (profile.tree.blocks[i] for i in profile.end_cycles)
    return balance_end_cycles if abs(len(e1) - len(e2)) >= 2 else None


def _pick_decreasing(profile: CactusProfile):
    if any(len(profile.tree.blocks[i]) >= 4 for i in profile.cycle_blocks):
        return cycle_to_triangle
    return split_interior_triangle if profile.interior_cycles else None


def maximize_to_fixpoint(
    g: Graph, cap: int | None = None
) -> tuple[Graph, list[TransformResult]]:
    """Apply the pn-increasing rewrites until none fires.  For k >= 2 the
    fixpoint is the balanced pseudo triangle chain; for k = 1 it is the
    cycle; trees admit no rewrite at all."""
    return _fixpoint(g, cap, _pick_increasing)


def minimize_to_fixpoint(
    g: Graph, cap: int | None = None
) -> tuple[Graph, list[TransformResult]]:
    """Apply the pn-decreasing rewrites until every cycle is an end
    triangle."""
    return _fixpoint(g, cap, _pick_decreasing)
