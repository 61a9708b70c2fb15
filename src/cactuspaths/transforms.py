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

Each rule is a private move, which reads a profile and returns the edges it
removes and adds, behind a public wrapper that validates the graph, counts
its pn and applies the move with _step.  A fixpoint driver applies the
first move of its direction, in table order, that does not raise
TransformError, so each precondition is stated once, in its move.  It
validates its input and counts its pn once and passes each step's profile
and pn on explicitly: each _step derives the profile of the graph it builds
from the one before with graphs.patch_cactus, which re-decomposes only the
blocks of the smallest subtree of the block-cut tree that holds every
endpoint of the step's edges, and counts the new pn once.  Shrink
and balance move one vertex from one cycle to another, and the patch
decomposes nothing for them: it builds the two new rings and keeps the cut
set, the incidence and every other block.  The patch carries tree.rooted
too, spliced in the region it changes, so a driver builds the rooted tree
from scratch only for its input and for a step that changes block 0, the
root.

A driver logs each step as a move, (rule, pn after, edges removed, edges
added), and drops the step's graph at the next step.  It returns a
read-only sequence of TransformResult, rebuilt on access from its input
graph and the move log, so a run holds O(n + steps) memory, not a graph
per step.  history[i] replays i steps, so read a whole history by
iterating it.

chain_straighten finds its branch node from per-subtree counts of branch
nodes in one pass over tree.rooted, and one more pass labels each node with
the neighbour of the branch node through which it hangs, by which it groups
the nodes around it.  shrink_interior_cycle reads its cycle's two sides off
runs of tree.rooted's order and rings: a child cut node's run, and all
outside the cycle's run.  A block adds its ring's vertices but its top to a
side, so a side's vertices are counted without a pass over the vertices.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator, Sequence
from itertools import islice

from ._record import Record
from .counting import cactus_path_count
from .graphs import (
    CactusProfile,
    Graph,
    RootedBlockCutTree,
    _normalize_edge,
    is_cactus_chain,
    patch_cactus,
    validate_cactus,
)


class TransformError(Exception):
    """The rewrite's structural precondition does not hold."""


class FixpointError(Exception):
    """A fixpoint driver exceeded its iteration cap."""


class TransformResult(Record):
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


# a rule's move: the edges it removes and the edges it adds
_Move = tuple[list[tuple[int, int]], list[tuple[int, int]]]
# the edges a step removed and added, each normalized
_Edges = tuple[tuple[int, int], ...]


def _step(profile: CactusProfile, move: _Move) -> tuple[CactusProfile, int, _Edges, _Edges]:
    """Apply move to the graph of profile: the profile and pn of the graph
    it builds, and the edges it removed and added."""
    g = profile.graph
    removed, added = (tuple(_normalize_edge(u, v) for u, v in es) for es in move)
    edges = set(g.edges)
    for e in removed:
        if e not in edges:
            raise ValueError(f"no edge {e} to remove")
        edges.remove(e)
    for e in added:
        if e in edges:
            raise ValueError(f"edge {e} already present")
        edges.add(e)
    profile = patch_cactus(profile, Graph(g.n, frozenset(edges)), removed, added)
    return profile, cactus_path_count(profile), removed, added


def _apply(rule: str, g: Graph) -> TransformResult:
    """The step of the named rule on g, outside a driver."""
    profile = validate_cactus(g)
    move = _MOVES[rule](profile)
    pn = cactus_path_count(profile)
    after, pn_after, removed, added = _step(profile, move)
    return TransformResult(rule, g, after.graph, pn, pn_after, removed, added)


def _ring_neighbors(block, u: int) -> tuple[int, int]:
    ring = block.vertices
    i = ring.index(u)
    return ring[i - 1], ring[(i + 1) % len(ring)]


def bridge_slide(g: Graph) -> TransformResult:
    """Reroute a cycle through a bridge endpoint: for a bridge uv with v on
    cycle C and w a neighbor of v on C, replace vw by uw.  The bridge joins
    the enlarged cycle, pn strictly increases, and one bridge disappears."""
    return _apply("bridge-slide", g)


def _bridge_slide(profile: CactusProfile) -> _Move:
    if not profile.bridges:
        raise TransformError("bridge_slide needs a bridge")
    tree = profile.tree
    far: dict[int, list[int]] = {}  # each bridge endpoint, to the other ends
    for a, b in profile.bridges:
        far.setdefault(a, []).append(b)
        far.setdefault(b, []).append(a)
    candidates: list[tuple[int, int, int]] = []  # (u, v, w)
    for i in profile.cycle_blocks:
        # v lies on a cycle as well as on a bridge only as a cut vertex
        for v in tree.incidence[i]:
            for u in far.get(v, ()):
                candidates.extend((u, v, x) for x in _ring_neighbors(tree.blocks[i], v))
    if not candidates:
        raise TransformError("no bridge has an endpoint on a cycle")
    u, v, x = min(candidates)
    return [(v, x)], [(u, x)]


def _neighbour_labels(rooted: RootedBlockCutTree, x: int) -> list[int]:
    """For each node of the tree other than x, the neighbour of x through
    which it hangs: a child of x below x, else x's parent.  One pass over
    rooted.order, parents first; the entry at x itself means nothing."""
    parent = rooted.parent
    label = [parent[x]] * len(parent)
    for y in rooted.order[1:]:
        p = parent[y]
        label[y] = y if p == x else label[p]
    return label


def chain_straighten(g: Graph) -> TransformResult:
    """Detach a cycle from a branch point of the block-cut tree and hang it
    on the far end of a smallest thread, strictly increasing pn."""
    return _apply("chain-straighten", g)


def _chain_straighten(profile: CactusProfile) -> _Move:
    if profile.bridges:
        raise TransformError("chain_straighten needs a bridgeless cactus")
    if is_cactus_chain(profile):
        raise TransformError("graph is already a cactus chain")
    tree = profile.tree
    rooted = tree.rooted
    blocks = tree.blocks
    nblocks = len(blocks)
    cuts = rooted.cuts
    # a block's neighbours are its cut vertices, a cut node's its children
    # and its parent
    children = Counter(rooted.parent)
    degree = [len(c) for c in tree.incidence]
    degree += [children[x] + 1 for x in range(nblocks, nblocks + len(cuts))]

    def order(x: int) -> tuple[bool, int]:  # cut vertices first, then blocks
        return (x < nblocks, x)

    def is_thread(comp: list[int]) -> bool:
        return all(degree[x] < 3 for x in comp)

    # the branch nodes in each subtree of tree.rooted, and the children of
    # each node whose subtrees hold one
    below = [int(d >= 3) for d in degree]
    branched = [0] * len(degree)
    for x in reversed(rooted.order[1:]):  # children before parents
        p = rooted.parent[x]
        below[p] += below[x]
        branched[p] += below[x] > 0
    # take the first branch node t in order at which at most one component
    # of the tree without t is not a thread: one per child subtree, and the
    # part above t; a deepest branch node always qualifies
    t = next(
        x
        for x in (*range(nblocks, len(degree)), *range(nblocks))
        if degree[x] >= 3 and branched[x] + (below[x] < below[0]) <= 1
    )
    # the components of the tree without t, each keyed by t's neighbour in it
    comps: dict[int, list[int]] = {}
    for x, y in enumerate(_neighbour_labels(rooted, t)):
        if x != t:
            comps.setdefault(y, []).append(x)

    def comp_key(y: int) -> tuple[int, tuple[bool, int]]:
        comp = comps[y]
        size = len(set().union(*(blocks[x].vertices for x in comp if x < nblocks)))
        return (size, min(map(order, comp)))

    threads = sorted((y for y, c in comps.items() if is_thread(c)), key=comp_key)
    others = [y for y, c in comps.items() if not is_thread(c)]
    t1 = comps[threads[0]]
    if others:
        tk = others[0]
    else:
        tk = max((y for y in comps if y not in threads[:2]), key=comp_key)

    # tk is the neighbour of t in its component: the block to detach when t
    # is a cut vertex, else the cut vertex at which it hangs from the block t
    if t >= nblocks:
        u, c_idx = cuts[t - nblocks], tk
    else:
        u = cuts[tk - nblocks]
        parent = rooted.parent
        c_idx = min(x for x in comps[tk] if parent[x] == tk or x == parent[tk])
    v, w = _ring_neighbors(blocks[c_idx], u)

    leaf = min(x for x in t1 if degree[x] == 1)  # a cut vertex has degree >= 2
    z = min(x for x in blocks[leaf].vertices if x not in tree.cut_vertices)
    return [(u, v), (u, w)], [(z, v), (z, w)]


def _require_chain(profile: CactusProfile) -> None:
    if not is_cactus_chain(profile):
        raise TransformError("this rewrite needs a bridgeless cactus chain")


def _transfer(profile: CactusProfile, source, target) -> tuple[int, int, int, int, int]:
    """The vertex move of shrink and balance, as (u, v, w, a, b): u is the
    least vertex of ring source on no other cycle, with ring neighbours v
    and w, and it goes between the least such vertex a of ring target and
    a's lesser ring neighbour b."""
    shared = profile.intersection_vertices
    u = min(x for x in source.vertices if x not in shared)
    v, w = _ring_neighbors(source, u)
    a = min(x for x in target.vertices if x not in shared)
    return u, v, w, a, min(_ring_neighbors(target, a))


def shrink_interior_cycle(g: Graph) -> TransformResult:
    """On a cactus chain, pull a non-intersection vertex u out of an interior
    cycle of length >= 4 and splice it into the end cycle on the smaller
    side, strictly increasing pn."""
    return _apply("shrink", g)


def _shrink_interior_cycle(profile: CactusProfile) -> _Move:
    _require_chain(profile)
    blocks = profile.tree.blocks
    targets = [i for i in profile.interior_cycles if len(blocks[i]) >= 4]
    if not targets:
        raise TransformError("every interior cycle is already a triangle")
    c_idx = targets[0]

    # The cycle's two cut vertices split the chain into two sides: below a
    # child cut node, that node's run of the tree's order, and above the
    # parent cut node, all outside the cycle's run.  Every vertex but the
    # root's top is a non-top vertex of exactly one ring, so a side has as
    # many vertices as its blocks' rings have non-top vertices: above the
    # cycle, its cut vertex there is counted in place of the root's top.
    rooted = profile.tree.rooted
    order, sizes, rings, mask = rooted.order, rooted.sizes, rooted.rings, rooted.block_mask
    nblocks = len(blocks)
    sides = []  # (vertex count, rings, cut vertex on the cycle, run of order, inside the run)
    for hub in profile.tree.incidence[c_idx]:
        x = nblocks + bisect_left(rooted.cuts, hub)
        inside = x != rooted.parent[c_idx]
        if not inside:
            x = c_idx
        i = order.index(x)
        run = range(i, i + sizes[x])
        hi = nblocks - mask.count(1, 0, i)  # the run's blocks have the rings [lo:hi]
        lo = hi - mask.count(1, i, run.stop)
        ring_run = rings[lo:hi] if inside else rings[:lo] + rings[hi:]
        sides.append((sum(map(len, ring_run)) - len(ring_run), ring_run, hub, run, inside))
    assert len(sides) == 2, "an interior cycle splits a chain into two sides"

    def least(side) -> int:
        _, ring_run, hub, _, _ = side
        return min(x for ring in ring_run for x in ring if x != hub)

    # u goes to the side with fewer vertices, then to the one with the
    # lesser least vertex
    key = least if sides[0][0] == sides[1][0] else operator.itemgetter(0)
    _, _, _, run, inside = min(sides, key=key)
    end_block = next(blocks[e] for e in profile.end_cycles if (order.index(e) in run) == inside)
    u, v, w, a, b = _transfer(profile, blocks[c_idx], end_block)
    return [(u, v), (u, w), (a, b)], [(u, a), (u, b), (v, w)]


def balance_end_cycles(g: Graph) -> TransformResult:
    """On a cactus chain whose interior cycles are all triangles, move one
    vertex from the larger end cycle to the smaller, strictly increasing
    pn."""
    return _apply("balance", g)


def _balance_end_cycles(profile: CactusProfile) -> _Move:
    _require_chain(profile)
    if any(len(profile.tree.blocks[i]) >= 4 for i in profile.interior_cycles):
        raise TransformError("shrink interior cycles to triangles first")
    if len(profile.end_cycles) != 2:
        raise TransformError("needs a chain with two end cycles")
    e1, e2 = (profile.tree.blocks[i] for i in profile.end_cycles)
    big, small = sorted((e1, e2), key=lambda b: (-len(b), b.vertices))
    if len(big) - len(small) <= 1:
        raise TransformError("end cycles already differ by at most one")
    u, v, w, a, b = _transfer(profile, big, small)
    return [(u, v), (u, w), (a, b)], [(v, w), (u, a), (u, b)]


def cycle_to_triangle(g: Graph) -> TransformResult:
    """Shrink a cycle of length >= 4: remove a cycle edge uv and connect v to
    u's other cycle neighbor w, leaving u hanging on the new bridge uw.
    pn strictly decreases (this inverts bridge_slide)."""
    return _apply("to-triangle", g)


def _cycle_to_triangle(profile: CactusProfile) -> _Move:
    rings = [profile.tree.blocks[i].vertices for i in profile.cycle_blocks]
    rings = [r for r in rings if len(r) >= 4]
    if not rings:
        raise TransformError("every cycle is already a triangle")
    # a ring starts at its least vertex and steps first to that vertex's
    # smaller neighbour, so the least (x, p, q) of each ring is its start
    x, p, q = min((r[0], r[1], r[-1]) for r in rings)
    return [(x, p)], [(p, q)]


def split_interior_triangle(g: Graph) -> TransformResult:
    """In an all-triangle cactus, take an interior triangle with branch
    vertices u1, u2 and reattach every outside edge of u2 to u1, strictly
    decreasing pn and making the triangle an end triangle."""
    return _apply("split", g)


def _split_interior_triangle(profile: CactusProfile) -> _Move:
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
        for i, cuts in enumerate(tree.incidence)
        if u2 in cuts and i != c_idx
        for x in tree.blocks[i].vertices
        if x != u2
    )
    return [(u2, x) for x in outside], [(u1, x) for x in outside]


RULES = {
    "bridge-slide": bridge_slide,
    "chain-straighten": chain_straighten,
    "shrink": shrink_interior_cycle,
    "balance": balance_end_cycles,
    "to-triangle": cycle_to_triangle,
    "split": split_interior_triangle,
}

_MOVES = {
    "bridge-slide": _bridge_slide,
    "chain-straighten": _chain_straighten,
    "shrink": _shrink_interior_cycle,
    "balance": _balance_end_cycles,
    "to-triangle": _cycle_to_triangle,
    "split": _split_interior_triangle,
}


# each direction's rules in table order, the order in which a driver tries them
_INCREASING = ("bridge-slide", "chain-straighten", "shrink", "balance")
_DECREASING = ("to-triangle", "split")


class _History(Sequence[TransformResult]):
    """A driver's steps as a read-only sequence of TransformResult, rebuilt
    on access from the input graph, its pn and the move log: one
    (rule, pn_after, removed, added) per step.  Iterating replays the log
    forward on one edge set, so each step's before is the previous step's
    after and step 0's before is the input graph; history[i] replays i
    steps, so read a whole history by iterating it."""

    __slots__ = ("_graph", "_pn", "_log")

    def __init__(
        self, g: Graph, pn: int, log: list[tuple[str, int, _Edges, _Edges]]
    ) -> None:
        self._graph = g
        self._pn = pn
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def __iter__(self) -> Iterator[TransformResult]:
        before, pn = self._graph, self._pn
        edges = set(before.edges)
        for rule, pn_after, removed, added in self._log:
            edges.difference_update(removed)
            edges.update(added)
            after = Graph(before.n, frozenset(edges))
            yield TransformResult(rule, before, after, pn, pn_after, removed, added)
            before, pn = after, pn_after

    def __getitem__(self, i):
        if isinstance(i, slice):
            wanted = range(*i.indices(len(self)))
            if not wanted:
                return []
            steps = islice(enumerate(self), max(wanted) + 1)
            picked = {j: step for j, step in steps if j in wanted}
            return [picked[j] for j in wanted]
        j = operator.index(i)
        if j < 0:
            j += len(self)
        if not 0 <= j < len(self):
            raise IndexError("history index out of range")
        return next(islice(self, j, None))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (_History, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _fixpoint(
    g: Graph, cap: int | None, rules: tuple[str, ...]
) -> tuple[Graph, Sequence[TransformResult]]:
    """Apply the first of rules whose move does not raise TransformError
    until every one raises.  Only g is validated and counted from scratch;
    each step patches the profile of the graph it builds and counts its pn
    once.  The run holds g, the current profile and the move log."""
    profile = validate_cactus(g)
    pn = pn_in = cactus_path_count(profile)
    limit = cap if cap is not None else g.n + profile.k + g.m
    log: list[tuple[str, int, _Edges, _Edges]] = []
    while True:
        for rule in rules:
            try:
                move = _MOVES[rule](profile)
            except TransformError:
                continue
            break
        else:
            return profile.graph, _History(g, pn_in, log)
        profile, pn, removed, added = _step(profile, move)
        log.append((rule, pn, removed, added))
        if len(log) > limit:
            raise FixpointError(f"no fixpoint within {limit} rewrites")


def maximize_to_fixpoint(
    g: Graph, cap: int | None = None
) -> tuple[Graph, Sequence[TransformResult]]:
    """Apply the pn-increasing rewrites until none fires.  For k >= 2 the
    fixpoint is the balanced pseudo triangle chain; for k = 1 it is the
    cycle; trees admit no rewrite at all.

    Returns the fixpoint and the history: a read-only sequence of the
    steps' TransformResults, rebuilt on access from g and a move log, so a
    run holds O(n + steps) memory.  history[i] replays i steps, so read a
    whole history by iterating it."""
    return _fixpoint(g, cap, _INCREASING)


def minimize_to_fixpoint(
    g: Graph, cap: int | None = None
) -> tuple[Graph, Sequence[TransformResult]]:
    """Apply the pn-decreasing rewrites until every cycle is an end
    triangle.  Returns the fixpoint and a history as maximize_to_fixpoint
    does."""
    return _fixpoint(g, cap, _DECREASING)
