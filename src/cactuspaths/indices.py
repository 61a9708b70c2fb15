"""Wiener index and subtree number, for the cross-comparison sweeps.

wiener and subtree_count work on any graph by brute force and serve as the
oracles.  On a cactus, ring_wiener and ring_subtree_count compute the same
values in one bottom-up pass over its blocks as rings, hung from a root,
with O(n) integer operations.  cactus_wiener and cactus_subtree_count feed
them a profile's rings, rooted at block 0, for the triple of a cactus; the
sweeps feed them each census class's rings, hung from its centre.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .counting import (
    BudgetExceededError,
    cactus_path_count,
    count_paths,
    ring_path_count,
    work_budget,
)
from .graphs import (
    CactusProfile,
    DisconnectedError,
    Graph,
    NotCactusError,
    is_connected,
    validate_cactus,
)


def wiener(g: Graph) -> int:
    """Sum of shortest-path distances over unordered vertex pairs."""
    if not is_connected(g):
        raise DisconnectedError("wiener index requires a connected graph")
    masks = g.adjacency_masks
    total = 0
    for s in range(g.n):
        seen = 1 << s
        frontier = seen
        dist = 0
        while frontier:
            dist += 1
            nxt = 0
            f = frontier
            while f:
                bit = f & -f
                f ^= bit
                nxt |= masks[bit.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
            total += dist * bin(frontier).count("1")
    return total // 2


def subtree_count(g: Graph, budget: int | None = None) -> int:
    """Number of non-empty subtrees: connected acyclic subgraphs, identified
    by their (vertex set, edge set) pair; single vertices count.

    Brute force: grow every tree edge by edge, each step attaching an edge
    that brings in a new vertex, deduplicating grown states.
    """
    limit = work_budget(budget)
    edges = g.sorted_edges
    m = len(edges)
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    steps = 0
    seen: set[tuple[int, int]] = set()
    stack: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(edges):
        state = ((1 << u) | (1 << v), 1 << i)
        seen.add(state)
        stack.append(state)
    while stack:
        vmask, emask = stack.pop()
        grow = vmask
        while grow:
            bit = grow & -grow
            grow ^= bit
            for i in incident[bit.bit_length() - 1]:
                if emask >> i & 1:
                    continue
                u, v = edges[i]
                vbits = (1 << u) | (1 << v)
                newbits = vbits & ~vmask
                if newbits == 0 or newbits == vbits:
                    continue  # both endpoints in (cycle) or unrelated half-check
                steps += 1
                if steps > limit:
                    raise BudgetExceededError(
                        f"subtree enumeration exceeded {limit} growth steps"
                    )
                state = (vmask | vbits, emask | (1 << i))
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return g.n + len(seen)


def _rings(profile: CactusProfile):
    """Every block's vertices, each block after all the blocks below it,
    rotated so that the block's top vertex comes first: the cut vertex to
    its parent block, or the first vertex of the root block.  The rest
    follow in cyclic order.  Every vertex but the root block's top is a
    non-top vertex of exactly one block."""
    tree = profile.tree
    rooted = tree.rooted
    nblocks = len(tree.blocks)
    for x in reversed(rooted.order):
        if x >= nblocks:
            continue
        ring = tree.blocks[x].vertices
        p = rooted.parent[x]
        t = ring.index(rooted.cuts[p - nblocks]) if p >= 0 else 0
        yield ring[t:] + ring[:t]


def cactus_subtree_count(profile: CactusProfile) -> int:
    """Subtree number of a cactus, equal to subtree_count: ring_subtree_count
    over the profile's rings (_rings)."""
    return ring_subtree_count(profile.graph.n, _rings(profile))


def ring_subtree_count(n: int, rings: Iterable[Sequence[int]]) -> int:
    """Subtree number of the cactus on vertices 0..n-1 whose blocks are
    rings, each starting at its top vertex and listed after every block
    below it, as _rings and census.centred_rings list them.

    F[v] counts the subtrees whose top vertex is v: a product over the
    blocks below v.  A bridge to u gives 1 + F[u].  A cycle whose ring
    below v is u_1..u_{L-1} gives the arcs through v that miss at least one
    ring edge, sum over i + j <= L-1 of P(i)*Q(j), with P and Q the prefix
    products of F along the two directions.  The subtrees with no single
    top vertex are a ring's arcs of two or more vertices that avoid its top.
    """
    if n == 0:
        return 0
    F = [1] * n
    total = 0
    top = 0  # after the loop: the last ring's top, or the lone vertex
    for top, *below in rings:
        if len(below) == 1:
            factor = 1 + F[below[0]]
        else:
            q, sq, sums = 1, 1, [1]  # sums[m] = Q(0) + ... + Q(m)
            for u in reversed(below):
                q *= F[u]
                sq += q
                sums.append(sq)
            p, factor = 1, sums[-1]
            arcs = ends = 0  # ends: arcs of the ring below ending at u
            for i, u in enumerate(below, 1):
                f = F[u]
                p *= f
                factor += p * sums[len(below) - i]
                arcs += f * ends
                ends = f * (1 + ends)
            total += arcs
        for u in below:
            total += F[u]
            F[u] = 0  # u is done: free its big integer
        F[top] *= factor
    return total + F[top]


def _ring_distances(w: list[int]) -> int:
    """Sum over i < j of w_i * w_j * min(j - i, L - j + i), L = len(w), in
    O(L) with prefix sums of w_i and i * w_i."""
    half = len(w) // 2
    ws = [0]  # ws[k] = w_0 + ... + w_{k-1}
    iws = [0]  # iws[k] = 0*w_0 + ... + (k-1)*w_{k-1}
    for i, x in enumerate(w):
        ws.append(ws[-1] + x)
        iws.append(iws[-1] + i * x)
    total = 0
    for j, x in enumerate(w):
        a = max(0, j - half)  # i in [a, j) is at most half the ring back
        near = j * (ws[j] - ws[a]) - (iws[j] - iws[a])
        far = (len(w) - j) * ws[a] + iws[a]
        total += x * (near + far)
    return total


def cactus_wiener(profile: CactusProfile) -> int:
    """Wiener index of a cactus, equal to wiener: ring_wiener over the
    profile's rings (_rings)."""
    return ring_wiener(profile.graph.n, _rings(profile))


def ring_wiener(n: int, rings: Iterable[Sequence[int]]) -> int:
    """Wiener index of the cactus on vertices 0..n-1 whose blocks are rings,
    listed as ring_subtree_count takes them.

    A shortest path crosses each block between the ring positions at which
    its ends hang, so each block adds sum over i < j of w_i * w_j * d(i, j),
    where w_i counts the vertices hanging at ring position i and d is the
    distance along the ring (1 for a bridge).
    """
    hang = [1] * n  # hang[v]: v and everything below it
    total = 0
    for top, *below in rings:
        w = [hang[u] for u in below]
        size = sum(w)
        total += _ring_distances([n - size] + w)
        hang[top] += size
    return total


def cactus_counters() -> dict[str, Callable[[CactusProfile], int]]:
    """The linear counter of each invariant on a cactus profile, by the name
    that the CLI, the sweeps' invariant lists and InvariantTriple's fields
    use.  The sweeps evaluate census classes with ring_counters instead.
    Built on each call from this module's names, so that a wrapper put over
    one of them, as perfbench/tracer.py does, sees the calls."""
    return {"pn": cactus_path_count, "wiener": cactus_wiener, "subtrees": cactus_subtree_count}


def ring_counters() -> dict[str, Callable[[int, Iterable[Sequence[int]]], int]]:
    """The ring pass of each invariant, by cactus_counters' names: each takes
    n and a cactus's hung rings (census.centred_rings)."""
    return {"pn": ring_path_count, "wiener": ring_wiener, "subtrees": ring_subtree_count}


@dataclass(frozen=True)
class InvariantTriple:
    """Subpath number, Wiener index, and subtree number of one graph."""

    pn: int
    wiener: int
    subtrees: int

    def to_json(self) -> dict:
        return {
            "pn": str(self.pn),
            "wiener": str(self.wiener),
            "subtrees": str(self.subtrees),
        }


def invariant_triple(g: Graph, budget: int | None = None) -> InvariantTriple:
    """All three invariants of a connected graph: the linear cactus
    counters on a cactus, the brute-force ones (bounded by the budget)
    otherwise."""
    try:
        profile = validate_cactus(g)
    except DisconnectedError:
        raise DisconnectedError("invariant_triple requires a connected graph") from None
    except NotCactusError:
        return InvariantTriple(
            count_paths(g, budget=budget), wiener(g), subtree_count(g, budget=budget)
        )
    return InvariantTriple(**{name: count(profile) for name, count in cactus_counters().items()})
