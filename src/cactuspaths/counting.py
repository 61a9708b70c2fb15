"""Exact subpath counting.

The subpath number of a graph is the number of its simple paths, counting
the n trivial single-vertex paths and counting every nontrivial path once
per unordered endpoint pair.  count_paths / count_paths_between enumerate
paths directly and serve as the oracle for everything else.  On a cactus
the x-y paths number 2^c, with c the cycles on the block-cut-tree route
between x and y: cycles_on_route and cactus_count_between read c off the
rooted tree, and ring_path_count sums the rule over all pairs in one pass
over the cactus's hung rings, with O(n) integer operations.
cactus_path_count runs it on a profile's rings, the census's sweeps on each
class's stored rings.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence

from .graphs import CYCLE, CactusProfile, Graph, edge_components

DEFAULT_BUDGET = 10**9
_BUDGET_ENV = "CACTUSPATHS_BUDGET"


class BudgetExceededError(Exception):
    """The exhaustive search exceeded its extension-step budget."""


def work_budget(budget: int | None = None) -> int:
    """Explicit budget, else the CACTUSPATHS_BUDGET env var, else the default."""
    if budget is None:
        env = os.environ.get(_BUDGET_ENV)
        budget = DEFAULT_BUDGET if env is None else int(env)
    if budget <= 0:
        raise ValueError("work budget must be positive")
    return budget


def count_paths(g: Graph, budget: int | None = None) -> int:
    """Total number of simple paths in g, by exhaustive extension.

    Works per connected component, with vertex masks indexed within the
    component, so disconnected inputs are fine; a vertex without edges has
    only its trivial path, so only the components with an edge are
    searched, in memory O(m) whatever n is.  Each nontrivial path is
    counted once by requiring start < end.  Every start vertex and every
    extension costs one step of the budget, the start vertices up front.
    """
    limit = work_budget(budget)
    steps = g.n
    if steps > limit:
        raise BudgetExceededError(f"path enumeration exceeded {limit} extension steps")
    total = g.n  # trivial length-0 paths
    nbrs, comps = edge_components(g)
    for comp in comps:
        pos = {v: i for i, v in enumerate(comp)}  # index within the component
        masks = [0] * len(comp)
        for i, v in enumerate(comp):
            for u in nbrs[v]:
                masks[i] |= 1 << pos[u]
        for s in range(len(comp)):
            stack = [(s, 1 << s)]
            while stack:
                v, visited = stack.pop()
                ext = masks[v] & ~visited
                while ext:
                    bit = ext & -ext
                    ext ^= bit
                    steps += 1
                    if steps > limit:
                        raise BudgetExceededError(
                            f"path enumeration exceeded {limit} extension steps"
                        )
                    u = bit.bit_length() - 1
                    if u > s:
                        total += 1
                    stack.append((u, visited | bit))
    return total


def count_paths_between(g: Graph, x: int, y: int, budget: int | None = None) -> int:
    """Number of simple x-y paths in g, by exhaustive extension: a depth-first
    search over g.adjacency that charges one budget step per extension."""
    if x == y:
        raise ValueError("endpoints must be distinct")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError("vertex out of range")
    limit = work_budget(budget)
    adj = g.adjacency
    on_path = bytearray(g.n)
    on_path[x] = 1
    path = [(x, iter(adj[x]))]  # each path vertex with the neighbours left to try
    steps = 0
    total = 0
    while path:
        for u in path[-1][1]:
            if on_path[u]:
                continue
            steps += 1
            if steps > limit:
                raise BudgetExceededError(
                    f"path enumeration exceeded {limit} extension steps"
                )
            if u == y:
                total += 1
                continue  # a simple path cannot revisit y later
            on_path[u] = 1
            path.append((u, iter(adj[u])))
            break
        else:  # every extension of the path is done: backtrack
            on_path[path.pop()[0]] = 0
    return total


def cycles_on_route(profile: CactusProfile, x: int, y: int) -> int:
    """Count the cycle blocks on the block-tree path between x and y.

    A cut-vertex endpoint contributes no block of its own, so only cycles
    strictly between the endpoints (plus a shared cycle block) are counted.
    """
    if x == y:
        raise ValueError("endpoints must be distinct")
    if not (0 <= x < profile.graph.n and 0 <= y < profile.graph.n):
        raise ValueError("vertex out of range")
    blocks = profile.tree.blocks
    tree = profile.tree.rooted
    a, b = tree.node[x], tree.node[y]
    cycles = 0
    while True:  # climb from the deeper end until the routes meet
        if tree.depth[a] < tree.depth[b]:
            a, b = b, a
        cycles += a < len(blocks) and blocks[a].kind == CYCLE
        if a == b:
            return cycles
        a = tree.parent[a]


def cactus_count_between(profile: CactusProfile, x: int, y: int) -> int:
    """Number of simple x-y paths in a cactus: 2^c with c cycles en route."""
    return 1 << cycles_on_route(profile, x, y)


def cactus_path_count(profile: CactusProfile) -> int:
    """Subpath number of a cactus: ring_path_count over the profile's hung
    rings (RootedBlockCutTree.rings)."""
    return ring_path_count(profile.graph.n, profile.tree.rooted.rings)


def ring_path_count(n: int, rings: Iterable[Sequence[int]]) -> int:
    """Subpath number of the cactus on vertices 0..n-1 whose blocks are
    rings, each starting at its top vertex and listed after every block
    below it (graphs.Rings): n + sum over unordered pairs of 2^c, with O(n)
    integer operations.

    S[v] sums, over the vertices x hanging at or below v, the number of
    x-v paths.  A ring with top t and below-values a_i = S[u_i] joins the
    pairs whose routes meet at it: w * (sum over i < j of a_i * a_j, plus
    S[t] times the sum of the a_i), with w = 2 for a cycle and 1 for a
    bridge.  Then S[t] gains w times the sum of the a_i.
    """
    S = [1] * n
    total = n
    for ring in rings:
        below = iter(ring)
        t = next(below)
        run = pairs = 0
        for u in below:
            a = S[u]
            pairs += run * a
            run += a
            S[u] = 0  # u is done: free its big integer
        w = 2 if len(ring) > 2 else 1
        total += w * (pairs + S[t] * run)
        S[t] += w * run
    return total
