"""Exact subpath counting.

The subpath number of a graph is the number of its simple paths, counting
the n trivial single-vertex paths and counting every nontrivial path once
per unordered endpoint pair.  count_paths / count_paths_between enumerate
paths directly and serve as the oracle for everything else; the cactus
counters use the 2^c pair rule on the rooted block-cut tree instead, and
cactus_path_count needs O(n) integer operations.  ring_path_count applies
the same rule to a cactus given as its hung rings, as the census holds it.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from .graphs import CactusProfile, Graph, connected_components

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
    component, so disconnected inputs are fine.  Each nontrivial path is
    counted once by requiring start < end.  Every start vertex and every
    extension costs one step of the budget.
    """
    limit = work_budget(budget)
    if g.n > limit:  # more start vertices than steps: refused before allocating
        raise BudgetExceededError(f"path enumeration exceeded {limit} extension steps")
    total = g.n  # trivial length-0 paths
    steps = 0
    adj = g.adjacency
    pos = [0] * g.n  # index of each vertex within its component
    for comp in connected_components(g):
        steps += len(comp)  # one per start vertex
        if steps > limit:
            raise BudgetExceededError(f"path enumeration exceeded {limit} extension steps")
        if len(comp) == 1:
            continue
        for i, v in enumerate(comp):
            pos[v] = i
        masks = [0] * len(comp)
        for i, v in enumerate(comp):
            for u in adj[v]:
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
    tree = profile.tree.rooted
    a, b = tree.node[x], tree.node[y]
    cycles = 0
    while a != b:  # climb from the deeper end until the routes meet
        if tree.depth[a] < tree.depth[b]:
            a, b = b, a
        cycles += tree.weight[a] == 2
        a = tree.parent[a]
    return cycles + (tree.weight[a] == 2)


def cactus_count_between(profile: CactusProfile, x: int, y: int) -> int:
    """Number of simple x-y paths in a cactus: 2^c with c cycles en route."""
    return 1 << cycles_on_route(profile, x, y)


def cactus_path_count(profile: CactusProfile) -> int:
    """Subpath number of a cactus: n + sum over unordered pairs of 2^c.

    One bottom-up pass over the rooted block-cut tree.  A[x] sums, over the
    vertices v below x, the product of the weights from node[v] up to x:
    A[x] = w_x * (occ_x + sum of A over the children of x).  The pairs whose
    routes meet at x contribute w_x times the sum of products of distinct
    terms of occ_x, A[child], ..., taken with a running sum.
    """
    g = profile.graph
    if g.n <= 1:
        return g.n
    tree = profile.tree.rooted
    below = list(tree.occupants)  # occ_x + sum of A[child], filled bottom-up
    pairs = [c * (c - 1) // 2 for c in tree.occupants]
    total = g.n
    for x in reversed(tree.order):
        w = tree.weight[x]
        total += w * pairs[x]
        p = tree.parent[x]
        if p >= 0:
            a = w * below[x]
            pairs[p] += below[p] * a
            below[p] += a
        below[x] = pairs[x] = 0  # x is done: free its big integers
    return total


def ring_path_count(n: int, rings: Iterable[Sequence[int]]) -> int:
    """Subpath number of the cactus on vertices 0..n-1 whose blocks are
    rings, each starting at its top vertex and listed after every block
    below it (census.centred_rings); equal to cactus_path_count.

    S[v] sums, over the vertices x hanging at or below v, the number of
    x-v paths.  A ring with top t and below-values a_i = S[u_i] joins the
    pairs whose routes meet at it: w * (sum over i < j of a_i * a_j, plus
    S[t] times the sum of the a_i), with w = 2 for a cycle and 1 for a
    bridge.  Then S[t] gains w times the sum of the a_i.
    """
    S = [1] * n
    total = n
    for t, *below in rings:
        run = pairs = 0
        for u in below:
            a = S[u]
            pairs += run * a
            run += a
            S[u] = 0  # u is done: free its big integer
        w = 2 if len(below) > 1 else 1
        total += w * (pairs + S[t] * run)
        S[t] += w * run
    return total
