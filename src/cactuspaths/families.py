"""Deterministic constructors for the named graph families.

All constructors hand out the same labeled graph for the same inputs, so
golden tests and reports are reproducible.
"""

from __future__ import annotations

from ._record import Record
from .formulas import _pfg_domain, ptc_shape
from .graphs import Graph


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("need at least one vertex")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star with center 0 and n-1 leaves."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return Graph.from_edges(n, ((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("need at least one vertex")
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle_chain(lengths: list[int]) -> Graph:
    """Chain of cycles, consecutive cycles sharing exactly one vertex.

    The first cycle takes labels 0..lengths[0]-1; each later cycle enters at
    the previous cycle's last fresh vertex and adds length-1 fresh vertices.
    """
    if not lengths:
        raise ValueError("need at least one cycle")
    if any(l < 3 for l in lengths):
        raise ValueError("every cycle length must be at least 3")
    edges: list[tuple[int, int]] = []
    shared, nxt = 0, 1
    for length in lengths:
        ring = [shared] + list(range(nxt, nxt + length - 1))
        nxt += length - 1
        edges.extend(zip(ring, ring[1:] + ring[:1]))
        shared = ring[-1]
    return Graph.from_edges(nxt, edges)


def pseudo_triangle_chain(n: int, k: int) -> Graph:
    """PTC(n, k): cycle chain whose interior cycles are all triangles and
    whose end cycles differ in length by at most one (larger end first)."""
    shape = ptc_shape(n, k)
    lengths = [shape.n1] + [3] * (k - 2) + [shape.n2]
    g = cycle_chain(lengths)
    assert g.n == n
    return g


def pseudo_friendship(n: int, k: int) -> Graph:
    """PFG(n, k): k triangles through hub 0 plus n-2k-1 pendant edges at 0."""
    _pfg_domain(n, k)
    edges: list[tuple[int, int]] = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        edges.extend([(0, a), (0, b), (a, b)])
    edges.extend((0, v) for v in range(2 * k + 1, n))
    return Graph.from_edges(n, edges)


def balanced_saw(n: int, k: int) -> Graph:
    """BSG(n, k): triangle chains of ceil(k/2) and floor(k/2) triangles
    joined by a path with n-2k-2 interior vertices.

    The path attaches at a degree-2 vertex of an end triangle of each chain
    (vertex 0 of the chain labeling), which is the variant the extremal
    sweeps confirm as the Wiener maximizer.
    """
    if k < 2:
        raise ValueError("need at least two triangles")
    if n < 2 * k + 2:
        raise ValueError(f"BSG({n},{k}) needs n >= {2 * k + 2}")
    t1 = (k + 1) // 2
    t2 = k // 2
    left = cycle_chain([3] * t1)
    edges = list(left.sorted_edges)
    offset = left.n
    interior = n - 2 * k - 2
    # path from vertex 0 of the left chain to vertex 0 of the right chain
    prev = 0
    for i in range(interior):
        edges.append((prev, offset + i))
        prev = offset + i
    offset += interior
    right = cycle_chain([3] * t2)
    edges.append((prev, offset))
    edges.extend((offset + u, offset + v) for u, v in right.sorted_edges)
    g = Graph.from_edges(offset + right.n, edges)
    assert g.n == n
    return g


def end_triangle_cactus(
    tree_n: int, tree_edges: list[tuple[int, int]], attach: list[int]
) -> Graph:
    """A tree plus one fresh triangle hung at each attachment vertex.

    tree_edges must form a tree on tree_n vertices; attach is a multiset of
    tree vertices, one entry per triangle.
    """
    from .graphs import is_connected

    tree = Graph.from_edges(tree_n, tree_edges)
    if tree.m != tree_n - 1 or not is_connected(tree):
        raise ValueError("tree_edges must form a tree")
    edges = list(tree.sorted_edges)
    nxt = tree_n
    for a in attach:
        if not (0 <= a < tree_n):
            raise ValueError(f"attachment vertex {a} not in the tree")
        x, y = nxt, nxt + 1
        nxt += 2
        edges.extend([(a, x), (a, y), (x, y)])
    return Graph.from_edges(nxt, edges)


class FamilySpec(Record):
    """Parsed description of a named family, as accepted by the CLI."""

    family: str
    n: int | None = None
    k: int | None = None
    lengths: tuple[int, ...] = ()
    tree_n: int | None = None
    tree_edges: tuple[tuple[int, int], ...] = ()
    attach: tuple[int, ...] = ()


_BUILDERS = {
    "path": lambda s: path_graph(s.n),
    "cycle": lambda s: cycle_graph(s.n),
    "star": lambda s: star_graph(s.n),
    "chain": lambda s: cycle_chain(list(s.lengths)),
    "ptc": lambda s: pseudo_triangle_chain(s.n, _need(s.k, "k")),
    "pfg": lambda s: pseudo_friendship(s.n, _need(s.k, "k")),
    "bsg": lambda s: balanced_saw(s.n, _need(s.k, "k")),
    "end_triangle": lambda s: end_triangle_cactus(s.tree_n, list(s.tree_edges), list(s.attach)),
}

FAMILY_NAMES = tuple(_BUILDERS)


MAX_FAMILY_VERTICES = 10**6


def build_family(spec: FamilySpec) -> Graph:
    """The named family, refused with ValueError when its vertex count,
    worked out from the spec alone, is over MAX_FAMILY_VERTICES, so an
    oversized request allocates nothing."""
    name = spec.family
    if name not in _BUILDERS:
        raise ValueError(f"unknown family {name!r}; choose one of {FAMILY_NAMES}")
    if name == "chain":
        if not spec.lengths:
            raise ValueError("chain needs --lengths")
        size = sum(length - 1 for length in spec.lengths) + 1
    elif name == "end_triangle":
        size = _need(spec.tree_n, "tree_n") + 2 * len(spec.attach)
    else:
        size = _need(spec.n, "n")
    if size > MAX_FAMILY_VERTICES:
        raise ValueError(
            f"{name} family with {size} vertices is over the limit of {MAX_FAMILY_VERTICES}"
        )
    return _BUILDERS[name](spec)


def _need(value, flag: str):
    if value is None:
        raise ValueError(f"missing required parameter --{flag}")
    return value
