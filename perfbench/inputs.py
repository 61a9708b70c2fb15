"""Seeded input generators owned by the benchmark.

These build edge lists directly and never call the package, so a change to
the package (its RNG use in ``random_cactus``, its family constructors)
cannot silently change what the benchmark feeds it.  Every generator takes
a ``random.Random`` and is a pure function of its arguments and that RNG's
state.
"""

from __future__ import annotations

import random

Edges = list[tuple[int, int]]


def _ring(edges: Edges, ring: list[int]) -> None:
    for a, b in zip(ring, ring[1:] + ring[:1]):
        edges.append((a, b))


def cycle_chain(lengths: list[int]) -> tuple[int, Edges]:
    """Cycles in a row, consecutive cycles sharing one vertex."""
    edges: Edges = []
    shared, size = 0, 1
    for length in lengths:
        ring = [shared] + list(range(size, size + length - 1))
        _ring(edges, ring)
        size += length - 1
        shared = size - 1
    return size, edges


def ptc(n: int, k: int) -> tuple[int, Edges]:
    """Pseudo triangle chain: interior triangles, end cycles of lengths
    differing by at most one."""
    rest = n - 2 * k + 5
    size, edges = cycle_chain([(rest + 1) // 2] + [3] * (k - 2) + [rest // 2])
    assert size == n
    return size, edges


def pfg(n: int, k: int) -> tuple[int, Edges]:
    """Pseudo friendship graph: k triangles and n-2k-1 pendants at hub 0."""
    edges: Edges = []
    for i in range(k):
        _ring(edges, [0, 2 * i + 1, 2 * i + 2])
    edges.extend((0, v) for v in range(2 * k + 1, n))
    return n, edges


def random_tree(n: int, rng: random.Random) -> tuple[int, Edges]:
    """Random recursive tree: vertex i hangs on a uniform earlier vertex."""
    return n, [(rng.randrange(i), i) for i in range(1, n)]


def end_triangle_cactus(tree_n: int, triangles: int, rng: random.Random) -> tuple[int, Edges]:
    """A random recursive tree with fresh triangles hung at random tree
    vertices, so every cycle is an end triangle."""
    size, edges = random_tree(tree_n, rng)
    for _ in range(triangles):
        _ring(edges, [rng.randrange(tree_n), size, size + 1])
        size += 2
    return size, edges


def random_cactus(n: int, k: int, rng: random.Random) -> tuple[int, Edges]:
    """A cactus with n vertices and k cycles grown from one vertex.

    The n-1-2k vertices beyond k triangles are split evenly (odd one to the
    pendants) between pendant edges and lengthening random cycles; only the
    cycle lengths, the growth order and the attachment points are random, so
    bridge count and total cycle length are the same for every seed.
    """
    spare = n - 1 - 2 * k
    lengths = [3] * k
    for _ in range(spare // 2):
        lengths[rng.randrange(k)] += 1
    ops = [0] * (spare - spare // 2) + lengths  # 0 = pendant edge
    rng.shuffle(ops)
    edges: Edges = []
    size = 1
    for op in ops:
        at = rng.randrange(size)
        if op == 0:
            edges.append((at, size))
            size += 1
        else:
            _ring(edges, [at] + list(range(size, size + op - 1)))
            size += op - 1
    assert size == n
    return size, edges


def edge_list_text(n: int, edges: Edges, rng: random.Random, relabel: bool = True) -> str:
    """The 'n m' edge-list format, in random edge and endpoint order and,
    if ``relabel``, under a random vertex relabeling."""
    perm = list(range(n))
    if relabel:
        rng.shuffle(perm)
    lines = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        lines.append(f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}")
    rng.shuffle(lines)
    return f"{n} {len(edges)}\n" + "\n".join(lines) + "\n"
