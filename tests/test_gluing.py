"""Large-n judges for the ring passes on irregular cacti.

Gluing a cactus G1 on n1 vertices to a cactus G2 on n2 vertices at a in G1
and b in G2, by the bridge a-b or by identifying a with b, gives a cactus
whose pn, Wiener index W and subtree number T follow from those of the
pieces and three quantities of each piece at its attachment vertex, each
read off the piece with a pendant vertex x at that vertex (G + x):

  S(a) = pn(G1 + x) - pn(G1) - 1    the paths that start at a
  D(a) = W(G1 + x) - W(G1) - n1     the distance sum from a
  R(a) = T(G1 + x) - T(G1) - 1      the subtrees that contain a

and the same for G2 and b.  For the bridge a-b:

  pn = pn1 + pn2 + S(a) S(b)
  W  = W1 + W2 + n2 D(a) + n1 D(b) + n1 n2
  T  = T1 + T2 + R(a) R(b)

and for a and b identified into one vertex:

  pn = pn1 + pn2 - 1 + (S(a) - 1)(S(b) - 1)
  W  = W1 + W2 + (n2 - 1) D(a) + (n1 - 1) D(b)
  T  = T1 + T2 - R(a) - R(b) + R(a) R(b)

Each identity reads five graphs (the pieces, their pendant extensions and
the glued graph), whose block-cut trees root and hang their rings
differently, so at 10^4 vertices, far past the brute-force oracles, it
checks that the passes agree across five decompositions of deep, irregular
cacti.  D(a) is also checked against a plain BFS, and the identities
themselves against the brute-force oracles on small pieces.
"""

import random
from collections import deque
from itertools import chain

from cactuspaths.census import random_cactus
from cactuspaths.counting import count_paths
from cactuspaths.families import cycle_chain
from cactuspaths.graphs import Graph
from cactuspaths.indices import InvariantTriple, invariant_triple, subtree_count, wiener


def brute_triple(g):
    return InvariantTriple(count_paths(g), wiener(g), subtree_count(g))


def pendant(g, a):
    """g with a new vertex, g.n, hung from a."""
    return Graph(g.n + 1, g.edges | {(a, g.n)})


def bridged(g1, a, g2, b):
    """g1 and g2 (shifted by g1.n) joined by the bridge a-b."""
    n1 = g1.n
    shifted = {(u + n1, v + n1) for u, v in g2.edges}
    return Graph(n1 + g2.n, g1.edges | shifted | {(a, n1 + b)})


def identified(g1, a, g2, b):
    """g1 and g2 with b identified with a; g2's other vertices follow g1's."""
    n1 = g1.n

    def label(v):
        return a if v == b else n1 + v - (v > b)

    moved = ((label(u), label(v)) for u, v in g2.edges)
    return Graph.from_edges(n1 + g2.n - 1, chain(g1.edges, moved))


def distance_sum(g, a):
    """The sum of the distances from a, by breadth-first search."""
    dist = [-1] * g.n
    dist[a] = 0
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return sum(dist)


def at_vertex(g, a, triple):
    """(S(a), D(a), R(a)) of g, from the triples of g and of g + x at a."""
    t, p = triple(g), triple(pendant(g, a))
    return t, p.pn - t.pn - 1, p.wiener - t.wiener - g.n, p.subtrees - t.subtrees - 1


def check_gluings(g1, a, g2, b, triple=invariant_triple):
    n1, n2 = g1.n, g2.n
    t1, s1, d1, r1 = at_vertex(g1, a, triple)
    t2, s2, d2, r2 = at_vertex(g2, b, triple)
    assert (d1, d2) == (distance_sum(g1, a), distance_sum(g2, b))

    t = triple(bridged(g1, a, g2, b))
    assert t.pn == t1.pn + t2.pn + s1 * s2
    assert t.wiener == t1.wiener + t2.wiener + n2 * d1 + n1 * d2 + n1 * n2
    assert t.subtrees == t1.subtrees + t2.subtrees + r1 * r2

    t = triple(identified(g1, a, g2, b))
    assert t.pn == t1.pn + t2.pn - 1 + (s1 - 1) * (s2 - 1)
    assert t.wiener == t1.wiener + t2.wiener + (n2 - 1) * d1 + (n1 - 1) * d2
    assert t.subtrees == t1.subtrees + t2.subtrees - r1 - r2 + r1 * r2


def relabelled(g, rng):
    return g.relabel(rng.sample(range(g.n), g.n))


def random_piece(n, rng):
    return relabelled(random_cactus(n, rng.randint(0, (n - 1) // 2), rng), rng)


def test_identities_hold_for_the_brute_force_oracles():
    rng = random.Random(12)
    for _ in range(100):
        g1, g2 = (random_piece(rng.randint(1, 8), rng) for _ in range(2))
        check_gluings(g1, rng.randrange(g1.n), g2, rng.randrange(g2.n), brute_triple)


def test_ring_passes_on_random_pieces_of_ten_thousand_vertices():
    rng = random.Random(26)
    for _ in range(3):
        g1, g2 = random_piece(10_000, rng), random_piece(9_000, rng)
        check_gluings(g1, rng.randrange(g1.n), g2, rng.randrange(g2.n))


def test_ring_passes_on_two_chains_of_long_cycles():
    """Hundreds of cycles of 20 to 60 vertices in a row: a block-cut tree
    hundreds of nodes deep on either side of each attachment vertex."""
    rng = random.Random(27)
    g1, g2 = (
        relabelled(cycle_chain([rng.randint(20, 60) for _ in range(size)]), rng)
        for size in (250, 220)
    )
    check_gluings(g1, rng.randrange(g1.n), g2, rng.randrange(g2.n))
