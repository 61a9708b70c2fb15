"""Immutable simple graphs, edge-list I/O, and block/bridge structure.

Vertices are dense integers 0..n-1 and edges are stored as sorted pairs so
that every iteration order in the package is deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter


class GraphError(Exception):
    """Base class for structural errors raised by this package."""


class ParseError(GraphError):
    """Malformed edge-list text."""


class MalformedLineError(ParseError):
    pass


class VertexRangeError(ParseError):
    pass


class SelfLoopError(ParseError):
    pass


class DuplicateEdgeError(ParseError):
    pass


class DisconnectedError(GraphError):
    """Operation requires a connected graph."""


class NotCactusError(GraphError):
    """Some block of the graph is neither an edge nor a cycle."""


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) not sorted or out of range for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a graph, normalizing each edge to a sorted pair."""
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = _normalize_edge(u, v)
            if e in normalized:
                raise ValueError(f"duplicate edge {e}")
            normalized.add(e)
        return Graph(n, frozenset(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        for a in nbrs:
            a.sort()
        return tuple(map(tuple, nbrs))

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def remove_edge(self, u: int, v: int) -> "Graph":
        e = _normalize_edge(u, v)
        if e not in self.edges:
            raise ValueError(f"no edge {e} to remove")
        return Graph(self.n, self.edges - {e})

    def add_edge(self, u: int, v: int) -> "Graph":
        e = _normalize_edge(u, v)
        if e in self.edges:
            raise ValueError(f"edge {e} already present")
        return Graph(self.n, self.edges | {e})

    def relabel(self, perm) -> "Graph":
        """Apply the vertex relabeling v -> perm[v]."""
        return Graph.from_edges(self.n, ((perm[u], perm[v]) for u, v in self.edges))

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges]}


# Python's default bound on int/str conversion: the CLI lifts it to print
# long counts, and parsing keeps it, since int() of a long string takes
# quadratic time.
_MAX_INT_CHARS = 4300


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" header plus m lines of "u v" into a Graph.

    Raises a distinct ParseError subclass for malformed lines, out-of-range
    vertices, self-loops, and duplicate edges.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MalformedLineError("empty input, expected header line 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedLineError(f"header must be 'n m', got {lines[0]!r}")
    try:
        if len(header[0]) > _MAX_INT_CHARS or len(header[1]) > _MAX_INT_CHARS:
            raise ValueError
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise MalformedLineError(f"header must be two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise MalformedLineError(f"counts must be non-negative, got n={n} m={m}")
    if len(lines) - 1 != m:
        raise MalformedLineError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges: set[tuple[int, int]] = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLineError(f"edge line must be 'u v', got {line!r}")
        try:
            if len(parts[0]) > _MAX_INT_CHARS or len(parts[1]) > _MAX_INT_CHARS:
                raise ValueError
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(f"edge line must be two integers, got {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        e = _normalize_edge(u, v)
        if e in edges:
            raise DuplicateEdgeError(f"duplicate edge {e}")
        edges.add(e)
    return Graph(n, frozenset(edges))


def to_edge_list_text(g: Graph) -> str:
    """Inverse of parse_edge_list, with edges in sorted order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges)
    return "\n".join(lines) + "\n"


def is_connected(g: Graph) -> bool:
    """True iff g has at most one component (K_1 and the empty graph are connected)."""
    if g.m < g.n - 1:  # too few edges: decided before allocating per-vertex state
        return False
    return len(connected_components(g)) <= 1


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


def find_bridges(g: Graph) -> list[tuple[int, int]]:
    """All edges whose removal disconnects g, in lexicographic order: the
    single-edge blocks of the block-cut tree."""
    return sorted(b.edges[0] for b in block_cut_tree(g).blocks if b.kind == BRIDGE)


BRIDGE = "bridge"
CYCLE = "cycle"
OTHER = "other"


@dataclass(frozen=True)
class Block:
    """A block of the block-cut tree.

    kind is "bridge" (a single bridge edge), "cycle" (a chordless cycle,
    vertices given in cyclic order), or "other" (a 2-connected block that is
    not a cycle; only possible outside the cactus class).
    """

    kind: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


_edges_of = attrgetter("edges")  # the key that orders BlockCutTree.blocks


@dataclass(frozen=True)
class BlockCutTree:
    """Blocks and cut vertices of a connected graph.

    incidence[i] lists the cut vertices lying on blocks[i]; the bipartite
    graph on blocks and cut vertices defined this way is a tree.
    """

    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]
    incidence: tuple[tuple[int, ...], ...]

    @cached_property
    def blocks_of_cut_vertex(self) -> dict[int, tuple[int, ...]]:
        at: dict[int, list[int]] = {v: [] for v in self.cut_vertices}
        for i, cuts in enumerate(self.incidence):
            for v in cuts:
                at[v].append(i)
        return {v: tuple(ids) for v, ids in at.items()}

    @cached_property
    def rooted(self) -> "RootedBlockCutTree":
        """The tree with integer node ids, rooted at block 0."""
        nblocks = len(self.blocks)
        cuts = tuple(sorted(self.cut_vertices))
        cut_id = {v: nblocks + j for j, v in enumerate(cuts)}
        size = nblocks + len(cuts)
        parent = [-1] * size
        depth = [0] * size
        order = [0] if size else []
        for x in order:  # grows while it is read: a breadth-first walk
            if x < nblocks:
                nbrs = [cut_id[v] for v in self.incidence[x]]
            else:
                nbrs = self.blocks_of_cut_vertex[cuts[x - nblocks]]
            for y in nbrs:
                if y != parent[x]:
                    parent[y] = x
                    depth[y] = depth[x] + 1
                    order.append(y)
        occupants = [len(b) - len(c) for b, c in zip(self.blocks, self.incidence)]
        occupants += [1] * len(cuts)
        node = [0] * sum(occupants)  # every vertex occupies exactly one node
        for i, b in enumerate(self.blocks):
            for v in b.vertices:
                node[v] = cut_id.get(v, i)
        return RootedBlockCutTree(
            parent=tuple(parent),
            order=tuple(order),
            depth=tuple(depth),
            weight=tuple(2 if b.kind == CYCLE else 1 for b in self.blocks)
            + (1,) * len(cuts),
            occupants=tuple(occupants),
            node=tuple(node),
            cuts=cuts,
        )


@dataclass(frozen=True)
class RootedBlockCutTree:
    """A block-cut tree with integer node ids, rooted at block 0.

    Nodes 0..B-1 are the blocks in BlockCutTree order, then come the cut
    vertices in increasing order.  A vertex lives at node[v]: its own cut
    node if it is a cut vertex, else its unique block.  On a cactus the
    number of paths between two vertices is the product of the weights on
    the tree route between their nodes.
    """

    parent: tuple[int, ...]  # -1 at the root
    order: tuple[int, ...]  # breadth-first from the root: parents first
    depth: tuple[int, ...]
    weight: tuple[int, ...]  # 2 for a cycle block, else 1
    occupants: tuple[int, ...]  # vertices v with node[v] == x
    node: tuple[int, ...]
    cuts: tuple[int, ...]  # node B + j is the cut vertex cuts[j]


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Decompose a connected graph into blocks and cut vertices.

    One Hopcroft-Tarjan DFS from vertex 0 with an edge stack, which also
    detects disconnection; blocks are reported in a deterministic (sorted)
    order.
    """
    n = g.n
    if n == 0:
        return BlockCutTree((), frozenset(), ())
    if g.m < n - 1:  # too few edges: decided before allocating per-vertex state
        raise DisconnectedError("block_cut_tree requires a connected graph")
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    cursor = [0] * n  # next adjacency index to scan at each vertex
    base = [0] * n  # edge-stack height when the tree edge into v was pushed
    edge_stack: list[tuple[int, int]] = []  # sorted pairs
    raw_blocks: list[list[tuple[int, int]]] = []
    cut: set[int] = set()
    root_children = 0
    disc[0] = 0
    timer = 1
    stack = [0]  # the DFS path
    while stack:
        v = stack[-1]
        nbrs = adj[v]
        i = cursor[v]
        dv = disc[v]
        pv = parent[v]
        while i < len(nbrs):
            u = nbrs[i]
            i += 1
            du = disc[u]
            if du == -1:  # tree edge: descend into u
                cursor[v] = i
                parent[u] = v
                disc[u] = low[u] = timer
                timer += 1
                base[u] = len(edge_stack)
                edge_stack.append((v, u) if v < u else (u, v))
                stack.append(u)
                break
            if du < dv and u != pv:  # back edge to an ancestor
                edge_stack.append((u, v) if u < v else (v, u))
                if du < low[v]:
                    low[v] = du
        else:  # v is finished
            stack.pop()
            if pv == -1:
                continue
            if low[v] < low[pv]:
                low[pv] = low[v]
            if low[v] >= disc[pv]:  # the tree edge (pv, v) closes a block
                b = base[v]
                raw_blocks.append(edge_stack[b:])
                del edge_stack[b:]
                if pv == 0:
                    root_children += 1
                else:
                    cut.add(pv)
    if timer < n:
        raise DisconnectedError("block_cut_tree requires a connected graph")
    if root_children >= 2:
        cut.add(0)

    blocks: list[Block] = []
    for raw in raw_blocks:
        edges = tuple(sorted(raw))
        if len(edges) == 1:
            blocks.append(Block(BRIDGE, edges[0], edges))
            continue
        vertices = {x for e in raw for x in e}
        if len(edges) == len(vertices):
            # raw holds the ring in DFS push order: the tree edges down from
            # its top, which the first and last edges share, then the back
            # edge up to the top
            cur = raw[0][0] if raw[0][0] in raw[-1] else raw[0][1]
            ring = [cur]
            for a, b in raw[:-1]:
                cur = b if a == cur else a
                ring.append(cur)
            i = ring.index(min(ring))  # start at the least vertex and step
            ring = ring[i:] + ring[:i]  # first to its smaller neighbour
            if ring[-1] < ring[1]:
                ring[1:] = ring[:0:-1]
            blocks.append(Block(CYCLE, tuple(ring), edges))
        else:
            blocks.append(Block(OTHER, tuple(sorted(vertices)), edges))
    blocks.sort(key=_edges_of)
    incidence = tuple(tuple(sorted(v for v in b.vertices if v in cut)) for b in blocks)
    return BlockCutTree(tuple(blocks), frozenset(cut), incidence)


@dataclass(frozen=True)
class CactusProfile:
    """A cactus and its block-cut tree, from which every other fact is read.

    On a cactus a cycle vertex has degree > 2 exactly when it is a cut
    vertex, so the paper's classes are facts about the tree: a cycle is an
    end cycle when at most one cut vertex lies on it, else an interior
    cycle, and an intersection vertex is a cut vertex on two or more cycles.
    """

    graph: Graph
    tree: BlockCutTree

    @cached_property
    def cycle_blocks(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.tree.blocks) if b.kind == CYCLE)

    @property
    def k(self) -> int:
        """The cycle rank: the number of cycle blocks."""
        return len(self.cycle_blocks)

    @cached_property
    def bridges(self) -> tuple[tuple[int, int], ...]:
        """The bridge edges, sorted, since the blocks are sorted by edges."""
        return tuple(b.edges[0] for b in self.tree.blocks if b.kind == BRIDGE)

    @cached_property
    def end_cycles(self) -> tuple[int, ...]:
        incidence = self.tree.incidence
        return tuple(i for i in self.cycle_blocks if len(incidence[i]) <= 1)

    @cached_property
    def interior_cycles(self) -> tuple[int, ...]:
        incidence = self.tree.incidence
        return tuple(i for i in self.cycle_blocks if len(incidence[i]) >= 2)

    @cached_property
    def intersection_vertices(self) -> frozenset[int]:
        incidence = self.tree.incidence
        on_cycles = Counter(v for i in self.cycle_blocks for v in incidence[i])
        return frozenset(v for v, c in on_cycles.items() if c >= 2)

    def to_json(self) -> dict:
        # derived before the graph's lists are built, so that their
        # temporaries are freed first: a lower peak on large inputs
        k, bridges = self.k, self.bridges
        end_cycles, interior_cycles = self.end_cycles, self.interior_cycles
        intersection = self.intersection_vertices
        return {
            "graph": self.graph.to_json(),
            "tree": {
                "blocks": [
                    {"kind": b.kind, "vertices": list(b.vertices)}
                    for b in self.tree.blocks
                ],
                "cut_vertices": sorted(self.tree.cut_vertices),
            },
            "k": k,
            "bridges": [list(e) for e in bridges],
            "cycles": [list(self.tree.blocks[i].vertices) for i in self.cycle_blocks],
            "end_cycles": list(end_cycles),
            "interior_cycles": list(interior_cycles),
            "intersection_vertices": sorted(intersection),
        }


def _refuse_non_cactus(blocks) -> None:
    """Raise NotCactusError for the first block that is neither an edge nor
    a cycle."""
    for b in blocks:
        if b.kind == OTHER:
            raise NotCactusError(
                f"block on vertices {b.vertices} is neither an edge nor a cycle"
            )


def _check_rank(profile: CactusProfile) -> None:
    g = profile.graph
    if profile.k != g.m - g.n + (1 if g.n else 0):
        raise AssertionError("cycle rank mismatch in cactus decomposition")


def validate_cactus(g: Graph) -> CactusProfile:
    """Check the cactus condition (every block an edge or a cycle) and
    return the profile of g: its graph and its block-cut tree."""
    tree = block_cut_tree(g)
    _refuse_non_cactus(tree.blocks)
    profile = CactusProfile(g, tree)
    _check_rank(profile)
    return profile


def patch_cactus(
    profile: CactusProfile,
    after: Graph,
    removed: tuple[tuple[int, int], ...],
    added: tuple[tuple[int, int], ...],
) -> CactusProfile:
    """validate_cactus(after), where `after` is profile.graph with the edges
    `removed` taken out and `added` put in (sorted pairs, at least one edge
    in all), decomposing only the part of the block-cut tree that the change
    touches; it raises what validate_cactus(after) raises.

    That part is S, the smallest subtree of tree.rooted holding the node of
    every endpoint of every removed and added edge.  A removed edge's
    endpoints lie on its block or on cut nodes next to that block, so S
    holds the block of every removed edge.  Each component of the tree
    outside S hangs from S at one vertex, so the blocks outside S are blocks
    of `after`, `after` is connected exactly when H = (edges of S's blocks -
    removed + added) is, and the other blocks of `after` are the blocks of H.
    Only a vertex of H can change its cut status, and only a block of H its
    incidence; the new profile reads the rest off the new tree.
    """
    tree = profile.tree
    rooted = tree.rooted
    parent, depth = rooted.parent, rooted.depth
    nblocks = len(tree.blocks)

    terminals = [rooted.node[x] for e in (*removed, *added) for x in e]
    top = terminals[0]
    for t in terminals[1:]:  # top becomes the lowest common ancestor
        while t != top:
            if depth[t] < depth[top]:
                t, top = top, t
            t = parent[t]
    region = {top}
    for t in terminals:
        while t not in region:
            region.add(t)
            t = parent[t]
    gone = sorted(x for x in region if x < nblocks)

    # H relabelled monotonically onto 0..h-1, so that each cycle keeps its
    # start and direction and the blocks keep their edge order
    edges = {e for i in gone for e in tree.blocks[i].edges}
    edges.difference_update(removed)
    edges.update(added)
    verts = sorted({x for i in gone for x in tree.blocks[i].vertices})
    index = {x: j for j, x in enumerate(verts)}
    local = block_cut_tree(
        Graph(len(verts), frozenset((index[u], index[v]) for u, v in edges))
    )
    fresh = [
        Block(
            b.kind,
            tuple(verts[x] for x in b.vertices),
            tuple((verts[u], verts[v]) for u, v in b.edges),
        )
        for b in local.blocks
    ]
    _refuse_non_cactus(fresh)

    # a vertex of H that lies on a block outside S keeps that block, so it
    # stays a cut vertex
    cuts = {verts[j] for j in local.cut_vertices}
    cuts.update(
        x
        for x in tree.cut_vertices.intersection(verts)
        if any(i not in region for i in tree.blocks_of_cut_vertex[x])
    )

    # splice H's blocks in among the others, which are still sorted by edges
    blocks = list(tree.blocks)
    incidence = list(tree.incidence)
    for i in reversed(gone):
        del blocks[i], incidence[i]
    j = 0
    for b in fresh:  # in edge order, so each lands after the one before
        j = bisect_left(blocks, b.edges, lo=j, key=_edges_of)
        blocks.insert(j, b)
        incidence.insert(j, tuple(sorted(x for x in b.vertices if x in cuts)))
    patched = CactusProfile(
        after,
        BlockCutTree(
            tuple(blocks),
            tree.cut_vertices.difference(verts).union(cuts),
            tuple(incidence),
        ),
    )
    _check_rank(patched)
    return patched


def is_cactus(g: Graph) -> bool:
    try:
        validate_cactus(g)
        return True
    except (NotCactusError, DisconnectedError):
        return False


def is_cactus_chain(profile: CactusProfile) -> bool:
    """True iff the cactus is bridgeless and its block-cut tree is a path:
    every block has at most two cut vertices and every cut vertex lies on
    at most two blocks (a single cycle and the one-vertex graph count as
    chains)."""
    if profile.bridges:
        return False
    tree = profile.tree
    return all(len(cuts) <= 2 for cuts in tree.incidence) and all(
        len(ids) <= 2 for ids in tree.blocks_of_cut_vertex.values()
    )
