"""Immutable simple graphs, edge-list I/O, and block/bridge structure.

Vertices are dense integers 0..n-1 and edges are stored as sorted pairs so
that every iteration order in the package is deterministic.  Large inputs
are decomposed on the graph's own objects: parse_edge_list makes one int per
vertex label, and one block walk, under block_cut_tree and patch_cactus
alike, stacks the graph's edge tuples and builds no adjacency, so its blocks
hold those tuples.  It makes each block when it closes it and keeps its DFS
state on its stack, holding only discovery times and incident edges per
vertex.  CactusProfile.write_json writes the report straight from the tree
and the graph's sorted edges, a chunk at a time, so no report is built:
encoding the report as lists and dicts took `profile --in` on a
50,001-vertex triangle chain from 47 to 57 MiB of RSS (136 to 173 MiB at
200,001 vertices).
"""

from __future__ import annotations

import io
import json
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property
from itertools import islice
from operator import attrgetter

from ._record import Record


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


class Graph(Record):
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u}, {v}) not sorted or out of range for n={n}")
        fields = self.__dict__
        fields["n"] = n
        fields["edges"] = edges

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
        """Apply the vertex relabeling v -> perm[v], a permutation of 0..n-1."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabel needs a permutation of 0..{self.n - 1}")
        return Graph.from_edges(self.n, ((perm[u], perm[v]) for u, v in self.edges))

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges]}


# Python's default bound on int/str conversion: the CLI lifts it to print
# long counts, and parsing keeps it, since int() of a long string takes
# quadratic time.
_MAX_INT_CHARS = 4300


def _reads_as_labels(text: str) -> bool:
    """True iff every token of text that int() accepts is a label: an
    optional '-' and then ASCII decimal digits.  int() also takes a sign
    '+', '_' between digits and other scripts' digits, none of which text
    then holds."""
    return text.isascii() and "_" not in text and "+" not in text


def _pair(line: str, plain: bool, what: str, form: str) -> tuple[int, int]:
    """The two integers of line, which is the what ("header" or "edge line")
    of an edge list, refused in terms of its form ("'n m'" or "'u v'");
    plain says that the whole text reads as labels."""
    parts = line.split()
    if len(parts) != 2:
        raise MalformedLineError(f"{what} must be {form}, got {line!r}")
    a, b = parts
    if len(a) <= _MAX_INT_CHARS and len(b) <= _MAX_INT_CHARS and (plain or _reads_as_labels(line)):
        try:
            return int(a), int(b)
        except ValueError:
            pass
    raise MalformedLineError(f"{what} must be two integers, got {line!r}")


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" header plus m lines of "u v" into a Graph.

    A vertex label is an optional '-' and ASCII decimal digits, and each
    label becomes one int object, shared by every edge that names it.
    Raises a distinct ParseError subclass for malformed lines, out-of-range
    vertices, self-loops, and duplicate edges.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MalformedLineError("empty input, expected header line 'n m'")
    plain = _reads_as_labels(text)  # one scan of the text spares one per line
    n, m = _pair(lines[0], plain, "header", "'n m'")
    if n < 0 or m < 0:
        raise MalformedLineError(f"counts must be non-negative, got n={n} m={m}")
    if len(lines) - 1 != m:
        raise MalformedLineError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges: set[tuple[int, int]] = set()
    label = {}.setdefault  # each label seen, to its one shared int
    for line in islice(lines, 1, None):
        u, v = _pair(line, plain, "edge line", "'u v'")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        u, v = label(u, u), label(v, v)
        e = (u, v) if u < v else (v, u)
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
    """Every component of g, each sorted, in order of least vertex."""
    nbrs, comps = edge_components(g)
    comps.extend((v,) for v in range(g.n) if v not in nbrs)
    comps.sort()
    return comps


def edge_components(g: Graph) -> tuple[dict[int, list[int]], list[tuple[int, ...]]]:
    """The neighbours of each vertex that has an edge, and the components
    with an edge, each sorted: O(m) memory, whatever n is."""
    nbrs: dict[int, list[int]] = {}
    for u, v in g.edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    seen = set()
    comps = []
    for start in nbrs:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            for u in nbrs[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return nbrs, comps


def find_bridges(g: Graph) -> list[tuple[int, int]]:
    """All edges whose removal disconnects g, in lexicographic order: the
    single-edge blocks of the block-cut tree."""
    return sorted(b.edges[0] for b in block_cut_tree(g).blocks if b.kind == BRIDGE)


BRIDGE = "bridge"
CYCLE = "cycle"
OTHER = "other"


class Block(Record):
    """A block of the block-cut tree.

    kind is "bridge" (a single bridge edge), "cycle" (a chordless cycle,
    vertices given in cyclic order), or "other" (a 2-connected block that is
    not a cycle; only possible outside the cactus class).
    """

    __slots__ = ("kind", "vertices", "edges")
    kind: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(
        self, kind: str, vertices: tuple[int, ...], edges: tuple[tuple[int, int], ...]
    ) -> None:
        _set_kind(self, kind)
        _set_vertices(self, vertices)
        _set_edges(self, edges)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


# the slots' own setters, which Block.__init__ calls past Record's refusing
# __setattr__: a third faster than object.__setattr__
_set_kind, _set_vertices, _set_edges = (
    Block.kind.__set__,
    Block.vertices.__set__,
    Block.edges.__set__,
)


# A cactus's blocks as rings: each bridge as its two ends, each cycle in
# cyclic order, hung from vertex 0.  Each ring starts at its top vertex, the
# one towards vertex 0, and comes after every ring below it, so every vertex
# but 0 is a non-top vertex of exactly one ring.  It is the order the ring
# passes read.  RootedBlockCutTree.rings lists a tree's blocks this way, and
# census.row_rings decodes each census class's row this way.
Rings = tuple[tuple[int, ...], ...]

_edges_of = attrgetter("edges")  # the key that orders BlockCutTree.blocks


class BlockCutTree(Record):
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
        """The tree with integer node ids, rooted at block 0, with its
        blocks as Rings hung from block 0's first vertex, which on a
        connected graph is vertex 0."""
        blocks = self.blocks
        nblocks = len(blocks)
        cuts = tuple(sorted(self.cut_vertices))
        cut_id = {v: nblocks + j for j, v in enumerate(cuts)}
        size = nblocks + len(cuts)
        parent = [-1] * size
        depth = [0] * size
        order = [0] if size else []
        rings = [blocks[0].vertices] if size else []  # in order, parents first
        for x in order:  # grows while it is read: a breadth-first walk
            if x < nblocks:
                nbrs = [cut_id[v] for v in self.incidence[x]]
            else:
                top = cuts[x - nblocks]
                nbrs = self.blocks_of_cut_vertex[top]
            for y in nbrs:
                if y != parent[x]:
                    parent[y] = x
                    depth[y] = depth[x] + 1
                    order.append(y)
                    if y < nblocks:  # a block hung at the cut vertex x
                        ring = blocks[y].vertices
                        if ring[0] != top:
                            i = ring.index(top)
                            ring = ring[i:] + ring[:i]
                        rings.append(ring)
        rings.reverse()
        # every vertex lies at exactly one node: a cut vertex at its own,
        # any other vertex at its one block
        node = [0] * (sum(map(len, blocks)) - sum(map(len, self.incidence)) + len(cuts))
        for i, b in enumerate(blocks):
            for v in b.vertices:
                node[v] = cut_id.get(v, i)
        return RootedBlockCutTree(
            tuple(parent), tuple(order), tuple(depth), tuple(node), cuts, tuple(rings)
        )


class RootedBlockCutTree(Record):
    """A block-cut tree with integer node ids, rooted at block 0.

    Nodes 0..B-1 are the blocks in BlockCutTree order, then come the cut
    vertices in increasing order.  A vertex lives at node[v]: its own cut
    node if it is a cut vertex, else its unique block.  rings lists the
    blocks hung from the root, the form the ring passes read (Rings).
    """

    parent: tuple[int, ...]  # -1 at the root
    order: tuple[int, ...]  # breadth-first from the root: parents first
    depth: tuple[int, ...]
    node: tuple[int, ...]
    cuts: tuple[int, ...]  # node B + j is the cut vertex cuts[j]
    rings: Rings


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Decompose a connected graph into blocks and cut vertices.

    One walk (_blocks) from vertex 0, which also detects disconnection.  It
    reads, for this call only, each vertex's incident edges as the graph's
    own tuples, and stacks those tuples, so the blocks hold g's edge
    objects; it builds no adjacency.  Blocks are reported in a deterministic
    (sorted) order, whatever order the walk met them in.
    """
    n = g.n
    if n == 0:
        return BlockCutTree((), frozenset(), ())
    if g.m < n - 1:  # too few edges: decided before allocating per-vertex state
        raise DisconnectedError("block_cut_tree requires a connected graph")
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in g.edges:
        u, v = e
        incident[u].append(e)
        incident[v].append(e)
    blocks, cut = _blocks(incident, [-1] * n, 0)
    blocks.sort(key=_edges_of)
    incidence = tuple(tuple(sorted(v for v in b.vertices if v in cut)) for b in blocks)
    return BlockCutTree(tuple(blocks), frozenset(cut), incidence)


def _blocks(incident, disc, root: int) -> tuple[list[Block], set[int]]:
    """The blocks, in the order they close, and the cut vertices of the
    graph with the edges incident[v] (sorted pairs) at each vertex v; disc
    holds -1 at every vertex (a list on 0..n-1, or a dict).

    A Hopcroft-Tarjan DFS from root with an edge stack.  Each frame of its
    stack, five slots of one flat list, holds a vertex, its parent, an
    iterator over its unread edges, the edge-stack height at its tree edge
    and its low point; only disc and incident are per vertex.  Raises
    DisconnectedError if it misses a vertex.
    """
    edge_stack: list[tuple[int, int]] = []  # the graph's own edge tuples
    blocks: list[Block] = []
    cut: set[int] = set()
    root_children = 0
    disc[root] = 0
    timer = 1
    stack = [root, -1, iter(incident[root]), 0, 0]  # the DFS path: v, pv, edges, base, low, ...
    while stack:
        v, pv, edges, base, low = stack[-5:]
        dv = disc[v]
        for e in edges:
            a, u = e
            if u == v:
                u = a
            du = disc[u]
            if du == -1:  # tree edge: descend into u
                stack[-1] = low
                disc[u] = timer
                stack += u, v, iter(incident[u]), len(edge_stack), timer
                timer += 1
                edge_stack.append(e)
                break
            if du < dv and u != pv:  # back edge to an ancestor
                edge_stack.append(e)
                if du < low:
                    low = du
        else:  # v is finished
            del stack[-5:]
            if not stack:
                break
            if low < stack[-1]:  # pv's low
                stack[-1] = low
            if low >= disc[pv]:  # the tree edge (pv, v) closes a block
                blocks.append(_close_block(edge_stack[base:], pv))
                del edge_stack[base:]
                if pv == root:
                    root_children += 1
                else:
                    cut.add(pv)
    if timer < len(disc):
        raise DisconnectedError("block_cut_tree requires a connected graph")
    if root_children >= 2:
        cut.add(root)
    return blocks, cut


def _close_block(raw: list[tuple[int, int]], top: int) -> Block:
    """The Block of the edges the DFS pops when it closes a block, given in
    the order they were pushed, with top the vertex it closes at."""
    edges = tuple(sorted(raw))
    if len(edges) == 1:
        return Block(BRIDGE, edges[0], edges)
    vertices = {x for e in raw for x in e}
    if len(edges) != len(vertices):
        return Block(OTHER, tuple(sorted(vertices)), edges)
    # raw holds the ring in DFS push order: the tree edges down from top,
    # then the back edge up to it
    cur = top
    ring = [cur]
    for a, b in raw[:-1]:
        cur = b if a == cur else a
        ring.append(cur)
    i = ring.index(min(ring))  # start at the least vertex and step
    ring = ring[i:] + ring[:i]  # first to its smaller neighbour
    if ring[-1] < ring[1]:
        ring[1:] = ring[:0:-1]
    return Block(CYCLE, tuple(ring), edges)


class CactusProfile(Record):
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
        return tuple(self._bridges())

    @cached_property
    def end_cycles(self) -> tuple[int, ...]:
        return tuple(self._end_cycles())

    @cached_property
    def interior_cycles(self) -> tuple[int, ...]:
        return tuple(self._interior_cycles())

    @cached_property
    def intersection_vertices(self) -> frozenset[int]:
        return frozenset(self._intersections(self.tree.cut_vertices))

    # Each class as an iterator, which the properties above keep and
    # write_json streams without holding it whole.

    def _bridges(self) -> Iterator[tuple[int, int]]:
        return (b.edges[0] for b in self.tree.blocks if b.kind == BRIDGE)

    def _end_cycles(self) -> Iterator[int]:
        incidence = self.tree.incidence
        return (i for i in self.cycle_blocks if len(incidence[i]) <= 1)

    def _interior_cycles(self) -> Iterator[int]:
        incidence = self.tree.incidence
        return (i for i in self.cycle_blocks if len(incidence[i]) >= 2)

    def _intersections(self, cuts: Iterable[int]) -> Iterator[int]:
        """The vertices of cuts that lie on two or more cycles, in the order
        of cuts."""
        on = bytearray(self.graph.n)  # the cycles through each vertex, up to 2
        incidence = self.tree.incidence
        for i in self.cycle_blocks:
            for v in incidence[i]:
                if on[v] < 2:
                    on[v] += 1
        return (v for v in cuts if on[v] == 2)

    def write_json(self, write: Callable[[str], object]) -> None:
        """Write the report through calls to write: one JSON object with
        sorted keys and json.dumps's separators, then a newline.

        It is written a section at a time, at most _CHUNK list items per
        call, straight from the tree and graph.sorted_edges, so the report
        is never held whole: as lists and dicts it takes about as much
        memory again as the graph and its tree.
        """
        g, tree = self.graph, self.tree
        blocks = tree.blocks
        cuts = sorted(tree.cut_vertices)
        write('{"bridges": ')
        _write_list(write, _pairs(self._bridges()))
        write(', "cycles": ')
        _write_list(write, (_ints(blocks[i].vertices) for i in self.cycle_blocks))
        write(', "end_cycles": ')
        _write_list(write, map(str, self._end_cycles()))
        write(', "graph": {"edges": ')
        _write_list(write, _pairs(g.sorted_edges))
        write(f', "n": {g.n}}}, "interior_cycles": ')
        _write_list(write, map(str, self._interior_cycles()))
        write(', "intersection_vertices": ')
        _write_list(write, map(str, self._intersections(cuts)))
        write(f', "k": {self.k}, "tree": {{"blocks": ')
        _write_list(write, (f'{{"kind": "{b.kind}", "vertices": {_ints(b.vertices)}}}' for b in blocks))
        write(', "cut_vertices": ')
        _write_list(write, map(str, cuts))
        write("}}\n")

    def to_json(self) -> dict:
        """The report that write_json writes, parsed."""
        out = io.StringIO()
        self.write_json(out.write)
        return json.loads(out.getvalue())


_CHUNK = 1024  # list items per write call in CactusProfile.write_json


def _write_list(write: Callable[[str], object], items: Iterable[str]) -> None:
    """Write a JSON list of already encoded items, _CHUNK items per call."""
    items = iter(items)
    write("[")
    sep = ""
    while chunk := list(islice(items, _CHUNK)):
        write(sep + ", ".join(chunk))
        sep = ", "
    write("]")


def _ints(values) -> str:
    """A sequence of ints as json.dumps writes it."""
    return "[" + ", ".join(map(str, values)) + "]"


def _pairs(edges) -> Iterator[str]:
    """Each edge as _ints writes it, faster."""
    return (f"[{u}, {v}]" for u, v in edges)


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
    in all), decomposing only the blocks that the change touches; it raises
    what validate_cactus(after) raises.

    Let S be the smallest subtree of tree.rooted holding the node of every
    endpoint of every removed and added edge: the terminals.  A removed
    edge's endpoints lie on its block or on cut nodes next to that block, so
    S holds the block of every removed edge.  Each component of the tree
    outside S hangs from S at one vertex, so the blocks outside S are blocks
    of `after`, `after` is connected exactly when H = (edges of S's blocks -
    removed + added) is, and the other blocks of `after` are the blocks of H.

    Much of S may be untouched.  Call a block of S free when neither it nor
    any of its neighbours in S is a terminal: no vertex of a free block is
    an endpoint of a removed or added edge.  The free blocks make up
    connected runs, joined through the cut vertices whose neighbours in S
    are all free; the other cut vertices next to a run are its rim.  Every
    leaf of S is a terminal, so a run has at least two rim vertices, and
    each of them also lies on a block of S that is not free.  H' stands
    each run in by a star: a fresh vertex joined to every rim vertex.  A
    run is connected and meets the rest of H only at its rim, so H' is
    connected exactly when H is.  If every star edge is a bridge of H', no
    cycle of H leaves the run, so the run's blocks are blocks of `after`
    and the other blocks of H are those of H' without the star edges; a
    block of H' that is not an edge or a cycle is one of H, in the same
    edge order.  A rim vertex keeps every edge, so it stays a cut vertex,
    and no block of the run changes its incidence.  When a star edge lies
    on a cycle of H' (an added edge closes a cycle through the run), H is
    decomposed whole instead.

    H' keeps the graph's labels, with the star centres numbered from
    after.n up, and block_cut_tree's walk decomposes it as it is.

    Only a vertex of H' can change its cut status, and only a block of H'
    its incidence; the new profile reads the rest off the new tree.
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
    near: dict[int, list[int]] = {t: [] for t in region}  # neighbours in S
    for t in region:
        if t != top:
            near[t].append(parent[t])
            near[parent[t]].append(t)

    fixed = set(terminals)
    free = {t for t, ts in near.items() if t < nblocks and t not in fixed and fixed.isdisjoint(ts)}
    rims = []  # the rim of each run of free blocks
    seen = set()
    for b in sorted(free):
        if b in seen:
            continue
        seen.add(b)
        rim, stack = [], [b]
        while stack:
            for c in near[stack.pop()]:
                if not free.issuperset(near[c]):
                    rim.append(rooted.cuts[c - nblocks])
                    continue
                for y in near[c]:  # c joins its free blocks into the run
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        rims.append(rim)

    gone = sorted(i for i in region if i < nblocks and i not in free)
    local = _local_blocks(tree, gone, rims, after.n, removed, added)
    if local is None:  # a star edge lies on a cycle: decompose all of S
        gone = sorted(i for i in region if i < nblocks)
        local = _local_blocks(tree, gone, (), after.n, removed, added)
    verts, fresh, cuts = local
    _refuse_non_cactus(fresh)

    # a vertex of H' that lies on a block outside S keeps that block, so it
    # stays a cut vertex
    cuts.update(
        x
        for x in tree.cut_vertices.intersection(verts)
        if any(i not in region for i in tree.blocks_of_cut_vertex[x])
    )

    # splice H's new blocks in among the others, which are still sorted by edges
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


def _local_blocks(tree: BlockCutTree, gone, rims, n: int, removed, added):
    """The real vertices of H' (the edges of the blocks `gone` - removed +
    added, plus a star from a fresh vertex to each rim in `rims`, whose
    vertices lie on those blocks), its blocks other than the star edges, in
    edge order, and its real cut vertices; None if a star edge lies on a
    cycle.

    H' keeps the graph's own labels and the edge tuples of the blocks and
    of `added`, so its blocks hold after's own when after is built from
    them.  The star centres are n, n+1, ..., above every real vertex, so a
    block holding a vertex >= n is a star block."""
    verts = {x for i in gone for x in tree.blocks[i].vertices}
    incident: dict[int, list[tuple[int, int]]] = {x: [] for x in verts}
    edges = {e for i in gone for e in tree.blocks[i].edges}
    edges.difference_update(removed)
    edges.update(added)
    for x, rim in enumerate(rims, n):
        incident[x] = []
        edges.update((c, x) for c in rim)
    for e in edges:
        u, v = e
        incident[u].append(e)
        incident[v].append(e)
    blocks, cut = _blocks(incident, dict.fromkeys(incident, -1), min(verts))
    if any(b.kind != BRIDGE for b in blocks if max(b.vertices) >= n):
        return None
    fresh = sorted((b for b in blocks if max(b.vertices) < n), key=_edges_of)
    return verts, fresh, {x for x in cut if x < n}


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
