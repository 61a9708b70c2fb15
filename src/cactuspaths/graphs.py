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
from bisect import bisect_left, insort
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain, islice
from operator import attrgetter, itemgetter

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
        connected graph is vertex 0.  A depth-first walk: order is the
        preorder from block 0 with each node's children in id order, so
        every subtree is one run of order, and of rings."""
        blocks = self.blocks
        nblocks = len(blocks)
        cuts = tuple(sorted(self.cut_vertices))
        cut_id = {v: nblocks + j for j, v in enumerate(cuts)}
        size = nblocks + len(cuts)
        parent = [-1] * size
        depth = [0] * size
        order = []
        rings = []  # in order, parents first
        incidence, at = self.incidence, self.blocks_of_cut_vertex
        stack = [0] if size else []
        pop, push, visit, hang = stack.pop, stack.append, order.append, rings.append
        while stack:
            x = pop()
            visit(x)
            p = parent[x]
            d = depth[x] + 1
            # each child is pushed in decreasing id order, so the least is
            # popped first
            if x < nblocks:
                ring, top = blocks[x].vertices, -1
                if x:
                    top = cuts[p - nblocks]  # the cut vertex x hangs at
                    ring = _hung(ring, top)
                hang(ring)
                for v in reversed(incidence[x]):
                    if v != top:
                        y = cut_id[v]
                        parent[y] = x
                        depth[y] = d
                        push(y)
            else:
                for y in reversed(at[cuts[x - nblocks]]):
                    if y != p:
                        parent[y] = x
                        depth[y] = d
                        push(y)
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
    # depth-first preorder from the root, children in id order: parents
    # first, and each subtree one contiguous run
    order: tuple[int, ...]
    depth: tuple[int, ...]
    node: tuple[int, ...]
    cuts: tuple[int, ...]  # node B + j is the cut vertex cuts[j]
    rings: Rings

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """The nodes in each node's subtree: the subtree of order[i] is
        order[i:i + sizes[order[i]]].  patch_cactus carries it to the tree
        it derives; a tree built from scratch counts it on first read."""
        parent = self.parent
        size = [1] * len(parent)
        for x in reversed(self.order[1:]):
            size[parent[x]] += size[x]
        return tuple(size)

    @cached_property
    def block_mask(self) -> bytes:
        """1 at each index of order that holds a block, else 0: the blocks in
        order[i:j] are rings' entries B - r - c to B - r, with r = the count
        of 1s before i and c the count in i..j.  Carried as sizes is."""
        nblocks = len(self.rings)
        return bytes(x < nblocks for x in self.order)


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
    return Block(CYCLE, _canonical(ring), edges)


def _canonical(ring: list[int]) -> tuple[int, ...]:
    """A cycle's vertices, given in cyclic order, as its Block lists them:
    from its least vertex, stepping first to that vertex's smaller
    neighbour."""
    i = ring.index(min(ring))
    ring = ring[i:] + ring[:i]
    if ring[-1] < ring[1]:
        ring[1:] = ring[:0:-1]
    return tuple(ring)


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

    A vertex transfer, the step of shrink and balance, is not decomposed
    at all: when `removed` is {uv, uw, ab} and `added` is {vw, ua, ub}, u
    lies on no block but a cycle C of length >= 4 in which v and w are its
    ring neighbours, and ab is an edge of another cycle E with a or b on E
    alone, the new blocks are C's ring without u and E's ring with u
    between a and b (_transfer_blocks), and nothing else changes: the cut
    set, the two blocks' incidence and every other block stay as they
    were.  An edit of any other shape takes the general path.

    The new blocks are spliced in among the old ones, which keep their edge
    order.  The new tree comes with its rooted tree when its block 0 has
    the edges of the old one's: when every node keeps its id and its
    neighbours, as when a transfer moves neither block in that order,
    _rehung swaps in the new rings, and otherwise _spliced derives it from
    tree.rooted; when block 0 changes, tree.rooted is built from scratch on
    first read.  A tree whose every node keeps its id and its neighbours
    also keeps the old tree's blocks_of_cut_vertex, if that was built.
    """
    tree = profile.tree
    rooted = tree.rooted
    nblocks = len(tree.blocks)
    transfer = _transfer_blocks(tree, removed, added)
    if transfer:
        gone, fresh = transfer
        region, verts, cut_set, kept = None, (), tree.cut_vertices, True
    else:
        terminals = [rooted.node[x] for e in (*removed, *added) for x in e]
        top, region = _subtree(rooted, terminals)
        parent = rooted.parent
        near: dict[int, list[int]] = {t: [] for t in region}  # neighbours in S
        for t in region:
            if t != top:
                near[t].append(parent[t])
                near[parent[t]].append(t)

        fixed = set(terminals)
        free = {
            t for t, ts in near.items() if t < nblocks and t not in fixed and fixed.isdisjoint(ts)
        }
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
        verts, new_blocks, cuts = local
        _refuse_non_cactus(new_blocks)

        # a vertex of H' that lies on a block outside S keeps that block, so
        # it stays a cut vertex
        was = tree.cut_vertices.intersection(verts)
        cuts.update(
            x for x in was if any(i not in region for i in tree.blocks_of_cut_vertex[x])
        )
        fresh = [(b, tuple(sorted(x for x in b.vertices if x in cuts))) for b in new_blocks]
        cut_set = tree.cut_vertices.difference(verts).union(cuts)
        kept = cuts == was  # no vertex changes its cut status

    # splice the new blocks in among the others, which are still sorted by edges
    blocks = list(tree.blocks)
    incidence = list(tree.incidence)
    for i in reversed(gone):
        del blocks[i], incidence[i]
    placed = []  # the new id of each fresh block
    j = 0
    for b, cut_on in fresh:  # in edge order, so each lands after the one before
        j = bisect_left(blocks, b.edges, lo=j, key=_edges_of)
        blocks.insert(j, b)
        incidence.insert(j, cut_on)
        placed.append(j)
    new = BlockCutTree(tuple(blocks), cut_set, tuple(incidence))
    patched = CactusProfile(after, new)
    _check_rank(patched)
    # the same tree: every node keeps its id and its neighbours
    same = kept and gone == placed and all(incidence[b] == tree.incidence[b] for b in placed)
    if same and "blocks_of_cut_vertex" in tree.__dict__:
        new.__dict__["blocks_of_cut_vertex"] = tree.blocks_of_cut_vertex
    if blocks[0].edges == tree.blocks[0].edges:  # the root keeps its place
        if same:
            new.__dict__["rooted"] = _rehung(rooted, new, placed)
        else:
            if region is None:
                top, region = _subtree(rooted, gone)
            new.__dict__["rooted"] = _spliced(tree, new, region, top, gone, placed, verts)
    return patched


def _subtree(rooted: RootedBlockCutTree, terminals) -> tuple[int, set[int]]:
    """The top node and the nodes of the smallest subtree of rooted that
    holds every node of terminals."""
    parent, depth = rooted.parent, rooted.depth
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
    return top, region


def _transfer_blocks(tree: BlockCutTree, removed, added):
    """The sorted ids of the two cycles C and E between which the edit
    moves a vertex u, and their new blocks, each with its cut vertices, in
    edge order; None if the edit is not such a move.

    The edit must remove {uv, uw, ab} and add {vw, ua, ub}, u a vertex of C
    alone, with C of length >= 4 and v and w its ring neighbours, and ab an
    edge of E != C with a or b on E alone.  The other end of ab may be v or
    w, the cut vertex that C and E share, as when shrink moves u next to it:
    then uv or uw is both removed and added, and stays.  The new blocks hold
    the old blocks' edge tuples and those of `added`."""
    if len(removed) != 3 or len(added) != 3:
        return None
    cut = tree.cut_vertices
    ends = [x for e in removed for x in e]
    at_two = {x for x in ends if ends.count(x) == 2 and x not in cut}
    if len(at_two) != 1:
        return None
    (u,) = at_two
    uv, uw, ab = sorted(removed, key=lambda e: u not in e)  # the edges at u first
    v, w = uv[uv[0] == u], uw[uw[0] == u]
    a, b = ab
    vw, *at_u = sorted(added, key=lambda f: u in f)  # the edge off u first
    if {vw, *at_u} != {_normalize_edge(v, w), _normalize_edge(u, a), _normalize_edge(u, b)}:
        return None
    x = b if a in cut else a
    if x in cut:
        return None
    node = tree.rooted.node
    c, e = node[u], node[x]
    source, target = tree.blocks[c], tree.blocks[e]
    if c == e or source.kind != CYCLE or target.kind != CYCLE or len(source) < 4:
        return None
    ring = [*source.vertices]
    i = ring.index(u)
    if {ring[i - 1], ring[(i + 1) % len(ring)]} != {v, w}:
        return None
    del ring[i]
    into = [*target.vertices]
    i = into.index(a)
    if into[i - 1] == b:
        into.insert(i, u)
    elif into[(i + 1) % len(into)] == b:
        into.insert(i + 1, u)
    else:
        return None
    edges = [*source.edges]
    edges.remove(uv)
    edges.remove(uw)
    insort(edges, vw)
    shrunk = Block(CYCLE, _canonical(ring), tuple(edges))
    edges = [*target.edges]
    edges.remove(ab)
    for f in at_u:
        insort(edges, f)
    grown = Block(CYCLE, _canonical(into), tuple(edges))
    fresh = [(shrunk, tree.incidence[c]), (grown, tree.incidence[e])]
    if grown.edges < shrunk.edges:
        fresh.reverse()
    return sorted((c, e)), fresh


def _spliced(
    tree: BlockCutTree, new: BlockCutTree, region, top: int, gone, placed, verts
) -> RootedBlockCutTree:
    """new.rooted, derived from tree.rooted in the region S that patch_cactus
    re-decomposed (the set region of tree.rooted's nodes, a subtree with
    top its top node): new is tree with the blocks `gone` (ids of tree), all
    in S, replaced by the blocks at the ids `placed` of new, only a vertex
    of verts changes its cut status, and new's block 0 has the edges of
    tree's.

    Let a be the node of tree.rooted above which nothing changes: top if top
    is a cut node or the root, else top's parent, a cut vertex that lies on
    a block outside S.  The nodes of new about S (its blocks of S, old and
    fresh, and the cut vertices on them) form a subtree of new.rooted with
    a at its top.  Every other node in a's subtree hangs below one of those
    cut vertices, inside a unit: a block outside S and its subtree, the same
    in both trees.  So only a's run of order and of rings is new: a
    depth-first walk of the nodes about S, which copies each unit's runs
    whole and shifts its depths by how far its cut vertex moved.  The runs
    before and after a's are tree.rooted's, and every array indexed by node
    id is tree.rooted's with its ids remapped, since the blocks keep their
    edge order and the cut vertices theirs.  When no node changes its id or
    its neighbours, patch_cactus calls _rehung instead.
    """
    old = tree.rooted
    parent, order, depth, sizes, rings = old.parent, old.order, old.depth, old.sizes, old.rings
    mask = old.block_mask
    blocks, incidence = new.blocks, new.incidence
    nblocks, nnew = len(tree.blocks), len(blocks)
    was, now = tree.cut_vertices, new.cut_vertices
    turned = sorted(was.intersection(verts).symmetric_difference(now.intersection(verts)))
    cuts = list(old.cuts)
    lost = [bisect_left(cuts, v) for v in turned if v in was]
    for i in reversed(lost):
        del cuts[i]
    gained = []
    for v in turned:
        if v in now:
            gained.append(bisect_left(cuts, v))
            cuts.insert(gained[-1], v)
    # each array indexed by node id, with each kept node's entry at its new
    # id and 0 at each new node; then its ids renamed
    shape = (nblocks, gone, lost, nnew, placed, gained)
    new_parent, new_depth, new_sizes = (_reindexed(v, *shape) for v in (parent, depth, sizes))
    if gone == placed and not turned:  # no node changes its id
        new_id, renamed, node = range(len(new_parent)), order, [*old.node]
    else:
        # new_id[x] is the id in new of the node x of tree, -1 if it is gone
        new_id = _reindexed(range(len(new_parent)), nnew, placed, gained, nblocks, gone, lost, -1)
        new_parent = [*_gather(new_parent)(new_id)]
        renamed = _gather(order)(new_id)
        node = [*_gather(old.node)(new_id)]
    new_parent[0] = -1  # block 0 may be fresh

    head = parent[top] if 0 < top < nblocks else top  # the node a
    start = order.index(head)
    end = start + sizes[head]
    # a's run of order, as the nodes about S and the units: a unit is filed
    # under its cut vertex with its run of order and of rings, the blocks in
    # reversed order (with r blocks before it in order, rings[B - r - c:B - r])
    units: dict[int, list[tuple[int, int, int]]] = {}
    r = before = mask.count(1, 0, start)
    i = start
    while i < end:
        x = order[i]
        if x < nblocks and x not in region:
            j = i + sizes[x]
            units.setdefault(old.cuts[parent[x] - nblocks], []).append((i, j, nblocks - r))
            r += mask.count(1, i, j)
            i = j
        else:
            r += x < nblocks
            i += 1

    # the blocks about S, at each cut vertex on them
    about: dict[int, list[int]] = {}
    for b in (*placed, *(new_id[i] for i in region if i < nblocks and i not in gone)):
        for v in incidence[b]:
            about.setdefault(v, []).append(b)
    cut_id = {v: nnew + bisect_left(cuts, v) for v in about}

    run: list[int] = []  # a's new run of order
    flags = bytearray()  # its block_mask
    pieces: list[Rings] = []  # its rings, a tuple per node about S or unit, in order
    walked = []  # the nodes about S, in order
    a = new_id[head] if head else 0
    stack: list = [a]
    pop, push = stack.pop, stack.append
    while stack:
        x = pop()
        if x.__class__ is tuple:  # a unit below the cut node p
            p, i, j, hi = x
            ids = renamed[i:j]
            run += ids
            flags += mask[i:j]
            pieces.append(rings[hi - mask.count(1, i, j) : hi])
            new_sizes[p] += j - i
            shift = new_depth[p] + 1 - depth[order[i]]
            if shift:
                for y in ids:
                    new_depth[y] += shift
            continue
        run.append(x)
        walked.append(x)
        new_sizes[x] = 1
        p = new_parent[x]
        d = new_depth[x] + 1
        if x < nnew:
            flags.append(1)
            ring, hub = blocks[x].vertices, -1
            if x:
                hub = cuts[p - nnew]  # the cut vertex x hangs at
                ring = _hung(ring, hub)
            pieces.append((ring,))
            for v in reversed(incidence[x]):
                if v != hub:
                    y = cut_id[v]
                    new_parent[y] = x
                    new_depth[y] = d
                    push(y)
        else:
            flags.append(0)
            v = cuts[x - nnew]
            # the blocks about S and the units here, by their ids
            kids = [(y, y) for y in about[v] if y != p]
            kids += [(renamed[i], (x, i, j, hi)) for i, j, hi in units.get(v, ())]
            kids.sort(reverse=True)
            for y, item in kids:
                if y is item:
                    new_parent[y] = x
                    new_depth[y] = d
                push(item)
    for x in reversed(walked[1:]):
        new_sizes[new_parent[x]] += new_sizes[x]
    grew = new_sizes[a] - sizes[head]
    if grew:
        x = new_parent[a]
        while x >= 0:
            new_sizes[x] += grew
            x = new_parent[x]

    for b in placed:
        for v in blocks[b].vertices:
            node[v] = cut_id[v] if v in now else b
    pieces.reverse()
    rooted = RootedBlockCutTree(
        tuple(new_parent),
        (*renamed[:start], *run, *renamed[end:]),
        tuple(new_depth),
        tuple(node),
        tuple(cuts),
        (*rings[: nblocks - r], *chain.from_iterable(pieces), *rings[nblocks - before :]),
    )
    rooted.__dict__["sizes"] = tuple(new_sizes)
    rooted.__dict__["block_mask"] = mask[:start] + flags + mask[end:]
    return rooted


def _rehung(old: RootedBlockCutTree, new: BlockCutTree, placed) -> RootedBlockCutTree:
    """new.rooted when each block of new at an id of `placed` lies on the
    same cut vertices as the block at that id of old's tree, and the other
    blocks and the cut vertices are the same: the same tree, with only
    those blocks' rings and their other vertices' nodes new."""
    nblocks = len(new.blocks)
    node, rings = [*old.node], [*old.rings]
    for b in placed:
        ring = new.blocks[b].vertices
        for v in ring:
            if v not in new.cut_vertices:
                node[v] = b
        if b:  # hung at its cut vertex
            ring = _hung(ring, old.cuts[old.parent[b] - nblocks])
        rings[nblocks - 1 - old.block_mask.count(1, 0, old.order.index(b))] = ring
    rooted = RootedBlockCutTree(
        old.parent, old.order, old.depth, tuple(node), old.cuts, tuple(rings)
    )
    rooted.__dict__["sizes"] = old.sizes
    rooted.__dict__["block_mask"] = old.block_mask
    return rooted


def _hung(ring: tuple[int, ...], top: int) -> tuple[int, ...]:
    """ring rotated to start at its vertex top."""
    if ring[0] == top:
        return ring
    i = ring.index(top)
    return ring[i:] + ring[:i]


def _gather(ids) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The function from values to the tuple of values[i] for each i of
    ids: one C-level pass per call."""
    if len(ids) > 1:
        return itemgetter(*ids)
    return lambda values: tuple(values[i] for i in ids)


def _reindexed(
    values: Sequence[int], nb: int, gone, lost, nb2: int, placed, gained, fill: int = 0
) -> list[int]:
    """values, indexed by the node ids of a tree with nb blocks, as a list
    indexed by those of one with nb2 blocks: without the entries of the
    blocks at the sorted ids `gone` and of the cut nodes nb + i for i in
    `lost`, and with fill at the blocks `placed` and at the cut nodes
    nb2 + j for j in `gained`."""
    out = [*values]
    for i in reversed(lost):
        del out[nb + i]
    for i in reversed(gone):
        del out[i]
    for j in placed:
        out.insert(j, fill)
    for j in gained:
        out.insert(nb2 + j, fill)
    return out


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
