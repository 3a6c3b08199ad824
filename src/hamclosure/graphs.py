"""Immutable simple undirected graphs over vertices 0..n-1.

Adjacency is stored as one integer bitmask per vertex, so neighborhood
algebra (intersections, set differences, clique tests) is plain integer
arithmetic regardless of n.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from itertools import repeat

from .errors import FormatError, InputError

Edge = tuple[int, int]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _is_int(x) -> bool:
    """Is x an int and not a bool? ``isinstance(True, int)`` holds, so every
    typed argument (vertex, order, budget, limit, seed) is tested here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _text(text, what: str) -> str:
    """``text`` as the str named ``what`` (a name, or text to parse), or
    InputError: not a str."""
    if not isinstance(text, str):
        raise InputError(f"{what} {text!r} is not a str")
    return text


def _edge(n: int, edge) -> Edge:
    """``edge`` as a vertex pair of a graph on n vertices, or InputError:
    not a pair of vertices, out of range, or a loop."""
    try:
        u, v = edge
    except (TypeError, ValueError):
        raise InputError(f"edge {edge!r} is not a pair of vertices") from None
    if not (_is_int(u) and _is_int(v)):
        raise InputError(f"edge {edge!r} is not a pair of vertices")
    if not (0 <= u < n and 0 <= v < n):
        raise InputError(f"edge ({u}, {v}) out of range for n={n}")
    if u == v:
        raise InputError(f"loop edge ({u}, {v}) not allowed")
    return u, v


def _vertex(n: int, v) -> int:
    """``v`` as a vertex of a graph on n vertices, or InputError: not an
    int, or out of range."""
    if not _is_int(v):
        raise InputError(f"vertex {v!r} is not an int")
    if not 0 <= v < n:
        raise InputError(f"vertex {v} out of range")
    return v


def _order(n) -> int:
    """``n`` as a vertex count, or InputError: not a nonnegative int."""
    if not _is_int(n) or n < 0:
        raise InputError(f"vertex count {n!r} is not a nonnegative int")
    return n


def _seed(seed, what: str) -> int:
    """``seed`` as the int named ``what``, or InputError: not an int. Any
    int is a seed."""
    if not _is_int(seed):
        raise InputError(f"{what} {seed!r} is not an int")
    return seed


def _budget(budget, what: str) -> int:
    """``budget`` as the nonnegative int named ``what`` (a budget or a
    limit), or InputError: not an int, or negative."""
    if _seed(budget, what) < 0:
        raise InputError(f"{what} {budget!r} is negative")
    return budget


class Graph:
    """Simple undirected graph; values are immutable and hashable. It owns
    its one degree-sum table, ``degree_table``, filled on first read."""

    __slots__ = ("n", "_rows", "_hash", "_degree_table")

    def __init__(self, n: int, rows: tuple[int, ...]):
        _order(n)
        if not isinstance(rows, tuple) or len(rows) != n:
            raise InputError(f"adjacency rows must be a tuple of {n} int masks")
        for v, row in enumerate(rows):
            if not _is_int(row):
                raise InputError(f"row {v} is not an int mask")
            if row >> n:  # nonzero for a bit at n or above, and for a negative row
                raise InputError(f"row {v} references vertices outside 0..{n - 1}")
            if row >> v & 1:
                raise InputError(f"loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in _bits(row):
                if not rows[u] >> v & 1:
                    raise InputError(f"adjacency not symmetric at ({u}, {v})")
        self.n = n
        self._rows = rows
        self._hash = hash((n, rows))
        self._degree_table = None

    # -- construction ----------------------------------------------------

    @classmethod
    def _unsafe(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """Skip invariant validation; rows must be symmetric and loop-free."""
        g = object.__new__(cls)
        g.n = n
        g._rows = rows
        g._hash = hash((n, rows))
        g._degree_table = None
        return g

    @staticmethod
    def from_edges(n: int, edges: Iterable[Edge]) -> "Graph":
        rows = [0] * _order(n)
        for edge in edges:
            u, v = _edge(n, edge)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def add_edges(self, edges: Iterable[Edge]) -> tuple["Graph", tuple[Edge, ...]]:
        """Return a new graph plus the edges that were actually new."""
        rows = list(self._rows)
        added = []
        for edge in edges:
            u, v = _edge(self.n, edge)
            if not rows[u] >> v & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                added.append((min(u, v), max(u, v)))
        if not added:
            return self, ()
        # each edge was checked above and set in both rows
        return Graph._unsafe(self.n, tuple(rows)), tuple(added)

    # -- basic queries ----------------------------------------------------

    def row(self, v: int) -> int:
        return self._rows[v]

    @property
    def rows(self) -> tuple[int, ...]:
        """Neighbor bitmask of every vertex, indexed by vertex."""
        return self._rows

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self._rows]

    @property
    def degree_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(degrees, at): ``at[d]`` is the mask of the vertices of degree at
        least d, for d in 0..n. Filled on first read and kept."""
        if self._degree_table is None:
            self._degree_table = self._build_degree_table()
        return self._degree_table

    def _build_degree_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # a list first: tuple(generator) resizes as it fills, which raised peak RSS
        degs = tuple([row.bit_count() for row in self._rows])
        at = [0] * (self.n + 1)
        for v, d in enumerate(degs):
            at[d] |= 1 << v
        for d in range(self.n - 1, -1, -1):
            at[d] |= at[d + 1]
        return degs, tuple(at)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self._rows[v]))

    def edges(self) -> list[Edge]:
        out = []
        for u in range(self.n):
            row = self._rows[u] >> (u + 1)
            for v in _bits(row):
                out.append((u, u + 1 + v))
        return out

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._rows) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def non_edges(self) -> list[Edge]:
        out = []
        for u in range(self.n):
            absent = ~self._rows[u] & self.full_mask & ~((1 << (u + 1)) - 1)
            for v in _bits(absent):
                out.append((u, v))
        return out

    def is_clique_mask(self, mask: int) -> bool:
        for v in _bits(mask):
            if (self._rows[v] & mask) != mask ^ (1 << v):
                return False
        return True

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, relabeled 0..k-1 in increasing vertex order."""
        order = sorted({_vertex(self.n, v) for v in vertices})
        index = {v: i for i, v in enumerate(order)}
        rows = [0] * len(order)
        for v in order:
            for u in _bits(self._rows[v]):
                if u in index:
                    rows[index[v]] |= 1 << index[u]
        # the restriction of symmetric, loop-free rows is symmetric and loop-free
        return Graph._unsafe(len(order), tuple(rows))

    # -- value semantics --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# -- named constructors ----------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(_order(n)) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if _order(n) < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# -- connectivity -----------------------------------------------------------
#
# One bitmask flood answers every connectivity question: connectivity floods
# the whole vertex set, and a vertex is a cut vertex when the flood of the
# rest misses part of it. 2-connectivity asks that only of the inner vertices
# of one breadth-first tree, since a vertex of tree degree 1 is never a cut
# vertex.


def flood(rows, seed: int, allowed: int) -> int:
    """Mask of the vertices reached from the ``seed`` mask by paths whose
    later vertices all lie in ``allowed``; ``rows[v]`` is v's neighbor mask."""
    seen = frontier = seed
    while frontier:
        reach = 0
        while frontier:  # _bits inlined: this loop is the hot spot of every flood
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & allowed & ~seen
        seen |= frontier
    return seen


def component_masks(rows, allowed: int) -> list[int]:
    """Connected pieces of the vertices in ``allowed``, lowest vertex first."""
    out = []
    while allowed:
        comp = flood(rows, allowed & -allowed, allowed)
        out.append(comp)
        allowed &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return flood(g.rows, 1, g.full_mask) == g.full_mask


def nonseparable(rows, span: int) -> bool:
    """Is the subgraph induced by the vertex mask ``span`` connected, and
    still connected after deleting any one vertex? Single vertices and
    edges count; ``rows[v]`` is v's neighbor mask."""
    if not span:
        return False
    # one breadth-first pass from the lowest vertex: each vertex is the
    # parent of the unclaimed neighbours it reaches first, and ``inner``
    # keeps the parents
    root = seen = frontier = span & -span
    inner = 0
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            children = rows[low.bit_length() - 1] & span & ~(seen | reach)
            if children:
                inner |= low
                reach |= children
            frontier ^= low
        frontier = reach
        seen |= reach
    if seen != span:
        return False
    if (rows[root.bit_length() - 1] & span).bit_count() < 2:
        inner &= ~root  # the root with one child has tree degree 1
    for v in _bits(inner):
        rest = span & ~(1 << v)
        if flood(rows, rest & -rest, rest) != rest:
            return False
    return True


def is_nonseparable(g: Graph) -> bool:
    """Connected, and still connected after deleting any one vertex; single
    vertices and edges count."""
    return nonseparable(g.rows, g.full_mask)


def is_2_connected(g: Graph) -> bool:
    return g.n >= 3 and is_nonseparable(g)


# -- maximal cliques --------------------------------------------------------


def maximal_clique_masks(g: Graph) -> list[int]:
    """The vertex masks of all inclusion-maximal cliques (Bron-Kerbosch
    with pivoting), in ``maximal_cliques`` order.

    The cliques form an antichain, so ordering them by sorted member list
    puts A before B exactly when the lowest vertex of ``A ^ B`` lies in A:
    the order of the bit-reversed masks, largest first. The search builds
    each clique's reversed mask beside it.
    """
    rows = g.rows
    top = 1 << g.n >> 1  # vertex v's bit in a reversed mask is top >> v
    found: list[tuple[int, int]] = []

    def expand(r: int, reverse: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            found.append((reverse, r))
            return
        # the vertex of p | x with the most neighbours in p, lowest first
        pool, most = p | x, -1
        while pool:
            low = pool & -pool
            v = low.bit_length() - 1
            count = (rows[v] & p).bit_count()
            if count > most:
                pivot, most = v, count
            pool ^= low
        branch = p & ~rows[pivot]
        while branch:  # _bits inlined: one step per node of the search
            bit = branch & -branch
            v = bit.bit_length() - 1
            expand(r | bit, reverse | top >> v, p & rows[v], x & rows[v])
            p ^= bit
            x |= bit
            branch ^= bit

    if g.n:
        expand(0, 0, g.full_mask, 0)
    found.sort(reverse=True)
    return [r for _, r in found]


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """All inclusion-maximal cliques, lexicographic by sorted member list:
    ``maximal_clique_masks`` as vertex sets."""
    return [frozenset(_bits(mask)) for mask in maximal_clique_masks(g)]


# -- graph6 ------------------------------------------------------------------


def _g6_encode_n(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126]) + bytes(((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1))
    raise InputError("graph too large for graph6")


def emit_graph6(g: Graph) -> str:
    out = bytearray(_g6_encode_n(g.n))
    bit_acc = 0
    nbits = 0
    rows = g.rows
    for v in range(1, g.n):
        row = rows[v]
        for u in range(v):
            bit_acc = bit_acc << 1 | row >> u & 1
            nbits += 1
            if nbits == 6:
                out.append(bit_acc + 63)
                bit_acc = 0
                nbits = 0
    if nbits:
        out.append((bit_acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def parse_graph6(text: str) -> Graph:
    s = _text(text, "graph6 text").strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("empty graph6 string", offset=0)
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FormatError("graph6 must be ASCII", offset=0) from exc
    for i, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise FormatError(f"invalid graph6 byte {byte}", offset=i)
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise FormatError("truncated graph6 vertex count", offset=len(data))
            n = 0
            for byte in data[2:8]:
                n = n << 6 | (byte - 63)
            pos = 8
        else:
            if len(data) < 4:
                raise FormatError("truncated graph6 vertex count", offset=len(data))
            n = 0
            for byte in data[1:4]:
                n = n << 6 | (byte - 63)
            pos = 4
    else:
        n = data[0] - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise FormatError(
            f"truncated graph6 bit vector (need {nbytes} bytes, have {len(data) - pos})",
            offset=len(data),
        )
    if len(data) - pos > nbytes:
        raise FormatError("trailing bytes after graph6 bit vector", offset=pos + nbytes)
    # the bit vector as one int: column v holds the pairs (u, v), u < v,
    # with u = 0 first; padding bits at the end are never read
    vector = 0
    for byte in data[pos:]:
        vector = vector << 6 | byte - 63
    unread = 6 * nbytes
    rows = [0] * n
    for v in range(1, n):
        unread -= v
        column = vector >> unread & ((1 << v) - 1)  # u's bit is 1 << (v - 1 - u)
        while column:
            low = column & -column
            u = v - low.bit_length()
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            column ^= low
    # each pair sets both rows, and u < v leaves no loop
    return Graph._unsafe(n, tuple(rows))


# -- edge-list text format ---------------------------------------------------


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    tokens = _text(text, "edge list text").split()
    if len(tokens) < 2:
        raise FormatError("edge list needs an 'n m' header")
    try:
        n, m = int(tokens[0]), int(tokens[1])
        pairs = [int(t) for t in tokens[2:]]
    except ValueError as exc:
        raise FormatError(f"non-integer token in edge list: {exc}") from exc
    if len(pairs) != 2 * m:
        raise FormatError(f"expected {m} edges, found {len(pairs) // 2}")
    edges = [(pairs[2 * i], pairs[2 * i + 1]) for i in range(m)]
    try:
        return Graph.from_edges(n, edges)
    except InputError as exc:
        raise FormatError(str(exc)) from exc


def emit_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- seeded sampling ---------------------------------------------------------


def sample_graphs(n: int, p: float, seed: int, limit: int | None = None) -> Iterator[Graph]:
    """Seeded G(n, p): ``limit`` graphs, or an endless stream when None.

    Each draw reads one ``random()`` per vertex pair u < v in order. The
    arguments are checked here, before the first draw.
    """
    n = _order(n)
    if not (isinstance(p, float) or _is_int(p)):
        raise InputError(f"edge probability {p!r} is not a number")
    if not 0.0 <= p <= 1.0:
        raise InputError("edge probability must lie in [0, 1]")
    if limit is not None:
        _budget(limit, "sample limit")
    rnd = random.Random(_seed(seed, "sample seed")).random

    def draw() -> Graph:
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rnd() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        return Graph._unsafe(n, tuple(rows))

    return (draw() for _ in (repeat(None) if limit is None else range(limit)))
