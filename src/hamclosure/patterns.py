"""Induced-subgraph detection for the fixed pattern catalog.

Embeddings are reported one per vertex-set/role orbit as a tuple in the
pattern's role order, canonicalized to the lexicographically least tuple
over the pattern's automorphisms. Specialized detectors anchor on the
highest-constraint feature (triangle or claw center) and prune with
neighborhood bitmask intersections; ``find_induced_naive`` is the
independent subset-enumeration oracle the detectors are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations

from .errors import InputError
from .graphs import Graph, _bits
from .heaviness import is_a_heavy_pair, is_heavy, subgraph_is_o_heavy


class PatternKind(Enum):
    CLAW = "claw"
    P4 = "p4"
    P5 = "p5"
    P6 = "p6"
    C3 = "c3"
    Z1 = "z1"
    Z2 = "z2"
    BULL = "bull"
    NET = "net"
    WOUNDED = "wounded"
    DIAMOND = "diamond"

    @staticmethod
    def from_name(name: str) -> "PatternKind":
        try:
            return PatternKind(name.strip().lower())
        except ValueError:
            raise InputError(f"unknown pattern {name!r}") from None


# Reference graphs in role order. Roles:
#   CLAW    (center, leaf, leaf, leaf)
#   Pk      path order
#   C3      sorted triangle
#   Z1/Z2   (corner, corner, attached corner, tail...)
#   BULL    (bare corner, horned corner, horned corner, horn, horn)
#   NET     (a1, a2, a3, b1, b2, b3) with bi pendant at ai
#   WOUNDED (bare corner, horn corner, tail corner, horn, tail1, tail2)
#   DIAMOND (deg-3 vertex, deg-3 vertex, deg-2 vertex, deg-2 vertex)
_REFERENCE_EDGES = {
    PatternKind.CLAW: (4, [(0, 1), (0, 2), (0, 3)]),
    PatternKind.P4: (4, [(0, 1), (1, 2), (2, 3)]),
    PatternKind.P5: (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    PatternKind.P6: (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
    PatternKind.C3: (3, [(0, 1), (0, 2), (1, 2)]),
    PatternKind.Z1: (4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    PatternKind.Z2: (5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]),
    PatternKind.BULL: (5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
    PatternKind.NET: (6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)]),
    PatternKind.WOUNDED: (6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (4, 5)]),
    PatternKind.DIAMOND: (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
}

REFERENCE: dict[PatternKind, Graph] = {
    kind: Graph.from_edges(n, edges) for kind, (n, edges) in _REFERENCE_EDGES.items()
}


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    auts = []
    for perm in permutations(range(g.n)):
        if all(g.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
               for u in range(g.n) for v in range(u + 1, g.n)):
            auts.append(perm)
    return auts


_AUTS: dict[PatternKind, list[tuple[int, ...]]] = {
    kind: _automorphisms(ref) for kind, ref in REFERENCE.items()
}

Embedding = tuple[int, ...]


def canonical_embedding(pattern: PatternKind, emb: Embedding) -> Embedding:
    return min(tuple(emb[i] for i in perm) for perm in _AUTS[pattern])


# -- specialized detectors ---------------------------------------------------


def _triangles(g: Graph) -> list[tuple[int, int, int]]:
    out = []
    for u, v in g.edges():
        common = g.row(u) & g.row(v)
        for w in _bits(common >> (v + 1)):
            out.append((u, v, v + 1 + w))
    return out


def _claws(g: Graph):
    for x in range(g.n):
        nbrs = g.row(x)
        for u in _bits(nbrs):
            rest_u = nbrs & ~g.row(u) & ~((1 << (u + 1)) - 1)
            for v in _bits(rest_u):
                rest_v = rest_u & ~g.row(v) & ~((1 << (v + 1)) - 1)
                for w in _bits(rest_v):
                    yield (x, u, v, w)


def _paths(g: Graph, k: int):
    for start in range(g.n):
        stack = [((start,), 1 << start, 0)]
        while stack:
            path, used, older_nbrs = stack.pop()
            if len(path) == k:
                yield path
                continue
            last = path[-1]
            cand = g.row(last) & ~used & ~older_nbrs
            for v in _bits(cand):
                stack.append((path + (v,), used | 1 << v, older_nbrs | g.row(last)))


def _z_tails(g: Graph, length: int):
    """Triangle with an induced tail of the given length at one corner."""
    for a, b, c in _triangles(g):
        tri = 1 << a | 1 << b | 1 << c
        for corner, f1, f2 in ((a, b, c), (b, a, c), (c, a, b)):
            banned = tri | g.row(f1) | g.row(f2)
            first = g.row(corner) & ~banned
            if length == 1:
                for p in _bits(first):
                    yield (f1, f2, corner, p)
            else:
                for p in _bits(first):
                    second = g.row(p) & ~banned & ~g.row(corner) & ~(1 << p)
                    for q in _bits(second):
                        yield (f1, f2, corner, p, q)


def _bulls(g: Graph):
    for a, b, c in _triangles(g):
        tri = 1 << a | 1 << b | 1 << c
        for f, c1, c2 in ((a, b, c), (b, a, c), (c, a, b)):
            horns1 = g.row(c1) & ~g.row(f) & ~g.row(c2) & ~tri
            for p1 in _bits(horns1):
                horns2 = g.row(c2) & ~g.row(f) & ~g.row(c1) & ~g.row(p1) & ~tri & ~(1 << p1)
                for p2 in _bits(horns2):
                    yield (f, c1, c2, p1, p2)


def _nets(g: Graph):
    for a1, a2, a3 in _triangles(g):
        tri = 1 << a1 | 1 << a2 | 1 << a3
        c1 = g.row(a1) & ~g.row(a2) & ~g.row(a3) & ~tri
        if not c1:
            continue
        c2_base = g.row(a2) & ~g.row(a1) & ~g.row(a3) & ~tri
        c3_base = g.row(a3) & ~g.row(a1) & ~g.row(a2) & ~tri
        for b1 in _bits(c1):
            c2 = c2_base & ~g.row(b1) & ~(1 << b1)
            for b2 in _bits(c2):
                c3 = c3_base & ~g.row(b1) & ~g.row(b2) & ~(1 << b1) & ~(1 << b2)
                for b3 in _bits(c3):
                    yield (a1, a2, a3, b1, b2, b3)


def _woundeds(g: Graph):
    for a, b, c in _triangles(g):
        tri = 1 << a | 1 << b | 1 << c
        for f, ch, ct in permutations((a, b, c)):
            horns = g.row(ch) & ~g.row(f) & ~g.row(ct) & ~tri
            if not horns:
                continue
            tail1_base = g.row(ct) & ~g.row(f) & ~g.row(ch) & ~tri
            for p in _bits(horns):
                tail1 = tail1_base & ~g.row(p) & ~(1 << p)
                for q1 in _bits(tail1):
                    tail2 = (g.row(q1) & ~g.row(f) & ~g.row(ch) & ~g.row(ct)
                             & ~g.row(p) & ~tri & ~(1 << p) & ~(1 << q1))
                    for q2 in _bits(tail2):
                        yield (f, ch, ct, p, q1, q2)


def _diamonds(g: Graph):
    for h1, h2 in g.edges():
        common = g.row(h1) & g.row(h2)
        for l1 in _bits(common):
            rest = common & ~g.row(l1) & ~((1 << (l1 + 1)) - 1)
            for l2 in _bits(rest):
                yield (h1, h2, l1, l2)


_DETECTORS = {
    PatternKind.CLAW: _claws,
    PatternKind.P4: lambda g: _paths(g, 4),
    PatternKind.P5: lambda g: _paths(g, 5),
    PatternKind.P6: lambda g: _paths(g, 6),
    PatternKind.C3: _triangles,
    PatternKind.Z1: lambda g: _z_tails(g, 1),
    PatternKind.Z2: lambda g: _z_tails(g, 2),
    PatternKind.BULL: _bulls,
    PatternKind.NET: _nets,
    PatternKind.WOUNDED: _woundeds,
    PatternKind.DIAMOND: _diamonds,
}


def find_induced(g: Graph, pattern: PatternKind) -> list[Embedding]:
    """All induced embeddings, one canonical representative per orbit."""
    canon = {canonical_embedding(pattern, emb) for emb in _DETECTORS[pattern](g)}
    return sorted(canon)


def has_induced(g: Graph, pattern: PatternKind) -> bool:
    for _ in _DETECTORS[pattern](g):
        return True
    return False


def is_free(g: Graph, patterns) -> bool:
    return not any(has_induced(g, p) for p in patterns)


def find_induced_naive(g: Graph, pattern: PatternKind) -> list[Embedding]:
    """Subset-plus-bijection enumeration; the oracle the detectors answer to."""
    ref = REFERENCE[pattern]
    k = ref.n
    ref_degseq = sorted(ref.degrees())
    canon = set()
    for subset in combinations(range(g.n), k):
        sub = g.induced(subset)
        if sorted(sub.degrees()) != ref_degseq:
            continue
        for perm in permutations(range(k)):
            if all(sub.has_edge(perm[u], perm[v]) == ref.has_edge(u, v)
                   for u in range(k) for v in range(u + 1, k)):
                canon.add(canonical_embedding(pattern, tuple(subset[perm[i]] for i in range(k))))
    return sorted(canon)


# -- net role structures -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class NetEmbedding:
    """Role-labeled induced net: triangle a1a2a3 with pendant bi at ai."""

    a1: int
    a2: int
    a3: int
    b1: int
    b2: int
    b3: int

    @staticmethod
    def from_tuple(emb: Embedding) -> "NetEmbedding":
        return NetEmbedding(*emb)

    def as_tuple(self) -> Embedding:
        return (self.a1, self.a2, self.a3, self.b1, self.b2, self.b3)

    def corners(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)

    def pendants(self) -> tuple[int, int, int]:
        return (self.b1, self.b2, self.b3)

    def validate(self, g: Graph) -> None:
        verts = self.as_tuple()
        if len(set(verts)) != 6 or not all(0 <= v < g.n for v in verts):
            raise InputError("net embedding must name six distinct vertices in range")
        net = REFERENCE[PatternKind.NET]
        for i in range(6):
            for j in range(i + 1, 6):
                if g.has_edge(verts[i], verts[j]) != net.has_edge(i, j):
                    raise InputError(
                        f"vertices {verts} do not induce a net "
                        f"(pair ({verts[i]}, {verts[j]}) wrong)"
                    )


@dataclass(frozen=True, slots=True)
class NetHeaviness:
    o_heavy: bool
    p_heavy: bool
    q_heavy: bool
    q_index: int | None = None
    c_neighbors: tuple[int, int] | None = None


def classify_net(g: Graph, emb: NetEmbedding) -> NetHeaviness:
    """Heaviness flags of one induced net, degrees measured in g."""
    emb.validate(g)
    o_heavy = subgraph_is_o_heavy(g, emb.as_tuple())
    corners = emb.corners()
    p_heavy = any(
        is_a_heavy_pair(g, corners[i], corners[j])
        for i in range(3) for j in range(i + 1, 3)
    )
    pendants = emb.pendants()
    q_index = None
    c_pair = None
    for i in range(3):
        if not (is_heavy(g, corners[i]) and is_heavy(g, pendants[i])):
            continue
        others = [j for j in range(3) if j != i]
        ok = True
        cs = []
        for j in others:
            aj, bj = corners[j], pendants[j]
            if g.degree(aj) != 3 or g.degree(bj) != 2:
                ok = False
                break
            cj = next(v for v in g.neighbors(bj) if v != aj)
            if not is_heavy(g, cj):
                ok = False
                break
            cs.append(cj)
        if ok:
            q_index = i + 1
            c_pair = (cs[0], cs[1])
            break
    return NetHeaviness(o_heavy, p_heavy, q_index is not None, q_index, c_pair)


@dataclass(frozen=True, slots=True)
class NetProfile:
    """Aggregate heaviness over every induced net; vacuous when net-free."""

    net_count: int
    net_free: bool
    n_o_heavy: bool
    n_p_heavy: bool
    n_op_heavy: bool
    n_pq_heavy: bool


def net_profile(g: Graph) -> NetProfile:
    flags = [classify_net(g, NetEmbedding.from_tuple(e)) for e in find_induced(g, PatternKind.NET)]
    return NetProfile(
        net_count=len(flags),
        net_free=not flags,
        n_o_heavy=all(f.o_heavy for f in flags),
        n_p_heavy=all(f.p_heavy for f in flags),
        n_op_heavy=all(f.o_heavy or f.p_heavy for f in flags),
        n_pq_heavy=all(f.p_heavy or f.q_heavy for f in flags),
    )
