"""Induced-subgraph detection for the fixed pattern catalog.

Embeddings are reported one per vertex-set/role orbit as a tuple in the
pattern's role order, canonicalized to the lexicographically least tuple
over the pattern's automorphisms. One backtracking matcher reads every
pattern from its reference graph: it places the roles in order with
neighbourhood bitmask algebra and keeps one embedding per orbit by
symmetry breaking on the automorphism group. The claw and the diamond,
the hot tests of the supergraph oracle, keep hand-written loops.
``find_induced_naive`` is the independent subset-enumeration oracle the
detectors are tested against.
"""

from __future__ import annotations

from collections.abc import Iterator
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


# -- the matcher ---------------------------------------------------------------
#
# Roles are placed in role order. The candidates for role i are the vertices
# adjacent to the images of i's earlier neighbours and neither equal nor
# adjacent to the images of its earlier non-neighbours. Automorphic copies
# are cut by the symmetry-breaking rule of Grochow and Kellis (RECOMB 2007):
# for each role r, every other role in r's orbit under the automorphisms
# fixing roles 0..r-1 takes a larger vertex than r. What is left is exactly
# one embedding per orbit.


def _steps(kind: PatternKind) -> tuple[tuple, ...]:
    """Per role: (one earlier neighbour, the other earlier neighbours, the
    earlier non-neighbours, the earlier roles it must exceed)."""
    ref = REFERENCE[kind]
    above: list[list[int]] = [[] for _ in range(ref.n)]
    stabilizer = _AUTS[kind]
    for r in range(ref.n):
        for s in sorted({perm[r] for perm in stabilizer} - {r}):
            above[s].append(r)
        stabilizer = [perm for perm in stabilizer if perm[r] == r]
    steps = [(0, (), (), ())]  # role 0 may take any vertex
    for i in range(1, ref.n):
        # every catalog pattern is connected in role order, so each later
        # role has an earlier neighbour to start its candidates from
        first, *adj = (j for j in range(i) if ref.has_edge(i, j))
        non = tuple(j for j in range(i) if not ref.has_edge(i, j))
        steps.append((first, tuple(adj), non, tuple(above[i])))
    return tuple(steps)


_STEPS = {kind: _steps(kind) for kind in PatternKind}


def _matches(g: Graph, steps) -> Iterator[Embedding]:
    rows = g.rows
    outside = [~(row | 1 << v) for v, row in enumerate(rows)]
    last = len(steps) - 1
    emb = [0] * len(steps)
    cands = [g.full_mask] + [0] * last  # untried candidates per placed role
    depth = 0
    while depth >= 0:
        c = cands[depth]
        if not c:
            depth -= 1
            continue
        low = c & -c
        cands[depth] = c ^ low
        emb[depth] = low.bit_length() - 1
        if depth == last:
            yield tuple(emb)
            continue
        depth += 1
        first, adj, non, above = steps[depth]
        c = rows[emb[first]]
        for j in adj:
            c &= rows[emb[j]]
        for j in non:
            c &= outside[emb[j]]
        for r in above:
            c &= -2 << emb[r]
        cands[depth] = c


# The claw and the diamond keep hand-written loops: supergraph_search runs
# them on every leaf (15,237 leaves per supergraph-oracle benchmark pass),
# that is about half of that workload's time, and on those leaves the
# matcher took 1.2-1.5x as long as either loop (2-vCPU guest, Python 3.11).


def _claws(g: Graph):
    for x in range(g.n):
        nbrs = g.row(x)
        for u in _bits(nbrs):
            rest_u = nbrs & ~g.row(u) & ~((1 << (u + 1)) - 1)
            for v in _bits(rest_u):
                rest_v = rest_u & ~g.row(v) & ~((1 << (v + 1)) - 1)
                for w in _bits(rest_v):
                    yield (x, u, v, w)


def _diamonds(g: Graph):
    for h1, h2 in g.edges():
        common = g.row(h1) & g.row(h2)
        for l1 in _bits(common):
            rest = common & ~g.row(l1) & ~((1 << (l1 + 1)) - 1)
            for l2 in _bits(rest):
                yield (h1, h2, l1, l2)


_LOOPS = {PatternKind.CLAW: _claws, PatternKind.DIAMOND: _diamonds}


def embeddings(g: Graph, pattern: PatternKind) -> Iterator[Embedding]:
    """Induced embeddings in role order, one per orbit, in no set order."""
    loop = _LOOPS.get(pattern)
    return loop(g) if loop else _matches(g, _STEPS[pattern])


def find_induced(g: Graph, pattern: PatternKind) -> list[Embedding]:
    """All induced embeddings, one canonical representative per orbit."""
    return sorted(canonical_embedding(pattern, emb) for emb in embeddings(g, pattern))


def has_induced(g: Graph, pattern: PatternKind) -> bool:
    return next(embeddings(g, pattern), None) is not None


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
