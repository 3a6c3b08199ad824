"""Induced-subgraph detection for the fixed pattern catalog.

Embeddings are reported one per vertex-set/role orbit as a tuple in the
pattern's role order, the lexicographically least tuple over the
pattern's automorphisms. One backtracking matcher reads every pattern
from its reference graph: it places the roles in order with
neighbourhood bitmask algebra and keeps one embedding per orbit by
symmetry breaking on the automorphism group, which leaves that least
tuple; every catalog pattern, the claw included, goes through it.
``net_profile`` classifies nets straight from the matcher's embeddings,
with one ``degree_thresholds`` table per graph; ``classify_net`` takes
one net as a role-ordered tuple and first checks that it induces a net
in g.
``find_induced_naive`` is the independent subset-enumeration oracle the
detectors are tested against.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations

from .errors import InputError
from .graphs import Graph
from .heaviness import _o_heavy_within, degree_thresholds


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


def _pattern(pattern) -> PatternKind:
    """``pattern`` as a catalog pattern, or InputError."""
    if not isinstance(pattern, PatternKind):
        raise InputError(f"pattern {pattern!r} is not a PatternKind")
    return pattern


def embeddings(g: Graph, pattern: PatternKind) -> Iterator[Embedding]:
    """Induced embeddings in role order from the one matcher, one per orbit
    (its least tuple), in no set order."""
    return _matches(g, _STEPS[_pattern(pattern)])


def find_induced(g: Graph, pattern: PatternKind) -> list[Embedding]:
    """All induced embeddings, one canonical representative per orbit."""
    return sorted(embeddings(g, pattern))


def has_induced(g: Graph, pattern: PatternKind) -> bool:
    return next(embeddings(g, pattern), None) is not None


def is_free(g: Graph, patterns) -> bool:
    return not any(has_induced(g, p) for p in patterns)


def find_induced_naive(g: Graph, pattern: PatternKind) -> list[Embedding]:
    """Subset-plus-bijection enumeration; the oracle the detectors answer to."""
    ref = REFERENCE[_pattern(pattern)]
    k = ref.n
    ref_degseq = sorted(ref.degrees())
    ref_twice_edges = 2 * ref.edge_count
    rows = g.rows
    canon = set()
    for subset in combinations(range(g.n), k):
        mask = sum(1 << v for v in subset)
        # each induced edge is counted from both ends
        if sum((rows[v] & mask).bit_count() for v in subset) != ref_twice_edges:
            continue
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
class NetHeaviness:
    o_heavy: bool
    p_heavy: bool
    q_heavy: bool
    q_index: int | None = None
    c_neighbors: tuple[int, int] | None = None


def classify_net(g: Graph, emb: Embedding) -> NetHeaviness:
    """Heaviness flags of one induced net, degrees measured in g. ``emb``
    names the roles (a1, a2, a3, b1, b2, b3), with pendant bi at ai, as
    ``find_induced(g, PatternKind.NET)`` yields them."""
    if not (isinstance(emb, tuple) and len(emb) == 6
            and all(isinstance(v, int) and 0 <= v < g.n for v in emb) and len(set(emb)) == 6):
        raise InputError("net embedding must name six distinct vertices in range")
    net = REFERENCE[PatternKind.NET]
    for (i, u), (j, v) in combinations(enumerate(emb), 2):
        if g.has_edge(u, v) != net.has_edge(i, j):
            raise InputError(f"vertices {emb} do not induce a net (pair ({u}, {v}) wrong)")
    return _net_flags(g, degree_thresholds(g.rows), emb)


def _net_flags(g: Graph, table, emb: Embedding) -> NetHeaviness:
    """Flags of the induced net ``emb``; ``table`` is ``degree_thresholds(g.rows)``."""
    n, rows = g.n, g.rows
    degs, at = table
    corners, pendants = emb[:3], emb[3:]
    corner_mask = sum(1 << a for a in corners)
    p_heavy = any(rows[a] & at[n - degs[a]] & corner_mask for a in corners)
    o_heavy, heavy = _o_heavy_within(g, degs, at, emb), at[(n + 1) // 2]
    for i in range(3):
        # q-heavy at i: a_i and b_i heavy and, for both j != i, a_j of degree
        # 3 and b_j of degree 2, whose other neighbour c_j is heavy
        others = [j for j in range(3) if j != i]
        cs = [(rows[pendants[j]] & ~(1 << corners[j])).bit_length() - 1 for j in others]
        if heavy >> corners[i] & heavy >> pendants[i] & 1 and all(
            degs[corners[j]] == 3 and degs[pendants[j]] == 2 and heavy >> c & 1
            for j, c in zip(others, cs)
        ):
            return NetHeaviness(o_heavy, p_heavy, True, i + 1, tuple(cs))
    return NetHeaviness(o_heavy, p_heavy, False)


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
    # no flag changes under the net's automorphisms: one embedding per orbit will do
    table = degree_thresholds(g.rows)
    flags = [_net_flags(g, table, emb) for emb in embeddings(g, PatternKind.NET)]
    return NetProfile(
        net_count=len(flags),
        net_free=not flags,
        n_o_heavy=all(f.o_heavy for f in flags),
        n_p_heavy=all(f.p_heavy for f in flags),
        n_op_heavy=all(f.o_heavy or f.p_heavy for f in flags),
        n_pq_heavy=all(f.p_heavy or f.q_heavy for f in flags),
    )
