"""Induced-subgraph detection for the fixed pattern catalog.

Embeddings are reported one per vertex-set/role orbit as a tuple in the
pattern's role order, the lexicographically least tuple over the
pattern's automorphisms. One backtracking matcher reads every pattern
from its reference graph: it places the roles in order with
neighbourhood bitmask algebra and keeps one embedding per orbit by
symmetry breaking on the automorphism group, which leaves that least
tuple; every catalog pattern, the claw included, goes through it.
Each net flag has one reader: ``_net_p_heavy`` (a heavy pair in the
corner triangle), ``heaviness.subgraph_is_o_heavy`` (an o-heavy pair
among the six vertices) and ``_net_q_heavy`` (the q-shape, with its
index and c neighbours). ``classify_net`` takes one net as a
role-ordered tuple, checks that it induces a net in g and calls all
three. ``net_profile`` walks the matcher's embeddings once: it counts
every net, reads p for each net while an answer is open, and reads o and
q only while an answer they feed is still open. Every reader takes g's
one degree table, ``Graph.degree_table``, filled on first read.
``find_induced_naive`` is the independent subset-enumeration oracle the
detectors are tested against.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations

from .errors import InputError
from .graphs import Graph, _is_int, _text
from .heaviness import _heavy_mask, subgraph_is_o_heavy


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
        key = _text(name, "pattern name").strip().lower()
        try:
            return PatternKind(key)
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
            and all(_is_int(v) and 0 <= v < g.n for v in emb) and len(set(emb)) == 6):
        raise InputError("net embedding must name six distinct vertices in range")
    net = REFERENCE[PatternKind.NET]
    for (i, u), (j, v) in combinations(enumerate(emb), 2):
        if g.has_edge(u, v) != net.has_edge(i, j):
            raise InputError(f"vertices {emb} do not induce a net (pair ({u}, {v}) wrong)")
    q = _net_q_heavy(g, emb)
    q_index, c_neighbors = q or (None, None)
    return NetHeaviness(subgraph_is_o_heavy(g, emb), _net_p_heavy(g, emb),
                        q is not None, q_index, c_neighbors)


# The three flag readers of an induced net ``emb`` (a1, a2, a3, b1, b2, b3);
# the o reader is ``heaviness.subgraph_is_o_heavy``.


def _net_p_heavy(g: Graph, emb: Embedding) -> bool:
    """Does the corner triangle hold a heavy pair? a1 meets both other
    corners, so a1's and a2's heavy partners among the corners cover it."""
    n, rows = g.n, g.rows
    degs, at = g.degree_table
    a1, a2, a3 = emb[0], emb[1], emb[2]
    return bool(rows[a1] & at[n - degs[a1]] & (1 << a2 | 1 << a3)
                or at[n - degs[a2]] >> a3 & 1)


def _net_q_heavy(g: Graph, emb: Embedding) -> tuple[int, tuple[int, int]] | None:
    """(q_index, c_neighbors) at the first i where the net is q-heavy, or None.

    q-heavy at i: a_i and b_i heavy and, for both j != i, a_j of degree 3
    and b_j of degree 2, whose other neighbour c_j is heavy."""
    rows, degs, heavy = g.rows, g.degree_table[0], _heavy_mask(g)
    corners, pendants = emb[:3], emb[3:]
    for i in range(3):
        if not heavy >> corners[i] & heavy >> pendants[i] & 1:
            continue
        others = [j for j in range(3) if j != i]
        if not all(degs[corners[j]] == 3 and degs[pendants[j]] == 2 for j in others):
            continue
        cs = tuple((rows[pendants[j]] & ~(1 << corners[j])).bit_length() - 1 for j in others)
        if all(heavy >> c & 1 for c in cs):
            return i + 1, cs
    return None


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
    """Count every induced net and decide the four ``all`` answers in the
    same pass. A net's o- and q-flags are read only while an answer they
    feed is still open; once all four are false, the rest is only counted."""
    # no flag changes under the net's automorphisms: one embedding per orbit will do
    nets = embeddings(g, PatternKind.NET)
    count = 0
    o_all = p_all = op_all = pq_all = True
    for emb in nets:
        count += 1
        p = _net_p_heavy(g, emb)
        if not p:
            p_all = False
        if (o_all or op_all and not p) and not subgraph_is_o_heavy(g, emb):
            o_all = False
            op_all = op_all and p
        if pq_all and not p and _net_q_heavy(g, emb) is None:
            pq_all = False
        if not (o_all or op_all or pq_all):  # p_all fell with op_all
            count += sum(1 for _ in nets)
            break
    return NetProfile(count, not count, o_all, p_all, op_all, pq_all)
