"""Degree-sum machinery: heavy vertices, o-/a-heavy pairs, the Ore test,
and per-pattern heavy-subgraph predicates.

All thresholds use integer arithmetic: v is heavy iff 2*d(v) >= n, and a
pair is heavy iff d(u) + d(v) >= n.

Every "which pairs are heavy" question is answered from g's one degree
table, ``Graph.degree_table``, filled on first read: ``at[d]`` is the mask
of the vertices of degree at least d. The heavy vertices are
``at[ceil(n/2)]``; the heavy partners of u are ``at[n - d(u)]`` without u,
its adjacent heavy partners are those inside ``rows[u]`` and its o-heavy
partners those outside, so no pair is tested on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits, _vertex


@dataclass(frozen=True, slots=True)
class HeavyPair:
    u: int
    v: int
    kind: str  # "o-heavy" (nonadjacent) or "a-heavy" (adjacent)
    degree_sum: int


def _heavy_mask(g: Graph) -> int:
    """The mask of g's heavy vertices, those of degree at least ceil(n/2)."""
    return g.degree_table[1][(g.n + 1) // 2]


def is_heavy(g: Graph, v: int) -> bool:
    return bool(_heavy_mask(g) >> _vertex(g.n, v) & 1)


def heavy_vertices(g: Graph) -> list[int]:
    return list(_bits(_heavy_mask(g)))


def _heavy_pairs_at(g: Graph, adjacent: bool) -> list[tuple[int, int]]:
    """The sorted pairs u < v with degree sum at least n, adjacent or not
    as asked."""
    n, rows = g.n, g.rows
    degs, at = g.degree_table
    out = []
    for u in range(n):
        partners = (rows[u] if adjacent else ~rows[u]) & at[n - degs[u]] & (-2 << u)
        while partners:  # _bits inlined: classify lists both kinds of pair per graph
            low = partners & -partners
            out.append((u, low.bit_length() - 1))
            partners ^= low
    return out


def _pairs(g: Graph, adjacent: bool, kind: str) -> list[HeavyPair]:
    degs = g.degree_table[0]
    return [HeavyPair(u, v, kind, degs[u] + degs[v]) for u, v in _heavy_pairs_at(g, adjacent)]


def o_heavy_pairs(g: Graph) -> list[HeavyPair]:
    """All nonadjacent pairs with degree sum at least n, sorted."""
    return _pairs(g, adjacent=False, kind="o-heavy")


def a_heavy_pairs(g: Graph) -> list[HeavyPair]:
    """All adjacent pairs with degree sum at least n, sorted."""
    return _pairs(g, adjacent=True, kind="a-heavy")


def satisfies_ore(g: Graph) -> bool:
    """True iff every nonadjacent pair is o-heavy (vacuous for cliques)."""
    n, rows = g.n, g.rows
    degs, at = g.degree_table
    full = g.full_mask
    return not any(full & ~(rows[u] | 1 << u | at[n - degs[u]]) for u in range(n))


def subgraph_is_o_heavy(g: Graph, vertices) -> bool:
    """Does the vertex set contain an o-heavy pair of the host graph?"""
    n, rows = g.n, g.rows
    degs, at = g.degree_table
    mask = 0
    for v in vertices:
        mask |= 1 << v
    for u in _bits(mask):
        if mask & ~(rows[u] | 1 << u) & at[n - degs[u]]:
            return True
    return False


def is_pattern_o_heavy(g: Graph, pattern) -> bool:
    """Every induced copy of the pattern contains an o-heavy pair of g.

    Vacuously true when g is pattern-free; stops at the first light copy.
    """
    from .patterns import embeddings

    return all(subgraph_is_o_heavy(g, emb) for emb in embeddings(g, pattern))
