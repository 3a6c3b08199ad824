"""Degree-sum machinery: heavy vertices, o-/a-heavy pairs, the Ore test,
and per-pattern heavy-subgraph predicates.

All thresholds use integer arithmetic: v is heavy iff 2*d(v) >= n, and a
pair is heavy iff d(u) + d(v) >= n.

Every "which pairs are heavy" question is answered from one table per
call, ``degree_thresholds``: ``at[d]`` is the mask of the vertices of
degree at least d. The heavy vertices are ``at[ceil(n/2)]``; the heavy
partners of u are ``at[n - d(u)]`` without u, its adjacent heavy partners
are those inside ``rows[u]`` and its o-heavy partners those outside, so
no pair is tested on its own.
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


def is_heavy(g: Graph, v: int) -> bool:
    return 2 * g.degree(_vertex(g.n, v)) >= g.n


def heavy_vertices(g: Graph) -> list[int]:
    return [v for v in range(g.n) if 2 * g.degree(v) >= g.n]


def degree_thresholds(rows) -> tuple[list[int], list[int]]:
    """(degrees, at) of the adjacency rows: ``at[d]`` is the mask of the
    vertices of degree at least d, for d in 0..n."""
    degs = [row.bit_count() for row in rows]
    at = [0] * (len(rows) + 1)
    for v, d in enumerate(degs):
        at[d] |= 1 << v
    for d in range(len(rows) - 1, -1, -1):
        at[d] |= at[d + 1]
    return degs, at


def _heavy_pairs_at(rows, degs, at, adjacent: bool) -> list[tuple[int, int]]:
    """The sorted pairs u < v with degree sum at least n, adjacent or not
    as asked. ``degs`` and ``at`` are ``degree_thresholds(rows)``."""
    n = len(rows)
    out = []
    for u in range(n):
        partners = (rows[u] if adjacent else ~rows[u]) & at[n - degs[u]] & (-2 << u)
        while partners:  # _bits inlined: classify lists both kinds of pair per graph
            low = partners & -partners
            out.append((u, low.bit_length() - 1))
            partners ^= low
    return out


def _pairs(g: Graph, adjacent: bool, kind: str) -> list[HeavyPair]:
    degs, at = degree_thresholds(g.rows)
    return [
        HeavyPair(u, v, kind, degs[u] + degs[v])
        for u, v in _heavy_pairs_at(g.rows, degs, at, adjacent)
    ]


def o_heavy_pairs(g: Graph) -> list[HeavyPair]:
    """All nonadjacent pairs with degree sum at least n, sorted."""
    return _pairs(g, adjacent=False, kind="o-heavy")


def a_heavy_pairs(g: Graph) -> list[HeavyPair]:
    """All adjacent pairs with degree sum at least n, sorted."""
    return _pairs(g, adjacent=True, kind="a-heavy")


def satisfies_ore(g: Graph) -> bool:
    """True iff every nonadjacent pair is o-heavy (vacuous for cliques)."""
    n, rows = g.n, g.rows
    degs, at = degree_thresholds(rows)
    full = g.full_mask
    return not any(full & ~(rows[u] | 1 << u | at[n - degs[u]]) for u in range(n))


def _o_heavy_within(g: Graph, degs, at, vertices) -> bool:
    """Do the vertices hold an o-heavy pair of g? ``degs`` and ``at`` are
    ``degree_thresholds(g.rows)``."""
    n, rows = g.n, g.rows
    mask = 0
    for v in vertices:
        mask |= 1 << v
    for u in _bits(mask):
        if mask & ~(rows[u] | 1 << u) & at[n - degs[u]]:
            return True
    return False


def subgraph_is_o_heavy(g: Graph, vertices) -> bool:
    """Does the vertex set contain an o-heavy pair of the host graph?"""
    return _o_heavy_within(g, *degree_thresholds(g.rows), vertices)


def is_pattern_o_heavy(g: Graph, pattern) -> bool:
    """Every induced copy of the pattern contains an o-heavy pair of g.

    Vacuously true when g is pattern-free; stops at the first light copy.
    """
    from .patterns import embeddings

    degs, at = degree_thresholds(g.rows)
    return all(_o_heavy_within(g, degs, at, emb) for emb in embeddings(g, pattern))
