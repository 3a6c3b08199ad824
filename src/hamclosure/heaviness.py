"""Degree-sum machinery: heavy vertices, o-/a-heavy pairs, the Ore test,
and per-pattern heavy-subgraph predicates.

All thresholds use integer arithmetic: v is heavy iff 2*d(v) >= n, and a
pair is heavy iff d(u) + d(v) >= n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graphs import Graph


@dataclass(frozen=True, slots=True)
class HeavyPair:
    u: int
    v: int
    kind: str  # "o-heavy" (nonadjacent) or "a-heavy" (adjacent)
    degree_sum: int


def is_heavy(g: Graph, v: int) -> bool:
    if not 0 <= v < g.n:
        raise InputError(f"vertex {v} out of range")
    return 2 * g.degree(v) >= g.n


def heavy_vertices(g: Graph) -> list[int]:
    return [v for v in range(g.n) if 2 * g.degree(v) >= g.n]


def _pairs(g: Graph, adjacent: bool, kind: str) -> list[HeavyPair]:
    degs = g.degrees()
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) == adjacent and degs[u] + degs[v] >= g.n:
                out.append(HeavyPair(u, v, kind, degs[u] + degs[v]))
    return out


def o_heavy_pairs(g: Graph) -> list[HeavyPair]:
    """All nonadjacent pairs with degree sum at least n, sorted."""
    return _pairs(g, adjacent=False, kind="o-heavy")


def a_heavy_pairs(g: Graph) -> list[HeavyPair]:
    """All adjacent pairs with degree sum at least n, sorted."""
    return _pairs(g, adjacent=True, kind="a-heavy")


def is_a_heavy_pair(g: Graph, u: int, v: int) -> bool:
    return g.has_edge(u, v) and g.degree(u) + g.degree(v) >= g.n


def satisfies_ore(g: Graph) -> bool:
    """True iff every nonadjacent pair is o-heavy (vacuous for cliques)."""
    degs = g.degrees()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v) and degs[u] + degs[v] < g.n:
                return False
    return True


def subgraph_is_o_heavy(g: Graph, vertices) -> bool:
    """Does the vertex set contain an o-heavy pair of the host graph?"""
    verts = sorted(vertices)
    degs = g.degrees()
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if not g.has_edge(u, v) and degs[u] + degs[v] >= g.n:
                return True
    return False


def is_pattern_o_heavy(g: Graph, pattern) -> bool:
    """Every induced copy of the pattern contains an o-heavy pair of g.

    Vacuously true when g is pattern-free.
    """
    from .patterns import find_induced

    return all(subgraph_is_o_heavy(g, emb) for emb in find_induced(g, pattern))
