"""Exact Hamiltonicity decisions with verified cycle certificates.

Two gates answer NO before any search: a vertex of degree below 2 or a cut
vertex, and an unbalanced bipartite graph. A bipartite g with sides of
unequal size is not hamiltonian, since removing the smaller side S leaves
the larger side as more than |S| isolated vertices (Chvátal 1973); that
side is returned as the certificate's ``cut``. The colouring is skipped
when g has more than floor(n^2/4) edges, more than any bipartite graph has.

Past the gates: depth-first search from vertex 0 over bitmask
neighborhoods, trying neighbors in ascending order. Each node prunes
children by usable degrees (computed once per node), by the edges that
degree-2 vertices force, and by connectivity of the unvisited region; a
per-call memo skips path states whose subtree already failed. Pruning
only removes subtrees that hold no hamiltonian cycle, so the first cycle
found is the one the unpruned search finds. A node budget turns runaway
searches into an explicit UNDECIDED answer instead of a wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits, _budget, flood, is_2_connected

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True, slots=True)
class HamiltonicityCertificate:
    """``result`` is None exactly when the search ran out of budget.

    ``nodes_explored`` counts the search nodes entered and ``cache_hits`` the
    children skipped because their path state had already failed. ``cut``
    is set only on a NO without search: the sorted smaller side of an
    unbalanced bipartite g, whose removal leaves more than ``len(cut)``
    components.
    """

    result: bool | None
    cycle: tuple[int, ...] | None
    nodes_explored: int
    note: str = ""
    cache_hits: int = 0
    cut: tuple[int, ...] | None = None

    @property
    def undecided(self) -> bool:
        return self.result is None


def validate_cycle(g: Graph, cycle: tuple[int, ...]) -> bool:
    if len(cycle) != g.n or len(set(cycle)) != g.n:
        return False
    return all(g.has_edge(cycle[i], cycle[(i + 1) % g.n]) for i in range(g.n))


def _sides(rows) -> tuple[int, int] | None:
    """The two colour classes of a connected graph as masks, vertex 0 in
    the first, or None when it has an odd cycle."""
    sides = [1, 0]
    frontier = seen = 1
    k = 0
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= rows[v]
        if reach & sides[k]:  # an edge inside one breadth-first layer
            return None
        frontier = reach & ~seen
        seen |= frontier
        k ^= 1
        sides[k] |= frontier
    return sides[0], sides[1]


def is_hamiltonian(g: Graph, node_budget: int | None = None) -> HamiltonicityCertificate:
    """Exact search; cycles are validated before they are returned. A None
    budget means ``DEFAULT_NODE_BUDGET``; any other budget must be a
    nonnegative int.

    The search enters each (visited, end) state at most once: a state whose
    subtree failed is in the memo, and a success ends the search. Vertex 0
    is always visited and the end is another visited vertex, so
    ``nodes_explored`` is at most 1 + (n - 1) * 2^(n - 2). That is 4,980,737
    at n = 20, under ``DEFAULT_NODE_BUDGET``: up to n = 20 the default
    budget never runs out, and only a smaller budget can give UNDECIDED."""
    budget = DEFAULT_NODE_BUDGET if node_budget is None else _budget(node_budget, "node budget")
    if g.n < 3:
        return HamiltonicityCertificate(False, None, 0, note="fewer than 3 vertices")
    degs = g.degrees()
    if min(degs) < 2 or not is_2_connected(g):
        # a hamiltonian cycle tolerates no cut vertex
        return HamiltonicityCertificate(False, None, 0)

    n = g.n
    rows = [g.row(v) for v in range(n)]
    if 2 * sum(degs) <= n * n:  # m <= floor(n^2/4)
        sides = _sides(rows)
        if sides and sides[0].bit_count() != sides[1].bit_count():
            small = min(sides, key=int.bit_count)
            return HamiltonicityCertificate(False, None, 0, note="unbalanced bipartite",
                                            cut=tuple(_bits(small)))
    full = g.full_mask
    start_bit = 1
    start_row = rows[0]
    nodes = 0
    cache_hits = 0
    # (visited, end) states whose subtree returned False, keyed visited * n + end
    failed: set[int] = set()
    path = [0]

    def search(visited: int, cur: int) -> bool | None:
        nonlocal nodes, cache_hits
        nodes += 1
        if nodes > budget:
            return None
        remaining = full & ~visited
        if remaining == 0:
            return bool(rows[cur] & start_bit)
        # every child sees the same usable set, so degrees are read once here
        usable = remaining | start_bit
        weak = tight = 0
        for u in _bits(remaining):
            d = (rows[u] & usable).bit_count()
            if d < 2:
                weak |= 1 << u
            elif d == 2:
                tight |= 1 << u
        children = rows[cur] & remaining
        if weak:
            if weak & (weak - 1):
                return False
            # an unvisited vertex short of two connections must come next
            children &= weak
        for v in _bits(children):
            bit = 1 << v
            rest = remaining & ~bit
            # a degree-2 vertex of rest uses both its edges; v and the start
            # each have one cycle edge left to give
            forced = tight & ~bit
            to_v = rows[v] & forced
            to_start = start_row & forced
            if to_v & (to_v - 1) or to_start & (to_start - 1):
                continue
            # the closing edge joins the start to the last vertex of the path
            if not start_row & (rest or bit):
                continue
            # a forced v-u-start would close a cycle before rest is covered
            shortcut = to_v & to_start
            if shortcut and shortcut != rest:
                continue
            visited_v = visited | bit
            key = visited_v * n + v
            if key in failed:
                cache_hits += 1
                continue
            # unvisited region plus the path end must stay connected
            if rest & ~flood(rows, bit, rest):
                continue
            path.append(v)
            hit = search(visited_v, v)
            if hit:
                return True
            path.pop()
            if hit is None:
                return None
            failed.add(key)
        return False

    outcome = search(start_bit, 0)
    if outcome is None:
        return HamiltonicityCertificate(None, None, nodes, note="node budget exhausted",
                                        cache_hits=cache_hits)
    if outcome:
        cycle = tuple(path)
        if not validate_cycle(g, cycle):
            raise AssertionError("internal error: produced cycle failed validation")
        return HamiltonicityCertificate(True, cycle, nodes, cache_hits=cache_hits)
    return HamiltonicityCertificate(False, None, nodes, cache_hits=cache_hits)
