"""Exact Hamiltonicity decisions with verified cycle certificates.

Backtracking over bitmask neighborhoods with degree-2 and connectivity
pruning; a node budget turns runaway searches into an explicit UNDECIDED
answer instead of a wrong one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import InputError
from .graphs import Graph, _bits, flood, is_2_connected

DEFAULT_NODE_BUDGET = 10_000_000

_BUDGET_ENV = "HAMCLOSURE_NODE_BUDGET"


def default_node_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from None


@dataclass(frozen=True, slots=True)
class HamiltonicityCertificate:
    """``result`` is None exactly when the search ran out of budget."""

    result: bool | None
    cycle: tuple[int, ...] | None
    nodes_explored: int
    note: str = ""

    @property
    def undecided(self) -> bool:
        return self.result is None


def validate_cycle(g: Graph, cycle: tuple[int, ...]) -> bool:
    if len(cycle) != g.n or len(set(cycle)) != g.n:
        return False
    return all(g.has_edge(cycle[i], cycle[(i + 1) % g.n]) for i in range(g.n))


def is_hamiltonian(g: Graph, node_budget: int | None = None) -> HamiltonicityCertificate:
    """Exact search; cycles are validated before they are returned."""
    budget = default_node_budget() if node_budget is None else node_budget
    if g.n < 3:
        return HamiltonicityCertificate(False, None, 0, note="fewer than 3 vertices")
    if min(g.degrees()) < 2 or not is_2_connected(g):
        # a hamiltonian cycle tolerates no cut vertex
        return HamiltonicityCertificate(False, None, 0)

    rows = [g.row(v) for v in range(g.n)]
    full = g.full_mask
    start_bit = 1
    nodes = 0
    path = [0]

    def feasible(visited: int, cur: int) -> bool:
        remaining = full & ~visited
        if remaining == 0:
            return True
        # every unvisited vertex still needs two usable connections
        usable = remaining | (1 << cur) | start_bit
        for v in _bits(remaining):
            d = (rows[v] & usable).bit_count()
            if d < 2:
                return False
        # unvisited region plus the path end must stay connected
        return remaining & ~flood(rows, 1 << cur, remaining) == 0

    def search(visited: int, cur: int) -> bool | None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return None
        if visited == full:
            return bool(rows[cur] & start_bit)
        for v in _bits(rows[cur] & ~visited):
            bit = 1 << v
            if not feasible(visited | bit, v):
                continue
            path.append(v)
            hit = search(visited | bit, v)
            if hit:
                return True
            path.pop()
            if hit is None:
                return None
        return False

    outcome = search(start_bit, 0)
    if outcome is None:
        return HamiltonicityCertificate(None, None, nodes, note="node budget exhausted")
    if outcome:
        cycle = tuple(path)
        if not validate_cycle(g, cycle):
            raise AssertionError("internal error: produced cycle failed validation")
        return HamiltonicityCertificate(True, cycle, nodes)
    return HamiltonicityCertificate(False, None, nodes)

