"""Region decomposition and the constructive generalized claw/net finder.

A region is the subgraph induced by a maximal clique of the degree-sum
completion closure. Every vertex of a valid decomposition lies in one
region (interior) or exactly two (frontier); a third region would
contradict claw-freeness of the closure, so decompose fails loudly
rather than proceed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closures import c_closure
from .errors import InputError, PreconditionError
from .graphs import Graph, _bits, flood, is_connected, is_nonseparable, maximal_cliques


@dataclass(frozen=True)
class RegionDecomposition:
    graph: Graph
    closure: Graph
    regions: tuple[frozenset[int], ...]
    membership: tuple[tuple[int, ...], ...]  # vertex -> region indices

    def is_interior(self, v: int) -> bool:
        return len(self.membership[v]) == 1

    def is_frontier(self, v: int) -> bool:
        return len(self.membership[v]) == 2

    def interior_vertices(self, region_index: int) -> frozenset[int]:
        return frozenset(
            v for v in self.regions[region_index] if self.is_interior(v)
        )

    def associated(self, u: int, v: int) -> bool:
        if u == v:
            raise InputError("associated is defined for distinct vertices")
        return bool(set(self.membership[u]) & set(self.membership[v]))


def decompose(g: Graph, closure: Graph | None = None) -> RegionDecomposition:
    """Regions of g; pass the precomputed closure of a c-closed graph to
    skip recomputation."""
    if closure is None:
        closure, _ = c_closure(g)
    elif closure.n != g.n:
        raise InputError("closure must be over the same vertex set")
    regions = tuple(maximal_cliques(closure))
    member: list[list[int]] = [[] for _ in range(g.n)]
    for i, region in enumerate(regions):
        for v in region:
            member[v].append(i)
    for v, idxs in enumerate(member):
        if len(idxs) > 2:
            raise PreconditionError(
                f"vertex {v} lies in {len(idxs)} regions; "
                "the completion closure should be claw-free and diamond-free"
            )
    return RegionDecomposition(g, closure, regions, tuple(tuple(m) for m in member))


# -- decomposition law checks (exercised by the verification suites) ---------


def region_law_violations(decomp: RegionDecomposition) -> list[str]:
    """Violations of the four region laws; empty list means all hold.

    (1) each region induces a nonseparable subgraph; (2) each frontier
    vertex has an interior neighbor in the region unless the region is
    complete and all-frontier; (3) a vertex associated with two vertices
    of a region belongs to it; (4) any two region vertices are joined by
    an induced path through interior vertices of that region. Law (4) is
    checked on every graph, as reachability: b must have a neighbor among
    the vertices a reaches through interior vertices of the region.
    """
    g = decomp.graph
    problems = []
    for i, region in enumerate(decomp.regions):
        sub = g.induced(region)
        if not is_nonseparable(sub):
            problems.append(f"region {i} induces a separable subgraph")
        interior = decomp.interior_vertices(i)
        ordered = sorted(region)
        complete = g.is_clique_mask(sum(1 << v for v in region))
        for v in ordered:
            if not decomp.is_frontier(v) or v not in region:
                continue
            has_interior_neighbor = any(
                g.has_edge(v, u) for u in region if u != v and u in interior
            )
            if not has_interior_neighbor and not (complete and not interior):
                problems.append(f"region {i}: frontier vertex {v} lacks an interior neighbor")
        for u in range(g.n):
            if u in region:
                continue
            linked = sum(1 for w in region if decomp.associated(u, w))
            if linked >= 2:
                problems.append(f"vertex {u} associated with two vertices of region {i} but outside it")
        interior_mask = sum(1 << v for v in interior)
        for k, a in enumerate(ordered):
            # a shortest a..b path with interior inner vertices has no chord
            reach = flood(g.rows, 1 << a, interior_mask)
            for b in ordered[k + 1:]:
                if not g.row(b) & reach:
                    problems.append(
                        f"region {i}: no induced path {a}..{b} through interior vertices"
                    )
    return problems


# -- generalized claws and nets ----------------------------------------------


@dataclass(frozen=True)
class GeneralizedClawNet:
    """Three paths meeting at a center vertex (claw) or leaving a triangle
    (net), connecting three target vertices; degenerate when some path is
    trivial."""

    shape: str  # "claw" or "net"
    core: int | tuple[int, int, int]
    paths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    @property
    def degenerate(self) -> bool:
        return any(len(p) == 1 for p in self.paths)

    def vertices(self) -> frozenset[int]:
        verts = set()
        if self.shape == "net":
            verts.update(self.core)
        else:
            verts.add(self.core)
        for p in self.paths:
            verts.update(p)
        return frozenset(verts)

    def termini(self) -> tuple[int, int, int]:
        return tuple(p[-1] for p in self.paths)  # type: ignore[return-value]


def validate_generalized(g: Graph, gcn: GeneralizedClawNet) -> list[str]:
    """Shape and inducedness violations; empty list means valid."""
    problems = []
    expected_edges: set[tuple[int, int]] = set()
    if gcn.shape == "claw":
        origins = (gcn.core, gcn.core, gcn.core)
    elif gcn.shape == "net":
        x1, x2, x3 = gcn.core  # type: ignore[misc]
        origins = (x1, x2, x3)
        for u, v in ((x1, x2), (x1, x3), (x2, x3)):
            expected_edges.add((min(u, v), max(u, v)))
    else:
        return [f"unknown shape {gcn.shape!r}"]
    seen: dict[int, int] = {}
    for i, path in enumerate(gcn.paths):
        if path[0] != origins[i]:
            problems.append(f"path {i} does not start at its origin")
        for a, b in zip(path, path[1:]):
            expected_edges.add((min(a, b), max(a, b)))
        for v in path:
            if v in seen and not (gcn.shape == "claw" and v == gcn.core):
                problems.append(f"paths {seen[v]} and {i} share vertex {v}")
            seen.setdefault(v, i)
    verts = sorted(gcn.vertices())
    actual = {
        (u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1:]
        if g.has_edge(u, v)
    }
    if actual != expected_edges:
        extra = actual - expected_edges
        missing = expected_edges - actual
        problems.append(f"not induced: extra edges {sorted(extra)}, missing {sorted(missing)}")
    return problems


def _lex_shortest_path(g: Graph, src: int, targets: set[int]) -> list[int]:
    """Lexicographically least among the shortest src->targets paths."""
    dist = [-1] * g.n
    frontier = [t for t in targets]
    for t in targets:
        dist[t] = 0
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for v in frontier:
            for u in _bits(g.row(v)):
                if dist[u] == -1:
                    dist[u] = depth
                    nxt.append(u)
        frontier = nxt
    if dist[src] == -1:
        raise InputError("targets unreachable from source")
    path = [src]
    cur = src
    while dist[cur] != 0:
        cur = min(u for u in _bits(g.row(cur)) if dist[u] == dist[cur] - 1)
        path.append(cur)
    return path


def generalized_claw_or_net(g: Graph, z1: int, z2: int, z3: int) -> GeneralizedClawNet:
    """Induced generalized claw or net connecting three distinct vertices,
    built the constructive way: a shortest z1-z2 path, a shortest feeder
    from z3, then a case split on how the feeder meets the path."""
    if len({z1, z2, z3}) != 3:
        raise InputError("targets must be three distinct vertices")
    for z in (z1, z2, z3):
        if not 0 <= z < g.n:
            raise InputError(f"vertex {z} out of range")
    if not is_connected(g):
        raise InputError("host graph must be connected")

    p = _lex_shortest_path(g, z1, {z2})
    if z3 in p:
        i = p.index(z3)
        q1 = tuple(reversed(p[: i + 1]))
        q2 = tuple(p[i:])
        return GeneralizedClawNet("claw", z3, (q1, q2, (z3,)))

    p_set = set(p)
    feeder = _lex_shortest_path(g, z3, p_set)  # z3 ... x with only x on p
    x = feeder[-1]
    x3 = feeder[-2]
    q3 = tuple(reversed(feeder[:-1]))  # x3 ... z3
    nbrs_on_p = [i for i, v in enumerate(p) if g.has_edge(x3, v)]
    xi = p.index(x)

    if len(nbrs_on_p) == 1:
        q1 = tuple(reversed(p[: xi + 1]))
        q2 = tuple(p[xi:])
        return GeneralizedClawNet("claw", x, (q1, q2, (x,) + q3))

    i1, i2 = nbrs_on_p[0], nbrs_on_p[-1]
    if i2 - i1 > 2:
        # unreachable: p[: i1 + 1] + (x3,) + p[i2:] would be a z1-z2 path shorter than p
        raise AssertionError("shortest path violated: far-apart feeder contacts")
    if i2 - i1 == 1:
        x1, x2 = p[i1], p[i2]
        q1 = tuple(reversed(p[: i1 + 1]))
        q2 = tuple(p[i2:])
        return GeneralizedClawNet("net", (x1, x2, x3), (q1, q2, q3))
    # contacts two apart: drop the middle vertex, center the claw on the feeder
    x1, x2 = p[i1], p[i2]
    q1 = (x3,) + tuple(reversed(p[: i1 + 1]))
    q2 = (x3,) + tuple(p[i2:])
    return GeneralizedClawNet("claw", x3, (q1, q2, q3))
