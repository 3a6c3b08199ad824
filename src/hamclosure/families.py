"""Parametric generators and recognizers for the clique-chain families.

Seven families: chains of cliques joined by matchings (C1N), cyclic
chains with optional one-vertex identifications (C2N), a clique with an
attached four-vertex path (C3NQ), and four composed families (C1NP,
C2NP, C1NPQ, C2NPQ) built from a core clique K (plus a secondary clique
K' meeting K in one vertex) with components glued as chains, cycles, or
path attachments.

Membership is checked by certificate. A generator writes only the
certificate; the graph is its replay, validated by the same clause checker
the recognizer uses, so a successful generate() is a proof of membership
and recognize() round-trips by construction search.

The composed families' clauses live in two tables: ``FAMILY_SPECS``, one
``FamilySpec`` row per family (rule for K, whether K' exists, allowed
glues, counting clauses, heavy-pair condition), and ``GLUES``, one row per
glue tag (base family, host clique(s), attachment rule). The certificate
checker, the recognizer and the generator all read these rows. Chains and
cycles of cliques share one clause checker. The counting clauses give the
recognizer's component gate, and it picks the first glue assignment that
the checker's reading of those clauses (``_count_problems``) accepts.
The composed clauses read vertex sets as integer masks. The checker and the
recognizer share one attachment test (``_attaches``) and one core-clique
rule (``_core_faults``); the recognizer proposes K and K' from the masks of
g's maximal cliques (``maximal_clique_masks``, one enumeration per call),
and the checker's clauses (``_composed_problems``), with the one
maximality test (``_is_maximal``), decide every candidate.

Glue searches read their span inside g. A glue search is a base-family
search on a component plus its host cliques, and that vertex set is a mask
``span`` of g. The base searches and clause checkers take g and a span and
read the subgraph it induces in place, in g's vertex names: its rows are
``g.rows[v] & span``, its 2-connectivity is ``nonseparable(g.rows, span)``,
and its maximal cliques are the inclusion-maximal sets among the masks of
g's maximal cliques cut down to the span, in ``maximal_clique_masks``
order (which is ``maximal_cliques`` order). The public
recognizers and checkers are the full-mask case. Two facts the recognizer
already holds are not decided again: the mask of g's heavy vertices, and
each sub-certificate. A glue search keeps a sub-certificate only after the
base family's checker passed it on its span, which is the check the public
composed checker repeats on the same span, so skipping the repeat is exact.

Two-clique lemma. Every vertex of a C1N, C2N or C3NQ member lies in at most
two maximal cliques: in a chain or cycle a vertex has its own cell or
cells and at most one junction, and the C3NQ edge list gives each path and
attachment vertex one edge-clique besides its own (the same bound Krausz's
theorem gives line graphs). Call a vertex of g crowded when it lies in
three or more maximal cliques of g. A component vertex v that attaches has
N[v] inside its glue span, so each maximal clique of g through v is a
maximal clique of the subgraph the span induces, which is a base member.
So a composed certificate leaves no crowded vertex outside K and K', and
the recognizer skips a candidate that does before it finds components or
runs a glue search; the candidate order, and so the first certificate
accepted, is unchanged.

The C1N, C2N and C3NQ recognizers read their candidates from their own
clauses. Chains and cycles share one cell reader: the cells are the maximal
cliques of g that are not matching edges, and one walk along their links
gives the chain or the cycle. Degrees fix the C3NQ path. The clause checkers
alone decide whether a candidate certificate is accepted.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property, reduce
from operator import or_

from .closures import _c_closed, _claw_status
from .errors import InputError, ParameterError
from .graphs import (
    Graph, _bits, _seed, _text, component_masks, flood, is_2_connected, maximal_clique_masks,
    nonseparable,
)
from .heaviness import _heavy_mask
# has_induced is unused here; benchmark/tests/test_harness.py checks it is bound
from .patterns import has_induced, net_profile  # noqa: F401


class FamilyKind(Enum):
    C1N = "C1N"
    C2N = "C2N"
    C3NQ = "C3NQ"
    C1NP = "C1NP"
    C2NP = "C2NP"
    C1NPQ = "C1NPQ"
    C2NPQ = "C2NPQ"

    @staticmethod
    def from_name(name: str) -> "FamilyKind":
        key = _text(name, "family name").strip().upper()
        try:
            return FamilyKind(key)
        except ValueError:
            raise InputError(f"unknown family {name!r}") from None


P_HEAVY_UNION = frozenset({FamilyKind.C1N, FamilyKind.C2N, FamilyKind.C1NP, FamilyKind.C2NP})
PQ_HEAVY_UNION = P_HEAVY_UNION | {FamilyKind.C1NPQ, FamilyKind.C2NPQ}


@dataclass(frozen=True)
class ComponentSpec:
    """One glued component: a chain or cycle anchored at K (or K'), or the
    fixed four-vertex path attachment."""

    kind: str
    clique_sizes: tuple[int, ...] = ()
    junction_sizes: tuple[int, ...] = ()


@dataclass(frozen=True)
class FamilyParams:
    family: FamilyKind
    clique_sizes: tuple[int, ...] = ()
    junction_sizes: tuple[int, ...] = ()
    components: tuple[ComponentSpec, ...] = ()


# -- certificates -------------------------------------------------------------

Junction = tuple  # ("identify", v) | ("matching", ((u, v), ...))


def _clique_edges(cell) -> list[tuple[int, int]]:
    return [(u, v) for i, u in enumerate(cell) for v in cell[i + 1:]]


def _cell_mask(cell) -> int:
    return sum(1 << v for v in cell)


def _cell_faults(g: Graph, cell) -> list[str]:
    """Why a certificate cell has no vertex mask: not a tuple, a repeat or a
    stranger. Repeats are sought only among vertices, since a stranger may
    be unhashable."""
    if not isinstance(cell, tuple):
        return ["is not a tuple of vertices"]
    named = [v for v in cell if isinstance(v, int)]
    faults = []
    if len(set(named)) != len(named):
        faults.append("repeats a vertex")
    if len(named) != len(cell) or not all(0 <= v < g.n for v in named):
        faults.append("names a vertex outside the graph")
    return faults


def _untupled(cert, *names) -> list[str]:
    """The named fields of ``cert`` that are not tuples."""
    return [f"{name} is not a tuple" for name in names
            if not isinstance(getattr(cert, name), tuple)]


@dataclass(frozen=True)
class ChainCert:
    n: int
    cells: tuple[tuple[int, ...], ...]
    matchings: tuple[tuple[tuple[int, int], ...], ...]

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for cell in self.cells:
            out.extend(_clique_edges(cell))
        for matching in self.matchings:
            out.extend(matching)
        return out


@dataclass(frozen=True)
class CycleCert:
    n: int
    cells: tuple[tuple[int, ...], ...]
    junctions: tuple[Junction, ...]  # junction i joins cell i and cell (i+1) % t

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for cell in self.cells:
            out.extend(_clique_edges(cell))
        for junction in self.junctions:
            if junction[0] == "matching":
                out.extend(junction[1])
        return out


@dataclass(frozen=True)
class C3NQCert:
    n: int
    clique: tuple[int, ...]
    a1: int
    c2: int
    c3: int
    b2: int
    a2: int
    a3: int
    b3: int

    def edges(self) -> list[tuple[int, int]]:
        out = _clique_edges(self.clique)
        out += [(self.b2, self.a2), (self.a2, self.a3), (self.a3, self.b3)]
        out += [(self.c2, self.b2), (self.a1, self.a2), (self.a1, self.a3), (self.c3, self.b3)]
        return out


@dataclass(frozen=True)
class ComponentCert:
    """``sub.n`` reads two ways: recognized certificates store the order of
    the component with its host cliques, generated ones the whole graph's
    order. No clause checker reads ``n``, so both check clean."""

    vertices: tuple[int, ...]
    glue: str  # component kind; records how the component attaches
    sub: object  # ChainCert | CycleCert | C3NQCert over global vertex ids


@dataclass(frozen=True)
class ComposedCert:
    n: int
    k_clique: tuple[int, ...]
    k_prime: tuple[int, ...] | None
    u0: int | None
    components: tuple[ComponentCert, ...]

    def edges(self) -> list[tuple[int, int]]:
        out = _clique_edges(self.k_clique)
        if self.k_prime:
            out += _clique_edges(self.k_prime)
        for comp in self.components:
            out.extend(comp.sub.edges())
        return out


Certificate = ChainCert | CycleCert | C3NQCert | ComposedCert


def replay_certificate(cert: Certificate) -> Graph:
    return Graph.from_edges(cert.n, cert.edges())


# -- certificate checkers -----------------------------------------------------


def _junction_faults(junction) -> list[str]:
    """Why a junction cannot be read: a bad shape or a matching edge that is
    not a vertex pair."""
    if not (isinstance(junction, tuple) and len(junction) == 2):
        return ["is not a (type, data) pair"]
    kind, data = junction
    if kind == "identify" and not isinstance(data, int):
        return ["identification vertex is not a vertex"]
    if kind != "matching":
        return []
    if not isinstance(data, tuple):
        return ["matching is not a tuple of edges"]
    return [
        f"edge {pair!r} is not a vertex pair" for pair in data
        if not (isinstance(pair, tuple) and len(pair) == 2
                and all(isinstance(v, int) for v in pair))
    ]


def _in_span(span: int, v: int) -> bool:
    return v >= 0 and bool(span >> v & 1)


def _edges_exact(g: Graph, span: int, cells, pairs) -> bool:
    """Are the edges of g inside ``span`` exactly those of the cliques
    ``cells`` (vertex masks inside ``span``) and the vertex ``pairs``? A
    pair that is a loop or leaves ``span`` is no edge of g."""
    expected = [0] * g.n
    for mask in cells:
        for v in _bits(mask):
            expected[v] |= mask
    for u, v in pairs:
        if u == v or not (_in_span(span, u) and _in_span(span, v)):
            return False
        expected[u] |= 1 << v
        expected[v] |= 1 << u
    rows = g.rows
    return all(expected[v] & ~(1 << v) == rows[v] & span for v in _bits(span))


def _check_clique_sequence(g: Graph, span: int, cert, junctions, cyclic: bool) -> list[str]:
    """Clauses shared by chains and cycles of cliques, on the subgraph
    induced by ``span``.

    Junction i joins cell i and cell (i + 1) % t: a chain passes its t - 1
    matchings, a cycle its t junctions.
    """
    cells = cert.cells
    problems = [
        f"cell {i} {fault}" for i, cell in enumerate(cells) for fault in _cell_faults(g, cell)
    ]
    problems += [
        f"junction {i} {fault}"
        for i, junction in enumerate(junctions) for fault in _junction_faults(junction)
    ]
    if problems:
        return problems
    t = len(cells)
    masks = [_cell_mask(c) for c in cells]
    for i, mask in enumerate(masks):
        if len(cells[i]) < 2:
            problems.append(f"cell {i} smaller than 2")
        elif not cyclic and 0 < i < t - 1 and len(cells[i]) < 4:
            problems.append(f"interior clique {i} smaller than 4")
        if not g.is_clique_mask(mask):
            problems.append(f"cell {i} is not a clique")
    if reduce(or_, masks) != span:
        problems.append("cells do not cover every vertex")
    joined = {frozenset((i, (i + 1) % t)) for i in range(len(junctions))}
    for i, j in itertools.combinations(range(t), 2):
        if masks[i] & masks[j] and {i, j} not in joined:
            problems.append(f"cells {i},{j} share vertices but no junction joins them")
    in_sets: list[set[int]] = [set() for _ in range(t)]
    out_sets: list[set[int]] = [set() for _ in range(t)]
    for i, junction in enumerate(junctions):
        left, right = i, (i + 1) % t
        inter = masks[left] & masks[right]
        if junction[0] == "identify":
            z = junction[1]
            if z not in cells[left] or inter != 1 << z:
                problems.append(f"junction {i} identification vertex mismatch")
            out_sets[left], in_sets[right] = {z}, {z}
        elif junction[0] == "matching":
            matching = junction[1]
            if inter:
                problems.append(f"junction {i} cliques overlap but are joined by a matching")
            if len(matching) < 2:
                problems.append(f"junction {i} matching smaller than 2")
            for u, v in matching:
                if u not in cells[left] or v not in cells[right]:
                    problems.append(f"junction {i} edge ({u}, {v}) not between its cliques")
            out_sets[left] = {u for u, _ in matching}
            in_sets[right] = {v for _, v in matching}
            if len(out_sets[left]) != len(matching) or len(in_sets[right]) != len(matching):
                problems.append(f"junction {i} is not a matching")
        else:
            problems.append(f"junction {i} has unknown type {junction[0]!r}")
    for i in range(t):
        if in_sets[i] & out_sets[i]:
            problems.append(f"cell {i} uses a vertex in both of its junctions")
        if cyclic and not (in_sets[i] and out_sets[i]):
            problems.append(f"cell {i} missing a junction attachment")
    if cyclic and t == 3 and all(j[0] == "identify" for j in junctions):
        problems.append("3-cycles need at least one matching junction of size 2")
    pairs = [pair for kind, data in junctions if kind == "matching" for pair in data]
    if not _edges_exact(g, span, masks, pairs):
        # the lists are built only here, from the edge sets
        expected = {(min(u, v), max(u, v)) for u, v in cert.edges()}
        actual = {(u, v) for u in _bits(span) for v in _bits(g.rows[u] & span & (-2 << u))}
        extra = sorted(actual - expected)
        missing = sorted(expected - actual)
        shape = "cycle" if cyclic else "chain"
        problems.append(f"edges not exactly the {shape}: extra {extra}, missing {missing}")
    return problems


def check_chain_cert(g: Graph, cert: ChainCert) -> list[str]:
    return _chain_problems(g, g.full_mask, cert)


def _chain_problems(g: Graph, span: int, cert: ChainCert) -> list[str]:
    if faults := _untupled(cert, "cells", "matchings"):
        return faults
    if len(cert.cells) < 1:
        return ["chain needs at least one clique"]
    if len(cert.matchings) != len(cert.cells) - 1:
        return ["chain needs one matching per consecutive clique pair"]
    return _check_clique_sequence(g, span, cert, [("matching", m) for m in cert.matchings], False)


def check_cycle_cert(g: Graph, cert: CycleCert) -> list[str]:
    return _cycle_problems(g, g.full_mask, cert)


def _cycle_problems(g: Graph, span: int, cert: CycleCert) -> list[str]:
    if faults := _untupled(cert, "cells", "junctions"):
        return faults
    if len(cert.cells) < 3:
        return ["cycle needs at least 3 cliques"]
    if len(cert.junctions) != len(cert.cells):
        return ["cycle needs one junction per consecutive clique pair"]
    return _check_clique_sequence(g, span, cert, cert.junctions, True)


def check_c3nq_cert(g: Graph, cert: C3NQCert) -> list[str]:
    return _c3nq_problems(g, g.full_mask, cert)


def _c3nq_problems(g: Graph, span: int, cert: C3NQCert) -> list[str]:
    path = (cert.b2, cert.a2, cert.a3, cert.b3)
    attachments = (cert.a1, cert.c2, cert.c3)
    problems = [f"core clique {fault}" for fault in _cell_faults(g, cert.clique)]
    problems += [f"path plus attachments {fault}" for fault in _cell_faults(g, path + attachments)]
    if problems:
        return problems
    kmask = _cell_mask(cert.clique)
    if len(cert.clique) < 4:
        problems.append("core clique smaller than 4")
    if not g.is_clique_mask(kmask):
        problems.append("core is not a clique")
    if any(kmask >> v & 1 for v in path):
        problems.append("path vertices must lie outside the clique")
    if not all(kmask >> v & 1 for v in attachments):
        problems.append("attachment vertices must be clique vertices")
    if kmask | _cell_mask(path) != span:
        problems.append("clique plus path must cover every vertex")
    if not _edges_exact(g, span, [], cert.edges()):
        problems.append("edges not exactly the clique-plus-path attachment")
    return problems


# -- base-family searches on a span of g --------------------------------------
#
# ``cliques_of()`` gives the span's maximal cliques as masks, in
# ``maximal_clique_masks`` order.


def is_c1n(g: Graph) -> ChainCert | None:
    """Chain-of-cliques decomposition, or None."""
    return _c1n_of(g, g.full_mask, lambda: maximal_clique_masks(g))


def _c1n_of(g: Graph, span: int, cliques_of) -> ChainCert | None:
    """``is_c1n`` of the span; ``cliques_of()`` is asked only once the span
    is connected and not complete."""
    size = span.bit_count()
    if size < 2 or flood(g.rows, span & -span, span) != span:
        return None
    if g.is_clique_mask(span):
        return ChainCert(size, (tuple(_bits(span)),), ())
    cliques = cliques_of()
    links = _cell_links(g, cliques, cyclic=False)
    ends = [i for i in links or () if len(links[i]) == 1]
    if not ends or any(len(joined) > 2 for joined in links.values()):
        return None
    start = min(ends)
    order, junctions = _walk(links, start, links[start][0])
    if any(kind != "matching" for kind, _ in junctions):
        return None
    cert = ChainCert(
        size, tuple(tuple(_bits(cliques[i])) for i in order), tuple(m for _, m in junctions)
    )
    return None if _chain_problems(g, span, cert) else cert


def is_c2n(g: Graph) -> CycleCert | None:
    """Cyclic chain-of-cliques decomposition, or None."""
    return _c2n_of(g, g.full_mask, lambda: maximal_clique_masks(g))


def _c2n_of(g: Graph, span: int, cliques_of) -> CycleCert | None:
    """``is_c2n`` of the span; ``cliques_of()`` is asked only once the span
    is 2-connected."""
    # A member is 2-connected: deleting a vertex breaks at most one junction.
    size = span.bit_count()
    if size < 3 or not nonseparable(g.rows, span):
        return None
    cliques = cliques_of()
    links = _cell_links(g, cliques, cyclic=True)
    if links is None or any(len(joined) != 2 for joined in links.values()):
        return None
    low = span & -span
    start = min(i for i in links if cliques[i] & low)
    near, far = sorted(links[start])
    order, junctions = _walk(links, start, near)
    if [j[0] for j in junctions] == ["matching", "identify", "identify"]:
        # A certificate of a 3-cycle with one matching never opens with it:
        # the third cell's edge between the identified vertices also joins
        # the two matched cells.
        order, junctions = _walk(links, start, far)
    cert = CycleCert(size, tuple(tuple(_bits(cliques[i])) for i in order), tuple(junctions))
    return None if _cycle_problems(g, span, cert) else cert


def _cell_links(g: Graph, cliques, cyclic: bool):
    """The cells of a chain (or, with ``cyclic``, a cycle) of cliques, read
    from the maximal cliques (vertex masks) of the span: each cell's clique
    index maps to its links ``(cell, junction)``. None when a vertex lies in
    three maximal cliques.

    The clauses fix the cells. A vertex outside a cell has at most one
    neighbour in it, so the cells are maximal cliques, the other maximal
    cliques are single matching edges, and no vertex lies in three. A
    matching has at least 2 edges, so the matchings are the bundles of 2 or
    more edge-cliques joining the same two cliques, and every other maximal
    clique is a cell. The checker decides whether the cells read this way
    form a member.
    """
    shared, crowded = _overlaps(cliques)
    if crowded:
        return None
    owners: dict[int, list[int]] = {}  # the two cliques of each shared vertex
    for i, clique in enumerate(cliques):
        for v in _bits(clique & shared):
            owners.setdefault(v, []).append(i)
    bundles: dict[tuple[int, int], list[tuple[int, tuple[int, int]]]] = {}
    for i, clique in enumerate(cliques):
        if clique.bit_count() != 2 or clique & ~shared:
            continue
        sides = []
        for v in _bits(clique):
            a, b = owners[v]
            sides.append((b if a == i else a, v))
        (p, x), (q, y) = sorted(sides)
        # A cycle's cell hosting a matching keeps a vertex for its other
        # junction, so it has at least 3 vertices; a chain's end cell may
        # have 2.
        if not cyclic or min(cliques[p].bit_count(), cliques[q].bit_count()) >= 3:
            bundles.setdefault((p, q), []).append((i, (x, y)))
    bundles = {pq: edges for pq, edges in bundles.items() if len(edges) >= 2}
    bundled = {i for edges in bundles.values() for i, _ in edges}
    cells = [i for i in range(len(cliques)) if i not in bundled]
    if cyclic and len(cells) == 2 and bundles:
        # Two cliques joined by k parallel edges: the first edge is a cell,
        # and with k = 2 so is the second, which alone matches nothing.
        (edges,) = bundles.values()
        cells.append(edges.pop(0)[0])
        if len(edges) < 2:
            cells.append(edges.pop()[0])
            bundles.clear()
    elif not cells:
        # Only the 4-cycle bundles every edge-clique, each with its opposite
        # edge: as a chain, the bundle that holds clique 0 is the two cells.
        pq = next(pq for pq, edges in bundles.items() if edges[0][0] == 0)
        cells = [i for i, _ in bundles.pop(pq)]
    links: dict[int, list[tuple[int, Junction]]] = {i: [] for i in cells}
    for v in _bits(shared):
        p, q = owners[v]
        if p in links and q in links:
            links[p].append((q, ("identify", v)))
            links[q].append((p, ("identify", v)))
    for (p, q), edges in bundles.items():
        pairs = [pair for _, pair in edges]
        links[p].append((q, ("matching", tuple(sorted(pairs)))))
        links[q].append((p, ("matching", tuple(sorted((y, x) for x, y in pairs)))))
    return links


def _walk(links, start: int, link):
    """The cells and junctions met leaving ``start`` by ``link``, until the
    walk comes back to ``start`` or stops at a cell with one link."""
    order, junctions = [start], []
    prev, (cur, junction) = start, link
    while True:
        junctions.append(junction)
        if cur == start:
            return order, junctions
        order.append(cur)
        if len(links[cur]) == 1:
            return order, junctions
        a, b = links[cur]
        prev, (cur, junction) = cur, (b if a[0] == prev else a)


def is_c3nq(g: Graph) -> C3NQCert | None:
    """Clique plus attached four-vertex path, or None."""
    return _c3nq_of(g, g.full_mask)


def _c3nq_of(g: Graph, span: int) -> C3NQCert | None:
    """``is_c3nq`` of the span."""
    if span.bit_count() < 8:
        return None
    # Every clique vertex has degree at least |K| - 1 >= 3, and c2 and c3
    # gain a path neighbour, so b2 and b3 are the only vertices of degree 2
    # and a2 and a3 their only neighbours of degree 3. That fixes the
    # certificate up to reading the path backwards; read it with a2 < a3.
    rows = g.rows
    degrees = [(row & span).bit_count() for row in rows]
    ends = [v for v in _bits(span) if degrees[v] == 2]
    inner = [[v for v in _bits(rows[b] & span) if degrees[v] == 3] for b in ends]
    if len(ends) != 2 or any(len(a) != 1 for a in inner):
        return None
    (a2, b2), (a3, b3) = sorted((a, b) for (a,), b in zip(inner, ends))
    if a2 == a3:
        return None
    # b2 and b3 have one neighbour besides a2 and a3; a2 has one or two
    # besides b2 and a3, and a1 is the lower
    c2 = (rows[b2] & span & ~(1 << a2)).bit_length() - 1
    c3 = (rows[b3] & span & ~(1 << a3)).bit_length() - 1
    a1 = next(_bits(rows[a2] & span & ~(1 << b2 | 1 << a3)))
    kset = tuple(_bits(span & ~(1 << b2 | 1 << a2 | 1 << a3 | 1 << b3)))
    cert = C3NQCert(span.bit_count(), kset, a1, c2, c3, b2, a2, a3, b3)
    return None if _c3nq_problems(g, span, cert) else cert


# -- composed families: clause tables -----------------------------------------


@dataclass(frozen=True)
class Glue:
    """One way a component may attach: together with its host clique(s) it
    induces a member of the base family ``base``. With one host, every
    outside neighbor of the component lies in it; with two, the outside
    neighbors meet both."""

    base: FamilyKind
    hosts: tuple[str, ...]  # "K" and/or "K'"
    misplaced: str  # checker message when the attachment rule fails


_OUTSIDE_K = "component attaches outside the core clique"

# keyed by component tag, in option order: recognized certificates prefer
# earlier tags
GLUES = {
    "c3nq": Glue(FamilyKind.C3NQ, ("K",), _OUTSIDE_K),
    "c1n": Glue(FamilyKind.C1N, ("K",), _OUTSIDE_K),
    "c2n": Glue(FamilyKind.C2N, ("K",), _OUTSIDE_K),
    "c1n_prime": Glue(FamilyKind.C1N, ("K'",), "component attaches outside the secondary clique"),
    "c2n_bridge": Glue(FamilyKind.C2N, ("K", "K'"), "bridge component must touch both cliques"),
}


@dataclass(frozen=True)
class CountClause:
    """Between ``lo`` and ``hi`` components glue with a tag in ``tags``
    (every component when ``tags`` is None). With ``only_with`` set, the
    clause binds only when there are exactly that many components."""

    message: str
    tags: frozenset[str] | None = None
    lo: int = 0
    hi: int | None = None
    only_with: int | None = None

    def covers(self, tag: str) -> bool:
        return self.tags is None or tag in self.tags


@dataclass(frozen=True)
class FamilySpec:
    """The clauses of one composed family.

    K is a maximal clique holding every heavy vertex when ``k_holds_heavy``,
    else a clique spanning at least half the graph. With ``two_clique`` a
    maximal clique K' meets K in exactly one vertex u0. Every component of
    G - K - K' glues by one tag of ``glues``, the tags meet every clause of
    ``counts``, and each clique named in ``heavy_pairs`` passes its
    heavy-pair condition: frontier triples without K', triples anchored at
    u0 with it.
    """

    kind: FamilyKind
    k_holds_heavy: bool
    two_clique: bool
    glues: tuple[str, ...]  # in GLUES order
    counts: tuple[CountClause, ...]
    heavy_pairs: tuple[tuple[str, str], ...]  # (clique, message when it fails)

    @cached_property
    def min_components(self) -> int:
        """Fewest components the counting clauses allow: the largest lower
        bound of a clause that binds at every component count. Below it the
        recognizer drops K (and K') before any glue search. Computed once
        per spec."""
        return max((c.lo for c in self.counts if c.only_with is None), default=0)


_BRIDGE = CountClause("at least one bridge component required", frozenset({"c2n_bridge"}), lo=1)
_TWO_ON_PRIME = CountClause(
    "exactly two components must attach to the secondary clique",
    frozenset({"c1n_prime", "c2n_bridge"}), lo=2, hi=2,
)
_PATH = CountClause("at least one path-attachment component required", frozenset({"c3nq"}), lo=1)
_PRIME_HEAVY = ("K'", "secondary-clique heavy-pair condition fails")

FAMILY_SPECS = {
    spec.kind: spec
    for spec in (
        FamilySpec(
            FamilyKind.C1NP, k_holds_heavy=True, two_clique=False, glues=("c1n", "c2n"),
            counts=(
                CountClause("at least two components required", lo=2),
                CountClause("with exactly two components one must be a cycle",
                      frozenset({"c2n"}), lo=1, only_with=2),
            ),
            heavy_pairs=(("K", "frontier-triple heavy-pair condition fails"),),
        ),
        FamilySpec(
            FamilyKind.C2NP, k_holds_heavy=True, two_clique=True,
            glues=("c1n", "c2n", "c1n_prime", "c2n_bridge"),
            counts=(_BRIDGE, _TWO_ON_PRIME),
            heavy_pairs=(_PRIME_HEAVY, ("K", "core-clique heavy-pair condition fails")),
        ),
        FamilySpec(
            FamilyKind.C1NPQ, k_holds_heavy=False, two_clique=False,
            glues=("c3nq", "c1n", "c2n"), counts=(_PATH,), heavy_pairs=(),
        ),
        FamilySpec(
            FamilyKind.C2NPQ, k_holds_heavy=False, two_clique=True,
            glues=("c3nq", "c1n", "c2n", "c1n_prime", "c2n_bridge"),
            counts=(_BRIDGE, _TWO_ON_PRIME, _PATH), heavy_pairs=(_PRIME_HEAVY,),
        ),
    )
}


def _count_problems(spec: FamilySpec, tags) -> list[str]:
    problems = []
    for clause in spec.counts:
        if clause.only_with not in (None, len(tags)):
            continue
        count = sum(map(clause.covers, tags))
        if count < clause.lo or (clause.hi is not None and count > clause.hi):
            problems.append(clause.message)
    return problems


# -- composed families: shared helpers ----------------------------------------


def _neighbor_mask(g: Graph, mask: int) -> int:
    """The vertices outside ``mask`` adjacent to a vertex in it."""
    out = 0
    for v in _bits(mask):
        out |= g.row(v)
    return out & ~mask


def _attaches(outside: int, host_masks) -> bool:
    """Does a component with outside neighbors ``outside`` attach to its
    host cliques: inside its one host, or meeting each of two?"""
    if len(host_masks) == 1:
        return not outside & ~host_masks[0]
    return all(outside & host for host in host_masks)


def _is_maximal(g: Graph, mask: int) -> bool:
    """No vertex outside ``mask`` is adjacent to all of it."""
    return not any(g.rows[v] & mask == mask for v in _bits(g.full_mask & ~mask))


def _core_faults(spec: FamilySpec, n: int, kmask: int, heavy: int) -> list[str]:
    """Why ``kmask`` cannot be the core clique K of ``spec``: K holds every
    heavy vertex (``heavy`` is their mask), or K spans at least half of the
    n vertices."""
    if spec.k_holds_heavy:
        return ["K must contain every heavy vertex"] if heavy & ~kmask else []
    return ["K must span at least half the graph"] if 2 * kmask.bit_count() < n else []


def _base_search(kind: FamilyKind, g: Graph, span: int, cliques_of):
    """The search of base family ``kind`` on the span; ``cliques_of()``
    gives its maximal cliques, asked only past the chain and cycle gates."""
    if kind is FamilyKind.C1N:
        return _c1n_of(g, span, cliques_of)
    if kind is FamilyKind.C2N:
        return _c2n_of(g, span, cliques_of)
    return _c3nq_of(g, span)


def _span_cliques(cliques, span: int) -> list[int]:
    """The maximal cliques of the subgraph induced by ``span``, as masks in
    ``maximal_clique_masks`` order, read from the masks ``cliques`` of g's
    maximal cliques. Each clique of the subgraph lies in one of g's, so they
    are the inclusion-maximal sets among g's cliques cut down to ``span``.
    An increasing renaming keeps the order, so the cells, the walk start and
    the junctions a search reads are those of the renamed subgraph."""
    cut = sorted({c & span for c in cliques} - {0}, key=int.bit_count, reverse=True)
    kept: list[int] = []
    for mask in cut:
        if all(mask & k != mask for k in kept):
            kept.append(mask)
    return sorted(kept, key=lambda mask: tuple(_bits(mask)))


def _glue_search(g: Graph, cliques, span: int, base: FamilyKind, searched: dict):
    """Run a base-family search on the span. ``searched[span, None]`` keeps
    the span's cliques, read from the masks ``cliques`` of g's maximal
    cliques once a search asks, for the other bases."""
    cliques_of = searched.get((span, None))
    if cliques_of is None:
        cliques_of = searched[span, None] = cache(lambda: _span_cliques(cliques, span))
    return _base_search(base, g, span, cliques_of)


_CERT_CHECKERS = {
    ChainCert: _chain_problems, CycleCert: _cycle_problems, C3NQCert: _c3nq_problems,
}


def _named_ints(x):
    """The ints in ``x``, through nested tuples, in order."""
    if isinstance(x, tuple):
        for y in x:
            yield from _named_ints(y)
    elif isinstance(x, int):
        yield x


def _check_sub_cert(g: Graph, span: int, cert) -> list[str]:
    """Check a component certificate on the subgraph induced by ``span``,
    in place, once it names no vertex outside the span."""
    _, *named = vars(cert).values()  # the fields in order, n first
    for v in _named_ints(tuple(named)):
        if not _in_span(span, v):
            return [f"component certificate names vertex {v} "
                    "outside its component and host cliques"]
    return _CERT_CHECKERS[type(cert)](g, span, cert)


def _heavy_pairs_hold(g: Graph, clique: int, u0: int | None) -> bool:
    """Every frontier triple of the clique (a vertex mask) whose outside
    neighbors can be chosen independent contains an adjacent heavy pair.
    Without K' (u0 None) a triple is any three frontier vertices; with it,
    u0 plus two other frontier vertices."""
    n, rows = g.n, g.rows
    degs, at = g.degree_table
    frontier = [v for v in _bits(clique) if rows[v] & ~clique]
    if u0 is None:
        triples = itertools.combinations(frontier, 3)
    else:
        others = [v for v in frontier if v != u0]
        triples = ((u0, u1, u2) for u1, u2 in itertools.combinations(others, 2))
    for trio in triples:
        if any(rows[u] & at[n - degs[u]] & _cell_mask(trio) for u in trio):
            continue
        out0, out1, out2 = (rows[u] & ~clique for u in trio)
        for v0 in _bits(out0):
            for v1 in _bits(out1 & ~(rows[v0] | 1 << v0)):
                if out2 & ~(rows[v0] | rows[v1] | 1 << v0 | 1 << v1):
                    return False
    return True


# -- composed-family certificate checker --------------------------------------


def _component_faults(components) -> list[str]:
    """The first shape fault of each component: not a component
    certificate, a glue that is not a tag, or a sub-certificate of no
    base family."""
    faults = []
    for i, comp in enumerate(components):
        if not isinstance(comp, ComponentCert):
            faults.append(f"component {i} is not a component certificate")
        elif not isinstance(comp.glue, str):
            faults.append(f"component {i} glue is not a tag")
        elif type(comp.sub) not in _CERT_CHECKERS:
            faults.append(f"component {i} certificate is not a chain, cycle or path certificate")
    return faults


def check_composed_cert(g: Graph, family: FamilyKind, cert: ComposedCert) -> list[str]:
    spec = FAMILY_SPECS.get(family)
    if spec is None:
        raise InputError(f"{family} is not a composed family")
    if faults := _untupled(cert, "components") or _component_faults(cert.components):
        return faults
    cells = [("K", cert.k_clique), ("K'", () if cert.k_prime is None else cert.k_prime)]
    cells += [(f"component {i}", c.vertices) for i, c in enumerate(cert.components)]
    problems = [f"{name} {fault}" for name, cell in cells for fault in _cell_faults(g, cell)]
    if cert.u0 is not None and not (isinstance(cert.u0, int) and 0 <= cert.u0 < g.n):
        problems.append("shared vertex outside the graph")
    if problems:
        return problems
    heavy = _heavy_mask(g) if spec.k_holds_heavy else 0
    return _composed_problems(g, spec, cert, heavy)


def _composed_problems(g: Graph, spec: FamilySpec, cert: ComposedCert, heavy: int,
                       split: list[int] | None = None) -> list[str]:
    """The clauses of ``spec`` on a certificate whose cells name vertices of
    g; ``heavy`` is the mask of g's heavy vertices. The recognizer passes
    as ``split`` the masks of the components of G - K - K' it has just
    found, and its sub-certificates are taken as checked: each came from a
    base search that its checker passed on the same span. Without
    ``split`` the components are found here and every sub-certificate is
    checked."""
    problems = []
    kmask, kpmask = _cell_mask(cert.k_clique), _cell_mask(cert.k_prime or ())
    if not g.is_clique_mask(kmask):
        problems.append("K is not a clique")
    problems += _core_faults(spec, g.n, kmask, heavy)
    if spec.k_holds_heavy and not _is_maximal(g, kmask):
        problems.append("K must be a maximal clique")
    if spec.two_clique:
        if not kpmask or cert.u0 is None:
            return ["secondary clique and shared vertex required"]
        if not g.is_clique_mask(kpmask):
            problems.append("K' is not a clique")
        if not _is_maximal(g, kpmask):
            problems.append("K' must be a maximal clique")
        if kmask & kpmask != 1 << cert.u0:
            problems.append("K and K' must share exactly the anchor vertex")
    elif kpmask:
        problems.append("this family takes no secondary clique")
    comp_masks = [_cell_mask(c.vertices) for c in cert.components]
    comps = component_masks(g.rows, g.full_mask & ~(kmask | kpmask)) if split is None else split
    if set(comps) != set(comp_masks):
        problems.append("certificate components do not match the graph's components")
    hosts = {"K": kmask, "K'": kpmask}
    for comp, cmask in zip(cert.components, comp_masks):
        if comp.glue not in spec.glues:
            problems.append(f"component glue {comp.glue!r} not allowed in {spec.kind.value}")
            continue
        glue = GLUES[comp.glue]
        host_masks = [hosts[h] for h in glue.hosts]
        if not _attaches(_neighbor_mask(g, cmask), host_masks):
            problems.append(glue.misplaced)
        if split is None:
            problems += _check_sub_cert(g, reduce(or_, host_masks, cmask), comp.sub)
    problems += _count_problems(spec, [c.glue for c in cert.components])
    for clique, message in spec.heavy_pairs:
        if not _heavy_pairs_hold(g, hosts[clique], cert.u0):
            problems.append(message)
    return problems


# -- composed-family recognizer -----------------------------------------------


def _glue_options(g: Graph, comps, hosts, glues, cliques, searched: dict):
    """(tag, sub-cert) options per component mask, in option order; None as
    soon as one component has no option. ``cliques`` are the masks of g's
    maximal cliques. ``searched`` holds the answer of every glue search
    already run on g, keyed by vertex mask and base, and the clique thunk of
    each searched mask, keyed by mask and None."""
    out = []
    for comp in comps:
        outside = _neighbor_mask(g, comp)
        options = []
        for tag in glues:
            glue = GLUES[tag]
            host_masks = [hosts[h] for h in glue.hosts]
            if _attaches(outside, host_masks):
                span = reduce(or_, host_masks, comp)
                key = (span, glue.base)
                if key not in searched:
                    searched[key] = _glue_search(g, cliques, span, glue.base, searched)
                cert = searched[key]
                if cert:
                    options.append((tag, cert))
        if not options:
            return None
        out.append(options)
    return out


def _overlaps(cliques) -> tuple[int, int]:
    """The masks of the vertices that lie in two or more, and in three or
    more, of ``cliques`` (vertex masks)."""
    once = twice = crowded = 0
    for mask in cliques:
        crowded |= twice & mask
        twice |= once & mask
        once |= mask
    return twice, crowded


def _recognize_composed(
    g: Graph, spec: FamilySpec, cliques, heavy: int, crowded: int, searched: dict
) -> ComposedCert | None:
    """The first certificate of ``spec`` in candidate order, or None.
    ``cliques`` are the vertex masks of g's maximal cliques, ``heavy`` the
    mask of its heavy vertices and ``crowded`` of its crowded ones;
    ``searched`` is the glue search memo of ``_glue_options``, shared by
    the specs of one call. K is a maximal clique that passes the
    core-clique rule, and K' any other maximal clique meeting K in exactly
    one vertex u0. A candidate that leaves a crowded vertex outside K and
    K' has no certificate (see the module docstring) and is skipped before
    its components are found."""
    for kmask in cliques:
        if _core_faults(spec, g.n, kmask, heavy):
            continue
        primes = [(0, None)]
        if spec.two_clique:
            primes = [(m, (m & kmask).bit_length() - 1) for m in cliques
                      if m != kmask and (m & kmask).bit_count() == 1]
        for kpmask, u0 in primes:
            if crowded & ~(kmask | kpmask):
                continue
            comps = component_masks(g.rows, g.full_mask & ~(kmask | kpmask))
            if len(comps) < spec.min_components:
                continue
            hosts = {"K": kmask, "K'": kpmask}
            options = _glue_options(g, comps, hosts, spec.glues, cliques, searched)
            if options is None:
                continue
            # the first assignment in option order that meets the counting clauses
            picked = next((p for p in itertools.product(*options)
                           if not _count_problems(spec, [tag for tag, _ in p])), None)
            if picked is None:
                continue
            cert = ComposedCert(g.n, tuple(_bits(kmask)), tuple(_bits(kpmask)) or None, u0, tuple(
                ComponentCert(tuple(_bits(c)), tag, sub) for c, (tag, sub) in zip(comps, picked)
            ))
            if not _composed_problems(g, spec, cert, heavy, split=comps):
                return cert
    return None


@dataclass(frozen=True)
class FamilyWitness:
    certificates: dict

    @property
    def families(self) -> frozenset[FamilyKind]:
        return frozenset(self.certificates)


def recognize(g: Graph) -> FamilyWitness:
    """Match g against every family; empty match set is a valid answer.

    The composed families share the masks of g's maximal cliques, of its
    heavy vertices and of its crowded vertices, and one memo of glue
    searches: a search's answer depends only on its vertex set and base
    family, and the certificates are frozen. The base families come first,
    C1N and C2N read from the same clique list, and their searches on g
    answer the glue searches that span all of g.
    """
    certs: dict[FamilyKind, Certificate] = {}
    cliques, heavy = maximal_clique_masks(g), _heavy_mask(g)
    _, crowded = _overlaps(cliques)
    searched: dict = {}
    for kind in FamilyKind:
        spec = FAMILY_SPECS.get(kind)
        if spec is not None:
            cert = _recognize_composed(g, spec, cliques, heavy, crowded, searched)
        else:
            full = g.full_mask
            cert = searched[full, kind] = _base_search(kind, g, full, lambda: cliques)
        if cert is not None:
            certs[kind] = cert
    return FamilyWitness(certs)


# -- generators ----------------------------------------------------------------


def _pick_from(rng: random.Random, pool, used: set[int], count: int, label: str,
               forbidden=frozenset()):
    """Prefer unused host vertices; fall back to reuse when the host is
    too small (the certificate check decides whether that was
    legitimate)."""
    eligible = [v for v in pool if v not in forbidden]
    fresh = [v for v in eligible if v not in used]
    source = fresh if len(fresh) >= count else eligible
    if len(source) < count:
        raise ParameterError(f"{label}: host clique too small for its junctions")
    chosen = sorted(rng.sample(source, count))
    used.update(chosen)
    return chosen


def _pair_up(rng: random.Random, left, right):
    right = list(right)
    rng.shuffle(right)
    return tuple(sorted(zip(left, right)))


def _generate_c1n(params: FamilyParams, rng: random.Random) -> ChainCert:
    sizes, juncs = params.clique_sizes, params.junction_sizes
    t = len(sizes)
    if t < 1:
        raise ParameterError("C1N: at least one clique required (t >= 1)")
    if len(juncs) != t - 1:
        raise ParameterError("C1N: exactly t-1 junction sizes required")
    for i, k in enumerate(sizes):
        if 0 < i < t - 1 and k < 4:
            raise ParameterError(f"C1N: interior clique {i + 1} must have at least 4 vertices")
        if k < 2:
            raise ParameterError("C1N: every clique needs at least 2 vertices")
    if any(m < 2 for m in juncs):
        raise ParameterError("C1N: junctions must match at least 2 vertices")
    for i, k in enumerate(sizes):
        demand = (juncs[i - 1] if i > 0 else 0) + (juncs[i] if i < t - 1 else 0)
        if demand > k:
            raise ParameterError(f"C1N: clique {i + 1} cannot host disjoint junction sets")
    starts = itertools.accumulate(sizes, initial=0)
    cells = tuple(tuple(range(s, s + k)) for s, k in zip(starts, sizes))
    matchings = []
    into: list[int] = []
    for i, m in enumerate(juncs):
        out = _pick_from(rng, cells[i], set(into), m, "C1N")
        into = _pick_from(rng, cells[i + 1], set(), m, "C1N")
        matchings.append(_pair_up(rng, out, into))
    return ChainCert(sum(sizes), cells, tuple(matchings))


def _generate_c2n(params: FamilyParams, rng: random.Random) -> CycleCert:
    sizes, juncs = params.clique_sizes, params.junction_sizes
    t = len(sizes)
    if t < 3:
        raise ParameterError("C2N: at least three cliques required (t >= 3)")
    if len(juncs) != t:
        raise ParameterError("C2N: exactly t junction sizes required")
    if any(k < 2 for k in sizes):
        raise ParameterError("C2N: every clique needs at least 2 vertices")
    if any(s < 1 for s in juncs):
        raise ParameterError("C2N: junctions must be nonempty")
    if t == 3 and max(juncs) < 2:
        raise ParameterError("C2N: with three cliques some junction must have size >= 2")
    for i in range(t):
        if juncs[i - 1] + juncs[i] > sizes[i]:
            raise ParameterError(f"C2N: clique {i + 1} cannot host disjoint junction sets")
    # slot (i, j) is local vertex j of cell i
    ins, outs = [], []
    for i in range(t):
        local = list(range(sizes[i]))
        ins.append(rng.sample(local, juncs[i - 1]))
        outs.append(rng.sample([j for j in local if j not in ins[i]], juncs[i]))
    # An identify junction merges the out slot of cell i with the in slot of
    # cell i + 1. A cell's in and out slots are disjoint, so every merged
    # vertex has exactly two slots, in different cells: alias the in slot.
    same = {((i + 1) % t, ins[(i + 1) % t][0]): (i, outs[i][0]) for i in range(t) if juncs[i] == 1}
    ids: dict[tuple[int, int], int] = {}
    for i in range(t):
        for j in range(sizes[i]):
            ids.setdefault(same.get((i, j), (i, j)), len(ids))

    def vid(i: int, j: int) -> int:
        return ids[same.get((i, j), (i, j))]

    junctions: list[Junction] = []
    for i in range(t):
        if juncs[i] == 1:
            junctions.append(("identify", vid(i, outs[i][0])))
        else:
            nxt = (i + 1) % t
            left = sorted(vid(i, j) for j in outs[i])
            junctions.append(("matching", _pair_up(rng, left, [vid(nxt, j) for j in ins[nxt]])))
    cells = tuple(tuple(sorted(vid(i, j) for j in range(sizes[i]))) for i in range(t))
    return CycleCert(len(ids), cells, tuple(junctions))


def _generate_c3nq_into(rng, k_clique, used: set[int], next_id: int, n: int,
                        forbidden=frozenset()) -> C3NQCert:
    """The path b2 a2 a3 b3 on ids next_id.. attached to k_clique."""
    a1, c2, c3 = _pick_from(rng, k_clique, used, 3, "C3NQ attachment", forbidden)
    return C3NQCert(n, tuple(k_clique), a1, c2, c3, *range(next_id, next_id + 4))


def _generate_c3nq(params: FamilyParams, rng: random.Random) -> C3NQCert:
    if len(params.clique_sizes) != 1:
        raise ParameterError("C3NQ: exactly one clique size required")
    k = params.clique_sizes[0]
    if k < 4:
        raise ParameterError("C3NQ: the clique needs at least 4 vertices")
    return _generate_c3nq_into(rng, tuple(range(k)), set(), k, k + 4)


def _attach_chain(rng, host, host_used, sizes, juncs, next_id, n, label,
                  host_forbidden=frozenset()) -> ChainCert:
    """Chain host -> fresh cliques on ids next_id.., in a graph of order n."""
    if len(juncs) != len(sizes) or not sizes:
        raise ParameterError(f"{label}: a chain component needs one junction per clique")
    if any(m < 2 for m in juncs):
        raise ParameterError(f"{label}: chain junctions must match at least 2 vertices")
    for i, k in enumerate(sizes):
        if k < 2 or (i < len(sizes) - 1 and k < 4):
            raise ParameterError(f"{label}: chain clique {i + 1} too small")
        demand = juncs[i] + (juncs[i + 1] if i + 1 < len(juncs) else 0)
        if demand > k:
            raise ParameterError(f"{label}: chain clique {i + 1} cannot host its junctions")
    starts = itertools.accumulate(sizes, initial=next_id)
    cells = [tuple(sorted(host))] + [tuple(range(s, s + k)) for s, k in zip(starts, sizes)]
    matchings = []
    prev_in: set[int] = set()
    for i, m in enumerate(juncs):
        left_used = host_used if i == 0 else prev_in
        left_forbidden = host_forbidden if i == 0 else frozenset()
        out = _pick_from(rng, cells[i], left_used, m, label, left_forbidden)
        into = rng.sample(list(cells[i + 1]), m)
        prev_in = set(into)
        matchings.append(_pair_up(rng, out, into))
    return ChainCert(n, tuple(cells), tuple(matchings))


def _attach_cycle(rng, hosts, hosts_used, sizes, juncs, next_id, n, label,
                  host_forbidden=frozenset()) -> CycleCert:
    """Cycle host(s) -> fresh cliques on ids next_id.. -> back to the first
    host, in a graph of order n.

    ``hosts`` is (K,) or (K, K'); with two hosts the K-K' junction is the
    fixed shared-vertex identification and ``juncs`` covers the remaining
    junctions, ending with the one back into K.
    """
    t = len(hosts) + len(sizes)
    if t < 3:
        raise ParameterError(f"{label}: a cycle needs at least three cliques")
    if len(juncs) != len(sizes) + 1:
        raise ParameterError(f"{label}: cycle junction count must be clique count plus one")
    if any(s < 1 for s in juncs):
        raise ParameterError(f"{label}: cycle junctions must be nonempty")
    implicit = [1] if len(hosts) == 2 else []
    all_juncs = implicit + list(juncs)
    if t == 3 and max(all_juncs) < 2:
        raise ParameterError(f"{label}: with three cliques some junction must have size >= 2")
    for i, k in enumerate(sizes):
        if k < 2:
            raise ParameterError(f"{label}: cycle clique {i + 1} too small")
        if juncs[i] + juncs[i + 1] > k:
            raise ParameterError(f"{label}: cycle clique {i + 1} cannot host its junctions")
    cells = [tuple(sorted(h)) for h in hosts]
    cursor = next_id
    junctions: list[Junction] = []
    if len(hosts) == 2:
        (shared,) = set(hosts[0]) & set(hosts[1])
        junctions.append(("identify", shared))
    home, home_used = cells[0], hosts_used[0]
    s_back = juncs[-1]
    closing_anchor = None
    if s_back == 1:
        # the closing junction identifies a vertex of the last fresh
        # clique with a vertex of the home clique
        closing_anchor = _pick_from(rng, home, home_used, 1, label, host_forbidden)[0]
    prev_cell = cells[-1]
    prev_used = hosts_used[-1]
    for i, k in enumerate(sizes):
        s_in = juncs[i]
        out = _pick_from(rng, prev_cell, prev_used, s_in, label,
                         host_forbidden if i == 0 else frozenset())
        # a cell holds at most its inbound and its closing anchor, and k >= 2
        members = list(out) if s_in == 1 else []
        if i == len(sizes) - 1 and closing_anchor is not None:
            members.append(closing_anchor)
        need = k - len(members)
        members.extend(range(cursor, cursor + need))
        cursor += need
        if s_in == 1:
            junctions.append(("identify", out[0]))
            prev_used = set(out)
        else:
            into = rng.sample([v for v in members if v != closing_anchor], s_in)
            junctions.append(("matching", _pair_up(rng, out, into)))
            prev_used = set(into)
        prev_cell = tuple(sorted(members))
        cells.append(prev_cell)
    if closing_anchor is not None:
        # the last cell's inbound anchor lies in K' - u0 or in a fresh
        # cell, so it is never the closing anchor
        junctions.append(("identify", closing_anchor))
    else:
        out = _pick_from(rng, prev_cell, prev_used, s_back, label)
        into = _pick_from(rng, home, home_used, s_back, label, host_forbidden)
        junctions.append(("matching", _pair_up(rng, out, into)))
    return CycleCert(n, tuple(cells), tuple(junctions))


def _component_fresh_count(spec: ComponentSpec) -> int:
    if spec.kind == "c3nq":
        return 4
    total = sum(spec.clique_sizes)
    if spec.kind in ("c1n", "c1n_prime"):
        return total
    # every size-1 junction identifies away one vertex (into the previous
    # clique or into the host at the closing junction)
    return total - sum(1 for s in spec.junction_sizes if s == 1)


def _generate_composed(params: FamilyParams, rng: random.Random) -> ComposedCert:
    fam = params.family
    spec = FAMILY_SPECS[fam]
    if len(params.clique_sizes) != 1 + spec.two_clique:
        if spec.two_clique:
            raise ParameterError(f"{fam.value}: clique sizes must name K and K'")
        raise ParameterError(f"{fam.value}: exactly one core clique size required")
    k = params.clique_sizes[0]
    kp = params.clique_sizes[1] if spec.two_clique else None
    if k < 2 or (kp is not None and kp < 2):
        raise ParameterError(f"{fam.value}: cliques need at least 2 vertices")
    kinds = [c.kind for c in params.components]
    for kind in kinds:
        if kind not in spec.glues:
            raise ParameterError(f"{fam.value}: component kind {kind!r} not allowed")
    problems = _count_problems(spec, kinds)
    if problems:
        raise ParameterError(f"{fam.value}: {problems[0]}")
    n = k + (kp - 1 if kp else 0) + sum(map(_component_fresh_count, params.components))
    if not spec.k_holds_heavy and 2 * k < n:
        raise ParameterError(f"{fam.value}: the core clique must span at least half the graph")

    hosts = {"K": tuple(range(k)), "K'": None}
    used: dict[str, set[int]] = {"K": set(), "K'": set()}
    u0, cursor, anchor_forbidden = None, k, frozenset()
    if spec.two_clique:
        u0, cursor, anchor_forbidden = 0, k + kp - 1, frozenset({0})
        hosts["K'"] = (0, *range(k, cursor))
    comp_certs = []
    for comp in params.components:
        label = f"{fam.value}/{comp.kind}"
        glue = GLUES[comp.kind]
        cliques = [hosts[h] for h in glue.hosts]
        cliques_used = [used[h] for h in glue.hosts]
        if glue.base is FamilyKind.C3NQ:
            sub = _generate_c3nq_into(
                rng, cliques[0], cliques_used[0], cursor, n, anchor_forbidden,
            )
        elif glue.base is FamilyKind.C1N:
            sub = _attach_chain(
                rng, cliques[0], cliques_used[0], comp.clique_sizes, comp.junction_sizes,
                cursor, n, label, anchor_forbidden,
            )
        else:
            sub = _attach_cycle(
                rng, tuple(cliques), cliques_used, comp.clique_sizes, comp.junction_sizes,
                cursor, n, label, anchor_forbidden,
            )
        fresh = range(cursor, cursor + _component_fresh_count(comp))
        comp_certs.append(ComponentCert(tuple(fresh), comp.kind, sub))
        cursor = fresh.stop
    return ComposedCert(n, hosts["K"], hosts["K'"], u0, tuple(comp_certs))


_GENERATORS = {
    FamilyKind.C1N: _generate_c1n, FamilyKind.C2N: _generate_c2n, FamilyKind.C3NQ: _generate_c3nq,
}


def _check_field_types(params: FamilyParams) -> None:
    """Refuse params the generators cannot read: a family that is not a
    FamilyKind, a component that is not a ComponentSpec, or sizes that are
    not a sequence of ints."""
    if not isinstance(params, FamilyParams) or not isinstance(params.family, FamilyKind):
        raise ParameterError(f"{params!r} does not name a FamilyKind")
    fields = [("k_sizes", params.clique_sizes), ("u_sizes", params.junction_sizes)]
    if not isinstance(params.components, (tuple, list)):
        raise ParameterError(f"{params.family.value}: components are not a sequence")
    for comp in params.components:
        if not isinstance(comp, ComponentSpec):
            raise ParameterError(f"{params.family.value}: {comp!r} is not a ComponentSpec")
        fields += [(f"{comp.kind} component k_sizes", comp.clique_sizes),
                   (f"{comp.kind} component u_sizes", comp.junction_sizes)]
    for name, value in fields:
        if not (isinstance(value, (tuple, list)) and all(isinstance(x, int) for x in value)):
            raise ParameterError(f"{params.family.value}: {name} {value!r} are not ints")


def _check_fields_read(params: FamilyParams) -> None:
    """Refuse a params field the family would drop: only C1N and C2N read
    junction sizes, only composed families read components, and a c3nq
    component reads no sizes."""
    fields = [
        ("u_sizes", params.junction_sizes, params.family in (FamilyKind.C1N, FamilyKind.C2N)),
        ("component", params.components, params.family in FAMILY_SPECS),
    ]
    for comp in params.components:
        if comp.kind == "c3nq":
            fields += [("c3nq component k_sizes", comp.clique_sizes, False),
                       ("c3nq component u_sizes", comp.junction_sizes, False)]
    for name, value, read in fields:
        if value and not read:
            raise ParameterError(f"{params.family.value}: {name} is not used by this family")


def generate_with_certificate(params: FamilyParams, seed: int = 0) -> tuple[Graph, Certificate]:
    """Build a labeled member; the seed resolves the free vertex choices.

    The generator writes only the certificate, and the graph is its replay.
    The family's clause checker must accept the pair, so a returned member
    is proved by the checks the recognizer applies.
    """
    _check_field_types(params)
    _check_fields_read(params)
    rng = random.Random(_seed(seed, "generator seed"))
    cert = _GENERATORS.get(params.family, _generate_composed)(params, rng)
    g = replay_certificate(cert)
    if isinstance(cert, ComposedCert):
        problems = check_composed_cert(g, params.family, cert)
    else:
        problems = _CERT_CHECKERS[type(cert)](g, g.full_mask, cert)
    if problems:
        raise ParameterError(f"{params.family.value}: generated graph violates: {problems[0]}")
    return g, cert


def generate(params: FamilyParams, seed: int = 0) -> Graph:
    return generate_with_certificate(params, seed)[0]


# -- theorem classifier --------------------------------------------------------


class VerdictStatus(Enum):
    CONSISTENT = "CONSISTENT"
    OUT_OF_RANGE = "OUT-OF-RANGE"
    COUNTEREXAMPLE_CANDIDATE = "COUNTEREXAMPLE-CANDIDATE"


@dataclass(frozen=True)
class TheoremVerdict:
    """The facts the characterization reads about a graph of order n, and
    its verdict on them."""

    n: int
    two_connected: bool
    claw_free: bool
    c_closed: bool
    n_p_heavy: bool
    n_pq_heavy: bool
    families: frozenset[FamilyKind]

    @property
    def status(self) -> VerdictStatus:
        """The equivalence is asserted only at order 10 and up; below that,
        anything except agreement-by-absence is out of range."""
        hypotheses = self.two_connected and self.claw_free and self.c_closed
        # the p-heavy and the pq-heavy statement: do the hypotheses hold, is g a member
        holds = (hypotheses and self.n_p_heavy, hypotheses and self.n_pq_heavy)
        member = (bool(self.families & P_HEAVY_UNION), bool(self.families & PQ_HEAVY_UNION))
        if self.n >= 10:
            agree = holds == member
            return VerdictStatus.CONSISTENT if agree else VerdictStatus.COUNTEREXAMPLE_CANDIDATE
        return VerdictStatus.OUT_OF_RANGE if any(holds + member) else VerdictStatus.CONSISTENT


def classify_theorem(g: Graph) -> TheoremVerdict:
    """Check the characterization's hypotheses against recognized
    membership, computing each fact of g once. A claw-free graph is
    vacuously claw-o-heavy."""
    claw_free, claw_o_heavy = _claw_status(g)
    c_closed = claw_o_heavy and _c_closed(g)
    two_connected, profile = is_2_connected(g), net_profile(g)
    return TheoremVerdict(g.n, two_connected, claw_free, c_closed,
                          profile.n_p_heavy, profile.n_pq_heavy, recognize(g).families)


# -- params file format --------------------------------------------------------


def _parse_junctions(text: str, context: str) -> tuple[int, ...]:
    sizes = []
    for i, pair in enumerate(text.split(";")):
        parts = pair.split(",")
        if len(parts) != 2:
            raise InputError(f"{context}: junction {i + 1} must be a 'left,right' pair")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{context}: junction sizes must be integers") from None
        if a != b:
            raise InputError(f"{context}: junction {i + 1} sides must agree ({a} != {b})")
        sizes.append(a)
    return tuple(sizes)


def _parse_int_list(text: str, context: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"{context}: expected comma-separated integers") from None


def parse_params(text: str) -> FamilyParams:
    """Line-oriented key=value format; see the README for the schema."""
    family = None
    clique_sizes: tuple[int, ...] = ()
    junction_sizes: tuple[int, ...] = ()
    declared_t: int | None = None
    components: list[ComponentSpec] = []
    for raw in _text(text, "params text").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key, _, value = tokens[0].partition("=")
        if key == "family":
            family = FamilyKind.from_name(value)
        elif key == "t":
            try:
                declared_t = int(value)
            except ValueError:
                raise InputError(f"t: expected an integer, got {value!r}") from None
        elif key == "k_sizes":
            clique_sizes = _parse_int_list(value, "k_sizes")
        elif key == "u_sizes":
            junction_sizes = _parse_junctions(value, "u_sizes")
        elif key == "component":
            kind = value
            comp_cliques: tuple[int, ...] = ()
            comp_juncs: tuple[int, ...] = ()
            for token in tokens[1:]:
                ckey, _, cvalue = token.partition("=")
                if ckey == "k_sizes":
                    comp_cliques = _parse_int_list(cvalue, "component k_sizes")
                elif ckey == "u_sizes":
                    comp_juncs = _parse_junctions(cvalue, "component u_sizes")
                else:
                    raise InputError(f"unknown component field {ckey!r}")
            components.append(ComponentSpec(kind, comp_cliques, comp_juncs))
        else:
            raise InputError(f"unknown params key {key!r}")
    if family is None:
        raise InputError("params file must set family=...")
    if declared_t is not None and declared_t != len(clique_sizes):
        raise InputError(f"t={declared_t} disagrees with {len(clique_sizes)} clique sizes")
    return FamilyParams(family, clique_sizes, junction_sizes, tuple(components))
