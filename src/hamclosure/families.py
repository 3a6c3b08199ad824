"""Parametric generators and recognizers for the clique-chain families.

Seven families: chains of cliques joined by matchings (C1N), cyclic
chains with optional one-vertex identifications (C2N), a clique with an
attached four-vertex path (C3NQ), and four composed families (C1NP,
C2NP, C1NPQ, C2NPQ) built from a core clique K (plus a secondary clique
K' meeting K in one vertex) with components glued as chains, cycles, or
path attachments.

Membership is checked by certificate: generators build a certificate and
validate it with the same clause checkers the recognizer uses, so a
successful generate() is a proof of membership and recognize() round-trips
by construction search.

The composed families' clauses live in two tables: ``FAMILY_SPECS``, one
``FamilySpec`` row per family (rule for K, whether K' exists, allowed
glues, counting clauses, heavy-pair condition), and ``GLUES``, one row per
glue tag (base family, host clique(s), attachment rule). The certificate
checker, the recognizer and the generator all read these rows. Chains and
cycles of cliques share one clause checker, and the component gate the
recognizer applies before any glue search comes from the counting clauses.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from enum import Enum

from .closures import EligibilityMode, c_closure
from .errors import BudgetError, InputError, ParameterError
from .graphs import Graph, _bits, component_masks, is_2_connected, is_connected, maximal_cliques
from .heaviness import heavy_vertices, is_a_heavy_pair, is_pattern_o_heavy
from .patterns import PatternKind, has_induced, net_profile


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
        try:
            return FamilyKind(name.strip().upper())
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


def _check_clique_sequence(g: Graph, cert, junctions, cyclic: bool) -> list[str]:
    """Clauses shared by chains and cycles of cliques.

    Junction i joins cell i and cell (i + 1) % t: a chain passes its t - 1
    matchings, a cycle its t junctions.
    """
    problems = []
    cells = cert.cells
    t = len(cells)
    masks = [_cell_mask(c) for c in cells]
    for i, mask in enumerate(masks):
        if len(cells[i]) < 2:
            problems.append(f"cell {i} smaller than 2")
        elif not cyclic and 0 < i < t - 1 and len(cells[i]) < 4:
            problems.append(f"interior clique {i} smaller than 4")
        if not g.is_clique_mask(mask):
            problems.append(f"cell {i} is not a clique")
    if _cell_mask(set().union(*cells)) != g.full_mask:
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
            if inter != 1 << z:
                problems.append(f"junction {i} identification vertex mismatch")
            out_sets[left], in_sets[right] = {z}, {z}
        elif junction[0] == "matching":
            matching = junction[1]
            if inter:
                problems.append(f"junction {i} cliques overlap but are joined by a matching")
            if len(matching) < 2:
                problems.append(f"junction {i} matching smaller than 2")
            for u, v in matching:
                if not (masks[left] >> u & 1 and masks[right] >> v & 1):
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
    expected = {(min(u, v), max(u, v)) for u, v in cert.edges()}
    actual = set(g.edges())
    if actual != expected:
        extra = sorted(actual - expected)
        missing = sorted(expected - actual)
        shape = "cycle" if cyclic else "chain"
        problems.append(f"edges not exactly the {shape}: extra {extra}, missing {missing}")
    return problems


def check_chain_cert(g: Graph, cert: ChainCert) -> list[str]:
    if len(cert.cells) < 1:
        return ["chain needs at least one clique"]
    if len(cert.matchings) != len(cert.cells) - 1:
        return ["chain needs one matching per consecutive clique pair"]
    return _check_clique_sequence(g, cert, [("matching", m) for m in cert.matchings], False)


def check_cycle_cert(g: Graph, cert: CycleCert) -> list[str]:
    if len(cert.cells) < 3:
        return ["cycle needs at least 3 cliques"]
    if len(cert.junctions) != len(cert.cells):
        return ["cycle needs one junction per consecutive clique pair"]
    return _check_clique_sequence(g, cert, cert.junctions, True)


def check_c3nq_cert(g: Graph, cert: C3NQCert) -> list[str]:
    problems = []
    kmask = _cell_mask(cert.clique)
    if len(cert.clique) < 4:
        problems.append("core clique smaller than 4")
    if not g.is_clique_mask(kmask):
        problems.append("core is not a clique")
    path = (cert.b2, cert.a2, cert.a3, cert.b3)
    if len({*path}) != 4 or any(kmask >> v & 1 for v in path):
        problems.append("path vertices must be four distinct vertices outside the clique")
    if len({cert.a1, cert.c2, cert.c3}) != 3 or not all(
        kmask >> v & 1 for v in (cert.a1, cert.c2, cert.c3)
    ):
        problems.append("attachment vertices must be three distinct clique vertices")
    if kmask | _cell_mask(path) != g.full_mask:
        problems.append("clique plus path must cover every vertex")
    expected = {(min(u, v), max(u, v)) for u, v in cert.edges()}
    if set(g.edges()) != expected:
        problems.append("edges not exactly the clique-plus-path attachment")
    return problems


# -- whole-graph recognizers for the three base families ----------------------


def _subcliques_containing(g: Graph, sub_vertices: list[int], anchor: set[int]):
    sub = g.induced(sub_vertices)
    back = {i: v for i, v in enumerate(sub_vertices)}
    for clique in maximal_cliques(sub):
        mapped = frozenset(back[i] for i in clique)
        if anchor <= mapped:
            yield mapped


def is_c1n(g: Graph) -> ChainCert | None:
    """Chain-of-cliques decomposition, or None."""
    if g.n < 2 or not is_connected(g):
        return None
    full = g.full_mask
    if g.is_clique_mask(full):
        return ChainCert(g.n, (tuple(range(g.n)),), ())

    def extend(cells, matchings, rest: set[int], anchor: set[int]):
        sub_vertices = sorted(rest)
        for cell in _subcliques_containing(g, sub_vertices, anchor):
            new_rest = rest - cell
            if not new_rest:
                if len(cell) >= 2:
                    return cells + [cell], matchings
                continue
            if len(cells) >= 1 and len(cell) < 4:
                continue  # interior cell
            junction = _junction_between(g, cell, new_rest)
            if junction is None:
                continue
            pairs = junction[1]
            if anchor & {u for u, _ in pairs}:
                continue  # junction sets inside the cell must be disjoint
            found = extend(cells + [cell], matchings + [pairs], new_rest, {v for _, v in pairs})
            if found:
                return found
        return None

    for first in maximal_cliques(g):
        if len(first) < 2:
            continue
        rest = set(range(g.n)) - first
        junction = _junction_between(g, first, rest)
        if junction is None:
            continue
        pairs = junction[1]
        found = extend([first], [pairs], rest, {v for _, v in pairs})
        if found:
            cells, matchings = found
            cert = ChainCert(
                g.n,
                tuple(tuple(sorted(c)) for c in cells),
                tuple(tuple(sorted(m)) for m in matchings),
            )
            if not check_chain_cert(g, cert):
                return cert
    return None


def _junction_between(g: Graph, left: frozenset[int], right: frozenset[int], known_cells=()):
    """Valid junction joining two cliques, or None.

    Cross edges that lie inside another already-known clique of the
    decomposition are construction edges of that clique, not junction
    material, so they are ignored here.
    """

    def covered_elsewhere(u: int, v: int) -> bool:
        return any(u in cell and v in cell for cell in known_cells)

    inter = left & right
    if len(inter) == 1:
        z = next(iter(inter))
        for u in left - {z}:
            for v in right - {z}:
                if g.has_edge(u, v) and not covered_elsewhere(u, v):
                    return None
        return ("identify", z)
    if inter:
        return None
    pairs = []
    targets = set()
    for u in sorted(left):
        outs = [v for v in g.neighbors(u) if v in right and not covered_elsewhere(u, v)]
        if len(outs) > 1:
            return None
        if outs:
            pairs.append((u, outs[0]))
            targets.add(outs[0])
    if len(pairs) < 2 or len(targets) != len(pairs):
        return None
    for v in targets:
        if len([u for u in g.neighbors(v) if u in left and not covered_elsewhere(u, v)]) != 1:
            return None
    return ("matching", tuple(sorted(pairs)))


_CYCLE_SEARCH_CAP = 200_000


def is_c2n(g: Graph) -> CycleCert | None:
    """Cyclic chain-of-cliques decomposition, or None."""
    if g.n < 3 or not is_connected(g):
        return None
    cliques = maximal_cliques(g)
    states = 0

    def close(cells, junctions):
        cert = CycleCert(
            g.n,
            tuple(tuple(sorted(c)) for c in cells),
            tuple(junctions),
        )
        return cert if not check_cycle_cert(g, cert) else None

    def extend(cells, junctions, covered: set[int]):
        nonlocal states
        states += 1
        if states > _CYCLE_SEARCH_CAP:
            raise BudgetError("cycle decomposition search exceeded its state cap")
        last = cells[-1]
        if len(cells) >= 3 and covered == set(range(g.n)):
            closing = _junction_between(g, last, cells[0], cells[1:-1])
            if closing is not None:
                cert = close(cells, junctions + [closing])
                if cert:
                    return cert
        for cand in cliques:
            if len(cand) < 2 or cand == last:
                continue
            new = cand - covered
            middle_overlap = any(cand & c for c in cells[1:-1])
            if middle_overlap:
                continue
            if cand & cells[0] and not new and len(cells) < 3:
                continue
            junction = _junction_between(g, last, cand, cells[:-1])
            if junction is None:
                continue
            if not new and not (len(cells) >= 2 and cand & cells[0]):
                continue
            cert = extend(cells + [cand], junctions + [junction], covered | cand)
            if cert:
                return cert
        return None

    for first in cliques:
        if 0 not in first or len(first) < 2:
            continue
        cert = extend([first], [], set(first))
        if cert:
            return cert
    return None


def is_c3nq(g: Graph) -> C3NQCert | None:
    """Clique plus attached four-vertex path, or None."""
    if g.n < 8:
        return None
    for a2, a3 in g.edges():
        for a2v, a3v in ((a2, a3), (a3, a2)):
            for b2 in g.neighbors(a2v):
                if b2 == a3v:
                    continue
                for b3 in g.neighbors(a3v):
                    if b3 in (a2v, b2):
                        continue
                    path = {b2, a2v, a3v, b3}
                    kset = [v for v in range(g.n) if v not in path]
                    if len(kset) < 4:
                        continue
                    kmask = _cell_mask(kset)
                    if not g.is_clique_mask(kmask):
                        continue
                    a2_nbrs = set(g.neighbors(a2v))
                    a3_nbrs = set(g.neighbors(a3v))
                    b2_nbrs = set(g.neighbors(b2))
                    b3_nbrs = set(g.neighbors(b3))
                    a1_set = a2_nbrs - path
                    if len(a1_set) != 1 or a1_set != a3_nbrs - path:
                        continue
                    c2_set = b2_nbrs - path
                    c3_set = b3_nbrs - path
                    if len(c2_set) != 1 or len(c3_set) != 1:
                        continue
                    if b2_nbrs != {a2v} | c2_set or b3_nbrs != {a3v} | c3_set:
                        continue
                    if a2_nbrs != {b2, a3v} | a1_set or a3_nbrs != {b3, a2v} | a1_set:
                        continue
                    a1 = next(iter(a1_set))
                    c2 = next(iter(c2_set))
                    c3 = next(iter(c3_set))
                    if len({a1, c2, c3}) != 3:
                        continue
                    cert = C3NQCert(g.n, tuple(kset), a1, c2, c3, b2, a2v, a3v, b3)
                    if not check_c3nq_cert(g, cert):
                        return cert
    return None


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

    @property
    def min_components(self) -> int:
        """Fewest components the counting clauses allow: the largest lower
        bound of a clause that binds at every component count. Below it the
        recognizer drops K (and K') before any glue search."""
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


def _neighbors_of_set(g: Graph, vs) -> set[int]:
    mask = 0
    inner = _cell_mask(vs)
    for v in vs:
        mask |= g.row(v)
    return set(_bits(mask & ~inner))


def _attaches(outside: set[int], cliques) -> bool:
    if len(cliques) == 1:
        return outside <= set(cliques[0])
    return all(outside & set(c) for c in cliques)


def _base_search(kind: FamilyKind, g: Graph):
    # resolved through the module attributes on every call, so a wrapper
    # installed on is_c1n, is_c2n or is_c3nq also sees the glue searches
    return {FamilyKind.C1N: is_c1n, FamilyKind.C2N: is_c2n, FamilyKind.C3NQ: is_c3nq}[kind](g)


def _map_cert(cert, table):
    if isinstance(cert, ChainCert):
        return ChainCert(
            cert.n,
            tuple(tuple(sorted(table[v] for v in cell)) for cell in cert.cells),
            tuple(
                tuple(sorted((table[u], table[v]) for u, v in m)) for m in cert.matchings
            ),
        )
    if isinstance(cert, CycleCert):
        junctions = []
        for j in cert.junctions:
            if j[0] == "identify":
                junctions.append(("identify", table[j[1]]))
            else:
                junctions.append(("matching", tuple(sorted((table[u], table[v]) for u, v in j[1]))))
        return CycleCert(
            cert.n,
            tuple(tuple(sorted(table[v] for v in cell)) for cell in cert.cells),
            tuple(junctions),
        )
    if isinstance(cert, C3NQCert):
        return C3NQCert(
            cert.n,
            tuple(sorted(table[v] for v in cert.clique)),
            table[cert.a1], table[cert.c2], table[cert.c3],
            table[cert.b2], table[cert.a2], table[cert.a3], table[cert.b3],
        )
    raise InputError(f"cannot map certificate of type {type(cert).__name__}")


def _glue_search(g: Graph, vertices, base: FamilyKind):
    """Run a base-family search on an induced subgraph, mapped back."""
    ordered = sorted(vertices)
    cert = _base_search(base, g.induced(ordered))
    if cert is None:
        return None
    return _map_cert(cert, ordered)


_CERT_CHECKERS = {
    ChainCert: check_chain_cert, CycleCert: check_cycle_cert, C3NQCert: check_c3nq_cert,
}


def _check_sub_cert(g: Graph, vertices, cert) -> list[str]:
    ordered = sorted(vertices)
    sub = g.induced(ordered)
    local = _map_cert(cert, {v: i for i, v in enumerate(ordered)})
    return _CERT_CHECKERS[type(local)](sub, replace(local, n=sub.n))


def _frontier_of(g: Graph, clique) -> list[int]:
    cmask = _cell_mask(clique)
    return [v for v in sorted(clique) if g.row(v) & ~cmask]


def _outside_neighbors(g: Graph, v: int, clique_mask: int) -> list[int]:
    return list(_bits(g.row(v) & ~clique_mask))


def _independent_triple_exists(g: Graph, choice_lists) -> bool:
    l0, l1, l2 = choice_lists
    for v0 in l0:
        for v1 in l1:
            if v1 == v0 or g.has_edge(v0, v1):
                continue
            for v2 in l2:
                if v2 in (v0, v1) or g.has_edge(v0, v2) or g.has_edge(v1, v2):
                    continue
                return True
    return False


def _heavy_pairs_hold(g: Graph, clique, u0: int | None) -> bool:
    """Every frontier triple of the clique whose outside neighbors can be
    chosen independent contains an adjacent heavy pair. Without K' (u0
    None) a triple is any three frontier vertices; with it, u0 plus two
    other frontier vertices."""
    cmask = _cell_mask(clique)
    frontier = _frontier_of(g, clique)
    if u0 is None:
        triples = itertools.combinations(frontier, 3)
    else:
        others = [v for v in frontier if v != u0]
        triples = ((u0, u1, u2) for u1, u2 in itertools.combinations(others, 2))
    for trio in triples:
        if any(is_a_heavy_pair(g, a, b) for a, b in itertools.combinations(trio, 2)):
            continue
        if _independent_triple_exists(g, [_outside_neighbors(g, u, cmask) for u in trio]):
            return False
    return True


# -- composed-family certificate checker --------------------------------------


def _comp_tag_checks(g: Graph, comp: ComponentCert, hosts) -> list[str]:
    glue = GLUES[comp.glue]
    cliques = [hosts[h] for h in glue.hosts]
    problems = [] if _attaches(_neighbors_of_set(g, comp.vertices), cliques) else [glue.misplaced]
    return problems + _check_sub_cert(g, set(comp.vertices).union(*cliques), comp.sub)


def check_composed_cert(g: Graph, family: FamilyKind, cert: ComposedCert) -> list[str]:
    spec = FAMILY_SPECS[family]
    problems = []
    k_set = set(cert.k_clique)
    kmask = _cell_mask(k_set)
    if not g.is_clique_mask(kmask):
        problems.append("K is not a clique")
    kp_set = set(cert.k_prime) if cert.k_prime else None
    if spec.k_holds_heavy:
        if not set(heavy_vertices(g)) <= k_set:
            problems.append("K must contain every heavy vertex")
        if any(g.row(v) & kmask == kmask for v in range(g.n) if v not in k_set):
            problems.append("K must be a maximal clique")
    elif 2 * len(k_set) < g.n:
        problems.append("K must span at least half the graph")
    if spec.two_clique:
        if kp_set is None or cert.u0 is None:
            return ["secondary clique and shared vertex required"]
        kpmask = _cell_mask(kp_set)
        if not g.is_clique_mask(kpmask):
            problems.append("K' is not a clique")
        if any(g.row(v) & kpmask == kpmask for v in range(g.n) if v not in kp_set):
            problems.append("K' must be a maximal clique")
        if k_set & kp_set != {cert.u0}:
            problems.append("K and K' must share exactly the anchor vertex")
    elif kp_set is not None:
        problems.append("this family takes no secondary clique")
    outside = g.full_mask & ~_cell_mask(k_set | (kp_set or set()))
    if set(component_masks(g.rows, outside)) != {_cell_mask(c.vertices) for c in cert.components}:
        problems.append("certificate components do not match the graph's components")
    hosts = {"K": cert.k_clique, "K'": cert.k_prime}
    for comp in cert.components:
        if comp.glue not in spec.glues:
            problems.append(f"component glue {comp.glue!r} not allowed in {family.value}")
            continue
        problems += _comp_tag_checks(g, comp, hosts)
    problems += _count_problems(spec, [c.glue for c in cert.components])
    for clique, message in spec.heavy_pairs:
        if not _heavy_pairs_hold(g, hosts[clique], cert.u0):
            problems.append(message)
    return problems


# -- composed-family recognizer -----------------------------------------------


def _k_candidates(g: Graph, spec: FamilySpec) -> list[tuple[int, ...]]:
    if spec.k_holds_heavy:
        heavy = set(heavy_vertices(g))
        keep = [c for c in maximal_cliques(g) if heavy <= c]
    else:
        keep = [c for c in maximal_cliques(g) if 2 * len(c) >= g.n]
    return [tuple(sorted(c)) for c in keep]


def _prime_candidates(g: Graph, k_clique):
    k_set = set(k_clique)
    for kp in maximal_cliques(g):
        inter = set(kp) & k_set
        if len(inter) == 1 and kp != frozenset(k_clique):
            yield tuple(sorted(kp)), next(iter(inter))


def _glue_options(g: Graph, comps, hosts, glues):
    """(tag, sub-cert) options per component, in option order; None as
    soon as one component has no option."""
    out = []
    for comp in comps:
        outside = _neighbors_of_set(g, comp)
        options = []
        for tag in glues:
            glue = GLUES[tag]
            cliques = [hosts[h] for h in glue.hosts]
            if _attaches(outside, cliques):
                cert = _glue_search(g, set(comp).union(*cliques), glue.base)
                if cert:
                    options.append((tag, cert))
        if not options:
            return None
        out.append(options)
    return out


def _pick_glues(spec: FamilySpec, options):
    """The first assignment in option order that meets the counting
    clauses, or None. A branch is cut once a count passes its upper bound
    or can no longer reach its lower bound."""
    clauses = [c for c in spec.counts if c.only_with in (None, len(options))]
    # reach[i][j]: components i.. that have an option counted by clause j
    reach = [[0] * len(clauses)]
    for comp_options in reversed(options):
        reach.append([
            r + any(c.covers(tag) for tag, _ in comp_options)
            for r, c in zip(reach[-1], clauses)
        ])
    reach.reverse()
    picked = []

    def extend(i: int, counts: list[int]):
        for n, r, c in zip(counts, reach[i], clauses):
            if n + r < c.lo or (c.hi is not None and n > c.hi):
                return None
        if i == len(options):
            return picked
        for tag, sub in options[i]:
            picked.append((tag, sub))
            if extend(i + 1, [n + c.covers(tag) for n, c in zip(counts, clauses)]) is not None:
                return picked
            picked.pop()
        return None

    return extend(0, [0] * len(clauses))


def _recognize_composed(g: Graph, spec: FamilySpec) -> ComposedCert | None:
    for k_clique in _k_candidates(g, spec):
        primes = _prime_candidates(g, k_clique) if spec.two_clique else [(None, None)]
        for kp, u0 in primes:
            outside = g.full_mask & ~_cell_mask(k_clique) & ~_cell_mask(kp or ())
            comps = [tuple(_bits(c)) for c in component_masks(g.rows, outside)]
            if len(comps) < spec.min_components:
                continue
            options = _glue_options(g, comps, {"K": k_clique, "K'": kp}, spec.glues)
            picked = None if options is None else _pick_glues(spec, options)
            if picked is None:
                continue
            cert = ComposedCert(g.n, k_clique, kp, u0, tuple(
                ComponentCert(comp, tag, sub) for comp, (tag, sub) in zip(comps, picked)
            ))
            if not check_composed_cert(g, spec.kind, cert):
                return cert
    return None


@dataclass(frozen=True)
class FamilyWitness:
    families: frozenset[FamilyKind]
    certificates: dict
    order_threshold_met: bool

    def certificate(self, kind: FamilyKind):
        return self.certificates.get(kind)


def recognize(g: Graph) -> FamilyWitness:
    """Match g against every family; empty match set is a valid answer."""
    certs: dict[FamilyKind, Certificate] = {}
    for kind in FamilyKind:
        spec = FAMILY_SPECS.get(kind)
        cert = _base_search(kind, g) if spec is None else _recognize_composed(g, spec)
        if cert is not None:
            certs[kind] = cert
    return FamilyWitness(frozenset(certs), certs, g.n >= 10)


# -- generators ----------------------------------------------------------------


class _Builder:
    def __init__(self):
        self.pairs: set[tuple[int, int]] = set()

    def clique(self, ids):
        self.pairs.update(_clique_edges(sorted(ids)))

    def edge(self, u, v):
        self.pairs.add((min(u, v), max(u, v)))


def _pick_from(rng: random.Random, pool, used: set[int], count: int, label: str,
               forbidden=frozenset()):
    """Prefer unused host vertices; fall back to reuse when the host is
    too small (the caller's certificate check decides whether that was
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


def _generate_c1n(params: FamilyParams, rng: random.Random) -> tuple[Graph, ChainCert]:
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
    offsets = []
    total = 0
    for k in sizes:
        offsets.append(total)
        total += k
    cells = [tuple(range(offsets[i], offsets[i] + sizes[i])) for i in range(t)]
    b = _Builder()
    for cell in cells:
        b.clique(cell)
    matchings = []
    in_used: list[set[int]] = [set() for _ in range(t)]
    for i, m in enumerate(juncs):
        out = _pick_from(rng, cells[i], set(in_used[i]), m, "C1N")
        into = _pick_from(rng, cells[i + 1], set(), m, "C1N")
        in_used[i + 1] = set(into)
        pairs = _pair_up(rng, out, into)
        matchings.append(pairs)
        for u, v in pairs:
            b.edge(u, v)
    g = Graph.from_edges(total, sorted(b.pairs))
    cert = ChainCert(total, tuple(cells), tuple(matchings))
    return g, cert


def _generate_c2n(params: FamilyParams, rng: random.Random) -> tuple[Graph, CycleCert]:
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
    # local slots, then union-find across identification junctions
    slots = [[(i, j) for j in range(sizes[i])] for i in range(t)]
    outs, ins = [], []
    for i in range(t):
        local = list(range(sizes[i]))
        picked_in = rng.sample(local, juncs[i - 1])
        rest = [j for j in local if j not in picked_in]
        picked_out = rng.sample(rest, juncs[i])
        ins.append(picked_in)
        outs.append(picked_out)
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(s):
        while parent.get(s, s) != s:
            parent[s] = parent.get(parent[s], parent[s])
            s = parent[s]
        return s

    def union(a, b):
        parent[find(a)] = find(b)

    for i in range(t):
        if juncs[i] == 1:
            union((i, outs[i][0]), (((i + 1) % t), ins[(i + 1) % t][0]))
    ids: dict[tuple[int, int], int] = {}
    counter = 0
    for i in range(t):
        for s in slots[i]:
            root = find(s)
            if root not in ids:
                ids[root] = counter
                counter += 1
    vid = {s: ids[find(s)] for i in range(t) for s in slots[i]}
    b = _Builder()
    cells = []
    for i in range(t):
        cell = tuple(sorted(vid[(i, j)] for j in range(sizes[i])))
        if len(set(cell)) != sizes[i]:
            raise ParameterError("C2N: identifications collapsed a clique")
        cells.append(cell)
        b.clique(cell)
    junction_records: list[Junction] = []
    for i in range(t):
        nxt = (i + 1) % t
        if juncs[i] == 1:
            junction_records.append(("identify", vid[(i, outs[i][0])]))
        else:
            left = [vid[(i, j)] for j in outs[i]]
            right = [vid[(nxt, j)] for j in ins[nxt]]
            pairs = _pair_up(rng, sorted(left), right)
            junction_records.append(("matching", pairs))
            for u, v in pairs:
                b.edge(u, v)
    g = Graph.from_edges(counter, sorted(b.pairs))
    cert = CycleCert(counter, tuple(cells), tuple(junction_records))
    return g, cert


def _generate_c3nq_into(b: _Builder, rng, k_clique, used: set[int], next_id: int,
                        forbidden=frozenset()):
    a1, c2, c3 = _pick_from(rng, k_clique, used, 3, "C3NQ attachment", forbidden)
    b2, a2, a3, b3 = next_id, next_id + 1, next_id + 2, next_id + 3
    for u, v in ((b2, a2), (a2, a3), (a3, b3), (c2, b2), (a1, a2), (a1, a3), (c3, b3)):
        b.edge(u, v)
    cert = C3NQCert(0, tuple(k_clique), a1, c2, c3, b2, a2, a3, b3)
    return (b2, a2, a3, b3), cert


def _generate_c3nq(params: FamilyParams, rng: random.Random) -> tuple[Graph, C3NQCert]:
    if len(params.clique_sizes) != 1:
        raise ParameterError("C3NQ: exactly one clique size required")
    k = params.clique_sizes[0]
    if k < 4:
        raise ParameterError("C3NQ: the clique needs at least 4 vertices")
    b = _Builder()
    clique = tuple(range(k))
    b.clique(clique)
    _, cert = _generate_c3nq_into(b, rng, clique, set(), k)
    n = k + 4
    return Graph.from_edges(n, sorted(b.pairs)), replace(cert, n=n)


def _attach_chain(b, rng, host, host_used, sizes, juncs, next_id, label,
                  host_forbidden=frozenset()):
    """Chain host -> fresh cliques; returns (new ids, ChainCert cells/matchings)."""
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
    cells = [tuple(sorted(host))]
    fresh: list[int] = []
    cursor = next_id
    for k in sizes:
        cells.append(tuple(range(cursor, cursor + k)))
        fresh.extend(range(cursor, cursor + k))
        cursor += k
    for cell in cells[1:]:
        b.clique(cell)
    matchings = []
    prev_in: set[int] = set()
    for i, m in enumerate(juncs):
        left_used = host_used if i == 0 else set(prev_in)
        left_forbidden = host_forbidden if i == 0 else frozenset()
        out = _pick_from(rng, cells[i], left_used, m, label, left_forbidden)
        into = rng.sample(list(cells[i + 1]), m)
        prev_in = set(into)
        pairs = _pair_up(rng, out, into)
        matchings.append(pairs)
        for u, v in pairs:
            b.edge(u, v)
    return fresh, cells, tuple(matchings)


def _attach_cycle(b, rng, hosts, hosts_used, sizes, juncs, next_id, label,
                  host_forbidden=frozenset()):
    """Cycle host(s) -> fresh cliques -> back to the first host.

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
    fresh: list[int] = []
    cursor = next_id
    junction_records: list[Junction] = []
    if len(hosts) == 2:
        shared = set(hosts[0]) & set(hosts[1])
        junction_records.append(("identify", next(iter(shared))))
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
        members: list[int] = []
        if s_in == 1:
            fb = host_forbidden if i == 0 else frozenset()
            anchor = _pick_from(rng, prev_cell, prev_used, 1, label, fb)[0]
            members.append(anchor)
            junction_records.append(("identify", anchor))
            my_used = {anchor}
        else:
            fb = host_forbidden if i == 0 else frozenset()
            out = _pick_from(rng, prev_cell, prev_used, s_in, label, fb)
            my_used = set()
        last = i == len(sizes) - 1
        if last and closing_anchor is not None:
            members.append(closing_anchor)
        need = k - len(members)
        if need < 0:
            raise ParameterError(f"{label}: cycle clique {i + 1} too small for its anchors")
        members.extend(range(cursor, cursor + need))
        fresh.extend(range(cursor, cursor + need))
        cursor += need
        if s_in > 1:
            into = rng.sample([v for v in members if v != closing_anchor], s_in)
            pairs = _pair_up(rng, out, into)
            junction_records.append(("matching", pairs))
            for u, v in pairs:
                b.edge(u, v)
            my_used = set(into)
        cell = tuple(sorted(members))
        b.clique(cell)
        cells.append(cell)
        prev_cell, prev_used = cell, my_used
    if closing_anchor is not None:
        if closing_anchor in prev_used:
            raise ParameterError(f"{label}: closing anchor collides with the inbound junction")
        junction_records.append(("identify", closing_anchor))
    else:
        out = _pick_from(rng, prev_cell, prev_used, s_back, label)
        into = _pick_from(rng, home, home_used, s_back, label, host_forbidden)
        pairs = _pair_up(rng, out, into)
        junction_records.append(("matching", pairs))
        for u, v in pairs:
            b.edge(u, v)
    return fresh, cells, tuple(junction_records)


def _component_fresh_count(spec: ComponentSpec) -> int:
    if spec.kind == "c3nq":
        return 4
    total = sum(spec.clique_sizes)
    if spec.kind in ("c1n", "c1n_prime"):
        return total
    # every size-1 junction identifies away one vertex (into the previous
    # clique or into the host at the closing junction)
    return total - sum(1 for s in spec.junction_sizes if s == 1)


def _generate_composed(params: FamilyParams, rng: random.Random) -> tuple[Graph, ComposedCert]:
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

    b = _Builder()
    hosts = {"K": tuple(range(k)), "K'": None}
    used: dict[str, set[int]] = {"K": set(), "K'": set()}
    b.clique(hosts["K"])
    u0 = None
    cursor = k
    if spec.two_clique:
        u0 = 0
        hosts["K'"] = (0, *range(k, k + kp - 1))
        b.clique(hosts["K'"])
        cursor = k + kp - 1
    anchor_forbidden = frozenset({u0}) if u0 is not None else frozenset()

    comp_certs = []
    for comp in params.components:
        label = f"{fam.value}/{comp.kind}"
        glue = GLUES[comp.kind]
        cliques = [hosts[h] for h in glue.hosts]
        cliques_used = [used[h] for h in glue.hosts]
        if glue.base is FamilyKind.C3NQ:
            fresh, sub = _generate_c3nq_into(
                b, rng, cliques[0], cliques_used[0], cursor, anchor_forbidden,
            )
            sub = replace(sub, n=n)
        elif glue.base is FamilyKind.C1N:
            fresh, cells, matchings = _attach_chain(
                b, rng, cliques[0], cliques_used[0], comp.clique_sizes, comp.junction_sizes,
                cursor, label, anchor_forbidden,
            )
            sub = ChainCert(n, tuple(cells), matchings)
        else:
            fresh, cells, junctions = _attach_cycle(
                b, rng, tuple(cliques), cliques_used, comp.clique_sizes, comp.junction_sizes,
                cursor, label, anchor_forbidden,
            )
            sub = CycleCert(n, tuple(cells), junctions)
        cursor += len(fresh)
        comp_certs.append(ComponentCert(tuple(fresh), comp.kind, sub))
    if cursor != n:
        raise AssertionError("internal vertex accounting error")
    g = Graph.from_edges(n, sorted(b.pairs))
    cert = ComposedCert(n, hosts["K"], hosts["K'"], u0, tuple(comp_certs))
    problems = check_composed_cert(g, fam, cert)
    if problems:
        raise ParameterError(f"{fam.value}: generated graph violates: {problems[0]}")
    return g, cert


def generate_with_certificate(params: FamilyParams, seed: int = 0) -> tuple[Graph, Certificate]:
    """Build a labeled member; the seed resolves the free vertex choices."""
    rng = random.Random(seed)
    if params.family is FamilyKind.C1N:
        g, cert = _generate_c1n(params, rng)
        problems = check_chain_cert(g, cert)
    elif params.family is FamilyKind.C2N:
        g, cert = _generate_c2n(params, rng)
        problems = check_cycle_cert(g, cert)
    elif params.family is FamilyKind.C3NQ:
        g, cert = _generate_c3nq(params, rng)
        problems = check_c3nq_cert(g, cert)
    else:
        return _generate_composed(params, rng)
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
    n: int
    two_connected: bool
    claw_free: bool
    c_closed: bool
    n_p_heavy: bool
    n_pq_heavy: bool
    families: frozenset[FamilyKind]
    status: VerdictStatus

    @property
    def hypotheses_p(self) -> bool:
        return self.two_connected and self.claw_free and self.c_closed and self.n_p_heavy

    @property
    def hypotheses_pq(self) -> bool:
        return self.two_connected and self.claw_free and self.c_closed and self.n_pq_heavy

    @property
    def member_p(self) -> bool:
        return bool(self.families & P_HEAVY_UNION)

    @property
    def member_pq(self) -> bool:
        return bool(self.families & PQ_HEAVY_UNION)


def classify_theorem(g: Graph) -> TheoremVerdict:
    """Check the characterization's hypotheses against recognized
    membership. The equivalence is asserted only at order 10 and up;
    below that, anything except agreement-by-absence is out of range."""
    claw_free = not has_induced(g, PatternKind.CLAW)
    two_conn = is_2_connected(g)
    if is_pattern_o_heavy(g, PatternKind.CLAW):
        closed, _ = c_closure(g, EligibilityMode.AMENDED)
        c_closed = closed == g
    else:
        c_closed = False
    profile = net_profile(g)
    witness = recognize(g)
    verdict = TheoremVerdict(
        g.n, two_conn, claw_free, c_closed,
        profile.n_p_heavy, profile.n_pq_heavy,
        witness.families, VerdictStatus.CONSISTENT,
    )
    agree = (verdict.hypotheses_p == verdict.member_p) and (
        verdict.hypotheses_pq == verdict.member_pq
    )
    if g.n >= 10:
        status = VerdictStatus.CONSISTENT if agree else VerdictStatus.COUNTEREXAMPLE_CANDIDATE
    else:
        quiet = not (
            verdict.hypotheses_p or verdict.member_p
            or verdict.hypotheses_pq or verdict.member_pq
        )
        status = VerdictStatus.CONSISTENT if quiet else VerdictStatus.OUT_OF_RANGE
    return TheoremVerdict(
        verdict.n, verdict.two_connected, verdict.claw_free, verdict.c_closed,
        verdict.n_p_heavy, verdict.n_pq_heavy, verdict.families, status,
    )


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
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key, _, value = tokens[0].partition("=")
        if key == "family":
            family = FamilyKind.from_name(value)
        elif key == "t":
            declared_t = int(value)
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
