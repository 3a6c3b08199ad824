"""The three closure operators as deterministic fixpoint procedures.

Each closure returns the closed graph together with a replayable trace.
One mask search for the first claw and the first light claw (one whose
leaves hold no o-heavy pair) decides which closures are defined on a
graph; ``closures_of`` returns exactly those, without re-checking.
``minimum_supergraph_oracle`` is the independent ground truth the
neighborhood-completion closure is tested against: exhaustive enumeration
of spanning supergraphs for the minimum one that is claw-free,
diamond-free, and has no o-heavy pair. ``supergraph_search`` walks one
include/exclude tree over the non-edges and drops a branch as soon as it
breaks the target for good. A left-out pair with degree sum at least n
stays an o-heavy non-edge below, since degrees only grow as edges are
added. A 4-vertex set whose last undecided pair was just decided keeps
its induced subgraph below, so the walk tests it once there for a claw or
a diamond. The sets are listed per non-edge before the walk, grouped by
their lower other vertex a into one partner mask; at the node, before
the pair is joined, one mask test per anchor against the rows of u, v
and a decides both branches for every set of that anchor. It shares no
pattern detector with the closures, every leaf it reaches satisfies the
target, and the record reports how many tree nodes were entered.

Every degree-sum question reads the graph's one table,
``Graph.degree_table``, filled on first read: ``at[d]`` is the mask of
the vertices of degree at least d, so the o-heavy partners of u are
``~rows[u] & at[n - d(u)]`` without u. The light-claw search, each
c-eligibility scan and the augmented neighborhoods it floods are built
from that table. The o-closure and ``supergraph_search`` add edges as
they go, so each grows a list copy of g's table. The o-closure steps on
a row list and keeps its sorted list of o-heavy pairs across steps:
joining uv removes uv, and since degrees only grow, the only new pairs
sit at u or v. It builds one graph at the end. The r- and c-closures
rescan the current graph at every step and stop the scan at the first
eligible vertex, which is the pick. Every closure picks its least
candidate, the least o-heavy pair or the least eligible vertex; the
result does not depend on that order, and the ``uniqueness`` suite
checks this by closing relabelled copies of each graph.

c-eligibility first asks that the neighborhood not be a clique of the
graph itself. A literal reading of Čada's definition asks this of the
neighborhood with its degree-sum edges added instead. On C4 that
completes N(0) = {1, 3} through the o-heavy pair 13, so that reading
leaves C4 closed with the pair kept, where the supergraph oracle gives
K4; it is not implemented.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import takewhile

from .errors import (
    BudgetError,
    FormatError,
    InputError,
    NonUniqueMinimumError,
    PreconditionError,
)
from .graphs import Edge, Graph, _bits, _budget, _text, _vertex, component_masks, flood
from .heaviness import _heavy_pairs_at
# has_induced is unused here; benchmark/tests/test_harness.py checks it is bound
from .patterns import has_induced  # noqa: F401


@dataclass(frozen=True, slots=True)
class TraceStep:
    kind: str  # "o-pair", "r-completion", "c-completion"
    subject: int | Edge
    edges_added: tuple[Edge, ...]


@dataclass(frozen=True, slots=True)
class ClosureTrace:
    initial: Graph
    final: Graph
    steps: tuple[TraceStep, ...]

    def replay(self) -> Graph:
        g = replay_steps(self.initial, self.steps)
        if g != self.final:
            raise InputError("trace replay does not reproduce the final graph")
        return g


def replay_steps(initial: Graph, steps) -> Graph:
    g = initial
    for step in steps:
        g, added = g.add_edges(step.edges_added)
        if set(added) != set(step.edges_added):
            raise InputError(f"step {step} re-added existing edges")
    return g


def trace_to_text(trace: ClosureTrace) -> str:
    lines = []
    for step in trace.steps:
        subject = (
            f"{step.subject[0]}-{step.subject[1]}"
            if isinstance(step.subject, tuple)
            else str(step.subject)
        )
        edges = " ".join(f"{u}-{v}" for u, v in step.edges_added)
        lines.append(f"{step.kind} {subject} += {edges}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> tuple[TraceStep, ...]:
    steps = []
    for lineno, line in enumerate(_text(text, "trace text").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            head, edge_part = line.split("+=")
            kind, subject_text = head.split()
            subject: int | Edge
            if "-" in subject_text:
                a, b = subject_text.split("-")
                subject = (int(a), int(b))
            else:
                subject = int(subject_text)
            edges = []
            for token in edge_part.split():
                u, v = token.split("-")
                edges.append((int(u), int(v)))
        except ValueError as exc:
            raise FormatError(f"bad trace line {lineno}: {line!r}") from exc
        steps.append(TraceStep(kind, subject, tuple(edges)))
    return tuple(steps)


def _fixpoint(g: Graph, kind: str, candidates):
    """Complete the least candidate's neighborhood, one at a time, to a
    fixpoint. ``candidates(cur)`` yields the eligible vertices of cur in
    increasing order; each step reads only the first."""
    cur = g
    steps = []
    while (subject := next(candidates(cur), None)) is not None:
        cur, added = cur.add_edges(_neighborhood_missing(cur, subject))
        steps.append(TraceStep(kind, subject, added))
    return cur, ClosureTrace(g, cur, tuple(steps))


def _claw_status(g: Graph) -> tuple[bool, bool]:
    """(claw-free, claw-o-heavy), stopping at the first light claw: one
    whose leaves hold no o-heavy pair. The r-closure is defined on
    claw-free graphs, the c-closure on claw-o-heavy ones.

    A claw x; u < v < w has pairwise nonadjacent leaves, so it is light when
    v and w avoid u's heavy partners ``at[n - d(u)]`` and w avoids v's.
    Once a claw is found, only v outside u's heavy partners is tried."""
    n, rows = g.n, g.rows
    degs, at = g.degree_table
    claw_free = True
    for x in range(n):
        nbrs = rows[x]
        for u in _bits(nbrs):
            rest_u = nbrs & ~rows[u] & (-2 << u)
            light_u = rest_u & ~at[n - degs[u]]
            for v in _bits(rest_u if claw_free else light_u):
                rest_v = rest_u & ~rows[v] & (-2 << v)
                if rest_v:
                    claw_free = False
                    if light_u >> v & 1 and rest_v & light_u & ~at[n - degs[v]]:
                        return False, False
    return claw_free, True


_C_UNDEFINED = ("input has an induced claw with no o-heavy pair: "
                "degree-sum completion undefined")


# -- o-closure ---------------------------------------------------------------


def o_closure(g: Graph) -> tuple[Graph, ClosureTrace]:
    """Join the least o-heavy pair, one at a time, to a fixpoint.

    The sorted list of o-heavy pairs is kept across steps rather than
    rescanned. Joining uv removes uv and raises only d(u) and d(v), so a
    pair that was o-heavy stays o-heavy, and the new ones are the pairs at
    u or v whose degree sum has just reached n exactly.
    """
    n = g.n
    pairs = _heavy_pairs_at(g, adjacent=False)
    rows = list(g.rows)
    degs, at = map(list, g.degree_table)
    steps = []
    while pairs:
        u, v = pair = pairs.pop(0)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        for x in pair:
            degs[x] += 1
            at[degs[x]] |= 1 << x
        for x in pair:
            exact = at[n - degs[x]] & ~at[n - degs[x] + 1]
            for y in _bits(exact & ~(rows[x] | 1 << x)):
                insort(pairs, (min(x, y), max(x, y)))
        steps.append(TraceStep("o-pair", pair, (pair,)))
    final = Graph._unsafe(n, tuple(rows)) if steps else g
    return final, ClosureTrace(g, final, tuple(steps))


# -- neighborhood completion closures ---------------------------------------


def _neighborhood_missing(g: Graph, x: int) -> list[Edge]:
    mask, rows = g.row(x), g.rows
    return [(u, v) for u in _bits(mask) for v in _bits(mask & ~rows[u] & (-2 << u))]


def _r_eligible_inner(g: Graph, x: int) -> bool:
    mask = g.row(x)
    if mask == 0:
        return False
    if g.is_clique_mask(mask):
        return False
    return flood(g.rows, mask & -mask, mask) == mask


def r_eligible(g: Graph, x: int) -> bool:
    """Connected non-complete neighborhood; input must be claw-free."""
    _vertex(g.n, x)
    if not _claw_status(g)[0]:
        raise PreconditionError("r-eligibility is defined for claw-free graphs only")
    return _r_eligible_inner(g, x)


def r_closure(g: Graph) -> tuple[Graph, ClosureTrace]:
    if not _claw_status(g)[0]:
        raise PreconditionError("input not claw-free: r-closure undefined")
    return _r_fixpoint(g)


def _r_fixpoint(g: Graph):
    return _fixpoint(g, "r-completion",
                     lambda cur: (x for x in range(cur.n) if _r_eligible_inner(cur, x)))


# -- degree-sum completion (c-closure) ---------------------------------------


def bc_local(g: Graph, x: int) -> list[Edge]:
    """Nonadjacent neighbor pairs of x with degree sum at least n."""
    _vertex(g.n, x)
    aug = _bc_rows(g, x)
    return [(u, v) for u in aug for v in _bits(aug[u] & ~g.row(u) & (-2 << u))]


def _bc_rows(g: Graph, x: int) -> dict[int, int]:
    """The degree-sum-augmented neighborhood of x: each neighbor's row
    within N(x), joined to its o-heavy partners there."""
    n, rows = g.n, g.rows
    degs, at = g.degree_table
    mask = rows[x]
    return {v: mask & (rows[v] | at[n - degs[v]]) & ~(1 << v) for v in _bits(mask)}


def _c_eligible_inner(g: Graph, x: int) -> bool:
    """Is x c-eligible?"""
    mask = g.row(x)
    if mask == 0 or g.is_clique_mask(mask):
        return False
    aug = _bc_rows(g, x)
    comps = component_masks(aug, mask)
    if len(comps) == 1:
        return True
    if len(comps) != 2:
        return False
    c1, c2 = comps
    for comp in (c1, c2):
        for v in _bits(comp):
            if aug[v] != comp ^ (1 << v):
                return False
    rows = g.rows
    degs, at = g.degree_table
    partners = ~(rows[x] | 1 << x) & at[g.n - degs[x]]
    return any(rows[z] & c1 and rows[z] & c2 for z in _bits(partners))


def _c_eligible_vertices(g: Graph):
    """The c-eligible vertices of g in increasing order."""
    return (x for x in range(g.n) if _c_eligible_inner(g, x))


def c_eligible(g: Graph, x: int) -> bool:
    _vertex(g.n, x)
    if not _claw_status(g)[1]:
        raise PreconditionError(_C_UNDEFINED)
    return _c_eligible_inner(g, x)


def c_closure(g: Graph) -> tuple[Graph, ClosureTrace]:
    if not _claw_status(g)[1]:
        raise PreconditionError(_C_UNDEFINED)
    return _c_fixpoint(g)


def _c_fixpoint(g: Graph):
    return _fixpoint(g, "c-completion", _c_eligible_vertices)


# The closures by the kind name ``closure --kind`` takes.
CLOSURES = {"o": o_closure, "r": r_closure, "c": c_closure}


def is_c_closed(g: Graph) -> bool:
    if not _claw_status(g)[1]:
        raise PreconditionError(_C_UNDEFINED)
    return _c_closed(g)


def _c_closed(g: Graph) -> bool:
    """No vertex is c-eligible; g must be claw-o-heavy."""
    return next(_c_eligible_vertices(g), None) is None


def closures_of(g: Graph) -> dict[str, tuple[Graph, ClosureTrace]]:
    """The closures defined on g, keyed "o", "r", "c" in that order: r only
    when g is claw-free, c only when g is claw-o-heavy."""
    ladder = {"o": o_closure(g)}
    claw_free, claw_o_heavy = _claw_status(g)
    if claw_free:
        ladder["r"] = _r_fixpoint(g)
    if claw_o_heavy:
        ladder["c"] = _c_fixpoint(g)
    return ladder


def validate_c_trace(trace: ClosureTrace) -> list[str]:
    """Per-step completion laws; an empty list means the trace is clean.

    Checks, for every completion step at x: the vertex was eligible in the
    pre-step graph, the step added exactly the non-adjacent pairs of N(x),
    afterwards every neighbor of x has degree at least d(x), and the
    post-step graph still has an o-heavy pair in each of its induced claws.
    """
    problems = []
    cur = trace.initial
    for i, step in enumerate(trace.steps):
        if step.kind != "c-completion" or not isinstance(step.subject, int):
            problems.append(f"step {i}: not a c-completion step")
            break
        x = step.subject
        if not 0 <= x < cur.n:
            problems.append(f"step {i}: vertex {x} out of range")
            break
        if not _c_eligible_inner(cur, x):
            problems.append(f"step {i}: vertex {x} was not eligible")
        if set(step.edges_added) != set(_neighborhood_missing(cur, x)):
            problems.append(f"step {i}: added edges are not the missing pairs of N({x})")
        nxt, _ = cur.add_edges(step.edges_added)
        dx = nxt.degree(x)
        for y in nxt.neighbors(x):
            if nxt.degree(y) < dx:
                problems.append(f"step {i}: neighbor {y} lighter than completed vertex {x}")
        if not _claw_status(nxt)[1]:
            problems.append(f"step {i}: intermediate graph lost claw-o-heaviness")
        cur = nxt
    if cur != trace.final:
        problems.append("replayed steps do not reach the recorded final graph")
    return problems


# -- exhaustive supergraph oracle --------------------------------------------


@dataclass(frozen=True, slots=True)
class SupergraphSearch:
    """Full enumeration record: all satisfying edge-addition sets, in
    order of size and then of their non-edge indices, plus the number of
    search-tree nodes the walk entered."""

    base: Graph
    non_edges: tuple[Edge, ...]
    satisfying: tuple[frozenset[Edge], ...]
    nodes: int

    @property
    def minima(self) -> tuple[frozenset[Edge], ...]:
        """The satisfying sets of least size."""
        size = len(self.satisfying[0])
        return tuple(takewhile(lambda s: len(s) == size, self.satisfying))

    @property
    def unique_minimum(self) -> bool:
        minima = self.minima
        return len(minima) == 1 and all(minima[0] <= other for other in self.satisfying)

    def graph_for(self, added: frozenset[Edge]) -> Graph:
        g, _ = self.base.add_edges(sorted(added))
        return g


def _closing_sets(g: Graph, non_edges) -> list[list[tuple[int, int]]]:
    """Per non-edge i = (u, v), the 4-vertex sets {u, v, a, b} whose other
    five pairs are edges of g or non-edges of smaller index, grouped by
    their lower vertex a as (a, partners), partners the mask of every such
    b > a: the sets that non-edge i is the last to decide."""
    full = g.full_mask
    # undecided[x]: x's partners in the non-edges not yet passed
    undecided = [full & ~(row | 1 << x) for x, row in enumerate(g.rows)]
    closing = []
    for u, v in non_edges:
        undecided[u] ^= 1 << v
        undecided[v] ^= 1 << u
        common = full & ~(undecided[u] | undecided[v] | 1 << u | 1 << v)
        anchors = []
        for a in _bits(common):
            partners = common & ~undecided[a] & (-2 << a)
            if partners:
                anchors.append((a, partners))
        closing.append(anchors)
    return closing


def supergraph_search(g: Graph, budget: int = 16) -> SupergraphSearch:
    """Every set of non-edges whose addition to g satisfies the target.

    A depth-first include/exclude walk over ``non_edges`` in index order;
    node i decides non-edge i, and a leaf is one complete choice. A branch
    is dropped as soon as it breaks the target for good:
    - an excluded pair has degree sum at least n. Degrees only grow below
      that node, so the pair is an o-heavy non-edge in every leaf below.
    - a 4-vertex set {u, v, a, b} that non-edge i is the last to decide
      induces a claw or a diamond. Its six pairs are fixed from here on.
    The sets are read per anchor a (the lower of a, b), before uv is
    joined, against U = rows[u], V = rows[v], both = U & V and A = rows[a];
    one mask test on the partner mask of a decides a branch for every b at
    once. Without uv a claw is centred at a or b, and a claw the join
    makes is centred at u or v:
    - a in both: leaving uv out breaks the target on some b in
      ``A & (both | ~(U | V))`` (a diamond, or a claw centred at a), and
      joining it on some b in ``A & (U ^ V) | both & ~A`` (a diamond);
    - a in U only: joining breaks it on some b in ``both & A | U & ~V & ~A``
      (a diamond without va, or a claw centred at u), and a in V only is
      the mirror image;
    - a in neither: leaving uv out breaks it on some b in ``both & A`` (a
      claw centred at b).
    The reading stops once both branches are known to break.
    Every induced claw or diamond holds a non-edge of g, so each is tested
    once on every root-to-leaf path, and a leaf that is reached satisfies
    the target without a further test; the last non-edge's branches are
    counted and recorded as leaves without a call of their own.
    Raises ``BudgetError`` when g has more than ``budget`` non-edges, and
    ``InputError`` when ``budget`` is not an int or is negative.
    """
    non_edges = tuple(g.non_edges())
    if len(non_edges) > _budget(budget, "supergraph search budget"):
        raise BudgetError(
            f"{len(non_edges)} missing edges exceed the supergraph search budget {budget}"
        )
    if not non_edges:
        return SupergraphSearch(g, (), (frozenset(),), 1)
    n = g.n
    rows = list(g.rows)
    degs, at = map(list, g.degree_table)
    closing = _closing_sets(g, non_edges)
    last = len(non_edges) - 1
    excluded = [0] * n  # excluded[x]: bitmask of x's excluded partners
    chosen: list[int] = []
    found: list[tuple[int, ...]] = []
    nodes = 0

    def walk(i: int) -> None:
        nonlocal nodes
        nodes += 1
        u, v = non_edges[i]
        du, dv = degs[u], degs[v]
        # leaving uv out keeps an o-heavy non-edge; joining it lifts an
        # excluded partner of u or v to degree sum n (excluded[x] never
        # holds u or v, so at[] may be read before it is updated)
        exclude_dies = du + dv >= n
        include_dies = bool(excluded[u] & at[n - du - 1] or excluded[v] & at[n - dv - 1])
        if not (exclude_dies and include_dies):
            ru, rv = rows[u], rows[v]
            both = ru & rv
            for a, partners in closing[i]:
                ra = rows[a]
                if both >> a & 1:
                    # left out: a diamond, or a claw centred at a (ab, b
                    # adjacent to both u and v or to neither)
                    if partners & ra & (both | ~(ru | rv)):
                        exclude_dies = True
                    # joined: a diamond, four of the five pairs present
                    if partners & (ra & (ru ^ rv) | both & ~ra):
                        include_dies = True
                elif ru >> a & 1:
                    # joined: a diamond without va, or a claw centred at u
                    if partners & (both & ra | ru & ~rv & ~ra):
                        include_dies = True
                elif rv >> a & 1:
                    # the mirror image, with u and v swapped
                    if partners & (both & ra | rv & ~ru & ~ra):
                        include_dies = True
                elif partners & both & ra:
                    exclude_dies = True  # a claw centred at b
                if exclude_dies and include_dies:
                    break
        if not include_dies:
            chosen.append(i)
            if i == last:
                nodes += 1
                found.append(tuple(chosen))
            else:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                degs[u] = du + 1
                degs[v] = dv + 1
                at[du + 1] |= 1 << u
                at[dv + 1] |= 1 << v
                walk(i + 1)
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
                at[du + 1] ^= 1 << u
                at[dv + 1] ^= 1 << v
                degs[u] = du
                degs[v] = dv
            chosen.pop()
        if not exclude_dies:
            if i == last:
                nodes += 1
                found.append(tuple(chosen))
            else:
                excluded[u] |= 1 << v
                excluded[v] |= 1 << u
                walk(i + 1)
                excluded[u] ^= 1 << v
                excluded[v] ^= 1 << u

    walk(0)
    # walk calls itself through its closure; break that cycle so the
    # closing lists are freed now, not at the next full collection
    del walk
    if not found:
        raise AssertionError("unreachable: the complete graph always satisfies the target")
    found.sort(key=lambda idx: (len(idx), idx))
    satisfying = tuple(frozenset(non_edges[i] for i in idx) for idx in found)
    return SupergraphSearch(g, non_edges, satisfying, nodes)


def minimum_supergraph_oracle(g: Graph, budget: int = 16) -> Graph:
    """The unique minimum claw-free, diamond-free, o-heavy-pair-free
    spanning supergraph, verified to be contained in every satisfying
    supergraph the enumeration found."""
    search = supergraph_search(g, budget)
    if not search.unique_minimum:
        raise NonUniqueMinimumError(
            f"{len(search.minima)} incomparable minima of size {len(search.minima[0])}"
        )
    return search.graph_for(search.minima[0])
