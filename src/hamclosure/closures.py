"""The three closure operators as deterministic fixpoint procedures.

Each closure returns the closed graph together with a replayable trace.
``minimum_supergraph_oracle`` is the independent ground truth the
neighborhood-completion closure is tested against: exhaustive enumeration
of spanning supergraphs for the minimum one that is claw-free,
diamond-free, and has no o-heavy pair. ``supergraph_search`` walks one
include/exclude tree over the non-edges and drops a subtree as soon as a
left-out pair has degree sum at least n. That is sound because degrees
only grow as edges are added below the node, so the pair stays an
o-heavy non-edge in every supergraph of the subtree. Every leaf the walk
reaches still runs the full target test, and the record reports how many
tree nodes were entered.

Two readings of completion eligibility are implemented. The AMENDED mode
(default) asks whether the neighborhood is a clique in the input graph;
the LITERAL mode asks the same question after the degree-sum edges have
been added. The two disagree on C4 (literal leaves it closed), and only
the amended mode agrees with the supergraph oracle, so amended is the
default and literal stays available behind the mode switch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .errors import (
    BudgetError,
    FormatError,
    InputError,
    NonUniqueMinimumError,
    PreconditionError,
)
from .graphs import Edge, Graph, _bits, component_masks, flood
from .heaviness import o_heavy_pairs
from .patterns import PatternKind, has_induced
from .heaviness import is_pattern_o_heavy


class EligibilityMode(Enum):
    LITERAL = "literal"
    AMENDED = "amended"

    @staticmethod
    def from_name(name: str) -> "EligibilityMode":
        try:
            return EligibilityMode(name.strip().lower())
        except ValueError:
            raise InputError(f"unknown eligibility mode {name!r}") from None


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
    for lineno, line in enumerate(text.splitlines(), 1):
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


def _require_policy(policy: str) -> None:
    if policy not in ("min", "max", "random"):
        raise InputError(f"unknown selection policy {policy!r}")


def _pick(items: list, policy: str, rng: random.Random):
    if policy == "min":
        return items[0]
    if policy == "max":
        return items[-1]
    return items[rng.randrange(len(items))]


def _fixpoint(g: Graph, kind: str, candidates, edges_of, policy: str, seed: int):
    """Add the edges of one picked candidate at a time, to a fixpoint."""
    rng = random.Random(seed)
    cur = g
    steps = []
    while True:
        options = candidates(cur)
        if not options:
            break
        subject = _pick(options, policy, rng)
        cur, added = cur.add_edges(edges_of(cur, subject))
        steps.append(TraceStep(kind, subject, added))
    return cur, ClosureTrace(g, cur, tuple(steps))


# -- o-closure ---------------------------------------------------------------


def o_closure(g: Graph, policy: str = "min", seed: int = 0) -> tuple[Graph, ClosureTrace]:
    """Join one o-heavy pair at a time, re-scanning degrees, to a fixpoint."""
    _require_policy(policy)
    return _fixpoint(g, "o-pair", lambda cur: [(p.u, p.v) for p in o_heavy_pairs(cur)],
                     lambda cur, pair: [pair], policy, seed)


# -- neighborhood completion closures ---------------------------------------


def _neighborhood_missing(g: Graph, x: int) -> list[Edge]:
    nbrs = g.neighbors(x)
    return [
        (u, v)
        for i, u in enumerate(nbrs)
        for v in nbrs[i + 1:]
        if not g.has_edge(u, v)
    ]


def _r_eligible_inner(g: Graph, x: int) -> bool:
    mask = g.row(x)
    if mask == 0:
        return False
    if g.is_clique_mask(mask):
        return False
    return flood(g.rows, mask & -mask, mask) == mask


def r_eligible(g: Graph, x: int) -> bool:
    """Connected non-complete neighborhood; input must be claw-free."""
    if not 0 <= x < g.n:
        raise InputError(f"vertex {x} out of range")
    if has_induced(g, PatternKind.CLAW):
        raise PreconditionError("r-eligibility is defined for claw-free graphs only")
    return _r_eligible_inner(g, x)


def r_closure(g: Graph, policy: str = "min", seed: int = 0) -> tuple[Graph, ClosureTrace]:
    _require_policy(policy)
    if has_induced(g, PatternKind.CLAW):
        raise PreconditionError("input not claw-free: r-closure undefined")
    return _fixpoint(g, "r-completion",
                     lambda cur: [x for x in range(cur.n) if _r_eligible_inner(cur, x)],
                     _neighborhood_missing, policy, seed)


# -- degree-sum completion (c-closure) ---------------------------------------


def bc_local(g: Graph, x: int) -> list[Edge]:
    """Nonadjacent neighbor pairs of x with degree sum at least n."""
    if not 0 <= x < g.n:
        raise InputError(f"vertex {x} out of range")
    degs = g.degrees()
    nbrs = g.neighbors(x)
    return [
        (u, v)
        for i, u in enumerate(nbrs)
        for v in nbrs[i + 1:]
        if not g.has_edge(u, v) and degs[u] + degs[v] >= g.n
    ]


def _bc_components(g: Graph, x: int) -> tuple[list[int], list[int]]:
    """Connected components of the degree-sum-augmented neighborhood.

    Returns (component masks, augmented rows restricted to N(x)).
    """
    mask = g.row(x)
    aug = {v: g.row(v) & mask for v in _bits(mask)}
    for u, v in bc_local(g, x):
        aug[u] |= 1 << v
        aug[v] |= 1 << u
    return component_masks(aug, mask), aug


def _c_eligible_inner(g: Graph, x: int, mode: EligibilityMode) -> bool:
    mask = g.row(x)
    if mask == 0:
        return False
    comps, aug = _bc_components(g, x)
    if mode is EligibilityMode.AMENDED:
        if g.is_clique_mask(mask):
            return False
    else:
        if all(aug[v] == mask ^ (1 << v) for v in _bits(mask)):
            return False
    if len(comps) == 1:
        return True
    if len(comps) != 2:
        return False
    c1, c2 = comps
    for comp in (c1, c2):
        for v in _bits(comp):
            if aug[v] != comp ^ (1 << v):
                return False
    degs = g.degrees()
    for z in range(g.n):
        if z == x or g.has_edge(x, z) or degs[x] + degs[z] < g.n:
            continue
        if g.row(z) & c1 and g.row(z) & c2:
            return True
    return False


def _require_claw_o_heavy(g: Graph) -> None:
    if not is_pattern_o_heavy(g, PatternKind.CLAW):
        raise PreconditionError(
            "input has an induced claw with no o-heavy pair: "
            "degree-sum completion undefined"
        )


def c_eligible(g: Graph, x: int, mode: EligibilityMode = EligibilityMode.AMENDED) -> bool:
    if not 0 <= x < g.n:
        raise InputError(f"vertex {x} out of range")
    _require_claw_o_heavy(g)
    return _c_eligible_inner(g, x, mode)


def c_closure(
    g: Graph,
    mode: EligibilityMode = EligibilityMode.AMENDED,
    policy: str = "min",
    seed: int = 0,
) -> tuple[Graph, ClosureTrace]:
    _require_policy(policy)
    _require_claw_o_heavy(g)
    return _fixpoint(g, "c-completion",
                     lambda cur: [x for x in range(cur.n) if _c_eligible_inner(cur, x, mode)],
                     _neighborhood_missing, policy, seed)


def is_c_closed(g: Graph) -> bool:
    _require_claw_o_heavy(g)
    return not any(_c_eligible_inner(g, x, EligibilityMode.AMENDED) for x in range(g.n))


def c_mode_divergence(g: Graph) -> tuple[Graph, Graph, bool]:
    """(amended closure, literal closure, whether they differ)."""
    amended, _ = c_closure(g, EligibilityMode.AMENDED)
    literal, _ = c_closure(g, EligibilityMode.LITERAL)
    return amended, literal, amended != literal


def validate_c_trace(trace: ClosureTrace) -> list[str]:
    """Per-step completion laws; an empty list means the trace is clean.

    Checks, for every completion step at x: the vertex was eligible (amended
    reading) in the pre-step graph, the step added exactly the non-adjacent
    pairs of N(x), afterwards every neighbor of x has degree at least d(x),
    and the post-step graph still has an o-heavy pair in each of its
    induced claws.
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
        if not _c_eligible_inner(cur, x, EligibilityMode.AMENDED):
            problems.append(f"step {i}: vertex {x} was not eligible")
        if set(step.edges_added) != set(_neighborhood_missing(cur, x)):
            problems.append(f"step {i}: added edges are not the missing pairs of N({x})")
        nxt, _ = cur.add_edges(step.edges_added)
        dx = nxt.degree(x)
        for y in nxt.neighbors(x):
            if nxt.degree(y) < dx:
                problems.append(f"step {i}: neighbor {y} lighter than completed vertex {x}")
        if not is_pattern_o_heavy(nxt, PatternKind.CLAW):
            problems.append(f"step {i}: intermediate graph lost claw-o-heaviness")
        cur = nxt
    if cur != trace.final:
        problems.append("replayed steps do not reach the recorded final graph")
    return problems


# -- exhaustive supergraph oracle --------------------------------------------


def _satisfies_target(g: Graph) -> bool:
    return (
        not has_induced(g, PatternKind.CLAW)
        and not has_induced(g, PatternKind.DIAMOND)
        and not o_heavy_pairs(g)
    )


@dataclass(frozen=True, slots=True)
class SupergraphSearch:
    """Full enumeration record: all satisfying edge-addition sets, in
    order of size and then of their non-edge indices, plus the number of
    search-tree nodes the walk entered."""

    base: Graph
    non_edges: tuple[Edge, ...]
    satisfying: tuple[frozenset[Edge], ...]
    minima: tuple[frozenset[Edge], ...]
    nodes: int

    @property
    def unique_minimum(self) -> bool:
        if len(self.minima) != 1:
            return False
        least = self.minima[0]
        return all(least <= other for other in self.satisfying)

    def graph_for(self, added: frozenset[Edge]) -> Graph:
        g, _ = self.base.add_edges(sorted(added))
        return g


def supergraph_search(g: Graph, budget: int = 16) -> SupergraphSearch:
    """Every set of non-edges whose addition to g satisfies the target.

    A depth-first include/exclude walk over ``non_edges`` in index order;
    node i decides non-edge i, and a leaf is one complete choice. A
    subtree is dropped as soon as an excluded pair has degree sum at
    least n: degrees only grow below that node, so the pair is an o-heavy
    non-edge in every leaf of the subtree. Each leaf that is reached
    still runs the full target test (claw, diamond and o-heavy pairs).
    Raises ``BudgetError`` when g has more than ``budget`` non-edges.
    """
    non_edges = tuple(g.non_edges())
    if len(non_edges) > budget:
        raise BudgetError(
            f"{len(non_edges)} missing edges exceed the supergraph search budget {budget}"
        )
    n = g.n
    rows = list(g.rows)
    degs = g.degrees()
    excluded = [0] * n  # excluded[x]: bitmask of x's excluded partners
    chosen: list[int] = []
    found: list[tuple[int, ...]] = []
    nodes = 0

    def heavy_excluded(x: int) -> bool:
        return any(degs[x] + degs[y] >= n for y in _bits(excluded[x]))

    def walk(i: int) -> None:
        nonlocal nodes
        nodes += 1
        if i == len(non_edges):
            if _satisfies_target(Graph._unsafe(n, tuple(rows))):
                found.append(tuple(chosen))
            return
        u, v = non_edges[i]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        degs[u] += 1
        degs[v] += 1
        if not (heavy_excluded(u) or heavy_excluded(v)):
            chosen.append(i)
            walk(i + 1)
            chosen.pop()
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        degs[u] -= 1
        degs[v] -= 1
        if degs[u] + degs[v] < n:
            excluded[u] |= 1 << v
            excluded[v] |= 1 << u
            walk(i + 1)
            excluded[u] ^= 1 << v
            excluded[v] ^= 1 << u

    walk(0)
    if not found:
        raise AssertionError("unreachable: the complete graph always satisfies the target")
    found.sort(key=lambda idx: (len(idx), idx))
    satisfying = tuple(frozenset(non_edges[i] for i in idx) for idx in found)
    least_size = len(found[0])
    minima = tuple(s for s in satisfying if len(s) == least_size)
    return SupergraphSearch(g, non_edges, satisfying, minima, nodes)


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
