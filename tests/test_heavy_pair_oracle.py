"""The degree-table heavy-pair code and the closures built on it, checked
against the pairwise code they replaced.

The plain oracle below tests one vertex pair at a time with ``has_edge``,
builds a fresh graph at every closure step and finds components with
vertex sets. It shares no degree table, mask algebra, flood fill or pair
list with ``hamclosure.heaviness`` or ``hamclosure.closures``; only the
``Graph`` value and its ``add_edges`` are common ground.
"""

import itertools

import pytest

from hamclosure import closures
from hamclosure.closures import (
    _c_eligible_vertices,
    _claw_status,
    bc_local,
    c_closure,
    c_eligible,
    o_closure,
    r_closure,
)
from hamclosure.graphs import Graph, emit_graph6
from hamclosure.heaviness import a_heavy_pairs, is_pattern_o_heavy, o_heavy_pairs, satisfies_ore
from hamclosure.patterns import PatternKind, has_induced
from hamclosure.verify import full_corpus
from test_families import _seeded_gnp


def plain_heavy_pairs(g: Graph, adjacent: bool) -> list[tuple[int, int, int]]:
    degs = g.degrees()
    return [
        (u, v, degs[u] + degs[v])
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.has_edge(u, v) == adjacent and degs[u] + degs[v] >= g.n
    ]


def plain_satisfies_ore(g: Graph) -> bool:
    degs = g.degrees()
    return all(
        g.has_edge(u, v) or degs[u] + degs[v] >= g.n
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def plain_claw_status(g: Graph) -> tuple[bool, bool]:
    """(claw-free, every induced claw holds an o-heavy pair)."""
    degs = g.degrees()
    claw_free = True
    for x in range(g.n):
        for leaves in itertools.combinations(g.neighbors(x), 3):
            pairs = list(itertools.combinations(leaves, 2))
            if any(g.has_edge(u, v) for u, v in pairs):
                continue
            claw_free = False
            if not any(degs[u] + degs[v] >= g.n for u, v in pairs):
                return False, False
    return claw_free, True


def plain_bc_local(g: Graph, x: int) -> list[tuple[int, int]]:
    degs = g.degrees()
    nbrs = g.neighbors(x)
    return [
        (u, v)
        for i, u in enumerate(nbrs)
        for v in nbrs[i + 1:]
        if not g.has_edge(u, v) and degs[u] + degs[v] >= g.n
    ]


def _plain_components(adj: dict[int, set[int]]) -> list[set[int]]:
    """Connected pieces of the graph ``adj``, lowest vertex first."""
    left = set(adj)
    out = []
    while left:
        comp, todo = set(), [min(left)]
        while todo:
            v = todo.pop()
            if v not in comp:
                comp.add(v)
                todo.extend(adj[v] - comp)
        out.append(comp)
        left -= comp
    return out


def plain_c_eligible(g: Graph, x: int) -> bool:
    nbrs = g.neighbors(x)
    if not nbrs or all(g.has_edge(u, v) for u, v in itertools.combinations(nbrs, 2)):
        return False
    aug = {v: {u for u in nbrs if g.has_edge(u, v)} for v in nbrs}
    for u, v in plain_bc_local(g, x):
        aug[u].add(v)
        aug[v].add(u)
    comps = _plain_components(aug)
    if len(comps) == 1:
        return True
    if len(comps) != 2:
        return False
    if any(aug[v] != comp - {v} for comp in comps for v in comp):
        return False
    degs = g.degrees()
    for z in range(g.n):
        if z == x or g.has_edge(x, z) or degs[x] + degs[z] < g.n:
            continue
        if all(any(g.has_edge(z, v) for v in comp) for comp in comps):
            return True
    return False


def plain_c_eligible_vertices(g: Graph) -> list[int]:
    return [x for x in range(g.n) if plain_c_eligible(g, x)]


def plain_r_eligible(g: Graph, x: int) -> bool:
    """N(x) is nonempty, not a clique, and induces a connected subgraph."""
    nbrs = g.neighbors(x)
    if all(g.has_edge(u, v) for u, v in itertools.combinations(nbrs, 2)):
        return False
    return len(_plain_components({v: {u for u in nbrs if g.has_edge(u, v)} for v in nbrs})) == 1


def plain_missing(g: Graph, x: int) -> list[tuple[int, int]]:
    nbrs = g.neighbors(x)
    return [(u, v) for i, u in enumerate(nbrs) for v in nbrs[i + 1:] if not g.has_edge(u, v)]


def plain_fixpoint(g: Graph, kind: str, candidates, edges_of):
    """(final graph, steps as (kind, subject, edges added)): rescan every
    candidate of the current graph, pick the least, rebuild the graph."""
    cur, steps = g, []
    while options := candidates(cur):
        subject = options[0]
        cur, added = cur.add_edges(edges_of(cur, subject))
        steps.append((kind, subject, added))
    return cur, steps


def plain_o_closure(g: Graph):
    return plain_fixpoint(
        g, "o-pair", lambda cur: [(u, v) for u, v, _ in plain_heavy_pairs(cur, False)],
        lambda cur, pair: [pair],
    )


def plain_r_closure(g: Graph):
    return plain_fixpoint(
        g, "r-completion",
        lambda cur: [x for x in range(cur.n) if plain_r_eligible(cur, x)],
        plain_missing,
    )


def plain_c_closure(g: Graph):
    return plain_fixpoint(g, "c-completion", plain_c_eligible_vertices, plain_missing)


def _as_plain(closure):
    closed, trace = closure
    return closed, [(s.kind, s.subject, s.edges_added) for s in trace.steps]


def _labelled_graphs(max_n: int):
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def _inputs(name: str):
    if name == "corpus":
        return full_corpus(0)
    if name == "gnp":
        return _seeded_gnp(ps=(0.3, 0.5, 0.7, 0.8, 0.9), per_cell=8)
    return list(_labelled_graphs(int(name.removeprefix("labelled-order-"))))


# the seeded G(n, p) graphs, up to p = 0.9, hold many claws whose only
# o-heavy pair is one of the three leaf pairs
@pytest.mark.parametrize("inputs", ["labelled-order-6", "corpus", "gnp"])
def test_heavy_pair_questions_match_the_pairwise_oracle(inputs):
    for g in _inputs(inputs):
        label = emit_graph6(g)
        assert [(p.u, p.v, p.degree_sum) for p in o_heavy_pairs(g)] == \
            plain_heavy_pairs(g, False), label
        assert [(p.u, p.v, p.degree_sum) for p in a_heavy_pairs(g)] == \
            plain_heavy_pairs(g, True), label
        assert satisfies_ore(g) == plain_satisfies_ore(g), label
        claw_status, plain_status = _claw_status(g), plain_claw_status(g)
        assert claw_status == plain_status, label
        assert has_induced(g, PatternKind.CLAW) == (not plain_status[0]), label
        assert is_pattern_o_heavy(g, PatternKind.CLAW) == plain_status[1], label
        for x in range(g.n):
            assert bc_local(g, x) == plain_bc_local(g, x), (label, x)
        if claw_status[1]:
            assert list(_c_eligible_vertices(g)) == plain_c_eligible_vertices(g), label


def test_checked_c_eligibility_matches_the_pairwise_oracle(corpus):
    for g in corpus:
        if plain_claw_status(g)[1]:
            assert [x for x in range(g.n) if c_eligible(g, x)] == \
                plain_c_eligible_vertices(g), emit_graph6(g)


# Every labelled graph of order at most 6 (33,868 of them): about 7 s on a
# 2-vCPU guest.
@pytest.mark.parametrize("inputs", ["labelled-order-6", "corpus"])
def test_closures_match_the_rescanning_oracle(inputs):
    for g in _inputs(inputs):
        label = emit_graph6(g)
        assert _as_plain(o_closure(g)) == plain_o_closure(g), label
        claw_free, claw_o_heavy = plain_claw_status(g)
        if claw_free:
            assert _as_plain(r_closure(g)) == plain_r_closure(g), label
        if claw_o_heavy:
            assert _as_plain(c_closure(g)) == plain_c_closure(g), label


@pytest.mark.parametrize("kind", ["r", "c"])
def test_a_step_scans_up_to_its_pick(monkeypatch, kind):
    """Each step tests the vertices up to its pick, and the last scan
    tests them all."""
    name = "_r_eligible_inner" if kind == "r" else "_c_eligible_inner"
    inner, tested = getattr(closures, name), []

    def counting(cur, x, *rest):
        tested.append(x)
        return inner(cur, x, *rest)

    monkeypatch.setattr(closures, name, counting)
    closure = r_closure if kind == "r" else c_closure
    steps = 0
    for g in full_corpus(0):
        if not plain_claw_status(g)[kind == "c"]:
            continue
        tested.clear()
        picks = [step.subject for step in closure(g)[1].steps]
        assert tested == [x for pick in picks for x in range(pick + 1)] + list(range(g.n)), \
            emit_graph6(g)
        steps += len(picks)
    assert steps > 100
