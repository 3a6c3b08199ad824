import random

import pytest

from hamclosure.errors import InputError, PreconditionError
from hamclosure.graphs import (
    Graph,
    _bits,
    complete_graph,
    cycle_graph,
    flood,
    is_connected,
    is_nonseparable,
    path_graph,
    sample_graphs,
)
from hamclosure.heaviness import is_pattern_o_heavy
from hamclosure.patterns import REFERENCE, PatternKind
from hamclosure.regions import (
    GeneralizedClawNet,
    RegionDecomposition,
    _lex_shortest_path,
    decompose,
    generalized_claw_or_net,
    region_law_violations,
    validate_generalized,
)


class TestDecompose:
    def test_net(self, net):
        d = decompose(net)
        assert [sorted(r) for r in d.regions] == [[0, 1, 2], [0, 3], [1, 4], [2, 5]]
        assert all(d.is_interior(v) for v in (3, 4, 5))
        assert all(d.is_frontier(v) for v in (0, 1, 2))

    def test_c5_all_frontier(self):
        d = decompose(cycle_graph(5))
        assert len(d.regions) == 5
        assert all(d.is_frontier(v) for v in range(5))

    def test_k4_all_interior(self):
        d = decompose(complete_graph(4))
        assert len(d.regions) == 1
        assert all(d.is_interior(v) for v in range(4))

    def test_associated(self, net):
        d = decompose(net)
        assert d.associated(0, 3)
        assert d.associated(0, 1)
        assert not d.associated(3, 4)
        with pytest.raises(InputError):
            d.associated(2, 2)

    def test_association_matches_closure_adjacency(self, corpus):
        for g in corpus[:60]:
            if not is_pattern_o_heavy(g, PatternKind.CLAW):
                continue
            d = decompose(g)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert d.associated(u, v) == d.closure.has_edge(u, v)

    def test_precomputed_closure_accepted(self, g8):
        from hamclosure.closures import c_closure

        closed, _ = c_closure(g8)
        assert decompose(g8, closure=closed).regions == decompose(g8).regions

    def test_three_region_vertex_fails_loudly(self, net):
        star = REFERENCE[PatternKind.CLAW].add_edges([])[0]
        host = complete_graph(4)
        with pytest.raises(PreconditionError, match="regions"):
            decompose(host, closure=star)

    def test_region_laws_on_corpus(self, corpus):
        checked = 0
        for g in corpus:
            if g.n > 12 or not is_pattern_o_heavy(g, PatternKind.CLAW):
                continue
            assert region_law_violations(decompose(g)) == []
            checked += 1
        assert checked > 20


def _hand_decomposition(n, edges, regions):
    g = Graph.from_edges(n, edges)
    membership = tuple(
        tuple(i for i, region in enumerate(regions) if v in region) for v in range(n)
    )
    return RegionDecomposition(g, g, tuple(frozenset(r) for r in regions), membership)


def _cliques(*groups):
    return [(u, v) for group in groups for u in group for v in group if u < v]


class TestInteriorPathLaw:
    def test_pair_joined_only_through_frontier_is_reported_at_n12(self):
        # region 0 is the 4-cycle 0-2-1-3 with frontier 2 and 3: 0 and 1 meet
        # only through a frontier vertex
        d = _hand_decomposition(
            12,
            [(0, 2), (2, 1), (1, 3), (3, 0)] + _cliques((2, 4, 5, 6, 7), (3, 8, 9, 10, 11)),
            [(0, 1, 2, 3), (2, 4, 5, 6, 7), (3, 8, 9, 10, 11)],
        )
        assert region_law_violations(d) == [
            "region 0: no induced path 0..1 through interior vertices"
        ]

    def test_two_inner_interior_vertices_suffice(self):
        # 0..1 runs 0-2-3-1 through interior 2 and 3, or 0-4-1 through frontier 4
        d = _hand_decomposition(
            12,
            [(0, 2), (2, 3), (3, 1), (0, 4), (4, 1), (4, 2)]
            + _cliques((0, 5, 6), (1, 7, 8), (4, 9, 10, 11)),
            [(0, 1, 2, 3, 4), (0, 5, 6), (1, 7, 8), (4, 9, 10, 11)],
        )
        assert d.interior_vertices(0) == {2, 3}
        assert region_law_violations(d) == []


class TestGeneralizedClawNet:
    def test_claw_from_star(self):
        claw = REFERENCE[PatternKind.CLAW]
        out = generalized_claw_or_net(claw, 1, 2, 3)
        assert out.shape == "claw" and out.core == 0
        assert not out.degenerate
        assert validate_generalized(claw, out) == []

    def test_net_from_net(self, net):
        out = generalized_claw_or_net(net, 3, 4, 5)
        assert out.shape == "net"
        assert sorted(out.core) == [0, 1, 2]
        assert not out.degenerate
        assert validate_generalized(net, out) == []

    def test_degenerate_on_path(self):
        p5 = path_graph(5)
        out = generalized_claw_or_net(p5, 0, 2, 4)
        assert out.shape == "claw" and out.core == 2
        assert out.degenerate
        assert validate_generalized(p5, out) == []

    def test_input_errors(self, net):
        with pytest.raises(InputError):
            generalized_claw_or_net(net, 1, 1, 2)
        g = Graph.from_edges(4, [(0, 1)])
        with pytest.raises(InputError):
            generalized_claw_or_net(g, 0, 1, 2)

    @pytest.mark.parametrize("gcn, problems", [
        (GeneralizedClawNet("net", (0, 1), ((0,), (1,), (2,))),
         ["net core (0, 1) is not a vertex triple"]),
        (GeneralizedClawNet("claw", 0, ((0, 9), (0,), (0,))), ["vertex 9 out of range"]),
        (GeneralizedClawNet("claw", 7, ((7,), (7,), (7,))), ["vertex 7 out of range"]),
        (GeneralizedClawNet("claw", 0, ((0, 1), (0,))),
         ["paths are not three nonempty vertex sequences"]),
    ], ids=["net-core-pair", "path-vertex-9", "claw-core-7", "two-paths"])
    def test_malformed_witness_is_reported(self, gcn, problems):
        # reported as problems on C5, not raised and not read as missing edges
        assert validate_generalized(cycle_graph(5), gcn) == problems

    def test_random_draws_validate(self):
        rng = random.Random(99)
        done = 0
        attempt = 0
        while done < 250:
            attempt += 1
            n = rng.randrange(4, 11)
            g = next(iter(sample_graphs(n, rng.choice((0.3, 0.5, 0.7)), seed=attempt, limit=1)))
            if not is_connected(g):
                continue
            zs = rng.sample(range(n), 3)
            out = generalized_claw_or_net(g, *zs)
            assert validate_generalized(g, out) == []
            assert set(out.termini()) == set(zs)
            done += 1

    def test_deterministic_witness(self, net):
        a = generalized_claw_or_net(net, 3, 4, 5)
        b = generalized_claw_or_net(net, 3, 4, 5)
        assert a == b

    def test_non_degenerate_contains_its_namesake(self):
        # a non-degenerate generalized claw holds an induced claw (the core
        # plus the first step of each path), a non-degenerate net holds a net
        from hamclosure.patterns import has_induced

        net_graph = REFERENCE[PatternKind.NET]
        out = generalized_claw_or_net(net_graph, 3, 4, 5)
        assert out.shape == "net" and not out.degenerate
        assert has_induced(net_graph.induced(sorted(out.vertices())), PatternKind.NET)

        rng = random.Random(5)
        seen = {"claw": 0, "net": 0}
        for attempt in range(3000):
            n = rng.randrange(5, 11)
            g = next(iter(sample_graphs(n, rng.choice((0.3, 0.45)), seed=attempt + 5000, limit=1)))
            if not is_connected(g):
                continue
            zs = rng.sample(range(n), 3)
            out = generalized_claw_or_net(g, *zs)
            if out.degenerate:
                continue
            sub = g.induced(sorted(out.vertices()))
            kind = PatternKind.CLAW if out.shape == "claw" else PatternKind.NET
            assert has_induced(sub, kind)
            seen[out.shape] += 1
        assert seen["claw"] >= 20 and seen["net"] >= 1


# -- set-based oracle ----------------------------------------------------------
#
# The region laws and the finder's shortest path as they were written on
# Python sets and a distance list, before the masks; the mask versions must
# agree with them on every input below.


def set_region_law_violations(decomp):
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
            reach = flood(g.rows, 1 << a, interior_mask)
            for b in ordered[k + 1:]:
                if not g.row(b) & reach:
                    problems.append(
                        f"region {i}: no induced path {a}..{b} through interior vertices"
                    )
    return problems


def set_lex_shortest_path(g, src, targets):
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


LAW_WORDS = {1: "separable", 2: "lacks an interior", 3: "associated", 4: "no induced path"}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return str(exc)


class TestSetOracle:
    def test_laws_agree_on_the_corpus(self, corpus):
        # under the closure reading and the self reading, where the graph
        # is its own closure and its regions are its own maximal cliques
        compared = reported = 0
        for g in corpus:
            if not is_pattern_o_heavy(g, PatternKind.CLAW):
                continue
            for closure in (None, g):
                try:
                    d = decompose(g, closure=closure)
                except PreconditionError:
                    continue
                expected = set_region_law_violations(d)
                assert region_law_violations(d) == expected
                compared += 1
                reported += bool(expected)
        assert compared > 350 and reported > 20

    def test_laws_agree_on_hand_decompositions(self):
        # random vertex subsets as regions, not cliques: law 3 must read
        # membership, not closure adjacency
        rng = random.Random(20)
        seen = set()
        for attempt in range(600):
            n = rng.randrange(2, 11)
            g = next(iter(sample_graphs(n, rng.choice((0.3, 0.5, 0.7)), seed=attempt, limit=1)))
            k = rng.randrange(1, 5)
            regions = [set() for _ in range(k)]
            for v in range(n):
                for i in rng.sample(range(k), min(k, rng.choice((0, 1, 1, 2, 2)))):
                    regions[i].add(v)
            regions = [r for r in regions if r]
            d = _hand_decomposition(n, g.edges(), regions)
            expected = set_region_law_violations(d)
            assert region_law_violations(d) == expected
            seen.update(law for law, word in LAW_WORDS.items() if any(word in m for m in expected))
        # every law is broken somewhere, so each is compared on a failure
        assert seen == set(LAW_WORDS)

    def test_shortest_paths_agree_on_finder_draws(self):
        # the two paths the finder asks for, and a random target set
        rng = random.Random(21)
        asked = 0
        for attempt in range(2000):
            n = rng.randrange(3, 13)
            g = next(iter(sample_graphs(n, rng.choice((0.15, 0.3, 0.5)), seed=attempt, limit=1)))
            z1, z2, z3 = rng.sample(range(n), 3)
            p = _outcome(set_lex_shortest_path, g, z1, {z2})
            assert _outcome(_lex_shortest_path, g, z1, 1 << z2) == p
            if isinstance(p, list) and z3 not in p:
                assert _outcome(_lex_shortest_path, g, z3, sum(1 << v for v in p)) == \
                    _outcome(set_lex_shortest_path, g, z3, set(p))
                asked += 1
            targets = set(rng.sample(range(n), rng.randrange(1, n)))
            assert _outcome(_lex_shortest_path, g, z3, sum(1 << v for v in targets)) == \
                _outcome(set_lex_shortest_path, g, z3, targets)
        assert asked > 500
