import random

import pytest

from hamclosure.errors import InputError, PreconditionError
from hamclosure.graphs import (
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
    sample_graphs,
)
from hamclosure.heaviness import is_pattern_o_heavy
from hamclosure.patterns import REFERENCE, PatternKind
from hamclosure.regions import (
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
            assert region_law_violations(decompose(g), path_search_limit=10) == []
            checked += 1
        assert checked > 20


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
        disconnected = path_graph(3).add_edges([])[0]
        from hamclosure.graphs import Graph

        g = Graph.from_edges(4, [(0, 1)])
        with pytest.raises(InputError):
            generalized_claw_or_net(g, 0, 1, 2)

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
