import networkx as nx
import pytest

from hamclosure.closures import c_closure
from hamclosure.errors import InputError
from hamclosure.families import ComponentSpec, FamilyKind, FamilyParams, generate
from hamclosure.graphs import Graph, complete_graph, cycle_graph, emit_graph6
from hamclosure.heaviness import is_heavy, is_pattern_o_heavy, subgraph_is_o_heavy
from hamclosure.patterns import (
    REFERENCE,
    NetEmbedding,
    PatternKind,
    classify_net,
    find_induced,
    find_induced_naive,
    has_induced,
    is_free,
    net_profile,
)


class TestCatalog:
    def test_reference_shapes(self):
        sizes = {
            PatternKind.CLAW: (4, 3), PatternKind.P4: (4, 3), PatternKind.P5: (5, 4),
            PatternKind.P6: (6, 5), PatternKind.C3: (3, 3), PatternKind.Z1: (4, 4),
            PatternKind.Z2: (5, 5), PatternKind.BULL: (5, 5), PatternKind.NET: (6, 6),
            PatternKind.WOUNDED: (6, 6), PatternKind.DIAMOND: (4, 5),
        }
        for kind, (n, m) in sizes.items():
            assert (REFERENCE[kind].n, REFERENCE[kind].edge_count) == (n, m)

    def test_unknown_name(self):
        with pytest.raises(InputError):
            PatternKind.from_name("house")


class TestFindInduced:
    def test_k4_has_no_claw(self):
        assert find_induced(complete_graph(4), PatternKind.CLAW) == []

    def test_net_contains_itself_once(self, net):
        assert find_induced(net, PatternKind.NET) == [(0, 1, 2, 3, 4, 5)]
        assert find_induced_naive(net, PatternKind.NET) == [(0, 1, 2, 3, 4, 5)]

    def test_wounded_contains_itself_once(self):
        w = REFERENCE[PatternKind.WOUNDED]
        assert len(find_induced(w, PatternKind.WOUNDED)) == 1

    def test_each_pattern_finds_itself(self):
        for kind, ref in REFERENCE.items():
            embs = find_induced(ref, kind)
            assert len(embs) == 1 and set(embs[0]) == set(range(ref.n))

    def test_is_free_examples(self, curated):
        assert is_free(cycle_graph(5), (PatternKind.CLAW, PatternKind.DIAMOND))
        assert not is_free(REFERENCE[PatternKind.DIAMOND], (PatternKind.DIAMOND,))
        assert is_free(complete_graph(4), (PatternKind.CLAW, PatternKind.DIAMOND))

    def test_detectors_match_naive_enumeration(self, corpus):
        # the corpus up to order 9, every graph of order 1..7 up to
        # isomorphism, and those of order at most 6 once more under the
        # reversed labelling
        small = [g for g in corpus if g.n <= 9]
        assert len(small) > 300
        atlas = [Graph.from_edges(h.number_of_nodes(), h.edges())
                 for h in nx.graph_atlas_g() if h.number_of_nodes() >= 1]
        assert len(atlas) == 1252
        reversed_ = [Graph.from_edges(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])
                     for g in atlas if g.n <= 6]
        for g in small + atlas + reversed_:
            for kind in PatternKind:
                expected = find_induced_naive(g, kind)
                assert find_induced(g, kind) == expected, (kind, emit_graph6(g))
                assert has_induced(g, kind) == bool(expected), (kind, emit_graph6(g))
                assert is_pattern_o_heavy(g, kind) == all(
                    subgraph_is_o_heavy(g, emb) for emb in expected), (kind, emit_graph6(g))


class TestMonotonicity:
    # an induced subgraph relation between patterns transfers freeness and
    # o-heaviness upward
    PAIRS = [
        (PatternKind.C3, PatternKind.Z1),
        (PatternKind.Z1, PatternKind.Z2),
        (PatternKind.P4, PatternKind.P5),
        (PatternKind.P5, PatternKind.P6),
        (PatternKind.C3, PatternKind.BULL),
        (PatternKind.C3, PatternKind.NET),
    ]

    def test_freeness_transfers(self, corpus):
        for g in corpus[:150]:
            for small, big in self.PAIRS:
                if is_free(g, (small,)):
                    assert is_free(g, (big,))

    def test_o_heaviness_transfers(self, corpus):
        for g in corpus[:100]:
            for small, big in self.PAIRS:
                if is_pattern_o_heavy(g, small):
                    assert is_pattern_o_heavy(g, big)


class TestClassifyNet:
    def test_standalone_net(self, net):
        flags = classify_net(net, NetEmbedding(0, 1, 2, 3, 4, 5))
        # corners have degree 3 on 6 vertices, so triangle edges reach the
        # degree-sum bound and the net is p-heavy; nothing is o- or q-heavy
        assert not flags.o_heavy
        assert flags.p_heavy
        assert not flags.q_heavy

    def test_g8_net(self, g8):
        (emb,) = find_induced(g8, PatternKind.NET)
        flags = classify_net(g8, NetEmbedding.from_tuple(emb))
        assert (flags.o_heavy, flags.p_heavy, flags.q_heavy) == (False, True, False)

    def test_invalid_embedding_rejected(self, g8):
        with pytest.raises(InputError):
            classify_net(g8, NetEmbedding(0, 1, 2, 3, 4, 5))

    def test_all_light_net_has_no_flags(self, net):
        # net plus a far-away clique: every net vertex degree < n/2, sums < n
        padded, _ = Graph.from_edges(12, net.edges()).add_edges(
            [(u, v) for u in range(6, 12) for v in range(u + 1, 12)]
        )
        (emb,) = find_induced(padded, PatternKind.NET)
        flags = classify_net(padded, NetEmbedding.from_tuple(emb))
        assert not (flags.o_heavy or flags.p_heavy or flags.q_heavy)

    def test_q_heavy_member(self):
        params = FamilyParams(
            FamilyKind.C1NPQ, (8,), (),
            (ComponentSpec("c3nq"), ComponentSpec("c1n", (2,), (2,))),
        )
        g = generate(params, seed=0)
        q_nets = []
        for emb in find_induced(g, PatternKind.NET):
            flags = classify_net(g, NetEmbedding.from_tuple(emb))
            assert flags.p_heavy or flags.q_heavy
            if flags.q_heavy and not flags.p_heavy:
                q_nets.append((emb, flags))
        assert q_nets, "expected at least one net that is q-heavy but not p-heavy"
        emb, flags = q_nets[0]
        assert flags.q_index in (1, 2, 3)
        assert flags.c_neighbors is not None
        for c in flags.c_neighbors:
            assert is_heavy(g, c)

    def test_q_heavy_vertices_adjacent_in_closure(self):
        params = FamilyParams(
            FamilyKind.C1NPQ, (8,), (),
            (ComponentSpec("c3nq"), ComponentSpec("c1n", (2,), (2,))),
        )
        g = generate(params, seed=0)
        closed, _ = c_closure(g)
        for emb in find_induced(g, PatternKind.NET):
            net_emb = NetEmbedding.from_tuple(emb)
            flags = classify_net(g, net_emb)
            if not flags.q_heavy:
                continue
            i = flags.q_index - 1
            named = [net_emb.corners()[i], net_emb.pendants()[i], *flags.c_neighbors]
            for a in named:
                for b in named:
                    if a != b:
                        assert closed.has_edge(a, b)


class TestNetProfile:
    def test_c5_vacuous(self):
        profile = net_profile(cycle_graph(5))
        assert profile.net_free
        assert profile.n_o_heavy and profile.n_p_heavy and profile.n_pq_heavy

    def test_standalone_net(self, net):
        profile = net_profile(net)
        assert not profile.net_free
        assert not profile.n_o_heavy
        assert profile.n_p_heavy and profile.n_pq_heavy

    def test_g8(self, g8):
        profile = net_profile(g8)
        assert profile.net_count == 1
        assert profile.n_p_heavy and profile.n_pq_heavy and not profile.n_o_heavy

    def test_p_heavy_restates_triangle_pair(self, corpus):
        for g in corpus[:80]:
            for emb in find_induced(g, PatternKind.NET):
                flags = classify_net(g, NetEmbedding.from_tuple(emb))
                corners = emb[:3]
                has_pair = any(
                    g.has_edge(corners[i], corners[j])
                    and g.degree(corners[i]) + g.degree(corners[j]) >= g.n
                    for i in range(3) for j in range(i + 1, 3)
                )
                assert flags.p_heavy == has_pair
