from itertools import combinations

import networkx as nx
import pytest

from hamclosure.closures import c_closure
from hamclosure.errors import InputError
from hamclosure.families import ComponentSpec, FamilyKind, FamilyParams, generate
from hamclosure.graphs import (
    Graph, complete_graph, cycle_graph, emit_graph6, parse_graph6, sample_graphs,
)
from hamclosure.heaviness import is_heavy, is_pattern_o_heavy, subgraph_is_o_heavy
import hamclosure.patterns as patterns_module
from hamclosure.patterns import (
    REFERENCE,
    NetProfile,
    PatternKind,
    canonical_embedding,
    classify_net,
    embeddings,
    find_induced,
    find_induced_naive,
    has_induced,
    is_free,
    net_profile,
)
from hamclosure.verify import acceptance_grids, full_corpus
from test_families import _single_edge_edits


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

    @pytest.mark.parametrize("call", [
        lambda g: list(embeddings(g, "claw")),
        lambda g: has_induced(g, "claw"),
        lambda g: find_induced(g, "claw"),
        lambda g: is_free(g, ["claw"]),
        lambda g: is_free(g, [PatternKind.NET, None]),
        lambda g: find_induced_naive(g, "claw"),
    ], ids=["embeddings", "has_induced", "find_induced", "is_free", "is_free-none", "naive"])
    def test_a_pattern_must_be_a_pattern_kind(self, call):
        with pytest.raises(InputError, match="is not a PatternKind"):
            call(cycle_graph(5))


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
                # canonical by construction: the matcher and the hand loops
                # emit the least tuple of each orbit, so sorting them is enough
                found = list(embeddings(g, kind))
                assert all(emb == canonical_embedding(kind, emb) for emb in found), kind
                assert find_induced(g, kind) == sorted(found), (kind, emit_graph6(g))
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
        flags = classify_net(net, (0, 1, 2, 3, 4, 5))
        # corners have degree 3 on 6 vertices, so triangle edges reach the
        # degree-sum bound and the net is p-heavy; nothing is o- or q-heavy
        assert not flags.o_heavy
        assert flags.p_heavy
        assert not flags.q_heavy

    def test_g8_net(self, g8):
        (emb,) = find_induced(g8, PatternKind.NET)
        flags = classify_net(g8, emb)
        assert (flags.o_heavy, flags.p_heavy, flags.q_heavy) == (False, True, False)

    def test_invalid_embedding_rejected(self, g8, net):
        with pytest.raises(InputError):
            classify_net(g8, (0, 1, 2, 3, 4, 5))
        # a repeated vertex, or one that is not a vertex of the net
        for b3 in (4, 5.0, "x", [5], None):
            with pytest.raises(InputError):
                classify_net(net, (0, 1, 2, 3, 4, b3))
        # six roles exactly: a seventh entry, even a repeat, is refused
        for emb in ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5, 5)):
            with pytest.raises(InputError):
                classify_net(net, emb)

    def test_all_light_net_has_no_flags(self, net):
        # net plus a far-away clique: every net vertex degree < n/2, sums < n
        padded, _ = Graph.from_edges(12, net.edges()).add_edges(
            [(u, v) for u in range(6, 12) for v in range(u + 1, 12)]
        )
        (emb,) = find_induced(padded, PatternKind.NET)
        flags = classify_net(padded, emb)
        assert not (flags.o_heavy or flags.p_heavy or flags.q_heavy)

    def test_q_heavy_member(self):
        params = FamilyParams(
            FamilyKind.C1NPQ, (8,), (),
            (ComponentSpec("c3nq"), ComponentSpec("c1n", (2,), (2,))),
        )
        g = generate(params, seed=0)
        q_nets = []
        for emb in find_induced(g, PatternKind.NET):
            flags = classify_net(g, emb)
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
            flags = classify_net(g, emb)
            if not flags.q_heavy:
                continue
            i = flags.q_index - 1
            named = [emb[i], emb[3 + i], *flags.c_neighbors]
            for a in named:
                for b in named:
                    if a != b:
                        assert closed.has_edge(a, b)


def plain_net_flags(g: Graph, emb):
    """(o-heavy, p-heavy, q-heavy, q_index, c_neighbors) of the induced net
    ``emb`` (a1, a2, a3, b1, b2, b3), by degree arithmetic on each pair."""
    n, deg = g.n, g.degree
    o_heavy = any(not g.has_edge(u, v) and deg(u) + deg(v) >= n
                  for u, v in combinations(emb, 2))
    corners, pendants = emb[:3], emb[3:]
    p_heavy = any(g.has_edge(u, v) and deg(u) + deg(v) >= n
                  for u, v in combinations(corners, 2))
    for i in range(3):
        if 2 * deg(corners[i]) < n or 2 * deg(pendants[i]) < n:
            continue
        cs = []
        for j in range(3):
            if j == i:
                continue
            aj, bj = corners[j], pendants[j]
            if deg(aj) != 3 or deg(bj) != 2:
                break
            cj = next(v for v in g.neighbors(bj) if v != aj)
            if 2 * deg(cj) < n:
                break
            cs.append(cj)
        else:
            return o_heavy, p_heavy, True, i + 1, tuple(cs)
    return o_heavy, p_heavy, False, None, None


def plain_net_profile(flags) -> NetProfile:
    """The profile as aggregates over every net's ``plain_net_flags``."""
    o, p, q = ([f[k] for f in flags] for k in range(3))
    return NetProfile(len(flags), not flags, all(o), all(p),
                      all(x or y for x, y in zip(o, p)), all(x or y for x, y in zip(p, q)))


def test_net_flags_match_the_plain_oracle():
    # every graph of order 6 and 7 up to isomorphism, the seed-0 corpus, the
    # acceptance-grid members of order at most 13, and a q-heavy net whose
    # a1 = 0, b1 = 3, c2 = 6 and c3 = 7 have degree exactly ceil(11/2) = 6,
    # with every graph one edge edit away from it: a light a1, b1 or c_j,
    # an a_j or b_j of the wrong degree
    graphs = [Graph.from_edges(h.number_of_nodes(), h.edges())
              for h in nx.graph_atlas_g() if 6 <= h.number_of_nodes() <= 7]
    graphs += full_corpus(0)
    graphs += [g for grid in acceptance_grids().values()
               for g in (generate(params, seed) for params, seed in grid) if g.n <= 13]
    q_net = Graph.from_edges(11, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5), (3, 6), (3, 7),
                                  (4, 6), (5, 7), (6, 7)] +
                             [(u, x) for u in (0, 3, 6, 7) for x in (8, 9, 10)])
    graphs += [q_net, *_single_edge_edits(q_net)]
    nets = q_heavy = 0
    for g in graphs:
        flags = []
        for emb in find_induced_naive(g, PatternKind.NET):
            found = classify_net(g, emb)
            flags.append(plain_net_flags(g, emb))
            assert (found.o_heavy, found.p_heavy, found.q_heavy, found.q_index,
                    found.c_neighbors) == flags[-1], (emb, emit_graph6(g))
        assert net_profile(g) == plain_net_profile(flags), emit_graph6(g)
        nets += len(flags)
        q_heavy += sum(f[2] for f in flags)
    assert nets > 300 and q_heavy > 100


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
                flags = classify_net(g, emb)
                corners = emb[:3]
                has_pair = any(
                    g.has_edge(corners[i], corners[j])
                    and g.degree(corners[i]) + g.degree(corners[j]) >= g.n
                    for i in range(3) for j in range(i + 1, 3)
                )
                assert flags.p_heavy == has_pair


def _first_false(flags) -> tuple:
    """Per answer (o, p, op, pq): the index of the net that makes it false, or None."""
    tests = (lambda f: f[0], lambda f: f[1], lambda f: f[0] or f[1], lambda f: f[1] or f[2])
    return tuple(next((i for i, f in enumerate(flags) if not t(f)), None) for t in tests)


def test_net_profile_matches_the_plain_aggregates_on_pool_and_dense_graphs():
    # the benchmark's classify pool (G(n, p), n 8..16, p 0.3/0.5/0.7, 5 a cell,
    # plus its pinned slow graph) and dense samples, n 12..16 and p 0.5..0.8,
    # where the four answers fall at different nets of one graph
    graphs = [g for n in range(8, 17) for j, p in enumerate((0.3, 0.5, 0.7))
              for g in sample_graphs(n, p, seed=2409 * 100 + n * 10 + j, limit=5)]
    graphs.append(parse_graph6("MOAEA?IYAoXCHAoE?"))
    graphs += [g for n in range(12, 17) for j, p in enumerate((0.5, 0.6, 0.7, 0.8))
               for g in sample_graphs(n, p, seed=n * 10 + j, limit=6)]
    staggered = 0
    for g in graphs:
        flags = [plain_net_flags(g, emb) for emb in find_induced(g, PatternKind.NET)]
        assert net_profile(g) == plain_net_profile(flags), emit_graph6(g)
        staggered += len({i for i in _first_false(flags) if i is not None}) > 1
    assert staggered > 10


def _count_reads(monkeypatch) -> dict:
    reads = {"o": 0, "p": 0, "q": 0}
    for key, name in (("o", "subgraph_is_o_heavy"), ("p", "_net_p_heavy"), ("q", "_net_q_heavy")):
        def counted(*args, _key=key, _read=getattr(patterns_module, name)):
            reads[_key] += 1
            return _read(*args)
        monkeypatch.setattr(patterns_module, name, counted)
    return reads


def test_net_profile_reads_no_flag_once_every_answer_is_false(monkeypatch):
    # three disjoint nets on 18 vertices: every pair is light, so the first
    # net closes all four answers and the other two are only counted, with
    # not even their p-flag read
    g = Graph.from_edges(18, [(6 * k + u, 6 * k + v) for k in range(3)
                              for u, v in REFERENCE[PatternKind.NET].edges()])
    reads = _count_reads(monkeypatch)
    assert net_profile(g) == NetProfile(3, False, False, False, False, False)
    assert reads == {"o": 1, "p": 1, "q": 1}


def test_net_profile_reads_o_only_while_an_answer_needs_it(monkeypatch):
    # three nets, each p-heavy and none o-heavy: the first net's o-flag closes
    # N-o-heavy, and p-heaviness alone keeps N-op- and N-pq-heavy open
    g = parse_graph6("GJWNP?")
    flags = [plain_net_flags(g, emb) for emb in find_induced(g, PatternKind.NET)]
    assert len(flags) == 3 and all(f[1] and not f[0] for f in flags)
    reads = _count_reads(monkeypatch)
    assert net_profile(g) == NetProfile(3, False, False, True, True, True)
    assert reads == {"o": 1, "p": 3, "q": 0}
