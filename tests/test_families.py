import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from hamclosure import families
from hamclosure.closures import c_closure, is_c_closed
from hamclosure.errors import InputError, ParameterError
from hamclosure.families import (
    FAMILY_SPECS,
    C3NQCert,
    ChainCert,
    ComponentSpec,
    CycleCert,
    FamilyKind,
    FamilyParams,
    TheoremVerdict,
    VerdictStatus,
    check_c3nq_cert,
    check_chain_cert,
    check_composed_cert,
    check_cycle_cert,
    classify_theorem,
    generate,
    generate_with_certificate,
    is_c1n,
    is_c2n,
    is_c3nq,
    parse_params,
    recognize,
    replay_certificate,
)
from hamclosure.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_graph6,
    is_2_connected,
    is_connected,
    maximal_cliques,
    parse_graph6,
)
from hamclosure.hamiltonicity import is_hamiltonian
from hamclosure.patterns import PatternKind, is_free, net_profile
from hamclosure.verify import acceptance_grids, full_corpus


def isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    for perm in itertools.permutations(range(a.n)):
        if all(b.has_edge(perm[u], perm[v]) for u, v in a.edges()):
            return True
    return False


def replayed(cert, *extra_edges):
    """The graph a certificate names, plus any extra edges, and the certificate."""
    return replay_certificate(cert).add_edges(extra_edges)[0], cert


def skeleton(cert):
    """K, K', u0 and the (vertex set, glue tag) of every component."""
    comps = sorted((tuple(sorted(c.vertices)), c.glue) for c in cert.components)
    return cert.k_clique, cert.k_prime, cert.u0, comps


class TestGenerate:
    def test_c2n_collapses_to_c5(self):
        params = FamilyParams(FamilyKind.C2N, (2,) * 5, (1,) * 5)
        assert isomorphic(generate(params, seed=9), cycle_graph(5))

    def test_c3nq_minimal_is_g8(self, g8):
        params = FamilyParams(FamilyKind.C3NQ, (4,), ())
        assert isomorphic(generate(params, seed=0), g8)

    def test_c1n_two_triangles(self):
        params = FamilyParams(FamilyKind.C1N, (3, 3), (2,))
        g = generate(params, seed=1)
        assert g.n == 6 and g.edge_count == 8
        assert is_free(g, (PatternKind.CLAW,)) and is_2_connected(g)

    def test_c1n_single_clique_degenerates_to_complete(self):
        params = FamilyParams(FamilyKind.C1N, (7,), ())
        assert generate(params, seed=0) == complete_graph(7)

    def test_deterministic_for_fixed_seed(self):
        params = FamilyParams(
            FamilyKind.C1NP, (9,), (),
            (ComponentSpec("c1n", (2,), (2,)), ComponentSpec("c2n", (3, 3), (2, 1, 2))),
        )
        assert generate(params, seed=5) == generate(params, seed=5)

    @pytest.mark.parametrize(
        "params,needle",
        [
            (FamilyParams(FamilyKind.C2N, (2, 2), (1, 1)), "t >= 3"),
            (FamilyParams(FamilyKind.C1N, (3, 3, 3), (2, 2)), "interior clique"),
            (FamilyParams(FamilyKind.C2N, (2, 2, 2), (1, 1, 1)), "size >= 2"),
            (FamilyParams(FamilyKind.C1N, (2, 4), (3,)), "host disjoint junction sets"),
            (FamilyParams(FamilyKind.C1NP, (8,), (), (ComponentSpec("c1n", (2,), (2,)),)),
             "at least two components"),
            (FamilyParams(FamilyKind.C1NP, (8,), (),
                          (ComponentSpec("c1n", (2,), (2,)), ComponentSpec("c1n", (2,), (2,)))),
             "one must be a cycle"),
            (FamilyParams(FamilyKind.C2NPQ, (6, 2), (),
                          (ComponentSpec("c3nq"),
                           ComponentSpec("c2n_bridge", (3,), (1, 2)),
                           ComponentSpec("c2n_bridge", (3,), (1, 2)))),
             "at least half"),
        ],
    )
    def test_parameter_errors_name_the_clause(self, params, needle):
        with pytest.raises(ParameterError, match=needle):
            generate(params, seed=0)


class TestBaseRecognizers:
    def test_c5_is_a_clique_cycle(self):
        cert = is_c2n(cycle_graph(5))
        assert cert is not None
        assert len(cert.cells) == 5
        assert replay_certificate(cert) == cycle_graph(5)

    def test_complete_graph_is_a_chain(self):
        cert = is_c1n(complete_graph(6))
        assert cert is not None and len(cert.cells) == 1

    def test_c4_is_both_chain_and_cycle(self):
        assert is_c1n(cycle_graph(4)) is not None
        assert is_c2n(cycle_graph(4)) is not None

    def test_g8_path_attachment(self, g8):
        cert = is_c3nq(g8)
        assert cert is not None
        assert replay_certificate(cert) == g8
        assert len(cert.clique) == 4

    def test_k23_matches_nothing(self):
        g = complete_bipartite(2, 3)
        assert is_c1n(g) is None and is_c2n(g) is None and is_c3nq(g) is None

    @pytest.mark.parametrize(
        "g,cert",
        [
            pytest.param(cycle_graph(4), ChainCert(4, ((0, 1, 2, 3),), ()),
                         id="cell-not-a-clique"),
            pytest.param(*replayed(ChainCert(7, ((0, 1), (2, 3, 4), (5, 6)),
                                             (((0, 2), (1, 3)), ((3, 5), (4, 6))))),
                         id="interior-clique-of-3"),
            pytest.param(*replayed(ChainCert(8, ((0, 1, 6), (2, 3, 4, 5), (6, 7)),
                                             (((0, 2), (1, 3)), ((4, 7), (5, 6))))),
                         id="non-consecutive-cells-share"),
            pytest.param(*replayed(ChainCert(4, ((0, 1), (2, 3)), (((0, 2),),))),
                         id="one-edge-matching"),
            pytest.param(*replayed(CycleCert(3, ((0, 1), (1, 2), (0, 2)),
                                             (("identify", 1), ("identify", 2), ("identify", 0)))),
                         id="3-cycle-all-identify"),
            pytest.param(*replayed(CycleCert(5, ((0, 1), (1, 2), (2, 3), (3, 4)),
                                             (("identify", 1), ("identify", 2), ("identify", 3),
                                              ("matching", ())))),
                         id="cycle-cell-without-outgoing-junction"),
            pytest.param(*replayed(ChainCert(4, ((0, 1), (2, 3)), (((0, 2), (1, 3)),)), (0, 3)),
                         id="unnamed-edge"),
            pytest.param(complete_graph(10), ChainCert(10, ((0, *range(10)),), ()),
                         id="cell-repeats-a-vertex"),
            pytest.param(complete_graph(10), ChainCert(10, (tuple(range(10)), (10, 11)),
                                                      (((0, 10), (1, 11)),)),
                         id="cell-vertex-outside-the-graph"),
            pytest.param(cycle_graph(4), CycleCert(4, ((0, 1), (1, 2), (2, 3), (3, -1)),
                                                   (("identify", 1), ("identify", 2),
                                                    ("identify", 3), ("identify", -1))),
                         id="negative-vertex-in-a-cycle"),
            pytest.param(cycle_graph(6), CycleCert(6, ((0, 1), (2, 3), (4, 5)),
                                                   (("matching", ((1, 2, 3),)),
                                                    ("identify", 3), ("identify", 5))),
                         id="cycle-junction-edge-of-three-vertices"),
            pytest.param(cycle_graph(6), ChainCert(6, ((0, 1), (2, 3), (4, 5)),
                                                   (((1, 2),), ((3,),))),
                         id="chain-matching-edge-of-one-vertex"),
            pytest.param(cycle_graph(6), CycleCert(6, ((0, 1), (2, 3), (4, 5)),
                                                   (("matching", 3), (), ("identify", 5))),
                         id="cycle-junctions-of-the-wrong-shape"),
        ],
    )
    def test_sequence_checkers_reject_each_broken_clause(self, g, cert):
        check = check_chain_cert if isinstance(cert, ChainCert) else check_cycle_cert
        assert check(g, cert)

    @pytest.mark.parametrize(
        "clique", [(0, 1, 2, 3, 3), (0, 1, 2, 3, 8)], ids=["repeat", "stranger"]
    )
    def test_c3nq_checker_reports_a_malformed_clique(self, g8, clique):
        problems = check_c3nq_cert(g8, replace(is_c3nq(g8), clique=clique))
        assert problems and all(p.startswith("core clique") for p in problems)

    @pytest.fixture
    def c1npq_member(self):
        params, seed = acceptance_grids()[FamilyKind.C1NPQ][0]
        g, cert = generate_with_certificate(params, seed)
        assert check_composed_cert(g, FamilyKind.C1NPQ, cert) == []
        return g, cert

    def test_composed_checker_reports_a_sub_certificate_vertex_outside_its_component(
        self, c1npq_member
    ):
        g, cert = c1npq_member
        first = cert.components[0]
        dropped = first.vertices[-1]
        cert = replace(cert, components=(
            replace(first, vertices=first.vertices[:-1]), *cert.components[1:]
        ))
        problems = check_composed_cert(g, FamilyKind.C1NPQ, cert)
        assert f"component certificate names vertex {dropped} " \
            "outside its component and host cliques" in problems

    def test_composed_checker_reports_a_clique_vertex_outside_the_graph(self, c1npq_member):
        g, cert = c1npq_member
        cert = replace(cert, k_clique=cert.k_clique + (g.n,))
        assert check_composed_cert(g, FamilyKind.C1NPQ, cert) == [
            "K names a vertex outside the graph"
        ]

    @pytest.mark.parametrize("part", ["u0", "component"])
    def test_composed_checker_reports_an_anchor_or_component_vertex_outside_the_graph(
        self, part
    ):
        params, seed = acceptance_grids()[FamilyKind.C2NP][0]
        g, cert = generate_with_certificate(params, seed)
        if part == "u0":
            cert, expected = replace(cert, u0=g.n), "shared vertex outside the graph"
        else:
            first = cert.components[0]
            cert = replace(cert, components=(
                replace(first, vertices=first.vertices + (g.n,)), *cert.components[1:]
            ))
            expected = "component 0 names a vertex outside the graph"
        assert check_composed_cert(g, FamilyKind.C2NP, cert) == [expected]

    def test_generated_chain_and_cycle_certificates_check_clean(self):
        g, cert = generate_with_certificate(FamilyParams(FamilyKind.C1N, (3, 6, 3), (2, 2)), 3)
        assert check_chain_cert(g, cert) == []
        g, cert = generate_with_certificate(FamilyParams(FamilyKind.C2N, (4, 3, 4), (2, 1, 2)), 3)
        assert check_cycle_cert(g, cert) == []

    def test_composed_checker_rejects_a_base_family(self, g8):
        with pytest.raises(InputError, match="not a composed family"):
            check_composed_cert(g8, FamilyKind.C1N, recognize(g8).certificate(FamilyKind.C1NPQ))

    def test_component_gate_reads_the_counting_clauses(self):
        gates = {kind: spec.min_components for kind, spec in FAMILY_SPECS.items()}
        assert gates == {
            FamilyKind.C1NP: 2, FamilyKind.C2NP: 2, FamilyKind.C1NPQ: 1, FamilyKind.C2NPQ: 2,
        }


class TestRecognize:
    def test_c5(self):
        witness = recognize(cycle_graph(5))
        assert FamilyKind.C2N in witness.families
        assert not witness.order_threshold_met

    def test_g8_multi_membership(self, g8):
        witness = recognize(g8)
        assert {FamilyKind.C3NQ, FamilyKind.C1NPQ} <= witness.families
        for kind in witness.families:
            assert replay_certificate(witness.certificate(kind)) == g8

    def test_k23_empty(self):
        assert recognize(complete_bipartite(2, 3)).families == frozenset()

    def test_round_trip_samples(self):
        cases = [
            FamilyParams(FamilyKind.C1N, (3, 6, 3), (2, 2)),
            FamilyParams(FamilyKind.C2N, (4, 4, 4), (2, 2, 2)),
            FamilyParams(FamilyKind.C3NQ, (7,), ()),
            FamilyParams(FamilyKind.C1NP, (9,), (),
                         (ComponentSpec("c1n", (2,), (2,)), ComponentSpec("c2n", (3, 3), (2, 1, 2)))),
            FamilyParams(FamilyKind.C2NP, (9, 4), (),
                         (ComponentSpec("c2n_bridge", (3,), (1, 2)),
                          ComponentSpec("c2n_bridge", (2, 2), (1, 1, 1)))),
            FamilyParams(FamilyKind.C1NPQ, (9,), (), (ComponentSpec("c3nq"),)),
            FamilyParams(FamilyKind.C2NPQ, (10, 2), (),
                         (ComponentSpec("c3nq"),
                          ComponentSpec("c2n_bridge", (2, 2), (1, 1, 1)),
                          ComponentSpec("c2n_bridge", (2, 2), (1, 1, 1)))),
        ]
        for params in cases:
            g, cert = generate_with_certificate(params, seed=3)
            witness = recognize(g)
            assert params.family in witness.families, params.family
            found = witness.certificate(params.family)
            assert replay_certificate(found) == g
            if params.components:
                assert skeleton(found) == skeleton(cert), params.family

    def test_one_recognize_asks_each_question_of_g_once(self, monkeypatch):
        clique_calls, searches = Counter(), Counter()
        glue_search = families._glue_search

        def counting_cliques(graph):
            clique_calls[graph] += 1
            return maximal_cliques(graph)

        def counting_search(graph, vertices, base):
            searches[frozenset(vertices), base] += 1
            return glue_search(graph, vertices, base)

        monkeypatch.setattr(families, "maximal_cliques", counting_cliques)
        monkeypatch.setattr(families, "_glue_search", counting_search)
        for kind in FAMILY_SPECS:
            g = min((generate(params, seed) for params, seed in acceptance_grids()[kind]),
                    key=lambda member: member.n)
            clique_calls.clear()
            searches.clear()
            assert kind in recognize(g).families
            # once for the composed families, once each in is_c1n and is_c2n
            assert clique_calls[g] <= 3, kind
            assert searches and max(searches.values()) == 1, kind

    def test_shared_cliques_and_searches_change_no_answer(self):
        def unshared(g):
            certs = {}
            for kind in FamilyKind:
                spec = FAMILY_SPECS.get(kind)
                if spec is None:
                    cert = families._base_search(kind, g)
                else:
                    cert = families._recognize_composed(g, spec, maximal_cliques(g), {})
                if cert is not None:
                    certs[kind] = cert
            return certs

        grid = [generate(params, seed) for members in acceptance_grids().values()
                for params, seed in members]
        for g in [g for g in grid if g.n <= 13] + full_corpus(0):
            witness = recognize(g)
            assert witness.certificates == unshared(g), emit_graph6(g)
            assert witness.families == frozenset(witness.certificates)


class TestKnownEdgeCases:
    def test_two_clique_chain_is_not_degree_sum_closed(self):
        # chain of two K5 joined by a 2-matching: a valid chain member,
        # r-closed, but cross-junction degree sums reach n, so the
        # degree-sum completion still fires
        params = FamilyParams(FamilyKind.C1N, (5, 5), (2,))
        g = generate(params, seed=0)
        assert is_c1n(g) is not None
        assert not is_c_closed(g)
        closed, trace = c_closure(g)
        assert closed != g and len(trace.steps) >= 1

    def test_t2_chains_excluded_from_closed_grid(self):
        from hamclosure.verify import acceptance_grids

        for params, _ in acceptance_grids()[FamilyKind.C1N]:
            assert len(params.clique_sizes) != 2

    def test_c2npq_small_members_carry_claws(self):
        # at this order a member must double-attach its secondary clique,
        # which costs claw-freeness; hamiltonicity and the net profile survive
        params = FamilyParams(
            FamilyKind.C2NPQ, (11, 2), (),
            (ComponentSpec("c3nq"),
             ComponentSpec("c2n_bridge", (3,), (1, 2)),
             ComponentSpec("c2n_bridge", (3,), (1, 2))),
        )
        g = generate(params, seed=0)
        assert g.n == 20
        assert not is_free(g, (PatternKind.CLAW,))
        assert is_hamiltonian(g).result is True
        assert net_profile(g).n_pq_heavy
        assert FamilyKind.C2NPQ in recognize(g).families

    def test_c2npq_full_hypotheses_need_order_26(self):
        params = FamilyParams(
            FamilyKind.C2NPQ, (14, 7), (),
            (ComponentSpec("c3nq"),
             ComponentSpec("c2n_bridge", (2, 2), (1, 1, 1)),
             ComponentSpec("c2n_bridge", (2, 2), (1, 1, 1))),
        )
        g = generate(params, seed=0)
        assert g.n == 26
        assert is_2_connected(g)
        assert is_free(g, (PatternKind.CLAW,))
        assert is_c_closed(g)
        assert net_profile(g).n_pq_heavy
        assert is_hamiltonian(g).result is True
        assert FamilyKind.C2NPQ in recognize(g).families


class TestClassifyTheorem:
    def test_c5_out_of_range(self):
        verdict = classify_theorem(cycle_graph(5))
        assert verdict.status is VerdictStatus.OUT_OF_RANGE
        assert verdict.hypotheses_p and verdict.member_p

    def test_k23_consistent_by_absence(self):
        verdict = classify_theorem(complete_bipartite(2, 3))
        assert verdict.status is VerdictStatus.CONSISTENT
        assert not verdict.claw_free
        assert not verdict.families

    def test_generated_member_consistent(self):
        params = FamilyParams(
            FamilyKind.C1NP, (10,), (),
            (ComponentSpec("c1n", (2,), (2,)), ComponentSpec("c2n", (3, 3), (2, 1, 2))),
        )
        g = generate(params, seed=4)
        verdict = classify_theorem(g)
        assert g.n >= 10
        assert verdict.hypotheses_p and verdict.member_p
        assert verdict.status is VerdictStatus.CONSISTENT

    def test_two_clique_chain_contradicts_the_equivalence(self):
        # in the chain family yet not degree-sum closed: at order >= 10 the
        # claimed equivalence breaks on it, and the classifier says so loudly
        g = generate(FamilyParams(FamilyKind.C1N, (5, 5), (2,)), seed=0)
        verdict = classify_theorem(g)
        assert verdict.member_p and not verdict.c_closed
        assert verdict.status is VerdictStatus.COUNTEREXAMPLE_CANDIDATE


# the classify pool graphs that benchmark/reference/classify_random.json
# lists as unfinished (no verdict within 3 s when it was recorded), with
# their order and 2-connectivity; each is CONSISTENT and in no family
_SLOW_POOL_GRAPHS = [
    ("LtSOYiT?`?cUpT", 13, True), ("LoSAd?KaEWKbOc", 13, True),
    ("LEbAAPW?_@e_cg", 13, False), ("MgCOOC_cRp@@AckG?", 14, False),
    ("MaHAW_pBCGJTaPEI?", 14, True), ("ND_Bc?OOaHOYSC_IK?W", 15, False),
    ("NpMPPb?Cb\\HOG@C?OR?", 15, False), ("NUAsoQ?_oB?AOOJaIb?", 15, False),
    ("OFPaEC?GgELldda@OhwHG", 16, True), ("OPSA?F]W_q??AaJC@P@O?", 16, False),
    ("OySOQAGo?oSW_J_RgEpGE", 16, True), ("OBcQA~iD`E[ti@IiGZv_B", 16, True),
    ("MOAEA?IYAoXCHAoE?", 14, False),
]


@pytest.mark.parametrize(
    "g6,n,two_connected", _SLOW_POOL_GRAPHS, ids=[g6 for g6, _, _ in _SLOW_POOL_GRAPHS]
)
def test_slow_pool_graphs_classify(g6, n, two_connected):
    assert classify_theorem(parse_graph6(g6)) == TheoremVerdict(
        n, two_connected, False, False, False, False, frozenset(), VerdictStatus.CONSISTENT
    )


class TestParamsFormat:
    def test_documented_example(self):
        params = parse_params("family=C1N\nt=3\nk_sizes=4,5,4\nu_sizes=2,2;2,2\n")
        assert params == FamilyParams(FamilyKind.C1N, (4, 5, 4), (2, 2))

    def test_components(self):
        text = (
            "family=C2NPQ\n"
            "k_sizes=10,2\n"
            "component=c3nq\n"
            "component=c2n_bridge k_sizes=2,2 u_sizes=1,1;1,1;1,1\n"
            "component=c2n_bridge k_sizes=2,2 u_sizes=1,1;1,1;1,1\n"
        )
        params = parse_params(text)
        assert params.family is FamilyKind.C2NPQ
        assert params.clique_sizes == (10, 2)
        assert [c.kind for c in params.components] == ["c3nq", "c2n_bridge", "c2n_bridge"]
        generate(params, seed=0)

    def test_comments_and_blanks(self):
        params = parse_params("# a chain\nfamily=C1N\n\nk_sizes=5,5 # two cliques\nu_sizes=2,2\n")
        assert params.clique_sizes == (5, 5)

    def test_mismatched_junction_pair(self):
        with pytest.raises(InputError, match="sides must agree"):
            parse_params("family=C1N\nk_sizes=4,4\nu_sizes=2,3\n")

    def test_t_disagreement(self):
        with pytest.raises(InputError, match="disagrees"):
            parse_params("family=C1N\nt=2\nk_sizes=4,5,4\nu_sizes=2,2;2,2\n")

    def test_unknown_family(self):
        with pytest.raises(InputError):
            parse_params("family=C9X\n")


# -- slow reference recognizers: a chain search over the maximal cliques of
# what is left at each step, a depth-first search for a cycle of maximal
# cliques, and a C3NQ search over every edge orientation and neighbour pair


def _subcliques_containing(g: Graph, sub_vertices: list[int], anchor: set[int]):
    sub = g.induced(sub_vertices)
    back = {i: v for i, v in enumerate(sub_vertices)}
    for clique in maximal_cliques(sub):
        mapped = frozenset(back[i] for i in clique)
        if anchor <= mapped:
            yield mapped


def _oracle_matching(g: Graph, left, right):
    """The chain junction between two disjoint vertex sets: every edge
    between them, provided they form a matching of at least two edges."""
    cross = sorted((u, v) for u in left for v in right if g.has_edge(u, v))
    lefts = {u for u, _ in cross}
    rights = {v for _, v in cross}
    if len(cross) < 2 or len(lefts) < len(cross) or len(rights) < len(cross):
        return None
    return tuple(cross)


def c1n_oracle(g: Graph):
    if g.n < 2 or not is_connected(g):
        return None
    if g.is_clique_mask(g.full_mask):
        return ChainCert(g.n, (tuple(range(g.n)),), ())

    def extend(cells, matchings, rest: set[int], anchor: set[int]):
        for cell in _subcliques_containing(g, sorted(rest), anchor):
            new_rest = rest - cell
            if not new_rest:
                if len(cell) >= 2:
                    return cells + [cell], matchings
                continue
            if len(cell) < 4:
                continue
            pairs = _oracle_matching(g, cell, new_rest)
            if pairs is None:
                continue
            if anchor & {u for u, _ in pairs}:
                continue
            found = extend(cells + [cell], matchings + [pairs], new_rest, {v for _, v in pairs})
            if found:
                return found
        return None

    for first in maximal_cliques(g):
        if len(first) < 2:
            continue
        rest = set(range(g.n)) - first
        pairs = _oracle_matching(g, first, rest)
        if pairs is None:
            continue
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


def _cycle_junction(g: Graph, left, right, known_cells):
    """Junction joining two cliques, or None; cross edges inside an already
    placed cell are that cell's edges, not junction material."""

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
    for u in sorted(left):
        outs = [v for v in g.neighbors(u) if v in right and not covered_elsewhere(u, v)]
        if len(outs) > 1:
            return None
        if outs:
            pairs.append((u, outs[0]))
    targets = {v for _, v in pairs}
    if len(pairs) < 2 or len(targets) != len(pairs):
        return None
    for v in targets:
        if len([u for u in g.neighbors(v) if u in left and not covered_elsewhere(u, v)]) != 1:
            return None
    return ("matching", tuple(sorted(pairs)))


def c2n_oracle(g: Graph):
    if g.n < 3 or not is_connected(g):
        return None
    cliques = maximal_cliques(g)

    def extend(cells, junctions, covered: set[int]):
        last = cells[-1]
        if len(cells) >= 3 and covered == set(range(g.n)):
            closing = _cycle_junction(g, last, cells[0], cells[1:-1])
            if closing is not None:
                cert = CycleCert(
                    g.n, tuple(tuple(sorted(c)) for c in cells), tuple(junctions + [closing])
                )
                if not check_cycle_cert(g, cert):
                    return cert
        for cand in cliques:
            if len(cand) < 2 or cand == last or any(cand & c for c in cells[1:-1]):
                continue
            new = cand - covered
            if cand & cells[0] and not new and len(cells) < 3:
                continue
            junction = _cycle_junction(g, last, cand, cells[:-1])
            if junction is None:
                continue
            if not new and not (len(cells) >= 2 and cand & cells[0]):
                continue
            cert = extend(cells + [cand], junctions + [junction], covered | cand)
            if cert:
                return cert
        return None

    for first in cliques:
        if 0 in first and len(first) >= 2:
            cert = extend([first], [], set(first))
            if cert:
                return cert
    return None


def c3nq_oracle(g: Graph):
    if g.n < 8:
        return None
    # The degree tests restate what the neighbourhood tests below demand of
    # a2, a3 (3) and b2, b3 (2); they only skip candidates early.
    for a2, a3 in g.edges():
        if g.degree(a2) != 3 or g.degree(a3) != 3:
            continue
        for a2v, a3v in ((a2, a3), (a3, a2)):
            for b2 in g.neighbors(a2v):
                if b2 == a3v or g.degree(b2) != 2:
                    continue
                for b3 in g.neighbors(a3v):
                    if b3 in (a2v, b2) or g.degree(b3) != 2:
                        continue
                    path = {b2, a2v, a3v, b3}
                    kset = [v for v in range(g.n) if v not in path]
                    if len(kset) < 4 or not g.is_clique_mask(sum(1 << v for v in kset)):
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
                    a1, c2, c3 = (next(iter(s)) for s in (a1_set, c2_set, c3_set))
                    if len({a1, c2, c3}) != 3:
                        continue
                    cert = C3NQCert(g.n, tuple(kset), a1, c2, c3, b2, a2v, a3v, b3)
                    if not check_c3nq_cert(g, cert):
                        return cert
    return None


def _small_grid_members(kinds=tuple(FamilyKind)):
    grids = acceptance_grids()
    members = (generate(params, seed) for kind in kinds for params, seed in grids[kind])
    return list(dict.fromkeys(g for g in members if g.n <= 14))


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _single_edge_edits(g: Graph):
    """Every graph one edge deletion or one edge addition away from g."""
    for u, v in itertools.combinations(range(g.n), 2):
        rows = list(g.rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        yield Graph(g.n, tuple(rows))


_ORACLES = {
    FamilyKind.C1N: (is_c1n, c1n_oracle),
    FamilyKind.C2N: (is_c2n, c2n_oracle),
    FamilyKind.C3NQ: (is_c3nq, c3nq_oracle),
}


def _edits_of(kinds, max_n):
    members = [g for g in _small_grid_members(kinds) if g.n <= max_n]
    return list(dict.fromkeys(e for g in members for e in _single_edge_edits(g)))


def _small_c2n_shapes():
    """Every C2N member with 3 or 4 cells of 2 to 4 vertices and junctions of
    1 or 2, among them 3-cycles with two identifications and two cliques
    joined by parallel edges."""
    members = []
    for t in (3, 4):
        for sizes in itertools.product((2, 3, 4), repeat=t):
            for juncs in itertools.product((1, 2), repeat=t):
                try:
                    members.append(generate(FamilyParams(FamilyKind.C2N, sizes, juncs), 0))
                except ParameterError:
                    pass
    return list(dict.fromkeys(members))


def _oracle_inputs(name):
    """The graphs of one input set and the families whose recognizers run on
    them: the edits of a family's members go to that family's recognizers."""
    if name == "grid":
        return _small_grid_members(), tuple(_ORACLES)
    if name == "relabelled":
        rng = random.Random(14)
        return [_relabelled(g, rng) for g in _small_grid_members()], tuple(_ORACLES)
    if name == "edge-edits":
        kinds = (FamilyKind.C1N, FamilyKind.C3NQ)
        return _edits_of(kinds, 14), kinds
    if name == "c2n-edge-edits":
        return _edits_of((FamilyKind.C2N,), 12), (FamilyKind.C2N,)
    if name == "c2n-shapes":
        rng = random.Random(14)
        shapes = _small_c2n_shapes()
        return [_relabelled(g, rng) for g in shapes for _ in range(3)], (FamilyKind.C2N,)
    return full_corpus(0), tuple(_ORACLES)


@pytest.mark.parametrize(
    "inputs", ["grid", "relabelled", "edge-edits", "c2n-edge-edits", "c2n-shapes", "corpus"]
)
def test_base_recognizers_match_their_oracles(inputs):
    graphs, kinds = _oracle_inputs(inputs)
    for g in graphs:
        for kind in kinds:
            recognizer, oracle = _ORACLES[kind]
            assert recognizer(g) == oracle(g), (kind, emit_graph6(g))
