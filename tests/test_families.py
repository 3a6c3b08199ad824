import itertools

import pytest

from hamclosure import cli, families
from hamclosure.closures import c_closure, is_c_closed
from hamclosure.errors import BudgetError, InputError, ParameterError
from hamclosure.families import (
    FAMILY_SPECS,
    ChainCert,
    ComponentSpec,
    CycleCert,
    FamilyKind,
    FamilyParams,
    VerdictStatus,
    check_chain_cert,
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
)
from hamclosure.hamiltonicity import is_hamiltonian
from hamclosure.patterns import PatternKind, is_free, net_profile


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

    def test_cycle_search_cap_raises_a_typed_error(self, monkeypatch, capsys):
        monkeypatch.setattr(families, "_CYCLE_SEARCH_CAP", 1)
        with pytest.raises(BudgetError):
            is_c2n(cycle_graph(5))
        assert cli.main(["classify", emit_graph6(cycle_graph(5))]) == 3
        assert "state cap" in capsys.readouterr().err

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
        ],
    )
    def test_sequence_checkers_reject_each_broken_clause(self, g, cert):
        check = check_chain_cert if isinstance(cert, ChainCert) else check_cycle_cert
        assert check(g, cert)

    def test_generated_chain_and_cycle_certificates_check_clean(self):
        g, cert = generate_with_certificate(FamilyParams(FamilyKind.C1N, (3, 6, 3), (2, 2)), 3)
        assert check_chain_cert(g, cert) == []
        g, cert = generate_with_certificate(FamilyParams(FamilyKind.C2N, (4, 3, 4), (2, 1, 2)), 3)
        assert check_cycle_cert(g, cert) == []

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
