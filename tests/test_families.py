import hashlib
import itertools
import random
from collections import Counter
from dataclasses import fields, is_dataclass, replace

import networkx as nx
import pytest

from hamclosure import families
from hamclosure.closures import c_closure, is_c_closed
from hamclosure.errors import InputError, ParameterError
from hamclosure.families import (
    FAMILY_SPECS,
    GLUES,
    C3NQCert,
    ChainCert,
    ComponentCert,
    ComponentSpec,
    ComposedCert,
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
    maximal_clique_masks,
    maximal_cliques,
    parse_graph6,
    sample_graphs,
)
from hamclosure.hamiltonicity import is_hamiltonian
from hamclosure.heaviness import heavy_vertices
from hamclosure.patterns import PatternKind, find_induced_naive, is_free, net_profile
from hamclosure.verify import acceptance_grids, full_corpus
from test_oracle import plain_hamiltonian_search


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


def _one_leaf_mutants(part, n, nested=False):
    """Every certificate made from ``part`` by one leaf change: a vertex set
    to None, -1, n, 'x' or 2.0; a vertex tuple (cell, clique, matching edge)
    with its last vertex dropped or its first repeated; any tuple (a field,
    a cell, a junction, an edge) and any nested certificate (a component or
    its sub-certificate) set to 0 or None; a junction's kind flipped; a glue
    tag set to a list. ``n`` fields stay."""
    if is_dataclass(part):
        for f in fields(part):
            if f.name != "n":
                for changed in _one_leaf_mutants(getattr(part, f.name), n, nested=True):
                    yield replace(part, **{f.name: changed})
        if nested:
            yield from (0, None)
    elif isinstance(part, tuple):
        for i, item in enumerate(part):
            for changed in _one_leaf_mutants(item, n, nested=True):
                yield part[:i] + (changed,) + part[i + 1:]
        if part and all(isinstance(v, int) for v in part):
            yield from (part[:-1], part + part[:1])
        yield from (0, None)
    elif isinstance(part, int):
        yield from (None, -1, n, "x", 2.0)
    elif part in ("identify", "matching"):
        yield "matching" if part == "identify" else "identify"
    elif part in GLUES:
        yield [part]


def _check_c1np(g, cert):
    return check_composed_cert(g, FamilyKind.C1NP, cert)


def _check_c2np(g, cert):
    return check_composed_cert(g, FamilyKind.C2NP, cert)


def _check_c1npq(g, cert):
    return check_composed_cert(g, FamilyKind.C1NPQ, cert)


def skeleton(cert):
    """K, K', u0 and the (vertex set, glue tag) of every component."""
    comps = sorted((tuple(sorted(c.vertices)), c.glue) for c in cert.components)
    return cert.k_clique, cert.k_prime, cert.u0, comps


def _edited(cert, added, dropped):
    """The graph a certificate names with edges added and dropped, and the
    certificate."""
    rows = list(replay_certificate(cert).add_edges(added)[0].rows)
    for u, v in dropped:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return Graph(cert.n, tuple(rows)), cert


_CHAIN = ChainCert(7, ((0, 1, 2), (3, 4, 5, 6)), (((0, 3), (1, 4)),))
_CYCLE = CycleCert(9, ((0, 1, 2), (2, 3, 4), (5, 6, 7, 8)),
                   (("identify", 2), ("matching", ((3, 5), (4, 6))),
                    ("matching", ((7, 0), (8, 1)))))
_C3NQ = C3NQCert(8, (0, 1, 2, 3), 0, 1, 2, 4, 5, 6, 7)


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
            (FamilyParams(FamilyKind.C2N, (2, 2, 2), (2, 1, 1)),
             "cannot host disjoint junction sets"),
            (FamilyParams(FamilyKind.C2N, (3, 3, 3), (2, 2)), "exactly t junction sizes"),
            (FamilyParams(FamilyKind.C2N, (3, 3, 3), (2, 0, 2)), "junctions must be nonempty"),
            (FamilyParams(FamilyKind.C3NQ, (3,)), "at least 4 vertices"),
            (FamilyParams(FamilyKind.C1N, (4, 4), ()), "exactly t-1 junction sizes"),
            (FamilyParams(FamilyKind.C1NP, (9,), (),
                          (ComponentSpec("c1n", (2,), (2, 2)),
                           ComponentSpec("c2n", (3, 3), (2, 1, 2)))),
             "one junction per clique"),
            (FamilyParams(FamilyKind.C1NP, (9,), (),
                          (ComponentSpec("c1n", (2,), (2,)), ComponentSpec("c2n", (3,), (2, 2)))),
             "at least three cliques"),
            (FamilyParams(FamilyKind.C1NP, (3,), (),
                          (ComponentSpec("c1n", (4,), (4,)),
                           ComponentSpec("c2n", (3, 3), (2, 1, 2)))),
             "host clique too small"),
        ],
    )
    def test_parameter_errors_name_the_clause(self, params, needle):
        with pytest.raises(ParameterError, match=needle):
            generate(params, seed=0)

    @pytest.mark.parametrize(
        "params,needle",
        [
            (FamilyParams(FamilyKind.C1N, ("a", 3), (2,)), "k_sizes .* are not ints"),
            (FamilyParams(FamilyKind.C1N, (3, 3), (2.0,)), "u_sizes .* are not ints"),
            (FamilyParams(FamilyKind.C1N, 3, (2,)), "k_sizes 3 are not ints"),
            (FamilyParams("C1N", (3, 3), (2,)), "does not name a FamilyKind"),
            (FamilyParams(FamilyKind.C1NP, (9,), (), ("c1n",)), "is not a ComponentSpec"),
            (FamilyParams(FamilyKind.C1NP, (9,), (),
                          (ComponentSpec("c1n", (2,), ("2",)), ComponentSpec("c2n"))),
             "c1n component u_sizes .* are not ints"),
        ],
        ids=["k_sizes-str", "u_sizes-float", "k_sizes-int", "family-str", "component-str",
             "component-u_sizes-str"],
    )
    def test_params_of_the_wrong_type_are_refused(self, params, needle):
        with pytest.raises(ParameterError, match=needle):
            generate(params, seed=0)

    @pytest.mark.parametrize(
        "text,field",
        [
            ("family=C1N\nk_sizes=4,4\nu_sizes=2,2\ncomponent=c1n k_sizes=2 u_sizes=2,2\n",
             "component"),
            ("family=C3NQ\nk_sizes=6\nu_sizes=2,2\n", "u_sizes"),
            ("family=C1NPQ\nk_sizes=8\nu_sizes=2,2;2,2\ncomponent=c3nq\n", "u_sizes"),
            ("family=C1NPQ\nk_sizes=8\ncomponent=c3nq k_sizes=5 u_sizes=3,3\n",
             "c3nq component k_sizes"),
            ("family=C1NPQ\nk_sizes=8\ncomponent=c3nq u_sizes=3,3\n", "c3nq component u_sizes"),
        ],
        ids=["base-component", "c3nq-u_sizes", "composed-u_sizes", "c3nq-component-k_sizes",
             "c3nq-component-u_sizes"],
    )
    def test_unused_params_fields_are_refused(self, text, field):
        with pytest.raises(ParameterError, match=f"{field} is not used by this family"):
            generate(parse_params(text), seed=0)

    @pytest.mark.parametrize("seed", [None, [1], 1.0], ids=["none", "list", "float"])
    def test_seed_must_be_an_int(self, seed):
        # refused before the first draw: a None seed would draw from the clock
        with pytest.raises(InputError, match="generator seed .* is not an int"):
            generate(parse_params("family=C1N\nt=3\nk_sizes=4,5,4\nu_sizes=2,2;2,2\n"), seed)

    def test_generator_output_is_pinned(self):
        # graph6 and certificate of every grid member and of the README's
        # two params examples: any change to a generator's rng draw order
        # or vertex numbering moves this digest
        readme = [
            (parse_params("family=C1N\nt=3\nk_sizes=4,5,4\nu_sizes=2,2;2,2\n"), 3),
            (parse_params(
                "family=C2NPQ\nk_sizes=10,2\ncomponent=c3nq\n"
                "component=c2n_bridge k_sizes=2,2 u_sizes=1,1;1,1;1,1\n"
                "component=c2n_bridge k_sizes=2,2 u_sizes=1,1;1,1;1,1\n"
            ), 0),
        ]
        members = [m for grid in acceptance_grids().values() for m in grid] + readme
        digest = hashlib.sha256()
        for params, seed in members:
            g, cert = generate_with_certificate(params, seed)
            digest.update(f"{emit_graph6(g)} {cert!r}\n".encode())
        assert len(members) == 398
        assert digest.hexdigest() == (
            "bab880ae157295b397d9a9bf28ae120b880fe6fab64d060da1bed827c684eea9"
        )

    def test_recognized_certificates_are_pinned(self):
        # graph6 and every certificate recognize() returns, over the grid
        # members and full_corpus(0): any change to a recognizer's candidate
        # order, glue choice or vertex renaming moves this digest
        graphs = [generate(p, s) for grid in acceptance_grids().values() for p, s in grid]
        graphs += full_corpus(0)
        digest = hashlib.sha256()
        for g in graphs:
            certs = sorted((kind.value, cert) for kind, cert in recognize(g).certificates.items())
            digest.update(f"{emit_graph6(g)} {certs!r}\n".encode())
        assert len(graphs) == 934
        assert digest.hexdigest() == (
            "e7ba3a784f385e1b6863dc0eef06bd39b462d4a1b551368ac46b0aa8e7a0f8ec"
        )


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

    def test_chain_and_cycle_searches_gate_before_building_cliques(self, monkeypatch):
        built = []

        def counting_cliques(graph):
            built.append(graph)
            return maximal_clique_masks(graph)

        monkeypatch.setattr(families, "maximal_clique_masks", counting_cliques)
        two_paths = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert is_c1n(two_paths) is None and is_c2n(two_paths) is None
        assert is_c2n(complete_bipartite(1, 3)) is None  # connected, not 2-connected
        assert is_c1n(complete_graph(4)) == ChainCert(4, ((0, 1, 2, 3),), ())
        assert built == []
        assert is_c2n(cycle_graph(5)) is not None
        assert built == [cycle_graph(5)]

    def test_chain_checker_reports_an_unhashable_cell_vertex(self):
        # a list in a cell is no vertex; it must not reach set(cell)
        cert = ChainCert(3, ((0, [1], 2),), ())
        assert check_chain_cert(complete_graph(3), cert) == [
            "cell 0 names a vertex outside the graph"
        ]

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
            pytest.param(complete_graph(3), ChainCert(3, ((0, 1, None),), ()),
                         id="cell-vertex-none"),
            pytest.param(complete_graph(3), ChainCert(3, ((0, 1, 2.0),), ()),
                         id="cell-vertex-float"),
            pytest.param(cycle_graph(5), CycleCert(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
                                                   (("identify", 1.0), ("identify", 2),
                                                    ("identify", 3), ("identify", 4),
                                                    ("identify", 0))),
                         id="identification-vertex-float"),
        ],
    )
    def test_sequence_checkers_reject_each_broken_clause(self, g, cert):
        check = check_chain_cert if isinstance(cert, ChainCert) else check_cycle_cert
        assert check(g, cert)

    @pytest.mark.parametrize(
        "check,g,cert,expected",
        [
            pytest.param(check_chain_cert, *_edited(_CHAIN, [(2, 6)], [(1, 4)]),
                         ["edges not exactly the chain: extra [(2, 6)], missing [(1, 4)]"],
                         id="chain-extra-and-missing"),
            pytest.param(check_cycle_cert, *_edited(_CYCLE, [(0, 4)], [(3, 5)]),
                         ["edges not exactly the cycle: extra [(0, 4)], missing [(3, 5)]"],
                         id="cycle-extra-and-missing"),
            pytest.param(check_c3nq_cert, *_edited(_C3NQ, [(3, 7)], [(4, 5)]),
                         ["edges not exactly the clique-plus-path attachment"],
                         id="c3nq-extra-and-missing"),
            pytest.param(check_chain_cert, replay_certificate(_CHAIN),
                         replace(_CHAIN, matchings=(((0, 0), (1, 4)),)),
                         ["junction 0 edge (0, 0) not between its cliques",
                          "edges not exactly the chain: extra [(0, 3)], missing [(0, 0)]"],
                         id="chain-loop"),
            pytest.param(check_chain_cert, replay_certificate(_CHAIN),
                         replace(_CHAIN, matchings=(((0, 3), (1, 9)),)),
                         ["junction 0 edge (1, 9) not between its cliques",
                          "edges not exactly the chain: extra [(1, 4)], missing [(1, 9)]"],
                         id="chain-vertex-out-of-range"),
            pytest.param(check_chain_cert, replay_certificate(_CHAIN),
                         replace(_CHAIN, matchings=(((-1, 3), (1, 4)),)),
                         ["junction 0 edge (-1, 3) not between its cliques",
                          "edges not exactly the chain: extra [(0, 3)], missing [(-1, 3)]"],
                         id="chain-negative-vertex"),
            pytest.param(check_cycle_cert, replay_certificate(_CYCLE),
                         replace(_CYCLE, junctions=(("identify", 2), ("matching", ((3, 3), (4, 6))),
                                                    _CYCLE.junctions[2])),
                         ["junction 1 edge (3, 3) not between its cliques",
                          "edges not exactly the cycle: extra [(3, 5)], missing [(3, 3)]"],
                         id="cycle-loop"),
            pytest.param(check_cycle_cert, replay_certificate(_CYCLE),
                         replace(_CYCLE, junctions=(("identify", 2), ("matching", ((3, 5), (4, 9))),
                                                    _CYCLE.junctions[2])),
                         ["junction 1 edge (4, 9) not between its cliques",
                          "edges not exactly the cycle: extra [(4, 6)], missing [(4, 9)]"],
                         id="cycle-vertex-out-of-range"),
        ],
    )
    def test_edge_clause_messages_are_pinned(self, check, g, cert, expected):
        # the edge lists are built only on a mismatch; a loop or a stranger
        # in a matching is one
        assert check(g, cert) == expected

    @pytest.mark.parametrize(
        "check,g,cert,expected",
        [
            pytest.param(check_chain_cert, complete_graph(3), ChainCert(3, (5,), ()),
                         "cell 0 is not a tuple of vertices", id="chain-cell"),
            pytest.param(check_chain_cert, complete_graph(3), ChainCert(3, ((0, 1, 2),), 7),
                         "matchings is not a tuple", id="chain-matchings"),
            pytest.param(check_cycle_cert, cycle_graph(5), CycleCert(5, 3, ()),
                         "cells is not a tuple", id="cycle-cells"),
            pytest.param(check_cycle_cert, cycle_graph(5),
                         CycleCert(5, ((0, 1), (1, 2), (2, 3)), 5),
                         "junctions is not a tuple", id="cycle-junctions"),
            pytest.param(check_c3nq_cert, complete_graph(8), C3NQCert(8, 5, 0, 1, 2, 3, 4, 5, 6),
                         "core clique is not a tuple of vertices", id="c3nq-clique"),
            pytest.param(_check_c1np, complete_graph(8), ComposedCert(8, 3, None, None, ()),
                         "K is not a tuple of vertices", id="composed-k-clique"),
            pytest.param(_check_c1np, complete_graph(8),
                         ComposedCert(8, tuple(range(8)), None, None, 4),
                         "components is not a tuple", id="composed-components"),
            pytest.param(_check_c1np, complete_graph(8),
                         ComposedCert(8, tuple(range(8)), None, None, (4,)),
                         "component 0 is not a component certificate", id="composed-component"),
            pytest.param(_check_c1npq, complete_graph(8),
                         ComposedCert(8, tuple(range(8)), None, None,
                                      (ComponentCert((0,), ["x"], None),)),
                         "component 0 glue is not a tag", id="composed-glue"),
            pytest.param(_check_c1np, complete_graph(8),
                         ComposedCert(8, tuple(range(8)), None, None,
                                      (ComponentCert((0,), "c1n", 5),)),
                         "component 0 certificate is not a chain, cycle or path certificate",
                         id="composed-sub-certificate"),
            pytest.param(_check_c1np, complete_graph(8),
                         ComposedCert(8, tuple(range(8)), 0, None, ()),
                         "K' is not a tuple of vertices", id="composed-k-prime"),
            pytest.param(_check_c2np, complete_graph(8),
                         ComposedCert(8, tuple(range(8)), 0, 0, ()),
                         "K' is not a tuple of vertices", id="composed-k-prime-of-two-cliques"),
        ],
    )
    def test_checkers_report_a_field_of_the_wrong_shape(self, check, g, cert, expected):
        assert check(g, cert) == [expected]

    @pytest.mark.parametrize(
        "change,part",
        [
            pytest.param({"clique": (0, 1, 2, 3, 3)}, "core clique", id="repeat"),
            pytest.param({"clique": (0, 1, 2, 3, 8)}, "core clique", id="stranger"),
            pytest.param({"clique": (0, 1, 2, "x")}, "core clique", id="string"),
            pytest.param({"a1": None}, "path plus attachments", id="attachment-none"),
            pytest.param({"b2": 4.0}, "path plus attachments", id="path-vertex-float"),
        ],
    )
    def test_c3nq_checker_reports_a_malformed_clique(self, g8, change, part):
        problems = check_c3nq_cert(g8, replace(is_c3nq(g8), **change))
        assert problems and all(p.startswith(part) for p in problems)

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

    @pytest.mark.parametrize("part", ["u0", "component", "K"])
    def test_composed_checker_reports_an_anchor_or_component_vertex_outside_the_graph(
        self, part
    ):
        params, seed = acceptance_grids()[FamilyKind.C2NP][0]
        g, cert = generate_with_certificate(params, seed)
        first = cert.components[0]
        # a None u0 means there is no K'
        for vertex in (g.n, -1, 1.5, "x") + (() if part == "u0" else (None,)):
            if part == "u0":
                bad, expected = replace(cert, u0=vertex), "shared vertex outside the graph"
            elif part == "K":
                bad = replace(cert, k_clique=cert.k_clique + (vertex,))
                expected = "K names a vertex outside the graph"
            else:
                bad = replace(cert, components=(
                    replace(first, vertices=first.vertices + (vertex,)), *cert.components[1:]
                ))
                expected = "component 0 names a vertex outside the graph"
            assert check_composed_cert(g, FamilyKind.C2NP, bad) == [expected], vertex

    def test_composed_checker_reads_each_sub_certificate_through_its_base_checker(self):
        params, seed = acceptance_grids()[FamilyKind.C1NP][0]
        g, cert = generate_with_certificate(params, seed)
        chain = cert.components[0]
        assert isinstance(chain.sub, ChainCert)
        (u, v), *rest = chain.sub.matchings[0]
        longer = replace(chain.sub, matchings=(((u, v, chain.vertices[0]), *rest),))
        bad = replace(cert, components=(replace(chain, sub=longer), *cert.components[1:]))
        problems = check_composed_cert(g, FamilyKind.C1NP, bad)
        assert any(p.endswith("is not a vertex pair") for p in problems), problems
        bad = replace(cert, components=(replace(chain, sub=chain.vertices), *cert.components[1:]))
        assert check_composed_cert(g, FamilyKind.C1NP, bad) == [
            "component 0 certificate is not a chain, cycle or path certificate"
        ]

    def test_generated_chain_and_cycle_certificates_check_clean(self):
        g, cert = generate_with_certificate(FamilyParams(FamilyKind.C1N, (3, 6, 3), (2, 2)), 3)
        assert check_chain_cert(g, cert) == []
        g, cert = generate_with_certificate(FamilyParams(FamilyKind.C2N, (4, 3, 4), (2, 1, 2)), 3)
        assert check_cycle_cert(g, cert) == []

    def test_composed_checker_rejects_a_base_family(self, g8):
        with pytest.raises(InputError, match="not a composed family"):
            check_composed_cert(g8, FamilyKind.C1N, recognize(g8).certificates[FamilyKind.C1NPQ])

    def test_component_gate_reads_the_counting_clauses(self):
        gates = {kind: spec.min_components for kind, spec in FAMILY_SPECS.items()}
        assert gates == {
            FamilyKind.C1NP: 2, FamilyKind.C2NP: 2, FamilyKind.C1NPQ: 1, FamilyKind.C2NPQ: 2,
        }

    def test_checkers_report_every_one_leaf_mutation(self):
        # the generated certificates of the grid members with n <= 13 and of
        # the smallest member of every family, each changed at one leaf; a
        # checker must report each change, never raise, and answer the same
        # way twice
        members = []
        for kind, grid in acceptance_grids().items():
            certified = [(kind, *generate_with_certificate(p, s)) for p, s in grid]
            smallest = min(certified, key=lambda member: member[1].n)
            members += [m for m in certified if m[1].n <= 13 or m is smallest]
        checkers = {ChainCert: check_chain_cert, CycleCert: check_cycle_cert,
                    C3NQCert: check_c3nq_cert}
        mutants = 0
        for kind, g, cert in members:
            for mutant in _one_leaf_mutants(cert, g.n):
                if kind in FAMILY_SPECS:
                    runs = [check_composed_cert(g, kind, mutant) for _ in range(2)]
                else:
                    runs = [checkers[type(mutant)](g, mutant) for _ in range(2)]
                assert isinstance(runs[0], list) and runs[0], mutant
                assert runs[0] == runs[1], mutant
                mutants += 1
        assert mutants > 10000


class TestRecognize:
    def test_c5(self):
        witness = recognize(cycle_graph(5))
        assert FamilyKind.C2N in witness.families

    def test_g8_multi_membership(self, g8):
        witness = recognize(g8)
        assert {FamilyKind.C3NQ, FamilyKind.C1NPQ} <= witness.families
        for kind in witness.families:
            assert replay_certificate(witness.certificates[kind]) == g8

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
            found = witness.certificates[params.family]
            assert replay_certificate(found) == g
            if params.components:
                assert skeleton(found) == skeleton(cert), params.family

    def test_one_recognize_asks_each_question_of_g_once(self, monkeypatch):
        built, searches, tables, induced = [], Counter(), Counter(), []
        glue_search, induced_subgraph = families._glue_search, Graph.induced
        build_table = Graph._build_degree_table

        def counting_cliques(graph):
            built.append(graph)
            return maximal_clique_masks(graph)

        def counting_search(graph, cliques, span, base, searched):
            searches[span, base] += 1
            return glue_search(graph, cliques, span, base, searched)

        def counting_table(graph):
            tables[graph] += 1
            return build_table(graph)

        def counting_induced(graph, vertices):
            induced.append(vertices)
            return induced_subgraph(graph, vertices)

        monkeypatch.setattr(families, "maximal_clique_masks", counting_cliques)
        monkeypatch.setattr(families, "_glue_search", counting_search)
        monkeypatch.setattr(Graph, "_build_degree_table", counting_table)
        monkeypatch.setattr(Graph, "induced", counting_induced)
        for kind in FAMILY_SPECS:
            g = min((generate(params, seed) for params, seed in acceptance_grids()[kind]),
                    key=lambda member: member.n)
            g = Graph(g.n, g.rows)  # a copy whose degree table is not yet built
            for counts in (built, searches, tables, induced):
                counts.clear()
            assert kind in recognize(g).families
            # g's cliques once, shared by every family; a glue search reads
            # its span's cliques from them, inside g
            assert built == [g], kind
            assert induced == [], kind
            assert searches and max(searches.values()) == 1, kind
            # every heavy-pair question of g reads its one degree table
            assert tables == {g: 1}, kind

    def test_shared_cliques_and_searches_change_no_answer(self):
        def unshared(g):
            certs = {}
            for kind in FamilyKind:
                spec = FAMILY_SPECS.get(kind)
                if spec is None:
                    cert = _ORACLES[kind][0](g)
                else:
                    masks = [sum(1 << v for v in c) for c in maximal_cliques(g)]
                    heavy = sum(1 << v for v in heavy_vertices(g))
                    _, crowded = families._overlaps(masks)
                    cert = families._recognize_composed(g, spec, masks, heavy, crowded, {})
                if cert is not None:
                    certs[kind] = cert
            return certs

        grid = [generate(params, seed) for members in acceptance_grids().values()
                for params, seed in members]
        for g in [g for g in grid if g.n <= 13] + full_corpus(0):
            witness = recognize(g)
            assert witness.certificates == unshared(g), emit_graph6(g)
            assert witness.families == frozenset(witness.certificates)


def _seeded_gnp(sizes=range(8, 17), ps=(0.3, 0.5, 0.7, 0.9), per_cell=6):
    """Seeded G(n, p) graphs: per_cell of each order in sizes and p in ps."""
    return [g for n in sizes for p in ps
            for g in sample_graphs(n, p, 1000 * n + int(100 * p), limit=per_cell)]


def _clique_counts(g: Graph) -> list[int]:
    """How many maximal cliques of g each vertex lies in, counted from
    vertex sets."""
    cliques = maximal_cliques(g)
    return [sum(v in clique for clique in cliques) for v in range(g.n)]


def test_two_clique_lemma_holds_on_members_and_recognized_certificates():
    """No vertex of a C1N, C2N or C3NQ member lies in three maximal cliques,
    and no vertex outside K and K' of a recognized composed certificate
    does: the lemma the recognizer's crowded-vertex prune reads."""
    bases = (FamilyKind.C1N, FamilyKind.C2N, FamilyKind.C3NQ)
    grids = acceptance_grids()
    members = [generate(params, seed) for kind in bases for params, seed in grids[kind]]
    members += _small_shapes(FamilyKind.C2N, (3, 4), (2, 3, 4), (1, 2))
    members += _small_shapes(FamilyKind.C1N, (2, 3, 4), (2, 3, 4, 5), (2, 3))
    for g in members:
        assert max(_clique_counts(g)) <= 2, emit_graph6(g)
    grid = [g for g in _small_grid_members() if g.n <= 13]
    edits = [e for g in grid for e in _single_edge_edits(g)]
    outside = 0
    for g in list(dict.fromkeys(grid + edits)) + full_corpus(0):
        counts = _clique_counts(g)
        masks = [sum(1 << v for v in c) for c in maximal_cliques(g)]
        assert families._overlaps(masks)[1] == sum(1 << v for v, c in enumerate(counts) if c >= 3)
        for kind, cert in recognize(g).certificates.items():
            if kind in FAMILY_SPECS:
                hosts = set(cert.k_clique) | set(cert.k_prime or ())
                rest = [counts[v] for v in range(g.n) if v not in hosts]
                assert max(rest, default=0) <= 2, (kind, emit_graph6(g))
                outside += len(rest)
    assert outside > 1000


def test_crowded_prune_changes_no_answer(monkeypatch):
    """recognize with the crowded-vertex prune returns what it returns with
    an empty crowded mask, which tries every candidate."""
    grid = [g for g in _small_grid_members() if g.n <= 13]
    edits = [e for g in grid for e in _single_edge_edits(g)]
    graphs = list(dict.fromkeys(grid + edits)) + full_corpus(0) + full_corpus(1) + _seeded_gnp()
    pruned = [recognize(g).certificates for g in graphs]
    composed = families._recognize_composed
    monkeypatch.setattr(families, "_recognize_composed",
                        lambda g, spec, cliques, heavy, crowded, searched:
                        composed(g, spec, cliques, heavy, 0, searched))
    for g, certs in zip(graphs, pruned):
        assert recognize(g).certificates == certs, emit_graph6(g)
    assert sum(kind in FAMILY_SPECS for certs in pruned for kind in certs) > 100


def test_recognized_certificates_pass_their_public_checkers():
    """The recognizer takes the sub-certificates of its glue searches as
    checked; the public checkers, which check each one again, accept every
    certificate it returns."""
    checkers = {FamilyKind.C1N: check_chain_cert, FamilyKind.C2N: check_cycle_cert,
                FamilyKind.C3NQ: check_c3nq_cert}
    members = [g for g in _small_grid_members() if g.n <= 13]
    edits = [e for g in members for e in _single_edge_edits(g)]
    # no grid member of order 13 or less is C2NPQ: its smallest members join
    larger = [generate(params, seed) for params, seed in acceptance_grids()[FamilyKind.C2NPQ]]
    larger = [g for g in larger if g.n <= 16]
    found = Counter()
    for g in list(dict.fromkeys(members + edits + larger)) + full_corpus(0):
        for kind, cert in recognize(g).certificates.items():
            if kind in FAMILY_SPECS:
                problems = check_composed_cert(g, kind, cert)
            else:
                problems = checkers[kind](g, cert)
            assert problems == [], (kind, emit_graph6(g), problems)
            found[kind] += 1
    assert set(found) == set(FamilyKind), found


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
        assert verdict.n < 10
        assert verdict.status is VerdictStatus.OUT_OF_RANGE
        assert verdict.two_connected and verdict.claw_free and verdict.c_closed
        assert verdict.n_p_heavy and FamilyKind.C2N in verdict.families

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
        assert verdict.two_connected and verdict.claw_free and verdict.c_closed
        assert verdict.n_p_heavy and FamilyKind.C1NP in verdict.families
        assert verdict.status is VerdictStatus.CONSISTENT

    def test_two_clique_chain_contradicts_the_equivalence(self):
        # in the chain family yet not degree-sum closed: at order >= 10 the
        # claimed equivalence breaks on it, and the classifier says so loudly
        g = generate(FamilyParams(FamilyKind.C1N, (5, 5), (2,)), seed=0)
        verdict = classify_theorem(g)
        assert FamilyKind.C1N in verdict.families and not verdict.c_closed
        assert verdict.status is VerdictStatus.COUNTEREXAMPLE_CANDIDATE


def test_verdict_rule_matches_its_truth_table():
    # the characterization restated for every combination of the five facts,
    # three membership classes and the orders either side of the threshold.
    # A member of C1N is in both unions, one of C1NPQ in the pq union alone.
    # At order 10 and up, each statement must agree: the hypotheses plus
    # N-p-heaviness hold exactly for a p-union member, and likewise for pq.
    # Below 10 a graph is out of range unless both statements are idle.
    classes = {(): (False, False), ("C1N",): (True, True), ("C1NPQ",): (False, True)}
    cases = 0
    for n, (names, (member_p, member_pq)), facts in itertools.product(
        (9, 10), classes.items(), itertools.product((False, True), repeat=5)
    ):
        two_connected, claw_free, c_closed, n_p_heavy, n_pq_heavy = facts
        hypotheses = two_connected and claw_free and c_closed
        p_holds, pq_holds = hypotheses and n_p_heavy, hypotheses and n_pq_heavy
        if n < 10:
            idle = not (p_holds or pq_holds or member_p or member_pq)
            expected = "CONSISTENT" if idle else "OUT-OF-RANGE"
        else:
            agree = p_holds == member_p and pq_holds == member_pq
            expected = "CONSISTENT" if agree else "COUNTEREXAMPLE-CANDIDATE"
        verdict = TheoremVerdict(n, *facts, frozenset(map(FamilyKind, names)))
        assert verdict.status.value == expected, (n, names, facts)
        cases += 1
    assert cases == 192


# The four kinds of graph on which the verdict rule and the family clause
# tables disagree (ROADMAP item 1), each 2-connected and hamiltonian:
# A, the hypotheses hold and no family is recognized; B, a C1NPQ member
# whose nets are not heavy; C, pq-heavy C2NPQ members with a claw that holds
# no o-heavy pair; D, claw-free chain and cycle members that are not c-closed.
_DISAGREEMENTS = [
    # g6, claw-free, c-closed, N-p-heavy, N-pq-heavy, families
    ("I~CWGNqAO", True, True, True, True, ()),
    ("J~{NoWE@GA_", True, True, True, True, ()),
    ("K~~~w?@?oI_U", True, True, True, True, ()),
    ("K~BoWVs@_V?I", True, True, True, True, ()),
    ("K~FooWHA^g_S", True, True, True, True, ()),
    ("K~FovgaAOGG@", True, True, False, False, ("C1NPQ",)),
    ("O~~~~~~_?A@@A@?GgA?C_", False, False, False, True, ("C2NPQ",)),
    ("P~~~~~~~{??GO@O?_AGOO@A?", False, False, False, True, ("C2NPQ",)),
    ("Q~~~~~~~~~o??OO?g?G?PA@?CC?", False, False, False, True, ("C2NPQ",)),
    ("IDIXSlitW", True, False, True, True, ("C2N",)),
    ("ItmyADJPw", True, False, True, True, ("C1N", "C2N")),
    ("I{eWIKFHw", True, False, True, True, ("C2N",)),
]


@pytest.mark.parametrize(
    "g6,claw_free,c_closed,n_p_heavy,n_pq_heavy,names", _DISAGREEMENTS,
    ids=[row[0] for row in _DISAGREEMENTS],
)
def test_verdict_disagreements_are_pinned(g6, claw_free, c_closed, n_p_heavy, n_pq_heavy, names):
    g = parse_graph6(g6)
    kinds = frozenset(map(FamilyKind, names))
    verdict = classify_theorem(g)
    assert verdict == TheoremVerdict(g.n, True, claw_free, c_closed, n_p_heavy, n_pq_heavy, kinds)
    assert verdict.status is VerdictStatus.COUNTEREXAMPLE_CANDIDATE
    assert recognize(g).families == kinds
    # the facts that can be read off the recognizer's path
    assert plain_hamiltonian_search(g)[0]
    h = nx.Graph(g.edges())
    assert h.number_of_nodes() == g.n and nx.is_biconnected(h)
    claws = find_induced_naive(g, PatternKind.CLAW)
    assert (not claws) == claw_free
    # a claw with no o-heavy pair is why kind C is not c-closed
    degs = g.degrees()
    light_claws = [
        claw for claw in claws
        if not any(degs[u] + degs[v] >= g.n
                   for u, v in itertools.combinations(claw, 2) if not g.has_edge(u, v))
    ]
    assert bool(light_claws) == bool(claws)


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
    verdict = classify_theorem(parse_graph6(g6))
    assert verdict == TheoremVerdict(n, two_connected, False, False, False, False, frozenset())
    assert verdict.status is VerdictStatus.CONSISTENT


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


def _small_shapes(kind, cell_counts, cell_sizes, junction_sizes):
    """Every member of C1N or C2N with the given numbers of cells, cell sizes
    and junction sizes, each generated with seed 0."""
    members = []
    for t in cell_counts:
        for sizes in itertools.product(cell_sizes, repeat=t):
            for juncs in itertools.product(junction_sizes, repeat=t - (kind is FamilyKind.C1N)):
                try:
                    members.append(generate(FamilyParams(kind, sizes, juncs), 0))
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
        # among them 3-cycles with two identifications and two cliques
        # joined by parallel edges
        rng = random.Random(14)
        shapes = _small_shapes(FamilyKind.C2N, (3, 4), (2, 3, 4), (1, 2))
        return [_relabelled(g, rng) for g in shapes for _ in range(3)], (FamilyKind.C2N,)
    if name == "c1n-shapes":
        # among them end cells of 2 vertices and the 4-cycle
        rng = random.Random(14)
        shapes = _small_shapes(FamilyKind.C1N, (2, 3, 4), (2, 3, 4, 5), (2, 3))
        return [_relabelled(g, rng) for g in shapes for _ in range(3)], (FamilyKind.C1N,)
    if name == "atlas":
        rng = random.Random(14)
        graphs = [Graph.from_edges(h.number_of_nodes(), h.edges())
                  for h in nx.graph_atlas_g() if 2 <= h.number_of_nodes() <= 7]
        return graphs + [_relabelled(g, rng) for g in graphs], (FamilyKind.C1N, FamilyKind.C2N)
    return full_corpus(0), tuple(_ORACLES)


@pytest.mark.parametrize(
    "inputs",
    ["grid", "relabelled", "edge-edits", "c2n-edge-edits", "c2n-shapes", "c1n-shapes", "atlas",
     "corpus"],
)
def test_base_recognizers_match_their_oracles(inputs):
    graphs, kinds = _oracle_inputs(inputs)
    for g in graphs:
        for kind in kinds:
            recognizer, oracle = _ORACLES[kind]
            assert recognizer(g) == oracle(g), (kind, emit_graph6(g))


def _renamed(x, table):
    """A base certificate, or one of its fields, with every vertex v renamed
    ``table[v]``; ``n`` stays."""
    if is_dataclass(x):
        n, *rest = (getattr(x, f.name) for f in fields(x))
        return type(x)(n, *(_renamed(y, table) for y in rest))
    if isinstance(x, tuple):
        return tuple(_renamed(y, table) for y in x)
    return table[x] if isinstance(x, int) else x


def test_glue_searches_on_spans_match_the_oracles_on_induced_subgraphs(monkeypatch):
    """The glue searches that recognize runs on the grid members of order 13
    or less, the C1NPQ and C2NPQ members of order 14 to 16 and full_corpus(0)
    read their span inside g. Against the subgraph the span induces: the
    span's cliques are the subgraph's maximal cliques, the search finds a
    certificate exactly when the slow oracle accepts the subgraph, and
    renamed into the subgraph that certificate is the public recognizer's
    and the oracle's, and passes the public checker."""
    visited = []
    glue_search = families._glue_search

    def recording(g, cliques, span, base, searched):
        visited.append((g, span, base))
        return glue_search(g, cliques, span, base, searched)

    monkeypatch.setattr(families, "_glue_search", recording)
    graphs = [g for g in _small_grid_members() if g.n <= 13] + full_corpus(0)
    # a path attachment glued beside other components spans less than g
    grids = acceptance_grids()
    graphs += [g for kind in (FamilyKind.C1NPQ, FamilyKind.C2NPQ)
               for g in (generate(params, seed) for params, seed in grids[kind]) if 13 < g.n <= 16]
    for g in graphs:
        recognize(g)
    checkers = {FamilyKind.C1N: check_chain_cert, FamilyKind.C2N: check_cycle_cert,
                FamilyKind.C3NQ: check_c3nq_cert}
    found = Counter()
    for g, span, base in dict.fromkeys(visited):
        order = [v for v in range(g.n) if span >> v & 1]
        sub = g.induced(order)
        cliques = families._span_cliques([sum(1 << v for v in c) for c in maximal_cliques(g)], span)
        assert cliques == [sum(1 << order[i] for i in c) for c in maximal_cliques(sub)]
        cert = families._base_search(base, g, span, lambda: cliques)
        recognizer, oracle = _ORACLES[base]
        expected = oracle(sub)
        assert (cert is None) == (expected is None), (base, emit_graph6(g), order)
        if cert is not None:
            local = _renamed(cert, {v: i for i, v in enumerate(order)})
            assert local == expected == recognizer(sub), (base, emit_graph6(g), order)
            assert checkers[base](sub, local) == []
        found[base, cert is not None] += 1
    assert len(found) == 6 and min(found.values()) >= 10, found


def plain_independent_triple_exists(g: Graph, choice_lists) -> bool:
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


def plain_heavy_pairs_hold(g: Graph, clique, u0) -> bool:
    """The frontier heavy-pair clause of the composed families on vertex
    sets, one pair at a time: every frontier triple of the clique (u0 and
    two other frontier vertices when u0 is set) whose outside neighbours can
    be chosen independent holds an adjacent pair with degree sum >= n."""
    inside = set(clique)

    def outside_neighbours(u):
        return [w for w in g.neighbors(u) if w not in inside]

    frontier = [u for u in sorted(inside) if outside_neighbours(u)]
    if u0 is None:
        triples = itertools.combinations(frontier, 3)
    else:
        others = [v for v in frontier if v != u0]
        triples = ((u0, u1, u2) for u1, u2 in itertools.combinations(others, 2))
    for trio in triples:
        if any(g.has_edge(a, b) and g.degree(a) + g.degree(b) >= g.n
               for a, b in itertools.combinations(trio, 2)):
            continue
        if plain_independent_triple_exists(g, [outside_neighbours(u) for u in trio]):
            return False
    return True


def test_frontier_heavy_pair_clause_matches_the_plain_oracle():
    # every maximal clique of the small grid members, the corpus and the
    # edits of the C1NP and C2NP members, with no u0 and with each vertex
    graphs = [g for g in _small_grid_members() if g.n <= 13] + full_corpus(0)
    graphs += _edits_of((FamilyKind.C1NP, FamilyKind.C2NP), 14)
    outcomes = Counter()
    for g in graphs:
        for clique in maximal_cliques(g):
            mask = sum(1 << v for v in clique)
            for u0 in (None, *sorted(clique)):
                held = families._heavy_pairs_hold(g, mask, u0)
                assert held == plain_heavy_pairs_hold(g, clique, u0), (emit_graph6(g), u0)
                outcomes[held] += 1
    assert outcomes[False] > 1000 and outcomes[True] > 30000
