import hashlib
import inspect
import random
import re
from itertools import combinations

import pytest

from hamclosure.closures import (
    ClosureTrace,
    bc_local,
    c_closure,
    c_eligible,
    closures_of,
    is_c_closed,
    minimum_supergraph_oracle,
    o_closure,
    parse_trace,
    r_closure,
    r_eligible,
    replay_steps,
    supergraph_search,
    trace_to_text,
    validate_c_trace,
)
from hamclosure.errors import BudgetError, InputError, NonUniqueMinimumError, PreconditionError
from hamclosure.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    sample_graphs,
)
from hamclosure.heaviness import is_pattern_o_heavy, o_heavy_pairs
from hamclosure.patterns import REFERENCE, PatternKind, has_induced, is_free
from hamclosure.verify import _relabel, claw_o_heavy_samples


def test_every_closure_takes_only_the_graph():
    # each closure picks its least candidate; there is no order to choose
    for closure in (o_closure, r_closure, c_closure, closures_of):
        assert tuple(inspect.signature(closure).parameters) == ("g",), closure.__name__


_C_UNDEFINED = "input has an induced claw with no o-heavy pair: degree-sum completion undefined"


@pytest.mark.parametrize("check,message", [
    (r_closure, "input not claw-free: r-closure undefined"),
    (lambda g: r_eligible(g, 0), "r-eligibility is defined for claw-free graphs only"),
    (c_closure, _C_UNDEFINED),
    (lambda g: c_eligible(g, 0), _C_UNDEFINED),
    (is_c_closed, _C_UNDEFINED),
], ids=["r_closure", "r_eligible", "c_closure", "c_eligible", "is_c_closed"])
def test_checked_entry_points_reject_the_claw(check, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        check(REFERENCE[PatternKind.CLAW])


def test_closures_of_holds_exactly_the_closures_defined_on_g(corpus):
    for g in corpus:
        expected = {"o": o_closure(g)}
        if not has_induced(g, PatternKind.CLAW):
            expected["r"] = r_closure(g)
        if is_pattern_o_heavy(g, PatternKind.CLAW):
            expected["c"] = c_closure(g)
        ladder = closures_of(g)
        assert list(ladder) == list(expected)
        assert ladder == expected


class TestOClosure:
    def test_c4_becomes_k4(self):
        closed, trace = o_closure(cycle_graph(4))
        assert closed == complete_graph(4)
        assert len(trace.steps) == 2

    def test_p3_fixed(self):
        assert o_closure(path_graph(3))[0] == path_graph(3)

    def test_k23_adds_exactly_the_heavy_diagonal(self):
        closed, _ = o_closure(complete_bipartite(2, 3))
        assert closed.has_edge(0, 1)
        assert closed.edge_count == 7
        assert not o_heavy_pairs(closed)

    def test_relabelled_copies_close_alike(self, corpus):
        # a relabelled copy joins its pairs in another order, and must reach
        # the relabelled closure
        rng = random.Random(11)
        for g in corpus[:80]:
            closed = o_closure(g)[0]
            for perm in (range(g.n - 1, -1, -1), rng.sample(range(g.n), g.n)):
                assert o_closure(_relabel(g, perm))[0] == _relabel(closed, perm)

    def test_trace_replay(self):
        g = complete_bipartite(2, 3)
        closed, trace = o_closure(g)
        assert trace.replay() == closed
        assert replay_steps(g, trace.steps) == closed


class TestRClosure:
    def test_eligibility_examples(self, net):
        diamond = REFERENCE[PatternKind.DIAMOND]
        assert r_eligible(diamond, 0)
        assert not r_eligible(cycle_graph(5), 0)
        assert not r_eligible(net, 0)

    def test_diamond_single_step_to_k4(self):
        closed, trace = r_closure(REFERENCE[PatternKind.DIAMOND])
        assert closed == complete_graph(4)
        assert len(trace.steps) == 1

    def test_c5_and_bull_fixed(self):
        assert r_closure(cycle_graph(5))[0] == cycle_graph(5)
        bull = REFERENCE[PatternKind.BULL]
        assert r_closure(bull)[0] == bull

    def test_claw_input_rejected(self):
        with pytest.raises(PreconditionError):
            r_closure(REFERENCE[PatternKind.CLAW])
        with pytest.raises(PreconditionError):
            r_eligible(REFERENCE[PatternKind.CLAW], 0)

    def test_output_contract(self, corpus):
        for g in corpus[:120]:
            if not is_free(g, (PatternKind.CLAW,)):
                continue
            closed, _ = r_closure(g)
            assert is_free(closed, (PatternKind.CLAW, PatternKind.DIAMOND))


class TestCEligibility:
    def test_bc_local_examples(self, net):
        assert bc_local(cycle_graph(4), 0) == [(1, 3)]
        assert bc_local(net, 0) == []
        assert bc_local(complete_graph(4), 0) == []

    def test_c4_is_eligible_though_its_augmented_neighbourhood_is_complete(self):
        # the o-heavy pair 13 completes N(0) = {1, 3}, so asking for a
        # non-clique after the degree-sum edges are added finds no vertex
        # eligible and keeps C4 with that pair; N(0) is not a clique of C4
        # itself, so 0 is eligible and the closure reaches the oracle's K4
        c4 = cycle_graph(4)
        assert bc_local(c4, 0) == [(1, 3)]
        assert c_eligible(c4, 0)
        assert c_closure(c4)[0] == minimum_supergraph_oracle(c4) == complete_graph(4)

    def test_net_corner_not_eligible(self, net):
        assert not c_eligible(net, 0)

    def test_precondition_checked(self):
        with pytest.raises(PreconditionError):
            c_eligible(REFERENCE[PatternKind.CLAW], 0)


class TestCClosure:
    def test_examples(self, net, g8):
        assert c_closure(net)[0] == net
        assert c_closure(cycle_graph(4))[0] == complete_graph(4)
        assert c_closure(g8)[0] == g8
        assert is_c_closed(net) and is_c_closed(g8)
        assert not is_c_closed(cycle_graph(4))

    def test_small_graphs_unchanged(self):
        for n in range(3):
            g = empty_graph(n)
            assert o_closure(g)[0] == g
            if n > 0:
                assert c_closure(g)[0] == g
        two = Graph.from_edges(2, [(0, 1)])
        assert c_closure(two)[0] == two

    def test_trace_laws(self, corpus):
        checked = 0
        for g in corpus[:120]:
            if not is_pattern_o_heavy(g, PatternKind.CLAW):
                continue
            _, trace = c_closure(g)
            assert validate_c_trace(trace) == []
            checked += 1
        assert checked > 5

    def test_heavy_vertices_pairwise_adjacent_after_closure(self, corpus):
        from hamclosure.heaviness import heavy_vertices

        for g in corpus[:120]:
            if not is_pattern_o_heavy(g, PatternKind.CLAW):
                continue
            closed, _ = c_closure(g)
            heavy = heavy_vertices(closed)
            for i, u in enumerate(heavy):
                for v in heavy[i + 1:]:
                    assert closed.has_edge(u, v)


class TestSupergraphOracle:
    def test_c4(self):
        assert minimum_supergraph_oracle(cycle_graph(4)) == complete_graph(4)

    def test_net_already_minimal(self, net):
        assert minimum_supergraph_oracle(net) == net

    def test_g8_already_minimal(self, g8):
        assert minimum_supergraph_oracle(g8, budget=16) == g8

    def test_claw_minimum_is_not_unique(self):
        # the precondition boundary: the search is well-defined on any
        # graph, but on the claw three symmetric one-edge supergraphs tie
        claw = REFERENCE[PatternKind.CLAW]
        search = supergraph_search(claw)
        assert len(search.minima) == 3
        assert all(len(m) == 1 for m in search.minima)
        assert not search.unique_minimum
        with pytest.raises(NonUniqueMinimumError):
            minimum_supergraph_oracle(claw)
        with pytest.raises(PreconditionError):
            c_closure(claw)

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            minimum_supergraph_oracle(empty_graph(8), budget=16)

    @pytest.mark.parametrize("budget", ["a", 2.5, None], ids=["str", "float", "none"])
    def test_budget_must_be_an_int(self, budget):
        with pytest.raises(InputError, match="supergraph search budget .* is not an int"):
            supergraph_search(cycle_graph(4), budget=budget)
        with pytest.raises(InputError, match="supergraph search budget .* is not an int"):
            minimum_supergraph_oracle(cycle_graph(4), budget=budget)

    def test_nodes_within_the_full_tree(self, corpus):
        for g in [cycle_graph(4), complete_graph(5), *claw_o_heavy_samples(corpus)[:40]]:
            if len(g.non_edges()) > 12:
                continue
            search = supergraph_search(g)
            assert 1 <= search.nodes <= 2 ** (len(search.non_edges) + 1) - 1
            assert supergraph_search(g).nodes == search.nodes

    @pytest.mark.parametrize("g", [empty_graph(0), complete_graph(1), complete_graph(5)],
                             ids=["n0", "K1", "K5"])
    def test_graph_without_non_edges_is_one_leaf(self, g):
        search = supergraph_search(g)
        assert search.non_edges == ()
        assert search.nodes == 1
        assert search.satisfying == (frozenset(),)
        assert search.unique_minimum
        assert minimum_supergraph_oracle(g) == g

    def test_include_branch_dies_on_the_o_heavy_check(self):
        # the path 2-1-0-3 with non-edges 02, 13, 23 in that order. With both
        # diagonals left out, joining 23 closes the 4-cycle 0-1-2-3: its one
        # closing set reads no claw or diamond, but each diagonal now has
        # degree sum 4 = n, so only the o-heavy check drops {23}
        g = Graph.from_edges(4, [(0, 1), (0, 3), (1, 2)])
        search = supergraph_search(g)
        assert search.non_edges == ((0, 2), (1, 3), (2, 3))
        assert g.add_edges([(2, 3)])[0] == cycle_graph(4)
        assert frozenset({(2, 3)}) not in search.satisfying
        assert search.satisfying == plain_supergraph_enumeration(g)[1]
        assert search.nodes == 11

    def test_prune_cuts_the_tree_on_c6(self):
        search = supergraph_search(cycle_graph(6))
        assert search.nodes < 2 ** len(search.non_edges)

    def test_node_total_on_the_oracle_corpus(self, corpus):
        # the graphs of the supergraph-oracle benchmark, before relabelling
        small = [g for g in claw_o_heavy_samples(corpus) if len(g.non_edges()) <= 14]
        assert len(small) == 227
        assert sum(supergraph_search(g, budget=14).nodes for g in small) == 24393

    def test_records_on_the_oracle_corpus(self, corpus):
        # every record field, pinned over the claw-o-heavy corpus graphs up
        # to the 18-non-edge cap: a faster walk must return the same records
        digest = hashlib.sha256()
        checked = 0
        for g in claw_o_heavy_samples(corpus):
            if len(g.non_edges()) > 18:
                continue
            search = supergraph_search(g, budget=18)
            record = (search.non_edges, [sorted(s) for s in search.satisfying], search.nodes)
            digest.update(repr(record).encode())
            checked += 1
        assert checked == 249
        assert digest.hexdigest() == \
            "5f519cdbbc5aa2949552dc3e7b41a96a6cc19f686869af33b672714ab42159f8"

    def test_records_on_sampled_graphs(self):
        # seeded G(n, p) draws beyond the oracle corpus, n 7..12, up to 16
        # non-edges, recorded before the walk read its sets by anchor masks
        digest = hashlib.sha256()
        checked = nodes = 0
        for n in range(7, 13):
            for p in (0.5, 0.7, 0.85):
                for g in sample_graphs(n, p, seed=100 * n + round(100 * p), limit=40):
                    if len(g.non_edges()) > 16:
                        continue
                    search = supergraph_search(g)
                    record = (search.non_edges, [sorted(s) for s in search.satisfying],
                              search.nodes)
                    digest.update(repr(record).encode())
                    checked += 1
                    nodes += search.nodes
        assert (checked, nodes) == (497, 8716)
        assert digest.hexdigest() == \
            "8ea2415e42cb0b75e5072a8f3578948d1538f41e6482cf42ef54e570628e0aa6"


def target_holds(g: Graph) -> bool:
    """Claw-free, diamond-free and without an o-heavy pair, read from the
    pattern detectors and the heavy-pair list."""
    return (
        not has_induced(g, PatternKind.CLAW)
        and not has_induced(g, PatternKind.DIAMOND)
        and not o_heavy_pairs(g)
    )


def plain_supergraph_enumeration(g: Graph):
    """Every subset of non-edges, one rebuilt graph each, in combinations
    order: the enumeration the pruned search must reproduce."""
    non_edges = tuple(g.non_edges())
    satisfying = []
    for size in range(len(non_edges) + 1):
        for subset in combinations(non_edges, size):
            cand, _ = g.add_edges(subset)
            if target_holds(cand):
                satisfying.append(frozenset(subset))
    least_size = min(len(s) for s in satisfying)
    minima = tuple(s for s in satisfying if len(s) == least_size)
    return non_edges, tuple(satisfying), minima


def labelled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


class TestPrunedSearchMatchesPlainEnumeration:
    @pytest.mark.parametrize("n", [4, 5])
    def test_every_labelled_graph(self, n):
        for g in labelled_graphs(n):
            search = supergraph_search(g)
            assert (search.non_edges, search.satisfying, search.minima) == \
                plain_supergraph_enumeration(g), g.rows

    def test_claw_o_heavy_corpus(self, corpus):
        checked = 0
        for g in claw_o_heavy_samples(corpus):
            if len(g.non_edges()) > 8:
                continue
            search = supergraph_search(g)
            assert (search.non_edges, search.satisfying, search.minima) == \
                plain_supergraph_enumeration(g), g.rows
            checked += 1
        assert checked > 20

    def test_every_reported_set_satisfies_the_target(self, corpus):
        # past 8 non-edges the plain enumeration is too slow to compare;
        # soundness is still checked set by set up to 18
        checked = 0
        for g in claw_o_heavy_samples(corpus):
            if len(g.non_edges()) > 18:
                continue
            search = supergraph_search(g, budget=18)
            for added in search.satisfying:
                assert target_holds(search.graph_for(added)), (g.rows, sorted(added))
                checked += 1
        assert checked == 19391


class TestTraceFormat:
    def test_round_trip(self):
        _, trace = c_closure(cycle_graph(4))
        text = trace_to_text(trace)
        assert parse_trace(text) == trace.steps
        for line in text.splitlines():
            assert " += " in line

    def test_o_pair_subject_format(self):
        _, trace = o_closure(complete_bipartite(2, 3))
        text = trace_to_text(trace)
        assert text.splitlines()[0].startswith("o-pair 0-1 += 0-1")


class TestTraceReplayAndLaws:
    def test_step_that_completes_nothing_is_reported(self):
        c4 = cycle_graph(4)
        trace = ClosureTrace(c4, c4, parse_trace("c-completion 0 += 0-1\n"))
        problems = validate_c_trace(trace)
        assert problems == ["step 0: added edges are not the missing pairs of N(0)"]

    def test_step_at_an_unknown_vertex_is_reported(self):
        c4 = cycle_graph(4)
        trace = ClosureTrace(c4, c4, parse_trace("c-completion 9 += 0-2\n"))
        assert validate_c_trace(trace)[0] == "step 0: vertex 9 out of range"

    def test_replaying_an_existing_edge_is_an_input_error(self):
        with pytest.raises(InputError, match="re-added existing edges"):
            replay_steps(cycle_graph(4), parse_trace("o-pair 0-2 += 0-1\n"))

    def test_replay_to_a_different_final_graph_is_an_input_error(self):
        c4 = cycle_graph(4)
        with pytest.raises(InputError, match="final graph"):
            ClosureTrace(c4, complete_graph(4), ()).replay()
