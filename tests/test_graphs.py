import hashlib
import itertools
import random
import sys
import threading
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamclosure.closures import (
    bc_local,
    c_eligible,
    o_closure,
    parse_trace,
    r_eligible,
    supergraph_search,
)
from hamclosure.errors import FormatError, InputError
from hamclosure.families import FamilyKind, parse_params
from hamclosure.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    empty_graph,
    is_2_connected,
    is_connected,
    is_nonseparable,
    maximal_clique_masks,
    maximal_cliques,
    nonseparable,
    parse_edge_list,
    parse_graph6,
    path_graph,
    sample_graphs,
)
from hamclosure.hamiltonicity import is_hamiltonian
from hamclosure.heaviness import is_heavy
from hamclosure.patterns import PatternKind
from hamclosure.regions import decompose, generalized_claw_or_net
from hamclosure.verify import full_corpus, run_suite, verify_closure_preservation


def graphs_strategy(max_n=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        bits = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
        edges = []
        k = 0
        for u in range(n):
            for v in range(u + 1, n):
                if bits >> k & 1:
                    edges.append((u, v))
                k += 1
        return Graph.from_edges(n, edges)

    return build()


class TestConstruction:
    def test_c4_from_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.edge_count == 4
        assert g == cycle_graph(4)

    def test_empty(self):
        assert empty_graph(3).edge_count == 0

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Graph.from_edges(3, [(0, 3)])

    def test_loop_rejected(self):
        with pytest.raises(InputError):
            Graph.from_edges(3, [(1, 1)])

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), (0, "a"), (0, 1.0), (0, None), 5, None],
                             ids=repr)
    def test_malformed_edge_rejected(self, edge):
        # both constructors read an edge through one check
        with pytest.raises(InputError, match="is not a pair of vertices"):
            Graph.from_edges(3, [edge])
        with pytest.raises(InputError, match="is not a pair of vertices"):
            cycle_graph(4).add_edges([edge])

    def test_asymmetric_rows_rejected(self):
        with pytest.raises(InputError):
            Graph(2, (0b10, 0b00))

    @pytest.mark.parametrize("rows, message", [
        ((0b100, 0b000), "row 0 references vertices outside 0..1"),
        ((-1, 0), "row 0 references vertices outside 0..1"),
        ((0b01, 0), "loop at vertex 0"),
    ], ids=["bit-past-n", "negative", "loop"])
    def test_a_bad_row_is_refused_with_its_reason(self, rows, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            Graph(2, rows)

    @pytest.mark.parametrize("build", [
        lambda: Graph(2, [0, 0]),
        lambda: Graph(2, (0, "x")),
        lambda: Graph(2.0, (0, 0)),
        lambda: Graph.from_edges("3", []),
    ], ids=["rows-list", "row-str", "n-float", "from_edges-n-str"])
    def test_malformed_arguments_rejected(self, build):
        with pytest.raises(InputError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: complete_graph("a"),
        lambda: complete_graph(2.5),
        lambda: cycle_graph("a"),
        lambda: sample_graphs("a", 0.5, 0),
    ], ids=["complete-str", "complete-float", "cycle-str", "sampler-str"])
    def test_vertex_count_checked_before_use(self, build):
        # the sampler refuses at the call, not at its first draw
        with pytest.raises(InputError, match="vertex count .* is not a nonnegative int"):
            build()

    @given(graphs_strategy())
    def test_symmetry_and_irreflexivity(self, g):
        for v in range(g.n):
            assert not g.has_edge(v, v)
            for u in g.neighbors(v):
                assert g.has_edge(u, v) and g.has_edge(v, u)
        assert sum(g.degrees()) == 2 * g.edge_count

    def test_add_edges_returns_delta(self):
        g = path_graph(3)
        g2, added = g.add_edges([(0, 2), (0, 1)])
        assert added == ((0, 2),)
        assert g2 == complete_graph(3)
        assert g.edge_count == 2  # original untouched

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 0), (2, 2)])
    def test_add_edges_rejects_bad_edges(self, edge):
        # the result skips re-validation, so caller edges are checked on entry
        with pytest.raises(InputError):
            path_graph(3).add_edges([(0, 2), edge])

    @given(graphs_strategy(), st.data())
    def test_add_edges_result_passes_validation(self, g, data):
        extra = data.draw(st.lists(st.sampled_from(g.non_edges()))) if g.non_edges() else []
        g2, _ = g.add_edges(extra)
        assert Graph(g2.n, g2.rows) == g2


def test_the_degree_table_is_kept_beside_the_value():
    for g in full_corpus(0):
        degs, at = table = g.degree_table
        fresh = Graph(g.n, g.rows)
        assert g == fresh and hash(g) == hash(fresh)
        assert type(degs) is tuple and type(at) is tuple
        assert degs == tuple(len(g.neighbors(v)) for v in range(g.n))
        assert at == tuple(sum(1 << v for v in range(g.n) if degs[v] >= d)
                           for d in range(g.n + 1))
        o_closure(g)
        if len(g.non_edges()) <= 16:
            supergraph_search(g)
        assert g.degree_table is table and table == fresh.degree_table


def test_threads_reading_one_graph_see_one_table():
    # a table built twice by racing readers is built from the same rows, so
    # every reader sees the same value whichever build is kept
    corpus = full_corpus(0)
    expected = [Graph(g.n, g.rows).degree_table for g in corpus]
    shared = [Graph(g.n, g.rows) for g in corpus]
    seen = [[] for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda out: out.extend(g.degree_table for g in shared),
                                    args=(out,)) for out in seen]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert all(out == expected for out in seen)


class TestInduced:
    @pytest.mark.parametrize("vertices", [[0, 4], [-1, 1]])
    def test_out_of_range_rejected(self, vertices):
        with pytest.raises(InputError, match="out of range"):
            cycle_graph(4).induced(vertices)

    def test_c4_takes_p3(self):
        assert cycle_graph(4).induced([0, 1, 2]) == path_graph(3)

    def test_k4_takes_c3(self):
        assert complete_graph(4).induced([0, 1, 2]) == cycle_graph(3)

    def test_net_triangle(self, net):
        assert net.induced([0, 1, 2]) == cycle_graph(3)

    @given(graphs_strategy(8), st.data())
    def test_composition(self, g, data):
        s = data.draw(st.sets(st.integers(0, g.n - 1)))
        order = sorted(s)
        t = data.draw(st.sets(st.integers(0, len(order) - 1))) if order else set()
        inner = g.induced(order).induced(sorted(t))
        outer = g.induced([order[i] for i in sorted(t)])
        assert inner == outer
        assert Graph(outer.n, outer.rows) == outer


class TestConnectivity:
    def test_curated(self, curated):
        assert is_2_connected(curated["C4"])
        assert not is_2_connected(curated["P4"])
        assert not is_2_connected(curated["net"])
        assert not is_2_connected(path_graph(2))
        assert is_2_connected(complete_graph(3))

    def test_flood_agrees_with_set_dfs_on_all_small_graphs(self):
        for n in range(7):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = [e for k, e in enumerate(pairs) if bits >> k & 1]
                nonseparable = plain_nonseparable(n, edges)
                g = Graph.from_edges(n, edges)
                assert is_nonseparable(g) == nonseparable, edges
                assert is_2_connected(g) == (n >= 3 and nonseparable), edges

    def test_agrees_with_set_dfs_on_the_atlas_and_random_graphs(self):
        graphs = [(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()]
        graphs += [(g.n, g.edges()) for g in seeded_graphs()]
        answers = Counter()
        for n, edges in graphs:
            nonseparable = plain_nonseparable(n, edges)
            g = Graph.from_edges(n, edges)
            assert is_nonseparable(g) == nonseparable, (n, edges)
            assert is_2_connected(g) == (n >= 3 and nonseparable), (n, edges)
            answers[n >= 8, nonseparable] += 1
        # both answers occur among the atlas graphs and among the random ones
        assert min(answers.values()) >= 20 and len(answers) == 4, answers

    def test_a_span_reads_as_the_subgraph_it_induces(self):
        rng = random.Random(7)
        answers = Counter()
        for g in seeded_graphs():
            for dropped in (1, 2, 3, g.n // 2):
                span = g.full_mask
                for v in rng.sample(range(g.n), dropped):
                    span &= ~(1 << v)
                sub = g.induced([v for v in range(g.n) if span >> v & 1])
                expected = plain_nonseparable(sub.n, sub.edges())
                assert nonseparable(g.rows, span) == expected, (emit_graph6(g), bin(span))
                answers[expected] += 1
        assert not nonseparable(complete_graph(3).rows, 0)
        assert min(answers.values()) >= 100, answers

    def test_disconnected(self):
        assert not is_connected(empty_graph(2))
        assert is_connected(empty_graph(1))


def plain_nonseparable(n, edges) -> bool:
    """Connected, and connected after deleting each vertex, by a depth-first
    search over Python sets."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def connected(vertices):
        if not vertices:
            return True
        start = next(iter(vertices))
        seen, stack = {start}, [start]
        while stack:
            for u in adj[stack.pop()] & vertices - seen:
                seen.add(u)
                stack.append(u)
        return seen == vertices

    vertices = set(range(n))
    return n > 0 and connected(vertices) and all(connected(vertices - {v}) for v in vertices)


def seeded_graphs():
    """200 seeded G(n, p) draws with n in 8..20 and p in 0.1..0.6."""
    rng = random.Random(2024)
    graphs = []
    for _ in range(200):
        n, p = rng.randint(8, 20), rng.uniform(0.1, 0.6)
        graphs.append(Graph.from_edges(
            n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]))
    return graphs


def naive_maximal_cliques(g):
    cliques = []
    vertices = range(g.n)
    for r in range(1, g.n + 1):
        for sub in itertools.combinations(vertices, r):
            mask = sum(1 << v for v in sub)
            if not g.is_clique_mask(mask):
                continue
            if any(all(g.has_edge(u, w) for u in sub) for w in vertices if w not in sub):
                continue
            cliques.append(frozenset(sub))
    return sorted(cliques, key=sorted)


class TestMaximalCliques:
    def test_c5_gives_its_edges(self):
        assert [sorted(c) for c in maximal_cliques(cycle_graph(5))] == [
            [0, 1], [0, 4], [1, 2], [2, 3], [3, 4],
        ]

    def test_k4_single(self):
        assert maximal_cliques(complete_graph(4)) == [frozenset({0, 1, 2, 3})]

    def test_net_expected(self, net):
        assert [sorted(c) for c in maximal_cliques(net)] == [[0, 1, 2], [0, 3], [1, 4], [2, 5]]

    def test_against_subset_enumeration(self, corpus):
        small = [g for g in corpus if g.n <= 7][:120]
        seeded = [g for g in seeded_graphs() if g.n <= 13]
        assert small and len(seeded) >= 80
        for g in small + seeded:
            assert maximal_cliques(g) == naive_maximal_cliques(g), emit_graph6(g)

    def test_against_networkx_on_random_graphs(self):
        for g in seeded_graphs():
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            expected = sorted(sorted(c) for c in nx.find_cliques(h))
            assert [sorted(c) for c in maximal_cliques(g)] == expected, emit_graph6(g)

    def test_masks_are_the_cliques_in_order(self):
        # the masks in member-list order, read against networkx's cliques
        # as well as against the frozenset view
        shapes = [empty_graph(0), empty_graph(1), empty_graph(5), complete_graph(6),
                  Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])]
        atlas = [Graph.from_edges(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()]
        seeded = [g for n in range(2, 21) for p in (0.2, 0.5, 0.8)
                  for g in sample_graphs(n, p, seed=100 * n + int(10 * p), limit=2)]
        assert len(atlas) == 1253
        for g in shapes + atlas + seeded:
            masks = maximal_clique_masks(g)
            assert masks == [sum(1 << v for v in c) for c in maximal_cliques(g)], emit_graph6(g)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            expected = sorted(sorted(c) for c in nx.find_cliques(h)) if g.n else []
            assert masks == [sum(1 << v for v in c) for c in expected], emit_graph6(g)


class TestGraph6:
    def test_round_trip_curated(self, curated):
        for g in curated.values():
            assert parse_graph6(emit_graph6(g)) == g

    def test_single_vertex(self):
        assert parse_graph6(emit_graph6(empty_graph(1))) == empty_graph(1)

    @given(graphs_strategy(12))
    @settings(max_examples=150)
    def test_round_trip_random(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    def test_against_reference_implementation(self, corpus):
        for g in corpus[:150]:
            via_nx = nx.from_graph6_bytes(emit_graph6(g).encode("ascii"))
            assert sorted(tuple(sorted(e)) for e in via_nx.edges()) == g.edges()
            ours = parse_graph6(nx.to_graph6_bytes(via_nx, header=False).decode().strip())
            assert ours == g

    def test_reference_complete_graph(self):
        text = nx.to_graph6_bytes(nx.complete_graph(5), header=False).decode().strip()
        assert parse_graph6(text) == complete_graph(5)

    def test_header_stripped(self):
        g = cycle_graph(5)
        assert parse_graph6(">>graph6<<" + emit_graph6(g)) == g

    def test_truncated_reports_offset(self):
        text = emit_graph6(complete_graph(7))
        with pytest.raises(FormatError) as exc:
            parse_graph6(text[:-1])
        assert exc.value.offset is not None

    def test_bad_byte_offset(self):
        with pytest.raises(FormatError) as exc:
            parse_graph6("C ")
        assert exc.value.offset == 1

    def test_large_n_header(self):
        g = empty_graph(70)
        assert parse_graph6(emit_graph6(g)) == g

    @pytest.mark.parametrize("n", [*range(21), 63])
    def test_round_trip_both_ways(self, n):
        # n = 63 is the first order with the four-byte header
        graphs = [empty_graph(n), complete_graph(n)]
        graphs += [g for p in (0.3, 0.7) for g in sample_graphs(n, p, seed=n, limit=3)]
        for g in graphs:
            text = emit_graph6(g)
            assert parse_graph6(text) == g
            assert parse_graph6(">>graph6<<" + text) == g
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            reference = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert text == reference
            assert emit_graph6(parse_graph6(reference)) == reference
            assert emit_graph6(parse_graph6(">>graph6<<" + reference)) == reference


class TestEdgeListAndDot:
    def test_round_trip(self, curated):
        for g in curated.values():
            assert parse_edge_list(emit_edge_list(g)) == g

    def test_header_mismatch(self):
        with pytest.raises(FormatError):
            parse_edge_list("3 2\n0 1\n")

    def test_dot_shape(self):
        text = emit_dot(path_graph(3))
        assert text.startswith("graph G {")
        assert "0 -- 1;" in text and "1 -- 2;" in text


class TestSampler:
    def test_deterministic(self):
        a = list(sample_graphs(8, 0.5, seed=42, limit=5))
        b = list(sample_graphs(8, 0.5, seed=42, limit=5))
        assert a == b

    def test_deterministic_with_filter(self):
        from hamclosure.heaviness import is_pattern_o_heavy
        from hamclosure.patterns import PatternKind

        claw_o_heavy = lambda g: is_pattern_o_heavy(g, PatternKind.CLAW)
        a = list(itertools.islice(filter(claw_o_heavy, sample_graphs(8, 0.5, seed=42)), 6))
        b = list(itertools.islice(filter(claw_o_heavy, sample_graphs(8, 0.5, seed=42)), 6))
        assert a == b and len(a) == 6

    def test_p_one_gives_complete(self):
        graphs = list(filter(is_connected, sample_graphs(5, 1.0, seed=7, limit=3)))
        assert graphs == [complete_graph(5)] * 3

    def test_draws_are_pinned(self):
        # graph6 of seven draws per order 0..16 and edge probability: any
        # change to the sampler's random() order or edge rule moves this digest
        digest = hashlib.sha256()
        for n in range(17):
            for j, p in enumerate((0, 0.3, 0.5, 0.7, 1)):
                for g in sample_graphs(n, p, seed=n * 10 + j, limit=7):
                    digest.update(emit_graph6(g).encode() + b"\n")
        assert digest.hexdigest() == \
            "aa3882619a25bc80cfc8dfed1ac4abf2c07842106aed3980193e9b6a71fd4488"

    def test_bad_probability(self):
        with pytest.raises(InputError):
            sample_graphs(4, 1.5, seed=0)

    @pytest.mark.parametrize("build,message", [
        (lambda: sample_graphs(5, "a", 0), "edge probability 'a' is not a number"),
        (lambda: sample_graphs(5, None, 0), "edge probability None is not a number"),
        (lambda: sample_graphs(5, 0.5, 0, limit=2.5), "sample limit 2.5 is not an int"),
        (lambda: sample_graphs(6, 0.5, seed=None, limit=3), "sample seed None is not an int"),
        (lambda: sample_graphs(6, 0.5, seed=[1], limit=3), r"sample seed \[1\] is not an int"),
    ], ids=["p-str", "p-none", "limit-float", "seed-none", "seed-list"])
    def test_sampler_arguments_are_typed(self, build, message):
        # refused at the call, not at the first draw
        with pytest.raises(InputError, match=message):
            build()


def test_bipartite_constructor():
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.edge_count == 6
    assert not g.has_edge(0, 1) and g.has_edge(0, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: c_eligible(cycle_graph(5), 1.0), "is not an int"),
    (lambda: bc_local(cycle_graph(5), 1.0), "is not an int"),
    (lambda: r_eligible(cycle_graph(5), "a"), "is not an int"),
    (lambda: is_heavy(cycle_graph(5), "a"), "is not an int"),
    (lambda: cycle_graph(5).induced(["a"]), "is not an int"),
    (lambda: cycle_graph(5).induced([0.5, 1]), "is not an int"),
    (lambda: generalized_claw_or_net(path_graph(5), 0, 2.0, 4), "is not an int"),
    (lambda: generalized_claw_or_net(path_graph(5), 0, [1], 4), "is not an int"),
    (lambda: decompose(cycle_graph(5)).is_interior(9), "vertex 9 out of range"),
    (lambda: decompose(cycle_graph(5)).is_interior(-1), "vertex -1 out of range"),
    (lambda: decompose(cycle_graph(5)).is_frontier(-3), "vertex -3 out of range"),
    (lambda: decompose(cycle_graph(5)).associated(0, 5), "vertex 5 out of range"),
    (lambda: c_eligible(cycle_graph(5), 5), "vertex 5 out of range"),
    (lambda: decompose(cycle_graph(5)).interior_vertices(99), "region index 99 out of range"),
    (lambda: decompose(cycle_graph(5)).interior_vertices(-1), "region index -1 out of range"),
    (lambda: decompose(cycle_graph(5)).interior_vertices(0.0), "region index 0.0 is not an int"),
], ids=["c_eligible", "bc_local", "r_eligible", "is_heavy", "induced-str", "induced-float",
        "finder-float", "finder-list", "is_interior-9", "is_interior-neg", "is_frontier-neg",
        "associated", "c_eligible-range", "interior_vertices-99", "interior_vertices-neg",
        "interior_vertices-float"])
def test_vertex_arguments_are_checked(call, message):
    # every single-vertex entry point reads its vertex through one check
    with pytest.raises(InputError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: Graph(True, (0,)), "vertex count True is not a nonnegative int"),
    (lambda: Graph(1, (False,)), "row 0 is not an int mask"),
    (lambda: complete_graph(True), "vertex count True is not a nonnegative int"),
    (lambda: Graph.from_edges(3, [(True, 2)]), r"edge \(True, 2\) is not a pair of vertices"),
    (lambda: cycle_graph(4).add_edges([(0, False)]), "is not a pair of vertices"),
    (lambda: is_heavy(cycle_graph(5), True), "vertex True is not an int"),
    (lambda: cycle_graph(5).induced([False, 1]), "vertex False is not an int"),
    (lambda: c_eligible(cycle_graph(5), True), "vertex True is not an int"),
    (lambda: decompose(cycle_graph(5)).interior_vertices(False),
     "region index False is not an int"),
    (lambda: sample_graphs(4, 0.5, seed=False, limit=1), "sample seed False is not an int"),
    (lambda: sample_graphs(4, 0.5, seed=0, limit=True), "sample limit True is not an int"),
    (lambda: sample_graphs(4, True, seed=0, limit=1), "edge probability True is not a number"),
    (lambda: is_hamiltonian(cycle_graph(5), node_budget=True), "node budget True is not an int"),
    (lambda: supergraph_search(cycle_graph(4), budget=True),
     "supergraph search budget True is not an int"),
    (lambda: run_suite("detector-oracle", seed=True), "suite seed True is not an int"),
], ids=["order", "row", "complete-order", "from_edges", "add_edges", "is_heavy", "induced",
        "c_eligible", "interior_vertices", "sample-seed", "sample-limit", "sample-p",
        "node-budget", "supergraph-budget", "suite-seed"])
def test_a_bool_is_not_an_int(call, message):
    # isinstance(True, int) holds, so every typed argument refuses bool by name
    with pytest.raises(InputError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: run_suite(["uniqueness"]), r"suite name \['uniqueness'\] is not a str"),
    (lambda: verify_closure_preservation(cycle_graph(4), ["o"]),
     r"closure kind \['o'\] is not a str"),
    (lambda: PatternKind.from_name(3), "pattern name 3 is not a str"),
    (lambda: FamilyKind.from_name(None), "family name None is not a str"),
    (lambda: parse_graph6(5), "graph6 text 5 is not a str"),
    (lambda: parse_graph6(b"C~"), "graph6 text b'C~' is not a str"),
    (lambda: parse_edge_list(5), "edge list text 5 is not a str"),
    (lambda: parse_trace(None), "trace text None is not a str"),
    (lambda: parse_params(5), "params text 5 is not a str"),
], ids=["suite-name", "closure-kind", "pattern-name", "family-name", "graph6", "graph6-bytes",
        "edge-list", "trace", "params"])
def test_a_name_or_text_that_is_not_a_str_is_refused(call, message):
    # every name and every text to parse is read through one str test
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("seed, message", [
    ("a", "suite seed 'a' is not an int"),
    (None, "suite seed None is not an int"),
    (1.5, "suite seed 1.5 is not an int"),
], ids=["str", "none", "float"])
def test_a_suite_seed_is_typed(seed, message):
    # refused at entry, not as a sample seed the suite folded it into
    with pytest.raises(InputError, match=message):
        run_suite("detector-oracle", seed=seed)


@pytest.mark.parametrize("call, message", [
    (lambda: supergraph_search(complete_graph(4), budget=-1),
     "supergraph search budget -1 is negative"),
    (lambda: is_hamiltonian(cycle_graph(5), node_budget=-1), "node budget -1 is negative"),
    (lambda: sample_graphs(4, 0.5, seed=1, limit=-1), "sample limit -1 is negative"),
    (lambda: run_suite("uniqueness", node_budget=-1), "node budget -1 is negative"),
], ids=["supergraph-budget", "node-budget", "sample-limit", "suite-node-budget"])
def test_a_negative_budget_or_limit_is_refused(call, message):
    # a negative budget would refuse every graph or stop at once as UNDECIDED,
    # and a negative limit would yield nothing; each is refused at the call
    with pytest.raises(InputError, match=message):
        call()


def test_zero_budgets_and_negative_seeds_are_taken():
    assert supergraph_search(complete_graph(4), budget=0).nodes == 1
    assert is_hamiltonian(cycle_graph(5), node_budget=0).undecided
    assert list(sample_graphs(4, 0.5, seed=1, limit=0)) == []
    # a seed is any int
    assert len(list(sample_graphs(4, 0.5, seed=-3, limit=2))) == 2
