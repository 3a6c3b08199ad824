import itertools
import random

import pytest

from hamclosure.errors import BudgetError, InputError
from hamclosure.families import generate
from hamclosure.graphs import (
    Graph,
    _bits,
    complete_bipartite,
    cycle_graph,
    emit_graph6,
    empty_graph,
    flood,
    is_2_connected,
    parse_graph6,
    path_graph,
    sample_graphs,
)
from hamclosure.hamiltonicity import DEFAULT_NODE_BUDGET, is_hamiltonian, validate_cycle
from hamclosure.patterns import PatternKind, REFERENCE, is_free
from hamclosure.verify import (
    acceptance_grids,
    full_corpus,
    run_suite,
    verify_closure_preservation,
)


class TestOracle:
    def test_c5(self):
        cert = is_hamiltonian(cycle_graph(5))
        assert cert.result is True
        assert cert.cycle == (0, 1, 2, 3, 4)
        assert validate_cycle(cycle_graph(5), cert.cycle)

    def test_unbalanced_bipartite(self):
        assert is_hamiltonian(complete_bipartite(2, 3)).result is False

    def test_g8(self, g8):
        cert = is_hamiltonian(g8)
        assert cert.result is True
        assert validate_cycle(g8, cert.cycle)

    def test_small_orders_are_non_hamiltonian(self):
        for n in (0, 1, 2):
            cert = is_hamiltonian(empty_graph(n))
            assert cert.result is False
            assert cert.note

    def test_path_and_tree(self):
        assert is_hamiltonian(path_graph(5)).result is False
        assert is_hamiltonian(REFERENCE[PatternKind.CLAW]).result is False

    def test_cycle_certificates_validate(self, corpus):
        for g in corpus[:150]:
            cert = is_hamiltonian(g)
            if cert.result:
                assert validate_cycle(g, cert.cycle)
            else:
                assert cert.cycle is None

    def test_budget_exhaustion_is_explicit(self):
        cert = is_hamiltonian(cycle_graph(12), node_budget=2)
        assert cert.undecided and cert.result is None
        assert "budget" in cert.note

    def test_env_budget(self, monkeypatch):
        # the budget comes from the argument alone; the environment sets nothing
        monkeypatch.setenv("HAMCLOSURE_NODE_BUDGET", "3")
        cert = is_hamiltonian(cycle_graph(12))
        assert cert.result is True and cert.nodes_explored > 3


class TestClosurePreservation:
    def test_examples(self, net):
        assert verify_closure_preservation(cycle_graph(4), "o")
        assert verify_closure_preservation(net, "c")
        assert verify_closure_preservation(REFERENCE[PatternKind.DIAMOND], "r")

    def test_kind_validation(self):
        with pytest.raises(Exception):
            verify_closure_preservation(cycle_graph(4), "x")

    def test_budget_surfaces(self):
        with pytest.raises(BudgetError):
            verify_closure_preservation(cycle_graph(12), "o", node_budget=2)


@pytest.mark.parametrize("budget", ["a", 2.5, [3]], ids=["str", "float", "list"])
def test_node_budget_must_be_an_int(budget):
    with pytest.raises(InputError, match="node budget .* is not an int"):
        is_hamiltonian(cycle_graph(5), budget)
    # None means the default budget; an int is taken as given
    assert is_hamiltonian(cycle_graph(5), None).result is True
    assert is_hamiltonian(cycle_graph(5), 2).undecided


# budgets at which each suite's oracle runs out on some graph but not all:
# an exhausted search is no evidence against the claim being checked
@pytest.mark.parametrize("suite,budget", [
    ("closure-preservation", 40), ("family-forward", 40), ("npq-hamiltonicity", 10),
])
def test_budget_exhaustion_reads_undecided(suite, budget):
    result = run_suite(suite, seed=0, node_budget=budget)
    assert result.failures
    assert all("oracle undecided" in f for f in result.failures), result.failures[:3]


def test_claw_net_free_two_connected_implies_hamiltonian(corpus):
    hits = 0
    for g in corpus:
        if g.n < 3 or not is_free(g, (PatternKind.CLAW, PatternKind.NET)):
            continue
        from hamclosure.graphs import is_2_connected

        if not is_2_connected(g):
            continue
        assert is_hamiltonian(g).result is True
        hits += 1
    assert hits > 10


def held_karp_hamiltonian(g: Graph) -> bool:
    """Held-Karp subset DP: reach[S] is the mask of the ends of the paths
    from vertex 0 that visit exactly the vertices of S."""
    if g.n < 3:
        return False
    rows = [sum(1 << w for w in range(g.n) if g.has_edge(v, w)) for v in range(g.n)]
    reach = [0] * (1 << g.n)
    reach[1] = 1
    for s in range(1, 1 << g.n, 2):
        for v in range(g.n):
            if reach[s] >> v & 1:
                for w in range(g.n):
                    if rows[v] >> w & 1 and not s >> w & 1:
                        reach[s | 1 << w] |= 1 << w
    return bool(reach[-1] & rows[0])


def _labelled_graphs(max_n: int):
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def _hamiltonicity_inputs(name):
    if name == "labelled-order-5":
        return list(_labelled_graphs(5))
    if name == "corpus":
        return full_corpus(0)
    if name == "sampled":
        return [g for n in range(8, 15)
                for g in itertools.islice(
                    filter(is_2_connected, sample_graphs(n, 0.3, seed=n)), 30)]
    if name == "bipartite":
        return _bipartite_graphs()
    max_n = {"grid": 12, "grid-15": 15}[name]
    members = (generate(params, seed) for grid in acceptance_grids().values()
               for params, seed in grid)
    return list(dict.fromkeys(g for g in members if g.n <= max_n))


def _bipartite_graphs() -> list[Graph]:
    """2-connected random bipartite graphs with sides of 3..6 and 3..8
    vertices, balanced and not; vertex 0 is not always on the smaller side."""
    rng = random.Random(13)
    graphs = []
    for a in range(3, 7):
        for b in range(3, min(a + 2, 6) + 1):
            for _ in range(12):
                perm = rng.sample(range(a + b), a + b)
                edges = [(perm[u], perm[a + v]) for u in range(a) for v in range(b)
                         if rng.random() < 0.7]
                g = Graph.from_edges(a + b, edges)
                if is_2_connected(g):
                    graphs.append(g)
    return graphs


@pytest.mark.parametrize("inputs", ["labelled-order-5", "corpus", "grid", "bipartite"])
def test_hamiltonicity_matches_the_subset_dp(inputs):
    for g in _hamiltonicity_inputs(inputs):
        assert is_hamiltonian(g).result is held_karp_hamiltonian(g), emit_graph6(g)


def plain_hamiltonian_search(g: Graph) -> tuple[bool, tuple[int, ...] | None, int]:
    """The unpruned backtracking search: depth-first from vertex 0, neighbours
    ascending, every child checked for usable degrees and connectivity on its
    own, no memo. Returns (result, cycle, nodes); the pruned search must find
    the same first cycle in no more nodes."""
    if g.n < 3 or min(g.degrees()) < 2 or not is_2_connected(g):
        return False, None, 0
    rows = [g.row(v) for v in range(g.n)]
    full = g.full_mask
    start_bit = 1
    nodes = 0
    path = [0]

    def feasible(visited: int, cur: int) -> bool:
        remaining = full & ~visited
        if remaining == 0:
            return True
        usable = remaining | (1 << cur) | start_bit
        for v in _bits(remaining):
            if (rows[v] & usable).bit_count() < 2:
                return False
        return remaining & ~flood(rows, 1 << cur, remaining) == 0

    def search(visited: int, cur: int) -> bool:
        nonlocal nodes
        nodes += 1
        if visited == full:
            return bool(rows[cur] & start_bit)
        for v in _bits(rows[cur] & ~visited):
            bit = 1 << v
            if not feasible(visited | bit, v):
                continue
            path.append(v)
            if search(visited | bit, v):
                return True
            path.pop()
        return False

    if search(start_bit, 0):
        return True, tuple(path), nodes
    return False, None, nodes


@pytest.mark.parametrize("inputs", ["labelled-order-5", "corpus", "grid-15", "sampled",
                                    "bipartite"])
def test_pruned_search_matches_the_plain_search(inputs):
    for g in _hamiltonicity_inputs(inputs):
        cert = is_hamiltonian(g)
        result, cycle, nodes = plain_hamiltonian_search(g)
        assert (cert.result, cert.cycle) == (result, cycle), emit_graph6(g)
        assert cert.nodes_explored <= nodes, emit_graph6(g)
        if cert.nodes_explored:
            # one node short of what the search needs, it must not decide
            assert is_hamiltonian(g, node_budget=cert.nodes_explored - 1).undecided


def test_heavy_grid_member_decides_within_a_small_budget():
    # a 20-vertex C1NP grid member; the unpruned search explores 522,506 nodes
    g = parse_graph6("S~~~~~~~~~~~?CG?_?W???@C?_WA?_O?c")
    cert = is_hamiltonian(g, node_budget=20_000)
    assert cert.result is True
    assert validate_cycle(g, cert.cycle)
    assert cert.cache_hits > 0


def state_bound(n: int) -> int:
    """The root plus one node per (visited, end) state: vertex 0 is always
    visited and the end is one of the other n - 1 visited vertices."""
    return 1 + (n - 1) * 2 ** (n - 2)


def test_nodes_explored_stays_under_the_state_bound(corpus):
    # a state whose subtree failed is in the memo and a success ends the
    # search, so no state is entered twice
    assert state_bound(20) == 4_980_737 < DEFAULT_NODE_BUDGET
    for g in corpus:
        if g.n >= 3:
            assert is_hamiltonian(g).nodes_explored <= state_bound(g.n), emit_graph6(g)
    # one edge inside the larger side passes the bipartite gate to the search
    g, _ = complete_bipartite(6, 8).add_edges([(6, 7)])
    cert = is_hamiltonian(g)
    assert (cert.result, cert.nodes_explored, state_bound(14)) == (False, 11_266, 53_249)


def plain_component_count(g: Graph, removed) -> int:
    """Components of g minus ``removed``, by a stack walk over neighbour lists."""
    left = set(range(g.n)) - set(removed)
    count = 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            for u in g.neighbors(stack.pop()):
                if u in left:
                    left.remove(u)
                    stack.append(u)
    return count


@pytest.mark.parametrize("a,b", [(8, 10), (8, 12), (9, 11)])
def test_unbalanced_complete_bipartite_decides_without_search(a, b):
    # the plain search needs 187,401 nodes on K_{8,10} and 819,028 on K_{9,11}
    g = complete_bipartite(a, b)
    cert = is_hamiltonian(g)
    assert (cert.result, cert.nodes_explored, cert.cut) == (False, 0, tuple(range(a)))


@pytest.mark.parametrize("inputs", ["labelled-order-5", "corpus", "bipartite"])
def test_every_cut_leaves_more_components_than_it_removes(inputs):
    cuts = 0
    for g in _hamiltonicity_inputs(inputs):
        cert = is_hamiltonian(g)
        if cert.cut is None:
            continue
        cuts += 1
        assert cert.result is False and cert.nodes_explored == 0, emit_graph6(g)
        assert plain_component_count(g, cert.cut) > len(cert.cut), emit_graph6(g)
        # the cut is one side of a 2-colouring: no edge inside it, none inside the rest
        rest = [v for v in range(g.n) if v not in cert.cut]
        assert not any(g.has_edge(u, v) for side in (cert.cut, rest)
                       for u, v in itertools.combinations(side, 2)), emit_graph6(g)
    assert cuts > 0
