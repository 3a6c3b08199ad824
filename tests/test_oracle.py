import pytest

from hamclosure.errors import PreconditionError
from hamclosure.graphs import complete_bipartite, cycle_graph, empty_graph, path_graph
from hamclosure.hamiltonicity import is_hamiltonian, validate_cycle
from hamclosure.patterns import PatternKind, REFERENCE, is_free
from hamclosure.verify import verify_closure_preservation


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
        monkeypatch.setenv("HAMCLOSURE_NODE_BUDGET", "3")
        cert = is_hamiltonian(cycle_graph(12))
        assert cert.undecided


class TestClosurePreservation:
    def test_examples(self, net):
        assert verify_closure_preservation(cycle_graph(4), "o")
        assert verify_closure_preservation(net, "c")
        assert verify_closure_preservation(REFERENCE[PatternKind.DIAMOND], "r")

    def test_kind_validation(self):
        with pytest.raises(Exception):
            verify_closure_preservation(cycle_graph(4), "x")

    def test_budget_surfaces(self):
        with pytest.raises(PreconditionError):
            verify_closure_preservation(cycle_graph(12), "o", node_budget=2)


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
