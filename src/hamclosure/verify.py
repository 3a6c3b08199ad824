"""Named verification suites: every structural theorem as an executable
desk-scale check over seeded corpora.

Each suite returns a SuiteResult with one-line failure descriptions; the
acceptance tests and the ``verify`` CLI subcommand both run these.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import islice

from .closures import (
    CLOSURES,
    _c_closed,
    _c_fixpoint,
    _claw_status,
    closures_of,
    supergraph_search,
    validate_c_trace,
)
from .errors import BudgetError, InputError
from .families import (
    ComponentSpec,
    FamilyKind,
    FamilyParams,
    P_HEAVY_UNION,
    TheoremVerdict,
    VerdictStatus,
    classify_theorem,
    generate,
    recognize,
)
from .graphs import (
    Graph,
    _budget,
    _seed,
    _text,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_graph6,
    is_2_connected,
    is_connected,
    path_graph,
    sample_graphs,
)
from .hamiltonicity import is_hamiltonian
from .heaviness import is_pattern_o_heavy, o_heavy_pairs
from .patterns import (
    PatternKind,
    REFERENCE,
    find_induced,
    find_induced_naive,
    has_induced,
    is_free,
    net_profile,
)
from .regions import (
    decompose,
    generalized_claw_or_net,
    region_law_violations,
    validate_generalized,
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    table: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name}: {self.checked} checks, {len(self.failures)} failures"
        if self.notes:
            line += f" ({'; '.join(self.notes)})"
        return line


# -- corpora -------------------------------------------------------------------


def curated_graphs() -> dict[str, Graph]:
    graphs = {
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "K23": complete_bipartite(2, 3),
        "K4": complete_graph(4),
        "K5": complete_graph(5),
        "P3": path_graph(3),
        "P4": path_graph(4),
        "P5": path_graph(5),
        "P6": path_graph(6),
        "G8": Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                   (4, 5), (5, 6), (6, 7), (1, 4), (0, 5), (0, 6), (2, 7)]),
    }
    for kind in (PatternKind.CLAW, PatternKind.NET, PatternKind.BULL,
                 PatternKind.DIAMOND, PatternKind.WOUNDED, PatternKind.Z1, PatternKind.Z2):
        graphs[kind.value] = REFERENCE[kind]
    return graphs


_PER_CELL = 13


def random_corpus(seed: int = 0) -> list[Graph]:
    """Deterministic ~500-graph corpus, n in [5, 12], mixed densities."""
    out = []
    ps = (0.2, 0.35, 0.5, 0.65, 0.8)
    for n in range(5, 13):
        for j, p in enumerate(ps):
            out.extend(sample_graphs(n, p, seed=seed * 1000 + n * 10 + j, limit=_PER_CELL))
    return out


def full_corpus(seed: int = 0) -> list[Graph]:
    return list(curated_graphs().values()) + random_corpus(seed)


def claw_o_heavy_samples(corpus) -> list[Graph]:
    return [g for g in corpus if _claw_status(g)[1]]


# -- acceptance grids ----------------------------------------------------------


def _c1n_grid() -> list[FamilyParams]:
    shapes: list[FamilyParams] = []
    for k in range(10, 21):
        shapes.append(FamilyParams(FamilyKind.C1N, (k,), ()))
    chains = [
        ((2, 6, 2), (2, 2)), ((3, 6, 3), (2, 2)), ((3, 8, 3), (2, 3)),
        ((4, 4, 4), (2, 2)), ((3, 8, 3), (3, 3)), ((4, 6, 4), (2, 2)),
        ((2, 10, 2), (2, 2)), ((5, 6, 5), (3, 3)), ((4, 8, 4), (2, 2)),
        ((3, 10, 3), (3, 3)), ((6, 6, 6), (2, 2)), ((5, 8, 5), (4, 4)),
        ((2, 4, 4, 2), (2, 2, 2)), ((3, 4, 4, 3), (2, 2, 2)),
        ((2, 6, 4, 2), (2, 2, 2)), ((4, 4, 4, 4), (2, 2, 2)),
        ((2, 4, 4, 4, 2), (2, 2, 2, 2)), ((3, 4, 4, 4, 3), (2, 2, 2, 2)),
        ((2, 4, 6, 4, 2), (2, 2, 2, 2)),
    ]
    shapes.extend(FamilyParams(FamilyKind.C1N, sizes, juncs) for sizes, juncs in chains)
    return shapes


def _c2n_grid() -> list[FamilyParams]:
    shapes: list[FamilyParams] = []
    for n in range(10, 21):
        shapes.append(FamilyParams(FamilyKind.C2N, (2,) * n, (1,) * n))
    cycles = [
        ((4, 4, 4), (2, 2, 2)), ((4, 6, 4), (2, 2, 2)), ((4, 4, 4), (2, 2, 1)),
        ((3, 3, 3, 3), (2, 1, 2, 1)), ((4, 4, 4, 4), (2, 2, 2, 2)),
        ((3, 4, 3, 4), (1, 2, 1, 2)), ((4, 4, 3, 3), (2, 2, 1, 1)),
        ((5, 5, 5), (2, 2, 2)), ((6, 4, 6), (2, 2, 2)), ((5, 4, 5, 4), (2, 2, 2, 2)),
        ((3, 2, 2, 2, 2, 2, 2, 2, 2), (1,) * 9),
        ((3, 3, 2, 2, 2, 2, 2, 2), (1,) * 8),
    ]
    shapes.extend(FamilyParams(FamilyKind.C2N, sizes, juncs) for sizes, juncs in cycles)
    return shapes


def _c3nq_grid() -> list[FamilyParams]:
    return [FamilyParams(FamilyKind.C3NQ, (k,), ()) for k in range(6, 17)]


def _c1np_grid() -> list[FamilyParams]:
    chain2 = ComponentSpec("c1n", (2,), (2,))
    chain3 = ComponentSpec("c1n", (3,), (2,))
    cycle33 = ComponentSpec("c2n", (3, 3), (2, 1, 2))
    cycle44 = ComponentSpec("c2n", (4, 4), (2, 2, 2))
    shapes = []
    for k in range(7, 14):
        shapes.append(FamilyParams(FamilyKind.C1NP, (k,), (), (chain2, cycle33)))
    for k in range(8, 13):
        shapes.append(FamilyParams(FamilyKind.C1NP, (k,), (), (chain3, cycle33)))
    for k in range(9, 12):
        shapes.append(FamilyParams(FamilyKind.C1NP, (k,), (), (chain2, chain2, cycle33)))
    shapes.append(FamilyParams(FamilyKind.C1NP, (10,), (), (cycle33, cycle33)))
    shapes.append(FamilyParams(FamilyKind.C1NP, (10,), (), (chain2, cycle44)))
    return shapes


def _c2np_grid() -> list[FamilyParams]:
    bridge3 = ComponentSpec("c2n_bridge", (3,), (1, 2))
    bridge1v = ComponentSpec("c2n_bridge", (2, 2), (1, 1, 1))
    prime2 = ComponentSpec("c1n_prime", (2,), (2,))
    chain2 = ComponentSpec("c1n", (2,), (2,))
    shapes = []
    for k in range(8, 15):
        shapes.append(FamilyParams(FamilyKind.C2NP, (k, 4), (), (bridge3, bridge1v)))
    for k in range(8, 13):
        shapes.append(FamilyParams(FamilyKind.C2NP, (k, 5), (), (bridge3, prime2)))
    for k in range(9, 12):
        shapes.append(FamilyParams(FamilyKind.C2NP, (k, 5), (), (bridge3, bridge1v, chain2)))
    for k in range(10, 14):
        shapes.append(FamilyParams(FamilyKind.C2NP, (k, 4), (), (bridge3, bridge3)))
    return shapes


def _c1npq_grid() -> list[FamilyParams]:
    c3 = ComponentSpec("c3nq")
    chain2 = ComponentSpec("c1n", (2,), (2,))
    cycle33 = ComponentSpec("c2n", (3, 3), (2, 1, 2))
    shapes = []
    for k in range(6, 17):
        shapes.append(FamilyParams(FamilyKind.C1NPQ, (k,), (), (c3,)))
    for k in range(8, 15):
        shapes.append(FamilyParams(FamilyKind.C1NPQ, (k,), (), (c3, chain2)))
    for k in range(10, 13):
        shapes.append(FamilyParams(FamilyKind.C1NPQ, (k,), (), (c3, c3)))
    for k in range(10, 13):
        shapes.append(FamilyParams(FamilyKind.C1NPQ, (k,), (), (c3, chain2, chain2)))
    shapes.append(FamilyParams(FamilyKind.C1NPQ, (11,), (), (c3, cycle33)))
    return shapes


def _c2npq_grid() -> list[FamilyParams]:
    c3 = ComponentSpec("c3nq")
    bridge3 = ComponentSpec("c2n_bridge", (3,), (1, 2))
    bridge1v = ComponentSpec("c2n_bridge", (2, 2), (1, 1, 1))
    shapes = []
    for k in range(9, 14):
        shapes.append(FamilyParams(FamilyKind.C2NPQ, (k, 2), (), (c3, bridge1v, bridge1v)))
    for k in range(10, 13):
        shapes.append(FamilyParams(FamilyKind.C2NPQ, (k, 2), (), (c3, bridge3, bridge1v)))
    shapes.append(FamilyParams(FamilyKind.C2NPQ, (11, 2), (), (c3, bridge3, bridge3)))
    return shapes


def acceptance_grids() -> dict[FamilyKind, list[tuple[FamilyParams, int]]]:
    """Pinned parameter grid: at least 50 members per family, 10 <= n <= 20."""
    raw = {
        FamilyKind.C1N: _c1n_grid(),
        FamilyKind.C2N: _c2n_grid(),
        FamilyKind.C3NQ: _c3nq_grid(),
        FamilyKind.C1NP: _c1np_grid(),
        FamilyKind.C2NP: _c2np_grid(),
        FamilyKind.C1NPQ: _c1npq_grid(),
        FamilyKind.C2NPQ: _c2npq_grid(),
    }
    grids = {}
    for kind, shapes in raw.items():
        members: list[tuple[FamilyParams, int]] = []
        seeds = 0
        while len(members) < 50:
            for shape in shapes:
                members.append((shape, seeds))
            seeds += 1
        grids[kind] = members
    return grids


def verify_closure_preservation(
    g: Graph, closure_kind: str, node_budget: int | None = None,
) -> bool:
    """True iff the oracle agrees on g and its o-, r-, or c-closure."""
    if _text(closure_kind, "closure kind") not in CLOSURES:
        raise InputError(f"unknown closure kind {closure_kind!r}")
    closed, _ = CLOSURES[closure_kind](g)
    before = is_hamiltonian(g, node_budget)
    after = is_hamiltonian(closed, node_budget)
    if before.undecided or after.undecided:
        raise BudgetError("hamiltonicity oracle ran out of budget")
    return before.result == after.result


# -- suites --------------------------------------------------------------------


SUITES: dict[str, Callable[..., SuiteResult]] = {}


def _suite(name):
    """Register the decorated check as suite ``name`` in SUITES."""

    def wrap(fn):
        def run(seed: int = 0, node_budget: int | None = None) -> SuiteResult:
            # read at entry: suites fold the seed into sample seeds, whose
            # errors would name the wrong value, and some suites never
            # reach is_hamiltonian, which reads the budget
            _seed(seed, "suite seed")
            if node_budget is not None:
                _budget(node_budget, "node budget")
            start = time.monotonic()
            result = SuiteResult(name, True, 0)
            fn(result, seed, node_budget)
            result.elapsed = time.monotonic() - start
            result.passed = not result.failures
            return result

        run.__name__ = fn.__name__
        SUITES[name] = run
        return run

    return wrap


@_suite("closure-preservation")
def suite_closure_preservation(result: SuiteResult, seed: int, node_budget) -> None:
    corpus = full_corpus(seed)
    result.notes.append(f"corpus size {len(corpus)}")
    for i, g in enumerate(corpus):
        before = is_hamiltonian(g, node_budget)
        if before.undecided:
            result.failures.append(f"graph {i}: oracle undecided")
            continue
        for kind, (closed, _) in closures_of(g).items():
            after = is_hamiltonian(closed, node_budget)
            result.checked += 1
            if after.undecided:
                result.failures.append(f"graph {i}: oracle undecided on the {kind}-closure")
            elif after.result != before.result:
                result.failures.append(f"graph {i}: {kind}-closure changed hamiltonicity")


@_suite("minimality-oracle")
def suite_minimality_oracle(result: SuiteResult, seed: int, node_budget) -> None:
    budget = 18
    small = [g for g in full_corpus(seed) if len(g.non_edges()) <= budget]
    c_closures = [ladder["c"] for ladder in map(closures_of, small) if "c" in ladder]
    result.notes.append(f"{len(c_closures)} claw-o-heavy samples with <= {budget} non-edges")
    for i, (closed, trace) in enumerate(c_closures):
        g = trace.initial
        search = supergraph_search(g, budget=budget)
        result.checked += 1
        if not search.unique_minimum:
            result.failures.append(f"sample {i}: minimum supergraph not unique")
            continue
        agree = closed == search.graph_for(search.minima[0])
        result.table.append(
            f"{emit_graph6(g)} added={len(search.minima[0])} "
            f"agree={'yes' if agree else 'NO'}"
        )
        if not agree:
            result.failures.append(f"sample {i}: closure disagrees with the supergraph oracle")


def _relabel(g: Graph, perm) -> Graph:
    """g with each vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@_suite("uniqueness")
def suite_uniqueness(result: SuiteResult, seed: int, node_budget) -> None:
    # a closure picks its least candidate, so closing a relabelled copy
    # pi(g) takes its steps in another order; it must still reach pi of
    # g's closure. The relabellings are the reversal and one shuffle.
    corpus = full_corpus(seed)
    rng = random.Random(seed + 1)
    total, idle = Counter(), Counter()  # per kind: closures, and closures without a step
    for i, g in enumerate(corpus):
        perms = (range(g.n - 1, -1, -1), rng.sample(range(g.n), g.n))
        relabelled = [(perm, closures_of(_relabel(g, perm))) for perm in perms]
        for kind, (closed, trace) in closures_of(g).items():
            result.checked += 1
            total[kind] += 1
            idle[kind] += not trace.steps  # no step, so no order to vary
            if any(other[kind][0] != _relabel(closed, perm) for perm, other in relabelled):
                order = "join" if kind == "o" else "completion"
                result.failures.append(f"graph {i}: {kind}-closure depends on the {order} order")
    result.notes.extend(f"{kind}: {total[kind]} closures, {idle[kind]} without a step"
                        for kind in total)


@_suite("closure-contracts")
def suite_closure_contracts(result: SuiteResult, seed: int, node_budget) -> None:
    corpus = full_corpus(seed)
    for i, g in enumerate(corpus):
        for kind, (closed, trace) in closures_of(g).items():
            if kind == "o":
                continue
            result.checked += 1
            if not is_free(closed, (PatternKind.CLAW, PatternKind.DIAMOND)):
                result.failures.append(f"graph {i}: {kind}-closure output not claw/diamond-free")
            if kind == "c":
                if o_heavy_pairs(closed):
                    result.failures.append(f"graph {i}: c-closure output keeps an o-heavy pair")
                problems = validate_c_trace(trace)
                result.checked += 1
                if problems:
                    result.failures.append(f"graph {i}: trace law violation: {problems[0]}")


_HEAVINESS_CELLS: dict[PatternKind, list[tuple[int, float]]] = {
    PatternKind.P4: [(6, 0.7), (7, 0.75), (8, 0.8)],
    PatternKind.P5: [(6, 0.6), (7, 0.7), (8, 0.75)],
    PatternKind.C3: [(6, 0.3), (6, 0.35), (7, 0.3)],
    PatternKind.Z1: [(6, 0.6), (7, 0.7), (8, 0.75)],
    PatternKind.Z2: [(6, 0.55), (7, 0.65), (8, 0.7)],
    PatternKind.BULL: [(6, 0.6), (7, 0.7), (8, 0.75)],
    PatternKind.NET: [(6, 0.55), (7, 0.6), (8, 0.7)],
    PatternKind.WOUNDED: [(6, 0.5), (7, 0.6), (8, 0.65)],
}


@_suite("heaviness-propagation")
def suite_heaviness_propagation(result: SuiteResult, seed: int, node_budget) -> None:
    target = 100
    for s_kind, cells in _HEAVINESS_CELLS.items():
        accepted: list[Graph] = []

        def predicate(g: Graph) -> bool:
            return is_2_connected(g) and _claw_status(g)[1] and is_pattern_o_heavy(g, s_kind)

        for cell_round in range(40):  # once target is met, islice draws nothing
            n, p = cells[cell_round % len(cells)]
            draws = sample_graphs(n, p, seed=seed * 100 + cell_round * 7 + n, limit=40_000)
            accepted.extend(islice(filter(predicate, draws), target - len(accepted)))
        complete = 0
        for g in accepted:
            # the predicate has just checked that g is claw-o-heavy
            closed, _ = _c_fixpoint(g)
            # a complete closure is claw-free and net-free, so it passes trivially
            complete += closed.is_clique_mask(closed.full_mask)
            profile = net_profile(closed)
            result.checked += 1
            if has_induced(closed, PatternKind.CLAW):
                result.failures.append(f"{s_kind.value}: closure not claw-free")
            if s_kind is PatternKind.WOUNDED:
                if not profile.n_pq_heavy:
                    result.failures.append(f"{s_kind.value}: closure nets not all p- or q-heavy")
            elif not profile.n_p_heavy:
                result.failures.append(f"{s_kind.value}: closure nets not all p-heavy")
        result.notes.append(
            f"{s_kind.value}: {len(accepted)} accepted, {complete} complete closures")


@_suite("family-forward")
def suite_family_forward(result: SuiteResult, seed: int, node_budget) -> None:
    grids = acceptance_grids()
    for kind, members in grids.items():
        count = 0
        for params, member_seed in members:
            g = generate(params, member_seed + seed)
            count += 1
            result.checked += 1
            label = f"{kind.value}[{params.clique_sizes}/{member_seed}]"
            if not (10 <= g.n <= 20):
                result.failures.append(f"{label}: order {g.n} outside the grid range")
            cert = is_hamiltonian(g, node_budget)
            if cert.undecided:
                result.failures.append(f"{label}: oracle undecided")
            elif not cert.result:
                result.failures.append(f"{label}: member not hamiltonian")
            verdict = classify_theorem(g)
            if kind in P_HEAVY_UNION:
                if not verdict.two_connected:
                    result.failures.append(f"{label}: not 2-connected")
                if not verdict.claw_free:
                    result.failures.append(f"{label}: not claw-free")
                if not verdict.c_closed:
                    result.failures.append(f"{label}: not closed under degree-sum completion")
                if not verdict.n_p_heavy:
                    result.failures.append(f"{label}: nets not all p-heavy")
            elif not verdict.n_pq_heavy:
                result.failures.append(f"{label}: nets not all p- or q-heavy")
            if kind not in verdict.families:
                result.failures.append(f"{label}: recognizer misses the generating family")
        result.notes.append(f"{kind.value}: {count} members")


@_suite("thcpq-reverse")
def suite_thcpq_reverse(result: SuiteResult, seed: int, node_budget) -> None:
    candidates: list[Graph] = [g for g in full_corpus(seed) if 10 <= g.n <= 14]
    for n in range(10, 15):
        for j, p in enumerate((0.5, 0.65, 0.8)):
            candidates.extend(sample_graphs(n, p, seed=seed * 977 + n * 13 + j, limit=20))
    grids = acceptance_grids()
    perturbed = 0
    for kind, members in grids.items():
        for params, member_seed in members[:10]:
            base = generate(params, member_seed + seed)
            if not (10 <= base.n <= 14):
                continue
            base_edges = base.edges()
            for dropped in base_edges:
                kept = [e for e in base_edges if e != dropped]
                candidates.append(Graph.from_edges(base.n, kept))
                perturbed += 1
            for u, v in base.non_edges():
                candidates.append(base.add_edges([(u, v)])[0])
                perturbed += 1
    result.notes.append(f"{len(candidates)} candidates ({perturbed} perturbations)")
    hits = 0
    for g in candidates:
        # claw-free implies claw-o-heavy, where the c-closed test is defined
        if has_induced(g, PatternKind.CLAW) or not is_2_connected(g) or not _c_closed(g):
            continue
        profile = net_profile(g)
        if not profile.n_pq_heavy:
            continue
        hits += 1
        result.checked += 1
        # 2-connected, claw-free and c-closed, as filtered above
        verdict = TheoremVerdict(g.n, True, True, True, profile.n_p_heavy, profile.n_pq_heavy,
                                 recognize(g).families)
        if verdict.status is VerdictStatus.COUNTEREXAMPLE_CANDIDATE:
            result.failures.append("hypothesis-satisfying graph not matched by any family")
    result.notes.append(f"{hits} hypothesis-satisfying graphs classified")


@_suite("detector-oracle")
def suite_detector_oracle(result: SuiteResult, seed: int, node_budget) -> None:
    graphs: list[Graph] = []
    for j, (n, p) in enumerate([(5, 0.4), (6, 0.5), (7, 0.5), (8, 0.45), (9, 0.4)]):
        graphs.extend(sample_graphs(n, p, seed=seed * 31 + j, limit=20))
    for i, g in enumerate(graphs):
        for kind in PatternKind:
            result.checked += 1
            if find_induced(g, kind) != find_induced_naive(g, kind):
                result.failures.append(f"graph {i}: detector mismatch for {kind.value}")


@_suite("region-properties")
def suite_region_properties(result: SuiteResult, seed: int, node_budget) -> None:
    corpus = [g for g in full_corpus(seed) if g.n <= 12]
    for i, g in enumerate(corpus):
        if not _claw_status(g)[1]:
            continue
        closed, _ = _c_fixpoint(g)
        problems = region_law_violations(decompose(g, closure=closed))
        result.checked += 1
        if problems:
            result.failures.append(f"graph {i}: {problems[0]}")
    rng = random.Random(seed + 4242)
    draws = 0
    attempts = 0
    while draws < 1000 and attempts < 5000:
        attempts += 1
        n = rng.randrange(4, 12)
        g = next(iter(sample_graphs(n, rng.choice((0.25, 0.4, 0.6)), seed=attempts, limit=1)))
        if not is_connected(g):
            continue
        z1, z2, z3 = rng.sample(range(n), 3)
        gcn = generalized_claw_or_net(g, z1, z2, z3)
        result.checked += 1
        draws += 1
        problems = validate_generalized(g, gcn)
        if problems:
            result.failures.append(f"draw {draws}: {problems[0]}")
        if set(gcn.termini()) != {z1, z2, z3}:
            result.failures.append(f"draw {draws}: wrong termini")
    result.notes.append(f"{draws} generalized claw/net draws")


@_suite("npq-hamiltonicity")
def suite_npq_hamiltonicity(result: SuiteResult, seed: int, node_budget) -> None:
    corpus = [g for g in full_corpus(seed) if g.n <= 14]
    grids = acceptance_grids()
    for kind, members in grids.items():
        for params, member_seed in members[:8]:
            g = generate(params, member_seed + seed)
            if g.n <= 14:
                corpus.append(g)
    hits = 0
    for i, g in enumerate(corpus):
        if has_induced(g, PatternKind.CLAW) or not is_2_connected(g):
            continue
        if not net_profile(g).n_pq_heavy:
            continue
        hits += 1
        result.checked += 1
        cert = is_hamiltonian(g, node_budget)
        if cert.undecided:
            result.failures.append(f"graph {i}: oracle undecided")
        elif not cert.result:
            result.failures.append(f"graph {i}: 2-connected claw-free pq-heavy but not hamiltonian")
    result.notes.append(f"{hits} qualifying graphs")


def run_suite(name: str, seed: int = 0, node_budget: int | None = None) -> SuiteResult:
    if _text(name, "suite name") not in SUITES:
        raise InputError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name](seed=seed, node_budget=node_budget)
