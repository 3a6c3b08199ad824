"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Sample sizes and tolerances are pinned here; every criterion is
exact (zero disagreements) except the wall-clock bound on criterion 1.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from hamclosure.verify import SUITES, acceptance_grids, full_corpus, run_suite

SEED = 0


def _run(name: str, extra_assert=None):
    result = run_suite(name, seed=SEED)
    print()
    print(result.summary(), f"[{result.elapsed:.1f}s]")
    for failure in result.failures[:20]:
        print("  failure:", failure)
    if extra_assert:
        extra_assert(result)
    assert result.passed, f"{name}: {len(result.failures)} failures"
    return result


def test_criterion_01_closure_preservation():
    corpus = full_corpus(SEED)
    assert len(corpus) >= 500, "corpus must hold at least 500 graphs"
    assert {g.n for g in corpus} >= set(range(5, 13))

    def check_runtime(result):
        assert result.elapsed < 120.0, "criterion 1 must finish inside two minutes"

    _run("closure-preservation", check_runtime)


def test_criterion_02_minimality_oracle():
    def check_samples(result):
        note = result.notes[0]
        count = int(note.split()[0])
        assert count >= 100, f"want >= 100 eligible samples, got {count}"

    _run("minimality-oracle", check_samples)


def test_criterion_03_uniqueness():
    def check_notes(result):
        # "o: 538 closures, 239 without a step", one note per kind
        assert [note.split(":")[0] for note in result.notes] == ["o", "r", "c"]
        assert all(note.endswith(" without a step") for note in result.notes)
        assert sum(int(note.split()[1]) for note in result.notes) == result.checked

    _run("uniqueness", check_notes)


def test_criterion_04_closure_contracts():
    _run("closure-contracts")


def test_criterion_05_heaviness_propagation():
    def check_counts(result):
        for note in result.notes:
            # "p4: 100 accepted, 100 complete closures"
            kind, count = note.split(": ")
            assert int(count.split()[0]) >= 100, f"{kind}: filter must yield 100 instances"
            assert count.endswith(" complete closures"), f"{kind}: trivial share not reported"

    _run("heaviness-propagation", check_counts)


def test_criterion_06_family_forward():
    grids = acceptance_grids()
    assert len(grids) == 7
    for kind, members in grids.items():
        assert len(members) >= 50, f"{kind}: grid must hold at least 50 members"
    _run("family-forward")


def test_criterion_07_thcpq_reverse():
    def check_population(result):
        assert result.checked >= 50, "need a meaningful hypothesis-satisfying population"

    _run("thcpq-reverse", check_population)


def test_criterion_08_detector_oracle():
    def check_counts(result):
        assert result.checked >= 100 * 11

    _run("detector-oracle", check_counts)


def test_criterion_09_region_properties():
    def check_draws(result):
        assert any("1000 generalized" in note for note in result.notes)

    _run("region-properties", check_draws)


def test_criterion_10_npq_hamiltonicity():
    def check_population(result):
        assert result.checked >= 50

    _run("npq-hamiltonicity", check_population)


def test_all_criteria_have_suites():
    assert len(SUITES) == 10
