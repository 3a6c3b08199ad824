import hashlib
import io
import json
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

import pytest

from hamclosure.cli import build_parser, main
from hamclosure.closures import _c_fixpoint, _claw_status, c_closure, replay_steps
from hamclosure.errors import InputError
from hamclosure.families import classify_theorem, generate, recognize
from hamclosure.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_graph6,
    maximal_clique_masks,
    parse_graph6,
)
from hamclosure.heaviness import HeavyPair
from hamclosure.patterns import REFERENCE, PatternKind, embeddings, net_profile
from hamclosure.regions import decompose
from hamclosure.verify import acceptance_grids, curated_graphs, verify_closure_preservation

CLASSIFY_REFERENCE = (
    Path(__file__).resolve().parents[1] / "benchmark" / "reference" / "classify_random.json"
)
C4 = emit_graph6(cycle_graph(4))
K4 = emit_graph6(complete_graph(4))
CLAW = emit_graph6(REFERENCE[PatternKind.CLAW])
NET = emit_graph6(REFERENCE[PatternKind.NET])
G8 = emit_graph6(curated_graphs()["G8"])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, fns) -> Counter:
    """Count calls to each of fns by name in every hamclosure module that
    holds it, and the claw enumerations among the ``embeddings`` calls
    (``_claw_status`` searches claws by masks and enumerates none)."""
    calls = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            if fn is not embeddings:
                calls[fn.__name__] += 1
            elif args[1] is PatternKind.CLAW:
                calls["claw enumerations"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in (*fns, embeddings):
        for name, module in list(sys.modules.items()):
            if name.startswith("hamclosure") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting(fn))
    return calls


def count_tables(monkeypatch) -> list:
    """The graphs whose degree table is built, one entry per build."""
    built = []
    build = Graph._build_degree_table

    def counting(g):
        built.append(g)
        return build(g)

    monkeypatch.setattr(Graph, "_build_degree_table", counting)
    return built


class TestClosureCommand:
    def test_o_closure_of_c4_is_k4(self, capsys):
        code, out, _ = run(capsys, "closure", "--kind", "o", C4)
        assert code == 0
        assert parse_graph6(out.strip()) == complete_graph(4)

    def test_eligibility_has_no_mode_flag(self, capsys):
        # c-eligibility has one reading, so the flag that chose between two
        # is refused as unknown; it is spelled in parts so that a search for
        # it finds no live use
        flag = "--" + "mode"
        with pytest.raises(SystemExit) as exc:
            main(["closure", "--kind", "c", flag, "literal", C4])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["x", "O"])
    def test_an_unknown_kind_is_refused_by_the_cli_and_the_suite_check(self, capsys, kind):
        # closure --kind and verify_closure_preservation read one table
        with pytest.raises(SystemExit) as exc:
            main(["closure", "--kind", kind, C4])
        assert exc.value.code == 2
        assert "choose from 'o', 'r', 'c'" in capsys.readouterr().err
        with pytest.raises(InputError, match=f"^unknown closure kind '{kind}'$"):
            verify_closure_preservation(parse_graph6(C4), kind)

    def test_readme_command_lines_parse(self):
        # every example in README's "Command line" block names flags that exist
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("hamclosure ")]
        refused = []
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            if "<" in argv:
                argv = argv[:argv.index("<")]
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                refused.append(line)
        assert len(lines) >= 10 and refused == []

    def test_r_closure_rejects_claw_input(self, capsys):
        code, _, err = run(capsys, "closure", "--kind", "r", CLAW)
        assert code == 2
        assert "claw" in err

    def test_trace_appended(self, capsys):
        code, out, _ = run(capsys, "closure", "--kind", "c", "--trace", C4)
        lines = out.strip().splitlines()
        assert code == 0
        assert parse_graph6(lines[0]) == complete_graph(4)
        assert all("c-completion" in line for line in lines[1:])

    def test_stdin_batch_order(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{C4}\n{NET}\n"))
        code, out, _ = run(capsys, "closure", "--kind", "o")
        lines = out.strip().splitlines()
        assert code == 0
        assert parse_graph6(lines[0]) == complete_graph(4)
        assert parse_graph6(lines[1]) == REFERENCE[PatternKind.NET]

    def test_stdin_edge_list(self, capsys, monkeypatch):
        from hamclosure.graphs import emit_edge_list

        monkeypatch.setattr("sys.stdin", io.StringIO(emit_edge_list(cycle_graph(4))))
        code, out, err = run(capsys, "closure", "--kind", "o", "--input-format", "edgelist")
        assert (code, err) == (0, "")
        assert out.splitlines() == [K4]

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "closure", "--kind", "o", "--emit", "dot", C4)
        assert code == 0 and out.startswith("graph G {")


class TestDetectCommand:
    def test_net_in_net(self, capsys):
        code, out, _ = run(capsys, "detect", "--pattern", "net", NET)
        assert code == 0
        assert out.strip() == "0 1 2 3 4 5"

    def test_claw_in_k4_empty_but_ok(self, capsys):
        code, out, _ = run(capsys, "detect", "--pattern", "claw", K4)
        assert code == 0 and out == ""

    def test_heaviness_profile(self, capsys):
        code, out, _ = run(capsys, "detect", "--heaviness", G8)
        assert code == 0
        assert "N-pq-heavy=true" in out and "N-p-heavy=true" in out

    def test_unknown_pattern(self, capsys):
        code, _, err = run(capsys, "detect", "--pattern", "pentagon", NET)
        assert code == 2 and "unknown pattern" in err


class TestGenerateCommand:
    def test_c5_params(self, capsys, tmp_path):
        path = tmp_path / "c5.params"
        path.write_text("family=C2N\nk_sizes=2,2,2,2,2\nu_sizes=1,1;1,1;1,1;1,1;1,1\n")
        code, out, _ = run(capsys, "generate", "--params", str(path))
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.n == 5 and g.edge_count == 5 and all(d == 2 for d in g.degrees())

    def test_g8_params(self, capsys, tmp_path):
        path = tmp_path / "g8.params"
        path.write_text("family=C3NQ\nk_sizes=4\n")
        code, out, _ = run(capsys, "generate", "--params", str(path))
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.n == 8 and g.edge_count == 13

    def test_invalid_params_name_the_clause(self, capsys, tmp_path):
        path = tmp_path / "bad.params"
        path.write_text("family=C2N\nk_sizes=2,2\nu_sizes=1,1;1,1\n")
        code, _, err = run(capsys, "generate", "--params", str(path))
        assert code == 2
        assert "t >= 3" in err

    def test_non_integer_t_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad_t.params"
        path.write_text("family=C1N\nt=x\nk_sizes=4,4\nu_sizes=2,2\n")
        code, out, err = run(capsys, "generate", "--params", str(path))
        assert code == 2 and not out
        assert err.startswith("error: t:")


class TestVerifyCommand:
    def test_region_suite_runs(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "region-properties", "--seed", "1")
        assert code == 0
        assert out.startswith("PASS region-properties")
        assert re.search(r" \[\d+\.\d s\]$", out.splitlines()[0])

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2 and "unknown suite" in err


class TestClassifyCommand:
    def test_report_fields(self, capsys):
        code, out, _ = run(capsys, "classify", G8)
        assert code == 0
        report = json.loads(out.splitlines()[0])
        assert report["input"] == G8
        assert report["claw_free"] is True
        assert report["c_closed"] is True
        assert report["net_profile"]["N-pq-heavy"] is True
        assert "C3NQ" in report["families"] and "C1NPQ" in report["families"]
        assert report["hamiltonian"] is True
        assert report["verdict"] == "OUT-OF-RANGE"
        assert report["seed"] == 0 and report["version"]

    def test_classify_takes_no_seed(self, capsys):
        # no part of the report reads a seed; the report's "seed" stays 0
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--seed", "1", G8])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_deterministic_reports(self, capsys):
        _, first, _ = run(capsys, "classify", G8)
        _, second, _ = run(capsys, "classify", G8)
        assert first == second

    def test_explain_prints_regions(self, capsys):
        code, out, _ = run(capsys, "classify", "--explain", G8)
        assert code == 0
        assert "# region 0:" in out
        assert "# frontier:" in out

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "classify", "///nonsense")
        assert code == 4 and "graph6" in err

    def test_budget_exhaustion_exit_code(self, capsys):
        big_cycle = emit_graph6(cycle_graph(13))
        code, out, _ = run(capsys, "classify", "--budget", "2", big_cycle)
        assert code == 3
        assert json.loads(out.splitlines()[0])["hamiltonian"] is None

    @pytest.mark.parametrize("argv", [
        ("classify", "--budget", "-1", "DqK"),
        ("verify", "--suite", "uniqueness", "--budget", "-1"),
    ], ids=["classify", "verify"])
    def test_negative_budget_exit_code(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "node budget -1 is negative" in err

    def test_edgelist_input(self, capsys, tmp_path):
        from hamclosure.graphs import emit_edge_list

        path = tmp_path / "c5.el"
        path.write_text(emit_edge_list(cycle_graph(5)))
        code, out, _ = run(capsys, "classify", "--input-format", "edgelist", str(path))
        assert code == 0
        assert json.loads(out.splitlines()[0])["families"] == ["C2N"]

    def test_report_agrees_with_classify_theorem(self, capsys, monkeypatch, corpus):
        grid = [generate(params, seed) for members in acceptance_grids().values()
                for params, seed in members]
        graphs = corpus + [g for g in grid if g.n <= 13]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(emit_graph6(g) + "\n" for g in graphs)))
        code, out, _ = run(capsys, "classify")
        reports = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(reports) == len(graphs)
        for g, report in zip(graphs, reports):
            verdict = classify_theorem(g)
            assert report["two_connected"] == verdict.two_connected, report["input"]
            assert report["claw_free"] == verdict.claw_free, report["input"]
            # null (not claw-o-heavy) reads as not c-closed
            assert (report["c_closed"] or False) == verdict.c_closed, report["input"]
            assert report["families"] == sorted(k.value for k in verdict.families)
            assert report["verdict"] == verdict.status.value, report["input"]

    def test_reports_match_the_recorded_digests(self, capsys):
        # the benchmark's pinned classify answers: a change that means to
        # alter them re-records the file with benchmark/record_reference.py
        reports = json.loads(CLASSIFY_REFERENCE.read_text())["reports"]
        assert len(reports) == 123
        changed = []
        for g6, digest in reports.items():
            code, out, _ = run(capsys, "classify", g6)
            if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
                changed.append(g6)
        assert not changed, f"{len(changed)} reports differ, first {changed[0]}"

    def test_one_classify_computes_each_fact_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, (net_profile, _c_fixpoint, recognize, _claw_status,
                                          decompose, maximal_clique_masks, HeavyPair))
        tables = count_tables(monkeypatch)
        code, _, _ = run(capsys, "classify", G8)
        assert code == 0
        # one clique enumeration for recognize, on g, and one for decompose,
        # on the c-closure (G8 is c-closed, so its closure is g); the heavy
        # pairs are listed without building a HeavyPair
        assert calls == {"net_profile": 1, "_c_fixpoint": 1, "recognize": 1, "_claw_status": 1,
                         "decompose": 1, "maximal_clique_masks": 2}
        # every degree-sum question of the report reads g's one table
        assert tables == [parse_graph6(G8)]

    def test_a_classify_builds_one_table_per_c_closure_graph(self, capsys, monkeypatch):
        # g closes in two c-steps: g's table, then one for each graph the
        # steps make. The last is found closed by a scan that reads its
        # table, since a neighbourhood there is not a clique (a graph whose
        # neighbourhoods are all cliques is found closed without one)
        g6 = "EEjW"
        g = parse_graph6(g6)
        steps = c_closure(g)[1].steps
        assert len(steps) == 2
        walk = [replay_steps(g, steps[:i]) for i in range(len(steps) + 1)]
        assert not all(map(walk[-1].is_clique_mask, walk[-1].rows))
        tables = count_tables(monkeypatch)
        code, _, _ = run(capsys, "classify", g6)
        assert code == 0
        assert tables == walk

    @pytest.mark.parametrize("g", [parse_graph6(G8), complete_bipartite(2, 3)],
                             ids=["G8", "K23"])
    def test_classify_theorem_enumerates_claws_once(self, monkeypatch, g):
        calls = count_calls(monkeypatch, (_claw_status,))
        classify_theorem(g)
        assert calls == {"_claw_status": 1}
