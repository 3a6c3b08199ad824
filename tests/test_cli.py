import io
import json
import re
import sys
from collections import Counter

from hamclosure.cli import main
from hamclosure.closures import c_closure
from hamclosure.families import classify_theorem, generate, recognize
from hamclosure.graphs import complete_graph, cycle_graph, emit_graph6, parse_graph6
from hamclosure.patterns import REFERENCE, PatternKind, net_profile
from hamclosure.verify import acceptance_grids, curated_graphs

C4 = emit_graph6(cycle_graph(4))
K4 = emit_graph6(complete_graph(4))
CLAW = emit_graph6(REFERENCE[PatternKind.CLAW])
NET = emit_graph6(REFERENCE[PatternKind.NET])
G8 = emit_graph6(curated_graphs()["G8"])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClosureCommand:
    def test_o_closure_of_c4_is_k4(self, capsys):
        code, out, _ = run(capsys, "closure", "--kind", "o", C4)
        assert code == 0
        assert parse_graph6(out.strip()) == complete_graph(4)

    def test_literal_mode_warns_on_divergence(self, capsys):
        code, out, err = run(capsys, "closure", "--kind", "c", "--mode", "literal", C4)
        assert code == 0
        assert parse_graph6(out.strip()) == cycle_graph(4)
        assert "disagree" in err

    def test_literal_mode_builds_each_closure_once(self, capsys, monkeypatch):
        calls = Counter()

        def counting(*args, **kwargs):
            calls["c_closure"] += 1
            return c_closure(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("hamclosure") and getattr(module, "c_closure", None) is c_closure:
                monkeypatch.setattr(module, "c_closure", counting)
        code, _, err = run(capsys, "closure", "--kind", "c", "--mode", "literal", C4)
        assert code == 0
        assert err == ("warning: literal and amended eligibility disagree here "
                       "(literal adds 0 edges, amended adds 2 edges)\n")
        assert calls["c_closure"] == 2

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

    def test_one_classify_computes_each_fact_once(self, capsys, monkeypatch):
        calls = Counter()

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        for fn in (net_profile, c_closure, recognize):
            for name, module in list(sys.modules.items()):
                if name.startswith("hamclosure") and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, counting(fn))
        code, _, _ = run(capsys, "classify", G8)
        assert code == 0
        assert calls == {"net_profile": 1, "c_closure": 1, "recognize": 1}
