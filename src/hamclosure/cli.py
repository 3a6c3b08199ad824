"""Command-line surface: closure, detect, generate, verify, classify.

Graphs are read as graph6 (or an edge list via --input-format); batch
mode reads one graph6 per line from standard input, or with --input-format
edgelist one edge list. Reports are JSON with a fixed key order so runs
diff cleanly.

Exit codes: 0 success, 2 precondition violation, 3 budget exhaustion,
4 parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .closures import CLOSURES, closures_of, trace_to_text
from .errors import BudgetError, FormatError, HamclosureError, InputError, PreconditionError
from .families import TheoremVerdict, generate, parse_params, recognize
from .graphs import (
    Graph,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    is_2_connected,
    parse_edge_list,
    parse_graph6,
)
from .hamiltonicity import is_hamiltonian
from .heaviness import _heavy_pairs_at
# has_induced is unused here; benchmark/tests/test_harness.py checks it is bound
from .patterns import PatternKind, find_induced, has_induced, net_profile  # noqa: F401
from .regions import decompose
from .verify import SUITES, run_suite


def _read_graphs(args) -> list[Graph]:
    if args.input_format == "edgelist":
        if args.graph is None:
            return [parse_edge_list(sys.stdin.read())]
        with open(args.graph) as fh:
            return [parse_edge_list(fh.read())]
    if args.graph is not None:
        return [parse_graph6(args.graph)]
    graphs = []
    for line in sys.stdin:
        line = line.strip()
        if line:
            graphs.append(parse_graph6(line))
    return graphs


def _emit(g: Graph, form: str) -> str:
    if form == "graph6":
        return emit_graph6(g)
    if form == "edgelist":
        return emit_edge_list(g).rstrip("\n")
    if form == "dot":
        return emit_dot(g).rstrip("\n")
    raise InputError(f"unknown output format {form!r}")


def cmd_closure(args) -> int:
    closure = CLOSURES[args.kind]
    for g in _read_graphs(args):
        closed, trace = closure(g)
        print(_emit(closed, args.emit))
        if args.trace:
            sys.stdout.write(trace_to_text(trace))
    return 0


def cmd_detect(args) -> int:
    for g in _read_graphs(args):
        if args.heaviness:
            profile = net_profile(g)
            print(
                f"N-free={str(profile.net_free).lower()} "
                f"N-o-heavy={str(profile.n_o_heavy).lower()} "
                f"N-p-heavy={str(profile.n_p_heavy).lower()} "
                f"N-op-heavy={str(profile.n_op_heavy).lower()} "
                f"N-pq-heavy={str(profile.n_pq_heavy).lower()}"
            )
            continue
        pattern = PatternKind.from_name(args.pattern)
        for emb in find_induced(g, pattern):
            print(" ".join(map(str, emb)))
    return 0


def cmd_generate(args) -> int:
    with open(args.params) as fh:
        params = parse_params(fh.read())
    g = generate(params, args.seed)
    print(_emit(g, args.emit))
    return 0


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    worst = 0
    for name in names:
        result = run_suite(name, seed=args.seed, node_budget=args.budget)
        print(f"{result.summary()} [{result.elapsed:.1f} s]")
        if args.table:
            for row in result.table:
                print(f"  {row}")
        for failure in result.failures:
            print(f"  {failure}")
        if not result.passed:
            worst = 1
    return worst


def _report(g: Graph, budget: int | None) -> dict:
    ladder = closures_of(g)
    claw_free, claw_o_heavy = "r" in ladder, "c" in ladder
    two_connected = is_2_connected(g)
    profile = net_profile(g)
    closures = {
        kind: {"edges_added": closed.edge_count - g.edge_count, "steps": len(trace.steps)}
        for kind, (closed, trace) in ladder.items()
    }
    region_summary = None
    c_closed = None
    if claw_o_heavy:
        closed_c = ladder["c"][0]
        c_closed = closed_c == g
        decomposition = decompose(g, closure=closed_c)
        region_summary = {
            "regions": [sorted(r) for r in decomposition.regions],
            "interior": sorted(v for v in range(g.n) if decomposition.is_interior(v)),
            "frontier": sorted(v for v in range(g.n) if decomposition.is_frontier(v)),
        }
    # None (not claw-o-heavy) counts as not c-closed, as in classify_theorem
    verdict = TheoremVerdict(g.n, two_connected, claw_free, bool(c_closed),
                             profile.n_p_heavy, profile.n_pq_heavy, recognize(g).families)
    ham = is_hamiltonian(g, budget)
    return {
        "input": emit_graph6(g),
        "n": g.n,
        "edges": g.edge_count,
        "two_connected": two_connected,
        "claw_free": claw_free,
        "claw_o_heavy": claw_o_heavy,
        "c_closed": c_closed,
        "net_profile": {
            "nets": profile.net_count,
            "N-free": profile.net_free,
            "N-o-heavy": profile.n_o_heavy,
            "N-p-heavy": profile.n_p_heavy,
            "N-op-heavy": profile.n_op_heavy,
            "N-pq-heavy": profile.n_pq_heavy,
        },
        "o_heavy_pairs": _heavy_pairs_at(g, adjacent=False),
        "a_heavy_pairs": _heavy_pairs_at(g, adjacent=True),
        "closures": closures,
        "regions": region_summary,
        "families": sorted(k.value for k in verdict.families),
        "verdict": verdict.status.value,
        "hamiltonian": ham.result,
        "cycle": list(ham.cycle) if ham.cycle else None,
        "version": __version__,
        # no computation reads a seed; the key keeps the report format
        "seed": 0,
    }


def cmd_classify(args) -> int:
    undecided = False
    for g in _read_graphs(args):
        report = _report(g, args.budget)
        undecided |= report["hamiltonian"] is None
        print(json.dumps(report))
        if args.explain and report["regions"] is not None:
            for i, region in enumerate(report["regions"]["regions"]):
                members = ", ".join(map(str, region))
                print(f"# region {i}: {{{members}}}")
            print(f"# interior: {report['regions']['interior']}")
            print(f"# frontier: {report['regions']['frontier']}")
    return 3 if undecided else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamclosure",
        description="closure operators, heavy-pair classification, and "
        "clique-chain families for hamiltonicity analysis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_io(p):
        p.add_argument("graph", nargs="?", help="graph6 string (default: read stdin)")
        p.add_argument(
            "--input-format", choices=("graph6", "edgelist"), default="graph6",
            help="edgelist reads the file the positional argument names, or stdin",
        )

    p = sub.add_parser("closure", help="compute a closure and emit the closed graph")
    add_graph_io(p)
    p.add_argument("--kind", choices=CLOSURES, required=True)
    p.add_argument("--trace", action="store_true", help="append the step trace")
    p.add_argument("--emit", choices=("graph6", "edgelist", "dot"), default="graph6")
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("detect", help="list induced pattern embeddings")
    add_graph_io(p)
    p.add_argument("--pattern", help="claw, p4, p5, p6, c3, z1, z2, bull, net, wounded, diamond")
    p.add_argument("--heaviness", action="store_true", help="print the net heaviness profile")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("generate", help="build a family member from a params file")
    p.add_argument("--params", required=True, help="path to the params file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit", choices=("graph6", "edgelist", "dot"), default="graph6")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, help="suite name or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None, help="hamiltonicity node budget")
    p.add_argument("--table", action="store_true", help="print per-sample detail rows")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("classify", help="full structural report as JSON")
    add_graph_io(p)
    p.add_argument("--explain", action="store_true", help="also print the region decomposition")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=cmd_classify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; ``parse_args`` only reads it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "detect" and not args.heaviness and not args.pattern:
        parser.error("detect needs --pattern or --heaviness")
    try:
        return args.fn(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HamclosureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
