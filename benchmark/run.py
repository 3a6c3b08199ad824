"""hamclosure benchmark: time to a verdict, one graph at a time.

Usage, from the root of a source checkout:

    python3 benchmark/run.py --workload classify-random --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: each graph is sent only after
the previous one returned, in one single-threaded process. ``--trace 0``
prints the end-to-end metrics, with times in seconds at a reference
machine speed (see ``speed.py``); ``--trace 1`` runs one untraced and one
traced pass over the same inputs, timed by the wall clock, and prints the
per-layer metrics and the tracing overhead. Every output is checked against a known answer. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from spans import Patch, SpanRecorder, layer_metrics  # noqa: E402
from speed import SpeedTimer, WallTimer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    PINNED_SLOW,
    WORKLOADS,
    Outcome,
    input_digest,
    recorded_input_digests,
)

# Set-up is repeated and its median reported, so one slow import does not
# decide the figure.
SETUP_REPEATS = 7
SPAN_DIR = BENCH_DIR / "out"


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so that no handler inside the
    package under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def timed_call(workload, item, deadline_s: float, recorder=None,
               timer=None) -> tuple[float, Outcome]:
    """Run one operation under a per-graph deadline; a miss costs the deadline.
    ``timer`` defaults to the wall clock."""
    timer = timer or WallTimer()
    missed = False
    timer.start()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        outcome = workload.run(item)
    except DeadlineExceeded:
        outcome, missed = Outcome(None, f"deadline {deadline_s:g} s"), True
    except Exception as exc:  # a failed operation is counted, and the loop goes on
        outcome = Outcome(None, f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = timer.stop()
    if outcome.failure is not None and recorder is not None:
        recorder.close_open()
    return (deadline_s if missed else elapsed), outcome


class PassResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.problems: list[tuple[str, str]] = []
        self.correct = 0
        self.wall = 0.0  # wall-clock seconds of the whole pass, checks included


def run_pass(workload, timer, recorder=None) -> PassResult:
    result = PassResult()
    start = time.perf_counter()
    for item in workload.items:
        elapsed, outcome = timed_call(workload, item, workload.deadline_s, recorder, timer)
        result.latencies.append(elapsed)
        if outcome.failure is not None:
            result.failures.append((item.g6, outcome.failure))
            continue
        problem = workload.check(item, outcome.value)
        if problem is None:
            result.correct += 1
        else:
            result.problems.append((item.g6, problem))
    result.wall = time.perf_counter() - start
    return result


def build(workload_cls, seed: int, timer):
    """Import hamclosure afresh and build the inputs; return (workload, seconds)."""
    for name in [m for m in sys.modules if m == "hamclosure" or m.startswith("hamclosure.")]:
        del sys.modules[name]
    timer.start()
    workload = workload_cls(seed)
    return workload, timer.stop()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digest_problem(workload, seed: int) -> str | None:
    digest = input_digest(workload.items)
    print(f"inputs sha256 {digest} ({len(workload.items)} graphs)")
    if seed != DEFAULT_SEED:
        return None
    recorded = recorded_input_digests()[workload.name]
    if digest != recorded:
        return f"default-seed input digest {digest} differs from the recorded {recorded}"
    return None


def result(passes, digest_issue: str | None, metrics: dict) -> dict:
    """Print failed and incorrect operations; assemble the result object."""
    for p in passes:
        for g6, reason in p.failures:
            print(f"failed {g6}: {reason}")
        for g6, problem in p.problems:
            print(f"incorrect {g6}: {problem}")
    if digest_issue:
        print(digest_issue)
    return {
        "correct": digest_issue is None and not any(p.problems for p in passes),
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "metrics": metrics,
    }


def probe_tail(workload) -> None:
    """Send the pinned slow graph once, outside the timed loop, so that the
    known unbounded case stays visible on every run without being timed."""
    for item in workload.probes:
        if item.g6 != PINNED_SLOW:
            continue
        elapsed, outcome = timed_call(workload, item, workload.unfinished_after_s)
        verdict = outcome.failure or "verdict"
        print(f"tail probe {item.g6}: {verdict} after {elapsed:.3f} s "
              f"({len(workload.probes)} pool graphs had no verdict within "
              f"{workload.unfinished_after_s:g} s when the reference was recorded)")


def measure(workload_cls, seed: int, seconds: float) -> dict:
    timer = SpeedTimer()
    setups = []
    for _ in range(SETUP_REPEATS):
        workload, elapsed = build(workload_cls, seed, timer)
        setups.append(elapsed)
    digest_issue = digest_problem(workload, seed)
    passes = [run_pass(workload, timer)]
    for _ in range(max(1, round(seconds / max(passes[0].wall, 1e-9))) - 1):
        passes.append(run_pass(workload, timer))
    # Every operation of every pass is one latency sample.
    latencies = [elapsed for p in passes for elapsed in p.latencies]
    attempted = len(latencies)
    failed = sum(len(p.failures) for p in passes)
    correct = sum(p.correct for p in passes)
    probe_tail(workload)
    walls = ", ".join(f"{p.wall:.3f}" for p in passes)
    p90 = percentile(latencies, 0.9)
    print(f"{len(passes)} passes ({walls} s wall); {attempted} latency samples, "
          f"{sum(t > p90 for t in latencies)} beyond p90")
    print(timer.describe())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "graphs_per_s": ((attempted - failed) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (p90, "s"),
        "decided_share": ((attempted - failed) / attempted, "ratio"),
        "correct_share": (correct / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return result(passes, digest_issue, metrics)


def measure_traced(workload_cls, seed: int) -> dict:
    timer = WallTimer()
    workload, _ = build(workload_cls, seed, timer)
    digest_issue = digest_problem(workload, seed)
    plain = run_pass(workload, timer)
    recorder = SpanRecorder()
    with Patch(recorder):
        traced_workload = workload_cls(seed)
        traced = run_pass(traced_workload, timer, recorder)
    if input_digest(traced_workload.items) != input_digest(workload.items):
        digest_issue = "traced and untraced runs built different inputs"
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload_cls.name}.bin"
    recorder.write(span_file)
    print(f"{len(recorder)} spans written to {span_file.relative_to(BENCH_DIR.parent)}; "
          f"untraced {sum(plain.latencies):.3f} s, traced {sum(traced.latencies):.3f} s")
    metrics = {name: (value, _unit(name)) for name, value in layer_metrics(recorder).items()}
    metrics["trace.overhead_s"] = (sum(traced.latencies) - sum(plain.latencies), "s")
    metrics["trace.spans"] = (len(recorder), "count")
    return result((plain, traced), digest_issue, metrics)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_call"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    source = Path.cwd() / "src"
    if not (source / "hamclosure" / "__init__.py").is_file():
        print(f"error: no hamclosure sources under {source}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    signal.signal(signal.SIGALRM, _on_alarm)
    workload_cls = WORKLOADS[args.workload]
    print(f"workload {args.workload}, seed {args.seed}, closed loop, one client")
    if args.trace:
        report = measure_traced(workload_cls, args.seed)
    else:
        report = measure(workload_cls, args.seed, args.seconds)
    for name, (value, unit) in report["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    report["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
