"""In-memory span recorder that traces hamclosure from outside the package.

Each traced function object is replaced, in every ``hamclosure`` module
namespace and class that binds it, by a wrapper that records one span per
call: name, start, end and the index of the enclosing traced span. Spans
live in flat arrays until the run ends; self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from array import array
from collections import Counter

# (module, attribute path) of every traced function, in report order.
TRACED = (
    ("cli", "main"),
    ("graphs", "Graph.add_edges"),
    ("graphs", "Graph.induced"),
    ("graphs", "maximal_cliques"),
    ("graphs", "is_2_connected"),
    ("heaviness", "o_heavy_pairs"),
    ("heaviness", "is_pattern_o_heavy"),
    ("patterns", "has_induced"),
    ("patterns", "find_induced"),
    ("patterns", "net_profile"),
    ("closures", "o_closure"),
    ("closures", "r_closure"),
    ("closures", "c_closure"),
    ("closures", "is_c_closed"),
    ("closures", "supergraph_search"),
    ("regions", "decompose"),
    ("families", "classify_theorem"),
    ("families", "recognize"),
    ("families", "is_c1n"),
    ("families", "is_c2n"),
    ("families", "is_c3nq"),
    ("families", "generate"),
    ("hamiltonicity", "is_hamiltonian"),
)

LAYERS = ("cli", "graphs", "heaviness", "patterns", "closures", "regions",
          "families", "hamiltonicity")

# Effort counts read from public return values of traced calls.
EFFORT = (
    "hamiltonicity.nodes",
    "hamiltonicity.undecided",
    "closures.supergraph_search.candidates",
    "closures.supergraph_search.satisfying",
    "families.recognize.searches",
    "families.recognize.matches",
)

# Base recognizers that recognize() runs directly or inside glue searches.
BASE_RECOGNIZERS = ("families.is_c1n", "families.is_c2n", "families.is_c3nq")


def _observe_hamiltonian(cert, counts: Counter) -> None:
    counts["hamiltonicity.nodes"] += cert.nodes_explored
    counts["hamiltonicity.undecided"] += cert.result is None


def _observe_supergraph(search, counts: Counter) -> None:
    counts["closures.supergraph_search.candidates"] += 2 ** len(search.non_edges)
    counts["closures.supergraph_search.satisfying"] += len(search.satisfying)


def _observe_recognize(witness, counts: Counter) -> None:
    # recognize() runs one search per family kind
    counts["families.recognize.searches"] += len(sys.modules["hamclosure.families"].FamilyKind)
    counts["families.recognize.matches"] += len(witness.families)


OBSERVERS = {
    "hamiltonicity.is_hamiltonian": _observe_hamiltonian,
    "closures.supergraph_search": _observe_supergraph,
    "families.recognize": _observe_recognize,
}


class SpanRecorder:
    """Flat span store; one instance per traced run, single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, observe=None):
        """Return a wrapper of ``fn`` that records a span named ``name``."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        clock, stack, counts = self.clock, self.stack, self.counts
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            start = clock()
            names.append(name_id)
            parents.append(parent)
            starts.append(start)
            ends.append(math.nan)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, counts)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def close_open(self) -> int:
        """End every span an interrupted call left open; return how many.

        An interrupt can land while a span is half appended, so the arrays
        are first cut back to their common length.
        """
        now = self.clock()
        arrays = (self.name, self.parent, self.start, self.end)
        n = min(map(len, arrays))
        for arr in arrays:
            del arr[n:]
        closed = 0
        # the last span may be complete but not yet on the stack
        for idx in {*self.stack, n - 1}:
            if 0 <= idx < n and math.isnan(self.end[idx]):
                self.end[idx] = now
                closed += 1
        self.stack.clear()
        return closed

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-name calls, total_s and self_s.

        ``total_s`` counts only the outermost span of a name on each call
        chain, so recursion through a traced name is not counted twice.
        """
        n = len(self.start)
        child = [0.0] * n
        ancestry = [0] * n  # bitmask of the names on the path to the root
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            dur = ends[i] - starts[i]
            bit = 1 << names[i]
            if p >= 0:
                child[p] += dur
                above = ancestry[p]
            else:
                above = 0
            ancestry[i] = above | bit
            row = out[self.names[names[i]]]
            row["calls"] += 1
            if not above & bit:
                row["total_s"] += dur
        for i in range(n):
            out[self.names[names[i]]]["self_s"] += ends[i] - starts[i] - child[i]
        return out

    def write(self, path) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", self.name.typecode], ["parent", self.parent.typecode],
                       ["start", self.start.typecode], ["end", self.end.typecode]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """Load a file written by SpanRecorder.write."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays[field] = arr
    return header["names"], arrays


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Patch:
    """Install wrappers for TRACED into the loaded hamclosure modules; undo on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patch":
        owners = {m: importlib.import_module(f"hamclosure.{m}") for m, _ in TRACED}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hamclosure" or name.startswith("hamclosure."))]
        for module_name, path in TRACED:
            name = f"{module_name}.{path}"
            owner, attr = _resolve(owners[module_name], path)
            original = vars(owner)[attr]
            wrapper = self.recorder.wrap(name, original, OBSERVERS.get(name))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            # rebind every name any hamclosure module holds for this object
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        return self

    def _set(self, owner, key: str, value) -> None:
        self.undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc) -> None:
        for owner, key, value in reversed(self.undo):
            setattr(owner, key, value)
        self.undo.clear()


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Flatten the aggregate into per-layer metric values, zeros included."""
    agg = recorder.aggregate()
    metrics: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for module_name, path in TRACED:
        name = f"{module_name}.{path}"
        row = agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.total_s"] = row["total_s"]
        metrics[f"{name}.self_s"] = row["self_s"]
        layer_self[module_name] += row["self_s"]
    for layer, value in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = value
    for key in EFFORT:
        metrics[key] = recorder.counts[key]
    base_calls = sum(metrics.get(f"{name}.calls", 0) for name in BASE_RECOGNIZERS)
    recognize_calls = metrics.get("families.recognize.calls", 0)
    metrics["families.recognize.base_calls_per_call"] = (
        base_calls / recognize_calls if recognize_calls else 0.0
    )
    return metrics
