"""Record the benchmark's known answers at the current commit.

Usage, from the root of a source checkout:

    python3 benchmark/record_reference.py

Writes ``benchmark/reference/classify_random.json`` (the sha256 of each
pool graph's ``classify`` report, and the graphs with no verdict within
``ClassifyRandom.unfinished_after_s``) and ``benchmark/reference/inputs.json``
(the default-seed input digest of every workload). Run it only when a
change is meant to alter these answers, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import _on_alarm, timed_call  # noqa: E402
from workloads import (  # noqa: E402
    CLASSIFY_REFERENCE,
    DEFAULT_SEED,
    INPUT_DIGESTS,
    WORKLOADS,
    ClassifyRandom,
    Item,
    input_digest,
)


def record_classify() -> None:
    pool = ClassifyRandom.pool()
    # a reference that admits every pool graph, so each one is sent
    runner = ClassifyRandom(DEFAULT_SEED, {"reports": dict.fromkeys(pool, ""), "unfinished": []})
    reports, unfinished = {}, []
    for g6 in pool:
        elapsed, outcome = timed_call(runner, Item(g6), ClassifyRandom.unfinished_after_s)
        if outcome.failure is None:
            reports[g6] = hashlib.sha256(outcome.value.encode()).hexdigest()
        else:
            unfinished.append(g6)
        print(f"{g6} {elapsed:.3f} s {outcome.failure or 'ok'}", flush=True)
    with open(CLASSIFY_REFERENCE, "w") as fh:
        json.dump({"unfinished_after_s": ClassifyRandom.unfinished_after_s,
                   "reports": reports, "unfinished": unfinished}, fh, indent=1)
        fh.write("\n")


def record_input_digests() -> None:
    digests = {name: input_digest(cls(DEFAULT_SEED).items) for name, cls in WORKLOADS.items()}
    with open(INPUT_DIGESTS, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(digests, indent=1))


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    CLASSIFY_REFERENCE.parent.mkdir(exist_ok=True)
    record_classify()
    record_input_digests()
    return 0


if __name__ == "__main__":
    sys.exit(main())
