"""One untraced round of one workload, in a fresh process.

``python -m bench`` starts ``python -m bench.round WORKLOAD SEED`` for
every (workload, round), with ``src`` on the path and every ``REPRO_*``
variable removed, so each round measures the default stack from a cold
interpreter.  The last line of standard output is one JSON object:

``ready_at``
    ``time.monotonic()`` once the imports are done and the first
    machine is built; the parent subtracts its own clock reading from
    before the spawn (one system-wide clock on Linux) to get set-up time.
``wall_s``
    Host seconds spent running the round's ops.
``peak_rss_mb``
    ``ru_maxrss`` of this process and of its children, whichever is
    larger, in MiB.
``ops``
    Per op: label, digest, work and failures.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict

from bench.workloads import prepare


def run_round(workload: str, seed: int) -> dict:
    ops = prepare(workload, seed)
    ready_at = time.monotonic()
    start = time.perf_counter()
    outcomes = [op.outcome() for op in ops]
    wall_s = time.perf_counter() - start
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "ready_at": ready_at,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kib / 1024,
        "ops": [asdict(outcome) for outcome in outcomes],
    }


if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    print(json.dumps(run_round(workload, seed)))
