"""One fresh-interpreter run of one benchmark workload.

    python3 perfbench/child.py --workload NAME --seed N [--size full|tiny]
                               [--setup-only] [--trace]

Prints one JSON line.  ``ready_at`` is ``time.monotonic()`` (the
system-wide monotonic clock) at the end of set-up, so the parent that
spawned this process measures set-up from interpreter start.  The
measured phase runs only with ``--setup-only`` absent; ``--trace``
wraps the layers (see ``layers.py``) around it.

Each timed run is its own process because trace memoisation
(``repro.bench.harness._TRACE_MEMO``) and the OTP pad caches persist
inside one interpreter, and every command-line user pays for them cold.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402  (benchmark module next to this file)
import specs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    definition = specs.REGISTRY[args.workload]
    measured = definition.prepare(args.seed, args.size)
    counts: Counter = Counter()
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    else:
        layers.install_machine_counter(counts)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    cpu_start = time.process_time()
    start = time.perf_counter()
    output = measured()
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    if tracer is not None:
        tracer.uninstall()
        counts = tracer.counts
    summary = definition.summarize(output, args.size, counts["sim.runs"])
    document = {
        "ready_at": ready_at,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_ops": counts["sim.ops"],
        "summary": vars(summary),
    }
    if tracer is not None:
        document["coverage_failures"] = tracer.coverage_failures(args.workload)
        document["layers"] = tracer.metrics(wall_s)
        document["calls"] = dict(tracer.calls)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
