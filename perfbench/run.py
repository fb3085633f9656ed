"""The repository benchmark: four workloads, each timed in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 42 --seconds 28 --trace 0

``NAME`` is one of fig12-1c, fig13-mc, crash-campaign, kv-serve, or
``all`` to run the four in turn.  Run from the repository root; the
simulator is imported from ``src/``.  See ``perfbench/README.md`` for
the workloads, the metrics and how to read them.

With ``--trace 0`` the run measures set-up in several set-up-only
processes, then repeats the workload, one fresh process per repetition,
until ``--seconds`` is spent (at least three repetitions), and reports
medians.  Every repetition is bracketed by timings of a fixed reference
kernel (``reference.py``); ``wall_ref`` divides the repetition's wall
time by them, which cancels the shared host's changing speed.  With
``--trace 1`` it runs the workload once untraced and once with every
layer wrapped, and reports the per-layer split.

Every repetition must produce the same output digest; the figure claims
must hold; at the default seed no operation may fail.  The last line of
standard output is the result object; the lines before it print every
metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402  (benchmark modules next to this file)
import reference  # noqa: E402
import specs  # noqa: E402

#: Set-up-only processes per run: the first compiles bytecode and is
#: not timed, the rest are set-up samples (each repetition adds one).
SETUP_PROBES = 4
#: Repetitions per run: at least MIN_REPS, then more while the next is
#: expected to end within --seconds.  Host speed on a shared machine
#: drifts, so the count adapts instead of the run's length.
MIN_REPS = 3
MAX_REPS = 12
#: Each child process must end within this many seconds.
CHILD_TIMEOUT_S = 150

#: End-to-end metrics in the result object: name -> unit.  Raw host
#: times and rates (wall_s, sim_ops_per_s, ...) are in the report line:
#: on the shared host they move by more than any useful bound between
#: runs of identical code.
END_TO_END_UNITS: Dict[str, str] = {
    "wall_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Output digests recorded at the commit that defined the benchmark
#: (workload, seed; None for the seed-independent sweeps).  A change
#: meant only to speed the simulator up must leave them unchanged.
REFERENCE_DIGESTS: Dict[Tuple[str, Optional[int]], str] = {
    ("fig12-1c", None): "952eac8f89290b5a",
    ("fig13-mc", None): "2734e8f3ee65e8ac",
    ("crash-campaign", 42): "2ee17d71e015ab6b",
    ("crash-campaign", 7): "0fc6d05f605fbb15",
    ("kv-serve", 42): "c66edf824e96ca0c",
    ("kv-serve", 7): "297b1d677371fe14",
}


class BenchError(Exception):
    """A child process failed; the run reports it and exits non-zero."""


def _child(workload: str, seed: int, size: str, *flags: str) -> Tuple[float, dict]:
    """Run one fresh interpreter; returns (spawn time, its JSON line)."""
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
    ] + list(flags)
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s: child exceeded %d s" % (workload, CHILD_TIMEOUT_S)) from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            "%s: child exited %d\n%s" % (workload, done.returncode, done.stderr.strip())
        )
    return spawned, json.loads(lines[-1])


def _setup_s(spawned: float, document: dict) -> float:
    return document["ready_at"] - spawned


def _outputs(document: dict) -> dict:
    """The parts of a run that must repeat exactly."""
    summary = dict(document["summary"])
    summary["sim_ops"] = document["sim_ops"]
    return summary


def _check(seed: int, documents: List[dict]) -> List[str]:
    """Correctness problems across a run's repetitions."""
    problems = []
    first = _outputs(documents[0])
    for other in documents[1:]:
        if _outputs(other) != first:
            problems.append("outputs differ between repetitions of the same seed")
            break
    for claim, holds in first["claims"].items():
        if not holds:
            problems.append("figure claim false: %s" % claim)
    if seed == specs.DEFAULT_SEED and first["failed"]:
        problems.append(
            "%d of %d operations failed at the default seed: %s"
            % (first["failed"], first["attempted"], "; ".join(first["failures"]))
        )
    for document in documents:
        missing = document.get("coverage_failures")
        if missing:
            problems.append("traced run: wrapped functions never fired: %s" % ", ".join(missing))
    return problems


def _reference(workload: str, seed: int, size: str, digest: str) -> str:
    key = (workload, None) if workload in layers.SWEEPS else (workload, seed)
    expected = REFERENCE_DIGESTS.get(key) if size == "full" else None
    if expected is None:
        return "unrecorded"
    return "match" if expected == digest else "differs"


def measure(workload: str, seed: int, seconds: float, size: str) -> dict:
    """The untraced run: set-up probes, then bracketed repetitions."""
    kernel = reference.Reference()
    _child(workload, seed, size, "--setup-only")  # compiles bytecode
    setups = []
    for _ in range(SETUP_PROBES - 1):
        spawned, document = _child(workload, seed, size, "--setup-only")
        setups.append(_setup_s(spawned, document))
    reps: List[dict] = []
    refs: List[float] = []
    durations: List[float] = []
    started = time.monotonic()
    while len(reps) < MAX_REPS:
        lap = time.monotonic()
        before = kernel.samples()
        spawned, document = _child(workload, seed, size)
        refs.append(statistics.median(before + kernel.samples()))
        durations.append(time.monotonic() - lap)
        setups.append(_setup_s(spawned, document))
        reps.append(document)
        elapsed = time.monotonic() - started
        if len(reps) >= MIN_REPS and elapsed + statistics.median(durations) > seconds:
            break
    walls = [r["wall_s"] for r in reps]
    summary = reps[0]["summary"]
    metrics = {
        "wall_ref": statistics.median(w / ref for w, ref in zip(walls, refs)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    extra = {
        "wall_s": (statistics.median(walls), "s"),
        "ref_s": (statistics.median(refs), "s"),
        "sim_ops_per_s": (statistics.median(r["sim_ops"] / r["wall_s"] for r in reps), "1/s"),
    }
    if summary["item_metric"]:
        extra[summary["item_metric"]] = (
            statistics.median(summary["items"] / w for w in walls),
            "1/s",
        )
    return {
        "metrics": metrics,
        "extra": extra,
        "documents": reps,
        "samples": {
            "wall_s": walls,
            "ref_s": refs,
            "cpu_s": [r["cpu_s"] for r in reps],
            "setup_s": setups,
        },
    }


def measure_traced(workload: str, seed: int, size: str) -> dict:
    """One untraced and one traced repetition: the per-layer split."""
    _spawned, plain = _child(workload, seed, size)
    _spawned, traced = _child(workload, seed, size, "--trace")
    metrics = dict(traced["layers"])
    metrics["tracing.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {"metrics": metrics, "extra": {}, "documents": [plain, traced], "samples": {}}


def run_one(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    if trace:
        measured = measure_traced(workload, seed, size)
        units = layers.PER_LAYER_UNITS
    else:
        measured = measure(workload, seed, seconds, size)
        units = END_TO_END_UNITS
    documents = measured["documents"]
    summary = documents[0]["summary"]
    problems = _check(seed, documents)
    attempted = summary["attempted"]
    failed = summary["failed"]
    report = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "repetitions": len(documents),
        "digest": summary["digest"],
        "reference_digest": _reference(workload, seed, size, summary["digest"]),
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "claims": summary["claims"],
        "notes": summary["notes"],
        "failures": summary["failures"],
        "problems": problems,
        "samples": measured["samples"],
    }
    if summary["paper_gap_err_pp"] is not None:
        report["paper_gap_err_pp"] = {"value": summary["paper_gap_err_pp"], "unit": "pp"}
    for name, (value, unit) in measured["extra"].items():
        report[name] = {"value": value, "unit": unit}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": measured["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
        "report": report,
    }


def _print_lines(result: dict) -> None:
    report = result["report"]
    print("== %s (seed %d, %d repetition(s))" % (report["workload"], report["seed"], report["repetitions"]))
    named = dict(result["metrics"])
    for key in ("wall_s", "ref_s", "sim_ops_per_s", "crash_cells_per_s", "kv_ops_per_s",
                "paper_gap_err_pp", "failed_frac"):
        if key in report:
            named[key] = report[key]
    for name, metric in named.items():
        print("  %-26s %16.6f %s" % (name, metric["value"], metric["unit"]))
    print("  %-26s %16s (reference: %s)" % ("digest", report["digest"], report["reference_digest"]))
    for note in report["notes"]:
        print("  note: %s" % note)
    for failure in report["failures"]:
        print("  FAILED: %s" % failure)
    for problem in report["problems"]:
        print("  INCORRECT: %s" % problem, file=sys.stderr)
    print(json.dumps({"report": report}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=specs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for smoke tests; not comparable",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no simulator sources at %s" % os.path.join(ROOT, "src", "repro"), file=sys.stderr)
        return 2
    workloads = specs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_one(workload, args.seed, args.seconds, bool(args.trace), args.size)
            _print_lines(results[workload])
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                "%s.%s" % (workload, name): metric
                for workload, result in results.items()
                for name, metric in result["metrics"].items()
            },
        }
    else:
        final = {key: results[args.workload][key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
