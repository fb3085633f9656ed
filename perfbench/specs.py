"""The four benchmark workloads: how each is built, run and checked.

Every workload goes through the simulator's public entry points with
the default executor (``SweepExecutor()``: inline, serial, no result
cache).  ``prepare`` is the set-up phase (imports done by the caller,
spec and config construction here); the callable it returns is the
measured phase; ``summarize`` turns that phase's output into the
figures the benchmark reports and checks.

The figure sweeps fix their own ``WorkloadParams`` (fig12 full scale:
200 ops, 256 KB footprint; fig13 quick scale: 30 ops, 64 KB), so the
seed only reaches ``CampaignSpec.seed`` and ``TrafficSpec.seed``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

WORKLOADS = ("fig12-1c", "fig13-mc", "crash-campaign", "kv-serve")

#: The seed at which every workload must report ``failed == 0``; a
#: failure there fails the run.
DEFAULT_SEED = 42

#: The paper's SCA-over-FCA gaps (EXPERIMENTS.md): Figure 12's single
#: core runtime gap and Figure 13's throughput gap per core count.
PAPER_FIG12_GAP_PCT = 6.3
PAPER_FIG13_GAP_PCT = {1: 6.3, 2: 11.5, 4: 21.8}

CAMPAIGN_DESIGNS = ("sca", "fca", "sca+bmt")
SERVICE_DESIGNS = ("sca", "fca", "sca+bmt")

#: Fault models under which a silent-corruption cell is expected for a
#: design without an integrity tree; only the fault-free control is
#: held to never-silent there.
_CONTROL_FAULT = "none"

#: Timing fields stripped from service documents before digesting,
#: plus ``key``, which hashes the source tree and so changes with any
#: code edit.
_SERVICE_TIMING_KEYS = frozenset(
    ("key", "runtime_ns", "crash_ns", "latency", "throughput_ops_per_ms")
)


@dataclass
class Summary:
    """What one measured phase produced, reduced to checkable figures."""

    digest: str
    attempted: int
    failed: int
    #: Workload-specific unit of work (cells, KV ops) and its name.
    items: int = 0
    item_metric: Optional[str] = None
    claims: Dict[str, bool] = field(default_factory=dict)
    paper_gap_err_pp: Optional[float] = None
    notes: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


def digest_of(document: object) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- the figure sweeps -----------------------------------------------------


def _prepare_fig12(seed: int, size: str) -> Callable[[], object]:
    from repro.bench.experiments import Fig12SingleCore
    from repro.bench.parallel import SweepExecutor

    experiment = Fig12SingleCore()
    scale = "full" if size == "full" else "quick"
    return lambda: experiment.run(scale, executor=SweepExecutor())


def _summarize_fig12(result, size: str, machine_runs: int) -> Summary:
    points = result.as_dict()["series"]
    gap_pct = (points["fca"]["average"] / points["sca"]["average"] - 1.0) * 100.0
    return Summary(
        digest=digest_of(result.as_dict()),
        attempted=machine_runs,
        failed=0,
        claims=dict(result.claims),
        paper_gap_err_pp=abs(gap_pct - PAPER_FIG12_GAP_PCT),
        notes=["FCA-over-SCA runtime gap %.3f%% (paper %.1f%%)" % (gap_pct, PAPER_FIG12_GAP_PCT)],
    )


#: Figure 13's quick-scale sweep, spelled out so the benchmark does not
#: drift when the experiment's defaults change.
FIG13_CORES = {"full": (1, 2, 4), "tiny": (1, 2)}
FIG13_SHARDS = (1, 2)
FIG13_WORKLOADS = {"full": ("hash", "btree"), "tiny": ("hash",)}


def _prepare_fig13(seed: int, size: str) -> Callable[[], object]:
    from repro.bench.experiments import Fig13MultiCore
    from repro.bench.parallel import SweepExecutor

    experiment = Fig13MultiCore(
        core_counts=FIG13_CORES[size],
        workloads=list(FIG13_WORKLOADS[size]),
        shard_counts=FIG13_SHARDS,
    )
    return lambda: experiment.run("quick", executor=SweepExecutor())


def _summarize_fig13(result, size: str, machine_runs: int) -> Summary:
    series = result.as_dict()["series"]
    gaps: Dict[int, float] = {}
    for cores in FIG13_CORES[size]:
        label = "%dc" % cores
        ratios = [
            series["%s/sca" % wl][label] / series["%s/fca" % wl][label]
            for wl in FIG13_WORKLOADS[size]
        ]
        gaps[cores] = (statistics.fmean(ratios) - 1.0) * 100.0
    errors = [abs(gaps[c] - PAPER_FIG13_GAP_PCT[c]) for c in gaps]
    return Summary(
        digest=digest_of(result.as_dict()),
        attempted=machine_runs,
        failed=0,
        claims=dict(result.claims),
        paper_gap_err_pp=statistics.fmean(errors),
        notes=[
            "SCA-over-FCA throughput gap "
            + ", ".join(
                "%dc=%.3f%% (paper %.1f%%)" % (c, gaps[c], PAPER_FIG13_GAP_PCT[c])
                for c in gaps
            )
        ],
    )


# -- crash campaign --------------------------------------------------------


def _campaign_spec(seed: int, size: str):
    from repro.crash.campaign import CampaignSpec
    from repro.faults.registry import DEFAULT_SUITE

    if size == "full":
        return CampaignSpec(
            workloads=("array", "btree"),
            designs=CAMPAIGN_DESIGNS,
            mechanisms=("undo",),
            faults=DEFAULT_SUITE,
            crash_points=16,
            operations=8,
            with_counter_recovery=True,
            seed=seed,
        )
    return CampaignSpec(
        workloads=("array",),
        designs=CAMPAIGN_DESIGNS,
        mechanisms=("undo",),
        faults=DEFAULT_SUITE,
        crash_points=2,
        operations=4,
        with_counter_recovery=True,
        seed=seed,
    )


def _prepare_campaign(seed: int, size: str) -> Callable[[], object]:
    from repro.bench.parallel import SweepExecutor
    from repro.crash.campaign import CampaignRunner

    runner = CampaignRunner(_campaign_spec(seed, size), executor=SweepExecutor())
    return runner.run


def campaign_failures(results) -> List[Tuple[str, str, str, str, int]]:
    """Cells the benchmark counts as failed, grouped per job.

    ``recovery-crashed`` always counts.  ``silent-corruption`` counts
    under the fault-free control or under a ``+bmt`` design, where the
    tree promises never-silent; a tree-less design going silent under
    an injected fault is the expected outcome the campaign measures.
    """
    failures = []
    for result in results:
        job = result["job"]
        outcomes = result["outcomes"]
        crashed = outcomes.get("recovery-crashed", 0)
        if crashed:
            failures.append((job["workload"], job["design"], job["fault"], "recovery-crashed", crashed))
        silent = outcomes.get("silent-corruption", 0)
        if silent and (job["fault"] == _CONTROL_FAULT or job["design"].endswith("+bmt")):
            failures.append((job["workload"], job["design"], job["fault"], "silent-corruption", silent))
    return failures


def _summarize_campaign(report, size: str, machine_runs: int) -> Summary:
    tallies = [
        {
            "job": result["job"],
            "points": result["points"],
            "crash_times": result["crash_times"],
            "fault_events": result["fault_events"],
            "outcomes": result["outcomes"],
        }
        for result in report.results
    ]
    failures = campaign_failures(report.results)
    totals = report.as_dict()["totals"]
    return Summary(
        digest=digest_of(tallies),
        attempted=report.points,
        failed=sum(count for *_, count in failures),
        items=report.points,
        item_metric="crash_cells_per_s",
        notes=["totals " + ", ".join("%s=%d" % (k, v) for k, v in totals.items() if v)],
        failures=["%s/%s fault=%s: %d %s cell(s)" % (w, d, f, n, kind) for w, d, f, kind, n in failures],
    )


# -- KV service ------------------------------------------------------------


def _service_jobs(seed: int, size: str):
    from repro.service.scenario import ServiceJob
    from repro.service.traffic import TrafficSpec

    operations = 4000 if size == "full" else 200
    return [
        ServiceJob(design, TrafficSpec(tenants=4, operations=operations, seed=seed))
        for design in SERVICE_DESIGNS
    ]


def _prepare_service(seed: int, size: str) -> Callable[[], object]:
    from repro.bench.parallel import SweepExecutor
    from repro.service.scenario import ServiceRunner

    runner = ServiceRunner(_service_jobs(seed, size), executor=SweepExecutor())
    return runner.run


def _strip_timing(value: object) -> object:
    if isinstance(value, dict):
        return {
            k: _strip_timing(v) for k, v in value.items() if k not in _SERVICE_TIMING_KEYS
        }
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def _summarize_service(report, size: str, machine_runs: int) -> Summary:
    ops = sum(result["totals"]["ops"] for result in report.results)
    failures = []
    for result in report.results:
        lost = result["totals"]["acked_lost"]
        if lost:
            failures.append("%s: %d acked operation(s) lost" % (result["design"], lost))
        crash = result.get("crash") or {}
        if crash.get("silent"):
            failures.append("%s: silent verdict %s" % (result["design"], crash["silent"]))
    silent_tenants = sum(
        1
        for result in report.results
        if result.get("crash")
        for tenant in result["tenants"]
        if tenant["durability"]["consistent"] is False and result["crash"]["silent"]
    )
    return Summary(
        digest=digest_of([_strip_timing(result) for result in report.results]),
        attempted=ops,
        failed=report.acked_lost + silent_tenants,
        items=ops,
        item_metric="kv_ops_per_s",
        notes=[
            "%s: %s, %d acked" % (r["design"], r["status"], r["totals"]["acked"])
            for r in report.results
        ],
        failures=failures,
    )


@dataclass(frozen=True)
class WorkloadDef:
    prepare: Callable[[int, str], Callable[[], object]]
    summarize: Callable[[object, str, int], Summary]


REGISTRY: Dict[str, WorkloadDef] = {
    "fig12-1c": WorkloadDef(_prepare_fig12, _summarize_fig12),
    "fig13-mc": WorkloadDef(_prepare_fig13, _summarize_fig13),
    "crash-campaign": WorkloadDef(_prepare_campaign, _summarize_campaign),
    "kv-serve": WorkloadDef(_prepare_service, _summarize_service),
}
