"""End-to-end KV service scenarios: traffic -> crash -> recover -> SLO.

One :class:`ServiceJob` runs the full story for one design point:

1. generate the seeded traffic stream (:mod:`repro.service.traffic`);
2. execute it through the multi-tenant KV engine into one trace
   (:mod:`repro.service.kv`) and simulate it under the design's timing
   model;
3. optionally cut power mid-traffic via
   :class:`~repro.crash.injector.CrashInjector` — composable with the
   fault-model registry and nested-crash recovery plans;
4. recover every tenant arena through the bounded
   :class:`~repro.crash.session.RecoverySession` ladder and validate
   per-tenant linearizable prefixes;
5. fold the timing model's txn end times into per-tenant latency
   percentiles, throughput, and the durability triage
   (:mod:`repro.service.slo`).

:class:`ServiceRunner` sweeps jobs across designs with the shared
executor (inline, or the lease work queue with ``--workers``) and
the same journal/resume discipline campaigns use — a killed
``repro-bench serve`` pointed at the same ``--serve-dir`` resumes
instead of re-running finished designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..config import fast_config
from ..core.designs import get_design
from ..crash.campaign import JobJournal, job_key
from ..crash.injector import CrashInjector
from ..crash.session import RecoverySession
from ..crash.verdict import Status
from ..errors import ServiceError
from ..faults import make_fault_model
from ..sim.machine import Machine
from .kv import ServiceValidator, ServiceWorkload
from .slo import TenantSLO, attribute_latencies, summarize_tenants
from .traffic import TrafficSpec, generate_operations, stream_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle (bench -> crash)
    from ..bench.parallel import SweepExecutor

JOURNAL_NAME = "journal.jsonl"


@dataclass(frozen=True)
class ServiceJob:
    """One (design, traffic, crash plan) service cell; picklable."""

    design: str
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    mechanism: str = "undo"
    #: Cut power mid-traffic (False = crash-free SLO baseline).
    crash: bool = True
    #: Where in the run to crash: fraction of total simulated runtime;
    #: the nearest durability-interesting instant is used.
    crash_fraction: float = 0.5
    #: Optional fault model applied to the crash image (PR 8 registry).
    fault: Optional[str] = None
    fault_params: Tuple[Tuple[str, object], ...] = ()
    #: Sweep a nested mid-recovery power failure as well.
    nested_crash: bool = False
    nested_steps: int = 2
    with_counter_recovery: bool = False
    #: Log entries per tenant arena (bounds lines per transaction).
    log_capacity: int = 48

    def document(self) -> Dict[str, object]:
        return {
            "kind": "kv-service",
            "design": self.design,
            "traffic": self.traffic.as_dict(),
            "mechanism": self.mechanism,
            "crash": self.crash,
            "crash_fraction": self.crash_fraction,
            "fault": self.fault,
            "fault_params": dict(self.fault_params),
            "nested_crash": self.nested_crash,
            "nested_steps": self.nested_steps,
            "with_counter_recovery": self.with_counter_recovery,
            "log_capacity": self.log_capacity,
        }


def _pick_crash_time(injector: CrashInjector, fraction: float) -> float:
    """The durability-interesting instant closest to ``fraction``.

    Candidates are the post-event instants (each distinct durable
    state) plus the between-event midpoints (in-flight states), so the
    crash lands somewhere recovery actually has work to do.
    """
    candidates = sorted(
        set(injector.interesting_times()) | set(injector.midpoint_times())
    )
    if not candidates:
        raise ServiceError("the service trace produced no durability events")
    target = fraction * candidates[-1]
    return min(candidates, key=lambda t: (abs(t - target), t))


def run_service_job(job: ServiceJob) -> Dict[str, object]:
    """Execute one service cell; the (picklable) worker entry point.

    Returns a JSON-ready report document: per-tenant SLOs, the crash
    triage, and enough identity (job key + stream fingerprint) for
    journaled resume and determinism checks.
    """
    if not 0.0 < job.crash_fraction < 1.0:
        raise ServiceError("crash_fraction must be in (0, 1)")
    policy = get_design(job.design)
    config = fast_config()
    spec = job.traffic
    operations = generate_operations(spec)
    workload = ServiceWorkload(
        config,
        spec.tenants,
        mechanism=job.mechanism,
        log_capacity=job.log_capacity,
    )
    workload.execute(operations)
    run = workload.build_run(operations)
    result = Machine(config, policy).run([run.trace])
    txn_ends = result.txn_end_times[0]
    timings = attribute_latencies(run, txn_ends, spec)
    splits = sum(store.splits for store in workload.stores)

    document: Dict[str, object] = {
        "key": job_key(job),
        "job": job.document(),
        "design": job.design,
        "mechanism": job.mechanism,
        "stream_fingerprint": stream_fingerprint(operations),
        "runtime_ns": round(result.stats.runtime_ns, 3),
        "transactions": len(run.commit_order),
        "splits": splits,
    }

    if not job.crash:
        slos = summarize_tenants(spec, timings)
        document["crash"] = None
        document["status"] = "crash-free"
        document["consistent"] = None
        document["tenants"] = [
            slo.as_dict(result.stats.runtime_ns) for slo in slos
        ]
        document["totals"] = _totals(slos, result.stats.runtime_ns)
        return document

    injector = CrashInjector(result)
    crash_ns = _pick_crash_time(injector, job.crash_fraction)
    fault_events: List[Dict[str, object]] = []
    if job.fault is not None:
        model = make_fault_model(job.fault, **dict(job.fault_params))
        image, events = injector.crash_with_faults(
            crash_ns, [model], seed=spec.seed
        )
        fault_events = [event.as_dict() for event in events]
    else:
        image = injector.crash_at(crash_ns)

    plan = None
    if job.nested_crash:
        from ..faults.recovery import RecoveryFaultPlan, nested_point_grid

        # One deterministic schedule (the first of the grid): the serve
        # path is a smoke/report tool; the full grid lives in campaigns.
        schedules = nested_point_grid(job.nested_steps, counter_search=False)
        if schedules:
            plan = RecoveryFaultPlan(schedules[0], seed=spec.seed)

    recoverer = None
    if job.with_counter_recovery and policy.encrypts:
        from ..crash.counter_recovery import CounterRecoverer

        recoverer = CounterRecoverer(config.encryption)

    validator = ServiceValidator(run, txn_end_times=txn_ends)
    session = RecoverySession(
        config,
        encrypted=policy.encrypts,
        plan=plan,
        recoverer=recoverer,
        tree_checked=policy.integrity_tree,
    )
    session_result = session.run(image, validator.classify)
    verdict = session_result.verdict

    slos = summarize_tenants(spec, timings, crash_ns=crash_ns)
    prefixes: Dict[int, Optional[int]] = (
        {tenant: v.matched_prefix for tenant, v in enumerate(verdict.tenants)}
        if verdict is not None
        else {}
    )
    # op index -> (tenant, last tenant-local txn index): an operation's
    # effects survived iff its last transaction is inside the tenant's
    # recovered prefix.
    last_local: Dict[int, Tuple[int, int]] = {}
    for record in run.commit_order:
        if record.op_index is not None:
            last_local[record.op_index] = (record.tenant, record.local_index)
    for timing in timings:
        tenant, local_index = last_local[timing.op_index]
        prefix = prefixes.get(tenant)
        surviving = prefix is not None and local_index < prefix
        acked = timing.ack_ns <= crash_ns
        if acked and not surviving:
            slos[tenant].acked_lost += 1
        elif not acked and surviving:
            slos[tenant].unacked_recovered += 1
    for slo in slos:
        slo.recovered_prefix = prefixes.get(slo.tenant)
        if verdict is not None:
            # A verdict that failed before per-tenant validation (e.g.
            # a detected decryption failure during log replay) carries
            # no tenant detail: every tenant is inconsistent.
            if slo.tenant < len(verdict.tenants):
                slo.consistent = verdict.tenants[slo.tenant].consistent
            else:
                slo.consistent = False

    document["crash"] = {
        "crash_ns": round(crash_ns, 3),
        "status": session_result.status.value,
        "detail": session_result.detail,
        "nested_injected": session_result.nested_injected,
        "via_search": session_result.via_search,
        "fault_events": fault_events,
        "detected": list(verdict.detected) if verdict is not None else [],
        "silent": list(verdict.silent) if verdict is not None else [],
    }
    document["status"] = session_result.status.value
    document["consistent"] = verdict.consistent if verdict is not None else False
    document["tenants"] = [slo.as_dict(crash_ns) for slo in slos]
    document["totals"] = _totals(slos, crash_ns)
    return document


def _totals(slos: Sequence[TenantSLO], horizon_ns: float) -> Dict[str, object]:
    """Cross-tenant aggregate (histograms merged, counters summed)."""
    from .slo import LatencyHistogram

    merged = LatencyHistogram()
    acked = lost = recovered = ops = 0
    for slo in slos:
        merged.merge(slo.histogram)
        ops += slo.ops
        acked += slo.acked
        lost += slo.acked_lost
        recovered += slo.unacked_recovered
    throughput = acked / (horizon_ns / 1e6) if horizon_ns > 0 else 0.0
    return {
        "ops": ops,
        "acked": acked,
        "acked_lost": lost,
        "unacked_recovered": recovered,
        "throughput_ops_per_ms": round(throughput, 3),
        "latency": merged.as_dict(),
    }


@dataclass
class ServiceReport:
    """All designs' SLO reports, plus runner bookkeeping."""

    results: List[Dict[str, object]]
    resumed_jobs: int = 0
    executor_stats: Dict[str, object] = field(default_factory=dict)
    journal_quarantined: int = 0
    journal_superseded: int = 0

    @property
    def acked_lost(self) -> int:
        return sum(r["totals"]["acked_lost"] for r in self.results)

    @property
    def silent(self) -> int:
        """Silent verdicts on designs that promise crash consistency."""
        count = 0
        for result in self.results:
            crash = result.get("crash")
            if not crash:
                continue
            if crash["silent"] and get_design(result["design"]).crash_consistent:
                count += 1
        return count

    @property
    def crashed(self) -> int:
        return sum(1 for r in self.results if r["status"] == Status.CRASHED.value)

    @property
    def durability_violations(self) -> int:
        """Crash-consistent designs that lost acked writes or went silent.

        ``unsafe``-class designs are *expected* to lose acknowledged
        writes — their losses are reported, not counted as violations.
        """
        count = 0
        for result in self.results:
            crash = result.get("crash")
            if not crash:
                continue
            if not get_design(result["design"]).crash_consistent:
                continue
            if result["totals"]["acked_lost"] or crash["silent"]:
                count += 1
        return count

    def as_dict(self) -> Dict[str, object]:
        return {
            "results": self.results,
            "resumed_jobs": self.resumed_jobs,
            "executor": dict(self.executor_stats),
            "journal_quarantined": self.journal_quarantined,
            "journal_superseded": self.journal_superseded,
        }

    def render(self) -> str:
        """Per-design, per-tenant SLO table plus the durability triage."""
        lines: List[str] = []
        lines.append("kv service — %d design report(s)" % len(self.results))
        header = "%-14s %-7s %6s %6s %10s %10s %10s %10s %6s %6s  %s" % (
            "design", "tenant", "ops", "acked", "p50_us", "p99_us",
            "p999_us", "ops/ms", "LOST", "urec", "verdict",
        )
        lines.append(header)
        lines.append("-" * len(header))
        for result in self.results:
            crash = result.get("crash")
            status = result["status"]
            for tenant in result["tenants"]:
                latency = tenant["latency"]
                durability = tenant["durability"]
                verdict = status if crash else "crash-free"
                if durability["consistent"] is False:
                    verdict += "!"
                lines.append(
                    "%-14s %-7d %6d %6d %10.2f %10.2f %10.2f %10.2f %6d %6d  %s"
                    % (
                        result["design"],
                        tenant["tenant"],
                        tenant["ops"],
                        tenant["acked"],
                        latency["p50_ns"] / 1e3,
                        latency["p99_ns"] / 1e3,
                        latency["p999_ns"] / 1e3,
                        tenant["throughput_ops_per_ms"],
                        durability["acked_lost"],
                        durability["unacked_recovered"],
                        verdict,
                    )
                )
            totals = result["totals"]
            summary = (
                "%-14s total   %6d %6d acked, %d acked-but-lost, "
                "%d unacked-recovered"
                % (
                    result["design"],
                    totals["ops"],
                    totals["acked"],
                    totals["acked_lost"],
                    totals["unacked_recovered"],
                )
            )
            if crash:
                summary += "; crash@%.0fns -> %s" % (crash["crash_ns"], status)
                if crash["detail"]:
                    summary += " (%s)" % crash["detail"]
            lines.append(summary)
            lines.append("-" * len(header))
        if self.resumed_jobs:
            lines.append(
                "resumed: %d design report(s) restored from the journal"
                % self.resumed_jobs
            )
        if self.journal_quarantined:
            lines.append(
                "journal: %d torn line(s) quarantined; those jobs re-ran"
                % self.journal_quarantined
            )
        return "\n".join(lines)


class ServiceRunner:
    """Executes service jobs across designs with journal/resume."""

    def __init__(
        self,
        jobs: Sequence[ServiceJob],
        executor: Optional["SweepExecutor"] = None,
        journal_dir: Optional[str] = None,
    ) -> None:
        from ..bench.parallel import SweepExecutor

        if not jobs:
            raise ServiceError("the service runner needs at least one job")
        self.jobs = list(jobs)
        self.executor = executor if executor is not None else SweepExecutor()
        self.journal = JobJournal(
            journal_dir, name=JOURNAL_NAME, require=("key", "totals")
        )

    def run(self) -> ServiceReport:
        """Run (or resume) every job; returns the combined report."""
        keys = [job_key(job) for job in self.jobs]
        completed = self.journal.load()
        results: List[Optional[Dict[str, object]]] = [
            completed.get(key) for key in keys
        ]
        pending = [index for index, result in enumerate(results) if result is None]
        resumed = len(self.jobs) - len(pending)
        if pending:
            fresh = self.executor.map(
                run_service_job,
                [self.jobs[index] for index in pending],
                on_result=lambda _index, value: self.journal.append(value),
                job_ids=[keys[index] for index in pending],
            )
            for index, value in zip(pending, fresh):
                results[index] = value
        return ServiceReport(
            results=results,  # type: ignore[arg-type]
            resumed_jobs=resumed,
            executor_stats=self.executor.stats(),
            journal_quarantined=self.journal.quarantined,
            journal_superseded=self.journal.superseded,
        )
