"""Resumable crash campaigns: workloads x designs x crash points x faults.

A *campaign* is the systematic version of the one-off crash sweep: for
every combination of workload, design, transaction mechanism and fault
model it reconstructs crash images across the run, corrupts them with
the fault model, runs real recovery, and labels every outcome with the
triage taxonomy of :class:`repro.crash.verdict.Outcome` (the labels
are described there, in one place).

Campaigns are deterministic (same seed, same spec -> same outcome
table) and resumable: every finished job is journaled to
``<dir>/journal.jsonl`` as it completes, and a rerun skips journaled
jobs whose key (spec + seed + code version) still matches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import shutil
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import KB
from ..errors import CampaignError, CampaignJournalError
from ..faults import make_fault_model
from ..faults.registry import DEFAULT_SUITE
from ..utils.durable import append_line, write_atomic
from .injector import CrashInjector, uniform_sample
from .verdict import Outcome

if TYPE_CHECKING:  # pragma: no cover - import cycle (bench -> txn -> crash)
    from ..bench.parallel import SweepExecutor

logger = logging.getLogger(__name__)

#: Cap on non-clean outcome examples kept per job for the triage report.
EXAMPLES_PER_JOB = 3


@dataclass(frozen=True)
class CampaignJob:
    """One independent campaign cell; picklable and hashable."""

    workload: str
    design: str
    mechanism: str
    fault: str
    fault_params: Tuple[Tuple[str, object], ...] = ()
    crash_points: int = 20
    seed: int = 42
    operations: int = 8
    footprint_bytes: int = 8 * KB
    #: Memory-controller shards the simulated machine runs
    #: (:mod:`repro.mem.sharded`).  Above 1 the job also sweeps
    #: shard-subset ADR failures and reconciles the cross-shard commit
    #: log (``shard_failures`` in the result document).
    shards: int = 1
    #: Retry detected failures with the Osiris-style counter search;
    #: part of the job's identity (it changes the outcome table).
    with_counter_recovery: bool = False
    #: Sweep the nested-crash axis: every crash point is additionally
    #: recovered under each schedule of the crash-point x recovery-step
    #: grid (:func:`repro.faults.recovery.nested_point_grid`).
    nested_crash: bool = False
    #: Recovery steps per phase the nested grid covers.
    nested_steps: int = 2
    #: Execution-only plumbing, deliberately NOT part of ``document()``
    #: (and therefore not of the job key): where this job checkpoints
    #: its simulation, and how often.
    checkpoint_dir: Optional[str] = None
    checkpoint_every: Optional[int] = None

    def document(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "design": self.design,
            "mechanism": self.mechanism,
            "fault": self.fault,
            "fault_params": dict(self.fault_params),
            "crash_points": self.crash_points,
            "seed": self.seed,
            "operations": self.operations,
            "footprint_bytes": self.footprint_bytes,
            "shards": self.shards,
            "with_counter_recovery": self.with_counter_recovery,
            "nested_crash": self.nested_crash,
            "nested_steps": self.nested_steps,
        }


def job_key(job: CampaignJob) -> str:
    """Content hash identifying one job's result.

    The code version is part of the key: resuming a campaign across a
    simulator change re-runs everything rather than mixing semantics.
    """
    from ..utils.versioning import code_version

    document = job.document()
    document["code"] = code_version()
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def run_campaign_job(job: CampaignJob) -> Dict[str, object]:
    """Execute one campaign cell; the (picklable) worker entry point.

    Returns a JSON-ready result document: outcome tallies over every
    swept crash point, fault-event count, example failures, and the
    job's checkpoint/restore accounting.

    Every crash point is recovered through a
    :class:`~repro.crash.session.RecoverySession` (the bounded
    escalation ladder).  With ``job.nested_crash`` set, each crash
    point is additionally recovered under every schedule of the
    crash-point x recovery-step grid, injecting a second power failure
    mid-recovery and requiring the resumed recovery to converge.

    The simulation phase checkpoints to ``job.checkpoint_dir`` (when
    set) and resumes from the newest valid snapshot there, so a worker
    killed mid-simulation loses at most one checkpoint interval.
    """
    from ..bench.resilience import run_workload_resilient
    from ..config import fast_config
    from ..faults.recovery import RecoveryFaultPlan, nested_point_grid
    from ..workloads.base import WorkloadParams
    from .session import RecoverySession, error_digest

    params = WorkloadParams(
        operations=job.operations,
        seed=job.seed,
        footprint_bytes=job.footprint_bytes,
    )
    outcome, resilience = run_workload_resilient(
        job.design,
        job.workload,
        config=fast_config(shards=job.shards),
        mechanism=job.mechanism,
        params=params,
        checkpoint_dir=job.checkpoint_dir,
        every_events=job.checkpoint_every,
    )
    config = outcome.result.config
    injector = CrashInjector(outcome.result)
    per_kind = max(2, job.crash_points // 2)
    times = sorted(
        set(injector.interesting_times(limit=per_kind))
        | set(injector.midpoint_times(limit=per_kind))
    )
    times = uniform_sample(times, job.crash_points)
    validator = outcome.validator(0)
    encrypted = outcome.result.policy.encrypts
    model = make_fault_model(job.fault, **dict(job.fault_params))
    recoverer = None
    if job.with_counter_recovery and encrypted:
        from .counter_recovery import CounterRecoverer

        recoverer = CounterRecoverer(config.encryption)
    tree_checked = outcome.result.policy.integrity_tree
    # The nested sweep: a no-injection baseline cell plus one cell per
    # fault-point schedule.  Phases a design cannot enter (no search,
    # no tree) are not swept — those points could never fire.
    schedules: List[Optional[Tuple]] = [None]
    if job.nested_crash:
        schedules.extend(
            nested_point_grid(
                job.nested_steps,
                counter_search=recoverer is not None,
                tree_repair=tree_checked and recoverer is not None,
            )
        )

    tallies: Dict[str, int] = {o.value: 0 for o in Outcome}
    examples: List[Dict[str, object]] = []
    fault_events = 0
    nested_injected = 0
    cells = 0
    for crash_ns in times:
        for schedule in schedules:
            image, events = injector.crash_with_faults(
                crash_ns, [model], seed=job.seed
            )
            fault_events += len(events)
            plan = (
                RecoveryFaultPlan(schedule, seed=job.seed)
                if schedule is not None
                else None
            )
            session = RecoverySession(
                config,
                encrypted=encrypted,
                plan=plan,
                recoverer=recoverer,
                tree_checked=tree_checked,
            )
            session_error = None
            try:
                result = session.run(image, validator.classify)
            except Exception as exc:  # ladder non-convergence: a finding
                session_error = error_digest(exc)
                classified = Outcome.CRASHED
                detail = "%s: %s" % (session_error["type"], session_error["message"])
                ladder = None
            else:
                classified = Outcome.of(
                    result.status,
                    result.via_search,
                    nested=schedule is not None and result.nested_injected > 0,
                )
                detail = result.detail
                session_error = result.error
                nested_injected += result.nested_injected
                ladder = result.ledger.as_dict()
            tallies[classified.value] += 1
            cells += 1
            if not classified.clean and len(examples) < EXAMPLES_PER_JOB:
                example: Dict[str, object] = {
                    "crash_ns": crash_ns,
                    "outcome": classified.value,
                    "detail": detail,
                    "fault_events": [event.as_dict() for event in events],
                }
                if schedule is not None:
                    example["nested_plan"] = [point.as_dict() for point in schedule]
                if ladder is not None:
                    example["ladder"] = ladder
                if session_error is not None:
                    # Triage for recovery-crashed cells: exception type,
                    # message and a short stack digest for grouping.
                    example["error"] = session_error
                examples.append(example)
    document: Dict[str, object] = {
        "key": job_key(job),
        "job": job.document(),
        "points": cells,
        "crash_times": len(times),
        "nested_schedules": len(schedules) - 1,
        "nested_injected": nested_injected,
        "fault_events": fault_events,
        "outcomes": tallies,
        "examples": examples,
        "resilience": resilience,
    }
    if job.shards > 1:
        # Shard-subset ADR failures + cross-shard reconciliation
        # (docs/sharding.md).  Tearing an *uncommitted* transaction is
        # expected physics of a mid-drain reserve loss; losing a commit
        # the barrier proved durable is the contract violation
        # ``--strict`` fails on.
        from .sharded import sweep_shard_failures

        document["shard_failures"] = sweep_shard_failures(
            outcome.result,
            outcome.runs[0],
            max_points=max(2, job.crash_points // 4),
        )
    return document


@dataclass
class CampaignSpec:
    """What a campaign sweeps.

    ``faults`` entries are fault specs: a registry name or a mapping
    like ``{"model": "dropped-adr", "budget": 2}``.
    """

    workloads: Sequence[str] = ("array",)
    designs: Sequence[str] = ("sca", "unsafe")
    mechanisms: Sequence[str] = ("undo",)
    faults: Sequence[object] = DEFAULT_SUITE
    crash_points: int = 20
    seed: int = 42
    operations: int = 8
    footprint_bytes: int = 8 * KB
    with_counter_recovery: bool = False
    #: Sweep the nested-crash axis: every crash point is additionally
    #: recovered under each schedule of the crash-point x recovery-step
    #: grid (a second power failure mid-recovery).
    nested_crash: bool = False
    #: How many recovery steps the nested grid covers per phase.
    nested_steps: int = 2
    #: Memory-controller shards every job's machine runs with; above 1
    #: each job also sweeps shard-subset ADR failures and reconciles
    #: the cross-shard commit log.
    shards: int = 1

    def _fault_fields(self) -> List[Tuple[str, Tuple[Tuple[str, object], ...]]]:
        normalized = []
        for entry in self.faults:
            if isinstance(entry, str):
                name, params = entry, {}
            elif isinstance(entry, Mapping):
                document = dict(entry)
                name = document.pop("model", None)
                params = document
                if not isinstance(name, str):
                    raise CampaignError("fault spec needs a 'model' name: %r" % entry)
            else:
                raise CampaignError("bad fault spec %r" % (entry,))
            normalized.append((name, tuple(sorted(params.items()))))
        return normalized

    def validate(self) -> None:
        """Fail fast on misconfiguration, before any worker runs."""
        from ..core.designs import get_design
        from ..errors import ConfigurationError, FaultInjectionError
        from ..txn.manager import TransactionMechanism
        from ..workloads.registry import list_workloads

        if self.crash_points < 1:
            raise CampaignError("a campaign needs at least one crash point")
        if self.nested_crash and self.nested_steps < 1:
            raise CampaignError("a nested-crash campaign needs nested_steps >= 1")
        if self.shards < 1:
            raise CampaignError("a campaign needs at least one shard")
        if not (self.workloads and self.designs and self.mechanisms and self.faults):
            raise CampaignError("empty campaign axis (workloads/designs/mechanisms/faults)")
        known_workloads = set(list_workloads(include_extra=True))
        for workload in self.workloads:
            if workload not in known_workloads:
                raise CampaignError(
                    "unknown workload %r; available: %s"
                    % (workload, ", ".join(sorted(known_workloads)))
                )
        for design in self.designs:
            try:
                get_design(design)
            except ConfigurationError as exc:
                raise CampaignError(str(exc)) from None
        for mechanism in self.mechanisms:
            try:
                TransactionMechanism(mechanism)
            except ValueError:
                raise CampaignError(
                    "unknown transaction mechanism %r" % mechanism
                ) from None
        for name, params in self._fault_fields():
            try:
                make_fault_model(name, **dict(params))
            except FaultInjectionError as exc:
                raise CampaignError(str(exc)) from None

    def jobs(self) -> List[CampaignJob]:
        """The full cross product, in deterministic order."""
        self.validate()
        jobs = []
        for workload in self.workloads:
            for design in self.designs:
                for mechanism in self.mechanisms:
                    for fault, fault_params in self._fault_fields():
                        jobs.append(
                            CampaignJob(
                                workload=workload,
                                design=design,
                                mechanism=mechanism,
                                fault=fault,
                                fault_params=fault_params,
                                crash_points=self.crash_points,
                                seed=self.seed,
                                operations=self.operations,
                                footprint_bytes=self.footprint_bytes,
                                with_counter_recovery=self.with_counter_recovery,
                                nested_crash=self.nested_crash,
                                nested_steps=self.nested_steps,
                                shards=self.shards,
                            )
                        )
        return jobs

    def as_dict(self) -> Dict[str, object]:
        return {
            "workloads": list(self.workloads),
            "designs": list(self.designs),
            "mechanisms": list(self.mechanisms),
            "faults": [
                {"model": name, **dict(params)} for name, params in self._fault_fields()
            ],
            "crash_points": self.crash_points,
            "seed": self.seed,
            "operations": self.operations,
            "footprint_bytes": self.footprint_bytes,
            "with_counter_recovery": self.with_counter_recovery,
            "nested_crash": self.nested_crash,
            "nested_steps": self.nested_steps,
            "shards": self.shards,
        }


@dataclass
class CampaignReport:
    """Aggregate of one campaign run, ready to render or serialize."""

    spec: Dict[str, object]
    results: List[Dict[str, object]]
    resumed_jobs: int = 0
    executor_stats: Dict[str, object] = field(default_factory=dict)
    resilience: Dict[str, int] = field(default_factory=dict)
    #: Torn trailing journal lines moved aside during resume.
    journal_quarantined: int = 0
    #: Older duplicate journal records dropped during resume (a retried
    #: job appends a second record; only the newest counts).
    journal_superseded: int = 0

    def total(self, outcome: Outcome) -> int:
        # .get: journal entries written before an outcome class existed
        # simply count zero for it.
        return sum(r["outcomes"].get(outcome.value, 0) for r in self.results)

    @property
    def points(self) -> int:
        return sum(r["points"] for r in self.results)

    @property
    def crashed(self) -> int:
        return self.total(Outcome.CRASHED)

    @property
    def silent(self) -> int:
        return self.total(Outcome.SILENT)

    def as_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec,
            "results": self.results,
            "resumed_jobs": self.resumed_jobs,
            "totals": {o.value: self.total(o) for o in Outcome},
            "points": self.points,
            "executor": dict(self.executor_stats),
            "resilience": dict(self.resilience),
            "journal_quarantined": self.journal_quarantined,
            "journal_superseded": self.journal_superseded,
        }

    def render(self) -> str:
        """The triage report: per-cell table, totals, failure examples."""
        lines: List[str] = []
        lines.append("crash campaign — %d job(s), %d crash point(s)" % (
            len(self.results), self.points))
        header = "%-10s %-13s %-13s %-18s %6s %6s %6s %6s %6s %6s %6s %6s %6s" % (
            "workload", "design", "mechanism", "fault",
            "points", "recov", "search", "nrecov", "detect", "tree", "ndet",
            "SILENT", "CRASH",
        )
        lines.append(header)
        lines.append("-" * len(header))
        for result in self.results:
            job = result["job"]
            outcomes = result["outcomes"]
            lines.append(
                "%-10s %-13s %-13s %-18s %6d %6d %6d %6d %6d %6d %6d %6d %6d"
                % (
                    job["workload"],
                    job["design"],
                    job["mechanism"],
                    job["fault"],
                    result["points"],
                    # One column per label, in declaration order.
                    *(outcomes.get(o.value, 0) for o in Outcome),
                )
            )
        lines.append("-" * len(header))
        lines.append(
            "totals: "
            + ", ".join("%d %s" % (self.total(o), o.value) for o in Outcome)
        )
        if self.resumed_jobs:
            lines.append("resumed: %d job(s) restored from the journal" % self.resumed_jobs)
        if self.journal_quarantined:
            lines.append(
                "journal: %d torn line(s) quarantined; those jobs re-ran"
                % self.journal_quarantined
            )
        if self.journal_superseded:
            lines.append(
                "journal: %d superseded record(s) deduped (retried jobs count once)"
                % self.journal_superseded
            )
        if any(self.resilience.values()):
            lines.append(
                "checkpointing: %d snapshot(s) saved, %d run(s) restored, "
                "%d quarantined, %d invalidated"
                % (
                    self.resilience.get("saved", 0),
                    self.resilience.get("restored", 0),
                    self.resilience.get("quarantined", 0),
                    self.resilience.get("invalidated", 0),
                )
            )
        triage = [
            (result["job"], example)
            for result in self.results
            for example in result["examples"]
            if example["outcome"] in (Outcome.SILENT.value, Outcome.CRASHED.value)
        ]
        if triage:
            lines.append("")
            lines.append("triage (%d silent/crashed example(s)):" % len(triage))
            for job, example in triage[:20]:
                lines.append(
                    "  [%s] %s/%s/%s fault=%s crash@%.1fns: %s"
                    % (
                        example["outcome"],
                        job["workload"],
                        job["design"],
                        job["mechanism"],
                        job["fault"],
                        example["crash_ns"],
                        example["detail"],
                    )
                )
        return "\n".join(lines)


class JobJournal:
    """Append-only, crash-safe jsonl journal of finished job documents.

    Shared by every resumable runner (crash campaigns, the KV service
    scenarios): each record is one JSON object carrying at least a
    ``key`` plus whatever ``require`` fields the owner shape-checks.
    Records are fsynced line-by-line, deduped last-record-wins on load,
    and torn trailing lines (a mid-write kill) are quarantined to a
    side file instead of failing the resume.
    """

    def __init__(
        self,
        journal_dir: Optional[str],
        name: str = "journal.jsonl",
        require: Sequence[str] = ("key",),
    ) -> None:
        self.journal_dir = journal_dir
        self.path = (
            os.path.join(journal_dir, name) if journal_dir is not None else None
        )
        self.require = tuple(require)
        #: Torn lines moved aside by the last :meth:`load`.
        self.quarantined = 0
        #: Older duplicate records dropped by the last :meth:`load`.
        self.superseded = 0

    def load(self) -> Dict[str, Dict[str, object]]:
        if self.path is None or not os.path.exists(self.path):
            return {}
        completed: Dict[str, Dict[str, object]] = {}
        # Dedupe by job key, last record wins.  A retried job (e.g. a
        # worker killed after journaling, a ``retry_crashed`` re-run, or
        # an at-least-once workqueue delivery) appends a *second* record
        # for the same key; keeping both would double-count its points
        # in any journal-derived tally, so older records are superseded
        # and dropped from the rewritten journal.
        line_by_key: Dict[str, str] = {}
        order: List[str] = []
        torn_lines: List[str] = []
        superseded = 0
        try:
            with open(self.path, "r", encoding="utf-8") as stream:
                for raw in stream:
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        document = json.loads(line)
                        key = document["key"]
                        for required in self.require:
                            document[required]  # shape check
                    except (ValueError, KeyError, TypeError):
                        # A line torn by a mid-write kill (typically the
                        # trailing one): quarantine it and re-run that
                        # job rather than failing the whole resume.
                        torn_lines.append(line)
                        continue
                    if key in completed:
                        superseded += 1
                    else:
                        order.append(key)
                    completed[key] = document
                    line_by_key[key] = line
        except OSError as exc:
            raise CampaignJournalError(
                "cannot read job journal %s: %s" % (self.path, exc)
            ) from None
        good_lines = [line_by_key[key] for key in order]
        self.superseded += superseded
        self.quarantined += len(torn_lines)
        if not (torn_lines or superseded):
            return completed
        # Rewrite the journal with only the surviving lines, torn ones
        # moved to a side file first.  Both writes are best-effort: a
        # read-only journal degrades to in-memory skipping/dedup, never
        # to a failed resume.
        quarantine_path = self.path + ".quarantine"
        try:
            if torn_lines:
                append_line(quarantine_path, "\n".join(torn_lines))
            write_atomic(
                self.path, "".join(line + "\n" for line in good_lines).encode("utf-8")
            )
        except OSError as exc:
            if torn_lines:
                logger.warning(
                    "job journal %s: could not quarantine %d torn line(s) (%s); "
                    "they will be skipped in memory instead",
                    self.path,
                    len(torn_lines),
                    exc,
                )
            else:
                logger.warning(
                    "job journal %s: could not rewrite deduped journal (%s)",
                    self.path,
                    exc,
                )
            return completed
        if torn_lines:
            logger.warning(
                "job journal %s: quarantined %d torn line(s) to %s",
                self.path,
                len(torn_lines),
                quarantine_path,
            )
        return completed

    def append(self, result: Dict[str, object]) -> None:
        if self.path is None:
            return
        assert self.journal_dir is not None
        os.makedirs(self.journal_dir, exist_ok=True)
        try:
            # One fsynced line per record: a power cut or SIGKILL can
            # tear at most the line being written, and that line is
            # quarantined (not fatal) on the next resume.
            append_line(self.path, json.dumps(result, sort_keys=True))
        except OSError as exc:
            raise CampaignJournalError(
                "cannot append to job journal %s: %s" % (self.path, exc)
            ) from None


class CampaignRunner:
    """Plans, executes, journals and resumes a campaign.

    With ``checkpoint_dir`` set, every pending job checkpoints its
    simulation under ``<checkpoint_dir>/<job_key>`` and resumes from
    there after a kill; finished jobs' checkpoint state is deleted as
    soon as their result is journaled (the journal is the durable
    record, the snapshots are only scaffolding).
    """

    JOURNAL_NAME = "journal.jsonl"

    def __init__(
        self,
        spec: CampaignSpec,
        executor: Optional[SweepExecutor] = None,
        journal_dir: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        retry_crashed: bool = False,
    ) -> None:
        from ..bench.parallel import SweepExecutor

        self.spec = spec
        self.executor = executor if executor is not None else SweepExecutor()
        self.journal = JobJournal(
            journal_dir, name=self.JOURNAL_NAME, require=("key", "outcomes")
        )
        self.journal_dir = journal_dir
        self.journal_path = self.journal.path
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        #: Re-run journaled jobs whose record shows recovery-crashed
        #: cells instead of resuming them (their retry record supersedes
        #: the old one in the journal).
        self.retry_crashed = retry_crashed

    @property
    def journal_quarantined(self) -> int:
        return self.journal.quarantined

    @property
    def journal_superseded(self) -> int:
        return self.journal.superseded

    # -- execution --------------------------------------------------------

    def _prepare_job(self, job: CampaignJob, key: str) -> CampaignJob:
        """Attach per-job checkpoint plumbing (key-neutral)."""
        if self.checkpoint_dir is None:
            return job
        job_dir = os.path.join(self.checkpoint_dir, key)
        return dataclasses.replace(
            job,
            checkpoint_dir=job_dir,
            checkpoint_every=self.checkpoint_every,
        )

    def _cleanup_job_state(self, key: str) -> None:
        """Drop a journaled job's checkpoint scaffolding."""
        if self.checkpoint_dir is None:
            return
        shutil.rmtree(os.path.join(self.checkpoint_dir, key), ignore_errors=True)

    def run(self) -> CampaignReport:
        """Run (or resume) the campaign and return the triage report."""
        jobs = self.spec.jobs()
        completed = self.journal.load()
        if self.retry_crashed:
            # Treat journaled jobs with recovery-crashed cells as
            # pending again; their fresh record supersedes the old one
            # at the next resume (last-record-wins dedupe above).
            retried = [
                key
                for key, record in completed.items()
                if record["outcomes"].get(Outcome.CRASHED.value, 0)
            ]
            for key in retried:
                del completed[key]
            if retried:
                logger.info(
                    "campaign retry: re-running %d job(s) with crashed cells",
                    len(retried),
                )
        keys = [job_key(job) for job in jobs]
        results: List[Optional[Dict[str, object]]] = [
            completed.get(key) for key in keys
        ]
        pending = [index for index, result in enumerate(results) if result is None]
        resumed = len(jobs) - len(pending)
        if resumed:
            logger.info("campaign resume: %d/%d job(s) journaled", resumed, len(jobs))
        for index, result in enumerate(results):
            if result is not None:
                self._cleanup_job_state(keys[index])
        if pending:
            prepared = [self._prepare_job(jobs[index], keys[index]) for index in pending]

            def _journal_and_cleanup(_index: int, value: Dict[str, object]) -> None:
                self.journal.append(value)
                self._cleanup_job_state(value["key"])

            fresh = self.executor.map(
                run_campaign_job,
                prepared,
                on_result=_journal_and_cleanup,
                # The job key doubles as the work queue's
                # idempotent-publication key, giving distributed runs
                # the same exactly-once resume the journal gives local
                # ones.
                job_ids=[keys[index] for index in pending],
            )
            for index, value in zip(pending, fresh):
                results[index] = value
        resilience: Dict[str, int] = {
            "saved": 0, "restored": 0, "quarantined": 0, "invalidated": 0,
        }
        for result in results:
            job_resilience = result.get("resilience") or {}
            for counter in resilience:
                resilience[counter] += int(job_resilience.get(counter, 0))
        return CampaignReport(
            spec=self.spec.as_dict(),
            results=results,  # type: ignore[arg-type]
            resumed_jobs=resumed,
            executor_stats=self.executor.stats(),
            resilience=resilience,
            journal_quarantined=self.journal_quarantined,
            journal_superseded=self.journal_superseded,
        )
