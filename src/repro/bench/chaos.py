"""Chaos harness: seeded worker faults + the exactly-once invariant.

The lease work queue claims the same discipline for the *harness*
that selective counter-atomicity claims for the simulated memory
controller: no write (job result) is silently lost or duplicated
across a crash.  This module is how that claim is tested rather than
asserted — it injects seeded faults into workqueue workers and checks
the observable outcome against a serial oracle run.

Fault taxonomy (one latch per (job, fault): every injected fault fires
exactly once, so chaos runs always terminate):

``kill``
    The worker ``_exit``\\ s mid-job, lease held, nothing published —
    a crashed worker.  Recovery: lease expiry -> reclamation -> re-run
    on a respawned worker.
``stall``
    The worker goes silent (stops renewing its lease) while holding
    it — a hung worker.  Recovery: lease expiry -> the coordinator
    terminates the holder -> reclamation -> re-run.
``corrupt``
    The worker publishes a result whose payload no longer matches its
    checksum — a lying worker.  Recovery: frame verification ->
    quarantine -> re-run.
``duplicate``
    The worker publishes its result, then hands the job back as if it
    had never run it — a duplicated claim.  The second execution's
    publication must be dropped as a duplicate, never double-counted.

The invariant checked by :func:`run_chaos_campaign`: a seeded campaign
run on the work queue under chaos completes with triage counts
*bit-identical* to the same campaign run serially, with zero lost and
zero duplicated job results in the executor stats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "ChaosPlan",
    "run_chaos_campaign",
    "render_chaos_report",
]

#: Every fault the harness knows how to inject, in application order.
FAULT_KINDS: Tuple[str, ...] = ("kill", "stall", "corrupt", "duplicate")


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, reproducible schedule of worker faults.

    ``faults_by_job`` maps a job *index* (position in the submitted
    batch) to the fault kinds injected into that job's claims.  The
    work queue translates indices to job ids at dispatch time,
    and workers latch each (job, fault) pair exactly once.
    """

    seed: int
    faults_by_job: Mapping[int, Tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def generate(
        cls,
        seed: int,
        n_jobs: int,
        kinds: Sequence[str] = FAULT_KINDS,
        intensity: int = 1,
    ) -> "ChaosPlan":
        """Pick ``intensity`` victim jobs per fault kind, seeded.

        The same (seed, n_jobs, kinds, intensity) always yields the
        same plan, so a chaos failure is replayable from its seed.
        """
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    "unknown chaos fault %r; known: %s" % (kind, ", ".join(FAULT_KINDS))
                )
        rng = random.Random(seed)
        plan: Dict[int, List[str]] = {}
        if n_jobs > 0:
            for kind in kinds:
                for _ in range(max(0, int(intensity))):
                    victim = rng.randrange(n_jobs)
                    faults = plan.setdefault(victim, [])
                    if kind not in faults:
                        faults.append(kind)
        return cls(
            seed=seed,
            faults_by_job={index: tuple(faults) for index, faults in plan.items()},
        )

    def injected_counts(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in FAULT_KINDS}
        for faults in self.faults_by_job.values():
            for fault in faults:
                counts[fault] += 1
        return counts

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "faults_by_job": {
                str(index): list(faults)
                for index, faults in sorted(self.faults_by_job.items())
            },
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "ChaosPlan":
        raw = document.get("faults_by_job", {}) or {}
        return cls(
            seed=int(document.get("seed", 0)),
            faults_by_job={
                int(index): tuple(faults) for index, faults in dict(raw).items()
            },
        )


def run_chaos_campaign(
    spec,
    workers: int = 2,
    queue_dir: Optional[str] = None,
    lease_timeout_s: float = 2.0,
    chaos_seed: int = 1234,
    kinds: Sequence[str] = FAULT_KINDS,
    intensity: int = 1,
) -> Dict[str, Any]:
    """Run one campaign twice — serial oracle vs workqueue under chaos.

    Returns a JSON-ready verdict document.  ``ok`` is True iff

    * per-cell triage outcomes and campaign totals are bit-identical
      between the two runs,
    * every job's result was published exactly once (no losses, every
      duplicate publication dropped), and
    * no job had to be quarantined as poison (the injected faults are
      all recoverable, so poisoning would mean the protocol burned
      lease budget it should not have).
    """
    from ..crash.campaign import CampaignRunner, CampaignSpec  # noqa: F401
    from .parallel import SweepExecutor

    jobs = spec.jobs()
    plan = ChaosPlan.generate(
        chaos_seed, len(jobs), kinds=kinds, intensity=intensity
    )

    oracle_runner = CampaignRunner(spec, executor=SweepExecutor())
    oracle = oracle_runner.run()

    executor = SweepExecutor(
        workers=workers,
        queue_dir=queue_dir,
        lease_timeout_s=lease_timeout_s,
        # Injected faults burn lease budget by design; give the queue
        # enough headroom that no chaos victim is poisoned.
        max_retries=len(tuple(kinds)) + 1,
        chaos_plan=plan,
    )
    chaos_runner = CampaignRunner(spec, executor=executor)
    chaos = chaos_runner.run()

    oracle_doc: Dict[str, Any] = oracle.as_dict()
    chaos_doc: Dict[str, Any] = chaos.as_dict()
    oracle_cells = [result["outcomes"] for result in oracle_doc["results"]]
    chaos_cells = [result["outcomes"] for result in chaos_doc["results"]]
    stats: Dict[str, Any] = executor.stats()

    problems: List[str] = []
    if chaos_doc["totals"] != oracle_doc["totals"]:
        problems.append(
            "triage totals diverged: chaos %r vs oracle %r"
            % (chaos_doc["totals"], oracle_doc["totals"])
        )
    if chaos_cells != oracle_cells:
        problems.append("per-cell triage outcomes diverged from the serial oracle")
    published = int(stats["results_published"]) + int(stats["results_reused"])
    if published != len(jobs):
        problems.append(
            "exactly-once violated: %d result(s) published for %d job(s)"
            % (published, len(jobs))
        )
    if int(stats["jobs_lost"]):
        problems.append("%d job result(s) lost" % stats["jobs_lost"])
    if int(stats["poison_jobs"]):
        problems.append(
            "%d job(s) poisoned under recoverable chaos" % stats["poison_jobs"]
        )

    return {
        "ok": not problems,
        "problems": problems,
        "jobs": len(jobs),
        "workers": workers,
        "lease_timeout_s": lease_timeout_s,
        "plan": plan.as_dict(),
        "injected": plan.injected_counts(),
        "oracle_totals": oracle_doc["totals"],
        "chaos_totals": chaos_doc["totals"],
        "executor": stats,
    }


def render_chaos_report(document: Mapping[str, Any]) -> str:
    """Human-readable verdict for the CLI and CI logs."""
    stats = document["executor"]
    injected = document["injected"]
    lines = [
        "chaos campaign — %d job(s), %d worker(s), lease timeout %.1fs"
        % (document["jobs"], document["workers"], document["lease_timeout_s"]),
        "injected: "
        + ", ".join("%d %s" % (injected[kind], kind) for kind in FAULT_KINDS),
        "observed: %d claim(s), %d expired lease(s), %d reclaimed, "
        "%d duplicate publication(s) dropped, %d corrupt result(s) "
        "quarantined, %d worker respawn(s)"
        % (
            stats["leases_claimed"],
            stats["leases_expired"],
            stats["leases_reclaimed"],
            stats["duplicate_results"],
            stats["corrupt_results"],
            stats["worker_respawns"],
        ),
        "published exactly once: %d/%d result(s), %d lost, %d poisoned"
        % (
            int(stats["results_published"]) + int(stats["results_reused"]),
            document["jobs"],
            stats["jobs_lost"],
            stats["poison_jobs"],
        ),
    ]
    totals = document["chaos_totals"]
    lines.append(
        "triage totals: "
        + ", ".join("%d %s" % (totals[name], name) for name in sorted(totals))
    )
    if document["ok"]:
        lines.append(
            "VERDICT: exactly-once holds; triage bit-identical to the serial oracle"
        )
    else:
        lines.append("VERDICT: FAILED")
        for problem in document["problems"]:
            lines.append("  - %s" % problem)
    return "\n".join(lines)
