"""Parallel sweep execution with an on-disk result cache.

Every paper artifact is a sweep over (workload x design x config)
points, and each point is an independent, deterministic simulation.
This module decomposes such sweeps into :class:`SweepJob` descriptions
and executes them through a :class:`SweepExecutor`, which

* runs jobs inline (serial, in-process: the oracle) with one worker
  and fans them out over the lease work queue
  (:mod:`repro.bench.workqueue`) when ``workers > 1``,
* preserves deterministic result ordering — ``map_stats`` returns one
  :class:`~repro.sim.stats.MachineStats` per job, in job order, with
  values identical to a serial run, and
* memoizes finished jobs in an on-disk :class:`ResultCache` keyed by a
  stable hash of (design, workload, mechanism, config, params, code
  version), so repeated sweeps are incremental and any code or config
  change invalidates exactly the affected points.

Workers return only the :class:`MachineStats` summary — never the live
controller/hierarchy objects — so job results are cheap to pickle and
to persist as JSON.  Experiments that need the full simulation state
(crash sweeps) keep running in-process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..config import SystemConfig, fast_config
from ..sim.stats import CoreStats, MachineStats
from ..utils.durable import frame, quarantine, read_framed, write_atomic
from ..utils.versioning import code_version
from ..workloads.base import WorkloadParams

__all__ = [
    "ExecutorCounters",
    "SweepJob",
    "SweepExecutor",
    "ResultCache",
    "execute_job",
    "job_cache_key",
    "default_cache_dir",
    "stats_to_dict",
    "stats_from_dict",
]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Job description


@dataclass(frozen=True)
class SweepJob:
    """One independent design point of a sweep.

    The job carries everything a worker process needs to reproduce the
    simulation: all fields are plain frozen dataclasses, so the job is
    picklable and hashable for caching.
    """

    design: str
    workload: str
    config: Optional[SystemConfig] = None
    mechanism: str = "undo"
    params: Optional[WorkloadParams] = None


def execute_job(job: SweepJob) -> MachineStats:
    """Run one job to completion; the worker-side entry point.

    Imported lazily so worker processes created with the ``spawn``
    start method can resolve it by qualified name.
    """
    from .harness import run_workload_stats

    return run_workload_stats(
        job.design,
        job.workload,
        config=job.config,
        mechanism=job.mechanism,
        params=job.params,
    )


# ---------------------------------------------------------------------------
# Stats (de)serialization


def stats_to_dict(stats: MachineStats) -> Dict[str, object]:
    """JSON-ready form of a :class:`MachineStats` (cache file payload)."""
    return dataclasses.asdict(stats)


def stats_from_dict(payload: Dict[str, object]) -> MachineStats:
    """Inverse of :func:`stats_to_dict`."""
    data = dict(payload)
    per_core = [CoreStats(**core) for core in data.pop("per_core")]
    return MachineStats(per_core=per_core, **data)


# ---------------------------------------------------------------------------
# Cache keys


def _canonical(value: object) -> object:
    """Make a value JSON-serializable in a stable way (bytes -> hex)."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def job_cache_key(job: SweepJob) -> str:
    """Stable content hash identifying a job's result."""
    config = job.config if job.config is not None else fast_config()
    params = job.params if job.params is not None else WorkloadParams()
    document = {
        "design": job.design,
        "workload": job.workload,
        "mechanism": job.mechanism,
        "config": _canonical(dataclasses.asdict(config)),
        "params": _canonical(dataclasses.asdict(params)),
        "code": code_version(),
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# On-disk result cache


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-bench``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-bench")


class ResultCache:
    """One framed JSON file per finished job under ``directory``.

    File name is the job's cache key, so lookups are a single ``open``.
    Entries are :func:`~repro.utils.durable.frame`-d JSON published
    with :func:`~repro.utils.durable.write_atomic`.  A missing file is
    a plain miss; a file that fails its checksum or does not parse back
    into stats is *corruption* — it is quarantined (renamed to
    ``<key>.json.corrupt`` for inspection), counted in
    ``corruption_events`` and logged, never silently recomputed over.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory if directory is not None else default_cache_dir()
        self.corruption_events = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def get(self, key: str) -> Optional[MachineStats]:
        path = self._path(key)
        try:
            payload = json.loads(read_framed(path).decode("utf-8"))
            return stats_from_dict(payload["stats"])
        except FileNotFoundError:
            return None
        except OSError:
            # Unreadable (permissions, I/O): a miss, but not corrupt data.
            return None
        except (ValueError, KeyError, TypeError) as exc:
            self.corruption_events += 1
            if quarantine(path, path + ".corrupt"):
                where = "quarantined to %s.corrupt" % path
            else:
                where = "could not be quarantined"
            logger.warning(
                "corrupt result-cache entry %s (%s: %s); %s",
                path,
                type(exc).__name__,
                exc,
                where,
            )
            return None

    def put(self, key: str, stats: MachineStats) -> None:
        os.makedirs(self.directory, exist_ok=True)
        payload = {"key": key, "stats": stats_to_dict(stats)}
        try:
            write_atomic(
                self._path(key),
                frame(json.dumps(payload, sort_keys=True).encode("utf-8")),
            )
        except OSError:
            pass  # a read-only cache directory degrades to no caching

    def clear(self) -> int:
        """Remove all cached results (quarantined ones included)."""
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        for name in names:
            if name.endswith(".json") or name.endswith(".json.corrupt"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                    removed += 1
                except OSError:
                    pass
        return removed


# ---------------------------------------------------------------------------
# Executor

#: A finished job result is delivered through this callback as soon as
#: it is available: ``on_result(index, value)``.
ResultCallback = Callable[[int, object], None]


@dataclass
class ExecutorCounters:
    """Everything the executor absorbed, counted rather than hidden.

    ``retries`` counts worker-side job errors and ``backend_fallbacks``
    the batches that ran inline because the work queue could not
    start; the rest account for the work queue's lease protocol.
    """

    retries: int = 0
    backend_fallbacks: int = 0
    leases_claimed: int = 0
    leases_expired: int = 0
    leases_reclaimed: int = 0
    results_published: int = 0
    results_reused: int = 0
    duplicate_results: int = 0
    corrupt_results: int = 0
    poison_jobs: int = 0
    worker_respawns: int = 0
    jobs_lost: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class SweepExecutor:
    """Runs sweep jobs inline or through the lease work queue.

    ``SweepExecutor()`` (the default used by ``Experiment.run``) is a
    plain in-process serial runner with no cache: the deterministic
    oracle every parallel run is measured against.

    With ``workers > 1`` each batch runs on the
    :mod:`~repro.bench.workqueue`: forked workers claim jobs through a
    shared directory (``queue_dir``; default a private temporary one)
    under leases of ``lease_timeout_s``.  A job that overruns
    ``job_timeout_s`` lets its lease expire, its worker is terminated
    and replaced, and the job is re-run; a job that fails
    ``max_retries + 1`` leases is poisoned — a hung one raises
    :class:`~repro.errors.JobExecutionError`, an erroring one gets one
    last in-process attempt.  ``chaos_plan`` injects seeded worker
    faults (:mod:`repro.bench.chaos`).

    When the work queue cannot start here (no ``fork``, unwritable
    queue directory) the batch runs inline instead; every such hop is
    counted in ``stats()['backend_fallbacks']``, never silent.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        job_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        queue_dir: Optional[str] = None,
        lease_timeout_s: float = 30.0,
        chaos_plan: Optional[object] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.cache = cache
        self.job_timeout_s = job_timeout_s
        self.max_retries = max(0, int(max_retries))
        self.queue_dir = queue_dir
        self.lease_timeout_s = lease_timeout_s
        self.chaos_plan = chaos_plan
        self.counters = ExecutorCounters()
        self.resolved_backend: Optional[str] = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.jobs_executed = 0

    # -- stats -------------------------------------------------------------

    @property
    def cache_corruption_events(self) -> int:
        return self.cache.corruption_events if self.cache is not None else 0

    def stats(self) -> Dict[str, object]:
        """Executor health counters, for reports and the CLI."""
        document: Dict[str, object] = {
            "backend": self.resolved_backend
            or ("workqueue" if self.workers > 1 else "inline"),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_corruption_events": self.cache_corruption_events,
            "jobs_executed": self.jobs_executed,
        }
        document.update(self.counters.as_dict())
        return document

    # -- execution --------------------------------------------------------

    def map_stats(self, jobs: Sequence[SweepJob]) -> List[MachineStats]:
        """Execute all jobs; result ``i`` belongs to ``jobs[i]``."""
        results: List[Optional[MachineStats]] = [None] * len(jobs)
        pending = list(range(len(jobs)))
        keys: List[str] = []
        if self.cache is not None or self.workers > 1:
            # Content keys also name work-queue publications, so a reused
            # queue directory never serves another code version's results.
            keys = [job_cache_key(job) for job in jobs]
        if self.cache is not None:
            pending = []
            for index, key in enumerate(keys):
                cached = self.cache.get(key)
                if cached is not None:
                    self.cache_hits += 1
                    results[index] = cached
                else:
                    self.cache_misses += 1
                    pending.append(index)
        if pending:
            fresh = self.map(
                execute_job,
                [jobs[i] for i in pending],
                job_ids=[keys[i] for i in pending] if keys else None,
            )
            for index, stats in zip(pending, fresh):
                results[index] = stats
                if self.cache is not None:
                    self.cache.put(keys[index], stats)
        return results  # type: ignore[return-value]

    def map(
        self,
        fn: Callable,
        items: Sequence[object],
        on_result: Optional[ResultCallback] = None,
        job_ids: Optional[Sequence[str]] = None,
    ) -> List[object]:
        """Ordered map: ``results[i] = fn(items[i])``.

        With ``workers > 1``, ``fn`` must be a module-level callable and
        every item and result picklable.  ``on_result`` fires as each
        result lands, which lets callers journal progress for
        resumability.  ``job_ids`` (optional, one stable key per item)
        names the work queue's idempotent result publications; inline
        runs ignore it.
        """
        items = list(items)
        results: List[object] = [None] * len(items)
        self.jobs_executed += len(items)
        if job_ids is not None and len(job_ids) != len(items):
            raise ValueError("job_ids must align one-to-one with items")
        queue = None
        if self.workers > 1 and items:
            from .workqueue import WorkQueue, WorkQueueUnavailable

            try:
                queue = WorkQueue(self)
            except WorkQueueUnavailable as exc:
                self.counters.backend_fallbacks += 1
                logger.warning("work queue unavailable (%s); running inline", exc)
        if queue is None:
            self.resolved_backend = "inline"
            for index, item in enumerate(items):
                results[index] = fn(item)
                if on_result is not None:
                    on_result(index, results[index])
            return results
        self.resolved_backend = "workqueue"
        try:
            queue.run(fn, items, results, on_result=on_result, job_ids=job_ids)
        finally:
            queue.close()
        return results
