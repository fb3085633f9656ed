"""The file-based lease work queue: the executor's only parallel path.

Jobs are fanned out to forked worker *processes* through a shared
directory instead of pool pipes, which makes every hand-off a
crash-consistent filesystem transition — the same discipline the
simulated memory controller applies to counter/data pairs.  The
protocol:

``jobs/<id>.job``
    The pickled job payload, framed and written atomically with
    :mod:`repro.utils.durable` so a torn or tampered payload is
    *detected*, never silently executed.
``pending/<id>``
    An empty claim token.  Claiming is ``rename(pending/<id>,
    leases/<id>)`` — atomic on POSIX, so exactly one claimant wins and
    there is no claimed-but-unowned window.
``leases/<id>``
    The claim token while a worker owns the job.  The worker renews
    the lease by touching the file until the job finishes or overruns
    ``job_timeout_s``; the coordinator declares a lease *expired* when
    its mtime is older than ``lease_timeout_s``, terminates the worker
    still holding it (a hung job never releases its process), and
    reclaims the lease (``rename`` back to ``pending/``), so a killed,
    stalled or hung worker's job is re-run by a respawned one.
``results/<id>.res``
    The published result, framed like the job payload and linked into
    place by :func:`~repro.utils.durable.publish_once` (atomic,
    fails-if-exists): publication is *idempotent* — the first valid
    publication wins, every later attempt surfaces as a counted
    duplicate, never as a second result.
``events/``
    Append-only marker files through which workers report claims,
    errors and duplicate publications to the coordinator (workers
    share no memory with it).  A claim marker is named
    ``<id>.claim.<pid>.<n>``; a worker claims one job at a time, so the
    worker whose newest claim names a job is that job's lease holder.
``quarantine/``
    Corrupt result frames and poison-job records, kept for forensics.

A job whose leases keep failing (``max_retries + 1`` times) is
*poisoned*: pulled out of circulation so it cannot grind the queue
forever.  Poisoned jobs that failed with real errors get one final
in-process attempt in the coordinator, so a genuine bug reproduces
with a real traceback; jobs that only ever expired their leases are
presumed hung and raise :class:`~repro.errors.JobExecutionError`
instead of hanging the sweep.

Results are keyed by the caller's job ids (the campaign/sweep cache
keys), so a rerun over the same queue directory reuses previously
published results instead of re-executing — the work queue inherits
the journal's exactly-once resume semantics.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import os
import pickle
import shutil
import tempfile
import threading
import time
import traceback
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import JobExecutionError
from ..utils.durable import frame, publish_once, quarantine, read_framed, write_atomic

if TYPE_CHECKING:  # pragma: no cover
    from .parallel import ResultCallback, SweepExecutor

__all__ = ["WorkQueue", "WorkQueueUnavailable"]

logger = logging.getLogger(__name__)


class WorkQueueUnavailable(Exception):
    """The work queue cannot run here (no ``fork``, unwritable queue dir).

    Raised at construction only; the executor catches it and runs the
    batch inline instead, counting the hop in ``backend_fallbacks``.
    """


#: Subdirectories making up the queue protocol.
_SUBDIRS = ("jobs", "pending", "leases", "results", "events", "quarantine")

#: Coordinator/worker polling cadence.
_POLL_S = 0.02

_uniq_counter = itertools.count()


def _uniq() -> str:
    return "%d.%d" % (os.getpid(), next(_uniq_counter))


# ---------------------------------------------------------------------------
# Worker side


class _LeaseRenewer(threading.Thread):
    """Touches the lease file while the job runs (the heartbeat).

    Stops renewing once ``job_timeout_s`` has elapsed, so a worker
    wedged inside the job function eventually loses its lease and the
    coordinator can hand the job to someone else.
    """

    def __init__(
        self,
        lease_path: str,
        interval_s: float,
        job_timeout_s: Optional[float],
    ) -> None:
        super().__init__(daemon=True)
        self.lease_path = lease_path
        self.interval_s = interval_s
        self.job_timeout_s = job_timeout_s
        self._halt = threading.Event()
        self._started_at = time.monotonic()

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            if (
                self.job_timeout_s is not None
                and time.monotonic() - self._started_at > self.job_timeout_s
            ):
                return  # let the lease expire: the job overran its budget
            try:
                os.utime(self.lease_path, None)
            except OSError:
                return  # lease reclaimed out from under us; stop beating

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)


def _event(queue_dir: str, job_id: str, kind: str, text: str = "") -> None:
    """Publish a worker-side fact as a uniquely named marker file."""
    path = os.path.join(queue_dir, "events", "%s.%s.%s" % (job_id, kind, _uniq()))
    try:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)
    except OSError:  # pragma: no cover - best-effort reporting
        pass


def _latch(queue_dir: str, job_id: str, fault: str) -> bool:
    """One-shot chaos latch: True only for the first caller ever.

    Delegates to the shared :func:`repro.faults.oneshot.latch_once`
    discipline (``O_EXCL`` marker files), which is what guarantees
    every injected fault fires exactly once and the chaos campaign
    terminates — the same one-shot contract recovery-phase fault plans
    enforce in-process.
    """
    from ..faults.oneshot import latch_once

    path = os.path.join(queue_dir, "events", "%s.chaos-%s" % (job_id, fault))
    try:
        return latch_once(path)
    except OSError:
        return False


def _release(queue_dir: str, job_id: str) -> None:
    """Hand a leased job back to the pending queue (error/duplicate paths)."""
    try:
        os.rename(
            os.path.join(queue_dir, "leases", job_id),
            os.path.join(queue_dir, "pending", job_id),
        )
    except OSError:
        pass  # coordinator reclaimed or poisoned it meanwhile


def _claim(queue_dir: str, known_ids: frozenset) -> Optional[str]:
    """Atomically claim one pending job; None when the queue is idle.

    Only ids belonging to this run are claimed, so stale markers left
    in a reused queue directory by an unrelated sweep are never
    executed against the wrong job function.
    """
    pending_dir = os.path.join(queue_dir, "pending")
    try:
        names = sorted(os.listdir(pending_dir))
    except OSError:
        return None
    for name in names:
        if name not in known_ids:
            continue
        lease_path = os.path.join(queue_dir, "leases", name)
        try:
            os.rename(os.path.join(pending_dir, name), lease_path)
        except OSError:
            continue  # somebody else won this one
        try:
            # rename preserves the marker's (old) mtime; refresh it so
            # the fresh lease does not look instantly expired.
            os.utime(lease_path, None)
        except OSError:
            pass
        return name
    return None


def _publish(queue_dir: str, job_id: str, frame_bytes: bytes) -> bool:
    """Idempotently publish a result frame; False when a result already
    exists (the duplicate is dropped and reported, never applied)."""
    path = os.path.join(queue_dir, "results", job_id + ".res")
    published = publish_once(path, frame_bytes)
    if not published:
        _event(queue_dir, job_id, "dup")
    return published


def _worker_process_one(
    queue_dir: str,
    fn: Callable,
    job_id: str,
    lease_timeout_s: float,
    job_timeout_s: Optional[float],
    chaos: Mapping[str, Sequence[str]],
    stop_path: str,
) -> None:
    faults = tuple(chaos.get(job_id, ()))
    _event(queue_dir, job_id, "claim")
    lease_path = os.path.join(queue_dir, "leases", job_id)
    try:
        os.utime(lease_path, None)
    except OSError:
        pass
    if "kill" in faults and _latch(queue_dir, job_id, "kill"):
        # Die mid-job, lease held, nothing published: the canonical
        # crashed worker.  _exit skips atexit/flush just like SIGKILL.
        os._exit(17)
    if "stall" in faults and _latch(queue_dir, job_id, "stall"):
        # Go silent: hold the lease without heartbeating until well
        # past its deadline, then abandon the job unpublished.
        deadline = time.monotonic() + 2.5 * lease_timeout_s
        while time.monotonic() < deadline and not os.path.exists(stop_path):
            time.sleep(min(0.05, lease_timeout_s / 4.0))
        return
    try:
        item = pickle.loads(read_framed(os.path.join(queue_dir, "jobs", job_id + ".job")))
    except Exception:
        _event(queue_dir, job_id, "err", traceback.format_exc())
        _release(queue_dir, job_id)
        return
    renewer = _LeaseRenewer(
        lease_path, max(0.01, lease_timeout_s / 4.0), job_timeout_s
    )
    renewer.start()
    try:
        value = fn(item)
    except Exception:
        renewer.stop()
        _event(queue_dir, job_id, "err", traceback.format_exc())
        _release(queue_dir, job_id)
        return
    renewer.stop()
    frame_bytes = frame(pickle.dumps(value))
    if "corrupt" in faults and _latch(queue_dir, job_id, "corrupt"):
        # Lie: publish a payload that no longer matches its checksum.
        body = bytearray(frame_bytes)
        body[-1] ^= 0xFF
        frame_bytes = bytes(body)
    _publish(queue_dir, job_id, frame_bytes)
    if "duplicate" in faults and _latch(queue_dir, job_id, "duplicate"):
        # Hand the finished job back as if never run: the next claimant
        # re-executes it and its publication must be dropped as a
        # duplicate for exactly-once to hold.
        _release(queue_dir, job_id)
    else:
        try:
            os.unlink(lease_path)
        except OSError:
            pass


def _worker_main(
    queue_dir: str,
    fn: Callable,
    lease_timeout_s: float,
    job_timeout_s: Optional[float],
    chaos: Mapping[str, Sequence[str]],
    known_ids: frozenset,
) -> None:
    """Worker loop: claim, run, publish, until the stop sentinel drops."""
    stop_path = os.path.join(queue_dir, "stop")
    while not os.path.exists(stop_path):
        job_id = _claim(queue_dir, known_ids)
        if job_id is None:
            time.sleep(_POLL_S)
            continue
        _worker_process_one(
            queue_dir, fn, job_id, lease_timeout_s, job_timeout_s, chaos, stop_path
        )


# ---------------------------------------------------------------------------
# Coordinator side


class WorkQueue:
    """Run one executor's jobs through a shared-directory lease queue.

    Every knob (workers, job and lease timeouts, the retry budget, the
    queue directory, a chaos plan) and the health counters come from
    the owning :class:`~repro.bench.parallel.SweepExecutor`.
    """

    def __init__(self, executor: "SweepExecutor") -> None:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise WorkQueueUnavailable("the work queue needs the fork start method")
        self._mp = multiprocessing.get_context("fork")
        self._owns_dir = executor.queue_dir is None
        try:
            if self._owns_dir:
                self.queue_dir = tempfile.mkdtemp(prefix="repro-workqueue-")
            else:
                self.queue_dir = os.path.abspath(executor.queue_dir)  # type: ignore[arg-type]
                os.makedirs(self.queue_dir, exist_ok=True)
            for sub in _SUBDIRS:
                os.makedirs(os.path.join(self.queue_dir, sub), exist_ok=True)
            probe = os.path.join(self.queue_dir, ".probe.%s" % _uniq())
            with open(probe, "w", encoding="utf-8") as stream:
                stream.write("ok")
            os.unlink(probe)
        except OSError as exc:
            raise WorkQueueUnavailable(
                "queue directory %r is not writable: %s" % (executor.queue_dir, exc)
            ) from None
        self.workers = executor.workers
        self.job_timeout_s = executor.job_timeout_s
        self.lease_timeout_s = max(0.05, float(executor.lease_timeout_s))
        self.max_lease_failures = executor.max_retries + 1
        self.chaos_plan = executor.chaos_plan
        self.counters = executor.counters
        self._processes: List[object] = []
        #: pid -> (claim sequence, job id) of each worker's newest claim.
        self._holding: Dict[int, Tuple[int, str]] = {}

    # -- setup helpers -----------------------------------------------------

    def _path(self, *parts: str) -> str:
        return os.path.join(self.queue_dir, *parts)

    @staticmethod
    def _job_id_for(fn: Callable, payload: bytes) -> str:
        tag = "%s.%s" % (
            getattr(fn, "__module__", "?"),
            getattr(fn, "__qualname__", repr(fn)),
        )
        return hashlib.sha256(tag.encode() + b"\0" + payload).hexdigest()[:24]

    def _ensure_pending(self, job_id: str) -> None:
        try:
            fd = os.open(
                self._path("pending", job_id), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
            os.close(fd)
        except OSError:
            pass  # already pending, leased, or racing — all fine

    def _spawn_worker(
        self,
        fn: Callable,
        chaos: Mapping[str, Sequence[str]],
        known_ids: frozenset,
    ):
        process = self._mp.Process(
            target=_worker_main,
            args=(
                self.queue_dir,
                fn,
                self.lease_timeout_s,
                self.job_timeout_s,
                chaos,
                known_ids,
            ),
            daemon=True,
        )
        process.start()
        return process

    # -- main loop ---------------------------------------------------------

    def run(
        self,
        fn: Callable,
        items: List[object],
        results: List[object],
        on_result: Optional["ResultCallback"] = None,
        job_ids: Optional[Sequence[str]] = None,
    ) -> None:
        """Fill ``results[i] = fn(items[i])``, each result exactly once."""
        if not items:
            return
        payloads = [pickle.dumps(item) for item in items]
        if job_ids is not None:
            ids = list(job_ids)
        else:
            ids = [self._job_id_for(fn, payload) for payload in payloads]
        indices_by_id: Dict[str, List[int]] = {}
        for index, job_id in enumerate(ids):
            indices_by_id.setdefault(job_id, []).append(index)
        unique_ids = list(indices_by_id)

        chaos = self._chaos_by_id(ids)
        resolved: Dict[str, object] = {}

        def _deliver(job_id: str, value: object) -> None:
            resolved[job_id] = value
            for index in indices_by_id[job_id]:
                results[index] = value
                if on_result is not None:
                    on_result(index, value)

        # Clear a stale stop sentinel, then reuse any valid result a
        # previous run already published for these exact job keys.
        try:
            os.unlink(self._path("stop"))
        except OSError:
            pass
        to_run: List[str] = []
        for job_id in unique_ids:
            res_path = self._path("results", job_id + ".res")
            if os.path.exists(res_path):
                try:
                    _deliver(job_id, pickle.loads(read_framed(res_path)))
                    self.counters.results_reused += 1
                    continue
                except Exception:
                    self.counters.corrupt_results += 1
                    self._quarantine_result(job_id)
            to_run.append(job_id)
        if not to_run:
            return
        # Pre-existing event markers (a prior run over this directory)
        # must not be re-counted.
        seen_events: Set[str] = set(self._list("events"))
        for job_id in to_run:
            first = indices_by_id[job_id][0]
            write_atomic(self._path("jobs", job_id + ".job"), frame(payloads[first]))
            # A lease orphaned by a dead prior coordinator blocks the
            # job; fold it back into pending before workers start.
            if os.path.exists(self._path("leases", job_id)):
                _release(self.queue_dir, job_id)
            self._ensure_pending(job_id)

        fail_counts: Dict[str, int] = {job_id: 0 for job_id in to_run}
        expiry_only: Dict[str, bool] = {job_id: True for job_id in to_run}
        poison: Set[str] = set()
        known_ids = frozenset(to_run)
        worker_count = min(self.workers, len(to_run))
        self._processes = [
            self._spawn_worker(fn, chaos, known_ids) for _ in range(worker_count)
        ]
        # Every worker death is paid for by one failed lease, and each
        # job fails at most max_lease_failures leases before poisoning.
        respawn_budget = len(to_run) * self.max_lease_failures

        def outstanding() -> List[str]:
            return [j for j in to_run if j not in resolved and j not in poison]

        while outstanding():
            progressed = self._collect_results(
                _deliver, outstanding(), fail_counts, expiry_only
            )
            progressed |= self._collect_events(seen_events, fail_counts, expiry_only)
            self._reclaim_leases(resolved, poison, fail_counts)
            self._promote_poison(fail_counts, resolved, poison)
            respawn_budget = self._respawn_dead(
                fn, chaos, known_ids, respawn_budget, bool(outstanding())
            )
            if respawn_budget <= 0 and not any(
                process.is_alive() for process in self._processes  # type: ignore[attr-defined]
            ):
                for job_id in outstanding():
                    logger.warning(
                        "workqueue: no worker left to run job %s; poisoning it",
                        job_id,
                    )
                    self._poison(job_id, poison)
                break
            if not progressed:
                time.sleep(_POLL_S)
        # A duplicate-claim fault hands a finished job back to pending;
        # drop those markers so shutdown is not racing useless reruns.
        for job_id in resolved:
            try:
                os.unlink(self._path("pending", job_id))
            except OSError:
                pass
        self._stop_workers()
        # Late publications (a duplicate claimant finishing during
        # shutdown) still need counting, and a late *valid* result for
        # a poisoned job spares the inline rerun.
        self._collect_events(seen_events, fail_counts, expiry_only)
        for job_id in list(poison):
            res_path = self._path("results", job_id + ".res")
            if os.path.exists(res_path):
                try:
                    _deliver(job_id, pickle.loads(read_framed(res_path)))
                    self.counters.results_published += 1
                    poison.discard(job_id)
                except Exception:
                    self._quarantine_result(job_id)
        self._finish_poisoned(fn, items, indices_by_id, poison, expiry_only, _deliver)
        lost = [job_id for job_id in unique_ids if job_id not in resolved]
        if lost:  # pragma: no cover - the passes above should preclude it
            self.counters.jobs_lost += len(lost)
            raise JobExecutionError("workqueue lost job result(s): %s" % lost)

    # -- coordinator passes ------------------------------------------------

    def _list(self, sub: str) -> List[str]:
        try:
            return os.listdir(self._path(sub))
        except OSError:
            return []

    def _quarantine_result(self, job_id: str) -> None:
        quarantine(
            self._path("results", job_id + ".res"),
            self._path("quarantine", "%s.res.corrupt.%s" % (job_id, _uniq())),
        )
        logger.warning("workqueue: corrupt result for job %s quarantined", job_id)

    def _collect_results(
        self,
        deliver: Callable[[str, object], None],
        waiting: Iterable[str],
        fail_counts: Dict[str, int],
        expiry_only: Dict[str, bool],
    ) -> bool:
        progressed = False
        for job_id in waiting:
            res_path = self._path("results", job_id + ".res")
            if not os.path.exists(res_path):
                continue
            try:
                value = pickle.loads(read_framed(res_path))
            except Exception:
                # A worker lied (or the frame tore): quarantine the
                # payload, free the name, and put the job back in play.
                self.counters.corrupt_results += 1
                if job_id in fail_counts:
                    fail_counts[job_id] += 1
                    expiry_only[job_id] = False
                self._quarantine_result(job_id)
                self._ensure_pending(job_id)
                progressed = True
                continue
            deliver(job_id, value)
            self.counters.results_published += 1
            progressed = True
        return progressed

    def _collect_events(
        self,
        seen: Set[str],
        fail_counts: Dict[str, int],
        expiry_only: Dict[str, bool],
    ) -> bool:
        progressed = False
        for name in self._list("events"):
            if name in seen:
                continue
            seen.add(name)
            progressed = True
            job_id, _, rest = name.partition(".")
            if rest.startswith("claim"):
                self.counters.leases_claimed += 1
                _kind, pid, sequence = rest.split(".")
                newest = self._holding.get(int(pid))
                if newest is None or int(sequence) > newest[0]:
                    self._holding[int(pid)] = (int(sequence), job_id)
            elif rest.startswith("err"):
                self.counters.retries += 1
                if job_id in fail_counts:
                    fail_counts[job_id] += 1
                    expiry_only[job_id] = False
            elif rest.startswith("dup"):
                self.counters.duplicate_results += 1
        return progressed

    def _reclaim_leases(
        self,
        resolved: Mapping[str, object],
        poison: Set[str],
        fail_counts: Dict[str, int],
    ) -> None:
        now = time.time()
        for job_id in self._list("leases"):
            if job_id not in fail_counts or job_id in resolved or job_id in poison:
                continue
            lease_path = self._path("leases", job_id)
            try:
                age = now - os.path.getmtime(lease_path)
            except OSError:
                continue  # released or published meanwhile
            if age <= self.lease_timeout_s:
                continue
            if os.path.exists(self._path("results", job_id + ".res")):
                continue  # published just now; the next pass collects it
            self.counters.leases_expired += 1
            fail_counts[job_id] += 1
            self._kill_holder(job_id)
            try:
                os.rename(lease_path, self._path("pending", job_id))
                self.counters.leases_reclaimed += 1
            except OSError:
                pass

    def _kill_holder(self, job_id: str) -> None:
        """Terminate the live worker still holding ``job_id``'s lease.

        A hung job never gives its process back, so reclaiming the
        lease alone would leave that worker slot wedged; killing it
        lets :meth:`_respawn_dead` replace it on this very pass.
        """
        for process in self._processes:
            pid = process.pid  # type: ignore[attr-defined]
            holding = self._holding.get(pid)
            if holding is None or holding[1] != job_id:
                continue
            if process.is_alive():  # type: ignore[attr-defined]
                process.kill()  # type: ignore[attr-defined]
                process.join(timeout=2.0)  # type: ignore[attr-defined]

    def _promote_poison(
        self,
        fail_counts: Dict[str, int],
        resolved: Mapping[str, object],
        poison: Set[str],
    ) -> None:
        for job_id, count in fail_counts.items():
            if job_id in resolved or job_id in poison:
                continue
            if count >= self.max_lease_failures:
                self._poison(job_id, poison)

    def _poison(self, job_id: str, poison: Set[str]) -> None:
        poison.add(job_id)
        self.counters.poison_jobs += 1
        for sub in ("pending", "leases"):
            try:
                os.unlink(self._path(sub, job_id))
            except OSError:
                pass
        try:
            with open(
                self._path("quarantine", job_id + ".poison"), "w", encoding="utf-8"
            ) as stream:
                stream.write("failed %d lease(s)\n" % self.max_lease_failures)
        except OSError:  # pragma: no cover - forensics are best-effort
            pass
        logger.warning(
            "workqueue: job %s quarantined as poison after repeated lease failures",
            job_id,
        )

    def _respawn_dead(
        self,
        fn: Callable,
        chaos: Mapping[str, Sequence[str]],
        known_ids: frozenset,
        budget: int,
        work_remains: bool,
    ) -> int:
        if not work_remains:
            return budget
        for slot, process in enumerate(self._processes):
            if process.is_alive() or budget <= 0:  # type: ignore[attr-defined]
                continue
            # A recycled pid must not inherit the dead worker's claim.
            self._holding.pop(process.pid, None)  # type: ignore[attr-defined]
            self._processes[slot] = self._spawn_worker(fn, chaos, known_ids)
            self.counters.worker_respawns += 1
            budget -= 1
        return budget

    def _stop_workers(self) -> None:
        try:
            with open(self._path("stop"), "w", encoding="utf-8") as stream:
                stream.write("done")
        except OSError:
            pass
        grace = 2.5 * self.lease_timeout_s + 2.0
        for process in self._processes:
            process.join(timeout=grace)  # type: ignore[attr-defined]
            if process.is_alive():  # type: ignore[attr-defined]
                process.terminate()  # type: ignore[attr-defined]
                process.join(timeout=2.0)  # type: ignore[attr-defined]
        self._processes = []

    def _finish_poisoned(
        self,
        fn: Callable,
        items: List[object],
        indices_by_id: Mapping[str, List[int]],
        poison: Set[str],
        expiry_only: Mapping[str, bool],
        deliver: Callable[[str, object], None],
    ) -> None:
        if not poison:
            return
        hung = sorted(job_id for job_id in poison if expiry_only.get(job_id, False))
        if hung:
            # Every failure was a silently expired lease: the job hangs
            # its workers.  Running it inline would hang the sweep too.
            raise JobExecutionError(
                "workqueue job(s) %s expired every lease (%d each); presumed hung"
                % (hung, self.max_lease_failures)
            )
        for job_id in sorted(poison):
            # Error-poisoned jobs get one last-chance in-process
            # attempt: a real bug reproduces here with a real traceback.
            index = indices_by_id[job_id][0]
            value = fn(items[index])
            deliver(job_id, value)
            write_atomic(
                self._path("results", job_id + ".res"), frame(pickle.dumps(value))
            )
            self.counters.results_published += 1

    # -- chaos plumbing ----------------------------------------------------

    def _chaos_by_id(self, ids: Sequence[str]) -> Dict[str, Sequence[str]]:
        """Translate an index-keyed chaos plan into job-id keys."""
        plan = self.chaos_plan
        if plan is None:
            return {}
        faults_by_index = getattr(plan, "faults_by_job", plan)
        chaos: Dict[str, Sequence[str]] = {}
        for index, faults in dict(faults_by_index).items():
            index = int(index)
            if 0 <= index < len(ids) and faults:
                chaos[ids[index]] = tuple(faults)
        return chaos

    def close(self) -> None:
        self._stop_workers()
        if self._owns_dir:
            shutil.rmtree(self.queue_dir, ignore_errors=True)
