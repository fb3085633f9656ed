"""Idempotent, resumable recovery sessions with nested-crash injection.

A second power failure *during* recovery leaves a partially-recovered
durable state — the hard case Phoenix (arxiv 1911.01922) and the
fast-recovery line of work design for.  This module makes every
recovery path in the simulator survive that case:

* :class:`RecoveryContext` is threaded through the recovery procedures
  (txn replay, Osiris counter search, Phoenix tree repair).  They call
  :meth:`~RecoveryContext.step` after every restartable unit of work
  and :meth:`~RecoveryContext.write_line` for every recovery-side line
  write; an armed :class:`~repro.faults.recovery.RecoveryFaultPlan`
  turns either hook into a :class:`~repro.errors.NestedCrash`.  With no
  plan the hooks are pure accounting.
* :class:`RecoverySession` owns the retry loop: on a nested crash it
  materializes the durable state the next boot would see
  (:func:`~repro.crash.injector.nested_crash_image` — base image plus
  the completed recovery writes, re-encrypted) and re-runs recovery on
  it.  Because every recovery procedure is idempotent — replaying a
  log entry or re-searching a counter rewrites state it already holds —
  and every fault point is one-shot, the loop always terminates.
* The session then walks the bounded **escalation ladder**: re-run
  recovery, then Osiris counter search, then Phoenix tree repair, then
  declare the state detected (or crashed).  Each rung's attempts are
  accounted in a :class:`RecoveryLedger`, whose path is deterministic
  for a given (seed, image, plan) — the determinism property the
  nested-crash test suite checks.
"""

from __future__ import annotations

import hashlib
import os
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, TYPE_CHECKING

from ..config import CACHE_LINE_SIZE, SystemConfig
from ..errors import NestedCrash, RecoveryError
from ..faults.recovery import RECOVERY_PHASES, RecoveryFaultPlan
from .injector import CrashImage, nested_crash_image
from .recovery import RecoveredMemory, RecoveryManager
from .verdict import Status, Verdict, covers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .counter_recovery import CounterRecoverer

_ZERO_LINE = bytes(CACHE_LINE_SIZE)

#: A classifier runs mechanism recovery over the decrypted memory and
#: returns its :class:`~repro.crash.verdict.Verdict`; the context must
#: be threaded into the recovery procedures it calls.
Classifier = Callable[[RecoveredMemory, "RecoveryContext"], Verdict]

#: Margin on the per-rung retry bound: every retry past the first needs
#: at least one freshly fired (one-shot) fault point, so a converging
#: recovery uses at most ``len(plan.points) + 1`` attempts; the margin
#: turns an off-by-one in a recovery procedure into a loud error
#: instead of an infinite loop.
_EXTRA_ATTEMPTS = 1


class RecoveryContext:
    """Step and write bookkeeping for one recovery *attempt*.

    The context makes a recovery procedure restartable: the procedure
    reports each completed step and routes each recovery-side line
    write through :meth:`write_line`, which persists write-through (the
    controller flushes recovery writes immediately — there is no cache
    to lose).  When a fault plan is armed, the scheduled point fires at
    the matching hook as a :class:`NestedCrash`; :attr:`persisted` then
    holds exactly the writes that completed before the failure, which
    is what the next boot's durable state must contain.
    """

    def __init__(self, plan: Optional[RecoveryFaultPlan] = None) -> None:
        self.plan = plan
        #: line address -> plaintext of every completed recovery write.
        self.persisted: Dict[int, bytes] = {}
        #: per-phase completed-step counters.
        self.steps: Dict[str, int] = {}
        #: per-phase line-write counters (torn-write step indexing).
        self.writes: Dict[str, int] = {}
        self._phase: str = RECOVERY_PHASES[0]

    @property
    def phase(self) -> str:
        return self._phase

    def enter_phase(self, phase: str) -> None:
        if phase not in RECOVERY_PHASES:
            raise RecoveryError("unknown recovery phase %r" % phase)
        self._phase = phase
        self.steps.setdefault(phase, 0)
        self.writes.setdefault(phase, 0)

    def write_line(
        self, recovered: RecoveredMemory, address: int, payload: bytes
    ) -> None:
        """One recovery-side line write, persisted write-through.

        An armed ``torn-write`` point tears the write at a seeded
        boundary: the head of the new content persists, the tail keeps
        the pre-write bytes.  The merge persists under a *consistent*
        counter (the controller re-encrypts whatever is in the row
        buffer), so it decrypts cleanly on the next boot — only
        idempotent replay can repair it, no detection channel fires.
        """
        phase = self._phase
        index = self.writes.get(phase, 0)
        self.writes[phase] = index + 1
        if self.plan is not None:
            point = self.plan.tear_write(phase, index)
            if point is not None:
                tear = self.plan.tear_length(point)
                old = recovered.plaintext_lines.get(address, _ZERO_LINE)
                torn = payload[:tear] + old[tear:]
                recovered.plaintext_lines[address] = torn
                recovered.garbage_lines.discard(address)
                self.persisted[address] = torn
                raise NestedCrash(phase, index, "torn-write")
        recovered.plaintext_lines[address] = payload
        recovered.garbage_lines.discard(address)
        self.persisted[address] = payload

    def step(self) -> None:
        """Mark one restartable recovery step complete.

        Everything the procedure persisted so far is durable; an armed
        ``crash`` point for this (phase, step) fails the machine here.
        """
        phase = self._phase
        index = self.steps.get(phase, 0)
        self.steps[phase] = index + 1
        if self.plan is not None and self.plan.crash_after(phase, index) is not None:
            raise NestedCrash(phase, index, "crash")


@dataclass
class RecoveryLedger:
    """Per-rung retry accounting and the escalation path taken.

    ``path`` is the deterministic trace of the whole session — rung
    attempts in order, interleaved with the nested crashes that forced
    retries — so two runs of the same (seed, image, plan) can be
    compared event-for-event, not just by their final outcome.
    """

    attempts: Dict[str, int] = field(default_factory=dict)
    nested: List[Dict[str, object]] = field(default_factory=list)
    path: List[str] = field(default_factory=list)

    def attempt(self, rung: str) -> int:
        count = self.attempts.get(rung, 0) + 1
        self.attempts[rung] = count
        self.path.append("%s#%d" % (rung, count))
        return count

    def record_nested(self, crash: NestedCrash) -> None:
        self.nested.append(
            {"phase": crash.phase, "step": crash.step, "kind": crash.kind}
        )
        self.path.append("nested:%s/%d/%s" % (crash.phase, crash.step, crash.kind))

    def note(self, event: str) -> None:
        self.path.append(event)

    @property
    def nested_crashes(self) -> int:
        return len(self.nested)

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempts": dict(self.attempts),
            "nested_crashes": list(self.nested),
            "path": list(self.path),
        }


def error_digest(exc: BaseException) -> Dict[str, object]:
    """Triage record for a recovery-crash: type, message, trace digest.

    The digest hashes the exception type and the trailing stack frames
    (file:line:function) but *not* the message, so examples that differ
    only in addresses or counters group under one digest.
    """
    frames = traceback.extract_tb(exc.__traceback__)
    trace = [
        "%s:%d:%s" % (os.path.basename(f.filename or "?"), f.lineno or 0, f.name)
        for f in frames[-4:]
    ]
    blob = "|".join([type(exc).__name__] + trace)
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "digest": hashlib.sha256(blob.encode()).hexdigest()[:12],
        "trace": trace,
    }


@dataclass
class SessionResult:
    """What one recovery session concluded about one crash image."""

    status: Status
    detail: str = ""
    #: Consistency was reached only through counter search / tree repair.
    via_search: bool = False
    #: Nested crashes injected (and survived or not) during the session.
    nested_injected: int = 0
    recovered: Optional[RecoveredMemory] = None
    verdict: Optional[Verdict] = None
    ledger: RecoveryLedger = field(default_factory=RecoveryLedger)
    #: Exception triage for ``crashed`` status (:func:`error_digest`).
    error: Optional[Dict[str, object]] = None
    #: The final durable state (advanced past nested crashes).
    image: Optional[CrashImage] = None


class RecoverySession:
    """Runs the bounded escalation ladder over one crash image.

    The ladder, in order; every rung is idempotent, so a nested crash
    inside any rung is handled by materializing the nested image (or
    reusing the in-place-mutated one) and retrying the rung:

    1. **txn replay** — decrypt + mechanism recovery (the classifier);
    2. **counter search** — Osiris: for detected or crashed states,
       search each tagged line's counter neighborhood, then replay;
    3. **tree verify** — for accepted-but-wrong (silent) states on
       ``+bmt`` designs, the root walk + tag sweep converts silent
       corruption into a detection;
    4. **tree repair** — Phoenix: tree-guided counter search + root
       reseal, then replay;
    5. **declare** — whatever status survived the ladder stands; a
       detected-but-unrepairable state stays detected, a recovery
       procedure that keeps crashing stays crashed.
    """

    def __init__(
        self,
        config: SystemConfig,
        encrypted: bool = True,
        plan: Optional[RecoveryFaultPlan] = None,
        recoverer: Optional["CounterRecoverer"] = None,
        tree_checked: bool = False,
    ) -> None:
        self.config = config
        self.encrypted = encrypted
        self.plan = plan
        self.recoverer = recoverer
        self.tree_checked = tree_checked
        self.manager = RecoveryManager(config.encryption)

    @property
    def _attempt_bound(self) -> int:
        points = len(self.plan.points) if self.plan is not None else 0
        return points + 1 + _EXTRA_ATTEMPTS

    # -- rungs -------------------------------------------------------------

    def _replay_rung(
        self, image: CrashImage, classify: Classifier, ledger: RecoveryLedger
    ):
        """Decrypt + txn replay, retried across nested crashes.

        Returns ``(working_image, recovered, verdict, error)`` where
        exactly one of ``verdict`` / ``error`` is set.  Each retry runs
        on the durable state the failed attempt left behind — the
        resume path, not a rollback.
        """
        working = image
        attempts = 0
        bound = self._attempt_bound
        while True:
            attempts += 1
            if attempts > bound:
                raise RecoveryError(
                    "txn replay did not converge within %d attempts — a "
                    "recovery step is not idempotent or a fault point "
                    "re-fired" % bound
                )
            ledger.attempt("txn-replay")
            context = RecoveryContext(self.plan)
            recovered = self.manager.recover(working, encrypted=self.encrypted)
            try:
                verdict = classify(recovered, context)
            except NestedCrash as crash:
                ledger.record_nested(crash)
                working = nested_crash_image(
                    working, context.persisted, self.config, encrypted=self.encrypted
                )
                continue
            except Exception as exc:
                return working, recovered, None, error_digest(exc)
            return working, recovered, verdict, None

    def _search_rung(self, image: CrashImage, ledger: RecoveryLedger) -> bool:
        """Osiris counter search, retried across nested crashes.

        Counter writes land in ``image.counter_store`` write-through,
        so the partially-searched image *is* the resume point: retrying
        the call skips every already-repaired (now consistent) line.
        """
        assert self.recoverer is not None
        attempts = 0
        bound = self._attempt_bound
        while True:
            attempts += 1
            if attempts > bound:
                raise RecoveryError(
                    "counter search did not converge within %d attempts" % bound
                )
            ledger.attempt("counter-search")
            context = RecoveryContext(self.plan)
            context.enter_phase("counter-search")
            try:
                self.recoverer.recover_image(image, context=context)
            except NestedCrash as crash:
                ledger.record_nested(crash)
                continue
            except Exception:
                ledger.note("counter-search-crashed")
                return False
            return True

    def _repair_rung(self, image: CrashImage, ledger: RecoveryLedger):
        """Phoenix tree repair, retried across nested crashes.

        Returns the post-repair verification report, or None when the
        repair itself failed (which must not mask the detection).
        """
        from ..integrity.verifier import repair_image  # deferred: import cycle

        attempts = 0
        bound = self._attempt_bound
        while True:
            attempts += 1
            if attempts > bound:
                raise RecoveryError(
                    "tree repair did not converge within %d attempts" % bound
                )
            ledger.attempt("tree-repair")
            context = RecoveryContext(self.plan)
            context.enter_phase("tree-repair")
            try:
                _search, after = repair_image(image, self.config, context=context)
            except NestedCrash as crash:
                ledger.record_nested(crash)
                continue
            except Exception:
                ledger.note("tree-repair-crashed")
                return None
            return after

    # -- the ladder --------------------------------------------------------

    def run(self, image: CrashImage, classify: Classifier) -> SessionResult:
        """Execute the full escalation ladder for one crash image."""
        ledger = RecoveryLedger()
        result = SessionResult(status=Status.CRASHED, ledger=ledger)

        working, recovered, verdict, error = self._replay_rung(
            image, classify, ledger
        )
        result.recovered, result.verdict, result.error = recovered, verdict, error
        if error is not None:
            result.status = Status.CRASHED
            result.detail = "%s: %s" % (error["type"], error["message"])
        elif verdict.consistent:
            result.status, result.detail = Status.CONSISTENT, ""
        elif verdict.detected:
            result.status, result.detail = Status.DETECTED, verdict.detected[0]
        else:
            result.status, result.detail = Status.SILENT, verdict.silent[0]

        # Rung 2: Osiris counter search over the same durable state.  A
        # repaired-then-consistent state is adopted; anything else keeps
        # the original classification (a failed search must not mask a
        # detection, nor may it upgrade crashed to silent).
        if (
            result.status in (Status.DETECTED, Status.CRASHED)
            and self.recoverer is not None
        ):
            if self._search_rung(working, ledger):
                working, recovered, verdict, error = self._replay_rung(
                    working, classify, ledger
                )
                if error is None and verdict.consistent:
                    result.status = Status.CONSISTENT
                    result.detail = "consistent after counter search"
                    result.via_search = True
                    result.recovered, result.verdict = recovered, verdict
                    result.error = None

        # Rung 3: the integrity tree converts accepted-but-wrong states
        # into detections (root walk + ECC-lane tag sweep on first
        # fetch after restart).
        if result.status is Status.SILENT and self.tree_checked:
            from ..integrity.verifier import verify_image  # deferred

            try:
                report = verify_image(working, self.config)
            except Exception:
                report = None
            if report is not None and not report.clean:
                result.status = Status.DETECTED_TREE
                result.detail = report.describe()

        # Rung 4: Phoenix tree-guided repair + root reseal.
        if (
            result.status in (Status.DETECTED, Status.DETECTED_TREE, Status.CRASHED)
            and self.tree_checked
            and self.recoverer is not None
        ):
            after = self._repair_rung(working, ledger)
            if after is not None and after.clean:
                working, recovered, verdict, error = self._replay_rung(
                    working, classify, ledger
                )
                if error is None and verdict.consistent:
                    result.status = Status.CONSISTENT
                    result.detail = "consistent after tree-guided counter search"
                    result.via_search = True
                    result.recovered, result.verdict = recovered, verdict
                    result.error = None

        # Rung 5: declare.  The surviving status stands.
        result.nested_injected = ledger.nested_crashes
        result.image = working
        return result


def run_sharded_session(
    session: RecoverySession,
    result: Any,
    crash_ns: float,
    failed_shards: Iterable[int],
    classify: Classifier,
    core: int = 0,
    adr_budget: Optional[int] = None,
) -> SessionResult:
    """The escalation ladder over a shard-subset failure, reconciled.

    Builds the mixed crash image (healthy shards fully drained, the
    ``failed_shards`` stripped to their budget), runs the full ladder —
    per-shard damage surfaces through the merged journal, so txn
    replay / counter search / tree repair need no shard awareness —
    then applies the **cross-shard reconciliation step**: a
    ``consistent`` verdict whose matched transaction prefix falls below
    the durable commit prefix the barrier proved
    (:func:`~repro.crash.sharded.durable_commit_prefix`) is downgraded
    to ``silent``, because recovery silently discarded a commit the
    machine acknowledged as durable.  ``result`` is the
    :class:`~repro.sim.machine.SimulationResult` of a sharded run.
    """
    # Deferred import: repro.crash.sharded imports this module.
    from .sharded import (
        _shard_journals,
        durable_commit_prefix,
        required_prefix_for_core,
        shard_crash_image,
    )

    failed = tuple(sorted(set(failed_shards)))
    image = shard_crash_image(result, crash_ns, failed, adr_budget=adr_budget)
    outcome = session.run(image, classify)
    prefix = durable_commit_prefix(
        result.controller.journal.commits,
        _shard_journals(result),
        crash_ns,
        failed,
        adr_budget=adr_budget,
    )
    required = required_prefix_for_core(prefix, core)
    outcome.ledger.note("reconcile:durable=%d" % required)
    # A verdict without a prefix (a multi-tenant aggregate) has none to
    # reconcile.
    matched = outcome.verdict.matched_prefix if outcome.verdict is not None else None
    if (
        outcome.status is Status.CONSISTENT
        and matched is not None
        and not covers(matched, required)
    ):
        outcome.status = Status.SILENT
        outcome.detail = "recovered prefix %d below durable commit prefix %d" % (
            matched,
            required,
        )
    return outcome
