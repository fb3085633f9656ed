"""Multi-controller failures: crash a subset of shards mid-drain.

A power failure takes the whole machine down at one instant, but on a
sharded memory system (:class:`repro.mem.sharded.ShardedMemorySystem`)
the *ADR drain* that follows is per controller: each shard's reserve
flushes that shard's ready queue entries independently.  This module
models the failure mode the singleton stack cannot express — some
shards complete their drain while others die mid-drain — and the
recovery-side reconciliation it forces:

* :func:`shard_crash_image` builds the global crash image for a failure
  at ``crash_ns`` where ``failed_shards`` lost their ADR reserve
  (keeping only array-drained writes, optionally a partial
  ``adr_budget``) while the healthy shards drained normally.
* :func:`durable_commit_prefix` replays the cross-shard commit log
  (:class:`repro.persist.journal.CommitRecord`) against what each shard
  actually persisted, returning the longest prefix of commits whose
  touched-shard watermarks all survived — the linearizable acked
  prefix the machine may still claim after the failure.
* :func:`sweep_shard_failures` runs
  :func:`~repro.crash.session.run_sharded_session` (image, recovery,
  structural validation, and the reconciliation that the recovered
  state never falls below the durable commit prefix — losing a commit
  the barrier proved durable is silent corruption) over sampled
  instants and shard subsets, and tallies the verdicts.

Uniform all-shard crashes need none of this: the coordinator's merged
journal makes the stock :class:`repro.crash.injector.CrashInjector`
sweep shards transparently.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..crypto.counters import CounterStore
from ..crypto.integrity import IntegrityEngine
from ..errors import RecoveryError, SimulationError
from ..nvm.device import NVMDevice
from ..persist.journal import CommitRecord, PersistJournal
from ..sim.machine import SimulationResult
from .injector import CrashImage, CrashInjector, uniform_sample
from .session import RecoverySession, run_sharded_session
from .verdict import Status


def _shard_journals(result: SimulationResult) -> List[PersistJournal]:
    controller = result.controller
    shard_journal = getattr(controller, "shard_journal", None)
    if shard_journal is None:
        raise SimulationError(
            "shard-subset crashes need a sharded memory system; "
            "run with config.shards >= 2"
        )
    return [shard_journal(s) for s in range(controller.shards)]


def shard_crash_image(
    result: SimulationResult,
    crash_ns: float,
    failed_shards: Iterable[int],
    adr_budget: Optional[int] = None,
) -> CrashImage:
    """Global crash image when ``failed_shards`` die mid-drain.

    Healthy shards reconstruct with the full ADR guarantee; failed
    shards keep only array-drained writes (plus at most ``adr_budget``
    ready entries if their reserve died partway).  Per-shard journals
    are already translated to the global address space, so the merged
    image feeds the stock recovery/validation stack unchanged.

    The integrity root (``+bmt`` designs) is computed over the
    *unbudgeted* ADR reconstruction of every shard, mirroring
    :meth:`CrashInjector._capture_integrity`: each shard's secure
    register acknowledged ready counters before power died, so counters
    its failed drain then dropped surface as a root mismatch.
    """
    controller = result.controller
    journals = _shard_journals(result)
    failed = frozenset(failed_shards)
    for shard in failed:
        if not 0 <= shard < len(journals):
            raise SimulationError("failed shard %d out of range" % shard)
    address_map = controller.address_map
    device = NVMDevice(address_map, track_wear=False)
    store = CounterStore(
        counter_region_base=address_map.counter_region_base,
        memory_size_bytes=address_map.memory_size_bytes,
    )
    adr_pending = 0
    covered: Dict[int, int] = {}
    for shard, journal in enumerate(journals):
        if shard in failed:
            data_lines, counters = journal.reconstruct(
                crash_ns, adr=adr_budget is not None, adr_budget=adr_budget
            )
        else:
            data_lines, counters = journal.reconstruct(crash_ns, adr=True)
            adr_pending += journal.adr_pending(crash_ns)
        for address, (payload, encrypted_with) in data_lines.items():
            device.persist_line(address, payload, encrypted_with)
        store_update = store.write
        for address, value in counters.items():
            store_update(address, value)
        if result.policy.integrity_tree:
            _, acked = journal.reconstruct(crash_ns, adr=True)
            covered.update(acked)
    device.line_writes = 0
    image = CrashImage(
        crash_ns=crash_ns,
        device=device,
        counter_store=store,
        design=result.policy.name,
        adr_pending=adr_pending,
    )
    if result.policy.integrity_tree:
        # Deferred import: repro.integrity.verifier imports this package.
        from ..integrity.tree import IntegrityTreeEngine

        tree = IntegrityTreeEngine(
            result.config.encryption,
            address_map,
            arity=result.config.integrity.arity,
        )
        image.secure_root = tree.root_over(covered)
        tag_engine = IntegrityEngine(result.config.encryption)
        tags: Dict[int, bytes] = {}
        for address in device.touched_lines():
            if not address_map.is_data_address(address):
                continue
            stored = device.read_line(address)
            tags[address] = tag_engine.tag(
                address, stored.encrypted_with, stored.payload
            )
        image.line_tags = tags
    return image


def _watermark_durable(
    journal: PersistJournal,
    watermark: float,
    crash_ns: float,
    adr: bool,
    adr_budget: Optional[int],
) -> bool:
    """Did everything this shard accepted up to ``watermark`` persist?

    Conservative: counts every record accepted by the watermark, even
    writes of unrelated in-flight transactions, so a ``True`` verdict
    is always a genuine durability guarantee.
    """
    if watermark > crash_ns:
        return False
    if adr and adr_budget is None:
        # Ticket acceptance == architecturally persistent under ADR.
        return True
    budget = adr_budget if adr else 0
    spent = 0
    for record in journal.records:
        if record.accept_ns > watermark:
            continue
        if record.drain_ns <= crash_ns:
            continue
        if budget is not None:
            if record.ready_ns > crash_ns:
                return False
            spent += 1
            if spent > budget:
                return False
        else:
            return False
    return True


def durable_commit_prefix(
    commits: Sequence[CommitRecord],
    journals: Sequence[PersistJournal],
    crash_ns: float,
    failed_shards: Iterable[int] = (),
    adr_budget: Optional[int] = None,
) -> List[CommitRecord]:
    """The longest acked prefix of the commit log that survived.

    A commit is durable when every shard it touched persisted up to the
    watermark the barrier recorded for it; the first commit that is not
    ends the prefix (later commits may have persisted by luck, but the
    linearizable contract only lets recovery claim the dense prefix).
    """
    failed = frozenset(failed_shards)
    prefix: List[CommitRecord] = []
    for commit in commits:
        if commit.commit_ns > crash_ns:
            break
        durable = True
        for shard, watermark in commit.shard_watermarks.items():
            adr = shard not in failed
            if not _watermark_durable(
                journals[shard], watermark, crash_ns, adr,
                adr_budget if not adr else None,
            ):
                durable = False
                break
        if not durable:
            break
        prefix.append(commit)
    return prefix


def required_prefix_for_core(prefix: Sequence[CommitRecord], core: int) -> int:
    """How many of ``core``'s transactions the durable prefix contains."""
    return sum(1 for commit in prefix if commit.core == core)


def sweep_shard_failures(
    result: SimulationResult,
    run,
    core: int = 0,
    subsets: Optional[Sequence[Iterable[int]]] = None,
    max_points: int = 24,
    adr_budget: Optional[int] = None,
) -> Dict[str, int]:
    """Crash every shard subset at sampled instants and reconcile.

    ``run`` is the workload's :class:`~repro.workloads.base.WorkloadRun`
    (``outcome.runs[core]``).  Each (instant, subset) point is one
    :func:`~repro.crash.session.run_sharded_session` with a plain
    session (no counter search, no tree check, no fault plan) over a
    structural :class:`~repro.workloads.base.PrefixValidator`.
    Mid-drain ADR loss may cost *unacked* commits (they were never
    durable) and may surface as detected damage — what it must never
    produce is a lost durable commit.

    Returns the tally: ``points``; ``consistent`` (the validator
    matched a prefix); ``detected``; ``torn_uncommitted`` (silent
    without a matching prefix: a torn transaction the barrier never
    acknowledged); ``acked_commit_lost`` (a matching prefix below the
    durable commit prefix, which reconciliation makes silent).  The
    first three partition ``points``.  A session whose recovery crashed
    raises :class:`~repro.errors.RecoveryError`.
    """
    # Deferred import: workloads.base imports the txn recovery stack.
    from ..workloads.base import PrefixValidator

    shards = len(_shard_journals(result))
    if subsets is None:
        subsets = [(s,) for s in range(shards)] + [tuple(range(shards))]
    injector = CrashInjector(result)
    times = uniform_sample(injector.interesting_times(limit=max_points), max_points)
    validator = PrefixValidator(run)
    session = RecoverySession(result.config, encrypted=result.policy.encrypts)

    tally = dict.fromkeys(
        ("points", "consistent", "detected", "torn_uncommitted", "acked_commit_lost"), 0
    )
    for crash_ns in times:
        for subset in subsets:
            outcome = run_sharded_session(
                session, result, crash_ns, subset, validator.classify,
                core=core, adr_budget=adr_budget,
            )
            verdict = outcome.verdict
            if outcome.status is Status.CRASHED or verdict is None:
                raise RecoveryError(
                    "shard-subset recovery crashed at %.1f ns: %s"
                    % (crash_ns, outcome.detail)
                )
            consistent = verdict.consistent
            tally["points"] += 1
            tally["consistent"] += consistent
            tally["detected"] += outcome.status is Status.DETECTED
            if outcome.status is Status.SILENT:
                tally["acked_commit_lost" if consistent else "torn_uncommitted"] += 1
    return tally
