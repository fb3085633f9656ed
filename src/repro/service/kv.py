"""Linearizable multi-tenant KV engine over encrypted-NVMM transactions.

The engine promotes the ``examples/kv_store.py`` sketch into a
first-class service scenario:

* **Per-tenant namespaces with isolated arenas.**  The NVM data region
  is carved into one arena per tenant (:func:`build_tenant_arenas`);
  each tenant gets its own transaction record, log area and heap, so a
  tenant's writes can never land in another tenant's range and a crash
  replays every tenant's log independently.
* **Open-addressing hash table with tombstones and bucket splitting.**
  Each bucket is one 64 B cache line holding four (key, value) slots;
  deletes leave tombstones; when the load factor crosses ``max_load``
  (or probing fails), the directory doubles: the rehashed table is
  written into a *fresh* region in bounded-size transactions, then a
  final one-line transaction flips the metadata pointer — a crash
  anywhere mid-split recovers to either the old or the new directory,
  never a mix.
* **Single-writer linearizability.**  All tenants' operations are
  serialized into one core's trace; every operation — including reads
  and scans — commits a transaction, so its ``txn_end`` time is the
  linearization (and acknowledgement) point the SLO layer and the
  durability validator both use.

:class:`ServiceValidator` is the multi-tenant analogue of
:class:`~repro.workloads.base.PrefixValidator`: after a crash it runs
the mechanism's recovery over *every* tenant arena, then requires each
tenant's recovered lines to equal a prefix of that tenant's committed
transactions that includes everything acknowledged before the crash —
no acknowledged-write loss, no cross-tenant leakage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import CACHE_LINE_SIZE, SystemConfig
from ..crash.recovery import RecoveredMemory
from ..crash.session import RecoveryContext
from ..crash.verdict import (
    Verdict,
    covers,
    largest_matching_prefix,
    prefix_states,
    replay,
    required_prefix,
)
from ..errors import DecryptionFailure, HeapError, ServiceError
from ..nvm.address import AddressMap
from ..sim.trace import Trace, TraceBuilder
from ..txn.heap import LOG_ENTRY_BYTES, CoreArena, PersistentHeap
from ..txn.manager import RECOVERERS, make_transactions
from ..utils.bitops import align_down
from ..workloads.base import LineModel, RecordedTxn, TxnRecorder
from .traffic import Operation

#: Slot sentinel: never-written key.
EMPTY_KEY = 0
#: Slot sentinel: deleted key (tombstone keeps probe chains intact).
TOMBSTONE_KEY = (1 << 64) - 1
#: (key u64, value u64) pairs per 64 B bucket line.
SLOTS_PER_BUCKET = 4
_SLOT_BYTES = 16

#: Fibonacci-hash multiplier (same mixer the example used).
_HASH_MULT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: Tenant metadata line layout (one line per tenant).
_META_NBUCKETS = 0
_META_TABLE_BASE = 8
_META_GENERATION = 16


def build_tenant_arenas(
    config: SystemConfig, tenants: int, log_capacity: int = 32
) -> List[CoreArena]:
    """Carve the data region into one isolated arena per tenant.

    Mirrors :meth:`repro.txn.heap.MemoryLayout.build` but splits by
    tenant instead of by core: the service is single-writer (one
    trace), yet every tenant keeps its own transaction record, log and
    heap so recovery and validation stay per-tenant.
    """
    if tenants < 1:
        raise ServiceError("the service needs at least one tenant")
    address_map = AddressMap(config.memory_size_bytes, config.nvm.num_banks)
    data_bytes = address_map.counter_region_base
    arena_bytes = data_bytes // tenants
    arena_bytes -= arena_bytes % CACHE_LINE_SIZE
    metadata_bytes = CACHE_LINE_SIZE + log_capacity * LOG_ENTRY_BYTES
    if arena_bytes <= metadata_bytes + 4 * CACHE_LINE_SIZE:
        raise ServiceError(
            "data region too small for %d tenant arena(s) with %d log entries"
            % (tenants, log_capacity)
        )
    arenas: List[CoreArena] = []
    for tenant in range(tenants):
        base = tenant * arena_bytes
        heap = PersistentHeap(base, base + arena_bytes, name="tenant-%d" % tenant)
        txn_record = heap.alloc_lines(1)
        log_base = heap.alloc(log_capacity * LOG_ENTRY_BYTES)
        arenas.append(
            CoreArena(
                core_id=tenant,
                heap=heap,
                txn_record=txn_record,
                log_base=log_base,
                log_capacity=log_capacity,
            )
        )
    return arenas


class TenantKV:
    """One tenant's crash-consistent open-addressing KV namespace.

    All persistent mutations go through the tenant's
    :class:`~repro.workloads.base.TxnRecorder`; the volatile lookup
    index (key -> slot address) is pure acceleration — it is derivable
    from the table and is rebuilt after splits, exactly like the DRAM
    index of a real NVM KV store.  ``use_index=False`` disables it and
    probes persistently for every access (the perf kernel's reference
    path).
    """

    def __init__(
        self,
        tenant_id: int,
        recorder: TxnRecorder,
        arena: CoreArena,
        service: "ServiceWorkload",
        initial_buckets: int = 8,
        max_load: float = 0.7,
        use_index: bool = True,
    ) -> None:
        if initial_buckets < 1 or initial_buckets & (initial_buckets - 1):
            raise ServiceError("initial_buckets must be a power of two")
        if not 0.1 <= max_load <= 0.95:
            raise ServiceError("max_load must be in [0.1, 0.95]")
        self.tenant_id = tenant_id
        self.recorder = recorder
        self.arena = arena
        self.service = service
        self.max_load = max_load
        self.use_index = use_index
        self.meta_address = arena.heap.alloc_lines(1)
        self._nbuckets = initial_buckets
        self._table_base = arena.heap.alloc_lines(initial_buckets)
        self._generation = 0
        self._count = 0
        self._tombstones = 0
        self._index: Dict[int, int] = {}
        self.splits = 0
        self._setup()

    @property
    def model(self) -> LineModel:
        return self.recorder.model

    @property
    def nbuckets(self) -> int:
        return self._nbuckets

    @property
    def count(self) -> int:
        return self._count

    def _setup(self) -> None:
        """Persist the initial directory (one transaction)."""
        recorder = self.recorder
        recorder.begin()
        recorder.write_u64(self.meta_address + _META_NBUCKETS, self._nbuckets)
        recorder.write_u64(self.meta_address + _META_TABLE_BASE, self._table_base)
        recorder.write_u64(self.meta_address + _META_GENERATION, self._generation)
        self._commit("setup")

    # -- addressing --------------------------------------------------------

    def _bucket_address(self, bucket: int) -> int:
        return self._table_base + bucket * CACHE_LINE_SIZE

    @staticmethod
    def _home_bucket(key: int, nbuckets: int) -> int:
        mixed = (key * _HASH_MULT) & _MASK64
        return (mixed >> 17) & (nbuckets - 1)

    @staticmethod
    def _check_key(key: int) -> None:
        if not 0 < key < TOMBSTONE_KEY:
            raise ServiceError(
                "keys must be u64 values strictly between 0 and the "
                "tombstone sentinel"
            )

    # -- probing -----------------------------------------------------------

    def _locate(self, key: int) -> Tuple[Optional[int], Optional[int]]:
        """Find ``key``; returns ``(slot_address, insert_address)``.

        ``slot_address`` is the key's slot when present.  When absent,
        ``insert_address`` is where a put should land (first tombstone
        on the probe path, else the terminating empty slot) — or None
        when the whole table probed full.  Every probed bucket emits a
        timed LOAD through the recorder.
        """
        recorder = self.recorder
        if self.use_index:
            slot = self._index.get(key)
            if slot is not None:
                recorder.read_line(align_down(slot, CACHE_LINE_SIZE))
                return slot, None
        insert: Optional[int] = None
        nbuckets = self._nbuckets
        home = self._home_bucket(key, nbuckets)
        for probe in range(nbuckets):
            bucket = self._bucket_address((home + probe) & (nbuckets - 1))
            line = recorder.read_line(bucket)
            for slot_index in range(SLOTS_PER_BUCKET):
                offset = slot_index * _SLOT_BYTES
                stored = int.from_bytes(line[offset : offset + 8], "little")
                if stored == key:
                    return bucket + offset, insert
                if stored == TOMBSTONE_KEY:
                    if insert is None:
                        insert = bucket + offset
                elif stored == EMPTY_KEY:
                    return None, insert if insert is not None else bucket + offset
        return None, insert

    # -- operations --------------------------------------------------------

    def put(self, key: int, value: int) -> None:
        """Insert or overwrite; one committed transaction (plus splits)."""
        self._check_key(key)
        if not self._has_room():
            self._split()
        recorder = self.recorder
        recorder.begin()
        slot, insert = self._locate(key)
        if slot is None and insert is None:
            # Probed the whole table without a slot: abort the *open*
            # read-only transaction (nothing staged yet), grow, retry.
            recorder.abort()
            self._split()
            recorder.begin()
            slot, insert = self._locate(key)
            if slot is None and insert is None:
                recorder.abort()
                raise ServiceError(
                    "tenant %d namespace still full after split" % self.tenant_id
                )
        target = slot if slot is not None else insert
        assert target is not None
        displaced = self.model.read_u64(target)
        recorder.write_u64(target, key)
        recorder.write_u64(target + 8, value)
        self._commit("put")
        if slot is None:
            self._count += 1
            if displaced == TOMBSTONE_KEY:
                self._tombstones -= 1
        if self.use_index:
            self._index[key] = target

    def get(self, key: int) -> Optional[int]:
        """Read; commits an empty transaction as the linearization point."""
        self._check_key(key)
        self.recorder.begin()
        slot, _insert = self._locate(key)
        value = self.model.read_u64(slot + 8) if slot is not None else None
        self._commit("get")
        return value

    def delete(self, key: int) -> bool:
        """Tombstone the key; returns whether it was present."""
        self._check_key(key)
        recorder = self.recorder
        recorder.begin()
        slot, _insert = self._locate(key)
        if slot is not None:
            recorder.write_u64(slot, TOMBSTONE_KEY)
            recorder.write_u64(slot + 8, 0)
        self._commit("delete")
        if slot is not None:
            self._count -= 1
            self._tombstones += 1
            if self.use_index:
                self._index.pop(key, None)
        return slot is not None

    def scan(self, key_lo: int, key_hi: int) -> List[Tuple[int, int]]:
        """Range scan: all (key, value) pairs with lo <= key <= hi."""
        self._check_key(key_lo)
        recorder = self.recorder
        recorder.begin()
        items: List[Tuple[int, int]] = []
        for bucket in range(self._nbuckets):
            line = recorder.read_line(self._bucket_address(bucket))
            for slot_index in range(SLOTS_PER_BUCKET):
                offset = slot_index * _SLOT_BYTES
                stored = int.from_bytes(line[offset : offset + 8], "little")
                if stored in (EMPTY_KEY, TOMBSTONE_KEY):
                    continue
                if key_lo <= stored <= key_hi:
                    value = int.from_bytes(line[offset + 8 : offset + 16], "little")
                    items.append((stored, value))
        self._commit("scan")
        return sorted(items)

    # -- growth ------------------------------------------------------------

    def _has_room(self) -> bool:
        capacity = self._nbuckets * SLOTS_PER_BUCKET
        return (self._count + self._tombstones + 1) <= int(self.max_load * capacity)

    def _split(self) -> None:
        """Double the directory: rehash into a fresh region, then flip.

        The rehashed table is written with bounded-size transactions
        (each at most the arena's log capacity), all into lines the old
        directory never references; the final one-line transaction
        atomically flips ``(nbuckets, table_base, generation)``.  A
        crash before the flip recovers to the old directory, after it
        to the new one — the paper's single-atom commit idiom at the
        structure level.
        """
        new_nbuckets = self._nbuckets * 2
        try:
            new_base = self.arena.heap.alloc_lines(new_nbuckets)
        except HeapError:
            raise ServiceError(
                "tenant %d arena exhausted: cannot grow directory past %d "
                "buckets" % (self.tenant_id, self._nbuckets)
            ) from None
        # In-memory rehash from the model (the authoritative contents).
        live: List[Tuple[int, int]] = []
        for bucket in range(self._nbuckets):
            line = self.model.line(self._bucket_address(bucket))
            for slot_index in range(SLOTS_PER_BUCKET):
                offset = slot_index * _SLOT_BYTES
                stored = int.from_bytes(line[offset : offset + 8], "little")
                if stored not in (EMPTY_KEY, TOMBSTONE_KEY):
                    value = int.from_bytes(line[offset + 8 : offset + 16], "little")
                    live.append((stored, value))
        new_lines: Dict[int, bytearray] = {}
        new_index: Dict[int, int] = {}
        for key, value in live:
            placed = False
            home = self._home_bucket(key, new_nbuckets)
            for probe in range(new_nbuckets):
                bucket_addr = new_base + (
                    (home + probe) & (new_nbuckets - 1)
                ) * CACHE_LINE_SIZE
                line_buf = new_lines.setdefault(bucket_addr, bytearray(CACHE_LINE_SIZE))
                for slot_index in range(SLOTS_PER_BUCKET):
                    offset = slot_index * _SLOT_BYTES
                    if int.from_bytes(line_buf[offset : offset + 8], "little") == EMPTY_KEY:
                        line_buf[offset : offset + 8] = key.to_bytes(8, "little")
                        line_buf[offset + 8 : offset + 16] = value.to_bytes(8, "little")
                        new_index[key] = bucket_addr + offset
                        placed = True
                        break
                if placed:
                    break
            if not placed:  # pragma: no cover - doubling always fits
                raise ServiceError("rehash failed to place key %d" % key)
        recorder = self.recorder
        written = [address for address in sorted(new_lines) if any(new_lines[address])]
        chunk = max(1, self.arena.log_capacity)
        for start in range(0, len(written), chunk):
            recorder.begin()
            for address in written[start : start + chunk]:
                recorder.write_bytes(address, bytes(new_lines[address]))
            self._commit("split-chunk")
        self._generation += 1
        recorder.begin()
        recorder.write_u64(self.meta_address + _META_NBUCKETS, new_nbuckets)
        recorder.write_u64(self.meta_address + _META_TABLE_BASE, new_base)
        recorder.write_u64(self.meta_address + _META_GENERATION, self._generation)
        self._commit("split-flip")
        self._nbuckets = new_nbuckets
        self._table_base = new_base
        self._count = len(live)
        self._tombstones = 0
        self._index = new_index if self.use_index else {}
        self.splits += 1

    # -- bookkeeping -------------------------------------------------------

    def _commit(self, tag: str) -> RecordedTxn:
        recorded = self.recorder.commit()
        self.service._note_commit(self.tenant_id, recorded, tag)
        return recorded


@dataclass(frozen=True)
class CommitRecord:
    """Global-order bookkeeping for one committed transaction."""

    tenant: int
    #: Tenant-local transaction index (position in the tenant history).
    local_index: int
    #: What committed: setup | put | get | delete | scan | split-chunk
    #: | split-flip.
    tag: str
    #: Index of the driving operation; None for setup transactions.
    op_index: Optional[int]


class ServiceWorkload:
    """Builds the whole multi-tenant service trace on one core."""

    def __init__(
        self,
        config: SystemConfig,
        tenants: int,
        mechanism: str = "undo",
        log_capacity: int = 32,
        initial_buckets: int = 8,
        max_load: float = 0.7,
        use_index: bool = True,
        name: str = "kv-service",
    ) -> None:
        if mechanism not in RECOVERERS:
            raise ServiceError(
                "service mechanism must be one of %s" % (tuple(RECOVERERS),)
            )
        self.config = config
        self.mechanism = mechanism
        self.arenas = build_tenant_arenas(config, tenants, log_capacity)
        self.builder = TraceBuilder(name, functional=config.functional)
        self.commit_order: List[CommitRecord] = []
        self._current_op: Optional[int] = None
        self.stores: List[TenantKV] = []
        for arena in self.arenas:
            model = LineModel()
            txns = make_transactions(mechanism, self.builder, arena)
            recorder = TxnRecorder(self.builder, txns, model)
            self.stores.append(
                TenantKV(
                    arena.core_id,
                    recorder,
                    arena,
                    self,
                    initial_buckets=initial_buckets,
                    max_load=max_load,
                    use_index=use_index,
                )
            )

    def _note_commit(self, tenant: int, recorded: RecordedTxn, tag: str) -> None:
        self.commit_order.append(
            CommitRecord(
                tenant=tenant,
                local_index=recorded.index,
                tag=tag,
                op_index=self._current_op,
            )
        )

    def execute(self, operations: Sequence[Operation]) -> List[object]:
        """Run the stream in order; returns per-operation results."""
        results: List[object] = []
        for op in operations:
            if not 0 <= op.tenant < len(self.stores):
                raise ServiceError("operation %d targets unknown tenant %d"
                                   % (op.index, op.tenant))
            self._current_op = op.index
            store = self.stores[op.tenant]
            if op.kind == "put":
                store.put(op.key, op.value)
                results.append(None)
            elif op.kind == "get":
                results.append(store.get(op.key))
            elif op.kind == "delete":
                results.append(store.delete(op.key))
            elif op.kind == "scan":
                results.append(store.scan(op.key, op.key_hi))
            else:
                raise ServiceError("unknown operation kind %r" % op.kind)
        self._current_op = None
        return results

    def build_run(self, operations: Sequence[Operation]) -> "ServiceRun":
        """Freeze the trace and bookkeeping for simulation/validation."""
        return ServiceRun(
            trace=self.builder.build(),
            mechanism=self.mechanism,
            arenas=self.arenas,
            tenant_histories=[list(s.recorder.history) for s in self.stores],
            tenant_models=[s.model for s in self.stores],
            commit_order=list(self.commit_order),
            operations=list(operations),
        )


@dataclass
class ServiceRun:
    """Everything one generated service trace exposes downstream."""

    trace: Trace
    mechanism: str
    arenas: List[CoreArena]
    tenant_histories: List[List[RecordedTxn]]
    tenant_models: List[LineModel]
    commit_order: List[CommitRecord]
    operations: List[Operation]

    @property
    def tenants(self) -> int:
        return len(self.arenas)

    def tenant_tracked_lines(self, tenant: int) -> Set[int]:
        lines: Set[int] = set()
        for txn in self.tenant_histories[tenant]:
            for line, _old, _new in txn.writes:
                lines.add(line)
        return lines

    def op_commit_spans(self) -> Dict[int, Tuple[int, int]]:
        """op index -> (first, last) global txn index it committed.

        An operation's *last* transaction is its acknowledgement point;
        splits triggered by a put belong to that put's span.
        """
        spans: Dict[int, Tuple[int, int]] = {}
        for global_index, record in enumerate(self.commit_order):
            if record.op_index is None:
                continue
            first, _last = spans.get(record.op_index, (global_index, global_index))
            spans[record.op_index] = (first, global_index)
        return spans


class ServiceValidator:
    """Per-tenant prefix validation over a recovered service memory.

    The verdict is shape-compatible with the classifier contract of
    :class:`~repro.crash.session.RecoverySession`, with one
    :class:`~repro.crash.verdict.Verdict` per tenant in ``tenants``.
    """

    def __init__(
        self,
        run: ServiceRun,
        txn_end_times: Optional[Sequence[float]] = None,
    ) -> None:
        self.run = run
        self.txn_end_times = (
            list(txn_end_times) if txn_end_times is not None else None
        )
        if self.txn_end_times is not None and len(self.txn_end_times) != len(
            run.commit_order
        ):
            raise ServiceError(
                "txn_end_times has %d entries for %d committed transactions"
                % (len(self.txn_end_times), len(run.commit_order))
            )
        self._prefix_states = [
            prefix_states({}, history) for history in run.tenant_histories
        ]
        # Tenant-local txn index -> global txn index, per tenant.
        tenant_global: List[List[int]] = [[] for _ in run.arenas]
        for global_index, record in enumerate(run.commit_order):
            locals_ = tenant_global[record.tenant]
            if record.local_index != len(locals_):
                raise ServiceError(
                    "commit order is inconsistent with tenant %d history"
                    % record.tenant
                )
            locals_.append(global_index)
        ends = self.txn_end_times
        #: Per tenant, its transactions' end times in tenant-local order.
        self._tenant_end_times: List[Optional[List[float]]] = [
            None if ends is None else [ends[index] for index in indices]
            for indices in tenant_global
        ]

    def classify(
        self,
        recovered: RecoveredMemory,
        context: Optional[RecoveryContext] = None,
    ) -> Verdict:
        """Recover every arena, then validate each tenant's prefix.

        Detection-channel exceptions (decryption failures, corrupt
        transaction records) classify as *detected*; anything else —
        including :class:`~repro.errors.NestedCrash` from an armed
        context — propagates to the caller, exactly like the
        single-tenant validator.
        """
        run = self.run
        crash_ns = recovered.image.crash_ns
        verdict = Verdict()
        problem = replay(
            RECOVERERS[run.mechanism],
            recovered,
            run.arenas,
            context or RecoveryContext(),
        )
        if problem is not None:
            verdict.detected.append(problem)
            return verdict

        consistent = True
        for tenant, arena in enumerate(run.arenas):
            tenant_verdict = Verdict(
                required_prefix=required_prefix(
                    self._tenant_end_times[tenant], crash_ns
                ),
            )
            verdict.tenants.append(tenant_verdict)
            tracked = sorted(run.tenant_tracked_lines(tenant))
            leaked = [
                line
                for line in tracked
                if not arena.heap.base <= line < arena.heap.limit
            ]
            if leaked:
                tenant_verdict.silent.append(
                    "cross-tenant leakage: tenant %d wrote line 0x%x outside "
                    "its arena" % (tenant, leaked[0])
                )
            values: Dict[int, bytes] = {}
            for line in tracked:
                try:
                    values[line] = recovered.read(line, CACHE_LINE_SIZE)
                except DecryptionFailure:
                    tenant_verdict.detected.append(
                        "tenant %d line 0x%x undecryptable after recovery"
                        % (tenant, line)
                    )
            if tenant_verdict.detected or tenant_verdict.silent:
                verdict.detected.extend(tenant_verdict.detected)
                verdict.silent.extend(tenant_verdict.silent)
                consistent = False
                continue
            tenant_verdict.matched_prefix = largest_matching_prefix(
                values, tracked, self._prefix_states[tenant]
            )
            if covers(tenant_verdict.matched_prefix, tenant_verdict.required_prefix):
                tenant_verdict.consistent = True
                continue
            consistent = False
            if tenant_verdict.matched_prefix is not None:
                tenant_verdict.silent.append(
                    "tenant %d recovered to prefix %d but %d transaction(s) "
                    "were acknowledged before the crash at %.1f ns — an "
                    "acknowledged write was lost"
                    % (
                        tenant,
                        tenant_verdict.matched_prefix,
                        tenant_verdict.required_prefix,
                        crash_ns,
                    )
                )
            else:
                tenant_verdict.silent.append(
                    "tenant %d recovered state matches no transaction prefix "
                    "(crash at %.1f ns)" % (tenant, crash_ns)
                )
            verdict.silent.extend(tenant_verdict.silent)
        verdict.consistent = consistent and bool(run.arenas)
        return verdict
