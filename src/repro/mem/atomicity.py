"""Counter-atomicity policies: queue selection and ready-bit pairing.

The atomicity layer owns the data and counter write queues and every
path by which a write (data or counter) reaches them:

* :class:`UnpairedAtomicity` — writes are accepted individually and are
  immediately ready (the no-encryption, ideal, unsafe and co-located
  designs; also SCA's non-annotated writes).
* :class:`FullCounterAtomicity` — every data write pairs with its
  covering counter-line write through the ready-bit protocol (paper
  Section 3.2.2 / 5.2.2).
* :class:`SelectiveCounterAtomicity` — only ``CounterAtomic``-annotated
  writes pair; other counters coalesce in the counter cache until
  ``counter_cache_writeback()`` (Section 4).

A note on counter-atomic pairs and sibling counters: a paired write
persists the whole covering counter line.  The seven sibling slots are
taken from the *architectural* counter values (last persisted), not the
counter cache — re-persisting them is idempotent, whereas persisting a
dirty cached sibling could outrun its data line and strand it
undecryptable.  Dirty cached counters persist via
``counter_cache_writeback()`` or eviction, exactly as the paper's
protocol requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Optional, Tuple

from ..config import CACHE_LINE_SIZE, SystemConfig
from ..core.designs import DesignPolicy
from .events import COUNTER_PERSIST, DATA_PERSIST, PAIR
from .writequeue import _INF, WriteQueue, WriteQueueEntry

if TYPE_CHECKING:
    from .controller import MemoryController


@dataclass(slots=True)
class WriteTicket:
    """Acceptance of a write-line request.

    ``accept_ns`` is when the write is architecturally persistent under
    ADR (both queue entries accepted and ready, for paired writes);
    sfence/persist_barrier waits on this.  ``drain_ns`` is when the data
    actually reaches the NVM array (diagnostics, crash modeling).
    """

    address: int
    accept_ns: float
    drain_ns: float
    paired: bool
    coalesced: bool


class UnpairedAtomicity:
    """Base discipline: no pairing; every entry is ready on acceptance.

    Also the shared implementation substrate — the paired disciplines
    override :meth:`write_is_paired` (and FCA the counter-writeback
    granularity) but reuse the queue mechanics defined here.
    """

    kind = "unpaired"

    #: Bytes a *pair's* counter persist moves.  A pair changes at most
    #: its own 8 B slot relative to the persisted line, so this equals
    #: ``counter_payload_bytes`` (8 * max(1, changed)) for that case;
    #: FCA overrides both to full cache lines.
    pair_counter_bytes = 8

    def __init__(self, ctrl: "MemoryController", config: SystemConfig, policy: DesignPolicy) -> None:
        self.ctrl = ctrl
        self.policy = policy
        self.data_queue = WriteQueue(
            "data-wq",
            config.controller.data_write_queue_entries,
            coalesce=config.controller.coalesce_writes,
            entry_ids=ctrl.entry_ids,
        )
        self.counter_queue = WriteQueue(
            "counter-wq",
            config.controller.counter_write_queue_entries,
            coalesce=config.controller.coalesce_writes,
            entry_ids=ctrl.entry_ids,
        )
        self.pair_ready_latency_ns = config.controller.pair_ready_latency_ns
        self._magic = policy.magic_counter_persistence

    # -- pairing discipline --------------------------------------------------

    def write_is_paired(self, counter_atomic: bool) -> bool:
        return False

    def accept_write(
        self,
        line: int,
        payload: Optional[bytes],
        request_ns: float,
        counter: int,
        counter_atomic: bool,
    ) -> WriteTicket:
        """Route one encrypted split-region data write per the discipline.

        Unpaired writes may still be escalated to a counter-atomic pair
        by the integrity layer's Osiris counter-lag bound: an unpaired
        write whose global counter has outrun the persisted counter
        beyond the post-crash search window would be unrecoverable, so
        integrity-verified designs force the pair (all-or-nothing, no
        crash window), keeping every persisted line re-authenticable.
        """
        paired = self.write_is_paired(counter_atomic)
        lag_forced = False
        if not paired and self.ctrl.integrity.should_force_pair(line, counter):
            lag_forced = True
            paired = True
        if paired:
            return self.write_paired(line, payload, request_ns, counter, lag_forced)
        ticket = self.write_unpaired(line, payload, request_ns, encrypted_with=counter)
        if self._magic:
            # Ideal fiction: the architectural counter becomes durable
            # instantly and for free, together with the data.
            ctrl = self.ctrl
            ctrl.counter_store.write(line, counter)
            if ctrl.journal.enabled:
                ctrl.journal.record_counter(
                    address=ctrl.address_map.counter_line_address_of(line),
                    counters=(counter,),
                    group_base=line,
                    accept_ns=ticket.accept_ns,
                    ready_ns=ticket.accept_ns,
                    drain_ns=ticket.accept_ns,
                    single_slot=True,
                )
        return ticket

    # -- unpaired data writes ------------------------------------------------

    def write_unpaired(
        self,
        line: int,
        payload: Optional[bytes],
        request_ns: float,
        encrypted_with: int,
    ) -> WriteTicket:
        """Unpaired data write: coalesce or enqueue, drain when banks allow.

        Hot path: the queue probe/accept/ready/drain-time mechanics and
        the record emit are inlined — bit-identical to the composed
        calls (``docs/performance.md``) — because every plain clwb and
        dirty data eviction funnels through here.
        """
        ctrl = self.ctrl
        queue = self.data_queue
        events = ctrl.events
        # Coalesce probe (== WriteQueue.try_coalesce without the
        # counter-values/counter-atomic cases, which cannot arise here).
        entry = queue._live_by_address.get(line) if queue.coalesce_enabled else None
        if (
            entry is not None
            and entry.slot_release_ns > request_ns
            and not entry.counter_atomic
        ):
            entry.payload = payload
            entry.encrypted_with = encrypted_with
            entry.coalesced += 1
            queue.coalesced += 1
            drain_ns = entry.drain_ns
            ctrl.device.persist_line(line, payload, encrypted_with)
            if ctrl.journal.enabled:
                ctrl.journal.amend_data(
                    entry.entry_id, payload, encrypted_with, effective_ns=request_ns
                )
            records = events.records
            records.append(
                (DATA_PERSIST, line, CACHE_LINE_SIZE, True, request_ns, drain_ns, 0.0)
            )
            if len(records) >= events.flush_every:
                events.flush()
            return WriteTicket(
                address=line,
                accept_ns=request_ns,
                drain_ns=drain_ns,
                paired=False,
                coalesced=True,
            )
        # Acceptance (== WriteQueue.accept, ready at accept).
        slots = queue._slots
        while slots and slots[0] <= request_ns:
            heappop(slots)
        if len(slots) < queue.capacity:
            accept_ns = request_ns
        else:
            accept_ns = slots[0]
            queue.total_accept_wait_ns += accept_ns - request_ns
        ids = queue._entry_ids
        entry_id = ids.next_id
        ids.next_id = entry_id + 1
        entry = WriteQueueEntry(
            entry_id, line, payload, False, encrypted_with, None,
            accept_ns, accept_ns, _INF,
        )
        queue._live_by_address[line] = entry
        queue.history.append(entry)
        queue.accepted += 1
        issue, drain = ctrl.drain_write(queue, "data", line, accept_ns, CACHE_LINE_SIZE)
        # Drain schedule (== WriteQueue.set_drain_time; its validations
        # hold statically: drain >= issue >= accept == ready).
        entry.drain_ns = drain
        entry.slot_release_ns = issue
        while slots and slots[0] <= accept_ns:
            heappop(slots)
        heappush(slots, issue)
        if len(slots) > queue.peak_occupancy:
            queue.peak_occupancy = len(slots)
        ctrl.device.persist_line(line, payload, encrypted_with)
        if ctrl.journal.enabled:
            ctrl.journal.record_data(
                entry_id=entry_id,
                address=line,
                payload=payload,
                encrypted_with=encrypted_with,
                accept_ns=accept_ns,
                ready_ns=accept_ns,
                drain_ns=drain,
            )
        records = events.records
        records.append(
            (DATA_PERSIST, line, CACHE_LINE_SIZE, False, accept_ns, drain, accept_ns - request_ns)
        )
        if len(records) >= events.flush_every:
            events.flush()
        return WriteTicket(
            address=line, accept_ns=accept_ns, drain_ns=drain, paired=False, coalesced=False
        )

    # -- counter-atomic pairs ------------------------------------------------

    def write_paired(
        self,
        line: int,
        payload: Optional[bytes],
        request_ns: float,
        counter: int,
        lag_forced: bool = False,
    ) -> WriteTicket:
        """Counter-atomic write: data + counter entries with ready bits.

        Follows the paper's seven-step walkthrough: both entries are
        inserted, each checks for its partner, and both become ready
        only when both are present.  Neither drains before ready, and
        the ADR drain at a failure takes ready entries only, so the
        pair persists all-or-nothing.

        Counter updates to a counter line that is already queued (and
        still undrained) merge into the queued entry — the merge and
        ready-bit update are a single ADR-protected operation, so the
        amendment takes effect exactly when the new pair becomes ready.

        Hot path for FCA (and SCA annotated writes): the queue and emit
        mechanics are inlined exactly like :meth:`write_unpaired`.
        """
        ctrl = self.ctrl
        data_queue = self.data_queue
        counter_queue = self.counter_queue
        events = ctrl.events
        group_base = ctrl.address_map.data_group_base(line)
        counter_line = ctrl.address_map.counter_line_address_of(line)
        # == _pair_counter_line_values, reusing the group base computed
        # above; the persisted-sibling rationale is in the module
        # docstring.
        values = list(ctrl.counter_store.read_counter_line(line))
        values[(line - group_base) // CACHE_LINE_SIZE] = counter
        counters = tuple(values)

        # A new pair to a line whose previous pair is still queued
        # merges into it: the merge plus the ready-bit update is one
        # ADR-protected operation, so both the data amendment and the
        # counter amendment take effect exactly when this pair becomes
        # ready, preserving all-or-nothing behaviour.
        # (Inline peek_coalesce with allow_counter_atomic=True: any
        # live entry qualifies.)
        if data_queue.coalesce_enabled:
            candidate_data = data_queue._live_by_address.get(line)
            if candidate_data is not None and candidate_data.slot_release_ns <= request_ns:
                candidate_data = None
            candidate_ctr = counter_queue._live_by_address.get(counter_line)
            if candidate_ctr is not None and candidate_ctr.slot_release_ns <= request_ns:
                candidate_ctr = None
        else:
            candidate_data = None
            candidate_ctr = None
        if (
            candidate_data is not None
            and candidate_data.counter_atomic
            and candidate_ctr is not None
        ):
            self.data_queue.commit_coalesce(candidate_data, payload, counter)
            self.counter_queue.commit_coalesce(
                candidate_ctr, None, 0, counter_values=(group_base, counters)
            )
            ready_ns = request_ns + self.pair_ready_latency_ns
            events.emit(
                (DATA_PERSIST, line, CACHE_LINE_SIZE, True, ready_ns, candidate_data.drain_ns, 0.0)
            )
            events.emit(
                (COUNTER_PERSIST, counter_line, 0, True, True, ready_ns, candidate_ctr.drain_ns)
            )
            if ctrl.journal.enabled:
                ctrl.journal.amend_data(
                    candidate_data.entry_id, payload, counter, effective_ns=ready_ns
                )
                ctrl.journal.amend_counter(
                    candidate_ctr.entry_id, group_base, counters, effective_ns=ready_ns
                )
            ctrl.device.persist_line(line, payload, counter)
            ctrl.counter_store.write_counter_line(group_base, counters)
            settled_ns = ctrl.integrity.note_counter_persist(group_base, counters, ready_ns)
            events.emit((PAIR, line, settled_ns, 0.0, lag_forced, True))
            return WriteTicket(
                address=line,
                accept_ns=settled_ns,
                drain_ns=max(candidate_data.drain_ns, candidate_ctr.drain_ns),
                paired=True,
                coalesced=True,
            )

        # Data acceptance (== WriteQueue.accept with counter_atomic=True).
        data_slots = data_queue._slots
        while data_slots and data_slots[0] <= request_ns:
            heappop(data_slots)
        if len(data_slots) < data_queue.capacity:
            pair_time = request_ns
        else:
            pair_time = data_slots[0]
            data_queue.total_accept_wait_ns += pair_time - request_ns
        ids = data_queue._entry_ids
        data_entry_id = ids.next_id
        ids.next_id = data_entry_id + 1
        data_entry = WriteQueueEntry(
            data_entry_id, line, payload, False, counter, None,
            pair_time, _INF, _INF, _INF, True,
        )
        data_queue._live_by_address[line] = data_entry
        data_queue.history.append(data_entry)
        data_queue.accepted += 1

        # Counter side: merge into a live queued counter entry, else
        # accept a fresh one (== try_coalesce / accept + mark_ready +
        # set_drain_time, inlined).
        merged = (
            counter_queue._live_by_address.get(counter_line)
            if counter_queue.coalesce_enabled
            else None
        )
        if merged is not None and merged.slot_release_ns <= pair_time:
            merged = None
        if merged is not None:
            merged.payload = None
            merged.encrypted_with = 0
            merged.counter_values = (group_base, counters)
            merged.coalesced += 1
            counter_queue.coalesced += 1
            ready_ns = max(pair_time, merged.accept_ns) + self.pair_ready_latency_ns
            counter_drain = merged.drain_ns
            counter_entry_id = merged.entry_id
            records = events.records
            records.append((COUNTER_PERSIST, counter_line, 0, True, True, ready_ns, counter_drain))
            if len(records) >= events.flush_every:
                events.flush()
            if ctrl.journal.enabled:
                ctrl.journal.amend_counter(
                    merged.entry_id, group_base, counters, effective_ns=ready_ns
                )
        else:
            counter_slots = counter_queue._slots
            while counter_slots and counter_slots[0] <= request_ns:
                heappop(counter_slots)
            if len(counter_slots) < counter_queue.capacity:
                counter_accept = request_ns
            else:
                counter_accept = counter_slots[0]
                counter_queue.total_accept_wait_ns += counter_accept - request_ns
            ids = counter_queue._entry_ids
            counter_entry_id = ids.next_id
            ids.next_id = counter_entry_id + 1
            ready_ns = max(pair_time, counter_accept) + self.pair_ready_latency_ns
            counter_entry = WriteQueueEntry(
                counter_entry_id, counter_line, None, True, 0,
                (group_base, counters), counter_accept, ready_ns, _INF, _INF,
                True, data_entry_id,
            )
            counter_queue._live_by_address[counter_line] = counter_entry
            counter_queue.history.append(counter_entry)
            counter_queue.accepted += 1
            counter_bytes = self.pair_counter_bytes
            counter_issue, counter_drain = ctrl.drain_write(
                counter_queue, "counter", counter_line, ready_ns, counter_bytes
            )
            counter_entry.drain_ns = counter_drain
            counter_entry.slot_release_ns = counter_issue
            while counter_slots and counter_slots[0] <= counter_accept:
                heappop(counter_slots)
            heappush(counter_slots, counter_issue)
            if len(counter_slots) > counter_queue.peak_occupancy:
                counter_queue.peak_occupancy = len(counter_slots)
            records = events.records
            records.append(
                (
                    COUNTER_PERSIST, counter_line, counter_bytes, False, True,
                    counter_accept, counter_drain,
                )
            )
            if len(records) >= events.flush_every:
                events.flush()
            if ctrl.journal.enabled:
                ctrl.journal.record_counter(
                    address=counter_line,
                    counters=counters,
                    group_base=group_base,
                    accept_ns=counter_accept,
                    ready_ns=ready_ns,
                    drain_ns=counter_drain,
                    entry_id=counter_entry_id,
                )

        data_entry.ready_ns = ready_ns
        data_entry.partner_id = counter_entry_id
        data_issue, data_drain = ctrl.drain_write(
            data_queue, "data", line, ready_ns, CACHE_LINE_SIZE
        )
        data_entry.drain_ns = data_drain
        data_entry.slot_release_ns = data_issue
        while data_slots and data_slots[0] <= pair_time:
            heappop(data_slots)
        heappush(data_slots, data_issue)
        if len(data_slots) > data_queue.peak_occupancy:
            data_queue.peak_occupancy = len(data_slots)
        records = events.records
        records.append((DATA_PERSIST, line, CACHE_LINE_SIZE, False, pair_time, data_drain, 0.0))
        if len(records) >= events.flush_every:
            events.flush()

        ctrl.device.persist_line(line, payload, counter)
        ctrl.counter_store.write_counter_line(group_base, counters)
        settled_ns = ctrl.integrity.note_counter_persist(group_base, counters, ready_ns)
        if ctrl.journal.enabled:
            ctrl.journal.record_data(
                entry_id=data_entry_id,
                address=line,
                payload=payload,
                encrypted_with=counter,
                accept_ns=pair_time,
                ready_ns=ready_ns,
                drain_ns=data_drain,
                partner_id=counter_entry_id,
            )
        records = events.records
        records.append(
            (PAIR, line, settled_ns, settled_ns - request_ns, lag_forced, merged is not None)
        )
        if len(records) >= events.flush_every:
            events.flush()
        return WriteTicket(
            address=line,
            accept_ns=settled_ns,
            drain_ns=max(data_drain, counter_drain),
            paired=True,
            coalesced=merged is not None,
        )

    # -- counter-line writebacks (evictions / ccwb flushes) ------------------

    def writeback_counter_line(
        self,
        flushed: Tuple[int, Tuple[int, ...]],
        request_ns: float,
    ) -> WriteTicket:
        """Write one counter line (eviction or ccwb flush) to NVM."""
        ctrl = self.ctrl
        group_base, counters = flushed
        counter_line = ctrl.address_map.counter_line_address_of(group_base)
        coalesced = self.counter_queue.try_coalesce(
            counter_line, request_ns, None, 0, counter_values=(group_base, counters)
        )
        if coalesced is not None:
            ctrl.events.emit(
                (COUNTER_PERSIST, counter_line, 0, True, False, request_ns, coalesced.drain_ns)
            )
            ctrl.counter_store.write_counter_line(group_base, counters)
            settled_ns = ctrl.integrity.note_counter_persist(group_base, counters, request_ns)
            if ctrl.journal.enabled:
                ctrl.journal.amend_counter(
                    coalesced.entry_id, group_base, counters, effective_ns=request_ns
                )
            return WriteTicket(
                address=counter_line,
                accept_ns=settled_ns,
                drain_ns=coalesced.drain_ns,
                paired=False,
                coalesced=True,
            )
        entry = self.counter_queue.accept(
            counter_line,
            request_ns,
            None,
            is_counter=True,
            counter_values=(group_base, counters),
        )
        self.counter_queue.mark_ready(entry, entry.accept_ns)
        counter_bytes = self.counter_payload_bytes(group_base, counters)
        issue, drain = ctrl.drain_write(
            self.counter_queue, "counter", counter_line, entry.accept_ns, counter_bytes
        )
        self.counter_queue.set_drain_time(entry, drain, slot_release_ns=issue)
        ctrl.counter_store.write_counter_line(group_base, counters)
        settled_ns = ctrl.integrity.note_counter_persist(group_base, counters, entry.accept_ns)
        if ctrl.journal.enabled:
            ctrl.journal.record_counter(
                address=counter_line,
                counters=counters,
                group_base=group_base,
                accept_ns=entry.accept_ns,
                ready_ns=entry.ready_ns,
                drain_ns=drain,
                entry_id=entry.entry_id,
            )
        ctrl.events.emit(
            (COUNTER_PERSIST, counter_line, counter_bytes, False, False, entry.accept_ns, drain)
        )
        return WriteTicket(
            address=counter_line,
            accept_ns=settled_ns,
            drain_ns=drain,
            paired=False,
            coalesced=False,
        )

    # -- helpers -------------------------------------------------------------

    def counter_payload_bytes(self, group_base: int, counters: Tuple[int, ...]) -> int:
        """Bytes a counter writeback moves to NVM.

        Coalesced writebacks move only the modified 8 B slots over the
        64-bit bus; full counter-atomicity overrides this with
        cache-line granularity (the Section 4.1 overhead).
        """
        stored = self.ctrl.counter_store.read_counter_line(group_base)
        changed = sum(1 for old, new in zip(stored, counters) if old != new)
        return 8 * max(1, changed)

    def _pair_counter_line_values(self, line: int, new_counter: int) -> Tuple[int, ...]:
        """Counter-line contents persisted by a pair.

        The written slot carries the new counter; sibling slots carry
        their last *persisted* values (see the module docstring for why
        dirty cached siblings must not ride along).
        """
        ctrl = self.ctrl
        group_base = ctrl.address_map.data_group_base(line)
        own_slot = (line - group_base) // CACHE_LINE_SIZE
        values = list(ctrl.counter_store.read_counter_line(line))
        values[own_slot] = new_counter
        return tuple(values)

    # -- checkpoint state ----------------------------------------------------

    def get_state(self) -> dict:
        return {
            "data_queue": self.data_queue.get_state(),
            "counter_queue": self.counter_queue.get_state(),
        }

    def set_state(self, state: dict) -> None:
        self.data_queue.set_state(state["data_queue"])
        self.counter_queue.set_state(state["counter_queue"])


class FullCounterAtomicity(UnpairedAtomicity):
    """FCA: every write pairs; counter writebacks are full lines."""

    kind = "fca"

    pair_counter_bytes = CACHE_LINE_SIZE

    def write_is_paired(self, counter_atomic: bool) -> bool:
        return True

    def counter_payload_bytes(self, group_base: int, counters: Tuple[int, ...]) -> int:
        return CACHE_LINE_SIZE


class SelectiveCounterAtomicity(UnpairedAtomicity):
    """SCA: only ``CounterAtomic``-annotated writes pair."""

    kind = "sca"

    def write_is_paired(self, counter_atomic: bool) -> bool:
        return counter_atomic


_ATOMICITY_CLASSES = {
    "unpaired": UnpairedAtomicity,
    "fca": FullCounterAtomicity,
    "sca": SelectiveCounterAtomicity,
}


def build_atomicity(
    ctrl: "MemoryController", config: SystemConfig, policy: DesignPolicy
) -> UnpairedAtomicity:
    """Instantiate the atomicity strategy for a design's axis value."""
    return _ATOMICITY_CLASSES[policy.atomicity.kind](ctrl, config, policy)
