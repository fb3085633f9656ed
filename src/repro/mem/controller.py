"""The memory controller: a slim coordinator over composed policy layers.

All design points of the paper run through this one controller,
parameterized by a :class:`repro.core.designs.DesignPolicy` whose three
axes select three strategy objects:

* a **layout path** (:mod:`repro.mem.layout`) owning read/write byte
  movement — plain, co-located 72 B, or split counter region,
* an **atomicity policy** (:mod:`repro.mem.atomicity`) owning the data
  and counter write queues, ready-bit pairing and lag-forced pair
  escalation — unpaired, FCA, or SCA,
* an **integrity persistence** (:mod:`repro.mem.integrity_policy`)
  owning tree-node drains and counter-fetch authentication — none,
  eager, or lazy.

The controller itself keeps only what the layers share: the NVM device
and its bank/bus timing models, the counter store and encryption
engine, the read queue, the drain scheduler, the persist journal, and
the event record stream (:mod:`repro.mem.events`) that every observable
action is appended to.  Statistics are folded from the record stream
rather than incremented inline; see ``docs/architecture.md`` for the
layer diagram and the stream contract.

Timing contract: every public operation takes the requester's current
time and returns absolute completion/acceptance times.  Functionally,
writes are applied to the device immediately (modeling write-queue
forwarding); the journal records *when* each write became durable so
crash images can be reconstructed exactly.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import List, Optional, Tuple

from ..config import CACHE_LINE_SIZE, SystemConfig
from ..core.designs import DesignPolicy
from ..crypto.counter_cache import CounterCacheStats
from ..crypto.counters import CounterStore
from ..crypto.engine import EncryptionEngine
from ..errors import AddressError
from ..integrity.cache import TreeNodeCache
from ..integrity.tree import IntegrityTreeEngine
from ..nvm.address import AddressMap
from ..nvm.device import NVMDevice, _ZERO_PERSISTED
from ..nvm.timing import BankTimingModel, BusModel
from ..persist.journal import PersistJournal
from .atomicity import UnpairedAtomicity, WriteTicket, build_atomicity
from .events import CCWB, CCWB_FLUSH, DRAIN, READ, WRITE_REQUEST, ControllerStats, EventStream
from .integrity_policy import NoIntegrity, build_integrity
from .layout import COLOCATED_PAYLOAD, PlainLayout, ReadResult, build_layout
from .writequeue import EntryIdAllocator, WriteQueue

__all__ = [
    "COLOCATED_PAYLOAD",
    "ControllerStats",
    "MemoryController",
    "ReadResult",
    "WriteTicket",
]

_LINE_MASK = ~(CACHE_LINE_SIZE - 1)
_LINE_SHIFT = 6


class MemoryController:
    """One shared memory controller in front of the NVM DIMM."""

    def __init__(self, config: SystemConfig, policy: DesignPolicy) -> None:
        self.config = config
        self.policy = policy
        nvm_timing = config.nvm
        if nvm_timing.bus_width_bits != policy.bus_width_bits:
            nvm_timing = dataclasses.replace(
                nvm_timing, bus_width_bits=policy.bus_width_bits
            )
        self.timing = nvm_timing
        self.address_map = AddressMap(
            memory_size_bytes=config.memory_size_bytes, num_banks=nvm_timing.num_banks
        )
        self.device = NVMDevice(self.address_map)
        self.banks = BankTimingModel(nvm_timing)
        self.bus = BusModel(nvm_timing)
        # Hoisted constants for the fused read/drain hot paths below
        # (num_banks is validated power-of-two; see AddressMap).
        self._num_banks = nvm_timing.num_banks
        self._bank_mask = nvm_timing.num_banks - 1
        self._memory_size = config.memory_size_bytes
        self.counter_store = CounterStore(
            counter_region_base=self.address_map.counter_region_base,
            memory_size_bytes=config.memory_size_bytes,
        )
        self.engine: Optional[EncryptionEngine] = None
        if policy.encrypts:
            self.engine = EncryptionEngine(
                config=config.encryption,
                cache_config=config.counter_cache,
                counter_store=self.counter_store,
                functional=config.functional,
            )
        # One id space shared by every queue keeps journal entry ids
        # unique; owning the allocator (instead of a module global)
        # makes entry ids reproducible across checkpoint/restore.
        self.entry_ids = EntryIdAllocator()
        # The event record stream: stats are folded from it, and an
        # optional JSONL trace gives campaigns an observability hook
        # (``docs/performance.md``).
        self.events = EventStream(config.controller.event_trace_path or None)
        self._fifo_drain = config.controller.drain_policy == "fifo"
        self._last_drain = {"data": 0.0, "counter": 0.0, "tree": 0.0}
        self._counter_hold_ns = config.controller.counter_drain_hold_ns
        #: Read-queue occupancy (Table 2: 32 entries).  A slot is held
        #: from request to data arrival; a full queue delays the start
        #: of new reads (blocking cores rarely fill it, but counter
        #: fills and multicore bursts can).
        self._read_slots: List[float] = []
        self._read_queue_capacity = config.controller.read_queue_entries
        self.read_queue_peak = 0
        self.total_read_queue_wait_ns = 0.0
        self.journal = PersistJournal()
        if not config.controller.crash_bookkeeping:
            self.journal.enabled = False
            self.device.crash_bookkeeping = False
        self._functional = config.functional
        # The three composed strategy layers (see the module docstring).
        self.atomicity: UnpairedAtomicity = build_atomicity(self, config, policy)
        self.integrity: NoIntegrity = build_integrity(self, config, policy)
        self.layout: PlainLayout = build_layout(self, config, policy)

    # ------------------------------------------------------------------
    # Layer delegation (the pre-decomposition attribute surface)
    # ------------------------------------------------------------------

    @property
    def stats(self) -> ControllerStats:
        self.events.flush()
        return self.events.stats

    @property
    def data_queue(self) -> WriteQueue:
        return self.atomicity.data_queue

    @property
    def counter_queue(self) -> WriteQueue:
        return self.atomicity.counter_queue

    @property
    def tree(self) -> Optional[IntegrityTreeEngine]:
        return self.integrity.tree

    @property
    def tree_cache(self) -> Optional[TreeNodeCache]:
        return self.integrity.tree_cache

    @property
    def tree_queue(self) -> Optional[WriteQueue]:
        return self.integrity.tree_queue

    # ------------------------------------------------------------------
    # Read path (Figure 6)
    # ------------------------------------------------------------------

    def read_line(self, address: int, request_ns: float) -> ReadResult:
        """Fetch and (if encrypted) decrypt one data line.

        Hot path: the slot scan, bank/bus scheduling, device fetch and
        record emit are inlined — bit-identical to the composed calls
        (``docs/performance.md``) — because every simulated miss and
        counter fill funnels through here.
        """
        # Read-queue slot: retire entries whose data has arrived; when
        # the queue is still full, wait for the earliest to free.
        slots = self._read_slots
        while slots and slots[0] <= request_ns:
            heapq.heappop(slots)
        if len(slots) >= self._read_queue_capacity:
            start = heapq.heappop(slots)
            self.total_read_queue_wait_ns += start - request_ns
            request_ns = start
        line = address & _LINE_MASK
        payload_bytes = self.layout.read_payload_bytes
        line_index = line >> _LINE_SHIFT
        bank = line_index & self._bank_mask
        row = (line_index // self._num_banks) // 64
        # Bank array read (== BankTimingModel.schedule_read).
        banks = self.banks
        read_free = banks._read_free
        free = read_free[bank]
        start = request_ns if request_ns >= free else free
        banks.total_read_wait_ns += start - request_ns
        open_row = banks._open_row
        if open_row[bank] == row:
            complete = start + banks._row_hit_ns
            banks.row_hits += 1
        else:
            complete = start + banks._read_access_ns
            open_row[bank] = row
        read_free[bank] = complete
        write_free = banks._write_free
        if write_free[bank] < complete:
            write_free[bank] = complete
        banks.reads += 1
        # Bus burst (== BusModel.schedule_transfer).
        bus = self.bus
        bus_free = bus._free_ns
        bus_start = complete if complete >= bus_free else bus_free
        duration = bus._burst_cache.get(payload_bytes)
        if duration is None:
            duration = bus.timing.burst_ns(payload_bytes)
            bus._burst_cache[payload_bytes] = duration
        data_arrival = bus_start + duration
        bus._free_ns = data_arrival
        bus.transfers += 1
        bus.bytes_moved += payload_bytes
        bus.busy_ns += duration
        # The slot stays held until the data arrives; track the peak.
        heapq.heappush(slots, data_arrival)
        if len(slots) > self.read_queue_peak:
            self.read_queue_peak = len(slots)
        # Device fetch (== NVMDevice.read_line).
        device = self.device
        if line < 0 or line >= self._memory_size:
            raise AddressError("address 0x%x outside the device" % line)
        device.line_reads += 1
        stored = device._lines.get(line, _ZERO_PERSISTED)
        result = self.layout.complete_read(line, request_ns, data_arrival, stored.payload)
        # Record emit (== EventStream.emit).
        events = self.events
        records = events.records
        records.append(
            (READ, line, request_ns, result.complete_ns, payload_bytes, result.counter_cache_hit)
        )
        if len(records) >= events.flush_every:
            events.flush()
        return result

    # ------------------------------------------------------------------
    # Write path (Section 5.2.2)
    # ------------------------------------------------------------------

    def write_line(
        self,
        address: int,
        payload: Optional[bytes],
        request_ns: float,
        counter_atomic: bool = False,
    ) -> WriteTicket:
        """Accept one data-line writeback (clwb or cache eviction)."""
        line = address & _LINE_MASK
        # Record emit (== EventStream.emit).
        events = self.events
        records = events.records
        records.append((WRITE_REQUEST, line, request_ns, counter_atomic))
        if len(records) >= events.flush_every:
            events.flush()
        return self.layout.write_line(line, payload, request_ns, counter_atomic)

    def drain_write(
        self,
        queue: WriteQueue,
        role: str,
        address: int,
        ready_ns: float,
        payload_bytes: int,
    ) -> Tuple[float, float]:
        """Schedule the array write + bus transfer for one drain.

        ``role`` names the queue's drain timeline (``"data"``,
        ``"counter"``, ``"tree"``).  Returns ``(issue_ns,
        complete_ns)``: the entry's queue slot frees at issue (the
        write has left for its bank), while the cell write is durable
        at complete.  Counter-line entries may be held for a grace
        window first (``counter_drain_hold_ns``).
        """
        start = ready_ns
        if role == "counter":
            start += self._counter_hold_ns
        if self._fifo_drain:
            # Strict FIFO drain: head-of-line blocking (ablation).
            last = self._last_drain[role]
            if start < last:
                start = last
        bank = (address >> _LINE_SHIFT) & self._bank_mask
        # Bus burst (== BusModel.schedule_transfer).
        bus = self.bus
        bus_free = bus._free_ns
        bus_start = start if start >= bus_free else bus_free
        duration = bus._burst_cache.get(payload_bytes)
        if duration is None:
            duration = bus.timing.burst_ns(payload_bytes)
            bus._burst_cache[payload_bytes] = duration
        bus_done = bus_start + duration
        bus._free_ns = bus_done
        bus.transfers += 1
        bus.bytes_moved += payload_bytes
        bus.busy_ns += duration
        # Bank array write (== BankTimingModel.schedule_write).
        banks = self.banks
        write_free = banks._write_free
        issue = bus_done
        free = write_free[bank]
        if free > issue:
            issue = free
        free = banks._read_free[bank]
        if free > issue:
            issue = free
        banks.total_write_wait_ns += issue - bus_done
        complete = issue + banks._write_access_ns
        write_free[bank] = complete + banks._t_wtr_ns
        banks._open_row[bank] = None
        banks.writes += 1
        if self._fifo_drain:
            self._last_drain[role] = complete
        if self.events.trace_path is not None:
            self.events.emit((DRAIN, role, address, issue, complete))
        return issue, complete

    # ------------------------------------------------------------------
    # counter_cache_writeback() (Section 4.3 / 5.2.2)
    # ------------------------------------------------------------------

    def counter_cache_writeback(self, address: int, request_ns: float) -> Optional[WriteTicket]:
        """Flush the dirty counter line covering ``address``.

        Returns the acceptance ticket, or None when the design has no
        ccwb support or the line is clean (a no-op, per the paper).
        The flushed entry's ready bit is always set — it is not paired.
        """
        self.events.emit((CCWB, address, request_ns))
        if self.engine is None or not self.policy.ccwb_enabled:
            return None
        flushed = self.engine.counter_cache.writeback_line(address)
        if flushed is None:
            return None
        self.events.emit((CCWB_FLUSH, address, request_ns))
        ticket = self.atomicity.writeback_counter_line(flushed, request_ns)
        self.integrity.on_ccwb(request_ns)
        return ticket

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def peek_line(self, line_address: int) -> bytes:
        """Functional peek at one line's current plaintext (no timing).

        Used by debug/checker paths (``CacheHierarchy.read_current``):
        reads the stored line image and decrypts it with its ground-truth
        counter when the design encrypts.
        """
        stored = self.device.read_line(line_address)
        if self.engine is not None and self._functional:
            return self.engine.cipher.decrypt(
                line_address, stored.encrypted_with, stored.payload
            )
        return stored.payload

    @property
    def counter_cache_stats(self) -> Optional["CounterCacheStats"]:
        if self.engine is None:
            return None
        return self.engine.counter_cache.stats

    def write_traffic_bytes(self) -> int:
        return self.stats.bytes_written

    def read_traffic_bytes(self) -> int:
        return self.stats.bytes_read

    # ------------------------------------------------------------------
    # Checkpoint state
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """Full controller state for a simulation checkpoint.

        Covers every mutable structure the timing and functional paths
        touch, layer by layer; config-derived objects (address map,
        cipher, policy, the strategy objects themselves) are rebuilt
        from config on restore.  The event trace is not state — a
        restored run re-appends to its trace.
        """
        return {
            "device": self.device.get_state(),
            "banks": self.banks.get_state(),
            "bus": self.bus.get_state(),
            "counter_store": self.counter_store.get_state(),
            "engine": self.engine.get_state() if self.engine is not None else None,
            "next_entry_id": self.entry_ids.next_id,
            "atomicity": self.atomicity.get_state(),
            "integrity": self.integrity.get_state(),
            "last_drain": dict(self._last_drain),
            "read_slots": list(self._read_slots),
            "read_queue_peak": self.read_queue_peak,
            "total_read_queue_wait_ns": self.total_read_queue_wait_ns,
            "journal": self.journal.get_state(),
            "stats": dataclasses.asdict(self.stats),
        }

    def set_state(self, state: dict) -> None:
        self.events.flush()
        self.device.set_state(state["device"])
        self.banks.set_state(state["banks"])
        self.bus.set_state(state["bus"])
        self.counter_store.set_state(state["counter_store"])
        if self.engine is not None and state["engine"] is not None:
            self.engine.set_state(state["engine"])
        self.entry_ids.next_id = state["next_entry_id"]
        self.atomicity.set_state(state["atomicity"])
        self.integrity.set_state(state["integrity"])
        self._last_drain = dict(state["last_drain"])
        self._read_slots = list(state["read_slots"])
        self.read_queue_peak = state["read_queue_peak"]
        self.total_read_queue_wait_ns = state["total_read_queue_wait_ns"]
        self.journal.set_state(state["journal"])
        self.events.stats = ControllerStats(**state["stats"])
