"""The controller's event record stream and the one fold over it.

The decomposed controller (see :mod:`repro.mem.controller`) does not
increment statistics inline.  Every observable action on the
write/read path — a read completing, a data line persisting, a
counter-atomic pair committing, a tree node draining — is appended to
:attr:`EventStream.records` as one plain tuple ``(code, *fields)``, and
:class:`ControllerStats` is *derived* from those records by
:func:`fold`.  When ``config.controller.event_trace_path`` is set, the
stream also writes each record as a JSON line, giving campaigns and
perf debugging an observability hook without touching the simulation
paths.

Stream contract (also documented in ``docs/architecture.md``):

* :data:`SCHEMA` maps each record code to its kind name and field
  names; it is the only place either is declared.  Every emit site
  appends the full field tuple in that order.
* Records are folded (and traced) in emission order; timestamps are
  absolute simulated nanoseconds (the controller's timing contract).
* Float-valued statistics (read latency, accept waits) are accumulated
  in emission order, which the controller keeps identical to the
  pre-decomposition increment order so long-run sums stay bit-identical.
* Records are buffered and folded :data:`_FLUSH_EVERY` at a time; the
  controller flushes whenever derived stats are read (the ``stats``
  property, checkpoints), so the buffer is invisible to every observer.
  While tracing, the stream flushes after every record: each trace line
  is written and flushed to the file before the emitting call returns.
* The stream is *not* checkpointed: its stats are captured via
  ``ControllerStats`` in the controller snapshot, and a JSONL trace is
  diagnostic output that restored runs re-append to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple

from ..config import CACHE_LINE_SIZE

#: One emitted record: ``(code, *fields)``, fields in :data:`SCHEMA` order.
Record = Tuple[Any, ...]

# Record codes: the index of the record's entry in :data:`SCHEMA`.
READ = 0
COUNTER_FETCH = 1
WRITE_REQUEST = 2
DATA_PERSIST = 3
COUNTER_PERSIST = 4
PAIR = 5
CCWB = 6
CCWB_FLUSH = 7
CCWB_TREE_FLUSH = 8
TREE_NODE = 9
TREE_VERIFY = 10
TREE_FILL = 11
ROOT_UPDATE = 12
DRAIN = 13

#: ``code -> (kind, field names)``.  The trace writes a record as
#: ``{"kind": kind, **dict(zip(fields, record[1:]))}``.
SCHEMA: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    # One read_line completed (decryption overlap already applied).
    ("read", ("address", "request_ns", "complete_ns", "payload_bytes", "counter_cache_hit")),
    # A covering counter line was read from the NVM counter region.
    ("counter-fetch", ("address", "request_ns", "payload_bytes")),
    # One write_line entered the controller (before routing).
    ("write-request", ("address", "request_ns", "counter_atomic")),
    # A data-line write was accepted (or coalesced into a queued one).
    # accept_wait_ns is the stall charged to this write; paired writes
    # charge their wait on the pair record instead and carry 0.0 here.
    (
        "data-persist",
        ("address", "payload_bytes", "coalesced", "accept_ns", "drain_ns", "accept_wait_ns"),
    ),
    # A counter-line write reached the counter write queue (split
    # counter region only: co-located designs carry the counter in their
    # 72 B data access and the ideal design's counters make no traffic).
    (
        "counter-persist",
        ("address", "payload_bytes", "coalesced", "paired", "accept_ns", "drain_ns"),
    ),
    # A counter-atomic pair committed (paper Section 5.2.2); lag_forced
    # marks pairs escalated by the Osiris counter-lag bound.
    ("pair", ("address", "settled_ns", "accept_wait_ns", "lag_forced", "coalesced")),
    # counter_cache_writeback() was invoked (flushing or not).
    ("ccwb", ("address", "request_ns")),
    # A ccwb call found its covering counter line dirty and flushed it.
    ("ccwb-flush", ("address", "request_ns")),
    # A lazy-mode ccwb drained the coalesced dirty tree nodes.
    ("ccwb-tree-flush", ("request_ns", "nodes")),
    # One integrity-tree node digest was sent to (or merged in) NVM.
    ("tree-node", ("address", "coalesced", "drain_ns")),
    # A fetched counter line authenticated against the tree.
    ("tree-verify", ("group_base", "request_ns")),
    # An uncached tree node was read from NVM during verification.
    ("tree-fill", ("address", "payload_bytes")),
    # The on-chip secure root advanced over a persisted counter line.
    ("root-update", ("group_base", "effective_ns")),
    # One write-queue entry drained to its bank; trace-only (no stats),
    # so it is recorded only while tracing.
    ("drain", ("role", "address", "issue_ns", "complete_ns")),
)

#: Buffered records folded per flush when not tracing (amortizes the
#: Python-call and attribute-store cost over the batch).
_FLUSH_EVERY = 512


@dataclass
class ControllerStats:
    """Aggregate controller statistics for one simulation.

    Derived from the record stream by :func:`fold`; nothing in the
    simulation paths increments these fields directly.
    """

    reads: int = 0
    data_writes: int = 0
    counter_writes: int = 0
    paired_writes: int = 0
    coalesced_data_writes: int = 0
    coalesced_counter_writes: int = 0
    ccwb_calls: int = 0
    ccwb_lines_flushed: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    counter_fill_reads: int = 0
    total_read_latency_ns: float = 0.0
    total_write_accept_wait_ns: float = 0.0
    # Bonsai-tree designs only (all zero otherwise).
    tree_node_writes: int = 0
    coalesced_tree_writes: int = 0
    tree_verifications: int = 0
    tree_node_fills: int = 0
    root_updates: int = 0
    ccwb_tree_flushes: int = 0
    lag_forced_pairs: int = 0

    @property
    def mean_read_latency_ns(self) -> float:
        return self.total_read_latency_ns / self.reads if self.reads else 0.0


def fold(records: Iterable[Record], stats: ControllerStats) -> None:
    """Fold records into ``stats``: one fixed set of increments per kind.

    Increments are applied in record (= emission) order, so the float
    accumulators pick up their contributions in the same order as the
    pre-decomposition inline increments and stay bit-identical.  Each
    accumulator lives in a local for the duration of the batch and is
    written back once.  Drain records carry no statistics.
    """
    reads = stats.reads
    data_writes = stats.data_writes
    counter_writes = stats.counter_writes
    paired_writes = stats.paired_writes
    coalesced_data = stats.coalesced_data_writes
    coalesced_counter = stats.coalesced_counter_writes
    ccwb_calls = stats.ccwb_calls
    ccwb_lines = stats.ccwb_lines_flushed
    bytes_read = stats.bytes_read
    bytes_written = stats.bytes_written
    counter_fills = stats.counter_fill_reads
    read_latency = stats.total_read_latency_ns
    accept_wait = stats.total_write_accept_wait_ns
    tree_nodes = stats.tree_node_writes
    coalesced_tree = stats.coalesced_tree_writes
    tree_verifies = stats.tree_verifications
    tree_fills = stats.tree_node_fills
    root_updates = stats.root_updates
    tree_flushes = stats.ccwb_tree_flushes
    lag_forced = stats.lag_forced_pairs
    for record in records:
        code = record[0]
        if code == READ:
            reads += 1
            bytes_read += record[4]
            read_latency += record[3] - record[2]
        elif code == DATA_PERSIST:
            if record[3]:
                coalesced_data += 1
            else:
                bytes_written += record[2]
            accept_wait += record[6]
        elif code == WRITE_REQUEST:
            data_writes += 1
        elif code == COUNTER_PERSIST:
            if record[3]:
                coalesced_counter += 1
            else:
                counter_writes += 1
                bytes_written += record[2]
        elif code == PAIR:
            paired_writes += 1
            accept_wait += record[3]
            if record[4]:
                lag_forced += 1
        elif code == CCWB:
            ccwb_calls += 1
        elif code == CCWB_FLUSH:
            ccwb_lines += 1
        elif code == COUNTER_FETCH:
            counter_fills += 1
            bytes_read += record[3]
        elif code == TREE_NODE:
            if record[2]:
                coalesced_tree += 1
            else:
                tree_nodes += 1
                bytes_written += CACHE_LINE_SIZE
        elif code == TREE_VERIFY:
            tree_verifies += 1
        elif code == TREE_FILL:
            tree_fills += 1
            bytes_read += record[2]
        elif code == ROOT_UPDATE:
            root_updates += 1
        elif code == CCWB_TREE_FLUSH:
            tree_flushes += record[2]
    stats.reads = reads
    stats.data_writes = data_writes
    stats.counter_writes = counter_writes
    stats.paired_writes = paired_writes
    stats.coalesced_data_writes = coalesced_data
    stats.coalesced_counter_writes = coalesced_counter
    stats.ccwb_calls = ccwb_calls
    stats.ccwb_lines_flushed = ccwb_lines
    stats.bytes_read = bytes_read
    stats.bytes_written = bytes_written
    stats.counter_fill_reads = counter_fills
    stats.total_read_latency_ns = read_latency
    stats.total_write_accept_wait_ns = accept_wait
    stats.tree_node_writes = tree_nodes
    stats.coalesced_tree_writes = coalesced_tree
    stats.tree_verifications = tree_verifies
    stats.tree_node_fills = tree_fills
    stats.root_updates = root_updates
    stats.ccwb_tree_flushes = tree_flushes
    stats.lag_forced_pairs = lag_forced


class EventStream:
    """The controller's buffered record list, its stats and its trace.

    Hot emit sites append to :attr:`records` inline and call
    :meth:`flush` once ``len(records) >= flush_every``; cold sites call
    :meth:`emit`.  ``flush_every`` is 1 while tracing (every record is
    written and flushed to the trace as it is emitted) and
    :data:`_FLUSH_EVERY` otherwise.  The trace file opens lazily, in
    append mode, on the first flushed record.
    """

    __slots__ = ("records", "stats", "trace_path", "flush_every", "_trace")

    def __init__(self, trace_path: Optional[str] = None) -> None:
        self.records: List[Record] = []
        self.stats = ControllerStats()
        self.trace_path = trace_path
        self.flush_every = _FLUSH_EVERY if trace_path is None else 1
        self._trace: Optional[IO[str]] = None

    def emit(self, record: Record) -> None:
        records = self.records
        records.append(record)
        if len(records) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Fold the buffered records into :attr:`stats` and trace them."""
        records = self.records
        if not records:
            return
        self.records = []
        fold(records, self.stats)
        if self.trace_path is None:
            return
        if self._trace is None:
            self._trace = open(self.trace_path, "a", encoding="utf-8")
        stream = self._trace
        for record in records:
            kind, fields = SCHEMA[record[0]]
            line: Dict[str, Any] = {"kind": kind}
            line.update(zip(fields, record[1:]))
            stream.write(json.dumps(line, sort_keys=True))
            stream.write("\n")
        stream.flush()
