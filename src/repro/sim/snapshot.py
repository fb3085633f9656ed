"""Crash-consistent simulation checkpoints.

The simulator studies crash consistency; its own campaigns must survive
crashes too.  This module persists a :class:`repro.sim.machine.Machine`
state capture (see ``Machine.get_state``) into generation-numbered
snapshot files using the same discipline the paper demands of NVM
software:

* **Atomicity** — a snapshot is published with
  :func:`repro.utils.durable.write_atomic`: a temporary sibling is
  fsynced and atomically renamed over the target, so a crash mid-write
  leaves the previous generation untouched and at worst an orphan
  ``*.tmp.*``.
* **Detection** — the whole file is one :func:`repro.utils.durable.frame`
  (a SHA-256 of the container), so a torn or bit-flipped snapshot is
  detected on load and quarantined (renamed to ``*.corrupt``) rather
  than trusted.
* **Versioning** — the header records the repository code hash
  (``repro.utils.versioning.code_version``); a snapshot written by
  different sources is invalidated instead of restored, because resumed
  timing would silently diverge from a fresh run.
* **Recovery** — :meth:`SnapshotStore.load_latest` falls back
  generation by generation past damaged or stale files before giving
  up, mirroring how the campaign engine falls back past corrupt result
  cache entries.

Resume is deterministic: a machine checkpointed at event N and restored
produces a bit-identical :class:`SimulationResult` to the uninterrupted
run (asserted by ``result_fingerprint`` in the test suite).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SnapshotCorruptError, SnapshotError, SnapshotVersionError
from ..utils.durable import frame, quarantine, unframe, write_atomic
from .machine import Machine, SimulationResult

#: File magic: identifies a repro checkpoint and its container revision.
MAGIC = b"REPROCKPT1\n"
#: Header format revision inside the container.
FORMAT_VERSION = 2
#: Pickle protocol 4 is available on every supported interpreter.
PICKLE_PROTOCOL = 4

_HEADER_LEN = struct.Struct(">I")


# ---------------------------------------------------------------------------
# Single-file read/write
# ---------------------------------------------------------------------------


def write_snapshot(
    path: str,
    state: dict,
    code: str = "",
    meta: Optional[Dict[str, object]] = None,
) -> str:
    """Atomically publish ``state`` as a snapshot file at ``path``.

    ``code`` is the code-version hash stamped into the header (empty
    disables version checking on load).  Returns ``path``.
    """
    body = pickle.dumps(state, protocol=PICKLE_PROTOCOL)
    header = {
        "format": FORMAT_VERSION,
        "code": code,
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    write_atomic(
        path,
        frame(MAGIC + _HEADER_LEN.pack(len(header_bytes)) + header_bytes + body),
    )
    return path


def read_snapshot(
    path: str, expected_code: Optional[str] = None
) -> Tuple[dict, Dict[str, object]]:
    """Load and validate one snapshot file; returns ``(state, header)``.

    Raises :class:`SnapshotCorruptError` for torn/garbled/checksum-
    failing files and :class:`SnapshotVersionError` when the container
    format or the recorded code hash does not match ``expected_code``.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise SnapshotError("cannot read snapshot %s: %s" % (path, exc)) from exc
    if blob.startswith(MAGIC):
        # Written before snapshots were framed: stale, not damaged.
        raise SnapshotVersionError("%s: unframed format-1 snapshot" % path)
    try:
        blob = unframe(blob)
    except ValueError as exc:
        raise SnapshotCorruptError("%s: %s" % (path, exc)) from exc
    if not blob.startswith(MAGIC):
        raise SnapshotCorruptError("%s: bad magic (not a snapshot?)" % path)
    offset = len(MAGIC)
    try:
        (header_len,) = _HEADER_LEN.unpack_from(blob, offset)
        offset += _HEADER_LEN.size
        header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    except (struct.error, ValueError) as exc:
        raise SnapshotCorruptError("%s: unparseable header" % path) from exc
    offset += header_len
    if header.get("format") != FORMAT_VERSION:
        raise SnapshotVersionError(
            "%s: format %r, this build reads %d"
            % (path, header.get("format"), FORMAT_VERSION)
        )
    body = blob[offset:]
    if expected_code and header.get("code") != expected_code:
        raise SnapshotVersionError(
            "%s: written by code %s, current code is %s"
            % (path, header.get("code"), expected_code)
        )
    try:
        state = pickle.loads(body)
    except Exception as exc:  # pickle raises a zoo of types on garbage
        raise SnapshotCorruptError("%s: body does not unpickle" % path) from exc
    if not isinstance(state, dict):
        raise SnapshotCorruptError("%s: body is not a state mapping" % path)
    return state, header


# ---------------------------------------------------------------------------
# Generational store
# ---------------------------------------------------------------------------

_SNAPSHOT_PATTERN = "snapshot-%08d.ckpt"
_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".ckpt"


class SnapshotStore:
    """Generation-numbered snapshots in one directory, newest wins.

    Damaged generations are quarantined (``*.corrupt``), stale-code
    generations deleted; ``load_latest`` walks backwards until a valid
    snapshot is found.  ``keep`` bounds how many generations are kept
    on disk (the quarantine files are never pruned — they are evidence).
    """

    def __init__(self, directory: str, code: str = "", keep: int = 3) -> None:
        if keep < 1:
            raise SnapshotError("a snapshot store must keep at least one generation")
        self.directory = directory
        self.code = code
        self.keep = keep
        self.saved = 0
        self.quarantined = 0
        self.invalidated = 0
        os.makedirs(directory, exist_ok=True)

    # -- naming ------------------------------------------------------------

    def _path(self, generation: int) -> str:
        return os.path.join(self.directory, _SNAPSHOT_PATTERN % generation)

    def generations(self) -> List[int]:
        """Sorted generation numbers currently on disk."""
        found = []
        for name in os.listdir(self.directory):
            if not (name.startswith(_SNAPSHOT_PREFIX) and name.endswith(_SNAPSHOT_SUFFIX)):
                continue
            stem = name[len(_SNAPSHOT_PREFIX) : -len(_SNAPSHOT_SUFFIX)]
            try:
                found.append(int(stem))
            except ValueError:
                continue
        return sorted(found)

    # -- save / load --------------------------------------------------------

    def save(self, state: dict, meta: Optional[Dict[str, object]] = None) -> str:
        """Write the next generation and prune old ones."""
        existing = self.generations()
        generation = (existing[-1] + 1) if existing else 0
        path = write_snapshot(self._path(generation), state, code=self.code, meta=meta)
        self.saved += 1
        self._prune()
        return path

    def _prune(self) -> None:
        generations = self.generations()
        for stale in generations[: -self.keep]:
            try:
                os.unlink(self._path(stale))
            except OSError:
                pass

    def _invalidate(self, generation: int) -> None:
        try:
            os.unlink(self._path(generation))
        except OSError:
            pass
        self.invalidated += 1

    def load_latest(self) -> Optional[Tuple[dict, Dict[str, object]]]:
        """Newest restorable snapshot, falling back past damaged ones.

        Returns ``(state, header)`` or None when no generation (or no
        undamaged, same-code generation) exists.
        """
        for generation in reversed(self.generations()):
            path = self._path(generation)
            try:
                return read_snapshot(path, expected_code=self.code or None)
            except SnapshotCorruptError:
                quarantine(path, path + ".corrupt")
                self.quarantined += 1
            except SnapshotVersionError:
                self._invalidate(generation)
        return None

    def stats(self) -> Dict[str, int]:
        return {
            "saved": self.saved,
            "quarantined": self.quarantined,
            "invalidated": self.invalidated,
        }


# ---------------------------------------------------------------------------
# Checkpointed execution
# ---------------------------------------------------------------------------


@dataclass
class CheckpointPolicy:
    """When to checkpoint: every N events and/or every S wall seconds."""

    every_events: Optional[int] = None
    every_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.every_events is not None and self.every_events < 1:
            raise SnapshotError("checkpoint cadence must be at least one event")
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise SnapshotError("checkpoint wall-clock cadence must be positive")

    @property
    def enabled(self) -> bool:
        return self.every_events is not None or self.every_seconds is not None


def run_with_checkpoints(
    machine: Machine,
    traces: Sequence,
    store: Optional[SnapshotStore] = None,
    policy: Optional[CheckpointPolicy] = None,
    resume: bool = True,
) -> Tuple[SimulationResult, Dict[str, int]]:
    """Run ``machine`` over ``traces`` with periodic durable checkpoints.

    With ``resume`` and an existing valid snapshot in ``store``, the
    machine restores and continues from the checkpointed event instead
    of starting over — the produced :class:`SimulationResult` is
    bit-identical either way.

    Returns ``(result, stats)`` with ``stats`` covering saves,
    restores, quarantines and invalidations.
    """
    policy = policy or CheckpointPolicy()
    restored_events = 0
    restored = 0
    if store is not None and resume:
        loaded = store.load_latest()
        if loaded is not None:
            state, _header = loaded
            machine.set_state(state)
            restored = 1
            restored_events = machine.events_executed
    if not restored:
        machine.begin(traces)

    next_event_mark = (
        machine.events_executed + policy.every_events
        if policy.every_events is not None
        else None
    )
    last_save_wall = time.monotonic()
    more = True
    while more:
        # Crash-free fast-forward: nothing observes individual events,
        # so drain them in chunks through the machine's inlined loop.
        # A chunk lands on exactly the same event boundary as that many
        # step() calls, so checkpoints (and the result) stay
        # bit-identical to a per-event run.
        if store is None or not policy.enabled:
            machine.fast_forward()
            more = False
        elif next_event_mark is not None:
            more = machine.run_events(
                max(1, next_event_mark - machine.events_executed)
            )
        else:
            # Wall-clock-only policy: bounded chunks keep the
            # every_seconds check responsive.
            more = machine.run_events(1024)
        if store is None or not policy.enabled or not more:
            continue
        due = False
        if next_event_mark is not None and machine.events_executed >= next_event_mark:
            due = True
        if (
            not due
            and policy.every_seconds is not None
            and time.monotonic() - last_save_wall >= policy.every_seconds
        ):
            due = True
        if due:
            store.save(machine.get_state(), meta={"events": machine.events_executed})
            last_save_wall = time.monotonic()
            if next_event_mark is not None:
                next_event_mark = machine.events_executed + policy.every_events

    result = machine.finish()
    stats = {"restored": restored, "restored_events": restored_events}
    if store is not None:
        stats.update(store.stats())
    return result, stats


# ---------------------------------------------------------------------------
# Bit-identity fingerprint
# ---------------------------------------------------------------------------


def result_fingerprint(result: SimulationResult) -> str:
    """Canonical digest of everything a simulation result exposes.

    Two runs with equal fingerprints agree on timing (exact float
    values, not approximations), traffic, per-core accounting, the
    persist journal's final image and the transaction commit times —
    the definition of "bit-identical" used by the resume guarantees.
    """
    journal = result.controller.journal
    data_lines, counter_lines = journal.final_image()
    canonical = (
        result.stats.design,
        result.stats.num_cores,
        result.stats.runtime_ns,
        result.stats.bytes_written,
        result.stats.bytes_read,
        result.stats.transactions,
        result.stats.counter_cache_miss_rate,
        result.stats.data_wq_peak,
        result.stats.counter_wq_peak,
        result.stats.coalesced_data_writes,
        result.stats.coalesced_counter_writes,
        result.stats.paired_writes,
        result.stats.mean_read_latency_ns,
        tuple(tuple(sorted(core.as_dict().items())) for core in result.stats.per_core),
        tuple(tuple(times) for times in result.txn_end_times),
        len(journal),
        tuple(sorted(data_lines.items())),
        tuple(sorted(counter_lines.items())),
    )
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()
