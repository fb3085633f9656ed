"""The crash-triage vocabulary: one verdict, one prefix rule, one taxonomy.

Every post-crash state is sorted three ways: recovery reached a
consistent state, or the damage is *detected* (a detection channel
fired: a line decrypted with a stale counter, a corrupt log record),
or the state is *silent* — recovery accepted memory the oracle proves
wrong.  This module is the only place that vocabulary is declared:

* :class:`Verdict` — what a validator concluded about one recovered
  memory (per tenant too, for the KV service);
* the prefix rule — a recovered state is consistent when it equals
  some prefix of the committed transactions that includes every
  transaction acknowledged before the crash (:func:`prefix_states`,
  :func:`required_prefix`, :func:`largest_matching_prefix`,
  :func:`covers`);
* :class:`Status` — where the recovery ladder
  (:class:`~repro.crash.session.RecoverySession`) ended;
* :class:`Outcome` — the campaign triage label of one crash cell:

  * ``recovered``           — recovery produced a consistent state;
  * ``recovered-by-search`` — plain recovery detected a bad state, but
    the Osiris-style counter search (``--with-counter-recovery``)
    repaired it to a provably consistent one;
  * ``detected``            — the state was bad and recovery *said so*
    (decryption failure, corrupt-record check, checksum mismatch);
  * ``detected-by-tree``    — recovery accepted a state the oracle
    proves wrong, but the integrity tree's post-crash walk (root
    register + ECC-lane tag sweep; ``+bmt`` designs) flagged it —
    would-be silent corruption converted into a detection;
  * ``silent-corruption``   — recovery accepted a state the oracle
    proves wrong: the bucket that breaks real systems;
  * ``recovery-crashed``    — the recovery procedure itself raised an
    unexpected exception on the corrupted image.

  The ``--nested-crash`` axis adds two more: an injected second power
  failure *during* recovery after which the resumed recovery still
  converged (``recovered-after-nested-crash``) or at least stayed loud
  (``detected-after-nested-crash``).

Documents and rendered reports carry the ``.value`` strings, never the
enum members.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..config import CACHE_LINE_SIZE
from ..errors import DecryptionFailure, TransactionError

_ZERO_LINE = bytes(CACHE_LINE_SIZE)


@dataclass
class Verdict:
    """Structured outcome of one post-crash validation.

    Separates what a real system could *observe* from what only the
    simulator's oracle knows: ``detected`` problems were reported
    through a detection channel, while ``silent`` problems are states
    recovery accepted without complaint that nonetheless fail the
    prefix oracle.  A multi-tenant validator fills ``tenants`` (indexed
    by tenant id) and aggregates their problems at the top level.
    """

    consistent: bool = False
    detected: List[str] = field(default_factory=list)
    silent: List[str] = field(default_factory=list)
    #: Largest history prefix the recovered state matches (None = none).
    matched_prefix: Optional[int] = None
    #: Smallest prefix commit durability requires at this crash time.
    required_prefix: int = 0
    tenants: List["Verdict"] = field(default_factory=list)

    @property
    def problems(self) -> List[str]:
        return self.detected + self.silent


# -- the prefix rule ---------------------------------------------------------


def prefix_states(
    initial: Mapping[int, bytes], history: Iterable
) -> List[Dict[int, bytes]]:
    """Line images after each prefix ``txns[0..j]`` of ``history``.

    Entry ``j`` is the state with the first ``j`` transactions applied
    to ``initial``; each transaction carries ``writes`` as
    ``(line, old, new)`` triples.
    """
    current = dict(initial)
    states = [dict(current)]
    for txn in history:
        for line, _old, new in txn.writes:
            current[line] = new
        states.append(dict(current))
    return states


def required_prefix(end_times: Optional[Sequence[float]], crash_ns: float) -> int:
    """How many transactions were acknowledged (ended) by ``crash_ns``.

    ``end_times`` are the transactions' commit-completion times in
    history order; None means no durability is required.
    """
    if end_times is None:
        return 0
    required = 0
    for index, end_ns in enumerate(end_times):
        if end_ns <= crash_ns:
            required = index + 1
    return required


def largest_matching_prefix(
    values: Mapping[int, bytes],
    lines: Sequence[int],
    states: Sequence[Mapping[int, bytes]],
) -> Optional[int]:
    """The largest ``j`` whose prefix state equals ``values`` on ``lines``."""
    for j in range(len(states) - 1, -1, -1):
        state = states[j]
        if all(values[line] == state.get(line, _ZERO_LINE) for line in lines):
            return j
    return None


def covers(matched: Optional[int], required: int) -> bool:
    """The durability rule: the matched prefix includes every acked commit."""
    return matched is not None and matched >= required


def replay(
    recover: Callable, recovered, arenas: Iterable, context
) -> Optional[str]:
    """Run a mechanism's recovery over each arena.

    Returns the detected problem when a detection channel fired
    (:class:`DecryptionFailure`, :class:`TransactionError`), else None.
    Every other exception — including a
    :class:`~repro.errors.NestedCrash` from an armed ``context`` —
    propagates: a recovery procedure that crashes is a finding, not a
    verdict.
    """
    try:
        for arena in arenas:
            recover(recovered, arena, context=context)
    except DecryptionFailure as failure:
        return "recovery hit undecryptable line: %s" % failure
    except TransactionError as failure:
        return "recovery failed: %s" % failure
    return None


# -- the recovery ladder and the campaign taxonomy ---------------------------


class Status(str, enum.Enum):
    """Where one recovery session's escalation ladder ended."""

    CONSISTENT = "consistent"
    DETECTED = "detected"
    #: Recovery accepted the state; the integrity tree flagged it.
    DETECTED_TREE = "detected-tree"
    SILENT = "silent"
    CRASHED = "crashed"


class Outcome(enum.Enum):
    """The campaign triage taxonomy (see the module docstring)."""

    RECOVERED = "recovered"
    RECOVERED_SEARCH = "recovered-by-search"
    #: An injected mid-recovery power failure, after which the resumed
    #: recovery still reached a provably consistent state.
    RECOVERED_NESTED = "recovered-after-nested-crash"
    DETECTED = "detected"
    DETECTED_TREE = "detected-by-tree"
    #: A nested crash after which the state stayed bad but every
    #: detection channel still fired — never silent.
    DETECTED_NESTED = "detected-after-nested-crash"
    SILENT = "silent-corruption"
    CRASHED = "recovery-crashed"

    @classmethod
    def of(cls, status: Status, via_search: bool, nested: bool) -> "Outcome":
        """The label of one session that ended at ``status``.

        When nested crashes fired, the nested buckets take over: they
        are the sweep's observable — did the *resumed* recovery still
        converge or at least stay loud?  Silent and crashed keep their
        identity regardless: a nested crash never excuses either.
        """
        status = Status(status)
        if status is Status.CONSISTENT:
            if nested:
                return cls.RECOVERED_NESTED
            return cls.RECOVERED_SEARCH if via_search else cls.RECOVERED
        if status in (Status.DETECTED, Status.DETECTED_TREE):
            if nested:
                return cls.DETECTED_NESTED
            if status is Status.DETECTED_TREE:
                return cls.DETECTED_TREE
            return cls.DETECTED
        if status is Status.SILENT:
            return cls.SILENT
        return cls.CRASHED

    @property
    def clean(self) -> bool:
        """A success: the state was recovered, by whatever rung."""
        return self in (Outcome.RECOVERED, Outcome.RECOVERED_SEARCH, Outcome.RECOVERED_NESTED)
