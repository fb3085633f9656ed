"""One-shot fault latches.

Every fault the harness injects — chaos faults into workqueue workers,
nested crashes into running recovery — must fire *exactly once* per
(scope, fault) pair, or a fault that re-fires on every retry would make
its own recovery path unterminating.  This module is the shared latch
discipline behind both delivery mechanisms:

* :class:`OneShotTrigger` — in-process latching for recovery-phase
  fault plans (:mod:`repro.faults.recovery`), where injector and victim
  share one interpreter.
* :func:`latch_once` — cross-process latching via an ``O_EXCL`` marker
  file, used by the workqueue chaos workers
  (:mod:`repro.bench.workqueue`), where racing claimants must
  agree on who fires the fault.
"""

from __future__ import annotations

import os
from typing import Hashable, Set


class OneShotTrigger:
    """In-process one-shot latch set: ``fire(key)`` is True once per key."""

    def __init__(self) -> None:
        self._fired: Set[Hashable] = set()

    def fire(self, key: Hashable) -> bool:
        """Latch ``key``; True only for the first call with this key."""
        if key in self._fired:
            return False
        self._fired.add(key)
        return True

    def fired(self, key: Hashable) -> bool:
        return key in self._fired

    @property
    def count(self) -> int:
        """How many distinct keys have fired."""
        return len(self._fired)


def latch_once(path: str) -> bool:
    """Cross-process one-shot latch: True only for the first caller ever.

    ``O_CREAT | O_EXCL`` makes the latch atomic across racing processes;
    the marker file at ``path`` is the durable record that the fault
    already fired.
    """
    try:
        handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(handle)
    return True
