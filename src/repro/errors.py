"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch a single base class.  Sub-hierarchies separate
configuration mistakes (caller bugs) from simulated-hardware conditions
(expected outcomes of an experiment, e.g. a decryption failure after an
injected crash).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration value is invalid or inconsistent."""


class AddressError(ReproError):
    """An address is out of range or violates an alignment requirement."""


class AlignmentError(AddressError):
    """An address is not aligned to the required granularity."""


class SimulationError(ReproError):
    """The simulation engine reached an invalid internal state."""


class DeadlockError(SimulationError):
    """The event queue drained while cores still had pending operations."""


class TraceError(ReproError):
    """A trace record is malformed or out of protocol order."""


class CryptoError(ReproError):
    """Base class for encryption-engine errors."""


class DecryptionFailure(CryptoError):
    """Decryption produced data that fails integrity verification.

    In a real system a stale counter silently yields garbage plaintext
    (paper Eq. 4).  The simulator attaches an integrity tag to each line
    so experiments can *detect* the garbage and report the failure.
    """

    def __init__(self, address: int, message: str = "") -> None:
        self.address = address
        text = message or (
            "decryption failure at address 0x%x: data and counter in NVM "
            "are out of sync (counter-atomicity violated)" % address
        )
        super().__init__(text)


class CounterOverflowError(CryptoError):
    """A per-line write counter exceeded its representable range."""


class PersistencyError(ReproError):
    """A persistency-protocol violation (e.g. sfence with no epoch)."""


class QueueFullError(SimulationError):
    """An internal queue rejected an entry it should have buffered.

    Write queues apply backpressure instead of raising; this error marks
    protocol bugs where backpressure was bypassed.
    """


class RecoveryError(ReproError):
    """Post-crash recovery could not restore a consistent state."""


class NestedCrash(ReproError):
    """A simulated power failure *during* recovery.

    Raised by an armed recovery-phase fault plan when recovery reaches
    the scheduled step.  Not an error in the library — the expected
    experimental outcome of a nested-crash campaign: whatever recovery
    persisted before this point is the durable state the *next*
    recovery attempt starts from.
    """

    def __init__(self, phase: str, step: int, kind: str = "crash") -> None:
        self.phase = phase
        self.step = step
        self.kind = kind
        super().__init__(
            "nested crash (%s) after recovery step %d of phase %r"
            % (kind, step, phase)
        )


class TransactionError(ReproError):
    """Misuse of the transactional API (nesting, double-commit, ...)."""


class HeapError(ReproError):
    """Persistent-heap allocation failure or invalid free."""


class WorkloadError(ReproError):
    """A workload was misconfigured or failed an internal self-check."""


class ServiceError(ReproError):
    """The KV service was misconfigured or an operation cannot proceed.

    Raised for caller mistakes (unknown tenants, bad traffic specs) and
    for capacity exhaustion (a tenant arena too full to split) — never
    for simulated crash damage, which recovery and validation handle.
    """


class FaultInjectionError(ReproError):
    """A fault model is misconfigured or cannot apply to a crash image.

    Raised for caller mistakes (unknown model names, out-of-range
    parameters) — never for the *simulated* corruption itself, which is
    an expected experimental outcome, not an error.
    """


class CampaignError(ReproError):
    """A crash campaign could not be planned, executed, or resumed."""


class CampaignJournalError(CampaignError):
    """The on-disk campaign journal is unreadable or inconsistent."""


class JobExecutionError(CampaignError):
    """A sweep/campaign job failed permanently after bounded retries.

    Raised by the hardened executor when a job keeps timing out or its
    worker keeps dying; transient failures below the retry bound are
    absorbed and only counted in the executor's stats.
    """


class SnapshotError(ReproError):
    """A simulation snapshot could not be written, read, or applied."""


class SnapshotCorruptError(SnapshotError):
    """A snapshot file is torn or fails its checksum.

    Raised by the reader when the frame checksum, magic or header do not
    hold together — the restore path quarantines the file and falls
    back to the previous generation.
    """


class SnapshotVersionError(SnapshotError):
    """A snapshot was written by different code or an older format.

    Restoring across a simulator change would mix semantics, so such
    snapshots are invalidated (deleted), never restored.
    """
