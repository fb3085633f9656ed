"""Crash injection, post-crash recovery and consistency checking.

The injector reconstructs the exact NVM image at any failure instant
from the persist journal (honouring ADR and ready bits); the recovery
module decrypts that image the way the memory controller would after a
reboot; the checker validates decryptability (Eq. 4) and hands the
recovered bytes to transaction-level recovery.
"""

from .injector import CrashImage, CrashInjector, nested_crash_image
from .recovery import GarbageRead, RecoveredMemory, RecoveryManager
from .checker import CrashConsistencyReport, sweep_crash_points
from .counter_recovery import CounterRecoverer, CounterRecoveryReport, collect_tags
from .verdict import Outcome, Status, Verdict
from .session import (
    RecoveryContext,
    RecoveryLedger,
    RecoverySession,
    SessionResult,
    error_digest,
)
from .campaign import (
    CampaignJob,
    CampaignReport,
    CampaignRunner,
    CampaignSpec,
    job_key,
    run_campaign_job,
)

__all__ = [
    "Outcome",
    "Status",
    "Verdict",
    "CrashImage",
    "CrashInjector",
    "nested_crash_image",
    "GarbageRead",
    "RecoveredMemory",
    "RecoveryManager",
    "CrashConsistencyReport",
    "sweep_crash_points",
    "CounterRecoverer",
    "CounterRecoveryReport",
    "collect_tags",
    "RecoveryContext",
    "RecoveryLedger",
    "RecoverySession",
    "SessionResult",
    "error_digest",
    "CampaignJob",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSpec",
    "job_key",
    "run_campaign_job",
]
