"""Checkpointed workload runs: the simulation half of campaign resume.

:func:`run_workload_resilient` runs one workload simulation under
periodic durable checkpoints (:mod:`repro.sim.snapshot`).  Traces are
regenerated deterministically from the workload description, so only
machine state needs to persist; a rerun after a crash restores the
newest valid snapshot and continues, producing a bit-identical result.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import SystemConfig, fast_config
from ..sim.machine import Machine
from ..sim.snapshot import CheckpointPolicy, SnapshotStore, run_with_checkpoints
from ..utils.versioning import code_version
from ..workloads.base import WorkloadParams
from .harness import WorkloadRunOutcome, build_traces

__all__ = ["run_workload_resilient"]


def run_workload_resilient(
    design: str,
    workload_name: str,
    config: Optional[SystemConfig] = None,
    mechanism: str = "undo",
    params: Optional[WorkloadParams] = None,
    checkpoint_dir: Optional[str] = None,
    every_events: Optional[int] = None,
    every_seconds: Optional[float] = None,
    code: Optional[str] = None,
    keep: int = 3,
) -> Tuple[WorkloadRunOutcome, Dict[str, int]]:
    """Like ``run_workload`` but checkpointed.

    With ``checkpoint_dir`` set, machine state is snapshotted there on
    the given cadence and a rerun resumes from the newest valid
    snapshot (falling back past torn generations, discarding snapshots
    written by different code).  Traces, workload runs and the memory
    layout are regenerated deterministically, so the resumed result is
    bit-identical to an uninterrupted run.

    Returns ``(outcome, stats)`` where ``stats`` reports saves,
    restores, quarantines and invalidations (all zero when
    checkpointing is off).
    """
    if config is None:
        config = fast_config()
    traces, runs, layout = build_traces(workload_name, config, mechanism, params)
    store = None
    if checkpoint_dir is not None:
        store = SnapshotStore(
            checkpoint_dir,
            code=code if code is not None else code_version(),
            keep=keep,
        )
    policy = CheckpointPolicy(every_events=every_events, every_seconds=every_seconds)
    machine = Machine(config, design)
    result, stats = run_with_checkpoints(machine, traces, store=store, policy=policy)
    outcome = WorkloadRunOutcome(
        design=design,
        workload=workload_name,
        result=result,
        runs=runs,
        layout=layout,
    )
    return outcome, stats
