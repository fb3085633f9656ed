"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of each simulator layer from outside
the program: a wrapper opens a span, calls the original, and charges
the span's duration minus the time of the wrapped spans it covers (its
self time) to the function's bucket.  Counts are taken at the same
boundaries, and the simulator's own statistics are folded in from each
finished machine.

Several callers import functions by name (``from ..sim.snapshot import
run_with_checkpoints``), so a module-level function is replaced in its
defining module and in every loaded module that holds it under the
same name.  A binding the patch misses shows up as a wrapper that never
fired; :meth:`Tracer.coverage_failures` turns that into an error
instead of a silent 0 s.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ALL = frozenset(("fig12-1c", "fig13-mc", "crash-campaign", "kv-serve"))
SWEEPS = frozenset(("fig12-1c", "fig13-mc"))
FUNCTIONAL = frozenset(("fig13-mc", "crash-campaign", "kv-serve"))
CRASHING = frozenset(("crash-campaign", "kv-serve"))
CAMPAIGN = frozenset(("crash-campaign",))
SERVICE = frozenset(("kv-serve",))
MULTICORE = frozenset(("fig13-mc",))
NOT_CAMPAIGN = ALL - CAMPAIGN
NOT_SERVICE = ALL - SERVICE


# (bucket, module, owner class or None, attribute, workloads that must fire it)
#
# ``bucket`` is the layer the span's self time is charged to; the
# workload sets encode which workloads exercise each function and are
# what the coverage guard checks.
TARGETS: Tuple[Tuple[str, str, Optional[str], str, frozenset], ...] = (
    ("sim", "repro.sim.machine", "Machine", "run", NOT_CAMPAIGN),
    ("sim", "repro.sim.machine", "Machine", "finish", ALL),
    ("sim", "repro.sim.snapshot", None, "run_with_checkpoints", CAMPAIGN),
    ("trace", "repro.bench.harness", None, "build_traces", NOT_SERVICE),
    ("trace", "repro.workloads.base", "Workload", "generate", NOT_SERVICE),
    ("hierarchy", "repro.mem.hierarchy", "CacheHierarchy", "load", MULTICORE),
    ("hierarchy", "repro.mem.hierarchy", "CacheHierarchy", "store", MULTICORE),
    ("hierarchy", "repro.mem.hierarchy", "CacheHierarchy", "clwb", ALL),
    ("hierarchy", "repro.mem.hierarchy", "CacheHierarchy", "load_complete", ALL),
    ("hierarchy", "repro.mem.hierarchy", "CacheHierarchy", "store_complete", ALL),
    ("controller", "repro.mem.controller", "MemoryController", "read_line", ALL),
    ("controller", "repro.mem.controller", "MemoryController", "write_line", ALL),
    ("controller", "repro.mem.controller", "MemoryController", "drain_write", FUNCTIONAL),
    ("controller", "repro.mem.controller", "MemoryController", "counter_cache_writeback", ALL),
    ("controller", "repro.mem.sharded", "ShardedMemorySystem", "read_line", MULTICORE),
    ("controller", "repro.mem.sharded", "ShardedMemorySystem", "write_line", MULTICORE),
    ("controller", "repro.mem.sharded", "ShardedMemorySystem", "counter_cache_writeback", MULTICORE),
    ("crypto", "repro.crypto.otp", "OTPCipher", "pad", FUNCTIONAL),
    ("crypto", "repro.crypto.otp", "OTPCipher", "pads_many", frozenset()),
    ("crypto", "repro.crypto.otp", "OTPCipher", "encrypt", FUNCTIONAL),
    ("crypto", "repro.crypto.otp", "OTPCipher", "encrypt_lines", frozenset()),
    ("crypto", "repro.crypto.otp", "OTPCipher", "decrypt", FUNCTIONAL),
    ("crypto", "repro.crypto.integrity", "IntegrityEngine", "tag", CRASHING),
    ("crypto", "repro.crypto.integrity", "IntegrityEngine", "verify", CAMPAIGN),
    ("crypto", "repro.crypto.counter_cache", "CounterCache", "lookup_for_read", ALL),
    ("crypto", "repro.crypto.counter_cache", "CounterCache", "lookup_for_write", frozenset()),
    ("crypto", "repro.crypto.counter_cache", "CounterCache", "fill", ALL),
    ("crypto", "repro.crypto.counter_cache", "CounterCache", "update", frozenset()),
    ("crypto", "repro.crypto.counter_cache", "CounterCache", "lookup_for_read_many", frozenset()),
    ("crypto", "repro.crypto.counter_cache", "CounterCache", "fill_many", frozenset()),
    ("crypto", "repro.crypto.counter_cache", "CounterCache", "writeback_line", ALL),
    ("journal", "repro.persist.journal", "PersistJournal", "record_data", FUNCTIONAL),
    ("journal", "repro.persist.journal", "PersistJournal", "record_counter", FUNCTIONAL),
    ("journal", "repro.persist.journal", "PersistJournal", "record_commit", MULTICORE),
    ("journal", "repro.persist.journal", "PersistJournal", "reconstruct", CRASHING),
    ("journal", "repro.persist.journal", "PersistJournal", "final_image", frozenset()),
    ("tree", "repro.integrity.tree", "IntegrityTreeEngine", "update_group", CRASHING),
    ("tree", "repro.integrity.tree", "IntegrityTreeEngine", "verify_leaf", CRASHING),
    ("tree", "repro.integrity.tree", "IntegrityTreeEngine", "root_over", CRASHING),
    ("tree", "repro.integrity.tree", "IntegrityTreeEngine", "rebuild", frozenset()),
    ("tree", "repro.integrity.verifier", None, "verify_image", CAMPAIGN),
    ("tree", "repro.integrity.verifier", None, "repair_image", CAMPAIGN),
    ("crash.inject", "repro.crash.injector", "CrashInjector", "crash_at", CRASHING),
    ("crash.inject", "repro.crash.injector", "CrashInjector", "crash_with_faults", CAMPAIGN),
    ("crash.recover", "repro.crash.session", "RecoverySession", "run", CRASHING),
    ("crash.search", "repro.crash.counter_recovery", "CounterRecoverer", "recover_image", CAMPAIGN),
    ("crash.validate", "repro.workloads.base", "PrefixValidator", "classify", CAMPAIGN),
    ("crash.validate", "repro.service.kv", "ServiceValidator", "classify", SERVICE),
    ("service.traffic", "repro.service.traffic", None, "generate_operations", SERVICE),
    ("service.kv", "repro.service.kv", "ServiceWorkload", "execute", SERVICE),
    ("service.kv", "repro.service.kv", "ServiceWorkload", "build_run", SERVICE),
    ("service.slo", "repro.service.slo", None, "attribute_latencies", SERVICE),
    ("service.slo", "repro.service.slo", None, "summarize_tenants", SERVICE),
    ("executor", "repro.bench.parallel", "SweepExecutor", "map", ALL),
    ("executor", "repro.bench.parallel", "SweepExecutor", "map_stats", SWEEPS),
    # Job bodies: their self time is glue outside every layer; the spans
    # exist so the executor's self time excludes the jobs it runs.
    ("job", "repro.bench.parallel", None, "execute_job", SWEEPS),
    ("job", "repro.crash.campaign", None, "run_campaign_job", CAMPAIGN),
    ("job", "repro.service.scenario", None, "run_service_job", SERVICE),
)

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.host_ns_per_event": "ns/event",
    "trace.self_s": "s",
    "trace.ops": "count",
    "hierarchy.self_s": "s",
    "hierarchy.calls": "count",
    "l1.miss_rate": "ratio",
    "l2.miss_rate": "ratio",
    "controller.self_s": "s",
    "controller.reads": "count",
    "controller.writes": "count",
    "controller.paired_writes": "count",
    "wq.coalesced": "count",
    "wq.accept_wait_ns": "ns",
    "crypto.self_s": "s",
    "crypto.pads": "count",
    "otp.pad_cache_hit_rate": "ratio",
    "counter_cache.miss_rate": "ratio",
    "journal.self_s": "s",
    "journal.records": "count",
    "journal.reconstructs": "count",
    "tree.self_s": "s",
    "tree.root_updates": "count",
    "tree.verifications": "count",
    "crash.inject_s": "s",
    "crash.recover_s": "s",
    "crash.search_s": "s",
    "crash.validate_s": "s",
    "crash.cells": "count",
    "crash.search_yield": "ratio",
    "service.traffic_s": "s",
    "service.kv_s": "s",
    "service.slo_s": "s",
    "service.ops": "count",
    "executor.overhead_s": "s",
    "other.self_s": "s",
    "traced.wall_s": "s",
    "tracing.overhead_s": "s",
}

_SELF_TIME_METRICS = {
    "sim.self_s": "sim",
    "trace.self_s": "trace",
    "hierarchy.self_s": "hierarchy",
    "controller.self_s": "controller",
    "crypto.self_s": "crypto",
    "journal.self_s": "journal",
    "tree.self_s": "tree",
    "crash.inject_s": "crash.inject",
    "crash.recover_s": "crash.recover",
    "crash.search_s": "crash.search",
    "crash.validate_s": "crash.validate",
    "service.traffic_s": "service.traffic",
    "service.kv_s": "service.kv",
    "service.slo_s": "service.slo",
    "executor.overhead_s": "executor",
}


def _label(owner: Optional[str], attr: str) -> str:
    return "%s.%s" % (owner, attr) if owner else attr


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Span stack, per-bucket self time, call counts and layer counts."""

    def __init__(self) -> None:
        #: One accumulator of covered child time per open span.
        self._stack: List[List[float]] = []
        self.self_s: Counter = Counter()
        self.inclusive_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._expected: Dict[str, frozenset] = {}
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; call after the workload's modules are loaded."""
        for bucket, module_name, owner_name, attr, workloads in TARGETS:
            module = importlib.import_module(module_name)
            label = _label(owner_name, attr)
            self._expected[label] = workloads
            if owner_name is None:
                original = getattr(module, attr)
                wrapper = self._wrap(bucket, label, original)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__dict__", {}).get(attr) is original:
                        self._patch(loaded, attr, wrapper)
            else:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(bucket, label, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _patch(self, holder: object, attr: str, value: object) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _wrap(self, bucket: str, label: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        calls = self.calls
        hook = _HOOKS.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = hook.before(self, args) if hook is not None else None
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[bucket] += elapsed - frame[0]
                inclusive_s[label] += elapsed
                calls[label] += 1
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook.after(self, args, result, before)
            return result

        return wrapper

    # -- reporting ---------------------------------------------------------

    def coverage_failures(self, workload: str) -> List[str]:
        """Wrapped functions the workload must exercise that never fired."""
        return sorted(
            label
            for label, workloads in self._expected.items()
            if workload in workloads and self.calls[label] == 0
        )

    def metrics(self, traced_wall_s: float) -> Dict[str, float]:
        """Every per-layer metric but ``tracing.overhead_s``, which needs
        the untraced run's wall time."""
        counts = self.counts
        calls = self.calls
        out: Dict[str, float] = {}
        for name, bucket in _SELF_TIME_METRICS.items():
            out[name] = float(self.self_s[bucket])
        sim_inclusive = self.inclusive_s["Machine.run"] + self.inclusive_s["run_with_checkpoints"]
        out["sim.events"] = counts["sim.events"]
        out["sim.host_ns_per_event"] = _ratio(sim_inclusive * 1e9, counts["sim.events"])
        out["trace.ops"] = counts["trace.ops"]
        out["hierarchy.calls"] = sum(
            calls[_label(owner, attr)]
            for bucket, _m, owner, attr, _w in TARGETS
            if bucket == "hierarchy"
        )
        out["l1.miss_rate"] = _ratio(counts["l1.misses"], counts["l1.accesses"])
        out["l2.miss_rate"] = _ratio(counts["l2.misses"], counts["l2.accesses"])
        for name in ("controller.reads", "controller.writes", "controller.paired_writes",
                     "wq.coalesced", "wq.accept_wait_ns", "tree.root_updates"):
            out[name] = counts[name]
        pads = counts["otp.hits"] + counts["otp.misses"]
        out["crypto.pads"] = pads
        out["otp.pad_cache_hit_rate"] = _ratio(counts["otp.hits"], pads)
        out["counter_cache.miss_rate"] = _ratio(counts["cc.misses"], counts["cc.accesses"])
        out["journal.records"] = sum(
            calls["PersistJournal.%s" % kind] for kind in ("record_data", "record_counter", "record_commit")
        )
        out["journal.reconstructs"] = calls["PersistJournal.reconstruct"]
        out["tree.verifications"] = counts["tree.sim_verifications"] + calls["verify_image"]
        out["crash.cells"] = calls["RecoverySession.run"]
        out["crash.search_yield"] = _ratio(counts["search.recovered"], counts["search.entered"])
        out["service.ops"] = counts["service.ops"]
        out["other.self_s"] = traced_wall_s - sum(
            seconds for bucket, seconds in self.self_s.items() if bucket != "job"
        )
        out["traced.wall_s"] = traced_wall_s
        return out


# -- count hooks -------------------------------------------------------------


class _Hook:
    def before(self, tracer: Tracer, args: Sequence[object]) -> object:
        return None

    def after(self, tracer: Tracer, args: Sequence[object], result: object, before: object) -> None:
        pass


class _MachineFinish(_Hook):
    """Fold one finished machine's simulated statistics into the counts."""

    def after(self, tracer, args, result, before):
        fold_machine(tracer.counts, args[0], result)


def fold_machine(counts: Counter, machine, result) -> None:
    """Add one finished machine's events, ops and layer statistics."""
    counts["sim.runs"] += 1
    counts["sim.events"] += machine.events_executed
    counts["sim.ops"] += sum(core.ops_executed for core in result.stats.per_core)
    # An L1 access counts one L1 hit even when it missed and filled; its
    # miss shows up as the L2 lookup that followed.  L2 writes are dirty
    # L1 victims merging, not lookups.
    hierarchy = result.hierarchy
    l2 = hierarchy.l2.stats
    l2_lookups = l2.read_hits + l2.read_misses
    counts["l1.accesses"] += sum(l1.stats.accesses for l1 in hierarchy.l1s)
    counts["l1.misses"] += l2_lookups
    counts["l2.accesses"] += l2_lookups
    counts["l2.misses"] += l2.read_misses
    controller = result.controller
    cstats = controller.stats
    counts["controller.reads"] += cstats.reads
    counts["controller.writes"] += cstats.data_writes
    counts["controller.paired_writes"] += cstats.paired_writes
    counts["wq.coalesced"] += cstats.coalesced_data_writes + cstats.coalesced_counter_writes
    counts["wq.accept_wait_ns"] += cstats.total_write_accept_wait_ns
    counts["tree.root_updates"] += cstats.root_updates
    counts["tree.sim_verifications"] += cstats.tree_verifications
    cc = controller.counter_cache_stats
    if cc is not None:
        counts["cc.accesses"] += cc.accesses
        counts["cc.misses"] += cc.read_misses + cc.write_misses


class _PadCache(_Hook):
    """Pad-cache hits and misses of one ``pad``/``pads_many`` call."""

    def before(self, tracer, args):
        cipher = args[0]
        return cipher.pad_hits, cipher.pad_misses

    def after(self, tracer, args, result, before):
        cipher = args[0]
        tracer.counts["otp.hits"] += cipher.pad_hits - before[0]
        tracer.counts["otp.misses"] += cipher.pad_misses - before[1]


class _BuildTraces(_Hook):
    def after(self, tracer, args, result, before):
        tracer.counts["trace.ops"] += sum(len(trace.ops) for trace in result[0])


class _Session(_Hook):
    """Which cells entered a counter search (Osiris or tree-guided) and
    which of those it recovered."""

    @staticmethod
    def _searches(tracer):
        return tracer.calls["CounterRecoverer.recover_image"] + tracer.calls["repair_image"]

    def before(self, tracer, args):
        return self._searches(tracer)

    def after(self, tracer, args, result, before):
        if self._searches(tracer) > before:
            tracer.counts["search.entered"] += 1
            if result.via_search:
                tracer.counts["search.recovered"] += 1


class _Operations(_Hook):
    def after(self, tracer, args, result, before):
        tracer.counts["service.ops"] += len(result)


_HOOKS: Dict[str, _Hook] = {
    "Machine.finish": _MachineFinish(),
    "OTPCipher.pad": _PadCache(),
    "OTPCipher.pads_many": _PadCache(),
    "build_traces": _BuildTraces(),
    "RecoverySession.run": _Session(),
    "generate_operations": _Operations(),
}


def install_machine_counter(counts: Counter) -> None:
    """The untraced run's only hook: fold each finished machine's counts.

    One call per simulated machine (tens per workload), so it adds no
    measurable time; it is what ``sim_ops_per_s`` is computed from.
    """
    from repro.sim.machine import Machine

    original = Machine.finish

    @functools.wraps(original)
    def finish(self):
        result = original(self)
        fold_machine(counts, self, result)
        return result

    Machine.finish = finish
