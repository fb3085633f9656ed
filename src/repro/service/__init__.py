"""Multi-tenant KV service over the encrypted-NVMM simulator.

The service subsystem is the ROADMAP's "first-class service scenario":
a linearizable multi-tenant KV engine whose every operation is a
crash-consistent transaction (:mod:`repro.service.kv`), seeded
open/closed-loop traffic generation (:mod:`repro.service.traffic`),
request-level latency attribution with streamed percentiles
(:mod:`repro.service.slo`), and the end-to-end crash/recover/report
scenario runner behind ``repro-bench serve``
(:mod:`repro.service.scenario`).
"""

from .kv import (
    ServiceRun,
    ServiceValidator,
    ServiceWorkload,
    TenantKV,
    build_tenant_arenas,
)
from .scenario import ServiceJob, ServiceReport, ServiceRunner, run_service_job
from .slo import LatencyHistogram, RequestTiming, attribute_latencies, summarize_tenants
from .traffic import (
    LoadShape,
    Operation,
    TrafficSpec,
    generate_operations,
    stream_fingerprint,
)

__all__ = [
    "LatencyHistogram",
    "LoadShape",
    "Operation",
    "RequestTiming",
    "ServiceJob",
    "ServiceReport",
    "ServiceRun",
    "ServiceRunner",
    "ServiceValidator",
    "ServiceWorkload",
    "TenantKV",
    "TrafficSpec",
    "attribute_latencies",
    "build_tenant_arenas",
    "generate_operations",
    "run_service_job",
    "stream_fingerprint",
    "summarize_tenants",
]
