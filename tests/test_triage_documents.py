"""Byte-pinned triage documents for the paths the benchmark digests miss.

The benchmark's digests cover single-shard campaigns without nested
crashes and crash-only ``serve`` runs.  This module pins two more
documents, captured in ``tests/fixtures/triage_documents.json``:

* a ``--shards 2`` campaign (array and btree x sca and sca+bmt, nested
  crashes, counter search), whose results carry the ladder outcomes,
  the triage examples and the ``shard_failures`` tallies;
* a ``serve`` run with a nested mid-recovery crash on sca and a nested
  crash plus a fault on sca+bmt.

Each is pinned as a sha256 of the canonical JSON (job ``key`` and
timing fields stripped, as in ``perfbench/specs.py``) plus the outcome
and tally dicts, so a failure shows which count moved.  A failure means
the triage of a crash changed; fix the change, do not recapture.

Recapture (only for a deliberate triage change)::

    PYTHONPATH=src:. python tests/test_triage_documents.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "triage_documents.json"
)

#: ``key`` hashes the code version; the rest are timing fields.
_STRIPPED = frozenset(
    ("key", "runtime_ns", "crash_ns", "latency", "throughput_ops_per_ms")
)

#: The service totals that count operations (the rest are timings).
_SERVICE_TALLIES = ("ops", "acked", "acked_lost", "unacked_recovered")


def _strip(value: object) -> object:
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in _STRIPPED}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _sha256(document: object) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def campaign_results() -> List[Dict[str, object]]:
    from repro.crash.campaign import CampaignRunner, CampaignSpec

    spec = CampaignSpec(
        workloads=("array", "btree"),
        designs=("sca", "sca+bmt"),
        mechanisms=("undo",),
        faults=("none", "bitflip-data", "dropped-adr"),
        crash_points=16,
        operations=8,
        seed=42,
        with_counter_recovery=True,
        nested_crash=True,
        nested_steps=1,
        shards=2,
    )
    report = CampaignRunner(spec).run()
    return [_strip(result) for result in report.results]


def service_results() -> List[Dict[str, object]]:
    from repro.service.scenario import ServiceJob, ServiceRunner
    from repro.service.traffic import TrafficSpec

    traffic = TrafficSpec(tenants=3, operations=120, seed=42)
    jobs = [
        ServiceJob("sca", traffic, nested_crash=True, with_counter_recovery=True),
        ServiceJob("sca+bmt", traffic, nested_crash=True, fault="bitflip-data"),
    ]
    report = ServiceRunner(jobs).run()
    return [_strip(result) for result in report.results]


def compute() -> Dict[str, object]:
    campaign = campaign_results()
    service = service_results()
    return {
        "campaign": {
            "sha256": _sha256(campaign),
            "outcomes": [result["outcomes"] for result in campaign],
            "shard_failures": [result["shard_failures"] for result in campaign],
        },
        "service": {
            "sha256": _sha256(service),
            "status": [result["status"] for result in service],
            "totals": [
                {k: result["totals"][k] for k in _SERVICE_TALLIES}
                for result in service
            ],
        },
    }


def test_triage_documents_match_fixture():
    with open(FIXTURE_PATH) as handle:
        golden = json.load(handle)
    actual = compute()
    for name in ("campaign", "service"):
        for field, value in golden[name].items():
            if field != "sha256":
                assert actual[name][field] == value, (name, field)
        assert actual[name]["sha256"] == golden[name]["sha256"], name


if __name__ == "__main__":
    document = compute()
    text = json.dumps(document, indent=1, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        with open(FIXTURE_PATH, "w") as handle:
            handle.write(text)
        print("wrote %s" % FIXTURE_PATH)
    else:
        sys.stdout.write(text)
