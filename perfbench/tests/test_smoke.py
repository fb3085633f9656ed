"""Smoke tests of the benchmark: tiny workloads, both modes, the contract.

    python3 -m pytest perfbench/tests -q

The tiny size shrinks every workload (see ``specs.py``); its numbers
are not comparable with full-size runs.  The tests check the shape of
what the benchmark prints, not its speed.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import specs  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _child(workload: str, seed: int, size: str = "tiny") -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"),
         "--workload", workload, "--seed", str(seed), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_benchmark():
    spec = _benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(specs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    done = _bench(
        "--workload", workload, "--seed", "42", "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS
    assert json.loads(json.dumps(result)) == result
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0

    spec = _benchmark_json()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert NAME.match(metric["name"])
        assert emitted["unit"] == metric["unit"]
        value = emitted["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value)
        if not trace:
            assert value > 0, metric["name"]

    report = json.loads(lines[-2])["report"]
    assert report["workload"] == workload
    assert report["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert re.match(r"^[0-9a-f]{16}$", report["digest"])
    expected = {
        "fig12-1c": "paper_gap_err_pp",
        "fig13-mc": "paper_gap_err_pp",
        "crash-campaign": "crash_cells_per_s",
        "kv-serve": "kv_ops_per_s",
    }[workload]
    if expected == "paper_gap_err_pp" or not trace:
        assert report[expected]["value"] > 0
    for name in ("wall_ref", "wall_s", "ref_s", "sim_ops_per_s", "setup_s") if not trace else ():
        assert "%s " % name in done.stdout  # printed by name for people too
    if not trace:
        # the raw host times behind wall_ref travel in the report line
        assert report["wall_s"]["value"] > 0 and report["ref_s"]["value"] > 0
        assert len(report["samples"]["ref_s"]) == len(report["samples"]["wall_s"])


def test_seed_reaches_campaign_and_service_but_not_the_sweeps():
    for workload in specs.WORKLOADS:
        first = _child(workload, 42)["summary"]["digest"]
        second = _child(workload, 7)["summary"]["digest"]
        if workload in layers.SWEEPS:
            assert first == second, workload
        else:
            assert first != second, workload


def test_known_finding_at_seed_7_is_counted_as_failed():
    """sca+bmt under dropped-adr on btree goes silent at seed 7.

    The benchmark must report the cell, not hide it; this test changes
    when the integrity tree's never-silent property is restored.
    """
    summary = _child("crash-campaign", 7, size="full")["summary"]
    assert summary["failed"] >= 1
    assert any("btree/sca+bmt fault=dropped-adr" in f for f in summary["failures"])


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = _bench("--workload", "fig12-1c", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_patches_callers_that_imported_by_name():
    import repro.bench.resilience as resilience
    import repro.sim.snapshot as snapshot
    import repro.crash.campaign  # noqa: F401  (loads every wrapped module)
    import repro.service.scenario  # noqa: F401

    original = snapshot.run_with_checkpoints
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert snapshot.run_with_checkpoints is not original
        assert resilience.run_with_checkpoints is snapshot.run_with_checkpoints
        # Nothing ran: every function the campaign must exercise is
        # reported, so a stale binding cannot read as 0 s.
        missing = tracer.coverage_failures("crash-campaign")
        assert "run_with_checkpoints" in missing
        assert "CounterRecoverer.recover_image" in missing
    finally:
        tracer.uninstall()
    assert resilience.run_with_checkpoints is original
    assert snapshot.run_with_checkpoints is original
