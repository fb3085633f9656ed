"""Tests for the controller's event record stream, its trace, and designs CLI."""

import collections
import dataclasses
import hashlib
import json
import os

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.harness import build_traces
from repro.config import fast_config
from repro.core.designs import get_design, list_designs
from repro.mem.controller import MemoryController
from repro.mem.events import READ, SCHEMA, ControllerStats, fold
from repro.sim.machine import Machine
from repro.sim.snapshot import result_fingerprint
from repro.workloads.base import WorkloadParams

_TRACE_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "event_trace.json")

_CODES = {kind: code for code, (kind, _fields) in enumerate(SCHEMA)}


def run_machine(config, design="sca", workload="hash", operations=4, seed=7):
    traces, _runs, _layout = build_traces(
        workload, config, "undo", WorkloadParams(operations=operations, seed=seed)
    )
    machine = Machine(config, design)
    result = machine.run(traces)
    return machine, result


def traced(config, path):
    """``config`` with the controller's JSONL event trace set to ``path``."""
    return dataclasses.replace(
        config,
        controller=dataclasses.replace(config.controller, event_trace_path=str(path)),
    )


def read_records(path):
    """Parse a JSONL trace back into ``(code, *fields)`` records."""
    records = []
    for line in open(path, encoding="utf-8").read().splitlines():
        document = json.loads(line)
        code = _CODES[document["kind"]]
        fields = SCHEMA[code][1]
        assert set(document) == {"kind", *fields}
        records.append((code, *(document[name] for name in fields)))
    return records


class TestStatsDerivation:
    """ControllerStats is purely a fold over the record stream."""

    @pytest.mark.parametrize(
        "design,shards",
        [
            pytest.param(name, 1, id=name)
            for name in list_designs(include_unsafe=True, include_integrity=True)
        ]
        + [pytest.param("sca", 2, id="sca-shards2")],
    )
    def test_independent_subscriber_reproduces_stats(self, tmp_path, design, shards):
        config = fast_config(num_cores=2, functional=True, shards=shards)
        plain_machine, plain_result = run_machine(config, design)
        trace_path = tmp_path / "events.jsonl"
        machine, result = run_machine(traced(config, trace_path), design)
        # Tracing observes the run without changing it.
        assert dataclasses.asdict(machine.controller.stats) == dataclasses.asdict(
            plain_machine.controller.stats
        )
        assert result_fingerprint(result) == result_fingerprint(plain_result)
        # The trace read back from disk folds to each controller's stats.
        if shards == 1:
            pairs = [(machine.controller, str(trace_path))]
        else:
            pairs = [
                (controller, "%s.shard%d" % (trace_path, shard))
                for shard, controller in enumerate(machine.controller.controllers)
            ]
        for controller, path in pairs:
            stats = ControllerStats()
            fold(read_records(path), stats)
            assert dataclasses.asdict(stats) == dataclasses.asdict(controller.stats)

    def test_stats_survive_state_roundtrip(self):
        config = fast_config(num_cores=1, functional=True)
        machine, _result = run_machine(config)
        controller = machine.controller
        state = controller.get_state()
        fresh = MemoryController(config, get_design("sca"))
        fresh.set_state(state)
        assert dataclasses.asdict(fresh.stats) == dataclasses.asdict(controller.stats)
        # The restored stats object is live — the stream must keep
        # folding new records into it, not into a stale instance.
        fresh.events.emit((READ, 0, 0.0, 5.0, 64, False))
        assert fresh.stats.reads == controller.stats.reads + 1


class TestJsonlTrace:
    def test_trace_records_typed_events(self, tmp_path):
        trace_path = tmp_path / "events.jsonl"
        config = fast_config(num_cores=1, functional=True)
        config = dataclasses.replace(
            config,
            controller=dataclasses.replace(
                config.controller, event_trace_path=str(trace_path)
            ),
        )
        _machine, result = run_machine(config)
        lines = trace_path.read_text().strip().splitlines()
        assert lines, "trace should not be empty"
        records = [json.loads(line) for line in lines]
        kinds = {record["kind"] for record in records}
        assert {"read", "write-request", "data-persist", "drain"} <= kinds
        reads = sum(1 for record in records if record["kind"] == "read")
        assert reads == result.controller.stats.reads

    def test_no_trace_file_without_config(self, tmp_path):
        config = fast_config(num_cores=1, functional=True)
        machine, _result = run_machine(config)
        assert machine.controller.events.trace_path is None
        assert list(tmp_path.iterdir()) == []

    def test_trace_lines_written_without_close(self, tmp_path):
        path = tmp_path / "events.jsonl"
        config = traced(fast_config(num_cores=1, functional=True), path)
        controller = MemoryController(config, get_design("sca"))
        controller.write_line(0, bytes(64), 0.0)
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert "write-request" in kinds
        assert "data-persist" in kinds

    @pytest.mark.parametrize("key", ["fca+bmt@1c", "sca@2c"])
    def test_trace_bytes_match_fixture(self, tmp_path, key):
        with open(_TRACE_FIXTURE, encoding="utf-8") as stream:
            expected = json.load(stream)["traces"][key]
        design, cores = key.split("@")
        path = tmp_path / "events.jsonl"
        config = traced(fast_config(num_cores=int(cores.rstrip("c")), functional=True), path)
        run_machine(config, design)
        data = path.read_bytes()
        kinds = collections.Counter(json.loads(line)["kind"] for line in data.splitlines())
        assert dict(kinds) == expected["kinds"]
        assert data.count(b"\n") == expected["lines"]
        assert hashlib.sha256(data).hexdigest() == expected["sha256"]


class TestDesignsCli:
    def test_matrix_lists_every_design(self, capsys):
        assert cli_main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in (
            "no-encryption", "ideal", "unsafe", "co-located", "co-located-cc",
            "fca", "sca", "fca+bmt", "sca+bmt", "fca+bmt-lazy", "sca+bmt-eager",
        ):
            assert name in out
        assert "72b" in out and "64b" in out
        assert "NO" in out  # the unsafe design's verdict

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "designs.json"
        assert cli_main(["designs", "--json", str(path)]) == 0
        document = json.loads(path.read_text())
        rows = {row["name"]: row for row in document["designs"]}
        assert len(rows) == 11
        assert rows["sca+bmt"]["atomicity"] == "sca"
        assert rows["sca+bmt"]["integrity"] == "lazy"
        assert rows["co-located"]["bus_bits"] == 72
        assert rows["unsafe"]["crash_consistent"] is False
