"""The durable-file primitive: framing, atomic/once publication, append,
quarantine — and the guard that nothing else in ``src/`` hand-rolls them."""

import os
import re

import pytest

from repro.utils.durable import (
    append_line,
    frame,
    publish_once,
    quarantine,
    read_framed,
    unframe,
    write_atomic,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


class TestFrame:
    def test_roundtrip(self):
        payload = b"payload\nwith newlines\n\x00binary"
        assert unframe(frame(payload)) == payload
        assert unframe(frame(b"")) == b""

    def test_every_truncation_point_is_detected(self):
        blob = frame(b"some payload worth keeping")
        for length in range(len(blob)):
            with pytest.raises(ValueError):
                unframe(blob[:length])

    def test_every_single_bit_flip_is_detected(self):
        blob = frame(b'{"bytes_read": 4096}')
        for index in range(len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[index] ^= 1 << bit
                with pytest.raises(ValueError):
                    unframe(bytes(flipped))

    def test_read_framed_reads_a_written_frame(self, tmp_path):
        path = str(tmp_path / "f")
        write_atomic(path, frame(b"body"))
        assert read_framed(path) == b"body"


class TestWriteAtomic:
    def test_replaces_and_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "out")
        write_atomic(path, b"first")
        write_atomic(path, b"second")
        with open(path, "rb") as stream:
            assert stream.read() == b"second"
        assert os.listdir(str(tmp_path)) == ["out"]

    def test_failed_write_leaves_target_and_no_tmp(self, tmp_path):
        target = tmp_path / "out"
        target.write_bytes(b"old")
        with pytest.raises(TypeError):
            write_atomic(str(target), "not bytes")  # type: ignore[arg-type]
        assert target.read_bytes() == b"old"
        assert os.listdir(str(tmp_path)) == ["out"]


class TestPublishOnce:
    def test_second_publication_loses_and_first_survives(self, tmp_path):
        path = str(tmp_path / "result")
        assert publish_once(path, b"first") is True
        assert publish_once(path, b"second") is False
        with open(path, "rb") as stream:
            assert stream.read() == b"first"
        assert os.listdir(str(tmp_path)) == ["result"]


class TestAppendLine:
    def test_lines_survive_reopening(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        append_line(path, '{"key": "a"}')
        append_line(path, '{"key": "b"}')
        with open(path, "r", encoding="utf-8") as stream:
            assert stream.read().splitlines() == ['{"key": "a"}', '{"key": "b"}']


class TestQuarantine:
    def test_moves_file_aside(self, tmp_path):
        src = tmp_path / "entry.json"
        src.write_text("garbage", encoding="utf-8")
        dst = str(src) + ".corrupt"
        assert quarantine(str(src), dst) is True
        assert not src.exists()
        assert open(dst, encoding="utf-8").read() == "garbage"

    def test_missing_file_returns_false(self, tmp_path):
        assert quarantine(str(tmp_path / "absent"), str(tmp_path / "dst")) is False
        assert list(tmp_path.iterdir()) == []


def test_only_durable_module_touches_the_disk_discipline():
    """``os.fsync``, ``os.replace`` and ``crc32`` live in one module."""
    pattern = re.compile(r"os\.fsync|os\.replace|crc32")
    offenders = []
    for root, dirs, files in os.walk(SRC):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, SRC)
            if rel == os.path.join("utils", "durable.py"):
                continue
            with open(path, "r", encoding="utf-8") as stream:
                for number, line in enumerate(stream, 1):
                    if pattern.search(line):
                        offenders.append("%s:%d: %s" % (rel, number, line.strip()))
    assert offenders == []
