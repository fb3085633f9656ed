"""Durable files: the one on-disk discipline of every persistent artifact.

The paper's rule for NVM software is that an update becomes durable as
a unit and a torn state is *detected*, never trusted.  The harness's
own artifacts — simulation snapshots, the result cache, the work
queue's job and result files, job journals and ``--json`` reports —
follow the same rule, and this module is the only place that knows
how: one checksum framing (:func:`frame`: the payload's SHA-256 hex
digest, a newline, the payload), whole-file writes through an fsynced
uniquely named temporary sibling plus a directory fsync
(:func:`write_atomic` replaces, :func:`publish_once` never
overwrites), fsynced appends (:func:`append_line`) and best-effort
quarantine of damaged files (:func:`quarantine`).
"""

from __future__ import annotations

import hashlib
import itertools
import os

__all__ = [
    "frame",
    "unframe",
    "read_framed",
    "write_atomic",
    "publish_once",
    "append_line",
    "quarantine",
]

_tmp_counter = itertools.count()


def frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its SHA-256 so torn/corrupt reads fail loudly."""
    return hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload


def unframe(blob: bytes) -> bytes:
    """The payload of a :func:`frame`; ``ValueError`` if it does not verify."""
    head, sep, payload = blob.partition(b"\n")
    if not sep:
        raise ValueError("truncated frame: no checksum header")
    if hashlib.sha256(payload).hexdigest().encode("ascii") != head:
        raise ValueError("frame checksum mismatch")
    return payload


def read_framed(path: str) -> bytes:
    """Read and verify the framed file at ``path``."""
    with open(path, "rb") as stream:
        return unframe(stream.read())


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _write_tmp(path: str, data: bytes) -> str:
    """Write ``data`` to a fresh fsynced sibling of ``path``; returns its name."""
    tmp = "%s.tmp.%d.%d" % (path, os.getpid(), next(_tmp_counter))
    try:
        with open(tmp, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
    except BaseException:
        _unlink(tmp)
        raise
    return tmp


def _fsync_parent(path: str) -> None:
    """Best-effort fsync of ``path``'s directory so a rename is durable."""
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_atomic(path: str, data: bytes) -> None:
    """Durably replace ``path`` with ``data`` (all of it or none of it)."""
    tmp = _write_tmp(path, data)
    try:
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise
    _fsync_parent(path)


def publish_once(path: str, data: bytes) -> bool:
    """Durably create ``path`` with ``data``; False if it already exists.

    The existing file is left untouched: publication is idempotent, the
    first writer wins.
    """
    tmp = _write_tmp(path, data)
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        _unlink(tmp)
    _fsync_parent(path)
    return True


def append_line(path: str, line: str) -> None:
    """Append ``line`` plus a newline to ``path`` and fsync it."""
    with open(path, "a", encoding="utf-8") as stream:
        stream.write(line + "\n")
        stream.flush()
        os.fsync(stream.fileno())


def quarantine(src: str, dst: str) -> bool:
    """Move a damaged file aside; False when it could not be moved."""
    try:
        os.replace(src, dst)
    except OSError:
        return False
    return True
