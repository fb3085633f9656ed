"""Hardened sweep execution: timeouts, retries, last-chance runs, quarantine."""

import logging
import os
import re
import time

import pytest

from repro.bench.parallel import ResultCache, SweepExecutor, SweepJob, job_cache_key
from repro.config import fast_config
from repro.errors import JobExecutionError
from repro.workloads.base import WorkloadParams

PARAMS = WorkloadParams(operations=8, footprint_bytes=8 * 1024)


# Worker functions must be module-level so forked workers can resolve them.


def well_behaved(item):
    return "done:%s" % item


def hang_unless_sentinel(item):
    """Sleep forever on the first call, succeed on the retry.

    The first attempt drops a sentinel file and wedges; the retried
    attempt sees the sentinel and returns — the signature of a
    transiently hung worker.
    """
    if item.startswith("hang:"):
        sentinel = item[len("hang:"):]
        if not os.path.exists(sentinel):
            with open(sentinel, "w", encoding="utf-8") as stream:
                stream.write("first attempt\n")
            time.sleep(60)
    return "done:%s" % item


def hang_always(item):
    time.sleep(60)


def fail_unless_sentinel(item):
    if item.startswith("fail:"):
        sentinel = item[len("fail:"):]
        if not os.path.exists(sentinel):
            with open(sentinel, "w", encoding="utf-8") as stream:
                stream.write("first attempt\n")
            raise ValueError("transient worker failure")
    return "done:%s" % item


def fail_always(item):
    raise ValueError("permanent failure on %s" % item)


def _queue_executor(**overrides):
    """A 2-worker executor (the work queue) with leases short enough
    that every expiry path runs in well under a second."""
    options = dict(workers=2, lease_timeout_s=0.2, max_retries=2)
    options.update(overrides)
    return SweepExecutor(**options)


class TestTimeoutsAndRetries:
    def test_hung_worker_is_timed_out_and_retried(self, tmp_path):
        executor = _queue_executor(job_timeout_s=0.5)
        items = ["hang:%s" % (tmp_path / "sentinel"), "plain"]
        results = executor.map(hang_unless_sentinel, items)
        assert results == ["done:%s" % items[0], "done:plain"]
        stats = executor.stats()
        assert stats["backend"] == "workqueue"
        assert stats["leases_expired"] >= 1
        assert stats["worker_respawns"] >= 1
        assert stats["poison_jobs"] == 0

    def test_permanently_hung_job_raises_after_retries(self):
        executor = _queue_executor(job_timeout_s=0.3, max_retries=1)
        with pytest.raises(JobExecutionError, match="presumed hung"):
            executor.map(hang_always, ["a", "b"])
        # Two leases per job (max_retries + 1), every one expired.
        assert executor.stats()["leases_expired"] == 4

    def test_hung_batch_workers_are_killed_and_respawned(self):
        # Without kill-on-expiry a hung job keeps its worker forever and
        # the batch only ends at a global deadline (30 s or more).
        executor = _queue_executor(job_timeout_s=0.3, max_retries=2)
        started = time.monotonic()
        with pytest.raises(JobExecutionError):
            executor.map(hang_always, ["a", "b"])
        assert time.monotonic() - started < 10.0
        stats = executor.stats()
        assert stats["worker_respawns"] >= 1
        assert stats["poison_jobs"] == 2

    def test_transient_failure_is_retried(self, tmp_path):
        executor = _queue_executor()
        items = ["fail:%s" % (tmp_path / "sentinel"), "plain"]
        results = executor.map(fail_unless_sentinel, items)
        assert results == ["done:%s" % items[0], "done:plain"]
        assert executor.stats()["retries"] == 1

    def test_persistent_failure_falls_back_in_process_then_raises(self):
        executor = _queue_executor(max_retries=1)
        with pytest.raises(ValueError, match="permanent failure"):
            executor.map(fail_always, ["a", "b"])
        stats = executor.stats()
        # Both jobs burned their two leases on worker errors, were
        # poisoned, and the last-chance in-process attempt raised.
        assert stats["retries"] >= 2
        assert stats["poison_jobs"] == 2

    def test_on_result_fires_for_pooled_results(self, tmp_path):
        executor = _queue_executor()
        landed = {}
        results = executor.map(
            well_behaved,
            ["a", "b", "c"],
            on_result=lambda index, value: landed.__setitem__(index, value),
        )
        assert results == ["done:a", "done:b", "done:c"]
        assert landed == {0: "done:a", 1: "done:b", 2: "done:c"}
        assert executor.stats()["results_published"] == 3


class TestCacheQuarantine:
    def test_corrupt_entry_is_quarantined_counted_and_logged(self, tmp_path, caplog):
        cache = ResultCache(str(tmp_path))
        job = SweepJob("sca", "array", config=fast_config(), params=PARAMS)
        key = job_cache_key(job)
        (tmp_path / (key + ".json")).write_text("{not json", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.bench.parallel"):
            assert cache.get(key) is None
        assert cache.corruption_events == 1
        assert (tmp_path / (key + ".json.corrupt")).exists()
        assert not (tmp_path / (key + ".json")).exists()
        assert any("corrupt result-cache entry" in r.message for r in caplog.records)

    def test_executor_surfaces_corruption_in_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = SweepJob("sca", "array", config=fast_config(), params=PARAMS)
        key = job_cache_key(job)
        (tmp_path / (key + ".json")).write_text('{"stats": 42}', encoding="utf-8")
        executor = SweepExecutor(workers=1, cache=cache)
        executor.map_stats([job])
        assert executor.cache_corruption_events == 1
        assert executor.stats()["cache_corruption_events"] == 1
        # The recomputed result replaced the quarantined entry.
        assert cache.get(key) is not None

    def test_changed_number_in_a_parseable_entry_is_detected(self, tmp_path):
        # A bit flip that keeps the entry valid JSON must not be trusted:
        # the checksum catches it, and the entry is quarantined and rerun.
        cache = ResultCache(str(tmp_path))
        job = SweepJob("sca", "array", config=fast_config(), params=PARAMS)
        key = job_cache_key(job)
        (fresh,) = SweepExecutor(workers=1, cache=cache).map_stats([job])
        entry = tmp_path / (key + ".json")
        blob, flips = re.subn(
            rb'"bytes_read": (\d+)',
            lambda m: b'"bytes_read": %d' % (int(m.group(1)) + 1),
            entry.read_bytes(),
        )
        assert flips == 1
        entry.write_bytes(blob)
        executor = SweepExecutor(workers=1, cache=cache)
        (recomputed,) = executor.map_stats([job])
        assert executor.cache_corruption_events == 1
        assert (tmp_path / (key + ".json.corrupt")).exists()
        assert recomputed == fresh
        assert cache.get(key) == fresh

    def test_clear_sweeps_quarantined_files_too(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "dead.json.corrupt").write_text("x", encoding="utf-8")
        (tmp_path / "live.json").write_text("x", encoding="utf-8")
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []
