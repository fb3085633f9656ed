"""The executor's two paths: inline oracle, lease work queue, fallback."""

import os

import pytest

from repro.bench.parallel import SweepExecutor


# Worker functions must be module-level so child processes can resolve
# them after fork/pickle.


def double(item):
    return item * 2


def fail_always(item):
    raise ValueError("permanent failure on %s" % item)


def _queue(tmp_path, **overrides):
    options = dict(workers=2, queue_dir=str(tmp_path / "q"), lease_timeout_s=5.0)
    options.update(overrides)
    return SweepExecutor(**options)


class TestRegistryAndLadder:
    def test_unknown_backend_raises(self):
        # The path follows from ``workers``; a stale backend option is
        # rejected, never silently ignored.
        with pytest.raises(TypeError, match="backend"):
            SweepExecutor(workers=2, backend="workqueue")
        with pytest.raises(TypeError, match="max_lease_failures"):
            SweepExecutor(workers=2, max_lease_failures=3)

    def test_fallback_counts_every_hop(self, tmp_path, monkeypatch):
        # A file where the queue directory should be makes the work
        # queue unconstructible: the batch runs inline, one counted hop.
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("occupied")
        executor = SweepExecutor(workers=2, queue_dir=str(bogus))
        assert executor.map(double, [1, 2, 3]) == [2, 4, 6]
        assert executor.stats()["backend"] == "inline"
        assert executor.stats()["backend_fallbacks"] == 1
        # No fork start method: same single hop, counted again.
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert executor.map(double, [4]) == [8]
        assert executor.stats()["backend_fallbacks"] == 2


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", ["inline", "workqueue"])
    def test_same_results_every_backend(self, name):
        executor = SweepExecutor(workers=1 if name == "inline" else 2)
        seen = []
        results = executor.map(
            double,
            [1, 2, 3, 4, 5],
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert results == [2, 4, 6, 8, 10]
        assert sorted(seen) == [(0, 2), (1, 4), (2, 6), (3, 8), (4, 10)]
        assert executor.stats()["backend"] == name

    def test_inline_is_serial_and_ordered(self):
        order = []
        SweepExecutor().map(double, [3, 1, 2], on_result=lambda i, v: order.append(i))
        assert order == [0, 1, 2]


class TestWorkQueueProtocol:
    def test_exactly_once_publication(self, tmp_path):
        executor = _queue(tmp_path)
        assert executor.map(double, [10, 11, 12]) == [20, 22, 24]
        assert executor.counters.results_published == 3
        assert executor.counters.results_reused == 0
        assert executor.counters.jobs_lost == 0

    def test_idempotent_reuse_across_runs(self, tmp_path):
        _queue(tmp_path).map(double, [10, 11, 12])
        second = _queue(tmp_path)
        assert second.map(double, [10, 11, 12]) == [20, 22, 24]
        assert second.counters.results_published == 0
        assert second.counters.results_reused == 3

    def test_duplicate_items_share_one_job(self, tmp_path):
        executor = _queue(tmp_path)
        assert executor.map(double, [9, 9, 9]) == [18, 18, 18]
        assert executor.counters.results_published == 1

    def test_killed_worker_lease_expires_and_job_reruns(self, tmp_path):
        executor = _queue(tmp_path, lease_timeout_s=0.5, chaos_plan={0: ("kill",)})
        assert executor.map(double, [5, 6]) == [10, 12]
        assert executor.counters.leases_expired >= 1
        assert executor.counters.leases_reclaimed >= 1
        assert executor.counters.worker_respawns >= 1
        assert executor.counters.jobs_lost == 0

    def test_corrupt_result_is_quarantined_and_rerun(self, tmp_path):
        executor = _queue(tmp_path, lease_timeout_s=0.5, chaos_plan={0: ("corrupt",)})
        assert executor.map(double, [5, 6]) == [10, 12]
        assert executor.counters.corrupt_results == 1
        assert list((tmp_path / "q" / "quarantine").iterdir())

    def test_duplicate_claim_fault_keeps_exactly_once(self, tmp_path):
        # The worker publishes, then hands the job back as if never
        # run.  Whether or not a second claimant gets to it before
        # shutdown, the result must land exactly once.
        executor = _queue(
            tmp_path, lease_timeout_s=0.5, chaos_plan={1: ("duplicate",)}
        )
        assert executor.map(double, [5, 6]) == [10, 12]
        assert executor.counters.results_published == 2
        assert executor.counters.jobs_lost == 0

    def test_second_publication_is_dropped(self, tmp_path):
        # The primitive behind the duplicate defence: publication is
        # hardlink-if-absent, so a second publish never overwrites.
        from repro.bench.workqueue import _publish
        from repro.utils.durable import frame, read_framed

        queue_dir = tmp_path / "q"
        for sub in ("results", "events"):
            (queue_dir / sub).mkdir(parents=True)
        assert _publish(str(queue_dir), "job1", frame(b"first")) is True
        assert _publish(str(queue_dir), "job1", frame(b"second")) is False
        assert read_framed(str(queue_dir / "results" / "job1.res")) == b"first"
        dup_events = [
            name
            for name in os.listdir(queue_dir / "events")
            if name.startswith("job1.dup.")
        ]
        assert len(dup_events) == 1

    def test_poison_job_quarantined_then_finished_inline(self, tmp_path):
        # fail_always burns every lease with worker-side errors; after
        # max_retries + 1 leases the job is poisoned and the last-chance
        # inline attempt reproduces the real exception.
        executor = _queue(tmp_path, max_retries=1)
        with pytest.raises(ValueError, match="permanent failure"):
            executor.map(fail_always, ["x"])
        assert executor.counters.poison_jobs == 1
        assert any(
            name.endswith(".poison")
            for name in os.listdir(tmp_path / "q" / "quarantine")
        )

    def test_executor_reports_workqueue_stats(self, tmp_path):
        executor = _queue(tmp_path)
        assert executor.map(double, [1, 2, 3]) == [2, 4, 6]
        stats = executor.stats()
        assert stats["backend"] == "workqueue"
        assert stats["results_published"] == 3
        assert stats["jobs_lost"] == 0
        assert stats["backend_fallbacks"] == 0
