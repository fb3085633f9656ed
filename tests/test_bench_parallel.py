"""The parallel sweep engine: determinism, caching, invalidation."""

import dataclasses

import pytest

from repro.bench.experiments import Fig13MultiCore, get_experiment
from repro.bench.parallel import (
    ResultCache,
    SweepExecutor,
    SweepJob,
    execute_job,
    job_cache_key,
    stats_from_dict,
    stats_to_dict,
)
from repro.config import fast_config
from repro.workloads.base import WorkloadParams

PARAMS = WorkloadParams(operations=12, footprint_bytes=16 * 1024)


def small_jobs():
    config = fast_config()
    return [
        SweepJob(design, workload, config=config, params=PARAMS)
        for workload in ("array", "queue")
        for design in ("no-encryption", "sca")
    ]


class TestDeterministicExecution:
    def test_serial_and_parallel_results_identical(self):
        jobs = small_jobs()
        serial = SweepExecutor(workers=1).map_stats(jobs)
        parallel = SweepExecutor(workers=4).map_stats(jobs)
        assert len(serial) == len(parallel) == len(jobs)
        for left, right in zip(serial, parallel):
            # Values, not just shapes: the full stats dicts must match.
            assert stats_to_dict(left) == stats_to_dict(right)

    def test_experiment_values_identical_across_worker_counts(self):
        experiment = Fig13MultiCore(core_counts=(1, 2), workloads=["array"])
        serial = experiment.run("quick", executor=SweepExecutor(workers=1))
        parallel = experiment.run("quick", executor=SweepExecutor(workers=4))
        assert serial.as_dict() == parallel.as_dict()

    def test_result_order_matches_job_order(self):
        jobs = small_jobs()
        results = SweepExecutor(workers=1).map_stats(jobs)
        for job, stats in zip(jobs, results):
            assert stats.design == job.design

    def test_execute_job_matches_direct_harness_run(self):
        job = small_jobs()[0]
        from repro.bench.harness import run_workload

        direct = run_workload(
            job.design, job.workload, config=job.config, params=job.params
        ).stats
        assert stats_to_dict(execute_job(job)) == stats_to_dict(direct)


class TestResultCache:
    def test_second_run_hits_cache_with_identical_values(self, tmp_path):
        jobs = small_jobs()
        cache = ResultCache(str(tmp_path))
        first_executor = SweepExecutor(workers=1, cache=cache)
        first = first_executor.map_stats(jobs)
        assert first_executor.cache_hits == 0
        assert first_executor.cache_misses == len(jobs)
        second_executor = SweepExecutor(workers=1, cache=cache)
        second = second_executor.map_stats(jobs)
        assert second_executor.cache_hits == len(jobs)
        assert second_executor.cache_misses == 0
        assert second_executor.jobs_executed == 0
        for left, right in zip(first, second):
            assert stats_to_dict(left) == stats_to_dict(right)

    def test_config_change_invalidates_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        base = SweepJob("sca", "array", config=fast_config(), params=PARAMS)
        executor = SweepExecutor(workers=1, cache=cache)
        executor.map_stats([base])
        changed_config = fast_config().with_nvm(t_wr_ns=150.0)
        changed = SweepJob("sca", "array", config=changed_config, params=PARAMS)
        assert job_cache_key(base) != job_cache_key(changed)
        second = SweepExecutor(workers=1, cache=cache)
        second.map_stats([changed])
        assert second.cache_hits == 0
        assert second.cache_misses == 1

    def test_params_change_invalidates_cache(self):
        base = SweepJob("sca", "array", config=fast_config(), params=PARAMS)
        other_params = dataclasses.replace(PARAMS, operations=13)
        other = SweepJob("sca", "array", config=fast_config(), params=other_params)
        assert job_cache_key(base) != job_cache_key(other)

    def test_same_job_same_key(self):
        left = SweepJob("sca", "array", config=fast_config(), params=PARAMS)
        right = SweepJob("sca", "array", config=fast_config(), params=PARAMS)
        assert job_cache_key(left) == job_cache_key(right)

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = SweepJob("sca", "array", config=fast_config(), params=PARAMS)
        key = job_cache_key(job)
        (tmp_path / (key + ".json")).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        executor = SweepExecutor(workers=1, cache=cache)
        executor.map_stats([job])
        assert executor.cache_misses == 1
        assert cache.get(key) is not None  # rewritten with a good entry

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = SweepJob("sca", "array", config=fast_config(), params=PARAMS)
        SweepExecutor(workers=1, cache=cache).map_stats([job])
        assert cache.clear() == 1
        assert cache.get(job_cache_key(job)) is None


class TestStatsSerialization:
    def test_round_trip(self):
        stats = execute_job(small_jobs()[0])
        assert stats_to_dict(stats_from_dict(stats_to_dict(stats))) == stats_to_dict(stats)


class TestCliWiring:
    def test_workers_flag_accepted(self, tmp_path, capsys):
        from repro.bench.cli import main

        json_path = tmp_path / "out.json"
        code = main(
            [
                "table2",
                "--workers",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        assert json_path.exists()

    def test_sweep_flags_reach_the_executor(self, monkeypatch, capsys):
        # Figure sweeps, campaigns and serve share one executor factory,
        # so --job-timeout/--retries reach a sweep's work queue too.
        from repro.bench import cli

        built = []

        class _Result:
            claims = {}

            def render(self):
                return "probe"

            def as_dict(self):
                return {}

        class _Probe:
            def run(self, scale, executor):
                built.append(executor)
                return _Result()

        monkeypatch.setattr(cli, "get_experiment", lambda name: _Probe())
        argv = ["fig12", "--workers", "2", "--job-timeout", "5", "--retries", "0"]
        assert cli.main(argv + ["--no-cache"]) == 0
        (executor,) = built
        assert executor.workers == 2
        assert executor.job_timeout_s == 5.0
        assert executor.max_retries == 0

    @pytest.mark.parametrize(
        "flag", ["--backend", "--heartbeat-timeout", "--max-lease-failures"]
    )
    def test_removed_executor_flags_are_rejected(self, flag, capsys):
        from repro.bench.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["fig12", flag, "1"])
        assert excinfo.value.code == 2
