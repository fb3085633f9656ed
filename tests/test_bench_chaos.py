"""Chaos harness: seeded fault plans and the exactly-once property."""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.chaos import (
    FAULT_KINDS,
    ChaosPlan,
    render_chaos_report,
    run_chaos_campaign,
)
from repro.bench.parallel import SweepExecutor
from repro.crash.campaign import CampaignSpec


def triple(item):
    return item * 3


class TestChaosPlan:
    def test_same_seed_same_plan(self):
        first = ChaosPlan.generate(99, n_jobs=8)
        second = ChaosPlan.generate(99, n_jobs=8)
        assert first == second
        assert ChaosPlan.generate(100, n_jobs=8) != first

    def test_plan_roundtrips_through_dict(self):
        plan = ChaosPlan.generate(5, n_jobs=6, intensity=2)
        assert ChaosPlan.from_dict(plan.as_dict()) == plan

    def test_injected_counts_cover_requested_kinds(self):
        plan = ChaosPlan.generate(3, n_jobs=10, kinds=("kill", "corrupt"))
        counts = plan.injected_counts()
        assert counts["kill"] == 1
        assert counts["corrupt"] == 1
        assert counts["stall"] == 0
        assert counts["duplicate"] == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos fault"):
            ChaosPlan.generate(1, n_jobs=4, kinds=("meteor",))

    def test_empty_batch_yields_empty_plan(self):
        assert ChaosPlan.generate(1, n_jobs=0).faults_by_job == {}


class TestExactlyOnceProperty:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 16),
        kinds=st.sets(st.sampled_from(FAULT_KINDS), min_size=1).map(
            lambda chosen: tuple(sorted(chosen))
        ),
    )
    def test_random_fault_schedules_never_lose_or_duplicate(self, seed, kinds):
        items = [1, 2, 3, 4]
        plan = ChaosPlan.generate(seed, len(items), kinds=kinds)
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as queue_dir:
            executor = SweepExecutor(
                workers=2,
                queue_dir=queue_dir,
                lease_timeout_s=0.5,
                max_retries=len(kinds) + 1,
                chaos_plan=plan,
            )
            results = executor.map(triple, items)
            stats = executor.stats()
        assert results == [3, 6, 9, 12]
        assert stats["backend_fallbacks"] == 0
        published = stats["results_published"] + stats["results_reused"]
        assert published == len(items)
        assert stats["jobs_lost"] == 0
        assert stats["poison_jobs"] == 0


class TestCampaignOracle:
    def test_chaos_campaign_matches_serial_oracle(self, tmp_path):
        spec = CampaignSpec(
            workloads=("array",),
            designs=("sca", "unsafe"),
            mechanisms=("undo",),
            faults=("torn-data", "bitflip-data"),
            crash_points=4,
            seed=7,
            operations=6,
        )
        document = run_chaos_campaign(
            spec,
            workers=2,
            queue_dir=str(tmp_path / "q"),
            lease_timeout_s=1.0,
            chaos_seed=1234,
        )
        assert document["ok"], document["problems"]
        assert document["chaos_totals"] == document["oracle_totals"]
        stats = document["executor"]
        published = stats["results_published"] + stats["results_reused"]
        assert published == document["jobs"]
        assert stats["jobs_lost"] == 0
        report = render_chaos_report(document)
        assert "exactly-once holds" in report
        assert "bit-identical" in report
