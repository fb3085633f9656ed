"""Command-line entry point: ``repro-bench``.

Runs one or all experiments and prints the paper-style tables::

    repro-bench --list
    repro-bench fig12
    repro-bench all --scale full --workers 4
    repro-bench perf --json BENCH_PR1.json

Sweeps fan out over ``--workers`` processes and memoize finished design
points in an on-disk cache (see ``repro.bench.parallel``), so repeated
invocations are incremental; ``--no-cache`` forces fresh runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Mapping, Optional

from ..utils.durable import write_atomic
from .experiments import EXPERIMENTS, get_experiment
from .parallel import ResultCache, SweepExecutor, default_cache_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the tables and figures of 'Crash Consistency in "
            "Encrypted Non-Volatile Main Memory Systems' (HPCA 2018)."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="all",
        help="experiment name (%s), 'all', 'perf' (kernel/sweep regression "
        "benchmarks), 'campaign' (fault-injection crash campaign), 'serve' "
        "(multi-tenant KV service traffic with per-tenant SLO report), or "
        "'designs' (print the composed design matrix)"
        % ", ".join(EXPERIMENTS),
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="quick = small CI-sized runs; full = closer to paper working sets",
    )
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render each result as an ASCII chart in addition to the table",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write all results as a JSON document to PATH ('-' = stdout)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan sweep design points out over N worker processes "
        "(default 1 = in-process serial execution)",
    )
    parser.add_argument(
        "--queue-dir",
        metavar="DIR",
        default=None,
        help="shared directory of the work queue that runs jobs when "
        "--workers > 1 (lease files, idempotent results); default: a "
        "private temporary directory",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="work-queue lease deadline: a job whose lease goes this "
        "stale has its (dead, stalled or hung) worker terminated and is "
        "re-queued",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --workers > 1, stop renewing the lease of any job "
        "running longer than this, so it is killed and retried after "
        "--lease-timeout more seconds",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="with --workers > 1, retry a failed, killed or hung job up "
        "to N times before giving up on it",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (every design point reruns)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache location (default: $REPRO_CACHE_DIR or %s)"
        % default_cache_dir(),
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="remove all cached sweep results, then proceed",
    )
    perf = parser.add_argument_group("perf options (experiment = 'perf')")
    perf.add_argument(
        "--compare",
        metavar="BASELINE.json",
        default=None,
        help="compare the fresh perf run against a recorded BENCH_*.json "
        "document, printing per-kernel ns/op deltas; exits nonzero if any "
        "kernel regresses beyond --regression-threshold",
    )
    perf.add_argument(
        "--regression-threshold",
        type=float,
        default=3.0,
        metavar="RATIO",
        help="ns/op ratio vs the --compare baseline above which a kernel "
        "counts as a hard regression (default 3.0; absolute timings are "
        "machine-dependent, so keep this generous)",
    )
    campaign = parser.add_argument_group(
        "campaign options (experiment = 'campaign')"
    )
    campaign.add_argument(
        "--campaign-dir",
        metavar="DIR",
        default=None,
        help="journal directory; a rerun pointed here resumes instead of "
        "re-executing finished jobs (default: no journal, no resume)",
    )
    campaign.add_argument("--seed", type=int, default=42, metavar="N")
    campaign.add_argument(
        "--crash-points",
        type=int,
        default=20,
        metavar="N",
        help="crash points swept per (workload, design, mechanism, fault) cell",
    )
    campaign.add_argument(
        "--workloads", default="array", metavar="A,B", help="comma-separated"
    )
    campaign.add_argument(
        "--designs", default="sca,unsafe", metavar="A,B", help="comma-separated"
    )
    campaign.add_argument(
        "--mechanisms", default="undo", metavar="A,B", help="comma-separated"
    )
    campaign.add_argument(
        "--faults",
        default=None,
        metavar="A,B",
        help="comma-separated fault-model names (default: the full suite)",
    )
    campaign.add_argument(
        "--operations", type=int, default=8, metavar="N",
        help="workload operations per run",
    )
    campaign.add_argument(
        "--fresh",
        action="store_true",
        help="ignore any existing campaign journal and rerun everything",
    )
    campaign.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="EVENTS",
        help="checkpoint each job's simulation every N simulated events; "
        "a killed run resumes from its newest valid snapshot",
    )
    campaign.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="where per-job snapshots live (default: "
        "<campaign-dir>/checkpoints when checkpointing is on)",
    )
    campaign.add_argument(
        "--resume-from",
        metavar="DIR",
        default=None,
        help="resume the campaign journaled in DIR (shorthand for "
        "--campaign-dir DIR that insists the directory already exists)",
    )
    campaign.add_argument(
        "--strict",
        action="store_true",
        help="also exit nonzero when any crash point is silent corruption",
    )
    campaign.add_argument(
        "--with-counter-recovery",
        action="store_true",
        help="retry detected failures with the Osiris-style counter "
        "search; repaired points count as 'recovered-by-search'",
    )
    campaign.add_argument(
        "--nested-crash",
        action="store_true",
        help="sweep nested crashes: recover every crash point under "
        "each schedule of the crash-point x recovery-step grid, "
        "injecting a second power failure (or torn recovery write) "
        "mid-recovery; the resumed recovery must converge "
        "('recovered-after-nested-crash') or stay loud "
        "('detected-after-nested-crash')",
    )
    campaign.add_argument(
        "--nested-steps",
        type=int,
        default=2,
        metavar="N",
        help="recovery steps per phase covered by the nested-crash "
        "grid (default: 2)",
    )
    campaign.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="memory-controller shards per simulated machine; above 1 "
        "each job also sweeps shard-subset ADR failures and reconciles "
        "the cross-shard commit log (--strict then also fails on any "
        "lost durable commit)",
    )
    campaign.add_argument(
        "--retry-crashed",
        action="store_true",
        help="re-run journaled jobs that recorded recovery-crashed "
        "cells instead of resuming them; the fresh record supersedes "
        "the old one in the journal",
    )
    campaign.add_argument(
        "--chaos",
        action="store_true",
        help="chaos smoke harness: run the campaign twice — serially "
        "(the oracle) and on the work queue with seeded worker "
        "faults (kill/stall/corrupt/duplicate) — and fail unless triage "
        "counts are bit-identical and every result was published "
        "exactly once",
    )
    campaign.add_argument(
        "--chaos-faults",
        default=None,
        metavar="A,B",
        help="comma-separated chaos fault kinds to inject "
        "(default: kill,stall,corrupt,duplicate)",
    )
    campaign.add_argument(
        "--integrity",
        action="store_true",
        help="run every encrypted design with its Bonsai-Merkle-tree "
        "variant (fca -> fca+bmt, ...); post-crash tree verification "
        "reclassifies silent corruption as 'detected-by-tree'",
    )
    campaign.add_argument(
        "--integrity-mode",
        choices=("eager", "lazy"),
        default=None,
        metavar="MODE",
        help="tree persistence mode for --integrity: 'eager' drains "
        "the whole root path at every counter persist (strict, "
        "Freij-style), 'lazy' coalesces dirty nodes in the tree cache "
        "(Phoenix-style); default: each design's own default",
    )
    serve = parser.add_argument_group(
        "serve options (experiment = 'serve'; also honors --designs, "
        "--seed, --mechanisms, --nested-crash, --with-counter-recovery, "
        "--workers and --json)"
    )
    serve.add_argument(
        "--tenants", type=int, default=4, metavar="N",
        help="tenant namespaces, each with an isolated arena (default 4)",
    )
    serve.add_argument(
        "--ops", type=int, default=200, metavar="N",
        help="operations in the generated traffic stream (default 200)",
    )
    serve.add_argument(
        "--crash-mid-traffic",
        action="store_true",
        help="cut power mid-traffic, recover every tenant arena, and add "
        "the durability triage (acked-but-lost vs recovered) to the SLO "
        "report; without it the report is the crash-free latency baseline",
    )
    serve.add_argument(
        "--crash-fraction", type=float, default=0.5, metavar="F",
        help="where in the run the crash lands, as a fraction of the "
        "simulated runtime (default 0.5; snapped to the nearest "
        "durability-interesting instant)",
    )
    serve.add_argument(
        "--traffic-mode", choices=("open", "closed"), default="open",
        help="open = rate-driven arrivals (internet-facing traffic); "
        "closed = fixed client pool with think time",
    )
    serve.add_argument(
        "--arrival", choices=("poisson", "bursty"), default="poisson",
        help="open-loop arrival process (bursty = ON/OFF-modulated Poisson)",
    )
    serve.add_argument(
        "--rate", type=float, default=0.25, metavar="OPS_PER_US",
        help="open-loop mean arrival rate in ops per modeled microsecond",
    )
    serve.add_argument(
        "--clients", type=int, default=8, metavar="N",
        help="closed-loop concurrent clients (default 8)",
    )
    serve.add_argument(
        "--think-ns", type=float, default=1500.0, metavar="NS",
        help="closed-loop per-client think time (default 1500 ns)",
    )
    serve.add_argument(
        "--zipf", type=float, default=0.9, metavar="ALPHA",
        help="key-popularity skew (0 = uniform; default 0.9)",
    )
    serve.add_argument(
        "--keyspace", type=int, default=256, metavar="N",
        help="distinct keys per tenant namespace (default 256)",
    )
    serve.add_argument(
        "--fault",
        default=None,
        metavar="MODEL",
        help="also corrupt the crash image with this fault model "
        "(see the campaign fault registry) before recovery",
    )
    serve.add_argument(
        "--serve-dir",
        metavar="DIR",
        default=None,
        help="journal directory; a rerun pointed here resumes finished "
        "design reports instead of re-running them",
    )
    return parser


def _write_json(target: str, document: object) -> None:
    """Emit a ``--json`` report: ``-`` prints it, a path is published
    with :func:`~repro.utils.durable.write_atomic`, so a kill never
    leaves a half-written report behind."""
    payload = json.dumps(document, indent=2, sort_keys=True)
    if target == "-":
        print(payload)
        return
    write_atomic(target, (payload + "\n").encode("utf-8"))
    print("wrote %s" % target)


def _make_executor(args: argparse.Namespace) -> SweepExecutor:
    if args.clear_cache:
        scrubbed = ResultCache(args.cache_dir)
        removed = scrubbed.clear()
        print("cleared %d cached result(s) from %s" % (removed, scrubbed.directory))
    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
    return SweepExecutor(
        workers=args.workers,
        cache=cache,
        job_timeout_s=args.job_timeout,
        max_retries=args.retries,
        queue_dir=args.queue_dir,
        lease_timeout_s=args.lease_timeout,
    )


def _run_perf(args: argparse.Namespace) -> int:
    from .perf import (
        compare_documents,
        render_comparison,
        render_perf_report,
        run_perf,
    )

    document = run_perf(scale=args.scale, workers=max(args.workers, 4))
    print(render_perf_report(document))
    if args.json is not None:
        _write_json(args.json, document)
    if args.compare is not None:
        with open(args.compare, "r", encoding="utf-8") as stream:
            baseline = json.load(stream)
        comparison = compare_documents(
            document, baseline, regression_threshold=args.regression_threshold
        )
        print(render_comparison(comparison))
        if comparison["regressions"]:
            return 1
    return 0


def _run_campaign_chaos(args: argparse.Namespace, spec) -> int:
    from .chaos import FAULT_KINDS, render_chaos_report, run_chaos_campaign

    if args.chaos_faults:
        kinds = tuple(
            kind.strip() for kind in args.chaos_faults.split(",") if kind.strip()
        )
    else:
        kinds = FAULT_KINDS
    try:
        document = run_chaos_campaign(
            spec,
            workers=max(2, args.workers),
            queue_dir=args.queue_dir,
            # Chaos recovery waits on lease expiry; the normal 30s
            # default would make the smoke run crawl, so shorten it
            # unless the user chose a lease timeout explicitly.
            lease_timeout_s=2.0 if args.lease_timeout == 30.0 else args.lease_timeout,
            chaos_seed=args.seed,
            kinds=kinds,
        )
    except ValueError as exc:
        print("repro-bench campaign: %s" % exc, file=sys.stderr)
        return 2
    print(render_chaos_report(document))
    if args.json is not None:
        _write_json(args.json, document)
    return 0 if document["ok"] else 1


def _run_campaign(args: argparse.Namespace) -> int:
    import os

    from ..errors import CampaignError
    from ..crash.campaign import CampaignRunner, CampaignSpec

    if args.resume_from is not None:
        if not os.path.isdir(args.resume_from):
            print(
                "repro-bench campaign: --resume-from %s: no such directory"
                % args.resume_from,
                file=sys.stderr,
            )
            return 2
        if args.campaign_dir is not None and args.campaign_dir != args.resume_from:
            print(
                "repro-bench campaign: --resume-from and --campaign-dir disagree",
                file=sys.stderr,
            )
            return 2
        args.campaign_dir = args.resume_from
    checkpoint_dir = args.checkpoint_dir
    if (
        checkpoint_dir is None
        and args.checkpoint_every is not None
        and args.campaign_dir is not None
    ):
        checkpoint_dir = os.path.join(args.campaign_dir, "checkpoints")
    if args.fresh and args.campaign_dir is not None:
        journal = os.path.join(args.campaign_dir, CampaignRunner.JOURNAL_NAME)
        if os.path.exists(journal):
            os.remove(journal)
        if checkpoint_dir is not None and os.path.isdir(checkpoint_dir):
            import shutil

            shutil.rmtree(checkpoint_dir, ignore_errors=True)
    faults = args.faults.split(",") if args.faults else None
    designs = tuple(args.designs.split(","))
    if args.integrity:
        from ..core.designs import get_design, integrity_variant
        from ..errors import ConfigurationError

        # Map each encrypted design onto its +bmt variant; designs with
        # nothing to hash (no counters) pass through unchanged.
        try:
            designs = tuple(
                integrity_variant(name, args.integrity_mode)
                if get_design(name).encrypts
                else name
                for name in designs
            )
        except ConfigurationError as exc:
            print("repro-bench campaign: %s" % exc, file=sys.stderr)
            return 2
    elif args.integrity_mode is not None:
        print(
            "repro-bench campaign: --integrity-mode needs --integrity",
            file=sys.stderr,
        )
        return 2
    spec = CampaignSpec(
        workloads=tuple(args.workloads.split(",")),
        designs=designs,
        mechanisms=tuple(args.mechanisms.split(",")),
        crash_points=args.crash_points,
        seed=args.seed,
        operations=args.operations,
        with_counter_recovery=args.with_counter_recovery,
        nested_crash=args.nested_crash,
        nested_steps=args.nested_steps,
        shards=args.shards,
    )
    if faults is not None:
        spec.faults = tuple(faults)
    if args.chaos:
        return _run_campaign_chaos(args, spec)
    executor = _make_executor(args)
    runner = CampaignRunner(
        spec,
        executor=executor,
        journal_dir=args.campaign_dir,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        retry_crashed=args.retry_crashed,
    )
    try:
        report = runner.run()
    except CampaignError as exc:
        print("repro-bench campaign: %s" % exc, file=sys.stderr)
        return 2
    print(report.render())
    stats = executor.stats()
    line = (
        "executor[%s]: %d job(s) run, %d retried, %d expired lease(s), "
        "%d worker respawn(s), %d backend fallback(s), %d corrupt cache "
        "entr(ies) quarantined"
        % (
            stats["backend"],
            stats["jobs_executed"],
            stats["retries"],
            stats["leases_expired"],
            stats["worker_respawns"],
            stats["backend_fallbacks"],
            stats["cache_corruption_events"],
        )
    )
    if stats["backend"] == "workqueue":
        line += (
            "; workqueue: %d claim(s), %d result(s) published, %d reused, "
            "%d duplicate(s) dropped, %d poison"
            % (
                stats["leases_claimed"],
                stats["results_published"],
                stats["results_reused"],
                stats["duplicate_results"],
                stats["poison_jobs"],
            )
        )
    print(line)
    if args.json is not None:
        _write_json(args.json, report.as_dict())
    if report.crashed:
        print(
            "%d crash point(s) made recovery itself crash" % report.crashed,
            file=sys.stderr,
        )
        return 1
    if args.strict and report.silent:
        print(
            "%d crash point(s) were silent corruption (--strict)" % report.silent,
            file=sys.stderr,
        )
        return 1
    if args.strict:
        acked_lost = sum(
            int(section.get("acked_commit_lost", 0))  # type: ignore[call-overload]
            for result in report.results
            for section in (result.get("shard_failures"),)
            if isinstance(section, Mapping)
        )
        if acked_lost:
            print(
                "%d shard-subset failure(s) lost a durable commit (--strict)"
                % acked_lost,
                file=sys.stderr,
            )
            return 1
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The KV service scenario: traffic -> (crash ->) recover -> SLO report."""
    from ..errors import ReproError
    from ..service.scenario import ServiceJob, ServiceRunner
    from ..service.traffic import TrafficSpec

    try:
        spec = TrafficSpec(
            tenants=args.tenants,
            operations=args.ops,
            seed=args.seed,
            mode=args.traffic_mode,
            arrival=args.arrival,
            rate_ops_per_us=args.rate,
            clients=args.clients,
            think_ns=args.think_ns,
            zipf_alpha=args.zipf,
            keyspace=args.keyspace,
        )
        jobs = [
            ServiceJob(
                design=design,
                traffic=spec,
                mechanism=args.mechanisms.split(",")[0],
                crash=args.crash_mid_traffic,
                crash_fraction=args.crash_fraction,
                fault=args.fault,
                nested_crash=args.nested_crash,
                nested_steps=args.nested_steps,
                with_counter_recovery=args.with_counter_recovery,
            )
            for design in args.designs.split(",")
        ]
        executor = _make_executor(args)
        runner = ServiceRunner(jobs, executor=executor, journal_dir=args.serve_dir)
        report = runner.run()
    except ReproError as exc:
        print("repro-bench serve: %s" % exc, file=sys.stderr)
        return 2
    print(report.render())
    if args.json is not None:
        _write_json(args.json, report.as_dict())
    if report.crashed:
        print(
            "%d design(s): recovery itself crashed" % report.crashed,
            file=sys.stderr,
        )
        return 1
    violations = report.durability_violations
    if violations:
        print(
            "%d crash-consistent design(s) violated the durability SLO "
            "(acknowledged writes lost or silent corruption)" % violations,
            file=sys.stderr,
        )
        return 1
    return 0


def _run_designs(args: argparse.Namespace) -> int:
    """Print the composed design matrix (the valid ``--designs`` values).

    One row per registered design, with the three policy axes it is
    composed from, the bus width the layout implies, and the
    crash-consistency verdict — so campaign/sweep users don't have to
    read ``designs.py`` to find valid names.
    """
    from ..core.designs import get_design, list_designs

    names = list_designs(include_unsafe=True, include_integrity=True)
    rows = []
    for name in names:
        design = get_design(name)
        rows.append(
            {
                "name": design.name,
                "layout": design.layout.kind
                + ("+cc" if design.has_counter_cache else ""),
                "atomicity": design.atomicity.kind,
                "integrity": design.integrity_mode or "-",
                "bus_bits": design.bus_width_bits,
                "crash_consistent": design.crash_consistent,
                "description": design.description,
            }
        )
    if args.json is not None:
        _write_json(args.json, {"designs": rows})
        return 0
    header = ("design", "layout", "atomicity", "integrity", "bus", "crash-consistent")
    widths = [len(column) for column in header]
    table = []
    for row in rows:
        cells = (
            row["name"],
            row["layout"],
            row["atomicity"],
            row["integrity"],
            "%db" % row["bus_bits"],
            "yes" if row["crash_consistent"] else "NO",
        )
        widths = [max(width, len(cell)) for width, cell in zip(widths, cells)]
        table.append(cells)
    fmt = "  ".join("%%-%ds" % width for width in widths)
    print(fmt % header)
    print(fmt % tuple("-" * width for width in widths))
    for cells in table:
        print(fmt % cells)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name, cls in EXPERIMENTS.items():
            print("%-8s %s" % (name, (cls.__doc__ or "").strip().splitlines()[0]))
        print("%-8s %s" % ("perf", "Kernel and sweep regression benchmarks (BENCH_*.json)"))
        print("%-8s %s" % ("campaign", "Fault-injection crash campaign with triage report"))
        print("%-8s %s" % ("serve", "Multi-tenant KV service traffic with per-tenant SLO report"))
        print("%-8s %s" % ("designs", "Print the composed design matrix (valid --designs values)"))
        return 0
    if args.experiment == "perf":
        return _run_perf(args)
    if args.experiment == "campaign":
        return _run_campaign(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "designs":
        return _run_designs(args)
    executor = _make_executor(args)
    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        print(
            "repro-bench: unknown experiment %r; available: %s, all, perf, "
            "campaign, serve, designs" % (args.experiment, ", ".join(EXPERIMENTS)),
            file=sys.stderr,
        )
        return 2
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failed_claims = 0
    documents = []
    for name in names:
        experiment = get_experiment(name)
        started = time.time()
        result = experiment.run(scale=args.scale, executor=executor)
        elapsed = time.time() - started
        print(result.render())
        if args.chart:
            from .charts import render_chart

            print()
            print(render_chart(result))
        print("  (%.1f s)" % elapsed)
        print()
        document = result.as_dict()
        document["elapsed_s"] = round(elapsed, 3)
        document["scale"] = args.scale
        documents.append(document)
        failed_claims += sum(1 for ok in result.claims.values() if not ok)
    if executor.cache is not None and (executor.cache_hits or executor.cache_misses):
        print(
            "result cache: %d hit(s), %d miss(es) (%s)"
            % (executor.cache_hits, executor.cache_misses, executor.cache.directory)
        )
    if args.json is not None:
        _write_json(args.json, {"results": documents})
    if failed_claims:
        print("%d claim(s) did not hold" % failed_claims, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
