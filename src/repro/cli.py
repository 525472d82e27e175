"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the common workflows without writing any code:

* ``compare``   — run a workload under the scheduling strategies and
  print the Fig. 10-style JCT table.
* ``report``    — run Fuxi/Spark/DelayStage with metrics tracking and
  print the interleaving-analytics comparison (overlap ratio,
  complementarity, delay-wait shares, utilization bands; optional
  OpenMetrics / CSV exports).
* ``schedule``  — run Algorithm 1 for a workload and print (optionally
  persist) the delay table.
* ``timeline``  — print the stage gantt of a workload under a strategy.
* ``trace-stats`` — generate the trace twin and print the Sec. 2.1
  statistics and Fig. 2/3 CDF summaries.
* ``replay``    — replay trace jobs under Fuxi vs DelayStage and print
  the Fig. 14-style comparison.
* ``verify``    — static validation of workload DAGs, DelayStage
  schedules, delay tables, and cluster specs (exit 1 on ERROR).
* ``inspect``   — summarize (and optionally schema-validate) a trace
  file written with ``--emit-trace``.
* ``bench``     — performance benchmarks with equivalence checks;
  ``--compare DIR`` additionally diffs against committed baselines.

Output contract: every result-printing subcommand accepts ``--json``,
in which case the machine-readable payload (always carrying the run
manifest) is the *only* thing written to stdout; diagnostics go to
stderr.  ``compare``, ``schedule``, and ``replay`` additionally accept
``--emit-trace PATH`` (write a Perfetto-loadable Chrome trace of the
run) and ``--manifest`` (print the run manifest); ``compare`` and
``replay`` accept ``--progress`` (live stderr heartbeat).

``compare``, ``report``, and ``replay`` accept ``--faults PATH`` (a
declarative fault plan, see ``docs/faults.md``) or ``--chaos-seed N``
(a seeded random plan) to run the simulation under injected faults;
``report`` then adds an availability section contrasting healthy and
degraded runs.

The same three commands accept ``--serve [HOST:]PORT`` (live telemetry
over HTTP while the run executes — ``/metrics`` OpenMetrics,
``/healthz``, ``/runs/<id>`` snapshots, ``/events`` JSON lines —
optionally kept up ``--serve-grace`` seconds after results print) and
``--log-json`` (structured JSON log records correlated with the run
manifest hash); ``repro tail URL`` pretty-prints a server's event
stream.  See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis import render_cdf, render_gantt, render_table, stage_gantt
from repro.cluster import alibaba_sim_cluster, ec2_m4large_cluster, uniform_cluster
from repro.core import DelayStageParams, delay_stage_schedule
from repro.core.properties import read_metrics_properties, write_metrics_properties
from repro.obs import ProgressReporter, Tracer, build_manifest, write_chrome_trace
from repro.schedulers import (
    AggShuffleScheduler,
    DelayStageScheduler,
    FuxiScheduler,
    StockSparkScheduler,
    compare_schedulers,
    replay_batch,
    run_with_scheduler,
)
from repro.trace import (
    TraceGeneratorConfig,
    generate_trace,
    parallel_makespan_fraction,
    stage_count_summary,
    to_job,
)
from repro.workloads import workload_by_name
from repro.workloads.library import EXTRA_WORKLOADS, WORKLOADS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.spec import ClusterSpec
    from repro.dag import Job
    from repro.faults import FaultPlan
    from repro.obs import RunManifest

WORKLOAD_CHOICES = ["ALS", "ConnectedComponents", "CosineSimilarity", "LDA", "TriangleCount"]
#: ``repro verify`` also covers the bonus non-paper workloads.
VERIFY_CHOICES = ["ALS", *WORKLOADS, *EXTRA_WORKLOADS]


def _cluster_for(args: argparse.Namespace) -> ClusterSpec:
    if args.workload == "ALS":
        # The motivation setup: three nodes, data co-hosted.
        return uniform_cluster(3, executors_per_worker=2, nic_mbps=450,
                               disk_mb_per_sec=150, storage_nodes=0)
    return ec2_m4large_cluster(args.workers)


def _echo(message: str) -> None:
    """Diagnostic output; stderr so ``--json`` stdout stays parseable."""
    print(message, file=sys.stderr)


def _fault_plan_for(args: argparse.Namespace, cluster: "ClusterSpec",
                    jobs: "list[Job] | None" = None) -> "FaultPlan | None":
    """The fault plan from ``--faults`` / ``--chaos-seed``, or None.

    ``--faults PATH`` loads a declarative plan and validates it against
    the cluster the command is about to simulate; ``--chaos-seed N``
    generates a seeded random plan against that cluster (``jobs`` feeds
    the lost-shuffle-partition event pool).  The two flags are mutually
    exclusive at the parser level.
    """
    path = getattr(args, "faults", None)
    seed = getattr(args, "chaos_seed", None)
    if path is None and seed is None:
        return None
    from repro.faults import FaultPlan, generate_plan

    if path is not None:
        plan = FaultPlan.load(path)
        plan.validate_against(cluster)
        _echo(f"fault plan: {len(plan.events)} event(s) from {path}")
    else:
        plan = generate_plan(cluster, seed, jobs=jobs)
        _echo(f"fault plan: {len(plan.events)} event(s) from chaos seed {seed}")
    return plan


def _fault_manifest_config(args: argparse.Namespace) -> dict:
    """Manifest entries recording how the fault plan was obtained."""
    return {"faults": getattr(args, "faults", None),
            "chaos_seed": getattr(args, "chaos_seed", None)}


def _finish(args: argparse.Namespace, payload: dict, text: str,
            manifest: "RunManifest | None" = None) -> int:
    """Print the human report, or with ``--json`` the payload."""
    if getattr(args, "as_json", False):
        print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    else:
        print(text)
        if manifest is not None and getattr(args, "manifest", False):
            print()
            print(manifest.summary())
    return 0


def _tracer_for(args: argparse.Namespace) -> "Tracer | None":
    return Tracer() if getattr(args, "emit_trace", None) else None


def _parse_serve(spec: str) -> "tuple[str, int]":
    """``[HOST:]PORT`` → (host, port); bare ``PORT`` binds loopback."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        host, port = "", spec
    try:
        port_num = int(port)
    except ValueError:
        raise SystemExit(f"error: --serve expects [HOST:]PORT, got {spec!r}")
    return host or "127.0.0.1", port_num


def _live_for(args: argparse.Namespace, label: str, total_jobs: int,
              run_id: "str | None" = None):
    """Build the ``--progress``/``--serve``/``--log-json`` telemetry plane.

    Returns ``(publisher, hub, server)``; all None when every flag is
    off, so untelemetered runs construct nothing (the zero-cost /
    zero-output guarantee).  ``--progress`` upgrades the publisher to a
    stderr-rendering :class:`ProgressReporter`; ``--serve`` attaches a
    :class:`~repro.obs.live.LiveHub` to the same bus and starts the
    HTTP server (its URL is echoed to stderr — port 0 binds an
    ephemeral port, so read it from there).
    """
    serve = getattr(args, "serve", None)
    want_progress = getattr(args, "progress", False)
    want_log = getattr(args, "log_json", False)
    if serve is None and not want_progress and not want_log:
        return None, None, None
    from repro.obs.live import LiveHub, LiveServer, TelemetryPublisher

    if want_progress:
        publisher = ProgressReporter(label=label, total_jobs=total_jobs,
                                     run_id=run_id)
    else:
        publisher = TelemetryPublisher(label=label, total_jobs=total_jobs,
                                       run_id=run_id)
    hub = server = None
    if serve is not None:
        hub = LiveHub(bus=publisher.bus)
        host, port = _parse_serve(serve)
        server = LiveServer(hub, host=host, port=port).start()
        _echo(f"live telemetry: {server.url}/metrics")
    return publisher, hub, server


def _attach_log(args: argparse.Namespace, publisher,
                manifest: "RunManifest") -> None:
    """``--log-json``: subscribe a structured logger to the run's bus.

    Every record carries the run id and the manifest's config hash, so
    log lines join to traces, reports, and metrics on one key.
    """
    if publisher is None or not getattr(args, "log_json", False):
        return
    from repro.obs.live import StructuredLogger, bus_logger

    logger = StructuredLogger(run=publisher.run_id,
                              manifest=manifest.config_hash)
    publisher.bus.subscribe(bus_logger(logger))


def _live_finish(args: argparse.Namespace, publisher, hub, server,
                 payload: "dict | None" = None,
                 reports: "dict | None" = None) -> None:
    """Tear the telemetry plane down (after results have printed).

    Publishes ``run_finished`` (idempotent), attaches the final result
    payload to the run snapshot and — for ``report`` — the
    InterleavingReports to ``/metrics`` (which is what makes the final
    scrape value-identical to ``repro report --prometheus``), then
    keeps the server up for ``--serve-grace`` seconds so scrapers can
    collect the final state.
    """
    if publisher is not None:
        publisher.close()
    if hub is not None:
        if reports is not None:
            hub.set_reports(reports)
        hub.finish_run(publisher.run_id, payload)
    if server is not None:
        grace = getattr(args, "serve_grace", 0.0) or 0.0
        if grace > 0:
            _echo(f"serving final telemetry for {grace:.0f}s more at "
                  f"{server.url}")
        server.wait(grace)
        server.close()


def _write_trace(args: argparse.Namespace, tracer: "Tracer | None",
                 manifest: "RunManifest") -> None:
    if tracer is None:
        return
    doc = write_chrome_trace(args.emit_trace, tracer, manifest)
    _echo(f"trace written to {args.emit_trace} "
          f"({len(doc['traceEvents'])} events)")


def cmd_compare(args: argparse.Namespace) -> int:
    cluster = _cluster_for(args)
    job = workload_by_name(args.workload, args.scale)
    plan = _fault_plan_for(args, cluster, jobs=[job])
    tracer = _tracer_for(args)
    # Metrics tracking is only needed when the trace is exported — it is
    # what populates the per-node counter tracks (``inspect --counters``)
    # — and it never changes the simulated dynamics.
    track = tracer is not None
    if plan is not None:
        # AggShuffle's pipelined shuffle is incompatible with fault
        # injection, so Fuxi stands in as the immediate-submission
        # baseline; a replanning DelayStage variant joins so recovery
        # with and without Algorithm 1 re-solving can be compared.
        schedulers = [
            StockSparkScheduler(track_metrics=track, fault_plan=plan),
            FuxiScheduler(track_metrics=track, fault_plan=plan),
            DelayStageScheduler(profiled=not args.oracle, track_metrics=track,
                                fault_plan=plan),
            DelayStageScheduler(profiled=not args.oracle, track_metrics=track,
                                fault_plan=plan, replan=True),
        ]
    else:
        schedulers = [
            StockSparkScheduler(track_metrics=track),
            AggShuffleScheduler(track_metrics=track),
            DelayStageScheduler(profiled=not args.oracle, track_metrics=track),
        ]
    manifest = build_manifest(
        seed=0,
        config={"command": "compare", "workload": args.workload,
                "workers": cluster.num_workers, "scale": args.scale,
                "oracle": args.oracle, **_fault_manifest_config(args)},
        jobs=[job],
    )
    publisher, hub, server = _live_for(args, f"compare {args.workload}",
                                       total_jobs=len(schedulers),
                                       run_id="compare")
    _attach_log(args, publisher, manifest)
    if publisher is not None:
        publisher.run_started(workload=args.workload,
                              manifest=manifest.config_hash)
    runs = compare_schedulers(job, cluster, schedulers,
                              tracer=tracer, progress=publisher)
    if publisher is not None:
        publisher.close()
    _write_trace(args, tracer, manifest)
    spark = runs["spark"].jct
    rows = [
        [name, run.jct, f"{1 - run.jct / spark:.1%}"]
        for name, run in runs.items()
    ]
    payload = {
        "command": "compare",
        "workload": args.workload,
        "manifest": manifest.to_dict(),
        "runs": {
            name: {
                "jct_seconds": run.jct,
                "speedup_vs_spark": 1 - run.jct / spark,
                "counters": run.result.counters,
            }
            for name, run in runs.items()
        },
    }
    if plan is not None:
        payload["fault_plan"] = plan.to_dict()
        for name, run in runs.items():
            stats = run.result.faults
            payload["runs"][name]["faults"] = (
                stats.to_dict() if stats is not None else None
            )
    title = f"{args.workload} on {cluster.num_workers} workers"
    if plan is not None:
        title += f" ({len(plan.events)} fault(s) injected)"
    text = render_table(["strategy", "JCT (s)", "vs spark"], rows, title=title)
    ret = _finish(args, payload, text, manifest)
    _live_finish(args, publisher, hub, server, payload=payload)
    return ret


def cmd_report(args: argparse.Namespace) -> int:
    """Interleaving-analytics comparison report (``repro report``)."""
    from repro.obs import (
        interleaving_report,
        render_markdown_report,
        reports_to_csv,
        reports_to_openmetrics,
    )

    cluster = _cluster_for(args)
    job = workload_by_name(args.workload, args.scale)
    plan = _fault_plan_for(args, cluster, jobs=[job])
    manifest = build_manifest(
        seed=0,
        config={"command": "report", "workload": args.workload,
                "workers": cluster.num_workers, "scale": args.scale,
                "oracle": args.oracle, **_fault_manifest_config(args)},
        jobs=[job],
    )
    has_faulty = plan is not None and not plan.is_empty
    publisher, hub, server = _live_for(
        args, f"report {args.workload}",
        total_jobs=6 if has_faulty else 3, run_id="report",
    )
    _attach_log(args, publisher, manifest)
    if publisher is not None:
        publisher.run_started(workload=args.workload,
                              manifest=manifest.config_hash)
    runs = compare_schedulers(
        job,
        cluster,
        [
            FuxiScheduler(track_metrics=True),
            StockSparkScheduler(track_metrics=True),
            DelayStageScheduler(profiled=not args.oracle, track_metrics=True),
        ],
        progress=publisher,
    )
    reports = {
        name: interleaving_report(run.result, job, label=name)
        for name, run in runs.items()
    }
    availability = None
    if has_faulty:
        # The interleaving analytics above stay healthy-run; availability
        # contrasts them with the same schedulers under the fault plan.
        from repro.faults import availability_report

        faulty = compare_schedulers(
            job,
            cluster,
            [
                FuxiScheduler(track_metrics=True, fault_plan=plan),
                StockSparkScheduler(track_metrics=True, fault_plan=plan),
                DelayStageScheduler(profiled=not args.oracle,
                                    track_metrics=True, fault_plan=plan),
            ],
            progress=publisher,
        )
        availability = availability_report(
            {name: run.result for name, run in runs.items()},
            {name: run.result for name, run in faulty.items()},
        )
    if publisher is not None:
        publisher.close()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(reports_to_csv(reports))
        _echo(f"CSV report written to {args.csv}")
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as fh:
            fh.write(reports_to_openmetrics(reports))
        _echo(f"OpenMetrics report written to {args.prometheus}")
    payload = {
        "command": "report",
        "workload": args.workload,
        "manifest": manifest.to_dict(),
        "reports": {name: rep.to_dict() for name, rep in reports.items()},
    }
    text = render_markdown_report(
        reports,
        title=(f"Interleaving report — {args.workload} on "
               f"{cluster.num_workers} workers"),
    )
    if availability is not None:
        from repro.faults import render_availability

        payload["availability"] = [row.to_dict() for row in availability]
        payload["fault_plan"] = plan.to_dict()
        text += "\n\n" + render_availability(availability)
    ret = _finish(args, payload, text, manifest)
    _live_finish(args, publisher, hub, server, payload=payload,
                 reports=reports)
    return ret


def cmd_why(args: argparse.Namespace) -> int:
    """Critical-path blame attribution (``repro why``).

    Runs the same Fuxi/Spark/DelayStage comparison as ``repro report``,
    then walks each finished run's critical path and attributes every
    second of it to one blame category (compute, network, disk,
    delay-wait, contention, fault-retry, dependency) — the categories
    sum to the measured JCT/makespan *bit-for-bit*.  ``--diff`` adds
    the per-category deltas between two runs, making "DelayStage
    converted N seconds of contention into overlap" a first-class
    output.
    """
    from repro.analysis import render_blame_bars
    from repro.obs import (
        blame_diff,
        render_blame_markdown,
        render_diff_markdown,
        run_blame,
    )

    cluster = _cluster_for(args)
    job = workload_by_name(args.workload, args.scale)
    plan = _fault_plan_for(args, cluster, jobs=[job])
    manifest = build_manifest(
        seed=0,
        config={"command": "why", "workload": args.workload,
                "workers": cluster.num_workers, "scale": args.scale,
                "oracle": args.oracle, "diff": args.diff,
                **_fault_manifest_config(args)},
        jobs=[job],
    )
    # Blame reads demand accounting (on by default), not the metrics
    # counters, so the runs skip counter tracking entirely.
    schedulers = [
        FuxiScheduler(track_metrics=False, fault_plan=plan),
        StockSparkScheduler(track_metrics=False, fault_plan=plan),
        DelayStageScheduler(profiled=not args.oracle, track_metrics=False,
                            fault_plan=plan),
    ]
    publisher, hub, server = _live_for(args, f"why {args.workload}",
                                       total_jobs=len(schedulers),
                                       run_id="why")
    _attach_log(args, publisher, manifest)
    if publisher is not None:
        publisher.run_started(workload=args.workload,
                              manifest=manifest.config_hash)
    runs = compare_schedulers(job, cluster, schedulers, progress=publisher)
    blames = {
        name: run_blame(run.result, job, label=name, delays=run.delay_table)
        for name, run in runs.items()
    }
    if publisher is not None:
        for name, blame in blames.items():
            publisher.blame_computed(name, blame.categories,
                                     blame.makespan_seconds,
                                     top_jobs=blame.top_jobs())
        publisher.close()
    for name, blame in blames.items():
        if not blame.identity_exact:  # pragma: no cover - invariant
            _echo(f"warning: blame identity not exact for {name!r}")
    if args.job is not None:
        for name, blame in blames.items():
            if args.job not in blame.jobs:
                _echo(f"error: run {name!r} has no finished job "
                      f"{args.job!r} (jobs: {sorted(blame.jobs)})")
                return 2
    diff = None
    if args.diff:
        for role, name in (("baseline", args.baseline),
                           ("candidate", args.candidate)):
            if name not in blames:
                _echo(f"error: --diff {role} {name!r} is not one of "
                      f"{sorted(blames)}")
                return 2
        diff = blame_diff(blames[args.baseline], blames[args.candidate])

    payload = {
        "command": "why",
        "workload": args.workload,
        "manifest": manifest.to_dict(),
        "blames": {name: blame.to_dict() for name, blame in blames.items()},
    }
    if args.job is not None:
        payload["job"] = args.job
    if diff is not None:
        payload["diff"] = diff.to_dict()

    if args.md:
        text = render_blame_markdown(
            blames,
            title=(f"Critical-path blame — {args.workload} on "
                   f"{cluster.num_workers} workers"),
        )
    else:
        sections = []
        for name, blame in blames.items():
            focus = blame.jobs[args.job] if args.job else None
            total = (focus.jct_seconds if focus is not None
                     else blame.makespan_seconds)
            categories = (focus.categories if focus is not None
                          else blame.categories)
            what = (f"job {args.job} JCT" if focus is not None
                    else f"makespan (job {blame.makespan_job})")
            sections.append(render_blame_bars(
                categories, total,
                title=f"{name}: {what} {total:.1f} s",
            ))
            if focus is not None:
                rows = [
                    [sb.stage_id,
                     f"{sb.finish - sb.start:.1f}",
                     max(sb.seconds, key=lambda c: (sb.seconds[c], c)),
                     "-" if sb.chosen_delay is None
                     else f"{sb.chosen_delay:.1f}",
                     sb.retries]
                    for sb in focus.stages
                ]
                sections.append(render_table(
                    ["stage", "span (s)", "dominant", "chosen delay", "retries"],
                    rows, title=f"{name}: critical chain"))
        text = "\n\n".join(sections)
    if diff is not None:
        text += "\n\n" + render_diff_markdown(diff)
    ret = _finish(args, payload, text, manifest)
    _live_finish(args, publisher, hub, server, payload=payload)
    return ret


def cmd_schedule(args: argparse.Namespace) -> int:
    cluster = _cluster_for(args)
    job = workload_by_name(args.workload, args.scale)
    tracer = _tracer_for(args)
    schedule = delay_stage_schedule(
        job, cluster,
        DelayStageParams(order=args.order, max_slots=args.max_slots),
        tracer=tracer,
    )
    manifest = build_manifest(
        seed=0,
        config={"command": "schedule", "workload": args.workload,
                "workers": cluster.num_workers, "scale": args.scale,
                "order": args.order, "max_slots": args.max_slots},
        jobs=[job],
    )
    _write_trace(args, tracer, manifest)
    if args.output:
        write_metrics_properties(args.output, job.job_id, schedule.delays)
        _echo(f"delay table written to {args.output}")
    rows = [[sid, f"{x:.1f}"] for sid, x in sorted(schedule.delays.items())]
    payload = {
        "command": "schedule",
        "workload": args.workload,
        "manifest": manifest.to_dict(),
        "job_id": job.job_id,
        "delays": {sid: float(x) for sid, x in sorted(schedule.delays.items())},
        "predicted_makespan_seconds": schedule.predicted_makespan,
        "baseline_makespan_seconds": schedule.baseline_makespan,
        "compute_seconds": schedule.compute_seconds,
        "order": args.order,
    }
    text = render_table(
        ["stage", "delay (s)"],
        rows,
        title=(
            f"DelayStage schedule for {args.workload} "
            f"(predicted makespan {schedule.predicted_makespan:.1f} s, "
            f"baseline {schedule.baseline_makespan:.1f} s, "
            f"computed in {schedule.compute_seconds * 1000:.0f} ms)"
        ),
    )
    return _finish(args, payload, text, manifest)


def cmd_timeline(args: argparse.Namespace) -> int:
    cluster = _cluster_for(args)
    job = workload_by_name(args.workload, args.scale)
    scheduler = {
        "spark": StockSparkScheduler(track_metrics=False),
        "aggshuffle": AggShuffleScheduler(track_metrics=False),
        "delaystage": DelayStageScheduler(profiled=not args.oracle, track_metrics=False),
    }[args.strategy]
    run = run_with_scheduler(job, cluster, scheduler)
    rows = stage_gantt(run.result, job.job_id)
    manifest = build_manifest(
        seed=0,
        config={"command": "timeline", "workload": args.workload,
                "workers": cluster.num_workers, "scale": args.scale,
                "strategy": args.strategy, "oracle": args.oracle},
        jobs=[job],
    )
    payload = {
        "command": "timeline",
        "workload": args.workload,
        "manifest": manifest.to_dict(),
        "strategy": args.strategy,
        "jct_seconds": run.jct,
        "counters": run.result.counters,
        "stages": [
            {"stage_id": r.stage_id, "ready": r.ready, "submit": r.submit,
             "read_done": r.read_done, "finish": r.finish}
            for r in rows
        ],
    }
    text = render_gantt(
        rows,
        title=(
            f"{args.workload} under {args.strategy} — JCT {run.jct:.1f} s "
            "(▒ shuffle read, █ processing + write)"
        ),
    )
    return _finish(args, payload, text)


def cmd_bounds(args: argparse.Namespace) -> int:
    from repro.core import delay_stage_schedule, makespan_bounds, optimality_gap
    from repro.core.delaystage import DelayStageParams

    cluster = _cluster_for(args)
    job = workload_by_name(args.workload, args.scale)
    bounds = makespan_bounds(job, cluster)
    schedule = delay_stage_schedule(job, cluster, DelayStageParams(max_slots=args.max_slots))
    gap = optimality_gap(schedule.predicted_makespan, bounds)
    manifest = build_manifest(
        seed=0,
        config={"command": "bounds", "workload": args.workload,
                "workers": cluster.num_workers, "scale": args.scale,
                "max_slots": args.max_slots},
        jobs=[job],
    )
    payload = {
        "command": "bounds",
        "workload": args.workload,
        "manifest": manifest.to_dict(),
        "bounds": {
            "critical_path": bounds.critical_path,
            "cpu_work": bounds.cpu_work,
            "storage_egress": bounds.storage_egress,
            "network_volume": bounds.network_volume,
            "disk_volume": bounds.disk_volume,
            "binding": bounds.binding,
            "bound": bounds.bound,
        },
        "predicted_makespan_seconds": schedule.predicted_makespan,
        "optimality_gap": gap,
    }
    rows = [
        ["critical path", f"{bounds.critical_path:.1f}"],
        ["CPU work", f"{bounds.cpu_work:.1f}"],
        ["storage egress", f"{bounds.storage_egress:.1f}"],
        ["network volume", f"{bounds.network_volume:.1f}"],
        ["disk volume", f"{bounds.disk_volume:.1f}"],
    ]
    text = render_table(
        ["lower bound", "seconds"],
        rows,
        title=(
            f"{args.workload}: makespan bounds (binding: {bounds.binding}); "
            f"Algorithm 1 achieves {schedule.predicted_makespan:.1f} s — "
            f"gap {gap:.1%}"
        ),
    )
    return _finish(args, payload, text)


def cmd_trace_stats(args: argparse.Namespace) -> int:
    trace = generate_trace(TraceGeneratorConfig(num_jobs=args.jobs), rng=args.seed)
    summary = stage_count_summary(trace)
    fr = np.array([f for f in map(parallel_makespan_fraction, trace) if f > 0])
    mean_fraction = float(fr.mean()) if fr.size else 0.0
    manifest = build_manifest(
        seed=args.seed,
        config={"command": "trace-stats", "jobs": args.jobs},
    )
    payload = {
        "command": "trace-stats",
        "manifest": manifest.to_dict(),
        "jobs": len(trace),
        "fraction_jobs_with_parallel": summary.fraction_jobs_with_parallel,
        "parallel_stage_fraction": summary.parallel_stage_fraction,
        "mean_parallel_makespan_fraction": mean_fraction,
    }
    lines = [
        f"jobs: {len(trace)}",
        f"jobs with parallel stages: {summary.fraction_jobs_with_parallel:.1%} (paper 68.6%)",
        f"parallel share of stages:  {summary.parallel_stage_fraction:.1%} (paper 79.1%)",
        f"mean parallel-makespan/JCT: {mean_fraction:.1%} (paper 82.3%)\n",
        render_cdf(
            {"stages/job": summary.stages_per_job, "parallel/job": summary.parallel_per_job},
            title="Fig. 2 — stage counts per job",
        ),
    ]
    return _finish(args, payload, "\n".join(lines))


def cmd_replay(args: argparse.Namespace) -> int:
    cluster = alibaba_sim_cluster(
        num_machines=3, storage_nodes=1, nic_mbps_range=(600, 2000), rng=0
    )
    trace = generate_trace(
        TraceGeneratorConfig(num_jobs=args.jobs * 2, replay_workers=3,
                             max_stages=60, replay_read_mb_per_sec=85.0),
        rng=args.seed,
    )
    jobs = [to_job(tj) for tj in trace[: args.jobs]]
    plan = _fault_plan_for(args, cluster, jobs=jobs)
    tracer = _tracer_for(args)
    if plan is not None and tracer is not None:
        _echo("error: --emit-trace is not supported together with "
              "--faults/--chaos-seed on replay (use compare for a "
              "fault-annotated trace)")
        return 2
    incremental = not getattr(args, "no_incremental", False)
    fuxi = FuxiScheduler(track_metrics=False, contention_penalty=args.penalty,
                         incremental=incremental, fault_plan=plan)
    ds = DelayStageScheduler(
        profiled=False, track_metrics=False, contention_penalty=args.penalty,
        params=DelayStageParams(max_slots=12),
        incremental=incremental, fault_plan=plan,
        replan=plan is not None,
    )
    manifest = build_manifest(
        seed=args.seed,
        config={"command": "replay", "jobs": args.jobs,
                "penalty": args.penalty, **_fault_manifest_config(args)},
        jobs=jobs,
    )
    publisher, hub, server = _live_for(args, "replay",
                                       total_jobs=2 * len(jobs),
                                       run_id="replay")
    _attach_log(args, publisher, manifest)
    if publisher is not None:
        publisher.run_started(jobs=len(jobs), seed=args.seed,
                              manifest=manifest.config_hash)
    fault_summary = None
    if plan is not None:
        from repro.simulator.parallel import replay_outcomes

        done = publisher.shard_done if publisher is not None else None
        out_f = replay_outcomes(jobs, cluster, fuxi, processes=args.parallel,
                                on_shard_done=done)
        out_d = replay_outcomes(jobs, cluster, ds, processes=args.parallel,
                                on_shard_done=done)
        # Compare survivor populations on the jobs both strategies
        # completed; a failed job's "JCT" is its time-to-failure, which
        # would poison the mean.
        both_ok = [i for i in range(len(jobs))
                   if not out_f[i][1] and not out_d[i][1]]
        jct_f = [out_f[i][0] for i in both_ok]
        jct_d = [out_d[i][0] for i in both_ok]
        fault_summary = {
            "plan_events": len(plan.events),
            "jobs_compared": len(both_ok),
            "fuxi": {"jobs_failed": sum(1 for _, failed, _ in out_f if failed),
                     "retries": sum(r for _, _, r in out_f)},
            "delaystage": {"jobs_failed": sum(1 for _, failed, _ in out_d if failed),
                           "retries": sum(r for _, _, r in out_d)},
        }
    else:
        jct_f = replay_batch(jobs, cluster, fuxi, processes=args.parallel,
                             tracer=tracer, progress=publisher)
        jct_d = replay_batch(jobs, cluster, ds, processes=args.parallel,
                             tracer=tracer, progress=publisher)
    if publisher is not None:
        publisher.close()
    _write_trace(args, tracer, manifest)
    improvement = float(1 - np.mean(jct_d) / np.mean(jct_f))
    payload = {
        "command": "replay",
        "manifest": manifest.to_dict(),
        "jobs": len(jobs),
        "penalty": args.penalty,
        "runs": {
            "fuxi": {"mean_jct_seconds": float(np.mean(jct_f)),
                     "median_jct_seconds": float(np.median(jct_f))},
            "delaystage": {"mean_jct_seconds": float(np.mean(jct_d)),
                           "median_jct_seconds": float(np.median(jct_d))},
        },
        "improvement_vs_fuxi": improvement,
    }
    rows = [
        ["fuxi", float(np.mean(jct_f)), float(np.median(jct_f))],
        ["delaystage", float(np.mean(jct_d)), float(np.median(jct_d))],
    ]
    title = f"trace replay — {len(jobs)} jobs (contention penalty {args.penalty})"
    extra = f"\n\nDelayStage vs Fuxi: {improvement:.1%} (paper 36.6%)"
    if fault_summary is not None:
        payload["faults"] = fault_summary
        title = (f"trace replay under faults — {fault_summary['jobs_compared']}"
                 f"/{len(jobs)} jobs completed under both strategies")
        extra = f"\n\nDelayStage vs Fuxi: {improvement:.1%} (faults injected)"
        extra += (
            f"\nfaults: fuxi failed {fault_summary['fuxi']['jobs_failed']} "
            f"job(s) with {fault_summary['fuxi']['retries']} retries; "
            f"delaystage+replan failed "
            f"{fault_summary['delaystage']['jobs_failed']} job(s) with "
            f"{fault_summary['delaystage']['retries']} retries"
        )
    text = render_table(["strategy", "mean JCT (s)", "median (s)"], rows,
                        title=title) + extra
    ret = _finish(args, payload, text, manifest)
    _live_finish(args, publisher, hub, server, payload=payload)
    return ret


def cmd_inspect(args: argparse.Namespace) -> int:
    from repro.obs import (
        counter_track_summary,
        decision_audits,
        delay_tables,
        read_chrome_trace,
        render_counter_summary,
        render_summary,
        validate_chrome_trace,
    )
    from repro.obs.inspect import counters_of, manifest_of

    try:
        doc = read_chrome_trace(args.trace)
    except (OSError, ValueError) as exc:
        _echo(f"error: cannot read trace {args.trace!r}: {exc}")
        return 1
    errors = validate_chrome_trace(doc)
    for err in errors:
        _echo(f"schema: {err}")
    if args.as_json:
        payload = {
            "command": "inspect",
            "trace": args.trace,
            "valid": not errors,
            "schema_errors": errors,
            "manifest": manifest_of(doc),
            "delay_tables": delay_tables(doc),
            "decision_audits": decision_audits(doc),
            "counters": counters_of(doc),
        }
        if args.counters:
            payload["counter_summary"] = counter_track_summary(doc)
        print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    elif args.counters:
        print(render_counter_summary(doc))
    else:
        print(render_summary(doc, max_stages=args.max_stages))
    if args.validate and errors:
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the streaming scheduler daemon (``repro serve``).

    Boots the PR-7 telemetry plane with the service control surface
    attached, optionally plays an open-loop arrival schedule sampled
    from the trace twin, and runs until drained: auto-drain after the
    sampled arrivals finish (or ``--drain-after``), a client's ``POST
    /service/drain``, or the first SIGINT/SIGTERM.  A second signal
    hard-stops without waiting for in-flight jobs.
    """
    import asyncio
    import signal

    from repro.obs.live import LiveHub, LiveServer, TelemetryPublisher
    from repro.service import (
        AdmissionConfig,
        ServiceCore,
        ServiceDaemon,
        WallClock,
    )
    from repro.trace.generator import open_loop_arrivals

    cluster = alibaba_sim_cluster(
        num_machines=3, storage_nodes=1, nic_mbps_range=(600, 2000), rng=0
    )
    trace_cfg = TraceGeneratorConfig(
        num_jobs=max(args.jobs, 1), replay_workers=3, max_stages=60,
        replay_read_mb_per_sec=85.0,
    )
    arrivals = None
    arrival_jobs: "list[Job]" = []
    drain_after = args.drain_after
    if args.jobs > 0:
        schedule = open_loop_arrivals(
            trace_cfg, rng=args.seed, rate_jobs_per_s=args.rate,
            num_jobs=args.jobs,
        )
        arrivals = [(t, to_job(tj, trace_cfg)) for t, tj in schedule]
        arrival_jobs = [job for _, job in arrivals]
        if drain_after is None:
            # Batch-style invocation: drain once the sampled arrivals
            # are in, so the command terminates on its own.
            drain_after = schedule[-1][0]
    plan = _fault_plan_for(args, cluster, jobs=arrival_jobs or None)
    if args.strategy == "fuxi":
        scheduler = FuxiScheduler(track_metrics=False, fault_plan=plan)
    else:
        scheduler = DelayStageScheduler(
            profiled=False, track_metrics=False,
            params=DelayStageParams(max_slots=12),
            fault_plan=plan, replan=plan is not None,
        )
    publisher = TelemetryPublisher(label="serve", run_id="serve",
                                   total_jobs=args.jobs or None)
    core = ServiceCore(
        cluster, scheduler, slots=args.slots,
        admission=AdmissionConfig(max_pending=args.max_pending,
                                  max_stages=args.max_stages),
        publisher=publisher,
    )
    daemon = ServiceDaemon(core, WallClock(scale=args.time_scale),
                           arrivals=arrivals, drain_after=drain_after)
    hub = LiveHub(bus=publisher.bus)
    host, port = _parse_serve(args.bind)
    server = LiveServer(hub, host=host, port=port, control=daemon).start()
    _echo(f"service control: {server.url}/service "
          f"(telemetry at {server.url}/metrics)")
    publisher.run_started(
        jobs=args.jobs or None, seed=args.seed, rate=args.rate,
        slots=args.slots, max_pending=args.max_pending,
        time_scale=args.time_scale, scheduler=scheduler.name,
    )

    async def _run() -> dict:
        loop = asyncio.get_running_loop()

        def on_signal() -> None:
            if not core.draining:
                _echo("serve: drain requested (signal); "
                      "in-flight jobs will finish — signal again to stop")
                daemon.drain()
            else:
                _echo("serve: hard stop")
                daemon.stop()

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, on_signal)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break  # non-main thread / platform without signal support
        return await daemon.run()

    try:
        stats = asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive fallback
        daemon.stop()
        stats = daemon.stats()
    payload = {
        "command": "serve",
        "service": stats,
        "jobs": daemon.jobs_list(),
    }
    if args.snapshot:
        with open(args.snapshot, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        _echo(f"serve: drain snapshot written to {args.snapshot}")
    publisher.close()
    hub.finish_run("serve", {"service": stats})
    grace = args.serve_grace or 0.0
    if grace > 0:
        _echo(f"serving final telemetry for {grace:.0f}s more at {server.url}")
    server.wait(grace)
    server.close()
    counters = stats["counters"]
    jcts = [j["jct"] for j in payload["jobs"] if j.get("jct") is not None]
    rows = [[state, count] for state, count in sorted(stats["states"].items())]
    text = render_table(
        ["state", "jobs"], rows,
        title=(f"serve — {counters['submitted']} submitted, "
               f"{counters['rejected']} shed, peak queue "
               f"{stats['peak_queue_depth']}"),
    )
    if jcts:
        text += (f"\n\nmean JCT {float(np.mean(jcts)):.1f}s over "
                 f"{len(jcts)} completion(s) "
                 f"(service time {stats['now']:.1f}s)")
    return _finish(args, payload, text)


def cmd_tail(args: argparse.Namespace) -> int:
    """Pretty-print a live server's /events stream (``repro tail URL``)."""
    from repro.obs.live import tail

    try:
        count = tail(args.url, max_events=args.max, raw=args.raw,
                     timeout=args.timeout, reconnect=args.reconnect)
    except ValueError as exc:
        _echo(f"error: {exc}")
        return 2
    except OSError as exc:
        _echo(f"error: cannot reach {args.url!r}: {exc}")
        return 1
    _echo(f"tail: {count} event(s)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_benchmarks, write_results

    if getattr(args, "profile", False):
        from repro.bench import profile_benchmarks, write_profiles

        pairs = profile_benchmarks(args.benchmarks, quick=args.quick)
        reports = [report for _, report in pairs]
        # Profiled wall times are distorted (the tracer taxes Python
        # calls, not numpy kernels), so only the hotspot tables and the
        # equivalence bits leave this run — never BENCH json.
        paths = write_profiles(reports, args.out) if args.out else []
        payload = {
            "command": "bench",
            "quick": args.quick,
            "profile": True,
            "results": [
                {"name": rep.name, "equivalent": res.equivalent,
                 "total_calls": rep.total_calls,
                 "profiled_seconds": rep.total_seconds}
                for res, rep in pairs
            ],
            "written": paths,
        }
        lines = [rep.summary() for rep in reports]
        for path in paths:
            lines.append(f"wrote {path}")
        ok = all(res.equivalent for res, _ in pairs)
        if not ok:
            lines.append("FAIL: optimized and escape-hatch results differ")
        _finish(args, payload, "\n".join(lines))
        return 0 if ok else 1

    results = run_benchmarks(args.benchmarks, quick=args.quick)
    paths = write_results(results, args.out) if args.out else []
    payload = {
        "command": "bench",
        "quick": args.quick,
        "results": [r.to_dict() for r in results],
        "written": paths,
    }
    lines = [r.summary() for r in results]
    for path in paths:
        lines.append(f"wrote {path}")
    ok = all(r.equivalent for r in results)
    if args.compare:
        from repro.bench import (
            compare_to_baselines,
            has_failures,
            render_findings,
        )

        findings = compare_to_baselines(
            results, args.compare, wall_threshold=args.threshold
        )
        payload["watchdog"] = {
            "baseline_dir": args.compare,
            "threshold": args.threshold,
            "findings": [
                {"name": f.name, "severity": f.severity, "message": f.message}
                for f in findings
            ],
        }
        lines.append(render_findings(findings))
        ok = ok and not has_failures(findings)
    if not all(r.equivalent for r in results):
        lines.append("FAIL: optimized and escape-hatch results differ")
    _finish(args, payload, "\n".join(lines))
    return 0 if ok else 1


def _verify_workload(name: str, scale: float) -> "Job":
    if name in EXTRA_WORKLOADS:
        return EXTRA_WORKLOADS[name](scale)
    return workload_by_name(name, scale)


def _cmd_verify_flow(args: argparse.Namespace) -> int:
    """``repro verify --flow``: whole-program determinism analysis."""
    from repro.verify.flow import FlowConfig, analyze_project
    from repro.verify.flow.analyzer import default_baseline_path

    baseline = args.flow_baseline or default_baseline_path()
    config = FlowConfig(baseline_path=baseline, cache_dir=args.flow_cache)
    result = analyze_project(args.flow_root, config=config)
    if args.as_json:
        print(json.dumps(result.to_payload(), indent=2))
    else:
        print(result.render())
    return 0 if result.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    if args.flow:
        return _cmd_verify_flow(args)

    from repro.verify import (
        Finding,
        Report,
        Severity,
        validate_cluster,
        validate_delay_table,
        validate_job,
        validate_schedule,
    )

    names = args.workloads or VERIFY_CHOICES
    delay_tables: dict[str, dict[str, float]] = {}
    if args.delays:
        try:
            delay_tables = read_metrics_properties(args.delays)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read delay table {args.delays!r}: {exc}",
                  file=sys.stderr)
            return 1
    matched_jobs: set[str] = set()

    reports: list[tuple[str, Report]] = []
    for name in names:
        ns = argparse.Namespace(workload=name, workers=args.workers)
        cluster = _cluster_for(ns)
        job = _verify_workload(name, args.scale)
        report = Report()
        report.extend(validate_cluster(cluster))
        report.extend(validate_job(job))
        if args.schedule:
            schedule = delay_stage_schedule(
                job, cluster, DelayStageParams(max_slots=args.max_slots)
            )
            report.extend(validate_schedule(schedule, job))
        if job.job_id in delay_tables:
            matched_jobs.add(job.job_id)
            report.extend(validate_delay_table(job, delay_tables[job.job_id]))
        reports.append((name, report))

    for job_id in sorted(set(delay_tables) - matched_jobs):
        orphan = Report()
        orphan.add(Finding(
            rule="V000", severity=Severity.ERROR, subject=f"delays:{job_id}",
            message=f"delay table names job {job_id!r}, which matches no "
                    "verified workload",
        ))
        reports.append((f"delays:{job_id}", orphan))

    any_errors = any(not rep.ok for _, rep in reports)
    if args.as_json:
        payload = {
            "ok": not any_errors,
            "targets": {
                name: json.loads(rep.to_json(indent=None))
                for name, rep in reports
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, rep in reports:
            status = "OK" if rep.ok else "FAIL"
            print(f"{name}: {status} ({len(rep)} finding(s))")
            for finding in rep:
                print(f"  {finding}")
        total = sum(len(rep) for _, rep in reports)
        print(f"\nverified {len(reports)} target(s), {total} finding(s), "
              f"{'ERRORS PRESENT' if any_errors else 'no errors'}")
    return 1 if any_errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DelayStage (ICPP 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", choices=WORKLOAD_CHOICES, default="CosineSimilarity")
        p.add_argument("--workers", type=int, default=30, help="EC2 worker count")
        p.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")

    def add_json_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a machine-readable payload on stdout")

    def add_trace_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--emit-trace", metavar="PATH", dest="emit_trace",
                       help="write a Perfetto-loadable Chrome trace here")
        p.add_argument("--manifest", action="store_true",
                       help="also print the run manifest (seeds, config hash)")

    def add_progress_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--progress", action="store_true",
                       help="stream a live heartbeat (jobs done, events/s, "
                            "running makespan, ETA) to stderr")

    def add_serve_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--serve", metavar="[HOST:]PORT",
                       help="serve live telemetry over HTTP during the run: "
                            "/metrics (OpenMetrics), /healthz, /runs/<id> "
                            "(JSON snapshot), /events (JSON lines); port 0 "
                            "binds an ephemeral port (URL echoed on stderr)")
        p.add_argument("--serve-grace", type=float, default=0.0,
                       dest="serve_grace", metavar="SECONDS",
                       help="keep the telemetry server up this long after "
                            "results print, so scrapers can collect the "
                            "final state")
        p.add_argument("--log-json", action="store_true", dest="log_json",
                       help="emit structured JSON log records (one per run "
                            "event, correlated with the manifest hash) to "
                            "stderr")

    def add_faults_args(p: argparse.ArgumentParser) -> None:
        g = p.add_mutually_exclusive_group()
        g.add_argument("--faults", metavar="PATH",
                       help="inject faults from this declarative plan "
                            "(JSON; see docs/faults.md)")
        g.add_argument("--chaos-seed", type=int, dest="chaos_seed",
                       metavar="N",
                       help="inject a seeded random fault plan (same N, "
                            "same faults, same results)")

    p = sub.add_parser("compare", help="JCT under Spark/AggShuffle/DelayStage")
    add_workload_args(p)
    p.add_argument("--oracle", action="store_true",
                   help="plan on true parameters instead of profiling")
    add_faults_args(p)
    add_json_arg(p)
    add_trace_args(p)
    add_progress_arg(p)
    add_serve_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "report",
        help="interleaving analytics under Fuxi/Spark/DelayStage "
             "(overlap, complementarity, delay-wait, utilization bands)",
    )
    add_workload_args(p)
    p.add_argument("--oracle", action="store_true",
                   help="plan on true parameters instead of profiling")
    p.add_argument("--csv", metavar="PATH",
                   help="also write the report as CSV here")
    p.add_argument("--prometheus", metavar="PATH",
                   help="also write Prometheus/OpenMetrics text here")
    add_faults_args(p)
    add_json_arg(p)
    add_progress_arg(p)
    add_serve_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "why",
        help="critical-path blame: where each second of JCT/makespan "
             "went (exact per-category decomposition, optional "
             "cross-scheduler diff)",
    )
    add_workload_args(p)
    p.add_argument("--oracle", action="store_true",
                   help="plan on true parameters instead of profiling")
    p.add_argument("--job", default=None, metavar="ID",
                   help="blame one job's JCT instead of the makespan "
                        "(also prints its critical chain)")
    p.add_argument("--md", action="store_true",
                   help="full markdown blame tables instead of the "
                        "bar view")
    p.add_argument("--diff", action="store_true",
                   help="report per-category savings of --candidate "
                        "over --baseline")
    p.add_argument("--baseline", default="fuxi",
                   choices=["fuxi", "spark", "delaystage"],
                   help="diff baseline run (default: fuxi)")
    p.add_argument("--candidate", default="delaystage",
                   choices=["fuxi", "spark", "delaystage"],
                   help="diff candidate run (default: delaystage)")
    add_faults_args(p)
    add_json_arg(p)
    add_progress_arg(p)
    add_serve_args(p)
    p.set_defaults(func=cmd_why)

    p = sub.add_parser("schedule", help="compute a DelayStage delay table")
    add_workload_args(p)
    p.add_argument("--order", choices=["descending", "random", "ascending"],
                   default="descending")
    p.add_argument("--max-slots", type=int, default=48, dest="max_slots")
    p.add_argument("--output", help="write metrics.properties here")
    add_json_arg(p)
    add_trace_args(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("timeline", help="print a stage gantt")
    add_workload_args(p)
    p.add_argument("--strategy", choices=["spark", "aggshuffle", "delaystage"],
                   default="delaystage")
    p.add_argument("--oracle", action="store_true")
    add_json_arg(p)
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("bounds", help="makespan lower bounds + Alg. 1 gap")
    add_workload_args(p)
    p.add_argument("--max-slots", type=int, default=24, dest="max_slots")
    add_json_arg(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("trace-stats", help="trace-twin statistics (Figs. 2-3)")
    p.add_argument("--jobs", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    add_json_arg(p)
    p.set_defaults(func=cmd_trace_stats)

    p = sub.add_parser("replay", help="Fig. 14-style trace replay")
    p.add_argument("--jobs", type=int, default=40)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--penalty", type=float, default=0.5)
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="replay worker processes (results identical "
                        "for any N; --emit-trace forces serial)")
    p.add_argument("--no-incremental", action="store_true",
                   help="bisection switch: full fair-share re-solve on "
                        "every event (results identical, slower)")
    add_faults_args(p)
    add_json_arg(p)
    add_trace_args(p)
    add_progress_arg(p)
    add_serve_args(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "serve",
        help="run the streaming scheduler daemon (online DelayStage over "
             "open-loop arrivals, with HTTP submit/status/cancel/drain)",
    )
    p.add_argument("--bind", metavar="[HOST:]PORT", default="127.0.0.1:0",
                   help="bind the control + telemetry server here "
                        "(default: loopback, ephemeral port echoed on "
                        "stderr)")
    p.add_argument("--jobs", type=int, default=0, metavar="N",
                   help="sample N open-loop arrivals from the trace twin "
                        "(default 0: jobs arrive only via POST "
                        "/service/submit)")
    p.add_argument("--rate", type=float, default=0.05, metavar="JOBS_PER_S",
                   help="Poisson arrival rate for --jobs, in service "
                        "seconds (crank past the service rate to reach "
                        "overload)")
    p.add_argument("--seed", type=int, default=0,
                   help="trace twin + arrival sampling seed")
    p.add_argument("--slots", type=int, default=2,
                   help="concurrent dispatch slots")
    p.add_argument("--max-pending", type=int, default=64, dest="max_pending",
                   metavar="N",
                   help="bounded pending queue; submissions beyond it are "
                        "shed with a typed queue_full rejection (HTTP 429)")
    p.add_argument("--max-stages", type=int, default=None, dest="max_stages",
                   metavar="N",
                   help="reject DAGs with more stages than this (413)")
    p.add_argument("--strategy", choices=["delaystage", "fuxi"],
                   default="delaystage",
                   help="online scheduling strategy (default delaystage)")
    p.add_argument("--time-scale", type=float, default=1.0,
                   dest="time_scale", metavar="X",
                   help="service seconds per wall second (600 compresses "
                        "ten simulated minutes into each real second)")
    p.add_argument("--drain-after", type=float, default=None,
                   dest="drain_after", metavar="T",
                   help="auto-drain once service time passes T and the "
                        "arrival schedule is exhausted (default with "
                        "--jobs: right after the last sampled arrival)")
    p.add_argument("--snapshot", metavar="PATH",
                   help="write the drain snapshot (service stats + every "
                        "retained job record) here as JSON")
    p.add_argument("--serve-grace", type=float, default=0.0,
                   dest="serve_grace", metavar="SECONDS",
                   help="keep the telemetry server up this long after the "
                        "drain completes")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the drain snapshot on stdout")
    add_faults_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "tail", help="pretty-print a live server's /events stream"
    )
    p.add_argument("url", help="server URL (HOST:PORT, or a full "
                               "http://HOST:PORT/events URL)")
    p.add_argument("--max", type=int, default=None, metavar="N",
                   help="stop after N events (default: until the server "
                        "closes the stream)")
    p.add_argument("--raw", action="store_true",
                   help="print the JSON lines untouched (for jq)")
    p.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS",
                   help="connect/read timeout")
    p.add_argument("--reconnect", type=int, default=0, metavar="N",
                   help="survive dropped streams: retry up to N "
                        "consecutive times with capped backoff, resuming "
                        "at the last seen event (no duplicates)")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser(
        "inspect", help="summarize / validate a trace written with --emit-trace"
    )
    p.add_argument("trace", help="Chrome trace JSON file to inspect")
    p.add_argument("--validate", action="store_true",
                   help="exit 1 if the trace fails schema validation")
    p.add_argument("--max-stages", type=int, default=50, dest="max_stages",
                   help="root spans to show in the tree summary")
    p.add_argument("--counters", action="store_true",
                   help="per-track min/mean/max/last summary of the "
                        "counter samples")
    add_json_arg(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "bench", help="performance benchmarks with equivalence checks"
    )
    p.add_argument("--bench", action="append", dest="benchmarks",
                   metavar="NAME", choices=["realloc", "alg1", "replay"],
                   help="benchmark to run (repeatable; default: all)")
    p.add_argument("--quick", action="store_true",
                   help="smaller inputs / fewer repeats (CI mode)")
    p.add_argument("--out", default="benchmarks/perf", metavar="DIR",
                   help="directory for BENCH_<name>.json "
                        "(empty string: don't write)")
    p.add_argument("--compare", metavar="DIR",
                   help="watchdog: diff fresh results against the "
                        "BENCH_*.json baselines in DIR; exit 1 on a "
                        "wall-time regression past the threshold or an "
                        "equivalence break")
    p.add_argument("--threshold", type=float, default=1.5,
                   help="watchdog wall-time regression factor "
                        "(default: 1.5x; only applied to baselines "
                        "with comparable inputs)")
    p.add_argument("--profile", action="store_true",
                   help="run each bench under cProfile and write "
                        "PROFILE_<name>.txt hotspot tables to --out "
                        "instead of BENCH json (profiled wall times "
                        "are distorted and never archived)")
    add_json_arg(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "verify", help="validate workload DAGs, schedules, and clusters"
    )
    p.add_argument("--workload", action="append", choices=VERIFY_CHOICES,
                   dest="workloads", metavar="NAME",
                   help="workload to verify (repeatable; default: all)")
    p.add_argument("--workers", type=int, default=30, help="EC2 worker count")
    p.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    p.add_argument("--schedule", action="store_true",
                   help="also run Algorithm 1 and validate its schedule")
    p.add_argument("--max-slots", type=int, default=48, dest="max_slots")
    p.add_argument("--delays",
                   help="metrics.properties file to validate against the DAGs")
    p.add_argument("--flow", action="store_true",
                   help="run the whole-program determinism & concurrency "
                        "analyzer over the repro package instead of the "
                        "workload validators; exit 1 iff unsuppressed "
                        "findings (see docs/verification.md)")
    p.add_argument("--flow-root", metavar="DIR", dest="flow_root",
                   help="analyze this directory instead of the installed "
                        "repro package (with --flow)")
    p.add_argument("--flow-baseline", metavar="PATH", dest="flow_baseline",
                   help="baseline suppression file (default: the committed "
                        "tools/flow_baseline.json when present)")
    p.add_argument("--flow-cache", metavar="DIR", dest="flow_cache",
                   help="cache extracted module summaries here, keyed by "
                        "file content hash (used by CI)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit a machine-readable report")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
