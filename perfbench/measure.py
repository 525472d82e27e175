"""Untraced and traced measurement of one workload.

``untraced`` gives the end-to-end metrics: it processes the workload's
whole input set once, then keeps re-timing it from the start until
``seconds`` have passed, and reports per-item medians.  ``traced``
gives the per-layer metrics: one untraced pass, then one pass with the
layers wrapped by :mod:`ledger`; the difference of the two is the
tracing overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import inputs
import workloads as wl
from ledger import Ledger, instrument
from workloads import Checks, clock, median, percentile

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "p50_ms": "ms",
    "sim_jct_s": "s",
}

FIG15_BUCKETS = ((1, 7), (8, 15), (16, 49), (50, 60))
FIG15_PARTS = ("core", "model", "fairshare")

PER_LAYER = {
    "trace.generate_s": "s",
    "trace.jobs": "count",
    "trace.stages": "count",
    "core.plan_calls": "count",
    "core.self_s": "s",
    "core.evaluations": "count",
    "core.cache_hits": "count",
    "core.pruned_by_bound": "count",
    "core.horizon_rejected": "count",
    "core.stages_delayed": "count",
    "model.probe_calls": "count",
    "model.eval_calls": "count",
    "model.self_s": "s",
    "model.probe_events": "count",
    "model.us_per_probe_event": "us",
    "simulator.run_calls": "count",
    "simulator.self_s": "s",
    "simulator.events": "count",
    "simulator.max_active_items": "count",
    "simulator.us_per_event": "us",
    "fairshare.calls": "count",
    "fairshare.s": "s",
    "fairshare.full_allocations": "count",
    "fairshare.incremental_allocations": "count",
    "metrics.observe_calls": "count",
    "metrics.observe_s": "s",
    "obs.report_s": "s",
    "obs.blame_s": "s",
    "service.submit_us": "us",
    "service.dispatch_self_s": "s",
    "service.admitted": "count",
    "service.rejected.duplicate": "count",
    "service.rejected.draining": "count",
    "service.rejected.too_large": "count",
    "service.rejected.queue_full": "count",
    "service.peak_queue": "count",
    "live.bus_events": "count",
    "live.scrapes": "count",
    "live.render_ms": "ms",
    "live.scrape_bytes": "bytes",
    "serve.late_ms": "ms",
    "serve.late_max_ms": "ms",
    "tail.p95_ms": "ms",
    "trace_overhead_pct": "%",
}
for _lo, _hi in FIG15_BUCKETS:
    for _part in FIG15_PARTS:
        PER_LAYER[f"fig15.stages_{_lo}_{_hi}.{_part}_ms"] = "ms"


@dataclass
class Result:
    checks: Checks
    metrics: dict = field(default_factory=dict)
    #: Workload-specific figures printed beside the metrics.
    extra: dict = field(default_factory=dict)
    extra_units: dict = field(default_factory=dict)
    lines: "list[str]" = field(default_factory=list)

    def note(self, name: str, value: float, unit: str) -> None:
        self.extra[name] = value
        self.extra_units[name] = unit


def _latency(result: Result, samples_s) -> None:
    result.metrics["p50_ms"] = 1e3 * median(samples_s)
    result.note("p95_ms", 1e3 * percentile(samples_s, 95.0), "ms")
    result.note("latency_samples", len(samples_s), "count")


# -- untraced -------------------------------------------------------- #


def untraced(workload: str, seed: int, seconds: float,
             reference: dict) -> Result:
    if workload == "replay":
        return _replay(seed, seconds, reference)
    return {"cluster": _cluster, "serve": _serve}[workload](seed, seconds)


def _replay(seed, seconds, reference) -> Result:
    checks = Checks()
    result = Result(checks)
    inp = inputs.build(seed, wl.REPLAY_JOBS)
    cluster = inp.cluster
    ds, fuxi = wl.replay_schedulers()
    deadline = time.perf_counter() + seconds
    first = [wl.replay_job(job, cluster, ds, fuxi, checks) for job in inp.jobs]
    plan = [[r.plan_s] for r in first]
    whole = [[r.job_s] for r in first]
    k = 0
    while time.perf_counter() < deadline:
        i = k % len(first)
        again = wl.replay_job(inp.jobs[i], cluster, ds, fuxi, checks)
        checks.check(
            (again.jct_ds, again.jct_fuxi) == (first[i].jct_ds, first[i].jct_fuxi),
            f"replay {inp.jobs[i].job_id}: rerun JCT differs",
        )
        plan[i].append(again.plan_s)
        whole[i].append(again.job_s)
        k += 1

    jcts = [x for r in first for x in (r.jct_ds, r.jct_fuxi)]
    digest = wl.jct_digest(jcts)
    known = reference.get("replay", {}).get(str(seed))
    if known is not None:
        checks.check(digest == known,
                     f"replay JCT digest {digest} != reference {known}")
    else:
        result.lines.append(f"note: no recorded JCT digest for seed {seed}")
    mean_ds = sum(r.jct_ds for r in first) / len(first)
    mean_fuxi = sum(r.jct_fuxi for r in first) / len(first)

    result.metrics["setup_s"] = inp.setup_s
    result.metrics["jobs_per_s"] = len(first) / sum(median(s) for s in whole)
    _latency(result, [median(s) for s in plan])
    result.metrics["sim_jct_s"] = mean_ds
    result.note("jobs", len(first), "count")
    result.note("retimed_jobs", k, "count")
    result.note("jct_reduction_pct", 100.0 * (1.0 - mean_ds / mean_fuxi), "%")
    result.note("fuxi_mean_jct_s", mean_fuxi, "s")
    result.lines.append(f"replay JCT digest {digest}")
    return result


def _cluster(seed, seconds) -> Result:
    checks = Checks()
    result = Result(checks)
    inp = inputs.build(seed, wl.CLUSTER_BATCHES * wl.CLUSTER_BATCH_JOBS)
    batches = wl.cluster_batches(inp.jobs)
    deadline = time.perf_counter() + seconds
    first = wl.cluster_pass(batches, inp.cluster, checks)
    total = [[b.total_s] for b in first]
    simulate = [[b.simulate_s] for b in first]
    k = 0
    while time.perf_counter() < deadline:
        i = k % len(batches)
        again = wl.cluster_batch(batches[i], inp.cluster, checks)
        checks.check(again.jcts == first[i].jcts,
                     f"cluster batch {i}: rerun JCTs differ")
        total[i].append(again.total_s)
        simulate[i].append(again.simulate_s)
        k += 1

    jobs = sum(len(b) for b in batches)
    jcts = [x for b in first for x in b.jcts]
    # Every job of a batch is due when the batch starts and its result
    # exists when the shared simulation returns.
    latency = [median(simulate[i]) for i, b in enumerate(batches) for _ in b]
    result.metrics["setup_s"] = inp.setup_s
    result.metrics["jobs_per_s"] = jobs / sum(median(s) for s in total)
    _latency(result, latency)
    result.metrics["sim_jct_s"] = sum(jcts) / len(jcts)
    result.note("jobs", jobs, "count")
    result.note("batch_run_s", median([median(s) for s in total]), "s")
    result.note("rerun_batches", k, "count")
    result.lines.append(f"cluster JCT digest {wl.jct_digest(jcts)}")
    return result


def _serve_inputs(seed, seconds):
    n = max(int(round(wl.SERVE_JOBS_PER_S * seconds)), 1)
    inp = inputs.build(seed, n)
    return inp, wl.serve_arrivals(seed, inp.jobs)


def _serve_offline(inp, run: "wl.ServePass", checks: Checks, result: Result):
    """Check service JCTs against offline replays; return events."""
    from repro.schedulers import FuxiScheduler

    offline, events = wl.offline_jcts(inp.jobs, inp.cluster,
                                      wl.serve_scheduler())
    for job in inp.jobs:
        checks.check(run.jcts.get(job.job_id) == offline[job.job_id],
                     f"serve {job.job_id}: service JCT "
                     f"{run.jcts.get(job.job_id)} != offline "
                     f"{offline[job.job_id]}")
    fuxi, _ = wl.offline_jcts(inp.jobs, inp.cluster,
                              FuxiScheduler(track_metrics=False))
    mean_ds = sum(offline.values()) / len(offline)
    mean_fuxi = sum(fuxi.values()) / len(fuxi)
    result.note("jct_reduction_pct", 100.0 * (1.0 - mean_ds / mean_fuxi), "%")
    return events


def _serve(seed, seconds) -> Result:
    checks = Checks()
    result = Result(checks)
    inp, arrivals = _serve_inputs(seed, seconds)
    run = wl.serve_pass(arrivals, inp.cluster, checks)
    _serve_offline(inp, run, checks, result)
    jcts = [x for x in run.jcts.values() if x is not None]
    result.metrics["setup_s"] = inp.setup_s
    result.metrics["jobs_per_s"] = len(arrivals) / run.busy_s
    _latency(result, run.ready_s)
    result.metrics["sim_jct_s"] = sum(jcts) / max(len(jcts), 1)
    result.note("late_p50_ms", 1e3 * median(run.late_s), "ms")
    result.note("late_max_ms", 1e3 * max(run.late_s), "ms")
    result.note("scrapes", len(run.render_s), "count")
    return result


# -- traced ---------------------------------------------------------- #


def traced(workload: str, seed: int, seconds: float) -> Result:
    checks = Checks()
    result = Result(checks)
    ledger = Ledger()
    m = {name: 0.0 for name in PER_LAYER}

    if workload == "replay":
        inp = inputs.build(seed, wl.REPLAY_JOBS)
        t0 = clock()
        base = wl.replay_pass(inp, checks)
        busy_u = clock() - t0
        with instrument(ledger):
            t0 = clock()
            again = wl.replay_pass(inp, checks)
            busy_t = clock() - t0
        events_u = sum(r.events for r in base)
        latency = [r.plan_s for r in base]
        same = [(r.jct_ds, r.jct_fuxi) for r in base] == [
            (r.jct_ds, r.jct_fuxi) for r in again]
    elif workload == "cluster":
        inp = inputs.build(seed, wl.CLUSTER_BATCHES * wl.CLUSTER_BATCH_JOBS)
        batches = wl.cluster_batches(inp.jobs)
        t0 = clock()
        base = wl.cluster_pass(batches, inp.cluster, checks)
        busy_u = clock() - t0
        with instrument(ledger):
            t0 = clock()
            again = wl.cluster_pass(batches, inp.cluster, checks)
            busy_t = clock() - t0
        events_u = sum(b.events for b in base)
        latency = [b.simulate_s for b in base for _ in b.jcts]
        same = [b.jcts for b in base] == [b.jcts for b in again]
        m["obs.report_s"] = sum(b.report_s for b in again)
        m["obs.blame_s"] = sum(b.blame_s for b in again)
    else:
        inp, arrivals = _serve_inputs(seed, seconds)
        base = wl.serve_pass(arrivals, inp.cluster, checks)
        events_u = _serve_offline(inp, base, checks, result)
        with instrument(ledger):
            again = wl.serve_pass(arrivals, inp.cluster, checks, ledger)
        # The pass length includes idle gaps set by the arrival
        # schedule; compare the service's busy time instead.
        busy_u, busy_t = base.busy_s, again.busy_s
        latency = base.ready_s
        same = base.jcts == again.jcts
        stats = again.stats
        m["service.submit_us"] = 1e6 * median(again.submit_s)
        m["service.dispatch_self_s"] = ledger.self_s["service"]
        m["service.admitted"] = stats["counters"]["admitted"]
        for reason, count in stats["rejected_by_reason"].items():
            m[f"service.rejected.{reason}"] = count
        m["service.peak_queue"] = stats["peak_queue_depth"]
        m["live.bus_events"] = again.bus_events
        m["live.scrapes"] = len(again.render_s)
        m["live.render_ms"] = 1e3 * median(again.render_s)
        m["live.scrape_bytes"] = median(again.scrape_bytes)
        m["serve.late_ms"] = 1e3 * median(again.late_s)
        m["serve.late_max_ms"] = 1e3 * max(again.late_s)

    counts = ledger.counts
    checks.check(same, "traced pass JCTs differ from the untraced pass")
    checks.check(counts["simulator.events"] == events_u,
                 f"traced simulator.events {counts['simulator.events']} != "
                 f"untraced engine_events {events_u}")
    m["trace.generate_s"] = inp.setup_s
    m["trace.jobs"] = len(inp.jobs)
    m["trace.stages"] = sum(job.num_stages for job in inp.jobs)
    for name, value in counts.items():
        if name in PER_LAYER:
            m[name] = value
    m["metrics.observe_calls"] = counts["metrics.calls"]
    m["core.self_s"] = ledger.self_s["core"]
    m["model.self_s"] = ledger.self_s["model"]
    m["simulator.self_s"] = ledger.self_s["simulator"]
    m["fairshare.s"] = ledger.self_s["fairshare"]
    m["metrics.observe_s"] = ledger.self_s["metrics"]
    if counts["model.probe_events"]:
        m["model.us_per_probe_event"] = (
            1e6 * ledger.busy_s["model"] / counts["model.probe_events"])
    if counts["simulator.events"]:
        m["simulator.us_per_event"] = (
            1e6 * ledger.busy_s["simulator"] / counts["simulator.events"])
    m["tail.p95_ms"] = 1e3 * percentile(latency, 95.0)
    m["trace_overhead_pct"] = 100.0 * (busy_t - busy_u) / busy_u
    _fig15(ledger, m, result)

    result.metrics = m
    result.note("untraced_pass_s", busy_u, "s")
    result.note("traced_pass_s", busy_t, "s")
    result.lines.append(f"ledger digest {ledger.digest()} "
                        f"(deterministic counts: {len(counts)})")
    return result


def _fig15(ledger: Ledger, m: dict, result: Result) -> None:
    """Plan time per stage-count bucket, split by layer (Fig. 15)."""
    result.lines.append("Fig. 15 by layer: mean ms per plan "
                        "(core self | model self | fairshare)")
    for lo, hi in FIG15_BUCKETS:
        rows = [p for p in ledger.plans if lo <= p["stages"] <= hi]
        for part in FIG15_PARTS:
            m[f"fig15.stages_{lo}_{hi}.{part}_ms"] = (
                1e3 * sum(p[part] for p in rows) / len(rows) if rows else 0.0)
        if rows:
            total = 1e3 * sum(p["total"] for p in rows) / len(rows)
            result.lines.append(
                f"  stages {lo:>2}-{hi:<2} plans {len(rows):>4}  "
                f"total {total:9.2f}  " + " | ".join(
                    f"{m[f'fig15.stages_{lo}_{hi}.{part}_ms']:8.2f}"
                    for part in FIG15_PARTS))

