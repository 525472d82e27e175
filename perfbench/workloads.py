"""The three workloads: ``replay``, ``cluster`` and ``serve``.

Each workload has a fixed input set per seed (see :mod:`inputs`) and
one *pass* function that processes it through the public API on this
single thread.  A pass returns its host timings, its simulated
results, and the output checks it made.  The untraced run repeats
work until ``--seconds`` have passed and reports medians; the traced
run makes one untraced pass and one pass under :func:`ledger.instrument`
so the two host times give the tracing overhead.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from dataclasses import dataclass, field

#: Host time is the CPU time of this thread: the benchmark is single
#: threaded and compute bound, so on an idle host it equals wall time,
#: while time the OS gives to other tenants' processes is left out.
clock = time.thread_time

#: Replay batch size (DelayStage + Fuxi per job, serially).
REPLAY_JOBS = 400
#: Cluster batches and jobs per batch (one shared simulation each).
CLUSTER_BATCHES = 4
CLUSTER_BATCH_JOBS = 100
#: Open-loop arrival rate of the serve workload, jobs per host second.
SERVE_RATE = 3.0
#: Serve arrivals per second of ``--seconds``.  One arrival costs about
#: 60 ms of service work on a 2-vCPU x86 VM, and the offline check
#: replays each arrival once more, so the run takes about 1.2x
#: ``--seconds``.
SERVE_JOBS_PER_S = 10
#: Host seconds between two in-process ``/metrics`` scrapes.
SCRAPE_EVERY_S = 1.0


class Checks:
    """Output checks: each is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: "list[str]" = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def jct_digest(jcts) -> str:
    """SHA-256 over the exact bits of a JCT sequence."""
    blob = b"".join(struct.pack("<d", float(x)) for x in jcts)
    return hashlib.sha256(blob).hexdigest()[:16]


def percentile(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q))


def median(samples) -> float:
    return percentile(samples, 50.0)


# -- replay ---------------------------------------------------------- #


def replay_schedulers():
    """The ``repro replay`` pair: Fuxi and DelayStage, penalty 0.5."""
    from repro.core.delaystage import DelayStageParams
    from repro.schedulers import DelayStageScheduler, FuxiScheduler

    ds = DelayStageScheduler(
        profiled=False, track_metrics=False, contention_penalty=0.5,
        params=DelayStageParams(max_slots=12),
    )
    fuxi = FuxiScheduler(track_metrics=False, contention_penalty=0.5)
    return ds, fuxi


@dataclass
class ReplayJob:
    plan_s: float
    job_s: float
    jct_ds: float
    jct_fuxi: float
    events: int


def replay_job(job, cluster, ds, fuxi, checks: Checks) -> ReplayJob:
    """Plan and run one job under DelayStage, then run it under Fuxi."""
    from repro.simulator.simulation import Simulation
    from repro.verify import validate_schedule

    t0 = clock()
    prepared = ds.prepare(job, cluster)
    t1 = clock()
    sim = Simulation(cluster, prepared.config)
    sim.add_job(job, prepared.policy)
    result_ds = sim.run()
    base = fuxi.prepare(job, cluster)
    sim = Simulation(cluster, base.config)
    sim.add_job(job, base.policy)
    result_fuxi = sim.run()
    t2 = clock()
    jct_ds = result_ds.job_completion_time(job.job_id)
    jct_fuxi = result_fuxi.job_completion_time(job.job_id)
    report = validate_schedule(prepared.info["schedule"], job)
    checks.check(
        math.isfinite(jct_ds) and math.isfinite(jct_fuxi) and report.ok,
        f"replay {job.job_id}: jct {jct_ds}/{jct_fuxi}, "
        f"schedule errors {[f.rule_id for f in report.errors]}",
    )
    events = int(result_ds.counters["engine_events"]
                 + result_fuxi.counters["engine_events"])
    return ReplayJob(t1 - t0, t2 - t0, jct_ds, jct_fuxi, events)


def replay_pass(inp, checks: Checks) -> "list[ReplayJob]":
    ds, fuxi = replay_schedulers()
    return [replay_job(job, inp.cluster, ds, fuxi, checks) for job in inp.jobs]


# -- cluster --------------------------------------------------------- #


def cluster_batches(jobs) -> "list[list]":
    """Deal jobs by stage count round-robin into equal-mix batches."""
    order = sorted(range(len(jobs)), key=lambda i: (jobs[i].num_stages, i))
    batches: "list[list[int]]" = [[] for _ in range(CLUSTER_BATCHES)]
    for rank, i in enumerate(order):
        batches[rank % CLUSTER_BATCHES].append(i)
    return [[jobs[i] for i in sorted(b)] for b in batches]


@dataclass
class ClusterBatch:
    simulate_s: float
    report_s: float
    blame_s: float
    jcts: "list[float]"
    events: int

    @property
    def total_s(self) -> float:
        return self.simulate_s + self.report_s + self.blame_s


def cluster_batch(batch, cluster, checks: Checks) -> ClusterBatch:
    """The ``repro report`` path: one shared Fuxi run, report, blame."""
    from repro.obs.critical import run_blame
    from repro.obs.metrics import interleaving_report
    from repro.schedulers import FuxiScheduler
    from repro.schedulers.runner import run_jobs_with_scheduler

    t0 = clock()
    result = run_jobs_with_scheduler(
        batch, cluster, FuxiScheduler(track_metrics=True)
    )
    t1 = clock()
    interleaving_report(result, label="fuxi")
    t2 = clock()
    blame = run_blame(result, batch, label="fuxi")
    t3 = clock()
    jcts = [result.job_completion_time(job.job_id) for job in batch]
    checks.check(
        blame.identity_exact and all(math.isfinite(x) for x in jcts),
        f"cluster batch of {len(batch)}: blame identity "
        f"{blame.identity_exact}",
    )
    return ClusterBatch(t1 - t0, t2 - t1, t3 - t2, jcts,
                        int(result.counters["engine_events"]))


def cluster_pass(batches, cluster, checks: Checks) -> "list[ClusterBatch]":
    return [cluster_batch(b, cluster, checks) for b in batches]


# -- serve ----------------------------------------------------------- #


def serve_scheduler():
    """The ``repro serve`` DelayStage configuration."""
    from repro.core.delaystage import DelayStageParams
    from repro.schedulers import DelayStageScheduler

    return DelayStageScheduler(
        profiled=False, track_metrics=False,
        params=DelayStageParams(max_slots=12),
    )


def serve_arrivals(seed: int, jobs) -> "list[tuple[float, object]]":
    """Poisson arrival instants (host seconds from the start)."""
    import numpy as np

    gaps = np.random.default_rng([seed, 1]).exponential(
        1.0 / SERVE_RATE, size=len(jobs)
    )
    due = np.cumsum(gaps)
    return [(float(t), job) for t, job in zip(due, jobs)]


@dataclass
class ServePass:
    ready_s: "list[float]" = field(default_factory=list)
    late_s: "list[float]" = field(default_factory=list)
    submit_s: "list[float]" = field(default_factory=list)
    render_s: "list[float]" = field(default_factory=list)
    scrape_bytes: "list[int]" = field(default_factory=list)
    #: Host seconds inside ServiceCore calls (submit, advance, drain).
    busy_s: float = 0.0
    jcts: "dict[str, float]" = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    bus_events: int = 0


def serve_pass(arrivals, cluster, checks: Checks, ledger=None) -> ServePass:
    """Drive a ServiceCore open-loop from this thread.

    The pacer keeps a host-time line: every call into the service or
    the hub moves it forward by the call's measured host time, and when
    the service is idle it jumps to the next due arrival or scrape
    instead of sleeping.  An arrival therefore waits exactly as long as
    the work ahead of it on this one thread takes, as with real sleeps
    on an otherwise idle host, but the machine's other tenants and the
    idle gaps do not count.  Each arrival is submitted at its due
    instant and dispatched at once (slots exceed arrivals), so its plan
    and simulated outcome exist when the dispatching ``advance_to``
    returns; ready latency runs from the due instant to that return.
    Service time is the due instant itself, which keeps the core's
    trajectory deterministic.  With a ledger, ``advance_to``/``drain``
    calls are ``service`` spans.
    """
    from repro.obs.live import LiveHub, TelemetryPublisher, validate_openmetrics_text
    from repro.service import AdmissionConfig, RejectedSubmission, ServiceCore

    out = ServePass()
    publisher = TelemetryPublisher(label="serve", run_id="serve",
                                   total_jobs=len(arrivals))
    hub = LiveHub(bus=publisher.bus)
    scheduler = serve_scheduler()
    core = ServiceCore(cluster, scheduler, slots=len(arrivals) + 1,
                       admission=AdmissionConfig(), publisher=publisher)
    publisher.run_started(jobs=len(arrivals), rate=SERVE_RATE,
                          slots=len(arrivals) + 1, scheduler=scheduler.name)
    now = 0.0  # the pacer's host-time line, seconds

    def service(call, *args):
        nonlocal now
        t0 = clock()
        if ledger is not None:
            ledger.enter("service")
        try:
            return call(*args)
        finally:
            if ledger is not None:
                ledger.leave()
            spent = clock() - t0
            now += spent
            out.busy_s += spent

    def scrape() -> None:
        nonlocal now
        t0 = clock()
        hub.count_scrape("metrics")
        text = hub.render_metrics()
        spent = clock() - t0
        now += spent
        out.render_s.append(spent)
        out.scrape_bytes.append(len(text.encode()))
        errors = validate_openmetrics_text(text)
        checks.check(not errors, f"scrape: {errors[:3]}")

    next_scrape = SCRAPE_EVERY_S
    for due, job in arrivals:
        while next_scrape <= due:
            now = max(now, next_scrape)
            scrape()
            next_scrape += SCRAPE_EVERY_S
        now = max(now, due)
        out.late_s.append(now - due)
        service(core.advance_to, due)
        t0 = clock()
        try:
            core.submit(job)
        except RejectedSubmission as exc:
            checks.check(False, f"serve: {job.job_id} rejected: {exc}")
        spent = clock() - t0
        now += spent
        out.submit_s.append(spent)
        out.busy_s += spent
        service(core.advance_to, due)
        out.ready_s.append(now - due)
    service(core.drain)
    service(core.run_until_idle)
    publisher.close()
    scrape()
    out.stats = core.stats()
    hub.finish_run("serve", {"service": out.stats})
    out.bus_events = publisher.bus.last_seq
    out.jcts = {r.service_id: r.jct for r in core.jobs_snapshot()}

    n = len(arrivals)
    counters = out.stats["counters"]
    balanced = (
        out.stats["drained"]
        and counters["submitted"] == n
        and counters["admitted"] + counters["rejected"] == n
        and counters["admitted"] == (counters["completed"]
                                     + counters["failed"]
                                     + counters["cancelled"])
        and counters["completed"] == n
        and out.stats["states"] == {"completed": n}
    )
    checks.check(balanced, f"serve books at drain: {out.stats}")
    return out


def offline_jcts(jobs, cluster, scheduler) -> "tuple[dict[str, float], int]":
    """Per-job JCTs (and final-run engine events) replayed offline."""
    from repro.schedulers.runner import run_with_scheduler

    jcts: "dict[str, float]" = {}
    events = 0
    for job in jobs:
        run = run_with_scheduler(job, cluster, scheduler)
        jcts[job.job_id] = run.jct
        events += int(run.result.counters["engine_events"])
    return jcts, events
