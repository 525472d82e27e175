"""Helper constructors shared across test modules."""

from __future__ import annotations

import math

from repro.core import DelayStageParams
from repro.dag import Job, Stage
from repro.obs.live import TelemetryPublisher
from repro.obs.progress import DEFAULT_PROGRESS_EVERY
from repro.schedulers import DelayStageScheduler, FuxiScheduler, run_with_scheduler
from repro.trace import TraceGeneratorConfig, generate_trace, to_job
from repro.util.units import MB


def make_stage(sid: str = "S", input_mb: float = 100, output_mb: float = 50,
               rate_mb: float = 10, **kw) -> Stage:
    """Terse stage constructor for unit tests."""
    return Stage(
        stage_id=sid,
        input_bytes=input_mb * MB,
        output_bytes=output_mb * MB,
        process_rate=rate_mb * MB,
        **kw,
    )


def make_job(job_id: str, edges, n: "int | None" = None) -> Job:
    """Job from an edge list with uniform default stages."""
    ids = []
    for a, b in edges:
        for s in (a, b):
            if s not in ids:
                ids.append(s)
    if n is not None:
        for i in range(len(ids), n):
            ids.append(f"X{i}")
    return Job(job_id, [make_stage(s) for s in ids], edges)


class CountingPublisher(TelemetryPublisher):
    """A publisher that counts the protocol calls it receives and the
    bus events it publishes.  Mix it in front of a publisher subclass
    (``class C(CountingPublisher, ProgressReporter)``) to count that."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: "dict[str, int]" = {}
        self.published = 0
        self.bus.subscribe(self._count_event)

    def _count_event(self, _event):
        self.published += 1

    def _note(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def engine_tick(self, engine):
        self._note("engine_tick")
        super().engine_tick(engine)

    def schedule_computed(self, scheduler, info):
        self._note("schedule_computed")
        super().schedule_computed(scheduler, info)

    def job_done(self, jct=None):
        self._note("job_done")
        super().job_done(jct)


def result_fingerprint(result) -> str:
    """A finished simulation's records and counters, as an exactly
    comparable string."""
    records = sorted((k, sorted(vars(r).items()))
                     for k, r in result.stage_records.items())
    jobs = sorted((k, sorted(vars(r).items()))
                  for k, r in result.job_records.items())
    return repr((records, jobs, sorted(result.counters.items())))


def run_fingerprint(run) -> str:
    """Everything a scheduler run produced, as an exactly comparable
    string."""
    return repr((result_fingerprint(run.result), run.delay_table))


def replay_shaped_runs(cluster, progress=None) -> list:
    """Four trace-twin jobs, each run under Fuxi and under DelayStage."""
    trace = generate_trace(
        TraceGeneratorConfig(num_jobs=8, replay_workers=2, max_stages=20),
        rng=0,
    )
    jobs = [to_job(tj) for tj in trace[:4]]
    schedulers = [
        FuxiScheduler(track_metrics=False),
        DelayStageScheduler(profiled=False, track_metrics=False,
                            params=DelayStageParams(max_slots=8)),
    ]
    return [run_with_scheduler(job, cluster, s, progress=progress)
            for job in jobs for s in schedulers]


def assert_off_the_event_loop(publisher: CountingPublisher, on, off) -> None:
    """The counted cost contract of a closed publisher that ran ``on``
    (``off``: the same runs without it)."""
    assert [run_fingerprint(r) for r in on] == [run_fingerprint(r) for r in off]
    runs = len(on)
    heartbeats = sum(
        math.ceil(r.result.counters["engine_events"] / DEFAULT_PROGRESS_EVERY)
        for r in on
    )
    # In-loop heartbeats, plus one closing tick per run.
    assert publisher.calls["engine_tick"] <= heartbeats + runs
    assert publisher.calls["schedule_computed"] == runs
    assert publisher.calls["job_done"] == runs
    # Each call publishes one bus event, plus the closing run_finished.
    assert publisher.published == sum(publisher.calls.values()) + 1
