"""Tracing overhead guard: tracing never runs inside the event loop.

Span emission happens once per run from the stage records (never
inside the event loop), so tracing-on costs almost nothing over
tracing-off.  This test makes that a deterministic contract on a
trace-replay-shaped workload: no :class:`Tracer` call — spans,
instants, samples or counters — happens while a ``FluidEngine.run`` is
on the stack, and the records per replayed job are exactly the ones
its stages and Algorithm 1 scans account for.  (A wall-clock ratio
guard used to live here; on a loaded host it flaked.)
"""

from unittest import mock

from repro.core import DelayStageParams
from repro.obs import Tracer
from repro.obs.tracer import CounterRegistry
from repro.schedulers import DelayStageScheduler, FuxiScheduler, run_with_scheduler
from repro.simulator.engine import FluidEngine
from repro.trace import TraceGeneratorConfig, generate_trace, to_job

#: Spans a completed stage emits: the stage plus its four phases.
SPANS_PER_STAGE = 5


class _Counters(CounterRegistry):
    __slots__ = ("_note",)

    def inc(self, name, value=1.0):
        self._note()
        super().inc(name, value)

    def set_gauge(self, name, value):
        self._note()
        super().set_gauge(name, value)


class _CallCountingTracer(Tracer):
    """A tracer that counts its calls, and those made in an engine loop."""

    def __init__(self, loop_depth):
        super().__init__()
        self.calls = 0
        self.calls_in_loop = 0
        self._loop_depth = loop_depth
        self.counters = _Counters()
        self.counters._note = self._note

    def _note(self):
        self.calls += 1
        if self._loop_depth[0]:
            self.calls_in_loop += 1

    def add_span(self, *args, **kwargs):
        self._note()
        return super().add_span(*args, **kwargs)

    def instant(self, *args, **kwargs):
        self._note()
        super().instant(*args, **kwargs)

    def sample(self, *args, **kwargs):
        self._note()
        super().sample(*args, **kwargs)


def test_tracing_stays_out_of_the_event_loop(tiny_cluster):
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
    loop_depth = [0]
    real_run = FluidEngine.run

    def run(engine, *args, **kwargs):
        loop_depth[0] += 1
        try:
            return real_run(engine, *args, **kwargs)
        finally:
            loop_depth[0] -= 1

    loops = 0
    with mock.patch.object(FluidEngine, "run", run):
        for job in jobs:
            tracer = _CallCountingTracer(loop_depth)
            runs = [run_with_scheduler(job, tiny_cluster, s, tracer)
                    for s in schedulers]
            loops += tracer.calls_in_loop
            assert tracer.calls > 0

            # Each simulated run: one job span plus the stage spans;
            # the plan adds one decision span per scanned stage.
            scans = len(runs[1].info["schedule"].delays)
            assert len(tracer.spans) == (
                len(runs) * (1 + SPANS_PER_STAGE * job.num_stages) + scans
            )
            # One ``schedule`` record per plan, plus a fallback marker
            # when the plan fell back to immediate submission.
            (schedule,) = [i for i in tracer.instants if i.name == "schedule"]
            fallback = int(schedule.args["fallback_applied"])
            assert len(tracer.instants) == 1 + fallback
            assert tracer.samples == []  # metrics off: no node counters
    assert loops == 0


def test_traced_replay_records_all_runs(tiny_cluster):
    trace = generate_trace(
        TraceGeneratorConfig(num_jobs=4, replay_workers=2, max_stages=12),
        rng=1,
    )
    jobs = [to_job(tj) for tj in trace[:2]]
    tracer = Tracer()
    scheduler = DelayStageScheduler(profiled=False, track_metrics=False,
                                    params=DelayStageParams(max_slots=8))
    for job in jobs:
        run_with_scheduler(job, tiny_cluster, scheduler, tracer)
    job_spans = [s for s in tracer.spans if s.cat == "job"]
    assert {s.name for s in job_spans} == {j.job_id for j in jobs}
