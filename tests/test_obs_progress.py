"""Progress heartbeat: content, bit-identity, and bounded work.

The ``--progress`` contract has three legs: the heartbeat must say
something useful (jobs, events, rates, ETA), it must never change the
simulation (parallel replay stays bit-identical with it on), and it
must stay off the event loop's per-event path on a replay-shaped
workload: at most one engine heartbeat per ``DEFAULT_PROGRESS_EVERY``
events plus a fixed number of callbacks per run.  That is counted, not
timed, so the check cannot flake under load.
"""

import io
import time

from repro.core import DelayStageParams
from repro.obs.progress import ProgressReporter, engine_hook
from repro.schedulers import (
    DelayStageScheduler,
    FuxiScheduler,
    replay_batch,
    run_with_scheduler,
)
from repro.trace import TraceGeneratorConfig, generate_trace, to_job

from .testutil import CountingPublisher, assert_off_the_event_loop, replay_shaped_runs


class _FakeEngine:
    """Just the telemetry surface engine_tick reads."""

    def __init__(self, events_processed, now):
        self.events_processed = events_processed
        self.now = now


# --------------------------------------------------------------------- #
# reporter unit behaviour


def test_heartbeat_line_content():
    out = io.StringIO()
    rep = ProgressReporter("replay", total_jobs=4, stream=out, min_interval_s=0.0)
    rep.engine_tick(_FakeEngine(20_000, 123.4))
    rep.job_done()
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("[progress] replay: 0/4 jobs, 2e+04 events")
    assert "t_sim=123.4s" in lines[0]
    assert "1/4 jobs" in lines[1]
    assert "eta" in lines[1]  # one job done -> ETA becomes available
    rep.close()
    assert "done in" in out.getvalue().splitlines()[-1]


def test_heartbeat_throttles():
    out = io.StringIO()
    rep = ProgressReporter("r", stream=out, min_interval_s=3600.0)
    rep._last_emit = time.perf_counter()  # consume the initial credit
    for _ in range(100):
        rep.engine_tick(_FakeEngine(1, 0.0))
    assert out.getvalue() == ""  # all ticks inside the interval
    rep.shard_done(5)  # force-emits regardless of the throttle
    assert out.getvalue().count("\n") == 1
    assert "5 jobs" in out.getvalue()


def test_events_fold_across_engines():
    """Engines are recreated per job; totals must accumulate."""
    rep = ProgressReporter("r", stream=io.StringIO(), min_interval_s=3600.0)
    first, second = _FakeEngine(100, 1.0), _FakeEngine(40, 2.0)
    rep.engine_tick(first)
    rep.engine_tick(first)  # same engine again: not double-counted
    assert rep.events_total == 100
    rep.engine_tick(second)  # new identity: previous total folds in
    assert rep.events_total == 140


def test_close_is_silent_when_nothing_happened():
    out = io.StringIO()
    ProgressReporter("r", stream=out).close()
    assert out.getvalue() == ""


def test_engine_hook_none_when_off():
    assert engine_hook(None) is None
    rep = ProgressReporter("r", stream=io.StringIO())
    assert engine_hook(rep) == rep.engine_tick


# --------------------------------------------------------------------- #
# bit-identity and zero-output-when-off


def _replay_jobs():
    trace = generate_trace(
        TraceGeneratorConfig(num_jobs=8, replay_workers=2, max_stages=16),
        rng=3,
    )
    return [to_job(tj) for tj in trace[:6]]


def test_parallel_replay_bit_identical_with_progress(tiny_cluster):
    jobs = _replay_jobs()
    scheduler = DelayStageScheduler(profiled=False, track_metrics=False,
                                    params=DelayStageParams(max_slots=8))
    baseline = replay_batch(jobs, tiny_cluster, scheduler, processes=1)
    out = io.StringIO()
    rep = ProgressReporter("replay", total_jobs=len(jobs), stream=out,
                           min_interval_s=0.0)
    parallel = replay_batch(jobs, tiny_cluster, scheduler, processes=3,
                            progress=rep)
    rep.close()
    assert parallel == baseline  # bit-identical, not approx
    assert f"{len(jobs)}/{len(jobs)} jobs" in out.getvalue()


def test_no_stderr_without_progress(tiny_cluster, capsys):
    jobs = _replay_jobs()[:2]
    scheduler = FuxiScheduler(track_metrics=False)
    replay_batch(jobs, tiny_cluster, scheduler, processes=1)
    run_with_scheduler(jobs[0], tiny_cluster, scheduler)
    captured = capsys.readouterr()
    assert captured.err == ""


# --------------------------------------------------------------------- #
# bounded work: heartbeats per event interval, callbacks per run


class _CountingReporter(CountingPublisher, ProgressReporter):
    """A reporter that counts the protocol calls it receives."""


def test_progress_stays_off_the_event_loop(tiny_cluster):
    off = replay_shaped_runs(tiny_cluster)
    rep = _CountingReporter("bench", total_jobs=len(off), stream=io.StringIO())
    on = replay_shaped_runs(tiny_cluster, progress=rep)
    rep.close()
    assert_off_the_event_loop(rep, on, off)
