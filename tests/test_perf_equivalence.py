"""The perf layer is bit-exact: optimized and escape-hatch paths agree.

The scoped allocator, Algorithm 1 bound pruning, and parallel replay
claim *identical* results — not
merely close ones.  These property tests are that claim's enforcement:
every comparison below is ``==`` on floats, never ``pytest.approx``.
"""

from __future__ import annotations

import dataclasses
import io
import math

from hypothesis import given, settings, strategies as st

from repro.cluster.spec import uniform_cluster
from repro.core.delaystage import DelayStageParams, delay_stage_schedule
from repro.simulator.simulation import (
    ImmediatePolicy,
    Simulation,
    SimulationConfig,
)
from repro.workloads.synthetic import random_job


def _records_equal(a, b) -> bool:
    """Dataclass equality where NaN == NaN (unset lifecycle fields)."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, float) and math.isnan(x) and math.isnan(y):
            continue
        if x != y:
            return False
    return True


def _cluster():
    return uniform_cluster(
        3, executors_per_worker=2, nic_mbps=450, disk_mb_per_sec=150,
        storage_nodes=0,
    )


def _run(jobs, *, incremental: bool, penalty: float = 0.0):
    cfg = SimulationConfig(
        track_metrics=False, contention_penalty=penalty,
        incremental=incremental,
    )
    sim = Simulation(_cluster(), cfg)
    for job in jobs:
        sim.add_job(job, ImmediatePolicy())
    return sim.run()


def _assert_results_identical(a, b) -> None:
    assert a.stage_records.keys() == b.stage_records.keys()
    for key in a.stage_records:
        assert _records_equal(a.stage_records[key], b.stage_records[key]), key
    for jid in a.job_records:
        assert _records_equal(a.job_records[jid], b.job_records[jid]), jid
    assert a.events == b.events


# --------------------------------------------------------------------- #
# tentpole 1: scoped (incremental) fair-share == full re-solve


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(2, 9),
    num_jobs=st.integers(1, 3),
    penalty=st.sampled_from([0.0, 0.5]),
)
def test_incremental_allocator_bit_identical(seed, num_stages, num_jobs, penalty):
    jobs = [
        random_job(num_stages, job_id=f"J{i}", parallelism=0.6,
                   rng=seed * 7 + i)
        for i in range(num_jobs)
    ]
    full = _run(jobs, incremental=False, penalty=penalty)
    scoped = _run(jobs, incremental=True, penalty=penalty)
    _assert_results_identical(scoped, full)


def test_incremental_eventlog_seed_identical():
    """The serialized eventlog — not just the records — is byte-equal."""
    from repro.simulator.eventlog import write_eventlog

    jobs = [random_job(7, job_id=f"J{i}", parallelism=0.7, rng=11 + i)
            for i in range(2)]
    logs = []
    for incremental in (True, False):
        buf = io.StringIO()
        write_eventlog(_run(jobs, incremental=incremental).events, buf)
        logs.append(buf.getvalue())
    assert logs[0] == logs[1]


# --------------------------------------------------------------------- #
# tentpole 2: bound-pruned Algorithm 1 == plain Algorithm 1


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(3, 8),
    parallelism=st.floats(0.3, 0.9),
)
def test_pruned_alg1_bit_identical(seed, num_stages, parallelism):
    job = random_job(num_stages, parallelism=parallelism, rng=seed)
    cluster = _cluster()
    fast = delay_stage_schedule(job, cluster, DelayStageParams(max_slots=8))
    plain = delay_stage_schedule(
        job, cluster,
        DelayStageParams(max_slots=8, bound_prune=False),
    )
    # Semantic fields only: evaluations/compute_seconds are telemetry
    # and legitimately differ (that's the point of the optimization).
    assert fast.delays == plain.delays
    assert fast.predicted_makespan == plain.predicted_makespan
    assert fast.baseline_makespan == plain.baseline_makespan
    assert fast.paths == plain.paths
    assert fast.standalone_times == plain.standalone_times
    assert fast.evaluations <= plain.evaluations


def test_pruned_alg1_with_refinement_identical():
    job = random_job(7, parallelism=0.7, rng=42)
    cluster = _cluster()
    fast = delay_stage_schedule(
        job, cluster, DelayStageParams(max_slots=8, refine_passes=1)
    )
    plain = delay_stage_schedule(
        job, cluster,
        DelayStageParams(max_slots=8, refine_passes=1, bound_prune=False),
    )
    assert fast.delays == plain.delays
    assert fast.predicted_makespan == plain.predicted_makespan


# --------------------------------------------------------------------- #
# tentpole 3: parallel replay == serial replay


def test_parallel_replay_matches_serial():
    from repro.schedulers.fuxi import FuxiScheduler
    from repro.simulator.parallel import replay_jcts

    jobs = [random_job(5, job_id=f"J{i}", parallelism=0.5, rng=i)
            for i in range(5)]
    cluster = _cluster()
    sched = FuxiScheduler(track_metrics=False)
    serial = replay_jcts(jobs, cluster, sched, processes=1)
    for processes in (2, 3):
        assert replay_jcts(jobs, cluster, sched, processes=processes) == serial


def test_shard_split_and_seeds_deterministic():
    from repro.simulator.parallel import shard_seeds, split_shards

    shards = split_shards(list("abcdefg"), 3)
    assert [[i for i, _ in s] for s in shards] == [[0, 3, 6], [1, 4], [2, 5]]
    # All items present exactly once, index-tagged.
    assert sorted(i for s in shards for i, _ in s) == list(range(7))
    assert split_shards([1, 2], 5) == [[(0, 1)], [(1, 2)]]
    assert shard_seeds(3, 4) == shard_seeds(3, 4)
    assert shard_seeds(3, 4) != shard_seeds(4, 4)


def test_replay_batch_serial_path_with_tracer():
    from repro.obs.tracer import Tracer
    from repro.schedulers.fuxi import FuxiScheduler
    from repro.schedulers.runner import replay_batch

    jobs = [random_job(4, job_id=f"J{i}", rng=i) for i in range(2)]
    cluster = _cluster()
    sched = FuxiScheduler(track_metrics=False)
    # A tracer forces the serial path; results still match.
    traced = replay_batch(jobs, cluster, sched, processes=4, tracer=Tracer())
    assert traced == replay_batch(jobs, cluster, sched, processes=1)


# --------------------------------------------------------------------- #
# supporting machinery


def test_track_events_off_only_drops_events():
    job = random_job(6, parallelism=0.6, rng=5)
    quiet_cfg = SimulationConfig(track_metrics=False, track_events=False)
    sim = Simulation(_cluster(), quiet_cfg)
    sim.add_job(job, ImmediatePolicy())
    quiet = sim.run()
    loud = _run([job], incremental=True)
    assert quiet.events == []
    assert loud.events
    for key in loud.stage_records:
        assert _records_equal(quiet.stage_records[key], loud.stage_records[key])


def test_bench_quick_smoke():
    from repro.bench import run_benchmarks

    (result,) = run_benchmarks(["alg1"], quick=True)
    assert result.name == "alg1"
    assert result.equivalent
    assert result.wall_s > 0 and result.baseline_wall_s > 0
    payload = result.to_dict()
    for key in ("name", "wall_s", "jobs_per_s", "events_per_s",
                "manifest_hash", "baseline", "speedup"):
        assert key in payload
