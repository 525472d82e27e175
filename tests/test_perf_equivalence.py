"""The perf layer is bit-exact: optimized and escape-hatch paths agree.

The scoped allocator, Algorithm 1 bound pruning, prefix-shared probes
(on fresh and chained spines) and parallel replay claim *identical*
results — not merely close ones.  These property tests are that claim's enforcement:
every comparison below is ``==`` on floats, never ``pytest.approx``.
"""

from __future__ import annotations

import dataclasses
import io
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.spec import uniform_cluster
from repro.core import delaystage as core
from repro.core.delaystage import DelayStageParams, delay_stage_schedule
from repro.dag import JobBuilder
from repro.model.interference import evaluate_schedule, probe_schedule, probe_spine
from repro.simulator.simulation import (
    FixedDelayPolicy,
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


def _flow_components_per_flow(flows):
    """The reference decomposition: one union per flow."""
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for f in flows:
        parent.setdefault(f.src, f.src)
        parent.setdefault(f.dst, f.dst)
        ra, rb = find(f.src), find(f.dst)
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for i, f in enumerate(flows):
        groups.setdefault(find(f.src), []).append(i)
    return list(groups.values())


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
    max_size=60,
))
def test_flow_components_match_per_flow_union_find(pairs):
    """Unioning each distinct endpoint pair once gives the same
    components, in the same order, as one union per flow."""
    from repro.simulator.fairshare import flow_components
    from repro.simulator.flows import NetworkFlow

    flows = [NetworkFlow(src=f"n{a}", dst=f"n{b}", volume=1.0,
                         stage_key=("J", "S")) for a, b in pairs]
    assert flow_components(flows) == _flow_components_per_flow(flows)


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
# prefix-shared probes: a fork of the scan's spine == a fresh probe run,
# whether the spine started at t=0 or continued the last scan's winner


def _fresh_probe(job, config, delays, stage_id, x, horizon, watch):
    """What a probe returned before spines: a fresh truncated run."""
    sim = Simulation(_cluster(), config)
    sim.add_job(job, FixedDelayPolicy({**delays, stage_id: x}))
    records = sim.run_truncated(horizon, watch=set(watch) if watch else None)
    return {sid: rec.finish_time for (_jid, sid), rec in records.items()
            if not math.isnan(rec.finish_time)}


_PROBE_CONFIGS = [
    SimulationConfig(track_metrics=False, track_events=False, **kw)
    for kw in (
        {},
        {"contention_penalty": 0.5},
        {"incremental": False},
        {"incremental": False, "contention_penalty": 0.5},
        {"pipelined_shuffle": True},
        {"fanin": 1},
        {"task_granular": True},
    )
]


def _checked_alg1(job, config):
    """Run Algorithm 1 on ``job``, checking that every probe returns
    exactly the map a fresh run of its scan's model, trial, horizon and
    watch set gives — on fresh and on chained spines alike.  Returns the
    stage ids of the scans, each marked chained or not."""
    scans: dict = {}
    spines = []
    probes = []

    def spine(model, cluster, delays, stage_id, **kwargs):
        sim = probe_spine(model, cluster, delays, stage_id, **kwargs)
        scans[sim] = (model, kwargs["config"], dict(delays), stage_id)
        spines.append((stage_id, sim is kwargs["previous"]))
        return sim

    def probe(sim, x, *, horizon, watch):
        got = probe_schedule(sim, x, horizon=horizon, watch=watch)
        assert got == _fresh_probe(*scans[sim], x, horizon, watch)
        probes.append(x)
        return got

    with mock.patch.object(core, "probe_spine", spine), \
            mock.patch.object(core, "probe_schedule", probe):
        delay_stage_schedule(
            job, _cluster(), DelayStageParams(max_slots=6, sim_config=config)
        )
    assert len(probes) >= len(spines)
    return spines


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_stages=st.integers(2, 9),
    parallelism=st.floats(0.3, 0.9),
    config=st.sampled_from(_PROBE_CONFIGS),
)
def test_forked_probes_match_fresh_runs(seed, num_stages, parallelism, config):
    """Every probe of every Algorithm 1 scan returns exactly the map a
    fresh run of the same model, trial, horizon and watch set gives."""
    job = random_job(num_stages, parallelism=parallelism, rng=seed)
    spines = _checked_alg1(job, config)
    if config.pipelined_shuffle:
        # A parent pushes prefetch flows sized by its child's input
        # before the child is ready: phantom and real children differ.
        assert not any(chained for _sid, chained in spines)


@pytest.mark.parametrize(
    "config", [c for c in _PROBE_CONFIGS if not c.pipelined_shuffle],
    ids=["fluid", "penalty", "full", "full-penalty", "fanin", "task-granular"],
)
def test_chained_spines_occur(config):
    """The fluid configs chain scans (and the chained probes match)."""
    chained = 0
    for seed in range(4):
        job = random_job(8, parallelism=0.6, rng=seed)
        spines = _checked_alg1(job, config)
        assert not spines[0][1]  # the first scan of a plan starts fresh
        chained += sum(flag for _sid, flag in spines)
    assert chained >= 1


def _diamond():
    return (
        JobBuilder("diamond")
        .stage("S1", input_mb=256, output_mb=256, process_rate_mb=20)
        .stage("S2", input_mb=256, output_mb=128, process_rate_mb=20, parents=["S1"])
        .stage("S3", input_mb=384, output_mb=128, process_rate_mb=20, parents=["S1"])
        .stage("S4", input_mb=256, output_mb=64, process_rate_mb=20, parents=["S2", "S3"])
        .build()
    )


_QUIET = SimulationConfig(track_metrics=False, track_events=False)


def _check_probes(job, stage_id, probes, config=_QUIET):
    """Probe ``(x, horizon)`` pairs in order on one spine; each must
    match a fresh run."""
    spine = probe_spine(job, _cluster(), {}, stage_id, config=config)
    for x, horizon in probes:
        watch = set(job.stage_ids)
        got = probe_schedule(spine, x, horizon=horizon, watch=watch)
        assert got == _fresh_probe(job, config, {}, stage_id, x, horizon, watch)


@pytest.mark.parametrize("config", [
    _QUIET, dataclasses.replace(_QUIET, task_granular=True),
], ids=["fluid", "task-granular"])
def test_fork_at_zero_delay_for_root_stage(config):
    """A root becomes ready inside the job-start timer: the spine pauses
    between that instant's timer pops, after the earlier roots' submits.
    The held root keeps its place among them: with discrete tasks, equal
    stages tie on executor slots in submission order."""
    builder = JobBuilder("roots")
    for sid in "ABC":
        builder.stage(sid, input_mb=256, output_mb=64, process_rate_mb=20,
                      num_tasks=9, task_cv=0.5)
    job = builder.stage("D", input_mb=128, output_mb=32, process_rate_mb=20,
                        parents=["A", "B", "C"]).build()
    spine = probe_spine(job, _cluster(), {}, "B", config=config)
    spine.advance_held(0.0)
    assert spine.engine.now == 0.0 and spine.engine._mid_instant
    _check_probes(job, "B", [(0.0, math.inf), (2.5, math.inf)], config)


def test_fork_at_zero_delay_behind_zero_volume_phantom():
    """A phantom parent finishes inside its own submit timer, so its
    child becomes ready — and is probed at x=0 — mid-instant."""
    job = (
        JobBuilder("phantom")
        .stage("P", input_mb=0, output_mb=0, process_rate_mb=1)
        .stage("Q", input_mb=256, output_mb=64, process_rate_mb=20)
        .stage("K", input_mb=256, output_mb=64, process_rate_mb=20, parents=["P"])
        .build()
    )
    spine = probe_spine(job, _cluster(), {}, "K", config=_QUIET)
    spine.advance_held(0.0)
    assert spine.engine._mid_instant
    _check_probes(job, "K", [(0.0, math.inf), (1.0, math.inf)])


def test_fork_at_submit_instant_of_a_completion():
    """The candidate's submit instant equals another stage's finish."""
    job = _diamond()
    held = evaluate_schedule(job, _cluster(), {"S3": 1e6}, config=_QUIET)
    ready = held.stage_finish["S1"]
    finish = held.stage_finish["S2"]
    x = finish - ready
    while ready + x != finish:
        x = math.nextafter(x, math.inf if ready + x < finish else -math.inf)
    _check_probes(job, "S3", [(0.0, math.inf), (x, math.inf)])


def _chain_diamond(s2_input_mb=256):
    """S1 feeds S2 -> S4 and S3; S5 joins both branches."""
    return (
        JobBuilder("chain")
        .stage("S1", input_mb=256, output_mb=256, process_rate_mb=20)
        .stage("S2", input_mb=s2_input_mb, output_mb=128, process_rate_mb=20,
               parents=["S1"])
        .stage("S3", input_mb=768, output_mb=128, process_rate_mb=20,
               parents=["S1"])
        .stage("S4", input_mb=256, output_mb=64, process_rate_mb=20,
               parents=["S2"])
        .stage("S5", input_mb=128, output_mb=32, process_rate_mb=20,
               parents=["S3", "S4"])
        .build()
    )


def test_chained_spine_off_diamond_winner():
    """Algorithm 1 scans the path S2 -> S4 first: S4 becomes ready only
    after S2 finishes, so its scan chains off S2's winning fork, while
    the S3 scan after it (S3 was ready with S2) starts fresh."""
    from repro.obs.tracer import Tracer

    job = _chain_diamond(s2_input_mb=512)
    assert _checked_alg1(job, _QUIET) == [
        ("S2", False), ("S4", True), ("S3", False)]
    tracer = Tracer()
    delay_stage_schedule(job, _cluster(),
                         DelayStageParams(max_slots=6, sim_config=_QUIET),
                         tracer=tracer)
    audits = {s.args["audit"]["stage_id"]: s.args["audit"]["spine"]
              for s in tracer.spans}
    assert audits == {"S2": "fresh", "S4": "chained", "S3": "fresh"}
    assert tracer.counters.get("alg1.spines_chained") == 1


def test_chain_returns_to_an_earlier_kept_fork():
    """The kept fork need not be the spine's last: after later probes
    ran the spine past it, the chained spine still equals a fresh one
    of the next scan's model, with the kept delay fixed."""
    from repro.core.delaystage import _phantom_job

    job = _chain_diamond()
    first = _phantom_job(job, frozenset({"S3", "S4"}))
    second = _phantom_job(job, frozenset({"S3"}))
    spine = probe_spine(first, _cluster(), {}, "S2", config=_QUIET)
    watch = {"S2"}
    for x in (0.0, 3.0, 6.0, 9.0):
        probe_schedule(spine, x, watch=watch)
        if x == 3.0:
            spine.keep_fork()
    chained = probe_spine(second, _cluster(), {"S2": 3.0}, "S4",
                          config=_QUIET, previous=spine)
    assert chained is spine
    watch = {"S2", "S4"}
    for x, horizon in ((0.0, math.inf), (2.0, math.inf), (4.0, 60.0)):
        got = probe_schedule(chained, x, horizon=horizon, watch=watch)
        assert got == _fresh_probe(second, _QUIET, {"S2": 3.0}, "S4", x,
                                   horizon, watch)


def test_chain_falls_back_when_the_stage_was_ready():
    """S3 becomes ready with S2, before S2's fork point: no chain."""
    from repro.core.delaystage import _phantom_job

    job = _chain_diamond()
    first = _phantom_job(job, frozenset({"S3", "S4"}))
    spine = probe_spine(first, _cluster(), {}, "S2", config=_QUIET)
    probe_schedule(spine, 2.0, watch={"S2"})
    spine.keep_fork()
    model = _phantom_job(job, frozenset({"S4"}))
    fresh = probe_spine(model, _cluster(), {"S2": 2.0}, "S3", config=_QUIET,
                        previous=spine)
    assert fresh is not spine
    got = probe_schedule(fresh, 1.0, watch={"S2", "S3"})
    assert got == _fresh_probe(model, _QUIET, {"S2": 2.0}, "S3", 1.0,
                               math.inf, {"S2", "S3"})


def test_fork_with_horizon_before_submit_instant():
    """A candidate submitted past its horizon cannot finish in time; the
    probe still reports exactly what a fresh run does by the horizon."""
    job = _diamond()
    ready = evaluate_schedule(job, _cluster(), {}, config=_QUIET).stage_finish["S1"]
    horizon = ready + 2.0
    _check_probes(job, "S3", [(0.0, math.inf), (1.0, horizon), (5.0, horizon),
                              (9.0, horizon)])


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
