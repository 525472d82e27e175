"""Unit tests for the perf-layer machinery itself.

`tests/test_perf_equivalence.py` proves the optimized paths produce
identical results; this file tests the supporting pieces directly —
truncated probes, the refinement memo, the bound-prune audit fields,
allocator telemetry, and the metrics fast paths.
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest

from repro.cluster.spec import uniform_cluster
from repro.core.delaystage import DelayStageParams, delay_stage_schedule
from repro.model.interference import evaluate_schedule, probe_schedule, probe_spine
from repro.obs import Tracer, decision_audits, to_chrome_trace
from repro.simulator.simulation import ImmediatePolicy, Simulation, SimulationConfig
from repro.workloads.synthetic import random_job


# --------------------------------------------------------------------- #
# truncated probes


def test_probe_matches_full_evaluation(fork_join_job, small_cluster):
    full = evaluate_schedule(fork_join_job, small_cluster, {"B": 5.0})
    probed = probe_schedule(probe_spine(fork_join_job, small_cluster, {}, "B"), 5.0)
    assert probed == full.stage_finish


def test_probe_horizon_truncates_exactly(fork_join_job, small_cluster):
    full = evaluate_schedule(fork_join_job, small_cluster, {})
    finishes = sorted(full.stage_finish.values())
    horizon = (finishes[0] + finishes[-1]) / 2
    spine = probe_spine(fork_join_job, small_cluster, {}, "A")
    probed = probe_schedule(spine, 0.0, horizon=horizon)
    expected = {s: t for s, t in full.stage_finish.items() if t <= horizon}
    assert probed == expected
    assert len(probed) < len(full.stage_finish)


def test_probe_watch_stops_early(fork_join_job, small_cluster):
    full = evaluate_schedule(fork_join_job, small_cluster, {})
    first = min(full.stage_finish, key=full.stage_finish.get)
    spine = probe_spine(fork_join_job, small_cluster, {}, first)
    probed = probe_schedule(spine, 0.0, watch=[first])
    assert probed[first] == full.stage_finish[first]
    assert len(probed) < len(full.stage_finish)


def test_spine_probes_share_one_prefix(fork_join_job, small_cluster):
    """Forks leave the spine where they found it: probing the same
    candidates on one spine and on fresh spines gives the same maps."""
    spine = probe_spine(fork_join_job, small_cluster, {}, "C")
    for x in (0.0, 3.0, 3.0, 40.0):
        fresh = probe_spine(fork_join_job, small_cluster, {}, "C")
        assert probe_schedule(spine, x, watch={"C", "D"}) == probe_schedule(
            fresh, x, watch={"C", "D"}
        )
    with pytest.raises(ValueError, match="ran past"):
        probe_schedule(spine, 1.0)
    with pytest.raises(ValueError, match="held stage"):
        probe_schedule(spine, 50.0, watch={"D"})


def _engine_state(sim):
    engine = sim.engine
    return (
        engine.now, engine.events_processed, engine.max_active_items,
        engine.full_allocations, engine.incremental_allocations,
        [(type(it).__name__, it.remaining, it.rate) for it in engine._items],
        [(t, seq) for t, seq, _cb in sorted(engine._timers, key=lambda e: e[:2])],
    )


def _record_state(sim):
    return {
        key: tuple(getattr(run.record, f) for f in (
            "ready_time", "submit_time", "read_done_time",
            "compute_done_time", "finish_time"))
        for key, run in sim._runs.items()
    }


@pytest.mark.parametrize("config", [
    SimulationConfig(track_metrics=False),
    SimulationConfig(track_metrics=False, contention_penalty=0.5, incremental=False),
    SimulationConfig(track_metrics=False, pipelined_shuffle=True),
    SimulationConfig(track_metrics=False, task_granular=True),
], ids=["fluid", "penalty-full", "pipelined", "task-granular"])
def test_checkpoint_rollback_replays_identically(small_cluster, config):
    job = random_job(8, parallelism=0.7, rng=5)
    whole = Simulation(small_cluster, config)
    whole.add_job(job, ImmediatePolicy())
    makespan = whole.run().makespan

    sim = Simulation(small_cluster, config)
    sim.add_job(job, ImmediatePolicy())
    sim.run_truncated(makespan / 3)
    sim.checkpoint()
    saved = (_engine_state(sim), _record_state(sim), len(sim.events))

    sim.run_truncated(math.inf)
    first = (_engine_state(sim), _record_state(sim), list(sim.events))
    assert first[0] != saved[0]
    # A rollback copies its checkpoint, which stays valid for another.
    for _ in range(2):
        sim.rollback()
        assert (_engine_state(sim), _record_state(sim), len(sim.events)) == saved
        sim.run_truncated(math.inf)
        assert (_engine_state(sim), _record_state(sim), list(sim.events)) == first
    assert not any(math.isnan(r[-1]) for r in first[1].values())
    fresh = Simulation(small_cluster, config)
    with pytest.raises(RuntimeError, match="without a checkpoint"):
        fresh.rollback()
    with pytest.raises(RuntimeError, match="without a checkpoint"):
        fresh.keep_fork()


@pytest.mark.parametrize("incremental", [True, False], ids=["scoped", "full"])
def test_finished_run_frees_without_the_cycle_collector(small_cluster, incremental):
    """Once run() returns, only the caller holds the simulation: it is
    freed by reference counting, not some runs later by the cyclic
    collector (a batch of finished runs would pile up in memory)."""
    sim = Simulation(small_cluster, SimulationConfig(incremental=incremental))
    sim.add_job(random_job(6, parallelism=0.7, rng=3), ImmediatePolicy())
    result = sim.run()
    alive = weakref.ref(sim)
    gc.disable()
    try:
        del sim
        assert alive() is None
    finally:
        gc.enable()
    assert result.makespan > 0


def test_checkpoint_rejects_fault_plan(small_cluster):
    from repro.faults import FaultPlan, NodeCrash

    plan = FaultPlan(events=(NodeCrash(time=1.0, node="w1"),))
    sim = Simulation(small_cluster, SimulationConfig(track_metrics=False,
                                                     fault_plan=plan))
    sim.add_job(random_job(4, rng=1), ImmediatePolicy())
    with pytest.raises(RuntimeError, match="fault plan"):
        sim.checkpoint()


# --------------------------------------------------------------------- #
# refinement memo


@pytest.mark.parametrize("passes, evaluations, cache_hits", [
    (1, 130, 38),
    (2, 131, 149),
])
def test_refinement_memo_pins_evaluation_cost(passes, evaluations, cache_hits):
    """Refinement passes revisit earlier trials; the per-plan memo keeps
    the evaluation count and hit count fixed for a fixed job."""
    job = random_job(10, parallelism=0.7, rng=3)
    cluster = uniform_cluster(3, executors_per_worker=2, nic_mbps=450,
                              disk_mb_per_sec=150, storage_nodes=0)
    tracer = Tracer()
    schedule = delay_stage_schedule(
        job, cluster, DelayStageParams(max_slots=8, refine_passes=passes),
        tracer=tracer,
    )
    assert schedule.evaluations == evaluations
    assert tracer.counters.get("alg1.cache_hits", 0) == cache_hits
    (instant,) = [
        ev for ev in to_chrome_trace(tracer)["traceEvents"]
        if ev.get("ph") == "i" and ev.get("name") == "schedule"
    ]
    assert instant["args"]["cache_hits"] == cache_hits
    assert instant["args"]["evaluations"] == evaluations


# --------------------------------------------------------------------- #
# bound-prune audit


def test_scan_audit_reports_pruned_by_bound(fork_join_job, small_cluster):
    tracer = Tracer()
    delay_stage_schedule(fork_join_job, small_cluster, tracer=tracer)
    audits = decision_audits(to_chrome_trace(tracer))
    assert audits
    total = 0
    for audit in audits:
        assert audit["pruned_by_bound"] >= 0
        assert audit["ready_lower_bound"] >= 0.0
        total += audit["pruned_by_bound"]
    assert tracer.counters.get("alg1.pruned_by_bound", 0) == total


def test_scan_audit_no_bound_prune_reports_zero(fork_join_job, small_cluster):
    tracer = Tracer()
    delay_stage_schedule(
        fork_join_job, small_cluster, DelayStageParams(bound_prune=False),
        tracer=tracer,
    )
    for audit in decision_audits(to_chrome_trace(tracer)):
        assert audit["pruned_by_bound"] == 0


# --------------------------------------------------------------------- #
# allocator telemetry


def test_incremental_runs_use_scoped_allocations(small_cluster):
    from repro.simulator.simulation import (
        ImmediatePolicy,
        Simulation,
        SimulationConfig,
    )

    job = random_job(6, parallelism=0.6, rng=9)
    sim = Simulation(small_cluster, SimulationConfig(track_metrics=False))
    sim.add_job(job, ImmediatePolicy())
    sim.run()
    assert sim.engine.incremental_allocations > 0

    full = Simulation(
        small_cluster,
        SimulationConfig(track_metrics=False, incremental=False),
    )
    full.add_job(job, ImmediatePolicy())
    full.run()
    assert full.engine.incremental_allocations == 0
    assert full.engine.full_allocations > 0


# --------------------------------------------------------------------- #
# parallel replay edge cases


def test_replay_jcts_empty_batch():
    from repro.schedulers.fuxi import FuxiScheduler
    from repro.simulator.parallel import replay_jcts

    cluster = uniform_cluster(2, executors_per_worker=2)
    assert replay_jcts([], cluster, FuxiScheduler(track_metrics=False)) == []


def test_split_shards_rejects_nonpositive():
    from repro.simulator.parallel import split_shards

    with pytest.raises(ValueError, match="num_shards"):
        split_shards([1], 0)


# --------------------------------------------------------------------- #
# metrics fast paths


def test_metrics_observe_ignores_zero_width(small_cluster):
    from repro.simulator.metrics import MetricsCollector

    coll = MetricsCollector(small_cluster)
    coll.observe(1.0, 1.0, [])
    node = small_cluster.node_ids[0]
    assert len(coll.node_series(node).t0) == 0
    coll.observe(1.0, 2.0, [])
    assert len(coll.node_series(node).t0) == 1


def test_metrics_node_series_consistent_after_growth(small_cluster):
    from repro.simulator.metrics import MetricsCollector

    coll = MetricsCollector(small_cluster)
    node = small_cluster.node_ids[0]
    coll.observe(0.0, 1.0, [])
    first = coll.node_series(node)
    assert first.t1[-1] == 1.0
    coll.observe(1.0, 3.0, [])
    second = coll.node_series(node)
    assert len(second.t0) == 2 and second.t1[-1] == 3.0


# --------------------------------------------------------------------- #
# fairshare sequence dispatcher


def test_maxmin_rates_seq_matches_ndarray_solver(small_cluster):
    from repro.simulator.fairshare import (
        maxmin_network_rates,
        maxmin_rates_seq,
    )
    from repro.simulator.flows import NetworkFlow

    from repro.cluster.topology import Topology

    topology = Topology(small_cluster)
    nodes = small_cluster.node_ids
    flows = [
        NetworkFlow(src=nodes[i % len(nodes)],
                    dst=nodes[(i + 1) % len(nodes)],
                    volume=100.0, stage_key=("J", f"S{i}"))
        for i in range(6)
    ]
    seq = maxmin_rates_seq(flows, topology)
    arr = maxmin_network_rates(flows, topology)
    assert list(seq) == list(arr)
    assert maxmin_rates_seq([], topology) == ()
