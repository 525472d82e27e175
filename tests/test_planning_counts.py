"""Algorithm 1's planning work on a fixed twin sample, pinned exactly.

Every count below is deterministic, so a change in planning work fails
here and not only in a benchmark run.  Changes that only share work
(probe forks, chained spines) must keep the Algorithm 1 counts and the
final runs' events, and may only lower the probe-phase engine events.

The final runs' allocation counts split those runs' reallocations into
full re-solves and scoped ones (``ScopedAllocator``); they pin that the
scoped path is actually taken.  They move only with the final runs'
events or with the scoped allocator's fallback rule (which changes
force a full re-solve, such as a run's first allocation); planning
changes that keep the delays cannot move them.

The sample is also planned on the reference path, plain Algorithm 1
(``bound_prune=False``) whose evaluations re-solve fair sharing fully
(``SimulationConfig(incremental=False)``), and every plan and JCT must
match the optimized path's exactly.
"""

from dataclasses import replace

from repro.cluster import alibaba_sim_cluster
from repro.core.delaystage import DelayStageParams
from repro.obs.tracer import Tracer
from repro.schedulers import DelayStageScheduler, FuxiScheduler
from repro.simulator.engine import FluidEngine
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.trace.generator import TraceGeneratorConfig, generate_trace
from repro.trace.replay import to_job

#: Algorithm 1 counters summed over the sample.
ALG1_COUNTS = {
    "alg1.scan_evaluations": 131,
    "alg1.pruned_by_bound": 312,
    "alg1.horizon_rejected": 98,
    "alg1.stages_delayed": 18,
    "alg1.spines_chained": 38,
}
#: ``DelaySchedule.evaluations`` per job, in sample order.
EVALUATIONS = [26, 27, 21, 21, 38, 35, 24, 42, 0, 0, 0, 13]
#: Engine events while planning (spines, forks, full evaluations); 6,122
#: when every scan's spine started at t=0, before chained spines.
PROBE_EVENTS = 5_592
#: Engine events of the final runs under the planned delays.
FINAL_EVENTS = 529
#: The final runs' reallocations: full re-solves (each run's first) and
#: scoped re-solves of only the resource groups an event touched.
FULL_ALLOCATIONS = 12
INCREMENTAL_ALLOCATIONS = 517


def _sample():
    """The first 12 jobs of a trace with the replay benchmark's trace
    settings, on its cluster."""
    cfg = TraceGeneratorConfig(num_jobs=40, replay_workers=3, max_stages=60,
                               replay_read_mb_per_sec=85.0)
    jobs = [to_job(tj, cfg) for tj in generate_trace(cfg, rng=7)[:12]]
    cluster = alibaba_sim_cluster(num_machines=3, storage_nodes=1,
                                  nic_mbps_range=(600, 2000), rng=0)
    return jobs, cluster


def test_planning_work_counts_are_pinned():
    jobs, cluster = _sample()
    scheduler = DelayStageScheduler(
        profiled=False, track_metrics=False, contention_penalty=0.5,
        params=DelayStageParams(max_slots=12),
    )
    counts = dict.fromkeys(ALG1_COUNTS, 0)
    evaluations = []
    probe_events = final_events = full_allocations = scoped_allocations = 0
    for job in jobs:
        tracer = Tracer()
        before = FluidEngine.TOTAL_EVENTS
        prepared = scheduler.prepare(job, cluster, tracer=tracer)
        probe_events += FluidEngine.TOTAL_EVENTS - before
        evaluations.append(prepared.info["schedule"].evaluations)
        for name in counts:
            counts[name] += int(tracer.counters.get(name))
        sim = Simulation(cluster, prepared.config)
        sim.add_job(job, prepared.policy)
        final_events += int(sim.run().counters["engine_events"])
        full_allocations += sim.engine.full_allocations
        scoped_allocations += sim.engine.incremental_allocations
    assert counts == ALG1_COUNTS
    assert evaluations == EVALUATIONS
    assert probe_events == PROBE_EVENTS
    assert final_events == FINAL_EVENTS
    assert full_allocations == FULL_ALLOCATIONS
    assert scoped_allocations == INCREMENTAL_ALLOCATIONS


def _final_jct(job, cluster, prepared, incremental):
    """JCT of ``prepared``'s final run under the scoped or full allocator."""
    sim = Simulation(cluster, replace(prepared.config, incremental=incremental))
    sim.add_job(job, prepared.policy)
    result = sim.run()
    if incremental:
        assert sim.engine.incremental_allocations > 0
    else:
        assert sim.engine.incremental_allocations == 0
    return result.job_completion_time(job.job_id)


def test_sample_plans_match_the_reference_path():
    jobs, cluster = _sample()
    optimized = DelayStageScheduler(
        profiled=False, track_metrics=False, contention_penalty=0.5,
        params=DelayStageParams(max_slots=12),
    )
    reference = DelayStageScheduler(
        profiled=False, track_metrics=False, contention_penalty=0.5,
        params=DelayStageParams(
            max_slots=12, bound_prune=False,
            sim_config=SimulationConfig(track_metrics=False,
                                        contention_penalty=0.5,
                                        incremental=False),
        ),
    )
    fuxi = FuxiScheduler(track_metrics=False, contention_penalty=0.5)
    for job in jobs:
        plans = [s.prepare(job, cluster) for s in (optimized, reference)]
        fast, slow = (p.info["schedule"] for p in plans)
        assert fast.delays == slow.delays, job.job_id
        assert fast.predicted_makespan == slow.predicted_makespan, job.job_id
        assert fast.baseline_makespan == slow.baseline_makespan, job.job_id
        delayed = {_final_jct(job, cluster, p, inc)
                   for p in plans for inc in (True, False)}
        assert len(delayed) == 1, (job.job_id, delayed)
        immediate = fuxi.prepare(job, cluster)
        assert (_final_jct(job, cluster, immediate, True)
                == _final_jct(job, cluster, immediate, False)), job.job_id
