"""Algorithm 1's planning work on a fixed twin sample, pinned exactly.

Every count below is deterministic, so a change in planning work fails
here and not only in a benchmark run.  Changes that only share work
(probe forks, chained spines) must keep the Algorithm 1 counts and the
final runs' events, and may only lower the probe-phase engine events.
"""

from repro.cluster import alibaba_sim_cluster
from repro.core.delaystage import DelayStageParams
from repro.obs.tracer import Tracer
from repro.schedulers import DelayStageScheduler
from repro.simulator.engine import FluidEngine
from repro.simulator.simulation import Simulation
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
    probe_events = final_events = 0
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
    assert counts == ALG1_COUNTS
    assert evaluations == EVALUATIONS
    assert probe_events == PROBE_EVENTS
    assert final_events == FINAL_EVENTS
