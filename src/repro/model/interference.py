"""Candidate-schedule evaluation under stage interference.

Sec. 3.2 of the paper shows the number of concurrently executing
stages ``f_w_tau(X)`` — and with it the per-stage resource shares —
has no tractable closed form, so the prototype's delay-time calculator
*predicts* stage times numerically from profiled parameters.  This
module is that predictor: it runs the deterministic fluid model
(metrics off, single job) for a candidate delay vector ``X`` and
reports the quantities Algorithm 1 needs — per-stage times, path
completion times, and the parallel-stage makespan.

The model job is typically built from *profiled* (noisy) parameters,
so predictions differ from the ground-truth simulation the way the
paper's model differs from the real cluster (Appendix A.2 quantifies
the resulting 1.6 %–9.1 % error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.cluster.spec import ClusterSpec
from repro.dag.graph import parallel_stage_set
from repro.dag.job import Job
from repro.simulator.simulation import (
    FixedDelayPolicy,
    Simulation,
    SimulationConfig,
    SimulationResult,
)


@dataclass(frozen=True)
class ScheduleEvaluation:
    """Model prediction for one candidate delay schedule."""

    delays: dict[str, float]
    stage_times: dict[str, float]
    stage_finish: dict[str, float]
    job_completion_time: float
    parallel_makespan: float

    def stage_time(self, stage_id: str) -> float:
        return self.stage_times[stage_id]


def evaluate_schedule(
    job: Job,
    cluster: ClusterSpec,
    delays: "Mapping[str, float] | None" = None,
    *,
    members: "frozenset[str] | None" = None,
    config: "SimulationConfig | None" = None,
    pair_capacities: "dict[tuple[str, str], float] | None" = None,
) -> ScheduleEvaluation:
    """Predict stage timings for the given per-stage submission delays.

    Parameters
    ----------
    job:
        The (model) job; use profiled parameters for realism.
    cluster:
        The (measured) cluster spec.
    delays:
        Extra delay per stage after it becomes ready.  Missing stages
        submit immediately.
    members:
        The parallel-stage set ``K``; computed if omitted (pass it when
        calling in a loop — Algorithm 1 evaluates hundreds of
        candidates).
    config:
        Simulation behaviour override; defaults to metrics-off for
        speed.
    pair_capacities:
        Optional per-pair link caps (the geo/WAN extension), applied to
        the model's topology exactly as the executor applies them.
    """
    delays = dict(delays or {})
    cfg = config or SimulationConfig(track_metrics=False, track_events=False)
    sim = Simulation(cluster, cfg, pair_capacities=pair_capacities)
    sim.add_job(job, FixedDelayPolicy(delays))
    result: SimulationResult = sim.run()

    stage_times = {}
    stage_finish = {}
    for (jid, sid), rec in result.stage_records.items():
        stage_times[sid] = rec.duration
        stage_finish[sid] = rec.finish_time

    k = members if members is not None else parallel_stage_set(job)
    parallel_makespan = max((stage_finish[sid] for sid in k), default=0.0)

    return ScheduleEvaluation(
        delays=delays,
        stage_times=stage_times,
        stage_finish=stage_finish,
        job_completion_time=result.job_completion_time(job.job_id),
        parallel_makespan=parallel_makespan,
    )


def probe_spine(
    job: Job,
    cluster: ClusterSpec,
    delays: "Mapping[str, float]",
    stage_id: str,
    *,
    config: "SimulationConfig | None" = None,
    pair_capacities: "dict[tuple[str, str], float] | None" = None,
    previous: "Simulation | None" = None,
) -> Simulation:
    """The shared prefix of one scan over ``stage_id``'s delay: every
    candidate runs ``job`` under the same fixed ``delays``, so their
    trajectories agree until ``stage_id`` is submitted.  The spine is
    that run with ``stage_id`` held back.

    ``previous`` is the last scan's spine, whose winning fork was kept
    (:meth:`~repro.simulator.simulation.Simulation.keep_fork`); its
    model must be ``job`` with ``stage_id`` a phantom, under ``delays``
    without the last scanned stage.  Up to that fork point both runs
    agree, so when :meth:`~repro.simulator.simulation.Simulation.chain`
    can carry it over, ``previous`` is returned as this scan's spine.
    Otherwise the spine starts at t=0.
    """
    if previous is not None and previous.chain(
            job, FixedDelayPolicy(dict(delays)), stage_id):
        return previous
    cfg = config or SimulationConfig(track_metrics=False, track_events=False)
    sim = Simulation(cluster, cfg, pair_capacities=pair_capacities)
    sim.add_job(job, FixedDelayPolicy(dict(delays)))
    sim.hold(job.job_id, stage_id)
    return sim


def probe_schedule(
    spine: Simulation,
    delay: float,
    *,
    horizon: float = math.inf,
    watch: "Iterable[str] | None" = None,
) -> dict[str, float]:
    """Truncated candidate evaluation: finish times up to a stop point.

    Predicts the spine's job with its held stage delayed by ``delay``,
    as :func:`evaluate_schedule` would, but stops the clock at
    ``horizon`` or as soon as every stage in ``watch`` has finished,
    and returns finish times only for stages that completed by then —
    exact values, since the trajectory up to the stop point is
    identical to the full run's prefix.  A stage missing from the
    returned map finishes after the stop instant: after the horizon,
    or after the last watched stage when the watch set stopped the run
    early.

    The spine advances to the last point it shares with the candidate,
    which then runs on a fork (checkpoint, release the held stage, run,
    rollback): the common prefix is simulated once per scan.  The fork
    point stays saved until the next probe, for the caller to keep
    (:meth:`~repro.simulator.simulation.Simulation.keep_fork`).  Probes
    come in scan order (delays ascending, no horizon before an earlier
    submit instant); ``watch`` must include the held stage.

    Algorithm 1 uses this with ``watch = the visible stages`` and
    ``horizon = incumbent makespan``: if any watched stage is missing,
    the candidate provably cannot beat the incumbent; either way the
    (often long) model tail is never simulated.
    """
    if watch is not None:
        watch = set(watch)
        if spine.held_key[1] not in watch:
            raise ValueError("watch must include the held stage")
    spine.advance_held(delay, horizon)
    spine.checkpoint()
    try:
        spine.release_held()
        records = spine.run_truncated(horizon, watch=watch)
        return {
            sid: rec.finish_time
            for (_jid, sid), rec in records.items()
            if not math.isnan(rec.finish_time)
        }
    finally:
        spine.rollback()
