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


def probe_schedule(
    job: Job,
    cluster: ClusterSpec,
    delays: "Mapping[str, float]",
    *,
    horizon: float = math.inf,
    watch: "Iterable[str] | None" = None,
    config: "SimulationConfig | None" = None,
    pair_capacities: "dict[tuple[str, str], float] | None" = None,
) -> dict[str, float]:
    """Truncated candidate evaluation: finish times up to a stop point.

    Runs the same fluid model as :func:`evaluate_schedule` but stops the
    clock at ``horizon`` or as soon as every stage in ``watch`` has
    finished, returning finish times only for stages that completed by
    then — exact values, since the trajectory up to the stop point is
    identical to the full run's prefix.  A stage missing from the
    returned map finishes *strictly after* the horizon.

    Algorithm 1 uses this with ``watch = the visible stages`` and
    ``horizon = incumbent makespan``: if any watched stage is missing,
    the candidate provably cannot beat the incumbent; either way the
    (often long) model tail is never simulated.
    """
    cfg = config or SimulationConfig(track_metrics=False, track_events=False)
    sim = Simulation(cluster, cfg, pair_capacities=pair_capacities)
    sim.add_job(job, FixedDelayPolicy(dict(delays)))
    records = sim.run_truncated(horizon, watch=set(watch) if watch else None)
    return {
        sid: rec.finish_time
        for (_jid, sid), rec in records.items()
        if not math.isnan(rec.finish_time)
    }
