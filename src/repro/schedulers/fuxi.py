"""Fuxi-like baseline for the trace-driven comparison (Sec. 5.3).

Alibaba's Fuxi distributes task execution uniformly across available
workers to balance computation and network load, but — like stock
Spark — submits a stage the moment its inputs are ready.  The paper's
simulation uses it as the "balanced placement, no stage delay"
baseline that DelayStage beats by 27.5 %–36.6 % mean JCT.

In this reproduction balanced placement is the simulator's native
behaviour (stages spread evenly across all workers), so Fuxi reduces
to immediate submission; the class exists to keep the comparison
explicit and to carry Fuxi's distinct identity in result tables.
"""

from __future__ import annotations

from repro.cluster.spec import ClusterSpec
from repro.dag.job import Job
from repro.obs.tracer import Tracer
from repro.schedulers.base import Prepared, Scheduler
from repro.simulator.simulation import ImmediatePolicy, SimulationConfig


class FuxiScheduler(Scheduler):
    """Balanced task placement with immediate stage submission."""

    name = "fuxi"

    def __init__(
        self,
        track_metrics: bool = True,
        contention_penalty: float = 0.0,
        fault_plan=None,
    ) -> None:
        self._config = SimulationConfig(
            track_metrics=track_metrics,
            contention_penalty=contention_penalty,
            fault_plan=fault_plan,
        )

    def prepare(
        self, job: Job, cluster: ClusterSpec, tracer: "Tracer | None" = None
    ) -> Prepared:
        return Prepared(policy=ImmediatePolicy(), config=self._config)
