"""Stock Spark stage scheduling.

Spark's ``DAGScheduler`` submits a stage as soon as all of its shuffle
inputs are available; parallel stages therefore launch simultaneously
and contend for the network, then for the CPU — the behaviour the
paper's Figs. 5–6 illustrate and DelayStage fixes.
"""

from __future__ import annotations

from repro.cluster.spec import ClusterSpec
from repro.dag.job import Job
from repro.obs.tracer import Tracer
from repro.schedulers.base import Prepared, Scheduler
from repro.simulator.simulation import ImmediatePolicy, SimulationConfig


class StockSparkScheduler(Scheduler):
    """Submit every stage the moment it becomes ready."""

    name = "spark"

    def __init__(
        self,
        track_metrics: bool = True,
        track_occupancy: bool = False,
        fault_plan=None,
    ) -> None:
        self._config = SimulationConfig(
            track_metrics=track_metrics,
            track_occupancy=track_occupancy,
            fault_plan=fault_plan,
        )

    def prepare(
        self, job: Job, cluster: ClusterSpec, tracer: "Tracer | None" = None
    ) -> Prepared:
        return Prepared(policy=ImmediatePolicy(), config=self._config)
