"""AggShuffle baseline (Liu, Wang, Li — ICDCS 2017).

AggShuffle pipelines the shuffle: map outputs are proactively pushed
toward the reduce stage as they are produced, overlapping the child's
network transfer with the parent's computation.  The paper's
evaluation (Sec. 5.2) highlights two limitations our model reproduces:

* the benefit scales with intra-stage task heterogeneity — with
  near-homogeneous tasks (LDA) almost no output exists before the
  stage's final wave completes, so there is nothing to pipeline;
* stages whose shuffle-input/intermediate-data ratio exceeds 1 pay
  extra CPU for the proactive aggregation, and can get *slower*
  (LDA Stage 1, ratio 1.3).

Submission times themselves are stock (no delays) — AggShuffle
optimizes only the network dimension, which is why DelayStage's
multi-resource interleaving still beats it by 4.2 %–17.4 %.
"""

from __future__ import annotations

from repro.cluster.spec import ClusterSpec
from repro.dag.job import Job
from repro.obs.tracer import Tracer
from repro.schedulers.base import Prepared, Scheduler
from repro.simulator.simulation import ImmediatePolicy, SimulationConfig


class AggShuffleScheduler(Scheduler):
    """Immediate submission plus pipelined shuffle transfers."""

    name = "aggshuffle"

    def __init__(
        self,
        cpu_penalty: float = 0.15,
        track_metrics: bool = True,
        track_occupancy: bool = False,
    ) -> None:
        self._config = SimulationConfig(
            pipelined_shuffle=True,
            aggshuffle_cpu_penalty=cpu_penalty,
            track_metrics=track_metrics,
            track_occupancy=track_occupancy,
        )

    def prepare(
        self, job: Job, cluster: ClusterSpec, tracer: "Tracer | None" = None
    ) -> Prepared:
        return Prepared(policy=ImmediatePolicy(), config=self._config)

    def simulation_config(self) -> SimulationConfig:
        return self._config
