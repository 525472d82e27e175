"""The DelayStage scheduler: calculator + delayer behind the common
scheduler interface."""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.spec import ClusterSpec
from repro.core.calculator import DelayTimeCalculator
from repro.core.delayer import ReplanningStageDelayer, StageDelayer
from repro.core.delaystage import DelayStageParams, delay_stage_schedule
from repro.core.ordering import PathOrder
from repro.dag.job import Job
from repro.obs.tracer import Tracer
from repro.schedulers.base import Prepared, Scheduler
from repro.simulator.simulation import SimulationConfig


class DelayStageScheduler(Scheduler):
    """Stage delay scheduling (the paper's strategy).

    Parameters
    ----------
    order:
        Execution-path processing order; the paper's default is
        descending, with random/ascending as Fig. 14 ablations.
    params:
        Full Algorithm 1 tunables (overrides ``order`` if given).
    profiled:
        ``True`` (default) runs the complete prototype pipeline —
        sampled profiling, noisy bandwidth measurement, planning on
        estimates.  ``False`` gives Algorithm 1 the ground-truth job
        and cluster (an oracle planner, useful to separate algorithm
        quality from estimation error).
    sample_fraction / profiling_noise / measurement_noise / rng:
        Forwarded to :class:`~repro.core.calculator.DelayTimeCalculator`
        in profiled mode.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` the execution
        runs under (planning always models the healthy cluster — faults
        are surprises, not inputs).
    replan:
        Recompute Algorithm 1 against the surviving cluster when a
        fault changes the topology mid-run (delays of already-submitted
        stages stay frozen).  Requires the policy to be mutable, so the
        prepared policy becomes a
        :class:`~repro.core.delayer.ReplanningStageDelayer`.
    """

    def __init__(
        self,
        order: "PathOrder | str" = PathOrder.DESCENDING,
        params: "DelayStageParams | None" = None,
        *,
        profiled: bool = True,
        sample_fraction: float = 0.1,
        profiling_noise: float = 0.03,
        measurement_noise: float = 0.02,
        rng: "int | None" = 0,
        track_metrics: bool = True,
        track_occupancy: bool = False,
        contention_penalty: float = 0.0,
        fault_plan=None,
        replan: bool = False,
    ) -> None:
        self.params = params or DelayStageParams(order=order)
        if contention_penalty > 0.0 and self.params.sim_config is None:
            # Plan against the same contention model the job will run
            # under, like the paper's profiled model implicitly does.
            self.params = replace(
                self.params,
                sim_config=SimulationConfig(
                    track_metrics=False, contention_penalty=contention_penalty
                ),
            )
        self.profiled = profiled
        self.sample_fraction = sample_fraction
        self.profiling_noise = profiling_noise
        self.measurement_noise = measurement_noise
        self.rng = rng
        self.replan = replan
        self._config = SimulationConfig(
            track_metrics=track_metrics,
            track_occupancy=track_occupancy,
            contention_penalty=contention_penalty,
            fault_plan=fault_plan,
        )
        order_name = PathOrder(self.params.order).value
        self.name = "delaystage" if order_name == "descending" else f"delaystage-{order_name}"
        if replan:
            self.name += "+replan"

    def prepare(
        self, job: Job, cluster: ClusterSpec, tracer: "Tracer | None" = None
    ) -> Prepared:
        if self.profiled:
            calculator = DelayTimeCalculator(
                cluster,
                self.params,
                sample_fraction=self.sample_fraction,
                profiling_noise=self.profiling_noise,
                measurement_noise=self.measurement_noise,
                rng=self.rng,
            )
            schedule = calculator.compute(job, tracer=tracer)
            profile = calculator.last_profile
        else:
            schedule = delay_stage_schedule(job, cluster, self.params, tracer=tracer)
            profile = None
        if self.replan:
            policy = ReplanningStageDelayer.from_schedule(schedule, params=self.params)
        else:
            policy = StageDelayer.from_schedule(schedule)
        return Prepared(
            policy=policy,
            config=self._config,
            info={"schedule": schedule, "profile": profile},
        )
