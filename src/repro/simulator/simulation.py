"""Job-level simulation on top of the fluid engine.

A :class:`Simulation` runs one or more jobs on a cluster under a
pluggable :class:`SubmissionPolicy` deciding how long each stage's
submission is postponed after it becomes ready — the exact knob the
paper's stage delayer turns (Sec. 4.2).  Stock Spark is the policy that
always answers zero; DelayStage answers with the delays computed by
Algorithm 1; AggShuffle keeps zero delays but turns on shuffle
pipelining (``SimulationConfig.pipelined_shuffle``).

Execution semantics per stage (paper Eq. (1) / Fig. 8):

1. The stage runs on every worker; worker ``w``'s partition reads
   ``s_k / |W|`` bytes, split evenly across the source nodes (the
   storage nodes for a root stage, the parents' workers — i.e. all
   workers — for a shuffle stage).  The co-located fraction of shuffle
   data is read from local disk and treated as instantly available.
2. Processing at ``w`` starts only once the partition's *whole* input
   has arrived, then proceeds at ``eps_k^w * R_k`` where the executor
   share is recomputed by fair sharing as stages come and go.
3. The partition finally shuffle-writes ``d_k / |W|`` bytes at its fair
   share of the local disk bandwidth.
4. The stage completes when the slowest worker finishes (Eq. (2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Protocol

from repro.cluster.spec import ClusterSpec
from repro.cluster.topology import Topology
from repro.dag.job import Job
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulator.engine import FluidEngine
from repro.simulator.events import EventKind, SimEvent
from repro.simulator.fairshare import compute_shares, disk_shares, maxmin_rates_seq
from repro.simulator.flows import ComputeDemand, DiskWrite, NetworkFlow
from repro.simulator.incremental import ScopedAllocator
from repro.simulator.metrics import MetricsCollector
from repro.verify import sanitizer as _sanitizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector, FaultStats
    from repro.faults.plan import FaultPlan


class SubmissionPolicy(Protocol):
    """Decides the extra delay applied to each ready stage."""

    def delay(self, job: Job, stage_id: str, ready_time: float) -> float:
        """Seconds to postpone submission past ``ready_time`` (>= 0)."""
        ...


class ImmediatePolicy:
    """Stock Spark: submit a stage the moment its input is available."""

    def delay(self, job: Job, stage_id: str, ready_time: float) -> float:
        return 0.0


class FixedDelayPolicy:
    """Apply a precomputed per-stage delay table (DelayStage's output X).

    Stages absent from the table are submitted immediately.
    """

    def __init__(self, delays: Mapping[str, float]) -> None:
        for sid, d in delays.items():
            if d < 0 or math.isnan(d):
                raise ValueError(f"delay for stage {sid!r} must be >= 0, got {d}")
        self._delays = dict(delays)

    def delay(self, job: Job, stage_id: str, ready_time: float) -> float:
        return self._delays.get(stage_id, 0.0)


@dataclass(frozen=True)
class SimulationConfig:
    """Tunable simulation behaviour.

    Parameters
    ----------
    pipelined_shuffle:
        AggShuffle mode: parents proactively push produced shuffle data
        to their children's workers while still computing.
    aggshuffle_cpu_penalty:
        Extra compute work per unit of shuffle-ratio excess above 1 when
        pipelining is on — models the paper's observation that stages
        whose shuffle-input/intermediate-data ratio exceeds 1 (LDA
        Stage 1, ratio 1.3) run *longer* under AggShuffle.
    fanin:
        If set, each (stage, worker) reads from at most this many source
        nodes (rotating deterministically), trading flow-level fidelity
        for speed in trace-scale sweeps.  ``None`` = read from all
        sources.
    track_metrics:
        Record per-node utilization series (disable for large sweeps).
    track_occupancy:
        Additionally attribute executor occupancy to stages (Fig. 13).
    contention_penalty:
        Efficiency loss when ``n`` distinct stages share one resource:
        every rate at that resource is scaled by ``1 / (1 + p*(n-1))``.
        ``0`` (default) is ideal work-conserving processor sharing;
        positive values model the overheads real clusters exhibit under
        stage contention (TCP incast collapse on shuffle fan-ins,
        executor context switching and cache pressure), which penalize
        synchronized stage execution and are part of why the paper's
        measured contention costs exceed the ideal fluid model's.
    """

    pipelined_shuffle: bool = False
    aggshuffle_cpu_penalty: float = 0.15
    fanin: "int | None" = None
    track_metrics: bool = True
    track_occupancy: bool = False
    contention_penalty: float = 0.0
    #: Scoped fair-share reallocation: when a work item starts or
    #: finishes, re-solve only the resource groups (node executors, node
    #: disk, NIC-connected flow components) it touches instead of the
    #: whole cluster.  Rates are bit-identical to the full re-solve (the
    #: scoped path calls the same solvers on the same subsets); ``False``
    #: is the reference full re-solve the equivalence tests compare
    #: against.
    #: Ignored — the full allocator always runs — when
    #: ``pipelined_shuffle`` is on, because prefetch rate caps couple
    #: network rates to producer compute rates across resource groups.
    incremental: bool = True
    #: Record the per-stage lifecycle event log
    #: (``SimulationResult.events``).  Model evaluations inside
    #: Algorithm 1 run thousands of short simulations whose event logs
    #: nothing ever reads; they disable this.  Stage records, metrics,
    #: and completion times are unaffected.
    track_events: bool = True
    #: Discrete-task execution: instead of the fluid equal-share compute
    #: model, each worker runs at most ``executors`` concurrent tasks;
    #: stages' tasks are dispatched fairly (fewest-running-first) and
    #: task sizes follow the stage's ``task_cv``, producing the waves
    #: and stragglers real Spark stages exhibit.  Shuffle reads and disk
    #: writes remain fluid.
    task_granular: bool = False
    #: Fault-injection plan (:class:`repro.faults.plan.FaultPlan`).
    #: ``None`` or an empty plan leaves the healthy execution path —
    #: and its event-log bytes — completely untouched; a non-empty plan
    #: installs a :class:`repro.faults.injector.FaultInjector` that
    #: takes over partition bookkeeping.  Incompatible with
    #: ``pipelined_shuffle``, ``task_granular``, and ``fanin`` (those
    #: modes place work the injector cannot requeue faithfully).
    fault_plan: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if self.aggshuffle_cpu_penalty < 0:
            raise ValueError("aggshuffle_cpu_penalty must be >= 0")
        if self.fanin is not None and self.fanin < 1:
            raise ValueError("fanin must be >= 1 or None")
        if self.contention_penalty < 0:
            raise ValueError("contention_penalty must be >= 0")
        if self.fault_plan is not None and self.fault_plan.events:
            if self.pipelined_shuffle:
                raise ValueError("fault injection is incompatible with "
                                 "pipelined_shuffle (AggShuffle)")
            if self.task_granular:
                raise ValueError("fault injection is incompatible with "
                                 "task_granular execution")
            if self.fanin is not None:
                raise ValueError("fault injection is incompatible with a "
                                 "fanin cap")


@dataclass
class StageRecord:
    """Observed lifecycle of one stage."""

    job_id: str
    stage_id: str
    ready_time: float = math.nan
    submit_time: float = math.nan
    read_done_time: float = math.nan
    compute_done_time: float = math.nan
    finish_time: float = math.nan

    @property
    def delay(self) -> float:
        """Submission delay applied after the stage became ready."""
        return self.submit_time - self.ready_time

    @property
    def read_time(self) -> float:
        """Shuffle-read span (slowest worker)."""
        return self.read_done_time - self.submit_time

    @property
    def compute_time(self) -> float:
        return self.compute_done_time - self.read_done_time

    @property
    def write_time(self) -> float:
        return self.finish_time - self.compute_done_time

    @property
    def duration(self) -> float:
        """Stage execution time t_k (submission to completion)."""
        return self.finish_time - self.submit_time


@dataclass(frozen=True)
class StageDemand:
    """Post-run demand accounting for one stage (blame attribution).

    Captures the run-internal facts the critical-path blame engine
    (:mod:`repro.obs.critical`) cannot re-derive from the job and
    cluster specs alone: the per-part compute volume actually charged
    (including any AggShuffle CPU penalty), the per-worker remote
    shuffle-read volume net of prefetched bytes, and the fanin-selected
    remote source set each worker read from.  Wanted rates are *not*
    stored — they follow from the healthy cluster spec plus the fair
    share allocator's alone-on-the-resource semantics, which is where
    the blame engine recomputes them.  Everything here is assembled
    once after the engine finishes, so the hot loop pays nothing and
    results stay bit-identical whether or not anyone consumes it.
    """

    compute_volume: float
    write_volume: float
    read_volumes: "dict[str, float]"
    remote_sources: "dict[str, tuple[str, ...]]"
    retries: int = 0


@dataclass
class JobRecord:
    """Observed lifecycle of one job."""

    job_id: str
    submit_time: float
    finish_time: float = math.nan

    @property
    def completion_time(self) -> float:
        return self.finish_time - self.submit_time


@dataclass
class SimulationResult:
    """Everything a run produced."""

    cluster: ClusterSpec
    stage_records: dict[tuple[str, str], StageRecord]
    job_records: dict[str, JobRecord]
    metrics: "MetricsCollector | None"
    events: list[SimEvent] = field(default_factory=list)
    #: Run telemetry: stage/job counts, engine event count and peak
    #: queue depth, and (when metrics are tracked) per-resource busy
    #: fractions — serialized into every result so reports can carry
    #: aggregate telemetry without the full metric series.
    counters: dict = field(default_factory=dict)
    #: Fault/recovery telemetry (:class:`repro.faults.injector.FaultStats`)
    #: when a non-empty fault plan ran; ``None`` for healthy runs, so
    #: healthy results stay structurally unchanged.
    faults: "FaultStats | None" = None
    #: Per-stage :class:`StageDemand` accounting for the critical-path
    #: blame engine.  ``None`` when the run disabled event tracking
    #: (Algorithm 1's planning probes), so the scan loop keeps paying
    #: zero for observability it never reads.
    demands: "dict[tuple[str, str], StageDemand] | None" = None

    def job_completion_time(self, job_id: str) -> float:
        return self.job_records[job_id].completion_time

    def stage(self, job_id: str, stage_id: str) -> StageRecord:
        return self.stage_records[(job_id, stage_id)]

    @property
    def makespan(self) -> float:
        """Finish time of the last job (all jobs submitted at t=0 usually)."""
        return max(rec.finish_time for rec in self.job_records.values())

    def parallel_stage_makespan(self, job_id: str, members: "frozenset[str]") -> float:
        """Span from the first submission to the last completion among the
        given (parallel) stages of a job."""
        recs = [r for (jid, sid), r in self.stage_records.items() if jid == job_id and sid in members]
        if not recs:
            return 0.0
        return max(r.finish_time for r in recs) - min(r.submit_time for r in recs)


class _StageRun:
    """Runtime state of one stage of one job."""

    __slots__ = (
        "job",
        "stage",
        "key",
        "record",
        "remaining_parents",
        "submitted",
        "pending_reads",
        "prefetch_assigned",
        "parts_read_done",
        "parts_compute_done",
        "parts_write_done",
        "compute_active",
        "compute_volume",
        "retries",
        "regated",
    )

    def __init__(self, job: Job, stage_id: str, workers: list[str]) -> None:
        self.job = job
        self.stage = job.stage(stage_id)
        self.key = (job.job_id, stage_id)
        self.record = StageRecord(job.job_id, stage_id)
        self.remaining_parents = len(job.parents(stage_id))
        self.submitted = False
        self.pending_reads = {w: 0 for w in workers}
        self.prefetch_assigned = {w: 0.0 for w in workers}
        self.parts_read_done: set[str] = set()
        self.parts_compute_done: set[str] = set()
        self.parts_write_done: set[str] = set()
        self.compute_active: set[str] = set()  # workers currently computing
        #: Per-part compute volume, identical for every worker; filled
        #: lazily by the first ``_part_read_done`` (-1.0 = not computed).
        self.compute_volume = -1.0
        #: Fault mode: requeues charged against this stage's retry budget.
        self.retries = 0
        #: Fault mode: children re-gated by a lost-partition recompute
        #: (``None`` outside a recompute — the re-completion then
        #: releases exactly these instead of every child).
        self.regated: "list[str] | None" = None

class Simulation:
    """Run jobs on a cluster under per-job submission policies."""

    def __init__(
        self,
        cluster: ClusterSpec,
        config: "SimulationConfig | None" = None,
        pair_capacities: "dict[tuple[str, str], float] | None" = None,
        tracer: "Tracer | None" = None,
        trace_scope: str = "sim",
        progress: "Callable[[FluidEngine], None] | None" = None,
        fault_hook: "Callable[[str, dict], None] | None" = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or SimulationConfig()
        #: Live-telemetry callback for fault-injection events; the
        #: injector publishes (kind, fields) through it.  ``None`` (the
        #: default) costs one branch per fault event; the hook only
        #: observes, so event logs stay byte-identical either way.
        self.fault_hook = fault_hook
        #: Span tracer; spans are emitted from the stage records after
        #: the run, so the hot path pays nothing while tracing.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Process-label prefix for this run's tracks (lets several runs
        #: — e.g. one per compared scheduler — share one trace file).
        self.trace_scope = trace_scope
        self.topology = Topology(cluster)
        if pair_capacities:
            # Per-pair caps below NIC speed — the geo-distributed (WAN)
            # extension and explicitly heterogeneous B^{i,w} experiments.
            for (src, dst), cap in pair_capacities.items():
                self.topology.set_pair_capacity(src, dst, cap)
        self.workers = cluster.worker_ids
        self.storage = cluster.storage_ids
        self._executors = {n.node_id: n.executors for n in cluster.nodes}
        self._disk_bw = {n.node_id: n.disk_bandwidth for n in cluster.nodes}
        self.metrics: "MetricsCollector | None" = (
            MetricsCollector(cluster, self.config.track_occupancy)
            if self.config.track_metrics
            else None
        )
        self.engine = FluidEngine(
            allocate=self._allocate,
            observe=self.metrics.observe if self.metrics else None,
            progress=progress,
        )
        self._scoped = (
            ScopedAllocator(self)
            if self.config.incremental and not self.config.pipelined_shuffle
            else None
        )
        if self._scoped is not None:
            self.engine._allocate_incremental = self._scoped.allocate
        self.events: list[SimEvent] = []
        self._jobs: dict[str, tuple[Job, SubmissionPolicy, float]] = {}
        self._runs: dict[tuple[str, str], _StageRun] = {}
        self._remaining_stages: dict[str, int] = {}
        self._job_records: dict[str, JobRecord] = {}
        # Outstanding prefetch flows per (producer stage key, src worker).
        self._prefetch_outstanding: dict[tuple[tuple[str, str], str], int] = {}
        # Task-granular execution state: per-node free executor slots,
        # FIFO of stages with queued tasks, queued task volumes, running
        # and pending counters.
        self._free_slots = {w: self._executors[w] for w in self.workers}
        self._injections: list[tuple] = []
        self._task_queues: dict[str, dict[tuple, list]] = {w: {} for w in self.workers}
        self._running: dict[tuple, int] = {}
        self._pending_tasks: dict[tuple, int] = {}
        # Stage ids still unfinished in a truncated (watched) run; None
        # outside run_truncated().
        self._watch_remaining: "set[str] | None" = None
        self._started = False
        # Probe spine state (see hold() and advance_held()).
        self._held_key: "tuple[str, str] | None" = None
        self._held_delay = 0.0
        self._held_seq: "int | None" = None
        self._released = False
        self._position: "tuple[float, float]" = (-math.inf, -math.inf)
        self._saved: "tuple | None" = None
        self._kept: "tuple | None" = None  # keep_fork(): (checkpoint, delay)
        #: Fault injector; None (no overhead, byte-identical event logs)
        #: unless the config carries a non-empty fault plan.  Imported
        #: lazily so the simulator has no hard dependency on the fault
        #: layer.
        self._faults: "FaultInjector | None" = None
        plan = self.config.fault_plan
        if plan is not None and plan.events:
            from repro.faults.injector import FaultInjector

            plan.validate_against(cluster)
            self._faults = FaultInjector(self, plan)

    # ------------------------------------------------------------------ #
    # public interface
    # ------------------------------------------------------------------ #

    def inject_degradation(
        self,
        node_id: str,
        time: float,
        *,
        nic_factor: float = 1.0,
        disk_factor: float = 1.0,
        executor_factor: float = 1.0,
    ) -> None:
        """Degrade a node's resources at a point in simulated time.

        Failure-injection hook: at ``time`` the node's NIC, disk, and
        executor capacity are scaled by the given factors (e.g. 0.3 =
        a 70 % slowdown; straggler nodes, background interference,
        partial hardware failure).  Factors apply to the node's
        *current* capacities, so repeated injections compound.
        Executor scaling requires the fluid compute model (in
        task-granular mode slots are discrete).
        """
        if node_id not in self.cluster:
            raise KeyError(f"cluster has no node {node_id!r}")
        for name, f in (("nic_factor", nic_factor), ("disk_factor", disk_factor),
                        ("executor_factor", executor_factor)):
            if f <= 0:
                raise ValueError(f"{name} must be > 0, got {f}")
        degrades_executors = not math.isclose(executor_factor, 1.0)
        if degrades_executors and self.config.task_granular:
            raise ValueError(
                "executor degradation requires the fluid compute model"
            )
        if time < 0:
            raise ValueError("time must be >= 0")
        if self._started:
            raise RuntimeError("inject_degradation must be called before run()")
        self._injections.append(
            (time, node_id, nic_factor, disk_factor, executor_factor)
        )

    def _apply_degradation(
        self, node_id: str, nic_factor: float, disk_factor: float, executor_factor: float
    ) -> None:
        self.topology.scale_nic(node_id, nic_factor)
        self._disk_bw[node_id] *= disk_factor
        if not math.isclose(executor_factor, 1.0):
            self._executors[node_id] = self._executors[node_id] * executor_factor
        self.engine.mark_dirty()

    def add_job(
        self,
        job: Job,
        policy: "SubmissionPolicy | None" = None,
        submit_time: float = 0.0,
    ) -> None:
        """Register a job for execution.

        Must be called before :meth:`run`.  Each job may carry its own
        policy (multi-job trace replay mixes them).
        """
        if self._started:
            raise RuntimeError("cannot add jobs after run() started")
        if job.job_id in self._jobs:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        if submit_time < 0:
            raise ValueError("submit_time must be >= 0")
        self._jobs[job.job_id] = (job, policy or ImmediatePolicy(), submit_time)

    def _start(self) -> None:
        """Register injections and job-start timers (shared preamble of
        :meth:`run` and :meth:`run_truncated`)."""
        if self._started:
            raise RuntimeError("run() may only be called once per Simulation")
        self._started = True
        if not self._jobs:
            raise RuntimeError("no jobs registered")
        for when, node_id, nf, df, ef in self._injections:
            self.engine.schedule(
                when,
                lambda n=node_id, a=nf, b=df, c=ef: self._apply_degradation(n, a, b, c),
            )
        if self._faults is not None:
            self._faults.schedule_events()
        for job_id, (job, _policy, submit_time) in self._jobs.items():
            self._remaining_stages[job_id] = job.num_stages
            self._job_records[job_id] = JobRecord(job_id, submit_time)
            for sid in job.stage_ids:
                self._runs[(job_id, sid)] = _StageRun(job, sid, self.workers)
            self.engine.schedule(submit_time, self._make_job_start(job_id))

    def run(self) -> SimulationResult:
        """Execute all registered jobs to completion."""
        self._start()
        self.engine.run()
        result = SimulationResult(
            cluster=self.cluster,
            stage_records={k: r.record for k, r in self._runs.items()},
            job_records=self._job_records,
            metrics=self.metrics,
            events=self.events,
        )
        if self._faults is not None:
            self._faults.finalize()
            result.faults = self._faults.stats
        result.counters = self._run_counters(result)
        if self.config.track_events:
            result.demands = self._demand_accounting(result)
        if self.tracer.enabled:
            self._emit_trace(result)
        if _sanitizer.ENABLED:
            _sanitizer.check_result(result)
        # The engine's allocator callbacks and its last change lists
        # (items whose completion closures hold this simulation) tie the
        # simulation into reference cycles.  A finished run needs none
        # of them; dropping them lets reference counting free the
        # simulation's books as soon as the caller does, instead of the
        # cyclic collector some runs later.
        engine = self.engine
        engine._allocate = engine._allocate_incremental = None
        engine._added.clear()
        engine._removed.clear()
        self._scoped = None
        return result

    def run_truncated(
        self, horizon: float, watch: "set[str] | None" = None
    ) -> "dict[tuple[str, str], StageRecord]":
        """Execute only until ``horizon`` — or until every stage id in
        ``watch`` has finished — and return the raw stage records.

        The trajectory up to the stopping point is exactly the prefix of
        what :meth:`run` would produce — the engine merely stops
        advancing — so every stage that finished by then carries its
        exact finish time; unfinished stages keep ``NaN`` fields,
        meaning "finishes after the stop instant".  This is the fast
        path of Algorithm 1's scan: a candidate whose watched stages
        have not all finished by the incumbent makespan cannot win, and
        once they *have* all finished the (often long) model tail has no
        bearing on the objective — either way the tail is never
        simulated.  ``horizon`` may be ``inf`` to stop on ``watch``
        alone.  No :class:`SimulationResult` is assembled and no
        result-level sanitizer checks run, since the record set is
        intentionally incomplete.  On a started simulation (a probe
        fork) the run continues from where it stands; watched stages
        that already finished count as seen.
        """
        if horizon < 0 or math.isnan(horizon):
            raise ValueError(f"horizon must be >= 0, got {horizon!r}")
        if self._faults is not None:
            # A truncated fault run would leave requeues/backoffs dangling
            # and its prefix property does not survive mid-flight retries.
            raise RuntimeError("run_truncated is unsupported with a fault plan")
        if not self._started:
            self._start()
        if watch is not None:
            finished = {
                sid for (_jid, sid), run in self._runs.items()
                if not math.isnan(run.record.finish_time)
            }
            self._watch_remaining = set(watch) - finished
        self.engine.run(until=None if math.isinf(horizon) else horizon)
        self._watch_remaining = None
        return {k: r.record for k, r in self._runs.items()}

    # ------------------------------------------------------------------ #
    # probe spines: a held stage, checkpoint and rollback
    # ------------------------------------------------------------------ #

    def hold(self, job_id: str, stage_id: str) -> None:
        """Hold one stage back (a *probe spine*): on becoming ready it
        reserves its submission's timer sequence number, but only
        :meth:`release_held` submits it.  Until then the run is the
        trajectory every delay choice for the stage shares."""
        if self._started:
            raise RuntimeError("hold must be called before run()")
        self._held_key = (job_id, stage_id)

    @property
    def held_key(self) -> "tuple[str, str] | None":
        """``(job_id, stage_id)`` of the held stage, if any."""
        return self._held_key

    def advance_held(self, delay: float, horizon: float = math.inf) -> None:
        """Advance to the last point shared with every run that submits
        the held stage ``delay`` after it becomes ready and stops at
        ``horizon``: just before that submit timer fires or the clock
        passes ``horizon``.  A point already passed raises ``ValueError``.
        """
        if self._held_key is None:
            raise RuntimeError("no held stage")
        if not delay >= 0.0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        if not self._started:
            self._start()
        key: "tuple[float, float]" = (horizon, math.inf)
        if self._held_seq is not None:
            ready = self._runs[self._held_key].record.ready_time
            key = min(key, (ready + delay, self._held_seq))
        if key < self._position:
            raise ValueError("the spine already ran past this probe's prefix")
        self._held_delay = delay
        self.engine.pause_key = key
        self.engine.run()
        self._position = self.engine.pause_key

    def release_held(self) -> None:
        """Submit the held stage after the delay of the last
        :meth:`advance_held`, as if it had never been held: a stage
        already ready gets its timer under the sequence number it
        reserved, so the run continues bit-identically."""
        run = self._runs[self._held_key]
        self._released = True
        self.engine.pause_key = None
        if self._held_seq is not None:
            self.engine.schedule(
                run.record.ready_time + self._held_delay,
                lambda: self._submit_stage(run),
                seq=self._held_seq,
            )

    def checkpoint(self) -> None:
        """Save a started run's state for :meth:`rollback`, which restores
        it onto the same objects, so every completion closure stays
        valid.  Only unfinished stages' books are saved: a finished
        stage's books never change again."""
        if self._faults is not None or self._injections or self.metrics is not None:
            raise RuntimeError("checkpoint is unsupported with a fault plan, "
                               "degradation injections or metric tracking")
        if not self._started:
            raise RuntimeError("checkpoint needs a started run")
        self._saved = (
            self.engine.checkpoint(),
            [(run, vars(run.record).copy(), run.remaining_parents, run.submitted,
              run.compute_volume, run.pending_reads.copy(),
              run.prefetch_assigned.copy(), run.parts_read_done.copy(),
              run.parts_compute_done.copy(), run.parts_write_done.copy(),
              run.compute_active.copy())
             for run in self._runs.values()
             if math.isnan(run.record.finish_time)],
            [(rec, rec.finish_time) for rec in self._job_records.values()],
            self._remaining_stages.copy(), self._prefetch_outstanding.copy(),
            self._free_slots.copy(), self._running.copy(),
            self._pending_tasks.copy(),
            {w: {k: list(v) for k, v in q.items()}
             for w, q in self._task_queues.items()},
            None if self._watch_remaining is None else set(self._watch_remaining),
            len(self.events), self._held_seq, self._released,
        )

    def rollback(self) -> None:
        """Restore the last :meth:`checkpoint`.  The restore copies it, so
        the checkpoint stays valid for another one."""
        if self._saved is None:
            raise RuntimeError("rollback without a checkpoint")
        self._restore(self._saved)

    def _restore(self, saved: tuple) -> None:
        (engine, runs, jobs, remaining, prefetch, free_slots, running, pending,
         queues, watch, n_events, self._held_seq, self._released) = saved
        self.engine.restore(engine)
        for (run, record, run.remaining_parents, run.submitted,
             run.compute_volume, reads, assigned, read_done, compute_done,
             write_done, active) in runs:
            vars(run.record).update(record)
            run.pending_reads = reads.copy()
            run.prefetch_assigned = assigned.copy()
            run.parts_read_done = read_done.copy()
            run.parts_compute_done = compute_done.copy()
            run.parts_write_done = write_done.copy()
            run.compute_active = active.copy()
        for rec, finish in jobs:
            rec.finish_time = finish
        self._remaining_stages = remaining.copy()
        self._prefetch_outstanding = prefetch.copy()
        self._free_slots = free_slots.copy()
        self._running = running.copy()
        self._pending_tasks = pending.copy()
        self._task_queues = {w: {k: list(v) for k, v in q.items()}
                             for w, q in queues.items()}
        self._watch_remaining = None if watch is None else set(watch)
        del self.events[n_events:]

    def keep_fork(self) -> None:
        """Keep the last :meth:`checkpoint` — the fork point of the last
        probe — and its delay for :meth:`chain`."""
        if self._saved is None:
            raise RuntimeError("keep_fork without a checkpoint")
        self._kept = (self._saved, self._held_delay)

    def chain(self, job: Job, policy: SubmissionPolicy, stage_id: str) -> bool:
        """Turn this spine into the next scan's, from the kept fork point.

        Returns to the point :meth:`keep_fork` kept, which is still on
        this spine's trajectory: stages finished there never change
        again.  From there the held stage is released with the kept
        delay, ``job`` and ``policy`` replace the spine's job and policy,
        and ``stage_id`` is held.  ``job`` must be the spine's job with
        only ``stage_id``'s parameters changed (a phantom made real), and
        ``policy`` must give every other not yet ready stage the same
        delay.  The result is then the run :meth:`hold` gives on ``job``
        from t=0, paused at the kept point.

        Returns ``False``, and leaves the spine unusable, when that does
        not hold: ``stage_id`` was already ready at the kept point, or
        pipelined shuffle is on (parents push prefetch flows sized by
        the child's input before the child is ready, so the stage's
        parameters shape the trajectory before it is ready).
        """
        if self._kept is None or self.config.pipelined_shuffle:
            return False
        job_id = self._held_key[0]
        if job.job_id != job_id or job.stage_ids != self._jobs[job_id][0].stage_ids:
            raise ValueError("chain needs the spine's job with the same stages")
        saved, self._held_delay = self._kept
        self._kept = self._saved = None
        self._restore(saved)
        if self._held_seq is None:
            return False  # the held stage never became ready
        target = self._runs[(job_id, stage_id)]
        if not math.isnan(target.record.ready_time):
            return False
        self.release_held()
        self._jobs[job_id] = (job, policy, self._jobs[job_id][2])
        for (_jid, sid), run in self._runs.items():
            run.job = job
            run.stage = job.stage(sid)
        self._held_key = (job_id, stage_id)
        self._held_delay = 0.0
        self._held_seq = None
        self._released = False
        self._position = (-math.inf, -math.inf)
        return True

    # ------------------------------------------------------------------ #
    # lifecycle transitions
    # ------------------------------------------------------------------ #

    def _make_job_start(self, job_id: str) -> Callable[[], None]:
        def start() -> None:
            job, _policy, _t = self._jobs[job_id]
            self._log(EventKind.JOB_SUBMITTED, job_id)
            for sid in job.roots:
                self._stage_ready(self._runs[(job_id, sid)])

        return start

    def _stage_ready(self, run: _StageRun) -> None:
        now = self.engine.now
        run.record.ready_time = now
        self._log(EventKind.STAGE_READY, run.key[0], run.key[1])
        job, policy, _t = self._jobs[run.key[0]]
        delay = policy.delay(job, run.key[1], now)
        if delay < 0 or math.isnan(delay):
            raise ValueError(
                f"policy returned invalid delay {delay!r} for stage {run.key[1]!r}"
            )
        if run.key == self._held_key:
            delay = self._held_delay
            if not self._released:
                # Reserve the submission's timer slot and pause the
                # spine where that timer would fire.
                seq = self._held_seq = self.engine.reserve_seq()
                pause = self.engine.pause_key
                if pause is not None and (now + delay, seq) < pause:
                    self.engine.pause_key = (now + delay, seq)
                return
        self.engine.schedule(now + delay, lambda: self._submit_stage(run))

    def _read_sources(self, run: _StageRun) -> list[str]:
        """Nodes holding the stage's input data."""
        if run.remaining_parents == 0 and not run.job.parents(run.key[1]):
            # Source stage: input comes from cluster storage if present,
            # otherwise from data spread across the workers themselves.
            return self.storage if self.storage else list(self.workers)
        return list(self.workers)

    def _select_sources(self, sources: list[str], worker_index: int) -> list[str]:
        """Apply the ``fanin`` cap with a deterministic rotation so load
        stays spread across source nodes."""
        fanin = self.config.fanin
        if fanin is None or len(sources) <= fanin:
            return sources
        start = (worker_index * max(1, len(sources) // fanin)) % len(sources)
        return [sources[(start + i) % len(sources)] for i in range(fanin)]

    def _submit_stage(self, run: _StageRun) -> None:
        now = self.engine.now
        if self._faults is not None:
            # Fault mode: the injector owns the partition lifecycle (its
            # work items carry slot identities so crashed work can be
            # requeued); it may also veto the submission outright (failed
            # job, or a stage re-gated by a lost shuffle partition).
            if not self._faults.on_submit(run):
                return
            run.submitted = True
            run.record.submit_time = now
            self._log(EventKind.STAGE_SUBMITTED, run.key[0], run.key[1])
            self._faults.start_parts(run)
            return
        run.submitted = True
        run.record.submit_time = now
        self._log(EventKind.STAGE_SUBMITTED, run.key[0], run.key[1])

        sources = self._read_sources(run)
        per_worker = run.stage.input_bytes / len(self.workers)
        for wi, w in enumerate(self.workers):
            # The fraction served by a co-located source is read from
            # local disk and treated as immediately available.
            remote_fraction = (
                (len(sources) - 1) / len(sources) if w in sources else 1.0
            )
            remote_volume = per_worker * remote_fraction
            remote_volume -= run.prefetch_assigned[w]
            if remote_volume < 0.0:
                remote_volume = 0.0
            remote_sources = self._select_sources([s for s in sources if s != w], wi)
            if remote_volume > 0 and remote_sources:
                per_source = remote_volume / len(remote_sources)
                # One shared completion closure per worker; every flow's
                # volume is > 0 here, so none completes inside add_item
                # and the count can be bumped up front.
                run.pending_reads[w] += len(remote_sources)
                flow_done = self._make_flow_done(run, w)
                add_item = self.engine.add_item
                for src in remote_sources:
                    add_item(
                        NetworkFlow(
                            src=src,
                            dst=w,
                            volume=per_source,
                            stage_key=run.key,
                            on_complete=flow_done,
                        )
                    )
            if run.pending_reads[w] == 0:
                self._part_read_done(run, w)

    def _make_flow_done(self, run: _StageRun, worker: str) -> Callable[[float], None]:
        def done(_t: float) -> None:
            run.pending_reads[worker] -= 1
            if run.submitted and run.pending_reads[worker] == 0:
                self._part_read_done(run, worker)

        return done

    def _compute_volume(self, run: _StageRun) -> float:
        """Per-worker compute volume, with the AggShuffle CPU penalty.

        Under pipelined shuffle, a stage whose shuffle-*input* exceeds
        the intermediate data its parents produced (ratio > 1, e.g. 1.3
        for LDA in the paper) pays extra CPU for the proactive
        aggregation, prolonging its execution (Sec. 5.2).
        """
        volume = run.stage.input_bytes / len(self.workers)
        parents = run.job.parents(run.key[1])
        if self.config.pipelined_shuffle and parents:
            parent_out = sum(run.job.stage(p).output_bytes for p in parents)
            if parent_out > 0:
                ratio = run.stage.input_bytes / parent_out
                if ratio > 1.0:
                    excess = min(ratio - 1.0, 2.0)
                    volume *= 1.0 + self.config.aggshuffle_cpu_penalty * excess
        return volume

    def _part_read_done(self, run: _StageRun, worker: str) -> None:
        if worker in run.parts_read_done:
            return
        run.parts_read_done.add(worker)
        if len(run.parts_read_done) == len(self.workers):
            run.record.read_done_time = self.engine.now
            self._log(EventKind.STAGE_READ_DONE, run.key[0], run.key[1])
        volume = run.compute_volume
        if volume < 0.0:
            volume = run.compute_volume = self._compute_volume(run)
        run.compute_active.add(worker)
        if self.config.pipelined_shuffle:
            self._start_prefetch(run, worker)
        if self.config.task_granular:
            self._enqueue_tasks(run, worker, volume)
        else:
            self.engine.add_item(
                ComputeDemand(
                    node=worker,
                    volume=volume,
                    stage_key=run.key,
                    process_rate=run.stage.process_rate,
                    on_complete=lambda _t, w=worker: self._part_compute_done(run, w),
                )
            )

    # ------------------------------------------------------------------ #
    # task-granular compute (SimulationConfig.task_granular)
    # ------------------------------------------------------------------ #

    def _task_volumes(self, run: _StageRun, worker: str, volume: float) -> list:
        """Split a part's compute volume into heterogeneous task sizes.

        The split is deterministic per (job, stage, worker): lognormal
        weights with the stage's ``task_cv``, normalized to the part
        volume, so repeated runs and model evaluations agree.
        """
        import zlib

        import numpy as np

        n_tasks = max(1, round(run.stage.num_tasks / len(self.workers)))
        if volume <= 0:
            return []
        cv = run.stage.task_cv
        if cv <= 0 or n_tasks == 1:
            return [volume / n_tasks] * n_tasks
        seed = zlib.crc32(f"{run.key[0]}/{run.key[1]}/{worker}".encode())
        gen = np.random.default_rng(seed)
        sigma = math.sqrt(math.log(1.0 + cv * cv))
        weights = gen.lognormal(0.0, sigma, size=n_tasks)
        weights /= weights.sum()
        return [float(volume * w) for w in weights]

    def _enqueue_tasks(self, run: _StageRun, worker: str, volume: float) -> None:
        tasks = self._task_volumes(run, worker, volume)
        key = (run.key, worker)
        if not tasks:
            self._part_compute_done(run, worker)
            return
        self._pending_tasks[key] = len(tasks)
        self._running.setdefault(key, 0)
        self._task_queues[worker].setdefault(run.key, []).extend(reversed(tasks))
        self._dispatch(run, worker)

    def _dispatch(self, run_hint: _StageRun, worker: str) -> None:
        """Fill free executor slots from the node's task queues.

        Among stages with queued tasks, the one with the fewest running
        tasks on this node goes first (fair slot sharing); ties break by
        queue insertion order.
        """
        queues = self._task_queues[worker]
        while self._free_slots[worker] > 0 and queues:
            stage_key = min(
                queues, key=lambda k: self._running.get((k, worker), 0)
            )
            volume = queues[stage_key].pop()
            if not queues[stage_key]:
                del queues[stage_key]
            run = self._runs[stage_key]
            self._free_slots[worker] -= 1
            self._running[(stage_key, worker)] = (
                self._running.get((stage_key, worker), 0) + 1
            )
            self.engine.add_item(
                ComputeDemand(
                    node=worker,
                    volume=volume,
                    stage_key=stage_key,
                    process_rate=run.stage.process_rate,
                    on_complete=lambda _t, r=run, w=worker: self._task_done(r, w),
                )
            )

    def _task_done(self, run: _StageRun, worker: str) -> None:
        key = (run.key, worker)
        self._free_slots[worker] += 1
        self._running[key] -= 1
        self._pending_tasks[key] -= 1
        if self._pending_tasks[key] == 0:
            self._part_compute_done(run, worker)
        self._dispatch(run, worker)

    def _part_compute_done(self, run: _StageRun, worker: str) -> None:
        run.compute_active.discard(worker)
        run.parts_compute_done.add(worker)
        if self.config.pipelined_shuffle:
            # Prefetch caps keyed on this part lapse; without pipelining
            # the demand's completion already dirtied the engine.
            self.engine.mark_dirty()
        if len(run.parts_compute_done) == len(self.workers):
            run.record.compute_done_time = self.engine.now
            self._log(EventKind.STAGE_COMPUTE_DONE, run.key[0], run.key[1])
        write_volume = run.stage.output_bytes / len(self.workers)
        if write_volume > 0:
            self.engine.add_item(
                DiskWrite(
                    node=worker,
                    volume=write_volume,
                    stage_key=run.key,
                    on_complete=lambda _t, w=worker: self._part_write_done(run, w),
                )
            )
        else:
            self._part_write_done(run, worker)

    def _part_write_done(self, run: _StageRun, worker: str) -> None:
        run.parts_write_done.add(worker)
        if len(run.parts_write_done) == len(self.workers):
            self._stage_completed(run)

    def _stage_completed(self, run: _StageRun) -> None:
        now = self.engine.now
        run.record.finish_time = now
        job_id, stage_id = run.key
        self._log(EventKind.STAGE_COMPLETED, job_id, stage_id)
        if self._watch_remaining is not None:
            self._watch_remaining.discard(stage_id)
            if not self._watch_remaining:
                # Every watched stage has its exact finish time; the rest
                # of the trajectory cannot change them (truncated runs).
                self.engine.request_stop()

        job, _policy, _t = self._jobs[job_id]
        for child in job.children(stage_id):
            child_run = self._runs[(job_id, child)]
            child_run.remaining_parents -= 1
            if child_run.remaining_parents == 0:
                self._stage_ready(child_run)

        self._remaining_stages[job_id] -= 1
        if self._remaining_stages[job_id] == 0:
            self._job_records[job_id].finish_time = now
            self._log(EventKind.JOB_COMPLETED, job_id)

    # ------------------------------------------------------------------ #
    # AggShuffle prefetch
    # ------------------------------------------------------------------ #

    def _pipelinable_fraction(self, run: _StageRun, worker: str) -> float:
        """Fraction of this part's output transferable before it completes.

        Tasks finish in waves: with ``v`` waves the first ``v - 1`` waves'
        output is available before the part ends; task-duration
        heterogeneity (``task_cv``) additionally spreads completions
        within the final wave.
        """
        executors = self._executors[worker]
        tasks_per_worker = max(1.0, run.stage.num_tasks / len(self.workers))
        waves = max(1, math.ceil(tasks_per_worker / max(executors, 1)))
        return (1.0 - 1.0 / waves) + (1.0 / waves) * min(1.0, run.stage.task_cv)

    def _start_prefetch(self, run: _StageRun, worker: str) -> None:
        """Push this part's pipelinable output toward the children early."""
        job_id, stage_id = run.key
        job, _policy, _t = self._jobs[job_id]
        children = job.children(stage_id)
        if not children or run.stage.output_bytes <= 0:
            return
        fraction = self._pipelinable_fraction(run, worker)
        if fraction <= 0.0:
            return
        n_workers = len(self.workers)
        for child in children:
            child_run = self._runs[(job_id, child)]
            if child_run.submitted:
                continue  # the child already fetched/registered its reads
            parents = job.parents(child)
            total_parent_out = sum(job.stage(p).output_bytes for p in parents)
            if total_parent_out <= 0:
                continue
            share = run.stage.output_bytes / total_parent_out
            # This part holds 1/|W| of the parent's output; each child
            # worker reads 1/|W| of that (the co-located slice is local).
            portion = child_run.stage.input_bytes * share / n_workers
            prefetched_any = False
            for dst in self.workers:
                if dst == worker:
                    continue
                volume = fraction * portion / n_workers
                if volume <= 0:
                    continue
                child_run.prefetch_assigned[dst] += volume
                child_run.pending_reads[dst] += 1
                pkey = (run.key, worker)
                self._prefetch_outstanding[pkey] = self._prefetch_outstanding.get(pkey, 0) + 1
                self.engine.add_item(
                    NetworkFlow(
                        src=worker,
                        dst=dst,
                        volume=volume,
                        stage_key=child_run.key,
                        on_complete=self._make_prefetch_done(child_run, dst, pkey),
                        rate_cap=0.0,  # real cap assigned by the allocator
                        pipelined=True,
                        producer_key=run.key,
                    )
                )
                prefetched_any = True
            if prefetched_any:
                self._log(
                    EventKind.PREFETCH_STARTED,
                    job_id,
                    child,
                    info={"from_stage": stage_id, "worker": worker},
                )

    def _make_prefetch_done(
        self, child_run: _StageRun, dst: str, pkey: "tuple[tuple[str, str], str]"
    ) -> Callable[[float], None]:
        def done(_t: float) -> None:
            self._prefetch_outstanding[pkey] -= 1
            child_run.pending_reads[dst] -= 1
            if child_run.submitted and child_run.pending_reads[dst] == 0:
                self._part_read_done(child_run, dst)

        return done

    # ------------------------------------------------------------------ #
    # resource allocation (engine callback)
    # ------------------------------------------------------------------ #

    def _allocate(self, items: list) -> None:
        demands: list[ComputeDemand] = []
        writes: list[DiskWrite] = []
        flows: list[NetworkFlow] = []
        # ``type() is``: the three work-item kinds are leaf classes and
        # the exact check is cheaper than isinstance on this hot path.
        for item in items:
            kind = type(item)
            if kind is NetworkFlow:
                flows.append(item)
            elif kind is ComputeDemand:
                demands.append(item)
            elif kind is DiskWrite:
                writes.append(item)
            else:  # pragma: no cover - no other kinds exist
                raise TypeError(f"unknown work item {kind.__name__}")

        if self.config.task_granular:
            # Executor slots already serialize tasks; each running task
            # gets one full executor.
            for d in demands:
                d.executor_share = 1.0
                d.rate = d.process_rate
            if _sanitizer.ENABLED:
                running: dict[str, int] = {}
                for d in demands:
                    running[d.node] = running.get(d.node, 0) + 1
                for node, count in running.items():
                    if count > self._executors[node]:
                        raise _sanitizer.SanitizerError(
                            f"{count} concurrent tasks on {node!r} exceed its "
                            f"{self._executors[node]} executor slots"
                        )
        else:
            compute_shares(demands, self._executors)
        disk_shares(writes, self._disk_bw)

        if flows:
            # Prefetch flows are throttled to their producer part's current
            # output production rate (compute rate times output/input ratio,
            # split across the part's outstanding prefetch flows).  Once the
            # producer part finished computing, the data exists in full and
            # the cap lapses.
            part_rate: dict = {}
            for d in demands:
                k = (d.stage_key, d.node)
                part_rate[k] = part_rate.get(k, 0.0) + d.rate
            for f in flows:
                if not f.pipelined or f.producer_key is None:
                    continue
                rate = part_rate.get((f.producer_key, f.src))
                if rate is None:
                    f.rate_cap = math.inf
                    continue
                producer = self._runs[f.producer_key].stage
                ratio = (
                    producer.output_bytes / producer.input_bytes
                    if producer.input_bytes > 0
                    else math.inf
                )
                count = max(self._prefetch_outstanding.get((f.producer_key, f.src), 1), 1)
                f.rate_cap = rate * ratio / count
            rates = maxmin_rates_seq(flows, self.topology)
            for f, r in zip(flows, rates):
                f.rate = float(r)

        penalty = self.config.contention_penalty
        if penalty > 0.0:
            self._apply_contention_penalty(demands, writes, flows, penalty)

    def _apply_contention_penalty(
        self,
        demands: list[ComputeDemand],
        writes: list[DiskWrite],
        flows: list[NetworkFlow],
        penalty: float,
    ) -> None:
        """Scale rates down where multiple stages share a resource.

        ``n`` distinct stages on a node's executors / disk / NIC ingress
        reduce every sharer's rate by ``1 / (1 + penalty*(n-1))`` —
        scaling down never violates capacity, so max-min feasibility is
        preserved.
        """
        stages_at: dict[tuple[str, str], set] = {}
        if not self.config.task_granular:
            # With discrete tasks, executor slots already serialize CPU
            # contention; penalizing again would double-count.
            for d in demands:
                stages_at.setdefault(("cpu", d.node), set()).add(d.stage_key)
        for w in writes:
            stages_at.setdefault(("disk", w.node), set()).add(w.stage_key)
        for f in flows:
            stages_at.setdefault(("net", f.dst), set()).add(f.stage_key)

        def factor(kind: str, node: str) -> float:
            n = len(stages_at.get((kind, node), ()))
            return 1.0 / (1.0 + penalty * (n - 1)) if n > 1 else 1.0

        for d in demands:
            d.rate *= factor("cpu", d.node)
        for w in writes:
            w.rate *= factor("disk", w.node)
        for f in flows:
            f.rate *= factor("net", f.dst)

    # ------------------------------------------------------------------ #
    # observability (repro.obs)
    # ------------------------------------------------------------------ #

    def _run_counters(self, result: SimulationResult) -> dict:
        """Aggregate run telemetry serialized into the result."""
        counters = {
            "jobs_completed": float(len(self._job_records)),
            "stages_completed": float(len(self._runs)),
            "engine_events": float(self.engine.events_processed),
            "engine_max_active_items": float(self.engine.max_active_items),
            "makespan_seconds": float(result.makespan),
        }
        if self.metrics is not None:
            makespan = result.makespan
            cpu, net, disk = [], [], []
            for node_id in self.workers:
                series = self.metrics.node_series(node_id)
                cpu.append(series.average("cpu_utilization", 0.0, makespan))
                net.append(series.average("net_utilization", 0.0, makespan))
                bw = series.disk_bandwidth
                disk.append(
                    series.average("disk", 0.0, makespan) / bw if bw > 0 else 0.0
                )
            if self.workers:
                counters["busy_fraction.cpu"] = float(sum(cpu) / len(cpu))
                counters["busy_fraction.net_in"] = float(sum(net) / len(net))
                counters["busy_fraction.disk"] = float(sum(disk) / len(disk))
        if self._faults is not None:
            counters.update(self._faults.counters())
        return counters

    def _demand_accounting(
        self, result: SimulationResult
    ) -> "dict[tuple[str, str], StageDemand]":
        """Assemble per-stage :class:`StageDemand` records post-run.

        Pure bookkeeping over state the run already produced (stage
        runtime objects, prefetch assignments, fault stats) — the same
        shape as :meth:`_run_counters` — so the engine's event loop is
        untouched and results stay bit-identical with accounting on.
        The volumes/sources mirror :meth:`_submit_stage` exactly, which
        is what lets the blame engine recompute each phase's
        contention-free duration from the allocator's own sharing
        rules.
        """
        demands: "dict[tuple[str, str], StageDemand]" = {}
        n_workers = len(self.workers)
        for key, run in self._runs.items():
            rec = run.record
            if math.isnan(rec.submit_time):
                continue  # never submitted (failed job / truncated run)
            sources = self._read_sources(run)
            per_worker = run.stage.input_bytes / n_workers
            read_volumes: "dict[str, float]" = {}
            remote_sources: "dict[str, tuple[str, ...]]" = {}
            for wi, w in enumerate(self.workers):
                remote_fraction = (
                    (len(sources) - 1) / len(sources) if w in sources else 1.0
                )
                remote_volume = per_worker * remote_fraction
                remote_volume -= run.prefetch_assigned[w]
                if remote_volume < 0.0:
                    remote_volume = 0.0
                read_volumes[w] = remote_volume
                remote_sources[w] = tuple(
                    self._select_sources([s for s in sources if s != w], wi)
                )
            volume = run.compute_volume
            if volume < 0.0:
                # Stage never reached _part_read_done (e.g. failed job);
                # fall back to the same formula it would have used.
                volume = self._compute_volume(run)
            demands[key] = StageDemand(
                compute_volume=volume,
                write_volume=run.stage.output_bytes / n_workers,
                read_volumes=read_volumes,
                remote_sources=remote_sources,
                retries=run.retries,
            )
        return demands

    def _emit_trace(self, result: SimulationResult) -> None:
        """Emit per-stage phase spans and per-node counter tracks.

        Runs once, after the engine finished, entirely from the stage
        records — tracing adds no work to the event loop itself, which
        is what keeps it cheap enough to stay on during trace-scale
        replays.
        """
        tracer = self.tracer
        scope = self.trace_scope
        for name, value in result.counters.items():
            tracer.counters.set_gauge(f"{scope}.{name}", value)

        job_spans: dict[str, int] = {}
        for job_id, jrec in self._job_records.items():
            if math.isnan(jrec.finish_time):
                continue
            job_spans[job_id] = tracer.add_span(
                job_id,
                jrec.submit_time,
                jrec.completion_time,
                track=(scope, f"job:{job_id}"),
                cat="job",
                args={"job_id": job_id},
            )

        phases = (
            ("delay-wait", "ready_time", "submit_time"),
            ("shuffle-read", "submit_time", "read_done_time"),
            ("compute", "read_done_time", "compute_done_time"),
            ("disk-write", "compute_done_time", "finish_time"),
        )
        for (job_id, stage_id), run in self._runs.items():
            rec = run.record
            if math.isnan(rec.ready_time) or math.isnan(rec.finish_time):
                continue
            sid = tracer.add_span(
                stage_id,
                rec.ready_time,
                max(rec.finish_time - rec.ready_time, 0.0),
                track=(scope, f"{job_id}/{stage_id}"),
                cat="stage",
                parent=job_spans.get(job_id, 0),
                args={
                    "job_id": job_id,
                    "stage_id": stage_id,
                    "input_bytes": run.stage.input_bytes,
                    "output_bytes": run.stage.output_bytes,
                    "workers": len(self.workers),
                },
            )
            for phase, t_from, t_to in phases:
                t0 = getattr(rec, t_from)
                t1 = getattr(rec, t_to)
                if math.isnan(t0) or math.isnan(t1):
                    continue
                dur = max(t1 - t0, 0.0)
                tracer.add_span(
                    phase,
                    t0,
                    dur,
                    track=(scope, f"{job_id}/{stage_id}"),
                    cat="phase",
                    parent=sid,
                    args={"seconds": dur},
                )

        if self.metrics is not None:
            self._emit_node_counters(tracer, scope)

    def _emit_node_counters(self, tracer: Tracer, scope: str) -> None:
        """One counter track per node per resource (change-compressed)."""
        for node_id in self.cluster.node_ids:
            series = self.metrics.node_series(node_id)
            track = (f"{scope}/node:{node_id}", "counters")
            for metric in ("cpu_busy", "net_in", "net_out", "disk"):
                values = getattr(series, metric)
                previous = None
                for t0, value in zip(series.t0, values):
                    v = float(value)
                    if previous is None or abs(v - previous) > 1e-12:
                        tracer.sample(metric, float(t0), v, track=track)
                        previous = v
                if len(series.t1) and previous is not None:
                    tracer.sample(metric, float(series.t1[-1]), 0.0, track=track)

    # ------------------------------------------------------------------ #

    def _log(self, kind: EventKind, job_id: str, stage_id: str = "", info: "dict | None" = None) -> None:
        if not self.config.track_events:
            return
        self.events.append(
            SimEvent(self.engine.now, kind, job_id, stage_id, info or {})
        )


def simulate_job(
    job: Job,
    cluster: ClusterSpec,
    policy: "SubmissionPolicy | None" = None,
    config: "SimulationConfig | None" = None,
    tracer: "Tracer | None" = None,
) -> SimulationResult:
    """Convenience wrapper: run a single job to completion."""
    sim = Simulation(cluster, config, tracer=tracer)
    sim.add_job(job, policy)
    return sim.run()
