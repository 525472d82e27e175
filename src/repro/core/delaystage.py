"""Algorithm 1: the DelayStage stage-delay-scheduling strategy.

Answers "which stage and how much time should we delay": execution
paths are processed in descending order of standalone execution time;
within a path, each not-yet-scheduled stage's delay is chosen by
scanning a slotted range of candidates and keeping the one that
minimizes the model-predicted makespan of the *scheduled* parallel
stages, given the delays already fixed for previously processed paths.

Two semantics choices mirror the paper's prototype:

* **Delay semantics** — ``x_k`` is the extra time the stage delayer
  sleeps *after the stage becomes ready* (all parents finished).  This
  matches the ``stageDelayScheduling()`` hook, automatically satisfies
  precedence constraints (6)–(7), and makes the scan's lower bound
  ``l_k = 0``.
* **Greedy visibility** — when optimizing stage ``k``, the model
  contains the already-scheduled parallel stages (the paper "updates
  the completion time of ... the scheduled stages interfering with the
  stage k", line 14) plus every sequential stage, but *not* the
  parallel stages of paths not yet processed: the long-running path is
  planned first as if it had the cluster to itself, and shorter paths
  are then fitted into its resource gaps.  Unscheduled parallel stages
  are represented by zero-volume *phantoms* so DAG dependencies still
  resolve.

Complexity is ``O(|K| * m)`` candidate evaluations, ``m`` the slot
count (paper Sec. 4.1).  The paper slots time at one second; this
reproduction additionally caps the number of slots per stage
(``max_slots``) and widens the slot accordingly, keeping the
linear-in-stages runtime of Fig. 15 at Python speed.
"""

from __future__ import annotations

import math as _math
import time as _time
from dataclasses import dataclass, replace as _dc_replace

from repro.cluster.spec import ClusterSpec
from repro.core.bounds import ready_lower_bounds
from repro.core.ordering import PathOrder, order_paths
from repro.core.schedule import DelaySchedule
from repro.dag.graph import parallel_stage_set
from repro.dag.job import Job
from repro.dag.paths import execution_paths
from repro.model.interference import evaluate_schedule, probe_schedule
from repro.model.perf import standalone_stage_times
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulator.simulation import SimulationConfig
from repro.util.validation import check_positive

#: Track the decision audit lands on in trace exports.
DECISIONS_TRACK = ("scheduler", "decisions")


@dataclass(frozen=True)
class DelayStageParams:
    """Tunables of Algorithm 1.

    Parameters
    ----------
    order:
        Execution-path processing order (descending is the paper's
        default; random/ascending are the Fig. 14 ablations).
    slot:
        Candidate-delay granularity in seconds (paper: 1 s).
    max_slots:
        Upper bound on candidates per stage; the effective slot is
        ``max(slot, span / max_slots)``.
    max_paths:
        Path-enumeration budget (see :func:`repro.dag.paths.execution_paths`).
    rng:
        Seed for the random path order.
    sim_config:
        Simulation behaviour the model evaluations assume (e.g. a
        contention penalty matching the execution environment).  Metric
        tracking is always forced off for evaluations.
    """

    order: "PathOrder | str" = PathOrder.DESCENDING
    slot: float = 1.0
    max_slots: int = 48
    max_paths: int = 256
    rng: "int | None" = 0
    sim_config: "SimulationConfig | None" = None
    #: Safety net absent from the paper's pseudocode but natural in a
    #: deployment: if the final full-model evaluation predicts the
    #: greedy schedule to be *worse* than immediate submission (possible
    #: on wide DAGs, where early paths are planned without seeing later
    #: ones), fall back to zero delays — DelayStage then degenerates to
    #: stock scheduling for that job instead of harming it.
    fallback_to_immediate: bool = True
    #: Coordinate-descent refinement passes after the greedy (0 = the
    #: paper's algorithm).  Each pass re-scans every stage's delay with
    #: the complete schedule visible, keeping strict improvements;
    #: roughly doubles planning cost per pass.
    refine_passes: int = 0
    #: Prune scan candidates whose admissible finish-time lower bound
    #: (``ready_lb + x + t_hat``, :func:`repro.core.bounds.ready_lower_bounds`)
    #: already reaches the incumbent makespan, and truncate each
    #: candidate's evaluation at the incumbent makespan (a horizon
    #: probe).  Never changes the chosen delays — a pruned or truncated
    #: candidate provably cannot win the smallest-delay tiebreak.  When
    #: the evaluation config pipelines shuffles or caps fan-in, stage
    #: durations can beat the standalone time, so only the ready-time
    #: term ``ready_lb`` drops out; the horizon probes and the plain
    #: ``x + t_hat >= incumbent`` prune stay on.  ``False`` keeps only
    #: that plain prune: the reference the equivalence tests compare
    #: against.
    bound_prune: bool = True

    def __post_init__(self) -> None:
        check_positive(self.slot, "slot")
        if self.max_slots < 2:
            raise ValueError("max_slots must be >= 2")
        if self.refine_passes < 0:
            raise ValueError("refine_passes must be >= 0")


def _phantom_job(job: Job, hidden: "frozenset[str]") -> Job:
    """Copy of ``job`` where ``hidden`` stages consume no resources.

    Phantom stages complete (nearly) instantly, so DAG dependencies of
    scheduled stages still resolve while unscheduled parallel stages
    exert no interference on the model.
    """
    if not hidden:
        return job
    stages = []
    for stage in job:
        if stage.stage_id in hidden:
            stages.append(
                _dc_replace(stage, input_bytes=0.0, output_bytes=0.0, process_rate=1.0)
            )
        else:
            stages.append(stage)
    return Job(job.job_id, stages, job.edges)


def delay_stage_schedule(
    job: Job,
    cluster: ClusterSpec,
    params: "DelayStageParams | None" = None,
    pair_capacities: "dict[tuple[str, str], float] | None" = None,
    tracer: "Tracer | None" = None,
) -> DelaySchedule:
    """Run Algorithm 1 and return the delay schedule ``X``.

    ``job`` should carry *profiled* parameters when mimicking the
    prototype end to end (see
    :class:`repro.core.calculator.DelayTimeCalculator`); passing the
    ground-truth job instead gives the algorithm a perfect model.
    ``pair_capacities`` carries per-pair WAN caps for geo-distributed
    clusters (see :mod:`repro.cluster.geo`) into the model.

    When a :class:`~repro.obs.tracer.Tracer` is supplied, every stage
    scan emits a decision-audit span on the scheduler track — the scan
    bounds ``[l_k, u_k]``, each candidate delay evaluated with its
    predicted makespan, pruned candidate count, and the chosen delay —
    plus a final ``schedule`` record carrying the exact delay table
    returned, so the algorithm's reasoning can be replayed offline.
    """
    params = params or DelayStageParams()
    tracer = tracer if tracer is not None else NULL_TRACER
    started = _time.perf_counter()

    members = parallel_stage_set(job)
    if params.sim_config is not None:
        eval_config = _dc_replace(
            params.sim_config,
            track_metrics=False,
            track_occupancy=False,
            track_events=False,
        )
    else:
        eval_config = SimulationConfig(track_metrics=False, track_events=False)

    if not members:
        # Fully sequential job: nothing to delay.
        tracer.instant(
            "schedule",
            _time.perf_counter() - started,
            track=DECISIONS_TRACK,
            cat="decision",
            args={"job_id": job.job_id, "delays": {}, "fallback_applied": False,
                  "predicted_makespan": 0.0, "baseline_makespan": 0.0,
                  "evaluations": 0},
        )
        return DelaySchedule(
            job_id=job.job_id,
            delays={},
            predicted_makespan=0.0,
            baseline_makespan=0.0,
            paths=(),
            standalone_times={},
            evaluations=0,
            compute_seconds=_time.perf_counter() - started,
        )

    # Lines 1-4: standalone times, paths, initial makespan, path order.
    t_hat = standalone_stage_times(job, cluster)
    paths = execution_paths(
        job,
        stage_times={sid: t_hat[sid] for sid in members},
        max_paths=params.max_paths,
    )
    paths = order_paths(paths, params.order, params.rng)

    evaluations = 0

    def _evaluate(model: Job, trial: dict) -> object:
        """Full fluid evaluation of ``trial`` on ``model``."""
        nonlocal evaluations
        evaluations += 1
        return evaluate_schedule(
            model, cluster, trial, members=members, config=eval_config,
            pair_capacities=pair_capacities,
        )

    def _probe(
        model: Job, trial: dict, horizon: float, watch: "set[str]"
    ) -> "dict[str, float]":
        """Truncated evaluation: exact finish times up to ``horizon`` or
        until all of ``watch`` finished; missing stages finish later."""
        nonlocal evaluations
        evaluations += 1
        return probe_schedule(
            model, cluster, trial, horizon=horizon, watch=watch,
            config=eval_config, pair_capacities=pair_capacities,
        )

    # The admissible prune assumes stage durations never beat their
    # standalone times; pipelined shuffle (prefetch overlaps the read
    # with the parent's compute) and fan-in capping break that, so the
    # bound is only trusted for the plain fluid model.
    use_bound = (
        params.bound_prune
        and not eval_config.pipelined_shuffle
        and eval_config.fanin is None
    )
    pruned_by_bound_total = 0

    baseline = _evaluate(job, {})

    # Line 3: T_max from standalone path times; it also upper-bounds the
    # candidate scans before any simulation-backed value exists.
    t_max = max(p.execution_time for p in paths)

    delays: dict[str, float] = {}  # X; absence == unscheduled (the paper's -1)

    # Lines 5-21: per path, per stage, scan candidate delays.
    for path in paths:
        for stage_id in path:
            if stage_id in delays:
                continue  # lines 7-9: already scheduled via an earlier path

            # The model for this scan: scheduled stages + this candidate
            # are real; parallel stages of unprocessed paths are phantoms.
            visible = set(delays) | {stage_id}
            model = _phantom_job(job, members - visible)

            # Admissible earliest-ready bound for the prune below; 0 when
            # the bound is not trusted, degenerating to the plain prune.
            if use_bound:
                ready_lb = ready_lower_bounds(
                    job, t_hat, members=members, visible=visible, delays=delays
                )[stage_id]
            else:
                ready_lb = 0.0

            # Line 10: bounds of the scan.  With ready-relative delays
            # the lower bound is 0; delaying past the incumbent T_max
            # could only extend the makespan.
            lower, upper = 0.0, max(t_max, params.slot)
            slot = max(params.slot, (upper - lower) / params.max_slots)
            candidates = [lower]
            x = lower + slot
            while x < upper + 1e-9:
                candidates.append(min(x, upper))
                x += slot

            scan_t0 = _time.perf_counter() - started
            scanned: "list[list[float]]" = []
            rejected: "list[float]" = []
            best_x = 0.0
            best_obj = None
            pruned_by_bound = 0
            horizon_rejected = 0
            for idx, x_hat in enumerate(candidates):  # line 11
                # Prune: the stage becomes ready no earlier than
                # ``ready_lb`` and finishes no earlier than its delay
                # plus its standalone time (interference only slows it
                # down), so once that admissible lower bound reaches the
                # incumbent the remaining (larger) candidates cannot win.
                if (
                    best_obj is not None
                    and ready_lb + x_hat + t_hat[stage_id] >= best_obj
                ):
                    # Of the remaining candidates, count those only the
                    # ready-time bound (not the plain delay + standalone
                    # check) rules out, so the audit stays truthful about
                    # what the new prune is responsible for.
                    pruned_by_bound = sum(
                        1
                        for x in candidates[idx:]
                        if x + t_hat[stage_id] < best_obj
                    )
                    break
                trial = dict(delays)
                trial[stage_id] = x_hat
                # Lines 12-15: re-evaluate stage/path times under the
                # candidate schedule (shares, interference, completion
                # updates all happen inside the fluid evaluation).  With
                # an incumbent, the evaluation is truncated at the
                # incumbent makespan: the trajectory up to the horizon is
                # exact, so a candidate whose watched stages have not all
                # finished by then provably cannot win and the model tail
                # is never simulated.
                if params.bound_prune:
                    horizon = best_obj if best_obj is not None else _math.inf
                    finish = _probe(model, trial, horizon, visible)
                    obj = max(finish.get(sid, _math.inf) for sid in visible)
                    if _math.isinf(obj):
                        horizon_rejected += 1
                        if tracer.enabled:
                            rejected.append(x_hat)
                        continue
                else:
                    ev = _evaluate(model, trial)
                    obj = max(ev.stage_finish[sid] for sid in visible)
                if tracer.enabled:
                    scanned.append([x_hat, obj])
                # Lines 16-18, with deterministic smallest-delay tiebreak.
                if best_obj is None or obj < best_obj - 1e-9:
                    best_obj = obj
                    best_x = x_hat
            pruned_by_bound_total += pruned_by_bound

            delays[stage_id] = best_x
            if best_obj is not None:
                # Line 17: the incumbent makespan bounds later scans; it
                # may grow as more paths' stages enter the model.
                t_max = max(best_obj, t_max)

            if tracer.enabled:
                scan_t1 = _time.perf_counter() - started
                tracer.counters.inc("alg1.scans")
                tracer.counters.inc("alg1.scan_evaluations", len(scanned))
                if pruned_by_bound:
                    tracer.counters.inc("alg1.pruned_by_bound", pruned_by_bound)
                if horizon_rejected:
                    tracer.counters.inc("alg1.horizon_rejected", horizon_rejected)
                tracer.add_span(
                    f"scan:{stage_id}",
                    scan_t0,
                    max(scan_t1 - scan_t0, 0.0),
                    track=DECISIONS_TRACK,
                    cat="decision",
                    args={"audit": {
                        "job_id": job.job_id,
                        "stage_id": stage_id,
                        "bounds": [lower, upper],
                        "slot": slot,
                        "candidates": [x for x, _ in scanned],
                        "predicted_makespans": [m for _, m in scanned],
                        "pruned": len(candidates) - len(scanned) - len(rejected),
                        "pruned_by_bound": pruned_by_bound,
                        "rejected_candidates": rejected,
                        "ready_lower_bound": ready_lb,
                        "chosen_delay": best_x,
                        "best_makespan": best_obj,
                    }},
                )

    final = _evaluate(job, delays)

    # Optional coordinate-descent refinement (beyond the paper's
    # pseudocode): re-scan each stage's delay against the *complete*
    # schedule — no phantoms — keeping strict improvements.  Fixes the
    # greedy's path-local blind spots on wide DAGs.  Later passes revisit
    # earlier trials, so full-schedule evaluations are cached on the
    # delay table (exact: the evaluation is a pure function of it here).
    refined = {tuple(sorted(delays.items())): final}
    cache_hits = 0
    for _ in range(params.refine_passes):
        improved = False
        incumbent = final.parallel_makespan
        for path in paths:
            for stage_id in path:
                refine_lb = (
                    ready_lower_bounds(job, t_hat, delays=delays)[stage_id]
                    if use_bound
                    else 0.0
                )
                best_x = delays[stage_id]
                best_obj = incumbent
                slot = max(params.slot, max(incumbent, params.slot) / params.max_slots)
                x = 0.0
                while x < incumbent + 1e-9:
                    if abs(x - delays[stage_id]) > 1e-9:
                        if refine_lb + x + t_hat[stage_id] < best_obj:
                            trial = dict(delays)
                            trial[stage_id] = x
                            key = tuple(sorted(trial.items()))
                            ev = refined.get(key)
                            if ev is None:
                                ev = refined[key] = _evaluate(job, trial)
                            else:
                                cache_hits += 1
                            if ev.parallel_makespan < best_obj - 1e-9:
                                best_obj = ev.parallel_makespan
                                best_x = x
                    x += slot
                if best_x != delays[stage_id]:
                    if tracer.enabled:
                        tracer.instant(
                            f"refine:{stage_id}",
                            _time.perf_counter() - started,
                            track=DECISIONS_TRACK,
                            cat="decision",
                            args={"job_id": job.job_id, "stage_id": stage_id,
                                  "from_delay": delays[stage_id],
                                  "to_delay": best_x, "makespan": best_obj},
                        )
                    delays[stage_id] = best_x
                    incumbent = best_obj
                    improved = True
        final = _evaluate(job, delays)
        if not improved:
            break

    fallback_applied = (
        params.fallback_to_immediate
        and final.parallel_makespan > baseline.parallel_makespan + 1e-6
    )
    if fallback_applied:
        delays = {sid: 0.0 for sid in delays}
        final = baseline
        tracer.instant(
            "fallback-to-immediate",
            _time.perf_counter() - started,
            track=DECISIONS_TRACK,
            cat="decision",
            args={"job_id": job.job_id},
        )

    tracer.counters.inc(
        "alg1.stages_delayed", sum(1 for x in delays.values() if x > 0)
    )
    if tracer.enabled and cache_hits:
        tracer.counters.inc("alg1.cache_hits", cache_hits)
    tracer.instant(
        "schedule",
        _time.perf_counter() - started,
        track=DECISIONS_TRACK,
        cat="decision",
        args={"job_id": job.job_id, "delays": dict(delays),
              "fallback_applied": fallback_applied,
              "predicted_makespan": final.parallel_makespan,
              "baseline_makespan": baseline.parallel_makespan,
              "evaluations": evaluations,
              "cache_hits": cache_hits,
              "pruned_by_bound": pruned_by_bound_total,
              "order": PathOrder(params.order).value},
    )

    return DelaySchedule(
        job_id=job.job_id,
        delays=delays,
        predicted_makespan=final.parallel_makespan,
        baseline_makespan=baseline.parallel_makespan,
        paths=tuple(paths),
        standalone_times=t_hat,
        evaluations=evaluations,
        compute_seconds=_time.perf_counter() - started,
    )
