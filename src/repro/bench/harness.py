"""Benchmark harness behind ``repro bench``.

Each benchmark times an optimized path against its escape-hatch
baseline (``--no-incremental`` / ``--no-memo`` equivalents) and checks
that both produce **identical results** — the speedups this repo claims
are only meaningful because the optimizations are bit-exact.

Event throughput counts :attr:`~repro.simulator.engine.FluidEngine.
TOTAL_EVENTS` — every engine loop iteration the timed section paid for,
including Algorithm 1's planning-probe simulations — sampled around
each run.  The per-run ``engine_events`` counter (final execution runs
only) is still recorded in the config for continuity with older
baselines, which divided it by a wall clock that nevertheless included
all the planning work.

Methodology
-----------
Container wall clocks are noisy, so variants are *interleaved*: each
repeat times the optimized path and the baseline back-to-back, and the
reported wall time is the best (minimum) over repeats — the standard
way to estimate the noise-free cost of a deterministic computation.
There is deliberately no absolute-time pass/fail: CI environments vary
too much for that.  The hard gate is equivalence; wall times and the
derived speedup are informational and archived as ``BENCH_<name>.json``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.obs.manifest import build_manifest


@dataclass
class BenchResult:
    """One benchmark's measurement, ready to serialize."""

    name: str
    wall_s: float
    baseline_wall_s: float
    jobs_per_s: "float | None"
    events_per_s: "float | None"
    equivalent: bool
    manifest_hash: str
    config: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.wall_s <= 0:
            return math.inf
        return self.baseline_wall_s / self.wall_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "jobs_per_s": self.jobs_per_s,
            "events_per_s": self.events_per_s,
            "manifest_hash": self.manifest_hash,
            "baseline": {"wall_s": self.baseline_wall_s},
            "speedup": self.speedup,
            "equivalent": self.equivalent,
            "config": dict(self.config),
        }

    def summary(self) -> str:
        eq = "ok" if self.equivalent else "MISMATCH"
        return (
            f"{self.name:8s} {self.wall_s * 1e3:9.1f} ms "
            f"(baseline {self.baseline_wall_s * 1e3:9.1f} ms, "
            f"{self.speedup:4.1f}x, equivalence {eq})"
        )


def _interleaved(
    optimized: Callable[[], object],
    baseline: Callable[[], object],
    repeats: int,
) -> tuple[float, float, object, object]:
    """Best-of-``repeats`` wall times with the variants interleaved."""
    best_o = best_b = math.inf
    out_o = out_b = None
    for _ in range(max(repeats, 1)):
        t0 = perf_counter()
        out_o = optimized()
        best_o = min(best_o, perf_counter() - t0)
        t0 = perf_counter()
        out_b = baseline()
        best_b = min(best_b, perf_counter() - t0)
    return best_o, best_b, out_o, out_b


# --------------------------------------------------------------------- #
# replay: the Fig. 14 twin-trace comparison (Fuxi + DelayStage, whose
# per-job Algorithm 1 planning dominates), all optimizations vs the
# --no-incremental --no-memo escape-hatch pipeline


def _replay_inputs(num_jobs: int, seed: int):
    """The exact job batch and cluster ``repro replay`` uses."""
    from repro.cluster.spec import alibaba_sim_cluster
    from repro.trace.generator import TraceGeneratorConfig, generate_trace
    from repro.trace.replay import to_job

    cluster = alibaba_sim_cluster(
        num_machines=3, storage_nodes=1, nic_mbps_range=(600, 2000), rng=0
    )
    trace = generate_trace(
        TraceGeneratorConfig(num_jobs=num_jobs * 2, replay_workers=3,
                             max_stages=60, replay_read_mb_per_sec=85.0),
        rng=seed,
    )
    return [to_job(tj) for tj in trace[:num_jobs]], cluster


#: Controlled references against the commit *before* the vector-engine
#: PR landed.  That PR also changed the event-throughput *metric*: the
#: old ``events_per_s`` divided the final execution runs' engine events
#: by a wall clock that included all of Algorithm 1's planning-probe
#: simulations (the bulk of the work), systematically undercounting.
#: The refreshed numbers divide ``TOTAL_EVENTS`` — every loop iteration
#: the timed section executed — by the same wall; both the old counter
#: (``engine_events``) and the new one (``total_events``) are recorded
#: in the config so either ratio can be recomputed.
_REPLAY_PRE_PR_REFERENCE = {
    "commit": "607aa01",
    "wall_s": 41.174,
    "baseline_wall_s": 174.961,
    "events_per_s": 2126.0,
    "events_metric": "engine_events (final execution runs only)",
}

_REALLOC_PRE_PR_REFERENCE = {
    "commit": "607aa01",
    "wall_s": 2.166,
    "baseline_wall_s": 2.873,
    "events_per_s": 3312.2,
    "events_metric": "engine_events (final execution runs only)",
}


def _sampled_total_events(fn):
    """Run ``fn``, returning (result, engine loop iterations executed)."""
    from repro.simulator.engine import FluidEngine

    before = FluidEngine.TOTAL_EVENTS
    result = fn()
    return result, FluidEngine.TOTAL_EVENTS - before


def bench_replay(quick: bool = False) -> BenchResult:
    """Twin-trace replay under Fuxi and DelayStage, as ``repro replay``."""
    from repro.core.delaystage import DelayStageParams
    from repro.schedulers.delaystage import DelayStageScheduler
    from repro.schedulers.fuxi import FuxiScheduler
    from repro.schedulers.runner import run_with_scheduler

    num_jobs = 8 if quick else 1000
    seed = 3
    penalty = 0.5
    jobs, cluster = _replay_inputs(num_jobs, seed)

    def _run(optimized: bool) -> tuple[list[float], int, int]:
        fuxi = FuxiScheduler(track_metrics=False, contention_penalty=penalty,
                             incremental=optimized)
        ds = DelayStageScheduler(
            profiled=False, track_metrics=False, contention_penalty=penalty,
            params=DelayStageParams(max_slots=12, memoize=optimized,
                                    bound_prune=optimized),
            incremental=optimized,
        )

        def _batch():
            jcts: list[float] = []
            events = 0
            for sched in (fuxi, ds):
                for job in jobs:
                    result = run_with_scheduler(job, cluster, sched).result
                    jcts.append(result.job_completion_time(job.job_id))
                    events += int(result.counters.get("engine_events", 0))
            return jcts, events

        (jcts, events), total = _sampled_total_events(_batch)
        return jcts, events, total

    wall, base_wall, opt, base = _interleaved(
        lambda: _run(True), lambda: _run(False), repeats=2 if quick else 1
    )
    jcts, events, total = opt
    manifest = build_manifest(
        seed=seed,
        config={"bench": "replay", "jobs": num_jobs, "penalty": penalty,
                "quick": quick},
    )
    return BenchResult(
        name="replay",
        wall_s=wall,
        baseline_wall_s=base_wall,
        jobs_per_s=num_jobs / wall,
        events_per_s=total / wall,
        equivalent=jcts == base[0],
        manifest_hash=manifest.config_hash,
        config={"jobs": num_jobs, "seed": seed, "penalty": penalty,
                "engine_events": events, "total_events": total,
                "quick": quick,
                "pre_pr_reference": dict(_REPLAY_PRE_PR_REFERENCE)},
    )


# --------------------------------------------------------------------- #
# realloc: the engine's fair-share reallocation hot loop, isolated by
# running one big multi-job simulation (many concurrent items, so each
# event triggers an allocation over a large active set)


def bench_realloc(quick: bool = False) -> BenchResult:
    """Concurrent multi-job simulation: scoped allocator vs full
    re-solve."""
    from repro.schedulers.fuxi import FuxiScheduler
    from repro.schedulers.runner import run_jobs_with_scheduler

    num_jobs = 30 if quick else 100
    seed = 3
    jobs, cluster = _replay_inputs(num_jobs, seed)

    def _run(optimized: bool):
        sched = FuxiScheduler(track_metrics=False, contention_penalty=0.5,
                              incremental=optimized)
        result = run_jobs_with_scheduler(jobs, cluster, sched)
        jcts = [result.job_completion_time(j.job_id) for j in jobs]
        return jcts, int(result.counters.get("engine_events", 0))

    wall, base_wall, opt, base = _interleaved(
        lambda: _run(True), lambda: _run(False), repeats=2 if quick else 3
    )
    jcts, events = opt
    manifest = build_manifest(
        seed=seed,
        config={"bench": "realloc", "jobs": num_jobs, "quick": quick},
    )
    return BenchResult(
        name="realloc",
        wall_s=wall,
        baseline_wall_s=base_wall,
        jobs_per_s=num_jobs / wall,
        events_per_s=events / wall,
        equivalent=jcts == base[0],
        manifest_hash=manifest.config_hash,
        config={"jobs": num_jobs, "seed": seed,
                "engine_events": events, "quick": quick,
                "pre_pr_reference": dict(_REALLOC_PRE_PR_REFERENCE)},
    )


# --------------------------------------------------------------------- #
# alg1: memoized + bound-pruned Algorithm 1 scan on the ALS workload

#: Controlled measurement against the commit *before* this perf layer
#: landed (no scoped allocator, no memo/prune/probes, none of the
#: engine micro-optimizations).  The in-repo escape-hatch baseline
#: necessarily keeps the engine micro-optimizations — the hatches only
#: switch off the algorithmic layers — so it understates the PR-level
#: gain; this reference records the real before/after.  Measured on the
#: ALS scan below via interleaved adjacent-process best-of-50 runs
#: (optimized checkout vs pre-PR worktree, alternating processes).
_ALG1_PRE_PR_REFERENCE = {
    "commit": "dac4d5b",
    "wall_s": 0.0658,
    "optimized_wall_s": 0.0300,
    "speedup": 2.19,
    "methodology": (
        "interleaved adjacent-process best-of runs on the same host; "
        "the in-repo escape-hatch baseline retains this PR's engine "
        "micro-optimizations and therefore understates the PR-level gain"
    ),
}


def bench_alg1(quick: bool = False) -> BenchResult:
    """Full ALS planning scan: memo + bound pruning vs plain Alg. 1."""
    from repro.cluster.spec import uniform_cluster
    from repro.core.delaystage import DelayStageParams, delay_stage_schedule
    from repro.simulator.simulation import SimulationConfig
    from repro.workloads.library import als

    job = als()
    cluster = uniform_cluster(
        3, executors_per_worker=2, nic_mbps=450, disk_mb_per_sec=150,
        storage_nodes=0,
    )
    iters = 3 if quick else 10
    repeats = 2 if quick else 5

    def _run(optimized: bool):
        # The baseline engages every escape hatch, like the CLI's
        # --no-incremental --no-memo bisection path: plain Algorithm 1
        # whose candidate evaluations re-solve fair sharing globally.
        params = DelayStageParams(
            memoize=optimized, bound_prune=optimized,
            sim_config=SimulationConfig(
                track_metrics=False, incremental=optimized),
        )
        schedule = None
        for _ in range(iters):
            schedule = delay_stage_schedule(job, cluster, params)
        return schedule

    _run(True)  # warm-up: imports, allocator caches
    wall, base_wall, opt, base = _interleaved(
        lambda: _run(True), lambda: _run(False), repeats=repeats
    )
    wall /= iters
    base_wall /= iters
    manifest = build_manifest(
        seed=None,
        config={"bench": "alg1", "workload": "als", "quick": quick},
        jobs=[job],
    )
    equivalent = (
        opt.delays == base.delays
        and opt.predicted_makespan == base.predicted_makespan
        and opt.baseline_makespan == base.baseline_makespan
    )
    return BenchResult(
        name="alg1",
        wall_s=wall,
        baseline_wall_s=base_wall,
        jobs_per_s=1.0 / wall,
        events_per_s=None,
        equivalent=equivalent,
        manifest_hash=manifest.config_hash,
        config={"workload": "als", "iters": iters, "repeats": repeats,
                "evaluations": opt.evaluations,
                "baseline_evaluations": base.evaluations, "quick": quick,
                "pre_pr_reference": dict(_ALG1_PRE_PR_REFERENCE)},
    )


BENCHMARKS: "dict[str, Callable[[bool], BenchResult]]" = {
    "realloc": bench_realloc,
    "alg1": bench_alg1,
    "replay": bench_replay,
}


def _select(names: "list[str] | None") -> list[str]:
    selected = list(BENCHMARKS) if not names else names
    for name in selected:
        if name not in BENCHMARKS:
            raise ValueError(
                f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}"
            )
    return selected


def run_benchmarks(
    names: "list[str] | None" = None,
    quick: bool = False,
) -> list[BenchResult]:
    """Run the named benchmarks (all by default) in definition order."""
    return [BENCHMARKS[name](quick) for name in _select(names)]


def profile_benchmarks(
    names: "list[str] | None" = None,
    quick: bool = True,
    top: "int | None" = None,
):
    """Run benchmarks under cProfile; returns (result, report) pairs.

    Profiled wall times are distorted (see
    :mod:`repro.profiling.hotspots`), so callers must not archive the
    ``BenchResult`` timings — the equivalence bit and the hotspot table
    are the outputs.
    """
    from repro.profiling.hotspots import DEFAULT_TOP, capture_hotspots

    pairs = []
    for name in _select(names):
        result, report = capture_hotspots(
            lambda name=name: BENCHMARKS[name](quick),
            name=name,
            top=top or DEFAULT_TOP,
        )
        pairs.append((result, report))
    return pairs


def write_profiles(reports, out_dir: str) -> list[str]:
    """Write one ``PROFILE_<name>.txt`` per report; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for report in reports:
        path = os.path.join(out_dir, f"PROFILE_{report.name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {report.summary()}\n")
            fh.write(report.text)
        paths.append(path)
    return paths


def write_results(results: "list[BenchResult]", out_dir: str) -> list[str]:
    """Write one ``BENCH_<name>.json`` per result; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for res in results:
        path = os.path.join(out_dir, f"BENCH_{res.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths
