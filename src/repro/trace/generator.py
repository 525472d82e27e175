"""Statistical twin of the Alibaba cluster trace v2018.

The real trace is not redistributable, so experiments are driven by a
synthetic trace engineered to match every statistic of the trace the
paper measures or relies on:

* 2,775,025 jobs over 8 days on 4,000 machines (scaled down by
  ``num_jobs`` — experiments sample anyway);
* 68.6 % of jobs contain parallel stages (Sec. 2.1);
* parallel stages ≈ 79.1 % of all stages (Sec. 2.1, Fig. 2);
* ~90 % of jobs have fewer than 15 parallel stages (Sec. 4.1);
* job stage counts reaching 4–186 for DAG jobs (Sec. 5.3);
* stage runtimes mostly within 10–3,000 s (Sec. 2.1);
* the parallel-stage makespan exceeds 60 % of the job duration for
  over 80 % of jobs, with mean 82.3 % (Fig. 3);
* machine CPU utilization averaging 20–50 % and network utilization
  30–45 %, with a single machine fluctuating between idle and ~98 %
  busy and spending ~39 % of time below 10 % CPU (Fig. 4).

The generator also attaches per-stage volumes and processing rates so
generated jobs can be *replayed* through the simulator for the
Fig. 14 / Table 4 scheduler comparison; volumes are sized so each
stage's standalone runtime on the reference replay cluster roughly
matches its recorded trace runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.schema import TraceJob, TraceStage
from repro.util.rng import resolve_rng


@dataclass(frozen=True)
class TraceGeneratorConfig:
    """Knobs of the statistical twin.

    Defaults reproduce the published statistics; tests assert the
    resulting marginals, so change them deliberately.
    """

    num_jobs: int = 1000
    span_seconds: float = 8 * 24 * 3600.0  # the trace's 8 days
    fraction_parallel_jobs: float = 0.686
    #: Chain (non-parallel) jobs: 1 + geometric stage count.
    chain_geom_p: float = 0.45
    #: Parallel jobs: 4 + lognormal stage count, clipped to 186 total.
    dag_size_mu: float = 1.2
    dag_size_sigma: float = 0.85
    max_stages: int = 186
    #: Fraction of parallel jobs drawn from a wide uniform tail,
    #: giving the 50–186-stage giants of Sec. 5.3 / Fig. 15.
    giant_fraction: float = 0.02
    #: Stage-duration lognormal (seconds), clipped to [10, 3000].
    duration_mu: float = 3.9
    duration_sigma: float = 1.3
    #: Head/tail (sequential) stages use durations scaled by this, so
    #: the parallel makespan dominates as in Fig. 3.
    sequential_duration_scale: float = 0.30
    #: Replay-cluster nominal rates used to invert durations to volumes.
    replay_workers: int = 8
    replay_cores: int = 4
    replay_read_mb_per_sec: float = 115.0
    replay_write_mb_per_sec: float = 80.0


def _chain_job(
    job_id: str, n: int, t0: float, cfg: TraceGeneratorConfig, gen: np.random.Generator
) -> TraceJob:
    """A purely sequential job (no parallel stages)."""
    stages, edges = [], []
    clock = t0
    prev = None
    for i in range(n):
        d = _duration(cfg, gen)
        sid = f"S{i + 1}"
        stages.append(_stage(sid, clock, d, cfg, gen))
        if prev is not None:
            edges.append((prev, sid))
        prev = sid
        clock += d
    return TraceJob(job_id, stages, edges, submit_time=t0)


def _dag_job(
    job_id: str, n: int, t0: float, cfg: TraceGeneratorConfig, gen: np.random.Generator
) -> TraceJob:
    """A job with parallel branches: optional head, B branches, tail."""
    head = 1 if (n >= 5 and gen.random() < 0.25) else 0
    tail = int(gen.integers(1, 3)) if (n - head >= 8 and gen.random() < 0.3) else 1
    tail = min(tail, max(n - head - 2, 1))
    middle = n - head - tail
    # Few, deep branches: execution paths of two or more stages give the
    # read/compute alternation that resource interleaving exploits (and
    # that real per-branch map→reduce chains exhibit).
    branches = 2 + int(gen.poisson(1.2))
    branches = max(2, min(branches, 8, middle // 2 if middle >= 4 else middle))

    stages: list[TraceStage] = []
    edges: list[tuple[str, str]] = []
    idx = 0

    def new_id() -> str:
        nonlocal idx
        idx += 1
        return f"S{idx}"

    head_id = None
    head_end = t0
    if head:
        d = _duration(cfg, gen) * cfg.sequential_duration_scale
        head_id = new_id()
        stages.append(_stage(head_id, t0, d, cfg, gen))
        head_end = t0 + d

    # Distribute middle stages round-robin over the branches.  Stages at
    # the same depth across branches are near-identical: production
    # fan-outs shard one operation into symmetric parallel stages, which
    # is exactly what synchronizes their resource phases under naive
    # scheduling (Sec. 2.1).
    per_branch: list[list[str]] = [[] for _ in range(branches)]
    branch_clock = [head_end] * branches
    depth_duration: dict[int, float] = {}
    depth_shares: dict[int, tuple[float, float]] = {}
    for i in range(middle):
        b = i % branches
        depth = i // branches
        if depth not in depth_duration:
            depth_duration[depth] = _duration(cfg, gen)
            depth_shares[depth] = (
                float(gen.uniform(0.38, 0.58)),
                float(gen.uniform(0.02, 0.10)),
            )
        d = depth_duration[depth] * float(gen.uniform(0.9, 1.1))
        sid = new_id()
        stages.append(_stage(sid, branch_clock[b], d, cfg, gen, shares=depth_shares[depth]))
        if per_branch[b]:
            edges.append((per_branch[b][-1], sid))
        elif head_id is not None:
            edges.append((head_id, sid))
        per_branch[b].append(sid)
        branch_clock[b] += d

    join_time = max(branch_clock)
    prev_tail = None
    clock = join_time
    for _ in range(tail):
        d = _duration(cfg, gen) * cfg.sequential_duration_scale
        sid = new_id()
        stages.append(_stage(sid, clock, d, cfg, gen))
        if prev_tail is None:
            for branch in per_branch:
                if branch:
                    edges.append((branch[-1], sid))
        else:
            edges.append((prev_tail, sid))
        prev_tail = sid
        clock += d

    return TraceJob(job_id, stages, edges, submit_time=t0)


def _duration(cfg: TraceGeneratorConfig, gen: np.random.Generator) -> float:
    # Plain min/max: np.clip on one scalar costs microseconds per stage.
    return min(max(gen.lognormal(cfg.duration_mu, cfg.duration_sigma), 10.0), 3000.0)


def _stage(
    sid: str,
    start: float,
    duration: float,
    cfg: TraceGeneratorConfig,
    gen: np.random.Generator,
    shares: "tuple[float, float] | None" = None,
) -> TraceStage:
    """Build a stage record with volumes inverting the duration.

    The duration is split into read / compute / write shares and each
    share is converted to a volume using the replay cluster's nominal
    rates, so a standalone run of the replayed stage approximates the
    recorded runtime.  ``shares`` fixes the (read, write) split — used
    to keep same-depth sibling stages symmetric.
    """
    if shares is not None:
        read_share, write_share = shares
    else:
        read_share = float(gen.uniform(0.25, 0.55))
        write_share = float(gen.uniform(0.02, 0.10))
    compute_share = 1.0 - read_share - write_share

    w = cfg.replay_workers
    input_mb = duration * read_share * cfg.replay_read_mb_per_sec * w / max(w - 1, 1) * (w - 1)
    # Per-worker compute time = (input / w) / (cores * R)  =>  R:
    per_worker_mb = input_mb / w
    rate = per_worker_mb / (cfg.replay_cores * duration * compute_share)
    output_mb = duration * write_share * cfg.replay_write_mb_per_sec * w

    return TraceStage(
        stage_id=sid,
        start_time=start,
        end_time=start + duration,
        instance_num=int(gen.integers(1, 256)),
        input_mb=max(input_mb, 1.0),
        output_mb=max(output_mb, 1.0),
        process_rate_mb=max(rate, 0.05),
    )


def generate_trace(
    config: "TraceGeneratorConfig | None" = None,
    rng: "int | np.random.Generator | None" = 0,
) -> list[TraceJob]:
    """Generate the synthetic trace (list of jobs with DAGs and times)."""
    cfg = config or TraceGeneratorConfig()
    gen = resolve_rng(rng)
    jobs: list[TraceJob] = []
    arrivals = np.sort(gen.uniform(0.0, cfg.span_seconds, size=cfg.num_jobs))
    for i in range(cfg.num_jobs):
        job_id = f"j{i}"
        t0 = float(arrivals[i])
        if gen.random() < cfg.fraction_parallel_jobs:
            if gen.random() < cfg.giant_fraction:
                lo = min(50, max(cfg.max_stages - 1, 4))
                n = int(gen.integers(lo, cfg.max_stages + 1))
            else:
                n = 4 + int(gen.lognormal(cfg.dag_size_mu, cfg.dag_size_sigma))
            n = min(n, cfg.max_stages)
            jobs.append(_dag_job(job_id, n, t0, cfg, gen))
        else:
            n = 1 + int(gen.geometric(cfg.chain_geom_p))
            jobs.append(_chain_job(job_id, min(n, cfg.max_stages), t0, cfg, gen))
    return jobs


def open_loop_arrivals(
    config: "TraceGeneratorConfig | None" = None,
    rng: "int | np.random.Generator | None" = 0,
    *,
    rate_jobs_per_s: float = 0.05,
    num_jobs: "int | None" = None,
    start: float = 0.0,
) -> "list[tuple[float, TraceJob]]":
    """Sample an open-loop submission schedule from the trace twin.

    Draws jobs from :func:`generate_trace` and re-times them as a
    Poisson arrival process at ``rate_jobs_per_s`` — the streaming
    analogue of the batch replay: inter-arrival gaps are exponential
    with mean ``1 / rate``, independent of job size and of how busy
    the service is (arrivals never back off, which is what makes
    overload reachable and load shedding observable).  Cranking the
    rate 10×/100× past the service rate is exactly the overload knob
    the service load tests turn.

    Returns ``[(submit_t, trace_job), ...]`` sorted by time; pair with
    :func:`repro.trace.replay.to_job` to get simulatable DAGs.  The
    schedule is a pure function of ``(config, rng, rate, num_jobs,
    start)`` — same seed, same schedule — so a service run and its
    offline replay see byte-identical jobs.
    """
    if rate_jobs_per_s <= 0:
        raise ValueError(
            f"rate_jobs_per_s must be positive, got {rate_jobs_per_s}"
        )
    cfg = config or TraceGeneratorConfig()
    n = cfg.num_jobs if num_jobs is None else int(num_jobs)
    if n < 0:
        raise ValueError(f"num_jobs must be >= 0, got {n}")
    if n > cfg.num_jobs:
        cfg = TraceGeneratorConfig(**{**cfg.__dict__, "num_jobs": n})
    gen = resolve_rng(rng)
    jobs = generate_trace(cfg, gen)[:n]
    gaps = gen.exponential(1.0 / rate_jobs_per_s, size=n)
    t = float(start)
    schedule: "list[tuple[float, TraceJob]]" = []
    for job, gap in zip(jobs, gaps):
        t += float(gap)
        schedule.append((t, job))
    return schedule


def generate_machine_usage(
    num_machines: int = 100,
    span_seconds: float = 8 * 24 * 3600.0,
    step_seconds: float = 300.0,
    rng: "int | np.random.Generator | None" = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthesize per-machine CPU and network utilization series.

    Returns ``(timestamps, cpu, net)`` where ``cpu`` and ``net`` are
    ``(num_machines, num_steps)`` arrays in percent.  Machines
    alternate between busy bursts (~40–98 % CPU) and idle troughs
    (< 10 %), modulated by a diurnal cycle; averaging across machines
    lands in the paper's 20–50 % CPU / 30–45 % network bands while a
    single machine shows the full-idle-to-full-busy swings of
    Fig. 4(b).
    """
    gen = resolve_rng(rng)
    steps = int(span_seconds // step_seconds)
    t = np.arange(steps) * step_seconds
    diurnal = 0.5 + 0.5 * np.sin(2 * np.pi * t / 86400.0 - np.pi / 2)  # 0..1, peak midday

    cpu = np.empty((num_machines, steps))
    net = np.empty((num_machines, steps))
    for m in range(num_machines):
        busy_level = float(gen.uniform(50.0, 95.0))
        idle_level = float(gen.uniform(0.0, 8.0))
        # Alternate busy/idle periods with exponential lengths; busier
        # around midday via the diurnal weight.
        state = gen.random() < 0.4
        i = 0
        busy_mask = np.zeros(steps, dtype=bool)
        while i < steps:
            mean_len = 7.0 if state else 5.0
            length = max(1, int(gen.exponential(mean_len)))
            busy_mask[i : i + length] = state
            i += length
            p_busy = 0.30 + 0.30 * diurnal[min(i, steps - 1)]
            state = gen.random() < p_busy
        noise = gen.normal(0.0, 4.0, size=steps)
        cpu[m] = np.clip(np.where(busy_mask, busy_level, idle_level) + noise, 0.0, 100.0)
        # Network tracks CPU bursts loosely (shuffle-heavy periods) with
        # its own base so cluster averages land in the 30-45% band.
        net_busy = float(gen.uniform(42.0, 62.0))
        net_idle = float(gen.uniform(10.0, 25.0))
        net[m] = np.clip(
            np.where(busy_mask, net_busy, net_idle) + gen.normal(0.0, 5.0, size=steps),
            0.0,
            100.0,
        )
    return t, cpu, net
