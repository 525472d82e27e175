"""Workload inputs: jobs from the trace twin, a fixed size mix per seed.

Every workload draws its jobs from ``generate_trace`` with the settings
``repro replay`` and ``repro serve`` use, on the replay cluster those
commands build.  A plain prefix of the trace would let the number of
50-60-stage giants swing from one seed to the next (over seeds 0-19 a
200-job prefix held 0 to 6), and the giants are half of the planning
cost, so the benchmark takes a *stratified* sample instead: the seed
picks which jobs, while the count per stage-count bucket is fixed at
the trace's own long-run shares.  Jobs keep their trace order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: Stage-count buckets with their share of the trace twin, measured
#: once on a 100,000-job trace (settings below, seed 987654).
BUCKETS: "tuple[tuple[int, int, float], ...]" = (
    (1, 3, 0.2186),
    (4, 5, 0.25468),
    (6, 7, 0.22883),
    (8, 10, 0.15534),
    (11, 15, 0.08494),
    (16, 29, 0.03858),
    (30, 49, 0.00444),
    (50, 60, 0.01459),
)


def trace_config(num_jobs: int):
    from repro.trace.generator import TraceGeneratorConfig

    return TraceGeneratorConfig(
        num_jobs=num_jobs, replay_workers=3, max_stages=60,
        replay_read_mb_per_sec=85.0,
    )


def replay_cluster():
    from repro.cluster import alibaba_sim_cluster

    return alibaba_sim_cluster(
        num_machines=3, storage_nodes=1, nic_mbps_range=(600, 2000), rng=0
    )


def bucket_of(stages: int) -> int:
    for i, (lo, hi, _) in enumerate(BUCKETS):
        if lo <= stages <= hi:
            return i
    raise ValueError(f"no bucket holds {stages} stages")


def quotas(n: int) -> "list[int]":
    """Jobs per bucket for an ``n``-job sample (largest remainder)."""
    total = sum(share for *_, share in BUCKETS)
    exact = [n * share / total for *_, share in BUCKETS]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def stratified_trace(seed: int, n: int) -> list:
    """``n`` trace jobs with the fixed bucket mix, in trace order.

    The pool starts at four times ``n`` and doubles until every bucket
    is filled, so the result is a pure function of ``(seed, n)``.
    """
    from repro.trace.generator import generate_trace

    want = quotas(n)
    pool_size = 4 * n
    while True:
        trace = generate_trace(trace_config(pool_size), rng=seed)
        taken = [0] * len(BUCKETS)
        chosen = []
        for tj in trace:
            b = bucket_of(len(tj.stages))
            if taken[b] < want[b]:
                taken[b] += 1
                chosen.append(tj)
        if taken == want:
            return chosen
        pool_size *= 2


@dataclass
class Inputs:
    jobs: list
    cluster: object
    #: Median host seconds of one set-up (trace + to_job + cluster).
    setup_s: float


def build(seed: int, n: int, repeats: int = 3) -> Inputs:
    """Set up ``repeats`` times (identical inputs) and keep the median
    time; the jobs of the last repeat are returned."""
    from repro.trace.replay import to_job

    samples = []
    for _ in range(repeats):
        t0 = time.thread_time()
        cfg = trace_config(n)
        jobs = [to_job(tj, cfg) for tj in stratified_trace(seed, n)]
        cluster = replay_cluster()
        samples.append(time.thread_time() - t0)
    ordered = sorted(samples)
    return Inputs(jobs, cluster, ordered[len(ordered) // 2])
