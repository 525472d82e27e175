"""Critical-path extraction and exact makespan/JCT blame attribution.

The reports of :mod:`repro.obs.metrics` show *that* a run got faster;
this module shows *where the time went*.  For every finished job it
walks the stage records backwards from the last completion — the same
data the span emitter reads — producing the chain of stages whose
phases determined the job's completion time, then attributes every
second of that chain to exactly one blame category:

``compute``
    Contention-free processing time: the part's compute volume over the
    rate the fair-share allocator would grant a stage alone on the node
    (``executors * R_k`` — the single-stage fast path of
    :func:`repro.simulator.fairshare.compute_shares`).
``network``
    Contention-free shuffle-read time: the stage's own flow set
    water-filled alone on the healthy topology (the identical
    :func:`~repro.simulator.fairshare.maxmin_rates_seq` solver the
    engine uses), cascaded through completions.
``disk``
    Contention-free shuffle-write time (full node disk bandwidth — the
    single-writer path of :func:`~repro.simulator.fairshare.disk_shares`).
``delay_wait``
    Deliberate submission postponement (Algorithm 1's delays; in fault
    mode also injector-imposed submission gating).
``contention``
    Wanted-rate minus granted-rate time: the measured phase duration in
    excess of its alone-on-the-cluster baseline — time lost to sharing
    resources with concurrent stages (and, after a degradation event,
    to the reduced capacity itself).
``fault_retry``
    The same excess, for stages that burned retries: redone partitions,
    backoff, and recovery time (requires a fault-mode run).
``dependency``
    Time waiting on upstream completions that is not covered by a
    parent on the critical chain — the job-submission offset for root
    stages and any inter-stage hand-off gap (exactly zero in healthy
    runs, where a child becomes ready at the instant its last parent
    finishes).

**Exactness invariant.**  Durations are accumulated as
:class:`fractions.Fraction` values of the float timestamps, so the
telescoping interval sums cancel in exact rational arithmetic: per job
the categories sum to ``Fraction(finish) - Fraction(submit)``, whose
float value equals the measured JCT *bit-for-bit* (IEEE subtraction and
``Fraction.__float__`` are both correctly rounded).  The baselines are
clamped into the measured span in the same exact arithmetic, so no
rounding ever leaks into the identity.  ``RunBlame.identity_exact`` /
``JobBlame.identity_exact`` report the invariant; the test suite
asserts it over random DAGs and fault-injected runs.

Everything here runs *after* the simulation from the result object and
the :class:`~repro.simulator.simulation.StageDemand` accounting the
simulator assembles post-run — the engine's hot loop is untouched, so
enabling blame analysis leaves results, event-log bytes, and traces
bit-identical.

Import discipline: like :mod:`repro.obs.metrics`, this module is
reachable from ``repro.obs.__init__`` which the simulator imports, so
at module level it depends only on the standard library; simulator
imports happen lazily inside the builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.spec import ClusterSpec
    from repro.dag.job import Job
    from repro.simulator.simulation import (
        SimulationResult,
        StageDemand,
        StageRecord,
    )

#: Blame categories, in rendering order.  Every critical-path second
#: lands in exactly one of these.
CATEGORIES: "tuple[str, ...]" = (
    "compute",
    "network",
    "disk",
    "delay_wait",
    "contention",
    "fault_retry",
    "dependency",
)

#: Categories counted as *execution* time by :func:`blame_diff`'s
#: recovery metric — the serial/contended time a better schedule can
#: convert into overlap (``delay_wait`` is excluded: it is the price
#: paid, not the time recovered).
EXECUTION_CATEGORIES: "tuple[str, ...]" = (
    "compute", "network", "disk", "contention", "fault_retry", "dependency",
)

#: Relative completion threshold for the alone-read cascade; mirrors
#: :attr:`repro.simulator.engine.FluidEngine.EPS`.
_EPS = 1e-9


# --------------------------------------------------------------------- #
# result dataclasses


@dataclass(frozen=True)
class StageBlame:
    """One stage's contribution to its job's critical path."""

    job_id: str
    stage_id: str
    #: Critical-chain span covered by this stage: ``ready_time`` (plus
    #: any dependency gap before it) through ``finish_time``.
    start: float
    finish: float
    #: Per-category seconds (floats rounded from the exact fractions).
    seconds: "dict[str, float]"
    #: Algorithm 1's chosen delay for this stage (decision-audit
    #: cross-link); ``None`` when the run had no delay table.
    chosen_delay: "float | None" = None
    #: Fault-mode retries charged to this stage.
    retries: int = 0

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "stage_id": self.stage_id,
            "start": float(self.start),
            "finish": float(self.finish),
            "seconds": {k: float(v) for k, v in self.seconds.items()},
            "chosen_delay": (
                None if self.chosen_delay is None else float(self.chosen_delay)
            ),
            "retries": int(self.retries),
        }


@dataclass(frozen=True)
class JobBlame:
    """Exact blame decomposition of one job's completion time."""

    job_id: str
    #: Measured JCT (``finish_time - submit_time``).
    jct_seconds: float
    #: Per-category seconds; ``float`` roundings of the exact sums.
    categories: "dict[str, float]"
    #: Critical chain, root first.
    stages: "tuple[StageBlame, ...]"
    #: Exact per-category sums (internal; drives the identity check).
    exact: "dict[str, Fraction]" = field(repr=False, compare=False, default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Float value of the *exact* category sum."""
        return float(sum(self.exact.values(), Fraction(0)))

    @property
    def identity_exact(self) -> bool:
        """Categories sum to the measured JCT bit-for-bit."""
        return self.total_seconds == self.jct_seconds

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "jct_seconds": float(self.jct_seconds),
            "total_seconds": self.total_seconds,
            "identity_exact": self.identity_exact,
            "categories": {k: float(v) for k, v in self.categories.items()},
            "stages": [s.to_dict() for s in self.stages],
        }


@dataclass(frozen=True)
class RunBlame:
    """Blame decomposition for a whole run (all jobs + the makespan)."""

    label: str
    #: Measured makespan (finish time of the last job).
    makespan_seconds: float
    #: Job whose completion set the makespan.
    makespan_job: str
    #: Per-category seconds along the makespan-setting path (the
    #: makespan job's categories, plus its submission offset under
    #: ``dependency``).
    categories: "dict[str, float]"
    jobs: "dict[str, JobBlame]"
    #: Exact makespan category sums (internal).
    exact: "dict[str, Fraction]" = field(repr=False, compare=False, default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.exact.values(), Fraction(0)))

    @property
    def identity_exact(self) -> bool:
        """Makespan categories sum to the measured makespan bit-for-bit
        — and every job's identity holds too."""
        return self.total_seconds == self.makespan_seconds and all(
            j.identity_exact for j in self.jobs.values()
        )

    def top_jobs(self, k: int = 5) -> "list[tuple[str, float]]":
        """The ``k`` largest jobs by critical-path (completion) time."""
        ranked = sorted(
            ((j.jct_seconds, jid) for jid, j in self.jobs.items()),
            key=lambda t: (-t[0], t[1]),
        )
        return [(jid, jct) for jct, jid in ranked[:k]]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "makespan_seconds": float(self.makespan_seconds),
            "makespan_job": self.makespan_job,
            "total_seconds": self.total_seconds,
            "identity_exact": self.identity_exact,
            "categories": {k: float(v) for k, v in self.categories.items()},
            "jobs": {jid: j.to_dict() for jid, j in self.jobs.items()},
        }


@dataclass(frozen=True)
class BlameDiff:
    """Per-category comparison of two runs' blame decompositions."""

    baseline: str
    candidate: str
    makespan_baseline: float
    makespan_candidate: float
    #: Seconds saved per category (baseline minus candidate; positive
    #: means the candidate spent less time there).
    saved: "dict[str, float]"

    @property
    def makespan_saved(self) -> float:
        return self.makespan_baseline - self.makespan_candidate

    @property
    def recovery_seconds(self) -> float:
        """Execution time the candidate recovered: positive savings over
        the non-delay categories (compute/network/disk/contention/
        fault-retry/dependency).  The paper's "serial time converted
        into overlap" reads directly off this number."""
        return sum(max(self.saved[c], 0.0) for c in EXECUTION_CATEGORIES)

    @property
    def delay_invested(self) -> float:
        """Extra deliberate delay the candidate paid (negative savings
        on ``delay_wait``)."""
        return max(-self.saved["delay_wait"], 0.0)

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "candidate": self.candidate,
            "makespan_baseline": float(self.makespan_baseline),
            "makespan_candidate": float(self.makespan_candidate),
            "makespan_saved": float(self.makespan_saved),
            "recovery_seconds": float(self.recovery_seconds),
            "delay_invested": float(self.delay_invested),
            "saved": {k: float(v) for k, v in self.saved.items()},
        }


# --------------------------------------------------------------------- #
# alone-on-the-cluster phase baselines (the allocator's wanted rates)


def _alone_read_seconds(
    flow_spec: "Iterable[tuple[str, str, float]]", cluster: "ClusterSpec"
) -> float:
    """Stage-alone shuffle-read duration from the allocator itself.

    Builds the stage's own flow set and water-fills it on the healthy
    topology with the engine's exact solver, cascading through flow
    completions: after each completion the surviving flows are
    re-solved, exactly as the fluid engine would with the stage alone
    on the cluster.  The result is the read phase's contention-free
    ("wanted-rate") duration.
    """
    from repro.cluster.topology import Topology
    from repro.simulator.fairshare import maxmin_rates_seq
    from repro.simulator.flows import NetworkFlow

    flows = [
        NetworkFlow(src=src, dst=dst, volume=vol, stage_key=("_alone", "read"))
        for src, dst, vol in flow_spec
        if vol > 0.0 and src != dst
    ]
    if not flows:
        return 0.0
    topology = Topology(cluster)
    elapsed = 0.0
    # Each iteration completes at least one flow, so the loop is bounded
    # by the flow count; the +1 guard catches a zero-rate stall.
    for _ in range(len(flows) + 1):
        if not flows:
            return elapsed
        rates = maxmin_rates_seq(flows, topology)
        for f, r in zip(flows, rates):
            f.rate = float(r)
        dt = math.inf
        for f in flows:
            if f.rate > 0.0:
                t = f.remaining / f.rate
                if t < dt:
                    dt = t
        if not math.isfinite(dt):  # pragma: no cover - defensive
            return elapsed
        elapsed += dt
        survivors = []
        for f in flows:
            rem = f.remaining - f.rate * dt
            f.remaining = rem if rem > 0.0 else 0.0
            if f.remaining > _EPS * max(f.rate, 1.0):
                survivors.append(f)
        flows = survivors
    return elapsed  # pragma: no cover - loop bound is exact


def _phase_baselines(
    demand: "StageDemand", stage, cluster: "ClusterSpec"
) -> "tuple[float, float, float]":
    """(read, compute, write) contention-free seconds for one stage.

    Wanted rates follow the fair-share allocator's alone-on-the-resource
    fast paths: a single stage computing on a node owns every executor
    (``rate = executors * R_k``), a single writer owns the disk
    (``rate = disk_bandwidth``), and a stage's flows alone on the
    network water-fill to their NIC-limited rates.  The slowest worker
    bounds each phase, mirroring Eq. (2).
    """
    flow_spec = [
        (src, w, demand.read_volumes[w] / len(srcs))
        for w, srcs in demand.remote_sources.items()
        if srcs and demand.read_volumes.get(w, 0.0) > 0.0
        for src in srcs
    ]
    read = _alone_read_seconds(flow_spec, cluster)

    compute = 0.0
    write = 0.0
    for w in demand.read_volumes:
        node = cluster.node(w)
        if demand.compute_volume > 0.0 and node.executors > 0:
            t = demand.compute_volume / (node.executors * stage.process_rate)
            if t > compute:
                compute = t
        if demand.write_volume > 0.0 and node.disk_bandwidth > 0:
            t = demand.write_volume / node.disk_bandwidth
            if t > write:
                write = t
    return read, compute, write


# --------------------------------------------------------------------- #
# critical-path walk


def _finite(x: float) -> bool:
    return isinstance(x, float) and math.isfinite(x) or isinstance(x, int)


def _critical_parent(
    rec: "StageRecord",
    parents: "Sequence[str]",
    records: "Mapping[tuple[str, str], StageRecord]",
) -> "StageRecord | None":
    """The parent whose completion gated ``rec`` becoming ready.

    Healthy runs: a child becomes ready at the exact engine instant its
    last parent finishes, so the last-finishing parent's ``finish_time``
    equals ``rec.ready_time`` bit-for-bit.  Fault-mode re-gating keeps
    the invariant for the *final* recorded times; parents that finished
    after the child's (re-)ready instant are never on its chain, so
    candidates are restricted to ``finish_time <= ready_time``.  Ties
    break on stage id for determinism.
    """
    best: "StageRecord | None" = None
    for pid in parents:
        prec = records.get((rec.job_id, pid))
        if prec is None or not math.isfinite(prec.finish_time):
            continue
        if prec.finish_time > rec.ready_time:
            continue
        if (
            best is None
            or prec.finish_time > best.finish_time
            or (prec.finish_time == best.finish_time
                and prec.stage_id < best.stage_id)
        ):
            best = prec
    return best


def _job_blame(
    result: "SimulationResult",
    job: "Job",
    delays: "Mapping[str, float] | None",
) -> "JobBlame | None":
    jrec = result.job_records.get(job.job_id)
    if jrec is None or not math.isfinite(jrec.finish_time):
        return None  # job failed / never finished: no completion to blame

    records = result.stage_records
    demands = result.demands or {}
    finished = [
        rec
        for (jid, _sid), rec in records.items()
        if jid == job.job_id and math.isfinite(rec.finish_time)
    ]
    if not finished:
        return None

    totals: "dict[str, Fraction]" = {c: Fraction(0) for c in CATEGORIES}
    stages: "list[StageBlame]" = []

    # Last completion first; ties break on stage id for determinism.
    current = max(finished, key=lambda r: (r.finish_time, r.stage_id))
    # The job record's finish is stamped at the same engine instant as
    # its last stage completion; any (pathological) residue is waiting,
    # not execution.
    totals["dependency"] += Fraction(jrec.finish_time) - Fraction(
        current.finish_time
    )

    seen: "set[str]" = set()
    while current is not None and current.stage_id not in seen:
        seen.add(current.stage_id)
        rec = current
        key = (rec.job_id, rec.stage_id)
        demand = demands.get(key)
        stage_exact: "dict[str, Fraction]" = {c: Fraction(0) for c in CATEGORIES}

        read_span = Fraction(rec.read_done_time) - Fraction(rec.submit_time)
        compute_span = Fraction(rec.compute_done_time) - Fraction(
            rec.read_done_time
        )
        write_span = Fraction(rec.finish_time) - Fraction(rec.compute_done_time)
        delay_span = Fraction(rec.submit_time) - Fraction(rec.ready_time)

        if demand is not None:
            job_obj = job  # stage parameters for the wanted compute rate
            read_ideal, compute_ideal, write_ideal = _phase_baselines(
                demand, job_obj.stage(rec.stage_id), result.cluster
            )
            # Clamp the baseline into the measured span in exact
            # arithmetic, so base + excess == span identically.
            read_base = min(Fraction(read_ideal), read_span)
            compute_base = min(Fraction(compute_ideal), compute_span)
            write_base = min(Fraction(write_ideal), write_span)
            excess = (
                (read_span - read_base)
                + (compute_span - compute_base)
                + (write_span - write_base)
            )
            excess_cat = "fault_retry" if demand.retries > 0 else "contention"
            stage_exact["network"] += read_base
            stage_exact["compute"] += compute_base
            stage_exact["disk"] += write_base
            stage_exact[excess_cat] += excess
        else:
            # No demand accounting (e.g. loaded from a stripped result):
            # whole phases land on their nominal categories.
            stage_exact["network"] += read_span
            stage_exact["compute"] += compute_span
            stage_exact["disk"] += write_span
        stage_exact["delay_wait"] += delay_span

        parent = _critical_parent(rec, job.parents(rec.stage_id), records)
        if parent is not None:
            gap = Fraction(rec.ready_time) - Fraction(parent.finish_time)
        else:
            gap = Fraction(rec.ready_time) - Fraction(jrec.submit_time)
        stage_exact["dependency"] += gap

        for c, v in stage_exact.items():
            totals[c] += v
        stages.append(
            StageBlame(
                job_id=rec.job_id,
                stage_id=rec.stage_id,
                start=rec.ready_time,
                finish=rec.finish_time,
                seconds={c: float(v) for c, v in stage_exact.items()},
                chosen_delay=(
                    None if delays is None else delays.get(rec.stage_id)
                ),
                retries=demand.retries if demand is not None else 0,
            )
        )
        current = parent

    stages.reverse()
    return JobBlame(
        job_id=job.job_id,
        jct_seconds=jrec.completion_time,
        categories={c: float(v) for c, v in totals.items()},
        stages=tuple(stages),
        exact=totals,
    )


def run_blame(
    result: "SimulationResult",
    jobs: "Job | Iterable[Job]",
    *,
    label: str = "run",
    delays: "Mapping[str, float] | None" = None,
) -> RunBlame:
    """Build the critical-path blame decomposition for a finished run.

    ``jobs`` supplies the DAG structure (parent sets) the records alone
    do not carry; pass the same job objects the simulation ran.
    ``delays`` optionally cross-links each critical stage with the
    Algorithm 1 delay chosen for it (``DelaySchedule.delays`` — see
    :attr:`repro.schedulers.runner.SchedulerRun.delay_table`).

    The per-job identity — categories sum to the measured JCT
    bit-for-bit — holds by construction; :attr:`RunBlame.identity_exact`
    re-checks it and the makespan identity.
    """
    from repro.dag.job import Job as _Job

    job_list = [jobs] if isinstance(jobs, _Job) else list(jobs)
    if not job_list:
        raise ValueError("jobs must be non-empty")
    known = {j.job_id for j in job_list}
    missing = set(result.job_records) - known
    if missing:
        raise ValueError(
            f"result contains jobs without DAG structure: {sorted(missing)}"
        )

    job_blames: "dict[str, JobBlame]" = {}
    for job in job_list:
        blame = _job_blame(result, job, delays)
        if blame is not None:
            job_blames[job.job_id] = blame
    if not job_blames:
        raise ValueError("no finished jobs to blame (did the run fail?)")

    # The makespan path is the last-finishing job's critical path plus
    # its submission offset (time the run spent before that job
    # existed), categorized as dependency wait.
    mk_job_id = max(
        job_blames,
        key=lambda jid: (result.job_records[jid].finish_time, jid),
    )
    mk_rec = result.job_records[mk_job_id]
    exact = {c: Fraction(v) for c, v in job_blames[mk_job_id].exact.items()}
    exact["dependency"] += Fraction(mk_rec.submit_time)

    return RunBlame(
        label=label,
        makespan_seconds=result.makespan,
        makespan_job=mk_job_id,
        categories={c: float(v) for c, v in exact.items()},
        jobs=job_blames,
        exact=exact,
    )


def blame_diff(baseline: RunBlame, candidate: RunBlame) -> BlameDiff:
    """Per-category savings of ``candidate`` over ``baseline``.

    Positive ``saved[c]`` means the candidate's makespan path spent
    less time in category ``c``; :attr:`BlameDiff.recovery_seconds`
    aggregates the execution-time recovery (the overlap DelayStage
    converts contention/serial time into), and
    :attr:`BlameDiff.delay_invested` the deliberate delay paid for it.
    """
    saved = {
        c: baseline.categories.get(c, 0.0) - candidate.categories.get(c, 0.0)
        for c in CATEGORIES
    }
    return BlameDiff(
        baseline=baseline.label,
        candidate=candidate.label,
        makespan_baseline=baseline.makespan_seconds,
        makespan_candidate=candidate.makespan_seconds,
        saved=saved,
    )


# --------------------------------------------------------------------- #
# rendering and payload validation


def render_blame_markdown(
    blames: "Mapping[str, RunBlame]",
    title: str = "Critical-path blame",
    top_stages: int = 8,
) -> str:
    """Markdown blame tables across runs (``repro why --md`` and the
    ``repro report`` blame section)."""
    if not blames:
        raise ValueError("blames must be non-empty")
    order = list(blames)
    lines = [f"# {title}", ""]
    lines.append("| category (s) | " + " | ".join(order) + " |")
    lines.append("|---|" + "---|" * len(order))
    for c in CATEGORIES:
        cells = [f"{blames[k].categories.get(c, 0.0):.1f}" for k in order]
        lines.append(f"| {c} | " + " | ".join(cells) + " |")
    lines.append(
        "| **makespan** | "
        + " | ".join(f"**{blames[k].makespan_seconds:.1f}**" for k in order)
        + " |"
    )
    for k in order:
        blame = blames[k]
        job = blame.jobs[blame.makespan_job]
        lines.append("")
        lines.append(f"## {k}: critical chain of {blame.makespan_job}")
        lines.append("")
        lines.append(
            "| stage | span (s) | dominant category | chosen delay (s) "
            "| retries |"
        )
        lines.append("|---|---|---|---|---|")
        for sb in job.stages[-top_stages:]:
            dominant = max(sb.seconds, key=lambda c: (sb.seconds[c], c))
            chosen = "-" if sb.chosen_delay is None else f"{sb.chosen_delay:.1f}"
            lines.append(
                f"| {sb.stage_id} | {sb.finish - sb.start:.1f} "
                f"| {dominant} ({sb.seconds[dominant]:.1f} s) "
                f"| {chosen} | {sb.retries} |"
            )
    return "\n".join(lines)


def render_diff_markdown(diff: BlameDiff) -> str:
    """Markdown rendering of a cross-run blame diff."""
    lines = [
        f"# Blame diff — {diff.candidate} vs {diff.baseline}",
        "",
        f"makespan: {diff.makespan_baseline:.1f} s -> "
        f"{diff.makespan_candidate:.1f} s "
        f"(saved {diff.makespan_saved:.1f} s)",
        "",
        "| category | saved (s) |",
        "|---|---|",
    ]
    for c in CATEGORIES:
        lines.append(f"| {c} | {diff.saved[c]:+.1f} |")
    lines.append("")
    lines.append(
        f"execution time recovered: {diff.recovery_seconds:.1f} s; "
        f"deliberate delay invested: {diff.delay_invested:.1f} s"
    )
    return "\n".join(lines)


def validate_blame_payload(payload: "Mapping") -> "list[str]":
    """Schema check for ``repro why --json`` payloads (used by CI).

    Returns a list of human-readable problems; empty means valid.
    Accepts both the single-run payload (``blames`` mapping) and the
    diff payload (``diff`` object present).
    """
    errors: "list[str]" = []

    def _check_run(label: str, blame: "Mapping") -> None:
        for field_name in ("makespan_seconds", "makespan_job", "categories",
                           "jobs", "identity_exact", "total_seconds"):
            if field_name not in blame:
                errors.append(f"{label}: missing field {field_name!r}")
        cats = blame.get("categories", {})
        for c in CATEGORIES:
            if c not in cats:
                errors.append(f"{label}: missing category {c!r}")
        extra = set(cats) - set(CATEGORIES)
        if extra:
            errors.append(f"{label}: unknown categories {sorted(extra)}")
        if blame.get("identity_exact") is not True:
            errors.append(f"{label}: blame identity is not exact")
        for jid, job in (blame.get("jobs") or {}).items():
            if job.get("identity_exact") is not True:
                errors.append(f"{label}/{jid}: job blame identity is not exact")
            for sb in job.get("stages", ()):
                for field_name in ("stage_id", "seconds"):
                    if field_name not in sb:
                        errors.append(
                            f"{label}/{jid}: stage entry missing {field_name!r}"
                        )

    blames = payload.get("blames")
    if not isinstance(blames, Mapping) or not blames:
        errors.append("payload has no 'blames' mapping")
        return errors
    for label, blame in blames.items():
        if isinstance(blame, Mapping):
            _check_run(str(label), blame)
        else:
            errors.append(f"{label}: blame entry is not an object")

    diff = payload.get("diff")
    if diff is not None:
        for field_name in ("baseline", "candidate", "saved",
                           "makespan_saved", "recovery_seconds"):
            if field_name not in diff:
                errors.append(f"diff: missing field {field_name!r}")
        for c in CATEGORIES:
            if c not in diff.get("saved", {}):
                errors.append(f"diff: missing saved category {c!r}")
    return errors
