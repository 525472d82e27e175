"""Parser for the real Alibaba v2018 ``batch_task.csv`` format.

Each row is
``task_name,instance_num,job_name,task_type,status,start_time,end_time,plan_cpu,plan_mem``.

The DAG is encoded in ``task_name``: a task named ``M3_1_2`` is task 3
and depends on tasks 1 and 2 (the leading letter — M/R/J/… — denotes
the task type and is ignored for structure).  Names like
``task_Nzg3ODcwNDc2MjE2`` are standalone (non-DAG) tasks with no
dependencies; ``MergeTask`` and similar unnumbered names are likewise
treated as independent.
"""

from __future__ import annotations

import csv
import io
import pathlib
import re
from collections import defaultdict
from repro.trace.schema import TraceJob, TraceStage

#: ``M3_1_2`` → numeric id 3, parents [1, 2].
_DAG_NAME = re.compile(r"^[A-Za-z]+(\d+)((?:_\d+)*)$")


def parse_task_name(task_name: str) -> "tuple[int, list[int]] | None":
    """Decode a DAG-encoded task name.

    Returns ``(task_number, parent_numbers)`` or ``None`` for
    independent (non-DAG) task names.
    """
    m = _DAG_NAME.match(task_name)
    if not m:
        return None
    number = int(m.group(1))
    parents = [int(p) for p in m.group(2).split("_") if p]
    return number, parents


def parse_batch_task_csv(
    source: "str | pathlib.Path | io.TextIOBase",
    *,
    statuses: "frozenset[str] | None" = frozenset({"Terminated"}),
    max_jobs: "int | None" = None,
) -> list[TraceJob]:
    """Parse ``batch_task.csv`` rows into :class:`TraceJob` objects.

    Parameters
    ----------
    source:
        Path or open text stream of the CSV (no header row, matching
        the published trace).
    statuses:
        Keep only stages with these statuses (the paper excludes
        incomplete jobs); ``None`` keeps everything.
    max_jobs:
        Stop after this many distinct jobs (the real file has millions
        of rows).

    Jobs with any unparsable or missing timestamps are dropped, as are
    jobs whose dependency references point outside the job (truncated
    trace sections).
    """
    if isinstance(source, (str, pathlib.Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_batch_task_csv(fh, statuses=statuses, max_jobs=max_jobs)

    rows_by_job: dict[str, list[tuple[str, int, float, float]]] = defaultdict(list)
    for row in csv.reader(source):
        if len(row) < 7:
            continue
        task_name, instance_num, job_name, _type, status, start, end = row[:7]
        if statuses is not None and status not in statuses:
            continue
        try:
            start_f, end_f = float(start), float(end)
            instances = int(float(instance_num)) if instance_num else 1
        except (ValueError, OverflowError):
            continue
        if end_f <= 0 or start_f <= 0 or end_f < start_f:
            continue  # incomplete record
        rows_by_job[job_name].append((task_name, instances, start_f, end_f))
        if max_jobs is not None and len(rows_by_job) > max_jobs:
            rows_by_job.pop(job_name)
            break

    jobs: list[TraceJob] = []
    for job_name, rows in rows_by_job.items():
        stages: list[TraceStage] = []
        numbers: dict[int, str] = {}
        parents_of: dict[str, list[int]] = {}
        ok = True
        for task_name, instances, start_f, end_f in rows:
            decoded = parse_task_name(task_name)
            sid = task_name
            stages.append(
                TraceStage(
                    stage_id=sid,
                    start_time=start_f,
                    end_time=end_f,
                    instance_num=instances,
                )
            )
            if decoded is not None:
                number, parents = decoded
                if number in numbers:
                    ok = False  # duplicate task number within a job
                    break
                numbers[number] = sid
                parents_of[sid] = parents
        if not ok or not stages:
            continue
        edges: list[tuple[str, str]] = []
        for sid, parents in parents_of.items():
            for p in parents:
                if p not in numbers:
                    ok = False
                    break
                edges.append((numbers[p], sid))
            if not ok:
                break
        if not ok:
            continue
        jobs.append(TraceJob(job_id=job_name, stages=stages, edges=edges))
    return jobs
