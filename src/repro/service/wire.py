"""Wire format: jobs as plain JSON for the submit endpoint.

``POST /service/submit`` carries a complete DAG — stages with volumes
and rates, plus parent→child edges — so remote clients can submit jobs
the server has never seen.  The format is deliberately dumb: one dict
per stage mirroring :class:`~repro.dag.stage.Stage`'s constructor, a
list of ``[parent, child]`` pairs, and a version tag so the schema can
evolve without silently misreading old payloads.

Round-trip fidelity matters more than compactness here: volumes and
rates pass through ``float()`` untouched, so a job serialized, shipped
over HTTP, and rebuilt server-side simulates bit-identically to the
original object (asserted in the service test battery).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.dag.job import Job
from repro.dag.stage import Stage

#: Version tag stamped into every payload.
WIRE_VERSION = 1


def job_to_wire(job: Job) -> dict:
    """Serialize a job to a JSON-safe dict."""
    return {
        "v": WIRE_VERSION,
        "job_id": job.job_id,
        "stages": [
            {
                "stage_id": stage.stage_id,
                "input_bytes": float(stage.input_bytes),
                "output_bytes": float(stage.output_bytes),
                "process_rate": float(stage.process_rate),
                "num_tasks": int(stage.num_tasks),
                "task_cv": float(stage.task_cv),
                "name": stage.name,
            }
            for stage in job.stages.values()
        ],
        "edges": [[parent, child] for parent, child in job.edges],
    }


def job_from_wire(payload: "Mapping[str, Any]") -> Job:
    """Rebuild a :class:`Job` from a wire dict.

    Raises :class:`ValueError` with a pointed message on malformed
    payloads; DAG-level validation (unknown stage refs, cycles) is
    delegated to the :class:`Job` constructor, which already enforces
    it for every other construction path.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"job payload must be an object, got "
                         f"{type(payload).__name__}")
    version = payload.get("v", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise ValueError(f"unsupported wire version {version!r} "
                         f"(supported: {WIRE_VERSION})")
    job_id = payload.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise ValueError("job payload needs a non-empty string 'job_id'")
    raw_stages = payload.get("stages")
    if not isinstance(raw_stages, (list, tuple)) or not raw_stages:
        raise ValueError("job payload needs a non-empty 'stages' list")
    stages = []
    for i, raw in enumerate(raw_stages):
        if not isinstance(raw, Mapping):
            raise ValueError(f"stages[{i}] must be an object")
        try:
            stages.append(Stage(
                stage_id=str(raw["stage_id"]),
                input_bytes=float(raw["input_bytes"]),
                output_bytes=float(raw["output_bytes"]),
                process_rate=float(raw["process_rate"]),
                num_tasks=int(raw.get("num_tasks", 64)),
                task_cv=float(raw.get("task_cv", 0.0)),
                name=str(raw.get("name", "")),
            ))
        except KeyError as exc:
            raise ValueError(f"stages[{i}] is missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"stages[{i}] is malformed: {exc}") from exc
    raw_edges = payload.get("edges", [])
    if not isinstance(raw_edges, (list, tuple)):
        raise ValueError("'edges' must be a list of [parent, child] pairs")
    edges = []
    for i, pair in enumerate(raw_edges):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(p, str) for p in pair)):
            raise ValueError(f"edges[{i}] must be a [parent, child] "
                             "pair of stage ids")
        edges.append((pair[0], pair[1]))
    return Job(job_id, stages, edges)
