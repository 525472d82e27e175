"""Declarative fault plans.

A :class:`FaultPlan` is a frozen, JSON-serializable description of
every fault a simulation will suffer, fixed *before* the run starts —
the property that makes chaos runs replayable: the same plan (or the
same ``--chaos-seed``) always produces the same trajectory, byte for
byte.

Four fault kinds cover the failure modes the fluid model (paper
Eq. (1)–(3)) can express as time-varying resource changes:

* :class:`NodeCrash` — a worker permanently leaves the cluster at
  ``time``; its running partitions requeue onto surviving workers.
* :class:`NicBrownout` — a node's NIC runs at ``factor`` of its
  capacity during ``[start, end)`` (congestion, flaky links).
* :class:`Straggler` — a node's effective executor capacity is divided
  by ``factor`` during ``[time, until)`` (noisy neighbors, thermal
  throttling).
* :class:`LostShufflePartition` — the shuffle output one partition of
  a stage wrote is lost at ``time``, forcing the parent stage to
  recompute that partition (the classic fetch-failure → parent-rerun
  path in Spark's DAGScheduler).

This module deliberately imports nothing from the simulator so the
simulator can reference plans without an import cycle.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import asdict, dataclass, field

#: Version stamped into serialized plans.
PLAN_SCHEMA_VERSION = 1


def _check_time(value: float, name: str) -> None:
    if not isinstance(value, (int, float)) or math.isnan(value) or value < 0 or math.isinf(value):
        raise ValueError(f"{name} must be a finite time >= 0, got {value!r}")


@dataclass(frozen=True)
class NodeCrash:
    """Worker ``node`` permanently fails at ``time``."""

    time: float
    node: str
    kind: str = field(default="node_crash", init=False)

    def __post_init__(self) -> None:
        _check_time(self.time, "time")
        if not self.node:
            raise ValueError("node must be a non-empty node id")


@dataclass(frozen=True)
class NicBrownout:
    """``node``'s NIC runs at ``factor`` of capacity during [start, end)."""

    start: float
    end: float
    node: str
    factor: float
    kind: str = field(default="nic_brownout", init=False)

    def __post_init__(self) -> None:
        _check_time(self.start, "start")
        _check_time(self.end, "end")
        if self.end <= self.start:
            raise ValueError(f"end {self.end} must be > start {self.start}")
        if not self.node:
            raise ValueError("node must be a non-empty node id")
        if not 0.0 < self.factor < 1.0:
            raise ValueError(f"factor must be in (0, 1), got {self.factor}")

    @property
    def time(self) -> float:
        return self.start


@dataclass(frozen=True)
class Straggler:
    """``node`` computes ``factor`` times slower during [time, until)."""

    time: float
    node: str
    factor: float
    until: float
    kind: str = field(default="straggler", init=False)

    def __post_init__(self) -> None:
        _check_time(self.time, "time")
        _check_time(self.until, "until")
        if self.until <= self.time:
            raise ValueError(f"until {self.until} must be > time {self.time}")
        if not self.node:
            raise ValueError("node must be a non-empty node id")
        if self.factor <= 1.0:
            raise ValueError(f"straggler factor must be > 1, got {self.factor}")


@dataclass(frozen=True)
class LostShufflePartition:
    """The shuffle data partition ``part`` of ``job``/``stage`` wrote is
    lost at ``time``; if any consumer still needs it, the partition is
    recomputed (parent-stage rerun)."""

    time: float
    job: str
    stage: str
    part: str
    kind: str = field(default="lost_partition", init=False)

    def __post_init__(self) -> None:
        _check_time(self.time, "time")
        for name in ("job", "stage", "part"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")


FaultEvent = "NodeCrash | NicBrownout | Straggler | LostShufflePartition"

_EVENT_KINDS = {
    "node_crash": NodeCrash,
    "nic_brownout": NicBrownout,
    "straggler": Straggler,
    "lost_partition": LostShufflePartition,
}


@dataclass(frozen=True)
class FaultPlan:
    """Every fault a run will suffer, plus the recovery policy.

    Parameters
    ----------
    events:
        The faults, as a tuple (kept hashable so a plan can live inside
        the frozen :class:`~repro.simulator.simulation.SimulationConfig`).
    retry_budget:
        Maximum partition requeues per stage; exceeding it fails the
        job (its record keeps the failure time as ``finish_time``).
    backoff_base / backoff_cap:
        Capped exponential backoff before a requeued partition
        restarts: attempt ``n`` waits ``min(cap, base * 2**(n-1))``
        seconds.
    """

    events: "tuple[FaultEvent, ...]" = ()
    retry_budget: int = 3
    backoff_base: float = 1.0
    backoff_cap: float = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {self.retry_budget}")
        if self.backoff_base < 0 or math.isnan(self.backoff_base):
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_cap < 0 or math.isnan(self.backoff_cap):
            raise ValueError(f"backoff_cap must be >= 0, got {self.backoff_cap}")
        for event in self.events:
            if type(event) not in _EVENT_KINDS.values():
                raise TypeError(f"unknown fault event {event!r}")

    # -- introspection --------------------------------------------------- #

    @property
    def is_empty(self) -> bool:
        return not self.events

    @property
    def crashes(self) -> "tuple[NodeCrash, ...]":
        return tuple(e for e in self.events if isinstance(e, NodeCrash))

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before requeue attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(self.backoff_cap, self.backoff_base * 2.0 ** (attempt - 1))

    def validate_against(self, cluster) -> None:
        """Check node references against a cluster spec.

        Crash / brownout / straggler targets must exist; crashes and
        stragglers must hit *worker* nodes (storage nodes serve data but
        run nothing — the replication assumption keeps their data safe);
        at least one worker must survive every crash.
        """
        workers = set(cluster.worker_ids)
        for event in self.events:
            node = getattr(event, "node", None)
            if node is None:
                continue
            if node not in cluster:
                raise ValueError(f"fault targets unknown node {node!r}")
            if isinstance(event, (NodeCrash, Straggler)) and node not in workers:
                raise ValueError(
                    f"{event.kind} may only target worker nodes, got {node!r}"
                )
        crashed = {e.node for e in self.crashes}
        if crashed >= workers:
            raise ValueError("fault plan crashes every worker; nothing survives")

    # -- serialization --------------------------------------------------- #

    def to_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA_VERSION,
            "retry_budget": self.retry_budget,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "events": [asdict(e) for e in self.events],
        }

    def to_json(self, indent: "int | None" = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a JSON object, got {type(data).__name__}")
        schema = data.get("schema", PLAN_SCHEMA_VERSION)
        if schema != PLAN_SCHEMA_VERSION:
            raise ValueError(f"unsupported fault-plan schema {schema!r}")
        events = []
        for i, raw in enumerate(data.get("events", [])):
            if not isinstance(raw, dict):
                raise ValueError(f"event #{i} must be an object, got {raw!r}")
            kind = raw.get("kind")
            event_cls = _EVENT_KINDS.get(kind)
            if event_cls is None:
                raise ValueError(f"event #{i} has unknown kind {kind!r}")
            fields = {k: v for k, v in raw.items() if k != "kind"}
            try:
                events.append(event_cls(**fields))
            except TypeError as exc:
                raise ValueError(f"event #{i} ({kind}): {exc}") from None
        try:
            retry_budget = int(data.get("retry_budget", 3))
            backoff_base = float(data.get("backoff_base", 1.0))
            backoff_cap = float(data.get("backoff_cap", 30.0))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed retry/backoff field: {exc}") from None
        return cls(
            events=tuple(events),
            retry_budget=retry_budget,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: "str | pathlib.Path") -> None:
        pathlib.Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: "str | pathlib.Path") -> "FaultPlan":
        return cls.from_json(pathlib.Path(path).read_text(encoding="utf-8"))
