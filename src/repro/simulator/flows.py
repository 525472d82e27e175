"""Concrete work-item kinds: network flows, compute demands, disk writes.

Each kind maps onto one term of the paper's Eq. (1):

* :class:`NetworkFlow` — the shuffle-read transfer term
  ``max_i s_k^{i,w} / B_k^{i,w}``;
* :class:`ComputeDemand` — the processing term
  ``sum_i s_k^{i,w} / (eps_k^w * R_k)``;
* :class:`DiskWrite` — the shuffle-write term ``d_k^w / D_k^w``.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.simulator.engine import WorkItem


class NetworkFlow(WorkItem):
    """A shuffle/input transfer from ``src`` to ``dst``.

    Attributes
    ----------
    src, dst:
        Node ids of the sender and receiver.
    stage_key:
        ``(job_id, stage_id)`` of the stage the data belongs to
        (the *reader* for normal flows; prefetch flows are also keyed by
        the reader so accounting lands on the consuming stage).
    rate_cap:
        Optional upper bound on this flow's rate, used by AggShuffle
        pipelining to limit the transfer to the parent's output
        production rate.  ``inf`` means NIC-limited only.
    pipelined:
        True for AggShuffle prefetch flows started before the reader
        stage was submitted.
    producer_key:
        For prefetch flows, the ``(job_id, stage_id)`` of the *parent*
        stage producing the data; while that parent is still computing
        at ``src``, the flow's rate cap tracks its output production
        rate.
    part, src_slot:
        Fault-mode bookkeeping (:mod:`repro.faults`): the reading
        partition slot and the slot whose data ``src`` serves, so a
        crashed node's flows can be requeued / re-sourced.  ``None``
        on the healthy path.
    """

    __slots__ = ("src", "dst", "stage_key", "rate_cap", "pipelined", "producer_key",
                 "part", "src_slot")
    _STATE = WorkItem._STATE + ("rate_cap",)

    def __init__(
        self,
        src: str,
        dst: str,
        volume: float,
        stage_key: tuple[str, str],
        on_complete: "Callable[[float], None] | None" = None,
        rate_cap: float = math.inf,
        pipelined: bool = False,
        producer_key: "tuple[str, str] | None" = None,
        part: "str | None" = None,
        src_slot: "str | None" = None,
    ) -> None:
        super().__init__(volume, on_complete)
        if src == dst:
            raise ValueError("local transfers must not be modeled as network flows")
        self.src = src
        self.dst = dst
        self.stage_key = stage_key
        self.rate_cap = rate_cap
        self.pipelined = pipelined
        self.producer_key = producer_key
        self.part = part
        self.src_slot = src_slot

    def alloc_groups(self) -> tuple[tuple[str, str], ...]:
        """Resource groups this flow's rate depends on (both NICs)."""
        return (("net", self.src), ("net", self.dst))


class ComputeDemand(WorkItem):
    """CPU processing of a stage partition on one worker.

    ``volume`` is in bytes of input data; the allocated rate is
    ``executor_share * process_rate`` (bytes/s).
    """

    __slots__ = ("node", "stage_key", "process_rate", "executor_share", "part")
    _STATE = WorkItem._STATE + ("executor_share",)

    def __init__(
        self,
        node: str,
        volume: float,
        stage_key: tuple[str, str],
        process_rate: float,
        on_complete: "Callable[[float], None] | None" = None,
        part: "str | None" = None,
    ) -> None:
        super().__init__(volume, on_complete)
        if process_rate <= 0:
            raise ValueError(f"process_rate must be > 0, got {process_rate}")
        self.node = node
        self.stage_key = stage_key
        self.process_rate = process_rate
        self.executor_share = 0.0  # filled by the allocator, read by metrics
        self.part = part  # fault-mode partition slot (None on the healthy path)

    def alloc_groups(self) -> tuple[tuple[str, str], ...]:
        """Resource groups this demand's rate depends on (node executors)."""
        return (("cpu", self.node),)


class DiskWrite(WorkItem):
    """Shuffle write of a stage partition to one worker's local disk."""

    __slots__ = ("node", "stage_key", "part")

    def __init__(
        self,
        node: str,
        volume: float,
        stage_key: tuple[str, str],
        on_complete: "Callable[[float], None] | None" = None,
        part: "str | None" = None,
    ) -> None:
        super().__init__(volume, on_complete)
        self.node = node
        self.stage_key = stage_key
        self.part = part  # fault-mode partition slot (None on the healthy path)

    def alloc_groups(self) -> tuple[tuple[str, str], ...]:
        """Resource groups this write's rate depends on (node disk)."""
        return (("disk", self.node),)
