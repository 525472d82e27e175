"""Scoped (incremental) fair-share reallocation.

The full allocator in :class:`~repro.simulator.simulation.Simulation`
re-solves every resource — all executor groups, all disk groups, and
one global water-filling over every network flow — whenever *any* work
item starts or finishes.  For trace-scale replay that is the hot path:
most events touch a single node, yet the whole cluster pays for the
re-solve.

:class:`ScopedAllocator` exploits the sharing structure instead:

* **Executors / disk** are shared per node, so a demand or write
  starting/finishing on node ``w`` can only change rates of items on
  ``w`` — other nodes' rates are left exactly as the previous solve set
  them.
* **Network** max-min rates couple flows only through shared NICs, so
  water-filling decomposes over connected components of the endpoint
  graph (see :func:`~repro.simulator.fairshare.flow_components`).  Only
  components containing a changed endpoint are re-solved.  A finite
  core-fabric capacity couples all cross-rack flows, in which case the
  component structure collapses to one global component.
* **Contention penalties** are per-node scale factors over the distinct
  stages sharing that node's resource; the stage set at a node can only
  change when an item at that node starts or finishes, which already
  marks the node's group dirty.

Because each dirty group is re-solved by the *same* functions the full
allocator uses (``compute_shares`` / ``disk_shares`` /
``maxmin_rates_seq``) on the same item subsets in the same order,
the resulting rates are bit-identical to a full re-solve — a property
the test suite asserts with hypothesis (`tests/test_perf_equivalence.py`)
and that makes ``SimulationConfig(incremental=False)`` a reference path
rather than a different model.

The allocator is only installed when the simulation config allows it
(``incremental=True`` and no pipelined shuffle: AggShuffle prefetch
rate caps depend on compute rates at the producer, coupling resources
across kinds, so AggShuffle always takes the full path).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simulator.fairshare import (
    compute_shares,
    disk_shares,
    flow_components,
    maxmin_rates_seq,
)
from repro.simulator.flows import ComputeDemand, DiskWrite, NetworkFlow
from repro.verify import sanitizer as _sanitizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import WorkItem
    from repro.simulator.simulation import Simulation


class ScopedAllocator:
    """Per-group dirty-scoped reallocation for one :class:`Simulation`.

    Installed as the engine's ``allocate_incremental`` callback; the
    engine hands it the full active list plus exactly the items added
    and removed since the previous allocation.  External mutations
    (degradation injections, cap changes) go through
    ``engine.mark_dirty()`` which forces the full allocator instead.
    """

    #: Below this many active flows the connected-component decomposition
    #: costs more than the global water-filling it would avoid.
    SMALL_FLOW_SET = 16

    __slots__ = ("_sim", "scoped_solves", "network_components_solved")

    def __init__(self, sim: "Simulation") -> None:
        self._sim = sim
        #: Telemetry: scoped re-solves performed (vs full allocations,
        #: counted by the engine).
        self.scoped_solves = 0
        self.network_components_solved = 0

    # ------------------------------------------------------------------ #

    def allocate(
        self,
        items: "list[WorkItem]",
        added: "list[WorkItem]",
        removed: "list[WorkItem]",
    ) -> None:
        sim = self._sim
        # Inline equivalent of collecting item.alloc_groups() into one
        # dirty set — the kind check avoids a tuple allocation per item
        # on the hottest path of model evaluations.  ``type() is`` is
        # deliberate: the three work-item kinds are leaf classes (no
        # subclasses exist), and it is measurably cheaper here than
        # isinstance.
        flow_cls = NetworkFlow
        demand_cls = ComputeDemand
        write_cls = DiskWrite
        dirty_cpu: set[str] = set()
        dirty_disk: set[str] = set()
        dirty_net: set[str] = set()
        for change in (added, removed):
            for item in change:
                kind = type(item)
                if kind is flow_cls:
                    dirty_net.add(item.src)
                    dirty_net.add(item.dst)
                elif kind is demand_cls:
                    dirty_cpu.add(item.node)
                elif kind is write_cls:
                    dirty_disk.add(item.node)
                else:  # pragma: no cover - no other kinds exist
                    raise TypeError(f"unknown work item {kind.__name__}")
        if not (dirty_cpu or dirty_disk or dirty_net):
            return
        self.scoped_solves += 1

        want_net = bool(dirty_net)
        # One pass over the active set, in engine order (the same order
        # the full allocator sees), keeping only items in dirty groups.
        demands: list[ComputeDemand] = []
        writes: list[DiskWrite] = []
        flows: list[NetworkFlow] = []
        append_demand = demands.append
        append_write = writes.append
        append_flow = flows.append
        all_demands: "list[ComputeDemand] | None" = (
            [] if _sanitizer.ENABLED and sim.config.task_granular else None
        )
        for item in items:
            kind = type(item)
            if kind is flow_cls:
                if want_net:
                    append_flow(item)
            elif kind is demand_cls:
                if all_demands is not None:
                    all_demands.append(item)
                if item.node in dirty_cpu:
                    append_demand(item)
            elif kind is write_cls:
                if item.node in dirty_disk:
                    append_write(item)
            else:  # pragma: no cover - no other kinds exist
                raise TypeError(f"unknown work item {kind.__name__}")

        if demands:
            if sim.config.task_granular:
                # Executor slots already serialize tasks; each running
                # task gets one full executor.
                for d in demands:
                    d.executor_share = 1.0
                    d.rate = d.process_rate
            else:
                compute_shares(demands, sim._executors)
        if all_demands is not None:
            # Mirror the full allocator's global slot-capacity check; the
            # scoped solve only sees dirty nodes, but overcommit anywhere
            # should still trip the sanitizer.
            running: dict[str, int] = {}
            for d in all_demands:
                running[d.node] = running.get(d.node, 0) + 1
            for node, count in running.items():
                if count > sim._executors[node]:
                    raise _sanitizer.SanitizerError(
                        f"{count} concurrent tasks on {node!r} exceed its "
                        f"{sim._executors[node]} executor slots"
                    )
        if writes:
            disk_shares(writes, sim._disk_bw)

        solved_flows: list[NetworkFlow] = []
        if flows:
            solved_flows = self._solve_network(flows, dirty_net)

        penalty = sim.config.contention_penalty
        if penalty > 0.0 and (demands or writes or solved_flows):
            sim._apply_contention_penalty(demands, writes, solved_flows, penalty)

    # ------------------------------------------------------------------ #

    def _solve_network(
        self, flows: "list[NetworkFlow]", dirty_net: set[str]
    ) -> "list[NetworkFlow]":
        """Re-solve water-filling for components touching a dirty NIC.

        ``flows`` is every active flow (in engine order); returns the
        subset whose rates were recomputed.
        """
        topology = self._sim.topology
        if topology.core_capacity is not None or len(flows) <= self.SMALL_FLOW_SET:
            # A shared core fabric couples all cross-rack flows, so
            # solving anything means solving everything.  Tiny flow sets
            # skip the union-find too: re-solving an untouched group
            # reproduces its previous rates exactly (same solver, same
            # inputs), and the decomposition bookkeeping costs more than
            # it saves below a handful of flows.
            components = [list(range(len(flows)))]
        else:
            components = flow_components(flows)
        solved: list[NetworkFlow] = []
        for component in components:
            touched = any(
                flows[i].src in dirty_net or flows[i].dst in dirty_net
                for i in component
            )
            if not touched:
                continue
            subset = [flows[i] for i in component]
            rates = maxmin_rates_seq(subset, topology)
            for f, r in zip(subset, rates):
                f.rate = float(r)
            solved.extend(subset)
            self.network_components_solved += 1
        return solved
