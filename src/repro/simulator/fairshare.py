"""Max-min fair resource allocation.

Implements the paper's "resources equally shared among parallel stages"
assumption exactly:

* **Network** — classic max-min (water-filling) over endpoint NIC
  capacities, with optional per-flow rate caps (used by AggShuffle
  prefetch flows).  Vectorized with numpy: each water-filling iteration
  freezes at least one saturated constraint, so the loop runs at most
  ``O(num_constraints)`` times with ``O(F)`` work per iteration.
* **Executors** — each node's executors are split equally among the
  stages currently *computing* there; a stage's rate is
  ``share * R_k``.
* **Disk** — each node's disk write bandwidth is split equally among the
  stages currently writing there.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.cluster.topology import Topology
from repro.simulator.flows import ComputeDemand, DiskWrite, NetworkFlow
from repro.verify import sanitizer as _sanitizer


def maxmin_network_rates(flows: Sequence[NetworkFlow], topology: Topology) -> np.ndarray:
    """Max-min fair rates for ``flows`` over endpoint NIC capacities.

    Every flow consumes egress at its source NIC and ingress at its
    destination NIC; both capacities are shared max-min fairly.  A flow
    with a finite ``rate_cap`` never exceeds it (the spare capacity is
    redistributed to other flows, as water-filling requires).

    Returns the rate array aligned with ``flows``.
    """
    n_flows = len(flows)
    if n_flows == 0:
        return np.zeros(0)
    if n_flows <= 32 and not topology._pair_caps and topology.core_capacity is None:
        return np.array(_maxmin_rates_small(flows, topology))

    src = np.fromiter((topology.index[f.src] for f in flows), dtype=np.int64, count=n_flows)
    dst = np.fromiter((topology.index[f.dst] for f in flows), dtype=np.int64, count=n_flows)
    caps = np.fromiter((f.rate_cap for f in flows), dtype=float, count=n_flows)

    n_nodes = topology.num_nodes
    egress = topology.egress_capacity.astype(float).copy()
    ingress = topology.ingress_capacity.astype(float).copy()
    pair_cap = topology.pair_cap_array(src, dst)
    caps = np.minimum(caps, pair_cap)
    cross_core = topology.crosses_core(src, dst)
    core_left = topology.core_capacity

    rates = np.zeros(n_flows)
    active = np.ones(n_flows, dtype=bool)

    # Each iteration saturates at least one NIC constraint or freezes at
    # least one capped flow, so this terminates in <= 2*n_nodes + n_caps
    # iterations; in practice a handful.
    for _ in range(2 * n_nodes + n_flows + 1):
        if not active.any():
            break
        a_src = src[active]
        a_dst = dst[active]
        n_eg = np.bincount(a_src, minlength=n_nodes)
        n_ing = np.bincount(a_dst, minlength=n_nodes)

        with np.errstate(divide="ignore", invalid="ignore"):
            share_eg = np.where(n_eg > 0, egress / np.maximum(n_eg, 1), math.inf)
            share_ing = np.where(n_ing > 0, ingress / np.maximum(n_ing, 1), math.inf)
        # Fair level each active flow could reach, limited by both ends
        # — and, for cross-rack flows, by the shared core fabric.
        level = np.minimum(share_eg[a_src], share_ing[a_dst])
        if core_left is not None:
            a_cross = cross_core[active]
            n_core = int(a_cross.sum())
            if n_core:
                level = np.where(a_cross, np.minimum(level, core_left / n_core), level)
        bottleneck = level.min()

        a_caps = caps[active]
        cap_limited = a_caps <= bottleneck + 1e-12
        idx_active = np.flatnonzero(active)
        if cap_limited.any():
            # Freeze capped flows at their cap and release leftover
            # capacity back to the links for the remaining flows.
            frozen = idx_active[cap_limited]
            rates[frozen] = caps[frozen]
            np.subtract.at(egress, src[frozen], caps[frozen])
            np.subtract.at(ingress, dst[frozen], caps[frozen])
            if core_left is not None:
                core_left -= float(rates[frozen][cross_core[frozen]].sum())
            active[frozen] = False
        else:
            # Freeze every flow constrained by a saturated link (NIC or
            # the core fabric).
            at_bottleneck = level <= bottleneck + 1e-12
            frozen = idx_active[at_bottleneck]
            rates[frozen] = bottleneck
            np.subtract.at(egress, src[frozen], bottleneck)
            np.subtract.at(ingress, dst[frozen], bottleneck)
            if core_left is not None:
                core_left -= bottleneck * int(cross_core[frozen].sum())
            active[frozen] = False
        egress = np.maximum(egress, 0.0)
        ingress = np.maximum(ingress, 0.0)
        if core_left is not None:
            core_left = max(core_left, 0.0)
    else:  # pragma: no cover - loop bound is generous
        raise RuntimeError("water-filling failed to converge")

    if _sanitizer.ENABLED:
        _sanitizer.check_network_allocation(flows, topology, rates)
    return rates


def maxmin_rates_seq(
    flows: Sequence[NetworkFlow], topology: Topology
) -> "Sequence[float]":
    """Internal hot-path variant of :func:`maxmin_network_rates`.

    Identical dispatch and arithmetic, but the small pure-Python path
    returns its plain list instead of wrapping it in an ndarray —
    callers that immediately scatter rates back onto flow objects skip
    one array construction and a numpy-scalar boxing per flow.
    """
    n_flows = len(flows)
    if n_flows == 0:
        return ()
    if n_flows <= 32 and not topology._pair_caps and topology.core_capacity is None:
        return _maxmin_rates_small(flows, topology)
    return maxmin_network_rates(flows, topology)


def _maxmin_rates_small(
    flows: Sequence[NetworkFlow], topology: Topology
) -> "list[float]":
    """Small-path water-filling with the sanitizer check applied.

    Returns a plain Python list so hot callers (the allocators) skip the
    per-element numpy boxing; :func:`maxmin_network_rates` wraps it in
    an array for the public API.
    """
    rates = _maxmin_small(flows, topology)
    if _sanitizer.ENABLED:
        _sanitizer.check_network_allocation(flows, topology, rates)
    return rates


def _maxmin_small(flows: Sequence[NetworkFlow], topology: Topology) -> "list[float]":
    """Pure-Python water-filling for small flow counts.

    numpy's per-call overhead dominates below a few dozen flows — the
    common case for per-job trace-replay slices — so this dict-based
    variant implements the identical algorithm without array setup.
    Frozen flows are processed in ascending index order, the same order
    ``np.flatnonzero`` gives the vectorized path, so both paths apply
    capacity subtractions in the identical sequence and agree
    bit-for-bit (the incremental allocator relies on this when it
    re-solves a small component of a larger flow set).
    """
    n = len(flows)
    n_nodes = topology.num_nodes
    index = topology.index
    # Integer node indices and flat capacity lists instead of string-keyed
    # dicts; every arithmetic operation below is performed in the same
    # order on the same values as the original dict-based form, so rates
    # are unchanged bit-for-bit.  The base capacity lists are cached on
    # the topology (invalidated by degradations) so consecutive solves —
    # one or more per engine event — skip the ndarray→list conversion;
    # ``list.copy`` reuses the boxed floats, so the working values are
    # the identical objects a fresh ``tolist()`` would box.
    base_egress, base_ingress = topology.capacity_lists()
    egress = base_egress.copy()
    ingress = base_ingress.copy()
    srcs = [index[f.src] for f in flows]
    dsts = [index[f.dst] for f in flows]
    caps = [f.rate_cap for f in flows]
    rates = [0.0] * n
    level = [0.0] * n
    active = list(range(n))
    for _ in range(2 * n_nodes + n + 1):
        if not active:
            return rates
        n_eg = [0] * n_nodes
        n_ing = [0] * n_nodes
        for i in active:
            n_eg[srcs[i]] += 1
            n_ing[dsts[i]] += 1
        bottleneck = math.inf
        for i in active:
            s = srcs[i]
            d = dsts[i]
            le = egress[s] / n_eg[s]
            li = ingress[d] / n_ing[d]
            lv = le if le <= li else li  # == min(le, li)
            level[i] = lv
            if lv < bottleneck:
                bottleneck = lv
        threshold = bottleneck + 1e-12
        # Freeze and rebuild in one pass over ``active``: frozen flows
        # are visited in ascending index order — the same order the
        # two-pass (listcomp + subtract loop) form and ``np.flatnonzero``
        # use — so capacity subtractions happen in the identical
        # sequence and rates agree bit-for-bit with the vector path.
        any_capped = False
        for i in active:
            if caps[i] <= threshold:
                any_capped = True
                break
        survivors: "list[int]" = []
        push = survivors.append
        if any_capped:
            for i in active:
                r = caps[i]
                if r <= threshold:
                    rates[i] = r
                    s = srcs[i]
                    d = dsts[i]
                    t = egress[s] - r
                    egress[s] = t if t > 0.0 else 0.0
                    t = ingress[d] - r
                    ingress[d] = t if t > 0.0 else 0.0
                else:
                    push(i)
        else:
            for i in active:
                if level[i] <= threshold:
                    rates[i] = bottleneck
                    s = srcs[i]
                    d = dsts[i]
                    t = egress[s] - bottleneck
                    egress[s] = t if t > 0.0 else 0.0
                    t = ingress[d] - bottleneck
                    ingress[d] = t if t > 0.0 else 0.0
                else:
                    push(i)
        active = survivors
    raise RuntimeError("water-filling failed to converge")  # pragma: no cover


#: Demand/write counts above which the numpy batch path beats the
#: per-group Python loops.  Both paths compute the identical per-element
#: expression (``(executors / n_stages) / n_group_items * R_k``), so the
#: results agree bit-for-bit and the threshold is purely a speed knob.
BATCH_THRESHOLD = 64


def compute_shares(
    demands: Sequence[ComputeDemand],
    executors_per_node: dict[str, int],
) -> None:
    """Assign executor shares and compute rates in place.

    Each node's executors are divided equally among the stages currently
    computing there (the paper's ``eps_k^w`` with equal sharing); a
    demand's rate is its share times the stage's per-executor
    processing rate ``R_k``.
    """
    if len(demands) > BATCH_THRESHOLD:
        _compute_shares_batch(demands, executors_per_node)
        if _sanitizer.ENABLED:
            _sanitizer.check_compute_allocation(demands, executors_per_node)
        return
    if len(demands) == 1:
        # One demand: its stage owns the node, share = executors / 1 / 1
        # — the identical arithmetic the general path performs.
        d = demands[0]
        executors = executors_per_node.get(d.node, 0)
        if executors <= 0:
            raise ValueError(
                f"compute demand scheduled on node {d.node!r} with no executors"
            )
        share = executors / 1 / 1
        d.executor_share = share
        d.rate = share * d.process_rate
        if _sanitizer.ENABLED:
            _sanitizer.check_compute_allocation(demands, executors_per_node)
        return
    by_node: dict[str, list[ComputeDemand]] = defaultdict(list)
    for d in demands:
        by_node[d.node].append(d)
    for node, items in by_node.items():
        executors = executors_per_node.get(node, 0)
        if executors <= 0:
            raise ValueError(f"compute demand scheduled on node {node!r} with no executors")
        # Distinct stages at the node share equally; multiple demands of
        # the same stage on the same node (not produced by Simulation,
        # but allowed) split their stage's share further.
        stages = defaultdict(list)
        for d in items:
            stages[d.stage_key].append(d)
        per_stage = executors / len(stages)
        for stage_items in stages.values():
            share = per_stage / len(stage_items)
            for d in stage_items:
                d.executor_share = share
                d.rate = share * d.process_rate
    if _sanitizer.ENABLED:
        _sanitizer.check_compute_allocation(demands, executors_per_node)


def _compute_shares_batch(
    demands: Sequence[ComputeDemand],
    executors_per_node: dict[str, int],
) -> None:
    """Vectorized executor-share assignment for large demand batches.

    Factorizes demands into (node, stage-at-node) groups and evaluates
    the equal-sharing expression in one numpy pass — element-for-element
    the same arithmetic as the per-group loop in
    :func:`compute_shares`, so results are bit-identical.
    """
    n = len(demands)
    node_ids: dict[str, int] = {}
    group_ids: dict[tuple[str, tuple[str, str]], int] = {}
    node_idx = np.empty(n, dtype=np.int64)
    group_idx = np.empty(n, dtype=np.int64)
    group_node: list[int] = []
    for i, d in enumerate(demands):
        ni = node_ids.setdefault(d.node, len(node_ids))
        gkey = (d.node, d.stage_key)
        gi = group_ids.get(gkey)
        if gi is None:
            gi = group_ids[gkey] = len(group_ids)
            group_node.append(ni)
        node_idx[i] = ni
        group_idx[i] = gi
    executors = np.fromiter(
        (executors_per_node.get(nid, 0) for nid in node_ids), dtype=float,
        count=len(node_ids),
    )
    if (executors <= 0).any():
        for nid in node_ids:
            if executors_per_node.get(nid, 0) <= 0:
                raise ValueError(
                    f"compute demand scheduled on node {nid!r} with no executors"
                )
    stages_per_node = np.bincount(np.asarray(group_node), minlength=len(node_ids))
    items_per_group = np.bincount(group_idx, minlength=len(group_ids))
    per_stage = executors / stages_per_node
    shares = per_stage[node_idx] / items_per_group[group_idx]
    rates = shares * np.fromiter((d.process_rate for d in demands), dtype=float, count=n)
    for i, d in enumerate(demands):
        d.executor_share = float(shares[i])
        d.rate = float(rates[i])


def disk_shares(writes: Sequence[DiskWrite], disk_bw_per_node: dict[str, float]) -> None:
    """Assign disk write rates in place: equal split per node."""
    if len(writes) > BATCH_THRESHOLD:
        _disk_shares_batch(writes, disk_bw_per_node)
        if _sanitizer.ENABLED:
            _sanitizer.check_disk_allocation(writes, disk_bw_per_node)
        return
    if len(writes) == 1:
        # Single writer owns the node's disk: rate = bw / 1, the same
        # division the general path performs.
        w = writes[0]
        bw = disk_bw_per_node.get(w.node)
        if bw is None or bw <= 0:
            raise ValueError(
                f"disk write scheduled on node {w.node!r} with no disk bandwidth"
            )
        w.rate = bw / 1
        if _sanitizer.ENABLED:
            _sanitizer.check_disk_allocation(writes, disk_bw_per_node)
        return
    by_node: dict[str, list[DiskWrite]] = defaultdict(list)
    for w in writes:
        by_node[w.node].append(w)
    for node, items in by_node.items():
        bw = disk_bw_per_node.get(node)
        if bw is None or bw <= 0:
            raise ValueError(f"disk write scheduled on node {node!r} with no disk bandwidth")
        rate = bw / len(items)
        for w in items:
            w.rate = rate
    if _sanitizer.ENABLED:
        _sanitizer.check_disk_allocation(writes, disk_bw_per_node)


def _disk_shares_batch(writes: Sequence[DiskWrite], disk_bw_per_node: dict[str, float]) -> None:
    """Vectorized equal-split disk rates (bit-identical to the loop)."""
    n = len(writes)
    node_ids: dict[str, int] = {}
    node_idx = np.empty(n, dtype=np.int64)
    for i, w in enumerate(writes):
        node_idx[i] = node_ids.setdefault(w.node, len(node_ids))
    bw = np.fromiter(
        (disk_bw_per_node.get(nid) or 0.0 for nid in node_ids), dtype=float,
        count=len(node_ids),
    )
    if (bw <= 0).any():
        for nid in node_ids:
            if not disk_bw_per_node.get(nid):
                raise ValueError(
                    f"disk write scheduled on node {nid!r} with no disk bandwidth"
                )
    counts = np.bincount(node_idx, minlength=len(node_ids))
    rates = (bw / counts)[node_idx]
    for i, w in enumerate(writes):
        w.rate = float(rates[i])


def flow_components(flows: Sequence[NetworkFlow]) -> list[list[int]]:
    """Partition flow indices into endpoint-connected components.

    Two flows interact in water-filling only if they (transitively)
    share a NIC, so max-min rates can be solved per connected component
    of the endpoint graph.  Components are returned in order of first
    appearance, with indices ascending inside each — the order the
    global solve would visit them.  (The shared core fabric couples all
    cross-rack flows; callers must fall back to a global solve when the
    topology has a finite ``core_capacity``.)
    """
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    # Every running stage opens one flow per (source, worker) pair, so
    # pairs repeat across stages: union each distinct pair once.
    for src, dst in dict.fromkeys((f.src, f.dst) for f in flows):
        parent.setdefault(src, src)
        parent.setdefault(dst, dst)
        ra, rb = find(src), find(dst)
        if ra != rb:
            parent[rb] = ra

    root_of = {node: find(node) for node in parent}
    groups: dict[str, list[int]] = {}
    for i, f in enumerate(flows):
        root = root_of[f.src]
        group = groups.get(root)
        if group is None:
            groups[root] = [i]
        else:
            group.append(i)
    return list(groups.values())
