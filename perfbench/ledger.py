"""Per-layer spans and counts for the traced benchmark run.

The program itself carries no wall-clock tracing, so the traced run
wraps the public entry points of each layer from here, for the
duration of one ``with instrument(ledger):`` block, and restores them
afterwards.  Layers nest (a plan calls the model, the model calls the
fair-share solvers), so the ledger keeps a span stack: every span adds
its duration to its layer's busy time and to its parent's child time,
and a layer's *self* time is busy time minus child time.

Two kinds of figure come out, under separate names:

* ``counts`` — deterministic work counts (calls, engine events,
  allocations, Algorithm 1 counters).  Two traced runs of one seed
  give identical counts; ``digest()`` hashes them.
* ``self_s`` / ``busy_s`` — host seconds, subject to machine noise.

Probe-simulation events (inside ``model`` spans) and final-run events
(inside ``simulator`` spans) are counted under different names and are
never added together.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Iterator

#: Thread CPU time, as for the untraced timings (see workloads.clock).
_clock = time.thread_time


class Ledger:
    """Span stack plus deterministic counters for one traced pass."""

    def __init__(self) -> None:
        self.busy_s: "defaultdict[str, float]" = defaultdict(float)
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        self.counts: "defaultdict[str, int]" = defaultdict(int)
        #: One row per Algorithm 1 call: stages and per-layer seconds.
        self.plans: "list[dict[str, float]]" = []
        self._stack: "list[list]" = []  # [layer, start, child seconds]

    def depth(self, layer: str) -> int:
        return sum(1 for frame in self._stack if frame[0] == layer)

    def enter(self, layer: str) -> None:
        self._stack.append([layer, _clock(), 0.0])

    def leave(self) -> float:
        layer, start, child = self._stack.pop()
        dur = _clock() - start
        self.busy_s[layer] += dur
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += int(value)

    def digest(self) -> str:
        """SHA-256 over the sorted deterministic counts."""
        blob = json.dumps(dict(sorted(self.counts.items())), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _span(ledger: Ledger, layer: str, fn: Callable) -> Callable:
    """Wrap ``fn`` in a ``layer`` span, counting the calls that enter
    the layer from outside it (the allocator calls the solvers)."""

    @wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not ledger.depth(layer):
            ledger.count(f"{layer}.calls")
        ledger.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            ledger.leave()

    return wrapper


@contextmanager
def instrument(ledger: Ledger) -> Iterator[Ledger]:
    """Route the layers' public entry points through ``ledger``."""
    from repro.core import delaystage as core_mod
    from repro.obs.tracer import Tracer
    from repro.schedulers import delaystage as sched_mod
    from repro.simulator import incremental as inc_mod
    from repro.simulator import simulation as sim_mod
    from repro.simulator.engine import FluidEngine
    from repro.simulator.incremental import ScopedAllocator
    from repro.simulator.metrics import MetricsCollector
    from repro.simulator.simulation import Simulation

    patches: "list[tuple[object, str, Any]]" = []

    def patch(owner: object, name: str, new: Any) -> None:
        patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    plan = sched_mod.delay_stage_schedule

    @wraps(plan)
    def traced_plan(job, cluster, params=None, pair_capacities=None,
                    tracer=None):
        # A fresh Tracer per call: its counters are Algorithm 1's own
        # (evaluations pruned, memo hits, ...); its audit spans are
        # dropped with it so memory stays flat over a long run.
        tracer = Tracer() if tracer is None else tracer
        before = {k: ledger.self_s[k] for k in ("core", "model", "fairshare")}
        ledger.count("core.plan_calls")
        ledger.enter("core")
        try:
            schedule = plan(job, cluster, params, pair_capacities, tracer)
        finally:
            total = ledger.leave()
        counters = tracer.counters
        ledger.count("core.evaluations", schedule.evaluations)
        for name in ("cache_hits", "pruned_by_bound", "horizon_rejected",
                     "stages_delayed"):
            ledger.count(f"core.{name}", counters.get(f"alg1.{name}"))
        row = {k: ledger.self_s[k] - v for k, v in before.items()}
        row.update(stages=job.num_stages, total=total)
        ledger.plans.append(row)
        return schedule

    patch(sched_mod, "delay_stage_schedule", traced_plan)

    def model_call(kind: str, fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ledger.count(f"model.{kind}_calls")
            events0 = FluidEngine.TOTAL_EVENTS
            ledger.enter("model")
            try:
                return fn(*args, **kwargs)
            finally:
                ledger.leave()
                ledger.count("model.probe_events",
                             FluidEngine.TOTAL_EVENTS - events0)

        return wrapper

    patch(core_mod, "evaluate_schedule",
          model_call("eval", core_mod.evaluate_schedule))
    patch(core_mod, "probe_schedule",
          model_call("probe", core_mod.probe_schedule))

    run = Simulation.run

    @wraps(run)
    def traced_run(sim: Simulation):
        if ledger.depth("model"):
            return run(sim)  # a model evaluation, not a final run
        ledger.count("simulator.run_calls")
        ledger.enter("simulator")
        try:
            result = run(sim)
        finally:
            ledger.leave()
        engine = sim.engine
        ledger.count("simulator.events", result.counters["engine_events"])
        ledger.counts["simulator.max_active_items"] = max(
            ledger.counts["simulator.max_active_items"],
            engine.max_active_items,
        )
        ledger.count("fairshare.full_allocations", engine.full_allocations)
        ledger.count("fairshare.incremental_allocations",
                     engine.incremental_allocations)
        return result

    patch(Simulation, "run", traced_run)

    for module in (sim_mod, inc_mod):
        for name in ("compute_shares", "disk_shares", "maxmin_rates_seq",
                     "flow_components"):
            if hasattr(module, name):
                patch(module, name, _span(ledger, "fairshare",
                                          getattr(module, name)))
    patch(ScopedAllocator, "allocate",
          _span(ledger, "fairshare", ScopedAllocator.allocate))
    patch(MetricsCollector, "observe",
          _span(ledger, "metrics", MetricsCollector.observe))
    try:
        yield ledger
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
