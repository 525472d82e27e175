"""Generic fluid event loop.

The engine advances a set of :class:`WorkItem` objects, each with a
remaining volume and a rate.  Rates are recomputed by a caller-supplied
allocator whenever the active set changes (an item completes or a timer
fires).  Between changes, rates are constant, so the next completion
time is exact: ``now + min(remaining / rate)``.

The engine is deliberately ignorant of *what* the items are; the
resource semantics (network max-min sharing, executor splitting, disk
sharing) live in :mod:`repro.simulator.fairshare` and are wired up by
:mod:`repro.simulator.simulation`.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable

from repro.verify import sanitizer as _sanitizer


class WorkItem:
    """A unit of fluid work with a remaining volume and a current rate.

    Subclasses add routing/ownership attributes; the engine only touches
    ``remaining``, ``rate``, and ``on_complete``.
    """

    __slots__ = ("remaining", "rate", "on_complete", "_pos")

    #: Attributes a run mutates, saved and restored by
    #: :meth:`FluidEngine.checkpoint` / :meth:`FluidEngine.restore`
    #: (subclasses append the ones their allocator sets).
    _STATE: "tuple[str, ...]" = ("remaining", "rate")

    def __init__(self, volume: float, on_complete: "Callable[[float], None] | None" = None):
        # Single chained comparison: False for negatives, NaN, and +inf.
        if not 0.0 <= volume < math.inf:
            raise ValueError(f"volume must be finite and >= 0, got {volume!r}")
        self.remaining = float(volume)
        self.rate = 0.0
        self.on_complete = on_complete
        #: Index into the engine's active list (maintained by swap-remove).
        self._pos = -1

    @property
    def done(self) -> bool:
        return self.remaining <= 0.0


class EngineStalledError(RuntimeError):
    """Raised when active items exist but every rate is zero and no timer
    is pending — the simulation can never make progress."""


class FluidEngine:
    """Fluid event loop with timers.

    Parameters
    ----------
    allocate:
        Callback invoked with the list of active items; it must set each
        item's ``rate`` (>= 0).  Called whenever the active set may have
        changed.
    observe:
        Optional callback ``observe(t0, t1, items)`` invoked for every
        interval of constant rates, used for exact metric integration.
    max_events:
        Safety valve against livelock bugs; the engine raises after this
        many loop iterations.
    allocate_incremental:
        Optional callback ``(items, added, removed)`` used instead of
        ``allocate`` when only item additions/completions occurred since
        the previous allocation.  ``added``/``removed`` list exactly the
        work items that entered/left the active set, letting the
        allocator re-solve only the affected resource groups while
        untouched items keep their previous rates.  :meth:`mark_dirty`
        (external mutation of capacities or rate caps) always falls back
        to the full ``allocate``.
    progress:
        Optional callback invoked with the engine every
        ``progress_every`` loop iterations (live-monitoring heartbeat).
        It must only *read* engine state; when ``None`` (the default)
        the loop pays a single ``is not None`` check per event.
    progress_every:
        Event interval between ``progress`` callbacks.
    """

    #: Relative tolerance used to snap near-complete items to done.
    EPS = 1e-9

    #: Process-wide count of loop iterations across every engine
    #: instance, accumulated when :meth:`run` returns.  Whole-pipeline
    #: throughput accounting: a scheduler run drives many engines —
    #: Algorithm 1's planning probes simulate the job dozens of times
    #: before the final execution run — and this counter is the only
    #: place that total is visible.  The perfbench ledger and the
    #: planning-count tests sample it around a section of work;
    #: simulations never read it.
    TOTAL_EVENTS = 0

    def __init__(
        self,
        allocate: Callable[[list[WorkItem]], None],
        observe: "Callable[[float, float, list[WorkItem]], None] | None" = None,
        max_events: int = 5_000_000,
        allocate_incremental: "Callable[[list[WorkItem], list[WorkItem], list[WorkItem]], None] | None" = None,
        progress: "Callable[[FluidEngine], None] | None" = None,
        progress_every: int = 20_000,
    ) -> None:
        self._allocate = allocate
        self._allocate_incremental = allocate_incremental
        self._observe = observe
        self._max_events = max_events
        self._progress = progress
        self._progress_every = max(int(progress_every), 1)
        self.now = 0.0
        self._items: list[WorkItem] = []
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0  # timer tiebreak: equal times fire in schedule order
        #: Pause key ``(time, seq)``: :meth:`run` returns at the last point
        #: shared with runs holding a timer with this key — before the
        #: clock passes ``time``, or between two timer pops of its instant.
        self.pause_key: "tuple[float, float] | None" = None
        self._mid_instant = False  # paused between two timer pops
        self._dirty = True  # active set changed; rates must be recomputed
        self._full_dirty = True  # external mutation; incremental unsafe
        self._stop_requested = False
        self._added: list[WorkItem] = []
        self._removed: list[WorkItem] = []
        #: Loop iterations executed (run telemetry; also drives the
        #: livelock safety valve).
        self.events_processed = 0
        #: Peak concurrent work items (telemetry: queue depth).
        self.max_active_items = 0
        #: Allocation telemetry: full re-solves vs scoped incremental ones.
        self.full_allocations = 0
        self.incremental_allocations = 0

    # ------------------------------------------------------------------ #
    # public interface
    # ------------------------------------------------------------------ #

    def add_item(self, item: WorkItem) -> None:
        """Register a new active work item (takes effect immediately)."""
        if item.remaining <= 0.0:
            # Zero-volume work completes instantly without entering the
            # active set (e.g. a fully-local shuffle read).
            if item.on_complete is not None:
                item.on_complete(self.now)
            return
        item._pos = len(self._items)
        self._items.append(item)
        if self._allocate_incremental is not None:
            self._added.append(item)
        self._dirty = True

    def add_items(self, items: Iterable[WorkItem]) -> None:
        for item in items:
            self.add_item(item)

    def schedule(
        self, time: float, callback: Callable[[], None], seq: "int | None" = None
    ) -> None:
        """Run ``callback`` at absolute simulation time ``time``; timers
        due at one instant fire in ``seq`` order (default: the next one;
        a deferred timer passes its :meth:`reserve_seq` result)."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        if seq is None:
            seq = self.reserve_seq()
        heapq.heappush(self._timers, (max(time, self.now), seq, callback))

    def reserve_seq(self) -> int:
        """Take the next timer sequence number without scheduling."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def request_stop(self) -> None:
        """Stop :meth:`run` before its next loop iteration.

        Called from completion callbacks once the caller has seen
        everything it needs (e.g. a truncated model evaluation watching
        a subset of stages).  All completions of the current instant are
        still delivered first, so the executed trajectory remains an
        exact prefix of the untruncated run.
        """
        self._stop_requested = True

    def cancel_item(self, item: WorkItem) -> bool:
        """Withdraw an active item without firing its completion.

        Fault-injection path: a crashed node's in-flight work leaves
        the active set with its remaining volume intact (the caller
        decides whether and where to requeue it).  Returns ``False``
        if the item was not active (already completed or cancelled).
        """
        if item._pos < 0:
            return False
        self._remove_item(item)
        if self._allocate_incremental is not None:
            # An item added and cancelled within one allocation window
            # must not reach the incremental allocator at all.
            if item in self._added:
                self._added.remove(item)
            else:
                self._removed.append(item)
        self._dirty = True
        return True

    def mark_dirty(self) -> None:
        """Force a rate reallocation before the next advance (call after
        externally mutating item properties such as rate caps)."""
        self._dirty = True
        # External mutations are invisible to the change lists, so the
        # next reallocation must be a full one.
        self._full_dirty = True

    def checkpoint(self) -> tuple:
        """The loop state, for :meth:`restore` to put back onto the
        *same* item objects (completion callbacks stay valid)."""
        return (
            [(it, [getattr(it, a) for a in it._STATE]) for it in self._items],
            self.now, self._timers.copy(), self._added.copy(),
            self._removed.copy(), self._seq, self.pause_key, self._mid_instant,
            self._dirty, self._full_dirty, self._stop_requested,
            self.events_processed, self.max_active_items,
            self.full_allocations, self.incremental_allocations,
        )

    def restore(self, state: tuple) -> None:
        """Put back a :meth:`checkpoint`, taken at this point or at an
        earlier one.  The state is copied, so it can be restored again."""
        (items, self.now, timers, added, removed, self._seq,
         self.pause_key, self._mid_instant, self._dirty, self._full_dirty,
         self._stop_requested, self.events_processed, self.max_active_items,
         self.full_allocations, self.incremental_allocations) = state
        self._timers[:] = timers
        self._added[:] = added
        self._removed[:] = removed
        for pos, (item, values) in enumerate(items):
            for name, value in zip(item._STATE, values):
                setattr(item, name, value)
            item._pos = pos
        self._items[:] = [item for item, _ in items]

    @property
    def active_items(self) -> list[WorkItem]:
        return list(self._items)

    @property
    def idle(self) -> bool:
        return not self._items and not self._timers

    def run(self, until: "float | None" = None) -> float:
        """Advance until no work and no timers remain (or ``until``, or
        :attr:`pause_key`).

        A run that paused between two timer pops first finishes that
        instant.  Returns the final simulation time.
        """
        events = 0
        # Localize loop-invariant objects: ``_items`` and ``_timers`` are
        # mutated in place (swap-remove / heappush) but never rebound, so
        # the local aliases stay valid across iterations.
        items = self._items
        timers = self._timers
        inf = math.inf
        progress = self._progress
        progress_every = self._progress_every
        try:
            if self._mid_instant and self._settle():
                return self.now
            while (items or timers) and not self._stop_requested:
                events += 1
                self.events_processed += 1
                if progress is not None and events % progress_every == 0:
                    progress(self)
                if events > self._max_events:
                    raise RuntimeError(
                        f"engine exceeded {self._max_events} events at t={self.now:.3f}; "
                        "likely a livelock (items repeatedly added with zero volume?)"
                    )
                if len(items) > self.max_active_items:
                    self.max_active_items = len(items)
                if self._dirty:
                    self._reallocate()

                # Next completion among items with positive rate.
                dt_complete = inf
                for item in items:
                    rate = item.rate
                    if rate > 0.0:
                        dt = item.remaining / rate
                        if dt < dt_complete:
                            dt_complete = dt
                t_complete = self.now + dt_complete

                t_timer = timers[0][0] if timers else inf
                t_next = t_complete if t_complete <= t_timer else t_timer

                pause = self.pause_key
                if pause is not None and pause[0] < t_next:
                    # The paused-for timer would fire first: stop before
                    # the clock moves; the next run() redoes this
                    # iteration, so it is not counted.
                    events -= 1
                    self.events_processed -= 1
                    return self.now
                if t_next == inf:
                    raise EngineStalledError(
                        f"{len(items)} active items but all rates are zero "
                        f"and no timers pending at t={self.now:.3f}"
                    )
                if until is not None and t_next > until:
                    # ``until`` in the past is an explicit no-op, not a
                    # backwards clock move.
                    if until > self.now:
                        self._advance_to(until)
                    return self.now

                self._advance_to(t_next)
                if self._settle():
                    return self.now
            return self.now
        finally:
            FluidEngine.TOTAL_EVENTS += events

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _settle(self) -> bool:
        """Fire the timers due at the current instant, then collect its
        completions.  Returns ``True``, with the instant unfinished, when
        :attr:`pause_key` comes due before the next timer pop."""
        timers = self._timers
        t_due = self.now + 1e-12
        # Fire due timers (they may add items / schedule more timers).
        # A timer firing does not by itself invalidate rates: every
        # state change a callback makes goes through add_item() /
        # mark_dirty() / item completion, each of which sets the
        # dirty flag, so a pure bookkeeping timer costs no re-solve.
        fired = False
        while True:
            head = timers[0] if timers and timers[0][0] <= t_due else None
            pause = self.pause_key  # re-read: a callback may set it
            if pause is not None and pause[0] <= t_due and (
                    head is None or pause < head[:2]):
                self._mid_instant = True
                return True
            if head is None:
                break
            heapq.heappop(timers)[2]()
            fired = True
        self._mid_instant = False
        items = self._items
        if fired and _sanitizer.ENABLED:
            # Timer callbacks that corrupt item state used to be
            # caught by the (now elided) unconditional re-solve;
            # keep catching them without paying for one.
            _sanitizer.check_rates_valid(items)

        # Collect completions (swap-remove keeps this O(completed)
        # instead of rebuilding the whole active list every event).
        # Threshold is EPS * max(1.0, rate), spelled branchy to avoid
        # a builtin call per item on the hottest loop in the tree.
        eps = self.EPS
        completed = [
            it
            for it in items
            if it.remaining <= (eps * it.rate if it.rate > 1.0 else eps)
        ]
        if completed:
            for item in completed:
                self._remove_item(item)
            if self._allocate_incremental is not None:
                self._removed.extend(completed)
            self._dirty = True
            for item in completed:
                item.remaining = 0.0
                if item.on_complete is not None:
                    item.on_complete(self.now)
        return False

    def _remove_item(self, item: WorkItem) -> None:
        """Swap-remove ``item`` from the active list in O(1)."""
        pos = item._pos
        last = self._items.pop()
        if last is not item:
            self._items[pos] = last
            last._pos = pos
        item._pos = -1

    def _reallocate(self) -> None:
        if self._allocate_incremental is not None and not self._full_dirty:
            self._allocate_incremental(self._items, self._added, self._removed)
            self.incremental_allocations += 1
        else:
            self._allocate(self._items)
            self.full_allocations += 1
        self._added.clear()
        self._removed.clear()
        self._full_dirty = False
        for item in self._items:
            # Single comparison: NaN >= 0 is False, so this catches both
            # negative and NaN rates.
            if not item.rate >= 0.0:
                raise ValueError(f"allocator produced invalid rate {item.rate!r}")
        if _sanitizer.ENABLED:
            _sanitizer.check_rates_valid(self._items)
        self._dirty = False

    def _advance_to(self, t: float) -> None:
        dt = t - self.now
        if dt < 0:
            if _sanitizer.ENABLED:
                _sanitizer.check_clock_monotone(self.now, t)
            return
        if self._observe is not None and dt > 0:
            self._observe(self.now, t, self._items)
        if dt > 0:
            for item in self._items:
                rate = item.rate
                if rate > 0.0:
                    rem = item.remaining - rate * dt
                    item.remaining = rem if rem > 0.0 else 0.0
        self.now = t
