"""Fluid engine: exact completion times, timers, stall detection."""

import math

import pytest

from repro.simulator.engine import EngineStalledError, FluidEngine, WorkItem


def constant_rate_allocator(rate: float):
    def allocate(items):
        for item in items:
            item.rate = rate

    return allocate


def test_single_item_completes_exactly():
    done = []
    engine = FluidEngine(constant_rate_allocator(2.0))
    engine.add_item(WorkItem(10.0, on_complete=done.append))
    end = engine.run()
    assert end == pytest.approx(5.0)
    assert done == [pytest.approx(5.0)]


def test_two_items_fair_share():
    """Two items sharing a unit resource: both complete at volume sum."""

    def allocate(items):
        for item in items:
            item.rate = 1.0 / len(items)

    done = []
    engine = FluidEngine(allocate)
    engine.add_item(WorkItem(1.0, on_complete=lambda t: done.append(("a", t))))
    engine.add_item(WorkItem(3.0, on_complete=lambda t: done.append(("b", t))))
    engine.run()
    # Shared until a finishes at t=2 (each at rate .5), then b alone:
    # b has 2 left, rate 1 -> done at 4.
    assert done[0] == ("a", pytest.approx(2.0))
    assert done[1] == ("b", pytest.approx(4.0))


def test_timer_fires_and_adds_work():
    engine = FluidEngine(constant_rate_allocator(1.0))
    done = []
    engine.schedule(3.0, lambda: engine.add_item(WorkItem(2.0, done.append)))
    engine.run()
    assert done == [pytest.approx(5.0)]


def test_timer_ordering_stable():
    order = []
    engine = FluidEngine(constant_rate_allocator(1.0))
    engine.schedule(1.0, lambda: order.append("a"))
    engine.schedule(1.0, lambda: order.append("b"))
    engine.schedule(0.5, lambda: order.append("c"))
    engine.run()
    assert order == ["c", "a", "b"]


def test_zero_volume_completes_instantly():
    engine = FluidEngine(constant_rate_allocator(1.0))
    done = []
    engine.add_item(WorkItem(0.0, done.append))
    assert done == [0.0]
    assert engine.idle


def test_stall_detection():
    engine = FluidEngine(constant_rate_allocator(0.0))
    engine.add_item(WorkItem(1.0))
    with pytest.raises(EngineStalledError):
        engine.run()


def test_negative_volume_rejected():
    with pytest.raises(ValueError):
        WorkItem(-1.0)
    with pytest.raises(ValueError):
        WorkItem(math.nan)


def test_schedule_in_past_rejected():
    engine = FluidEngine(constant_rate_allocator(1.0))
    engine.add_item(WorkItem(5.0))
    engine.schedule(2.0, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.schedule(engine.now - 1.0, lambda: None)


def test_run_until_stops_early():
    engine = FluidEngine(constant_rate_allocator(1.0))
    engine.add_item(WorkItem(10.0))
    t = engine.run(until=4.0)
    assert t == pytest.approx(4.0)
    assert engine.active_items[0].remaining == pytest.approx(6.0)


def test_observe_intervals_cover_run():
    intervals = []
    engine = FluidEngine(
        constant_rate_allocator(1.0),
        observe=lambda t0, t1, items: intervals.append((t0, t1)),
    )
    engine.add_item(WorkItem(2.0))
    engine.schedule(1.0, lambda: engine.add_item(WorkItem(0.5)))
    engine.run()
    assert intervals[0][0] == 0.0
    # Contiguous coverage without gaps.
    for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
        assert a1 == pytest.approx(b0)
    assert intervals[-1][1] == pytest.approx(2.0)


def test_invalid_allocator_rate_detected():
    def bad_allocate(items):
        for item in items:
            item.rate = -1.0

    engine = FluidEngine(bad_allocate)
    engine.add_item(WorkItem(1.0))
    with pytest.raises(ValueError, match="invalid rate"):
        engine.run()


def test_mark_dirty_forces_reallocation():
    calls = []

    def allocate(items):
        calls.append(len(items))
        for item in items:
            item.rate = 1.0

    engine = FluidEngine(allocate)
    engine.add_item(WorkItem(1.0))
    engine.schedule(0.5, engine.mark_dirty)
    engine.run()
    assert len(calls) >= 2


def test_cancel_item_keeps_remaining():
    """A cancelled item leaves with its advanced remaining volume and
    never fires its completion."""
    engine = FluidEngine(constant_rate_allocator(1.0))
    fired = []
    victim = WorkItem(100.0, fired.append)
    engine.add_item(victim)
    for i in range(5):
        engine.add_item(WorkItem(10.0 + i))
    grabbed = []

    def grab():
        assert engine.cancel_item(victim)
        grabbed.append(victim.remaining)

    engine.schedule(3.5, grab)
    engine.run()
    assert grabbed == [100.0 - 3.5]
    assert fired == []
    assert not engine.cancel_item(victim)


def test_mass_completion_keeps_survivors_exact():
    """Many items completing in one event are swap-removed together;
    the survivors keep their exact remaining volumes."""
    engine = FluidEngine(constant_rate_allocator(1.0))
    order = []
    for i in range(20):
        volume = 5.0 if i % 2 == 0 else 50.0 + i
        engine.add_item(WorkItem(volume, lambda t, i=i: order.append((i, t))))
    engine.run(until=30.0)
    assert sorted(order) == [(i, 5.0) for i in range(0, 20, 2)]
    survivors = sorted(item.remaining for item in engine.active_items)
    assert survivors == [50.0 + i - 30.0 for i in range(1, 20, 2)]


def test_total_events_counter_accumulates():
    """TOTAL_EVENTS sums loop iterations across engine instances."""
    before = FluidEngine.TOTAL_EVENTS
    for _ in range(2):
        engine = FluidEngine(constant_rate_allocator(1.0))
        engine.add_item(WorkItem(1.0))
        engine.run()
    assert FluidEngine.TOTAL_EVENTS >= before + 2
