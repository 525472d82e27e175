"""Fault-plan declaration, serialization, and chaos generation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import uniform_cluster
from repro.faults import (
    FaultPlan,
    LostShufflePartition,
    NicBrownout,
    NodeCrash,
    Straggler,
    generate_plan,
)
from repro.workloads.synthetic import random_job


def _plan() -> FaultPlan:
    return FaultPlan(
        events=(
            NodeCrash(time=30.0, node="w2"),
            NicBrownout(start=10.0, end=20.0, node="w1", factor=0.4),
            Straggler(time=5.0, node="w0", factor=1.5, until=40.0),
            LostShufflePartition(time=12.0, job="j0", stage="S1", part="p0"),
        ),
        retry_budget=2,
        backoff_base=0.5,
        backoff_cap=4.0,
    )


# --------------------------------------------------------------------- #
# declaration


def test_event_validation():
    with pytest.raises(ValueError):
        NodeCrash(time=-1.0, node="w0")
    with pytest.raises(ValueError):
        NodeCrash(time=0.0, node="")
    with pytest.raises(ValueError):
        NicBrownout(start=5.0, end=5.0, node="w0", factor=0.5)
    with pytest.raises(ValueError):
        NicBrownout(start=0.0, end=5.0, node="w0", factor=1.5)
    with pytest.raises(ValueError):
        Straggler(time=0.0, node="w0", factor=0.5, until=5.0)
    with pytest.raises(ValueError):
        Straggler(time=5.0, node="w0", factor=2.0, until=5.0)
    with pytest.raises(ValueError):
        LostShufflePartition(time=0.0, job="", stage="S", part="p")


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(retry_budget=-1)
    with pytest.raises(ValueError):
        FaultPlan(backoff_base=-0.5)
    with pytest.raises(TypeError):
        FaultPlan(events=("not an event",))


def test_plan_is_frozen():
    plan = _plan()
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.retry_budget = 9


def test_backoff_is_capped_exponential():
    plan = FaultPlan(backoff_base=0.5, backoff_cap=3.0)
    assert plan.backoff(1) == 0.5
    assert plan.backoff(2) == 1.0
    assert plan.backoff(3) == 2.0
    assert plan.backoff(4) == 3.0  # capped, 4.0 uncapped
    assert plan.backoff(10) == 3.0
    with pytest.raises(ValueError):
        plan.backoff(0)


def test_brownout_time_aliases_start():
    event = NicBrownout(start=7.0, end=9.0, node="w0", factor=0.5)
    assert event.time == 7.0


# --------------------------------------------------------------------- #
# cluster validation


def test_validate_against_cluster():
    cluster = uniform_cluster(3, executors_per_worker=2, nic_mbps=450,
                              disk_mb_per_sec=150, storage_nodes=1)
    _plan().validate_against(cluster)  # w0..w2 all exist

    unknown = FaultPlan(events=(NodeCrash(time=1.0, node="nope"),))
    with pytest.raises(ValueError, match="unknown node"):
        unknown.validate_against(cluster)

    storage = FaultPlan(events=(NodeCrash(time=1.0, node="hdfs0"),))
    with pytest.raises(ValueError, match="worker nodes"):
        storage.validate_against(cluster)

    total = FaultPlan(events=tuple(
        NodeCrash(time=float(i + 1), node=f"w{i}") for i in range(3)
    ))
    with pytest.raises(ValueError, match="nothing survives"):
        total.validate_against(cluster)


# --------------------------------------------------------------------- #
# serialization


def test_round_trip_json():
    plan = _plan()
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_save_load(tmp_path):
    plan = _plan()
    path = tmp_path / "plan.json"
    plan.save(path)
    assert FaultPlan.load(path) == plan


def test_from_dict_rejects_garbage():
    with pytest.raises(ValueError, match="unknown kind"):
        FaultPlan.from_dict({"events": [{"kind": "meteor_strike"}]})
    with pytest.raises(ValueError, match="schema"):
        FaultPlan.from_dict({"schema": 99})
    with pytest.raises(ValueError, match="must be an object"):
        FaultPlan.from_dict({"events": ["x"]})
    with pytest.raises(ValueError):
        FaultPlan.from_dict([])
    # JSON's 1e999 parses to inf, which int() rejects with OverflowError.
    for bad in (1e999, float("nan"), "x", None):
        with pytest.raises(ValueError, match="retry/backoff"):
            FaultPlan.from_dict({"retry_budget": bad})


# --------------------------------------------------------------------- #
# chaos generation


def test_generate_plan_deterministic():
    cluster = uniform_cluster(3, executors_per_worker=2, nic_mbps=450,
                              disk_mb_per_sec=150, storage_nodes=0)
    job = random_job(4, job_id="j0", rng=0)
    a = generate_plan(cluster, 42, jobs=[job], num_events=4)
    b = generate_plan(cluster, 42, jobs=[job], num_events=4)
    assert a == b
    assert a.to_json() == b.to_json()
    c = generate_plan(cluster, 43, jobs=[job], num_events=4)
    assert a != c


def test_generate_plan_never_kills_last_worker():
    cluster = uniform_cluster(1, executors_per_worker=2, nic_mbps=450,
                              disk_mb_per_sec=150, storage_nodes=1)
    for seed in range(8):
        plan = generate_plan(cluster, seed, num_events=5)
        assert not plan.crashes
        plan.validate_against(cluster)


def test_generate_plan_validates():
    cluster = uniform_cluster(4, executors_per_worker=2, nic_mbps=450,
                              disk_mb_per_sec=150, storage_nodes=1)
    for seed in range(5):
        plan = generate_plan(cluster, seed, num_events=6)
        plan.validate_against(cluster)
        assert all(e.time >= 0 for e in plan.events)
