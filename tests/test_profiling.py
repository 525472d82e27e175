"""Profiling and measurement substrate (Sec. 4.2)."""

import pytest

from repro.profiling import measure_cluster, profile_job


def test_oracle_profile_recovers_parameters(fork_join_job, small_cluster):
    """With zero noise, profiled volumes match the truth and rates are
    close (the profiling run observes the true processing rate)."""
    report = profile_job(fork_join_job, small_cluster, noise=0.0, rng=0)
    for sid in fork_join_job.stage_ids:
        true = fork_join_job.stage(sid)
        est = report.estimates[sid]
        assert est.input_bytes == pytest.approx(true.input_bytes, rel=1e-6)
        assert est.output_bytes == pytest.approx(true.output_bytes, rel=1e-6)
        assert est.process_rate == pytest.approx(true.process_rate, rel=1e-6)


def test_profile_recovers_dag(fork_join_job, small_cluster):
    report = profile_job(fork_join_job, small_cluster, noise=0.0)
    model = report.to_model_job()
    assert model.edges == fork_join_job.edges
    assert model.stage_ids == fork_join_job.stage_ids


def test_noise_perturbs_estimates(fork_join_job, small_cluster):
    a = profile_job(fork_join_job, small_cluster, noise=0.1, rng=1)
    true = fork_join_job.stage("A").input_bytes
    assert a.estimates["A"].input_bytes != pytest.approx(true, rel=1e-9)


def test_profile_deterministic_by_seed(fork_join_job, small_cluster):
    a = profile_job(fork_join_job, small_cluster, noise=0.1, rng=5)
    b = profile_job(fork_join_job, small_cluster, noise=0.1, rng=5)
    assert a.estimates == b.estimates


def test_profiling_overhead_scales_with_sample(fork_join_job, small_cluster):
    """A 10 % profile runs much faster than a 50 % profile."""
    small = profile_job(fork_join_job, small_cluster, sample_fraction=0.1, noise=0.0)
    large = profile_job(fork_join_job, small_cluster, sample_fraction=0.5, noise=0.0)
    assert small.profiling_seconds < large.profiling_seconds
    assert small.sample_fraction == 0.1


def test_sample_fraction_validated(fork_join_job, small_cluster):
    with pytest.raises(ValueError):
        profile_job(fork_join_job, small_cluster, sample_fraction=0.0)
    with pytest.raises(ValueError):
        profile_job(fork_join_job, small_cluster, sample_fraction=1.5)
    with pytest.raises(ValueError):
        profile_job(fork_join_job, small_cluster, noise=-1)


def test_profile_without_storage_tier(fork_join_job):
    from repro.cluster import uniform_cluster

    cluster = uniform_cluster(3, storage_nodes=0)
    report = profile_job(fork_join_job, cluster, noise=0.0)
    assert report.estimates["A"].input_bytes > 0


def test_measure_cluster_noise():
    from repro.cluster import uniform_cluster

    cluster = uniform_cluster(3, storage_nodes=1)
    measured = measure_cluster(cluster, noise=0.05, rng=0)
    assert measured.node_ids == cluster.node_ids
    changed = [
        measured.node(n).nic_bandwidth != cluster.node(n).nic_bandwidth
        for n in cluster.node_ids
    ]
    assert any(changed)
    # executors observed exactly
    assert all(
        measured.node(n).executors == cluster.node(n).executors
        for n in cluster.node_ids
    )


def test_measure_cluster_zero_noise_identity():
    from repro.cluster import uniform_cluster

    cluster = uniform_cluster(2)
    assert measure_cluster(cluster, noise=0.0) is cluster


def test_measure_cluster_rejects_negative_noise():
    from repro.cluster import uniform_cluster

    with pytest.raises(ValueError):
        measure_cluster(uniform_cluster(1), noise=-0.1)
