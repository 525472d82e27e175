"""Critical-path blame engine (repro.obs.critical) contracts.

The load-bearing invariant is the *blame identity*: for every finished
job, the seven category seconds sum bit-for-bit (``==`` on floats, no
tolerance) to the measured JCT, and the makespan decomposition sums to
the measured makespan.  The identity is property-tested over random
DAGs and must survive fault injection.

The second contract is observational purity: computing blame changes
nothing about the run.  Demand accounting rides the ``track_events``
flag, and stage/job records are bit-identical with it on or off.
"""

import dataclasses
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import uniform_cluster
from repro.core import DelayStageParams
from repro.faults import generate_plan
from repro.obs import critical
from repro.obs.critical import (
    CATEGORIES,
    blame_diff,
    render_blame_markdown,
    render_diff_markdown,
    run_blame,
    validate_blame_payload,
)
from repro.obs.metrics import (
    interleaving_report,
    reports_to_csv,
    reports_to_openmetrics,
)
from repro.schedulers import (
    DelayStageScheduler,
    FuxiScheduler,
    StockSparkScheduler,
    compare_schedulers,
    run_with_scheduler,
)
from repro.simulator import Simulation
from repro.simulator.engine import FluidEngine
from repro.workloads import workload_by_name
from repro.workloads.synthetic import random_job

from .testutil import result_fingerprint


def _als():
    job = workload_by_name("ALS", 1.0)
    cluster = uniform_cluster(3, executors_per_worker=2, nic_mbps=450,
                              disk_mb_per_sec=150, storage_nodes=0)
    return job, cluster


def _assert_identity(blame):
    """The identity must be float-==, not approx: Fraction arithmetic
    telescopes exactly, so any drift is a real accounting bug."""
    assert blame.identity_exact
    total = float(sum(blame.exact.values(), Fraction(0)))
    assert total == blame.makespan_seconds
    for jid, jb in blame.jobs.items():
        assert jb.identity_exact, jid
        assert jb.total_seconds == jb.jct_seconds, jid
        assert set(jb.categories) == set(CATEGORIES)
        for stage in jb.stages:
            for sec in stage.seconds.values():
                assert sec >= -1e-12


class TestBlameIdentity:
    @pytest.mark.parametrize("make_scheduler", [
        lambda: FuxiScheduler(track_metrics=False),
        lambda: StockSparkScheduler(track_metrics=False),
        lambda: DelayStageScheduler(profiled=True, track_metrics=False),
    ], ids=["fuxi", "spark", "delaystage"])
    def test_als_identity_bit_exact(self, make_scheduler):
        job, cluster = _als()
        run = run_with_scheduler(job, cluster, make_scheduler())
        blame = run_blame(run.result, job, label=run.scheduler_name,
                          delays=run.delay_table)
        _assert_identity(blame)
        # Something real was attributed: the path does actual compute.
        assert blame.categories["compute"] > 0.0

    def test_fixture_jobs_identity(self, small_cluster, diamond_job,
                                   fork_join_job, chain_job):
        for job in (diamond_job, fork_join_job, chain_job):
            run = run_with_scheduler(
                job, small_cluster, StockSparkScheduler(track_metrics=False))
            _assert_identity(run_blame(run.result, job))

    def test_chain_critical_path_is_the_chain(self, small_cluster, chain_job):
        run = run_with_scheduler(
            chain_job, small_cluster, StockSparkScheduler(track_metrics=False))
        blame = run_blame(run.result, chain_job)
        jb = blame.jobs[chain_job.job_id]
        # A linear chain has exactly one path; the walker must find all
        # stages of it, in topological order.
        assert [s.stage_id for s in jb.stages] == ["S1", "S2", "S3"]
        # Stock Spark never delays, so no delay-wait on the path.
        assert jb.categories["delay_wait"] == 0.0

    def test_delay_wait_matches_records(self, small_cluster, diamond_job):
        sched = DelayStageScheduler(profiled=True, track_metrics=False,
                                    params=DelayStageParams(max_slots=8))
        run = run_with_scheduler(diamond_job, small_cluster, sched)
        blame = run_blame(run.result, diamond_job, delays=run.delay_table)
        jb = blame.jobs[diamond_job.job_id]
        records = run.result.stage_records
        expected = sum(
            (Fraction(records[(s.job_id, s.stage_id)].submit_time)
             - Fraction(records[(s.job_id, s.stage_id)].ready_time))
            for s in jb.stages
        )
        assert jb.categories["delay_wait"] == float(expected)
        # Cross-link: stages the schedule delayed carry the chosen value.
        for stage in jb.stages:
            chosen = run.delay_table.get(stage.stage_id)
            if chosen:
                assert stage.chosen_delay == pytest.approx(chosen)

    def test_makespan_counts_submission_offset(self, tiny_cluster):
        # Two jobs, the second submitted at t=30: the makespan blame
        # must include that offset (as dependency wait) to reach the
        # measured makespan exactly.
        jobs = [random_job(4, parallelism=0.5, rng=1, job_id="a"),
                random_job(4, parallelism=0.5, rng=2, job_id="b")]
        sched = StockSparkScheduler(track_metrics=False)
        sim = None
        for offset, job in zip((0.0, 30.0), jobs):
            prepared = sched.prepare(job, tiny_cluster)
            if sim is None:
                sim = Simulation(tiny_cluster, prepared.config)
            sim.add_job(job, prepared.policy, submit_time=offset)
        result = sim.run()
        blame = run_blame(result, jobs)
        _assert_identity(blame)
        mk = result.job_records[blame.makespan_job]
        if mk.submit_time > 0:
            assert blame.categories["dependency"] >= mk.submit_time


class TestBlameProperty:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 12),
           parallelism=st.sampled_from([0.3, 0.7, 1.0]))
    def test_identity_over_random_dags(self, seed, n, parallelism):
        cluster = uniform_cluster(2, executors_per_worker=2,
                                  nic_mbps=480, disk_mb_per_sec=150)
        job = random_job(n, parallelism=parallelism, rng=seed,
                         job_id=f"r{seed}")
        for sched in (StockSparkScheduler(track_metrics=False),
                      DelayStageScheduler(profiled=True,
                                          track_metrics=False)):
            run = run_with_scheduler(job, cluster, sched)
            blame = run_blame(run.result, job, delays=run.delay_table)
            _assert_identity(blame)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_identity_under_fault_injection(self, seed):
        cluster = uniform_cluster(2, executors_per_worker=2, nic_mbps=480,
                                  disk_mb_per_sec=150, storage_nodes=1)
        job = random_job(6, parallelism=0.6, rng=seed, job_id=f"f{seed}")
        plan = generate_plan(cluster, seed, jobs=[job], num_events=4,
                             horizon=80.0)
        run = run_with_scheduler(
            job, cluster,
            FuxiScheduler(track_metrics=False, fault_plan=plan))
        blame = run_blame(run.result, job)
        _assert_identity(blame)

    def test_fault_retry_category_appears(self, tiny_cluster):
        # Sweep seeds until a plan actually causes retries on the
        # critical path; the category must then be charged.
        for seed in range(40):
            job = random_job(6, parallelism=0.6, rng=seed, job_id="f")
            plan = generate_plan(tiny_cluster, seed, jobs=[job],
                                 num_events=4, horizon=80.0)
            run = run_with_scheduler(
                job, tiny_cluster,
                FuxiScheduler(track_metrics=False, fault_plan=plan))
            blame = run_blame(run.result, job)
            _assert_identity(blame)
            jb = blame.jobs["f"]
            if any(s.retries > 0 for s in jb.stages):
                assert jb.categories["fault_retry"] > 0.0
                return
        pytest.skip("no seed produced a critical-path retry")


class TestObservationalPurity:
    def test_records_bit_identical_with_tracking_off(self, small_cluster,
                                                     fork_join_job):
        sched = StockSparkScheduler(track_metrics=False)
        results = {}
        for track in (True, False):
            prepared = sched.prepare(fork_join_job, small_cluster)
            config = dataclasses.replace(prepared.config, track_events=track)
            sim = Simulation(small_cluster, config)
            sim.add_job(fork_join_job, prepared.policy)
            results[track] = sim.run()
        on, off = results[True], results[False]
        assert on.demands is not None and off.demands is None
        assert set(on.stage_records) == set(off.stage_records)
        for sid, rec_on in on.stage_records.items():
            rec_off = off.stage_records[sid]
            for field in ("ready_time", "submit_time", "read_done_time",
                          "compute_done_time", "finish_time"):
                assert getattr(rec_on, field) == getattr(rec_off, field), sid
        for jid, jrec in on.job_records.items():
            assert jrec.submit_time == off.job_records[jid].submit_time
            assert jrec.finish_time == off.job_records[jid].finish_time

    def test_run_blame_does_not_mutate_result(self, small_cluster,
                                              diamond_job):
        run = run_with_scheduler(
            diamond_job, small_cluster, StockSparkScheduler(track_metrics=False))
        before = repr(sorted(run.result.stage_records.items()))
        demands_before = run.result.demands
        events_before = len(run.result.events)
        run_blame(run.result, diamond_job)
        assert repr(sorted(run.result.stage_records.items())) == before
        assert run.result.demands is demands_before
        assert len(run.result.events) == events_before

    def test_blame_without_demands_still_exact(self, small_cluster,
                                               diamond_job):
        # Demand accounting off (track_events=False): phases fall back
        # to their nominal categories, the identity still holds.
        sched = StockSparkScheduler(track_metrics=False)
        prepared = sched.prepare(diamond_job, small_cluster)
        config = dataclasses.replace(prepared.config, track_events=False)
        sim = Simulation(small_cluster, config)
        sim.add_job(diamond_job, prepared.policy)
        result = sim.run()
        blame = run_blame(result, diamond_job)
        _assert_identity(blame)
        # Without demand data there is no ideal-rate baseline to split
        # contention out of, so none may be charged.
        assert blame.categories["contention"] == 0.0


class TestDiffAndReportConsistency:
    @pytest.fixture(scope="class")
    def als_runs(self):
        job, cluster = _als()
        runs = compare_schedulers(job, cluster, [
            FuxiScheduler(track_metrics=True),
            DelayStageScheduler(profiled=True, track_metrics=True),
        ])
        blames = {
            name: run_blame(run.result, job, label=name,
                            delays=run.delay_table)
            for name, run in runs.items()
        }
        return job, runs, blames

    def test_diff_reports_positive_recovery(self, als_runs):
        _, _, blames = als_runs
        diff = blame_diff(blames["fuxi"], blames["delaystage"])
        # The paper's story on ALS: DelayStage invests delay to recover
        # more contention/serial time than it costs.
        assert diff.makespan_saved > 0.0
        assert diff.recovery_seconds > 0.0
        assert diff.saved["contention"] > 0.0
        assert diff.delay_invested >= 0.0
        assert diff.recovery_seconds > diff.delay_invested

    def test_diff_sign_matches_overlap_ratio(self, als_runs):
        job, runs, blames = als_runs
        reports = {
            name: interleaving_report(run.result, job, label=name)
            for name, run in runs.items()
        }
        diff = blame_diff(blames["fuxi"], blames["delaystage"])
        # Positive contention recovery must agree with the report's
        # interleaving view: DelayStage runs fewer stages concurrently
        # (lower stage-time overlap — that is what was contending) while
        # overlapping *resource phases* more (higher CPU+NIC
        # complementarity, the paper's actual interleaving goal).
        assert diff.saved["contention"] > 0.0
        assert (reports["delaystage"].stage_overlap_ratio
                < reports["fuxi"].stage_overlap_ratio)
        assert (reports["delaystage"].cpu_net_complementarity
                > reports["fuxi"].cpu_net_complementarity)

    def test_report_blame_matches_run_blame(self, als_runs):
        job, runs, blames = als_runs
        rep = interleaving_report(runs["fuxi"].result, job, label="fuxi")
        assert rep.blame is not None
        for cat in CATEGORIES:
            assert rep.blame[cat] == blames["fuxi"].categories[cat]

    def test_csv_delay_wait_columns_cross_check(self, als_runs):
        job, runs, blames = als_runs
        reports = {
            name: interleaving_report(run.result, job, label=name)
            for name, run in runs.items()
        }
        rows = [line.split(",") for line in
                reports_to_csv(reports).strip().splitlines()]
        header, body = rows[0], rows[1:]
        assert header[0] == "run"
        delay_cols = {name: i for i, name in enumerate(header)
                      if name.startswith("delay_wait_")
                      and name not in ("delay_wait_seconds",
                                       "delay_wait_share")}
        blame_cols = {name: i for i, name in enumerate(header)
                      if name.startswith("blame_")}
        assert delay_cols and blame_cols
        assert set(blame_cols) == {f"blame_{c}" for c in CATEGORIES}
        for row in body:
            assert len(row) == len(header)
            name = row[0]
            records = runs[name].result.stage_records
            # Per-stage CSV columns reproduce the records exactly.
            for col, i in delay_cols.items():
                sid = col[len("delay_wait_"):]
                rec = records[(job.job_id, sid)]
                assert float(row[i]) == pytest.approx(
                    max(rec.submit_time - rec.ready_time, 0.0))
            # The blame column family reproduces run_blame.
            for cat in CATEGORIES:
                assert float(row[blame_cols[f"blame_{cat}"]]) == (
                    pytest.approx(blames[name].categories[cat]))
            # Blame delay-wait only counts critical-path stages, so it
            # is bounded by the per-stage total.
            total_delay = sum(
                max(rec.submit_time - rec.ready_time, 0.0)
                for rec in records.values())
            assert (blames[name].categories["delay_wait"]
                    <= total_delay + 1e-9)

    def test_renderers_and_openmetrics_lines(self, als_runs):
        job, runs, blames = als_runs
        md = render_blame_markdown(blames)
        assert "delaystage" in md and "contention" in md
        diff_md = render_diff_markdown(
            blame_diff(blames["fuxi"], blames["delaystage"]))
        assert "fuxi" in diff_md and "delaystage" in diff_md
        # The repro_blame_seconds family is rendered once, by the report
        # exposition, from reports that carry blame (built with ``job``).
        reports = {
            name: interleaving_report(run.result, job, label=name)
            for name, run in runs.items()
        }
        lines = reports_to_openmetrics(reports).splitlines()
        assert "# TYPE repro_blame_seconds gauge" in lines
        for name, blame in blames.items():
            for cat in CATEGORIES:
                line = (f'repro_blame_seconds{{run="{name}",category="{cat}"}} '
                        f"{float(blame.categories[cat])!r}")
                assert line in lines


class TestPayloadValidation:
    def _payload(self, als_runs=None):
        job, cluster = _als()
        runs = compare_schedulers(job, cluster, [
            FuxiScheduler(track_metrics=False),
            DelayStageScheduler(profiled=True, track_metrics=False),
        ])
        blames = {
            name: run_blame(run.result, job, label=name,
                            delays=run.delay_table)
            for name, run in runs.items()
        }
        diff = blame_diff(blames["fuxi"], blames["delaystage"])
        return {
            "blames": {k: v.to_dict() for k, v in blames.items()},
            "diff": diff.to_dict(),
        }

    def test_valid_payload_passes(self):
        payload = self._payload()
        # Round-trip through JSON like the CLI does.
        payload = json.loads(json.dumps(payload))
        assert validate_blame_payload(payload) == []

    def test_broken_payloads_rejected(self):
        payload = json.loads(json.dumps(self._payload()))

        missing = json.loads(json.dumps(payload))
        del missing["blames"]["fuxi"]["categories"]["compute"]
        assert validate_blame_payload(missing)

        unknown = json.loads(json.dumps(payload))
        unknown["blames"]["fuxi"]["categories"]["gremlins"] = 1.0
        assert validate_blame_payload(unknown)

        broken = json.loads(json.dumps(payload))
        broken["blames"]["fuxi"]["identity_exact"] = False
        assert validate_blame_payload(broken)

        nodiff = json.loads(json.dumps(payload))
        del nodiff["diff"]["saved"]
        assert validate_blame_payload(nodiff)

        assert validate_blame_payload({}) != []

    def test_run_blame_rejects_unknown_jobs(self, small_cluster,
                                            diamond_job, chain_job):
        run = run_with_scheduler(
            diamond_job, small_cluster, StockSparkScheduler(track_metrics=False))
        with pytest.raises(ValueError, match="without DAG structure"):
            run_blame(run.result, chain_job)
        with pytest.raises(ValueError, match="non-empty"):
            run_blame(run.result, [])


class TestOverheadGuard:
    def test_blame_is_bounded_and_simulates_nothing(self):
        # "Enabling critical-path analysis" adds exactly two pieces of
        # work: the post-run demand accounting inside Simulation.run()
        # and the run_blame() walk.  Counted, not timed: neither drives
        # a fluid engine, the walk visits each stage record at most once
        # (one parent lookup and one phase-baseline solve per critical
        # stage), and the run's results are untouched.
        job, cluster = _als()
        prepared = FuxiScheduler(track_metrics=False).prepare(job, cluster)
        sim = Simulation(cluster, prepared.config)
        sim.add_job(job, prepared.policy)
        result = sim.run()
        before = result_fingerprint(result)

        events = FluidEngine.TOTAL_EVENTS
        with mock.patch.object(critical, "_critical_parent",
                               wraps=critical._critical_parent) as parent, \
                mock.patch.object(critical, "_phase_baselines",
                                  wraps=critical._phase_baselines) as phases:
            demands = sim._demand_accounting(result)
            blame = run_blame(result, job)
        assert FluidEngine.TOTAL_EVENTS == events

        chain = sum(len(jb.stages) for jb in blame.jobs.values())
        assert parent.call_count == chain <= len(result.stage_records)
        assert phases.call_count == chain
        assert demands == result.demands
        assert result_fingerprint(result) == before
        _assert_identity(blame)


class TestWhyCli:
    def test_why_json_diff_payload_validates(self, capsys):
        from repro.cli import main

        assert main(["why", "--workload", "ALS", "--oracle",
                     "--diff", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "why"
        assert validate_blame_payload(payload) == []
        assert set(payload["blames"]) == {"fuxi", "spark", "delaystage"}
        assert payload["diff"]["baseline"] == "fuxi"
        assert payload["diff"]["candidate"] == "delaystage"
        assert payload["diff"]["recovery_seconds"] > 0.0
        assert "manifest" in payload

    def test_why_markdown_and_human_output(self, capsys):
        from repro.cli import main

        assert main(["why", "--workload", "ALS", "--oracle", "--md"]) == 0
        md = capsys.readouterr().out
        assert "critical chain" in md.lower()
        assert "contention" in md
        assert main(["why", "--workload", "ALS", "--oracle",
                     "--job", "als"]) == 0
        human = capsys.readouterr().out
        assert "als" in human

    def test_why_unknown_job_exits_2(self, capsys):
        from repro.cli import main

        assert main(["why", "--workload", "ALS", "--oracle",
                     "--job", "nope"]) == 2
