"""Live telemetry plane: registry, bus, hub, HTTP surface, and guards.

Covers the PR's acceptance contract end to end:

* the metrics registry renders valid OpenMetrics and its parser /
  validator catch structural violations;
* the bus delivers a gapless, ordered event stream (``tap``);
* the hub folds publisher events into counters/gauges/histograms and
  per-run snapshots;
* a live HTTP scrape taken *mid-replay* parses as valid OpenMetrics,
  and the post-run scrape is value-identical to the
  ``repro report --prometheus`` exporter for the shared families;
* fault-injection counters on ``/metrics`` match ``FaultStats``;
* results are bit-identical with the server on, and the full plane
  (publisher + hub + server) stays under the 5% overhead guard;
* the flow analyzer still catches F101-class findings seeded inside
  ``obs/live``, while sanctioned thread spawns raise nothing.
"""

from __future__ import annotations

import http.client
import io
import json
import shutil
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import DelayStageParams
from repro.faults import (
    FaultPlan,
    LostShufflePartition,
    NicBrownout,
    NodeCrash,
    Straggler,
)
from repro.obs.live import (
    LiveHub,
    LiveServer,
    MetricsRegistry,
    StructuredLogger,
    TelemetryBus,
    TelemetryPublisher,
    bus_logger,
)
from repro.obs.live.bus import fault_hook
from repro.obs.live.registry import (
    parse_openmetrics_text,
    validate_openmetrics_text,
)
from repro.obs.live.tail import normalize_url, render_event, tail
from repro.obs.metrics import interleaving_report, reports_to_openmetrics
from repro.schedulers import (
    DelayStageScheduler,
    FuxiScheduler,
    replay_batch,
    run_with_scheduler,
)
from repro.simulator.simulation import (
    ImmediatePolicy,
    Simulation,
    SimulationConfig,
)
from repro.trace import TraceGeneratorConfig, generate_trace, to_job

from .testutil import make_job


def _get(url: str, timeout: float = 10.0) -> "tuple[int, str, str]":
    """(status, content-type, body) for a GET against the live server."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return (response.status, response.headers.get("Content-Type", ""),
                    response.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type", ""), err.read().decode("utf-8")


class _FakeEngine:
    def __init__(self, events_processed, now):
        self.events_processed = events_processed
        self.now = now


# --------------------------------------------------------------------- #
# registry primitives + OpenMetrics round trip


class TestRegistry:
    def test_counter_monotone_and_ratchet(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_live_demo", "demo")
        c.inc(2.0, run="a")
        c.inc(run="a")
        assert c.value(run="a") == 3.0
        c.inc_to(10.0, run="a")
        c.inc_to(4.0, run="a")  # ratchet never goes backwards
        assert c.value(run="a") == 10.0
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_registration_idempotent_and_kind_checked(self):
        reg = MetricsRegistry()
        c1 = reg.counter("repro_live_demo", "demo")
        assert reg.counter("repro_live_demo", "ignored") is c1
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_live_demo", "demo")

    def test_reserved_suffixes_rejected(self):
        reg = MetricsRegistry()
        for bad in ("x_total", "x_bucket", "x_sum", "x_count"):
            with pytest.raises(ValueError, match="reserved"):
                reg.counter(bad, "demo")

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_live_h", "demo", buckets=(1.0, 5.0))
        for v in (0.5, 3.0, 100.0):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == pytest.approx(103.5)
        text = reg.render_openmetrics()
        samples, _, errors = parse_openmetrics_text(text)
        assert not errors
        assert samples[("repro_live_h_bucket", (("le", "1.0"),))] == 1.0
        assert samples[("repro_live_h_bucket", (("le", "5.0"),))] == 2.0
        assert samples[("repro_live_h_bucket", (("le", "+Inf"),))] == 3.0
        assert validate_openmetrics_text(text) == []

    def test_series_is_bounded_and_not_exposed(self):
        reg = MetricsRegistry()
        s = reg.series("repro_live_ts", "demo", maxlen=3)
        for i in range(10):
            s.append(float(i), float(i * 2))
        assert s.points() == [(7.0, 14.0), (8.0, 16.0), (9.0, 18.0)]
        assert s.last() == (9.0, 18.0)
        assert "repro_live_ts" not in reg.render_openmetrics()
        assert reg.snapshot()["repro_live_ts"]["kind"] == "timeseries"

    def test_exposition_round_trips_values(self):
        reg = MetricsRegistry()
        reg.counter("repro_live_a", "a").inc(7.0, run="r", kind='with "quote"')
        reg.gauge("repro_live_b", "b").set(2.5)
        text = reg.render_openmetrics()
        samples, types, errors = parse_openmetrics_text(text)
        assert not errors
        assert types == {"repro_live_a": "counter", "repro_live_b": "gauge"}
        key = ("repro_live_a_total",
               (("kind", 'with "quote"'), ("run", "r")))
        assert samples[key] == 7.0
        assert samples[("repro_live_b", ())] == 2.5

    def test_validator_catches_structural_violations(self):
        assert validate_openmetrics_text("x 1\n") != []  # no EOF, no TYPE
        bad_counter = ("# TYPE c counter\nc 1\n# EOF\n")
        assert any("_total" in e for e in validate_openmetrics_text(bad_counter))
        bad_hist = (
            "# TYPE h histogram\n"
            'h_bucket{le="1.0"} 5\nh_bucket{le="+Inf"} 3\nh_count 3\n# EOF\n'
        )
        assert any("cumulative" in e for e in validate_openmetrics_text(bad_hist))


# --------------------------------------------------------------------- #
# bus + publisher


class TestBus:
    def test_publish_orders_and_bounds_history(self):
        bus = TelemetryBus(history=4)
        for i in range(10):
            bus.publish("tick", i=i)
        events = bus.events_since()
        assert [e["seq"] for e in events] == [7, 8, 9, 10]
        assert bus.last_seq == 10

    def test_tap_is_gapless(self):
        bus = TelemetryBus()
        seen: "list[int]" = []
        bus.publish("tick", i=0)
        backlog = bus.tap(lambda e: seen.append(e["seq"]))
        bus.publish("tick", i=1)
        bus.publish("tick", i=2)
        seqs = [e["seq"] for e in backlog] + seen
        assert seqs == [1, 2, 3]  # no gap, no duplicate

    def test_unsubscribe_stops_delivery(self):
        bus = TelemetryBus()
        seen: "list[dict]" = []
        cb = seen.append
        bus.subscribe(cb)
        bus.publish("tick")
        bus.unsubscribe(cb)
        bus.publish("tick")
        assert len(seen) == 1


class TestPublisher:
    def test_engine_fold_matches_progress_semantics(self):
        pub = TelemetryPublisher(run_id="r")
        first, second = _FakeEngine(100, 1.0), _FakeEngine(40, 2.0)
        pub.engine_tick(first)
        pub.engine_tick(first)
        assert pub.events_total == 100
        pub.engine_tick(second)
        assert pub.events_total == 140
        ticks = [e for e in pub.bus.events_since() if e["type"] == "tick"]
        assert ticks[-1]["events_total"] == 140
        assert ticks[-1]["t_sim"] == 2.0

    def test_close_publishes_run_finished_once(self):
        pub = TelemetryPublisher(run_id="r")
        pub.job_done(jct=12.5)
        pub.close()
        pub.close()
        finished = [e for e in pub.bus.events_since()
                    if e["type"] == "run_finished"]
        assert len(finished) == 1
        assert finished[0]["jobs_done"] == 1

    def test_fault_hook_adapter(self):
        assert fault_hook(None) is None
        pub = TelemetryPublisher(run_id="r")
        hook = fault_hook(pub)
        hook("crash", {"node": "w1"})
        (event,) = [e for e in pub.bus.events_since() if e["type"] == "fault"]
        assert event["kind"] == "crash" and event["node"] == "w1"

    def test_schedule_computed_extracts_delay_summary(self):
        class _Schedule:
            delays = {"A": 0.0, "B": 3.5, "C": 1.5}
            predicted_makespan = 40.0
            baseline_makespan = 52.0

        pub = TelemetryPublisher(run_id="r")
        pub.schedule_computed("delaystage", {"schedule": _Schedule()})
        (event,) = [e for e in pub.bus.events_since()
                    if e["type"] == "schedule"]
        assert event["stages_delayed"] == 2
        assert event["total_delay_s"] == 5.0
        assert event["predicted_makespan"] == 40.0


# --------------------------------------------------------------------- #
# hub aggregation


class TestHub:
    def _plane(self):
        pub = TelemetryPublisher(run_id="replay", total_jobs=2)
        return pub, LiveHub(bus=pub.bus)

    def test_events_fold_into_metrics_and_snapshot(self):
        pub, hub = self._plane()
        pub.run_started(scheduler="fuxi", manifest="abc123")
        pub.engine_tick(_FakeEngine(50_000, 120.0))
        pub.job_done(jct=45.0)
        pub.job_done(jct=700.0)
        pub.close()
        hub.finish_run("replay", {"improvement": 0.38})

        reg = hub.registry
        assert reg.counter("repro_live_jobs_completed", "").value(run="replay") == 2.0
        assert reg.counter("repro_live_engine_events", "").value(run="replay") == 50_000.0
        assert reg.gauge("repro_live_sim_clock_seconds", "").value(run="replay") == 120.0
        jct = reg.histogram("repro_live_job_jct_seconds", "")
        assert jct.count(run="replay") == 2
        assert jct.sum(run="replay") == pytest.approx(745.0)

        snap = hub.run_snapshot("replay")
        assert snap["status"] == "finished"
        assert snap["jobs_done"] == 2
        assert snap["manifest"] == "abc123"
        assert snap["result"] == {"improvement": 0.38}
        assert len(snap["throughput"]) == 2
        assert hub.run_snapshot("nope") is None
        assert hub.run_ids() == ["replay"]

    def test_render_metrics_is_valid_and_merges_reports(self, tiny_cluster):
        pub, hub = self._plane()
        pub.job_done(jct=10.0)
        assert validate_openmetrics_text(hub.render_metrics()) == []

        job = make_job("j", [("A", "B")])
        run = run_with_scheduler(job, tiny_cluster,
                                 FuxiScheduler(track_metrics=True))
        reports = {"fuxi": interleaving_report(run.result, job, label="fuxi")}
        hub.set_reports(reports)
        merged = hub.render_metrics()
        assert validate_openmetrics_text(merged) == []
        assert merged.count("# EOF") == 1
        samples, _, _ = parse_openmetrics_text(merged)
        expected, _, _ = parse_openmetrics_text(reports_to_openmetrics(reports))
        for key, value in expected.items():
            assert samples[key] == value  # report families pass through intact


# --------------------------------------------------------------------- #
# HTTP surface


@pytest.fixture()
def live_plane():
    pub = TelemetryPublisher(run_id="replay", total_jobs=3)
    hub = LiveHub(bus=pub.bus)
    with LiveServer(hub, port=0) as server:
        yield pub, hub, server


class TestServer:
    def test_metrics_endpoint(self, live_plane):
        pub, _, server = live_plane
        pub.job_done(jct=30.0)
        status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype.startswith("application/openmetrics-text")
        assert validate_openmetrics_text(body) == []
        samples, _, _ = parse_openmetrics_text(body)
        assert samples[("repro_live_jobs_completed_total",
                        (("run", "replay"),))] == 1.0

    def test_healthz(self, live_plane):
        pub, _, server = live_plane
        pub.run_started()
        status, _, body = _get(server.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["running"] == 1
        assert isinstance(payload["time"], float)

    def test_runs_index_and_snapshot(self, live_plane):
        pub, _, server = live_plane
        pub.run_started()
        pub.job_done(jct=5.0)
        status, _, body = _get(server.url + "/runs")
        assert status == 200 and json.loads(body)["runs"] == ["replay"]
        status, _, body = _get(server.url + "/runs/replay")
        snap = json.loads(body)
        assert status == 200 and snap["jobs_done"] == 1
        status, _, body = _get(server.url + "/runs/ghost")
        assert status == 404
        assert "unknown run" in json.loads(body)["error"]

    def test_unknown_route_is_404(self, live_plane):
        _, _, server = live_plane
        status, _, _ = _get(server.url + "/nope")
        assert status == 404

    def test_events_replay_without_follow(self, live_plane):
        pub, _, server = live_plane
        for _ in range(5):
            pub.job_done()
        status, ctype, body = _get(server.url + "/events?follow=0&replay=3")
        assert status == 200
        assert ctype.startswith("application/x-ndjson")
        events = [json.loads(line) for line in body.splitlines()]
        assert len(events) == 3
        assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)

    def test_events_follow_honours_max(self, live_plane):
        pub, _, server = live_plane
        pub.job_done()
        pub.job_done()
        status, _, body = _get(server.url + "/events?max=2")
        events = [json.loads(line) for line in body.splitlines()]
        assert status == 200 and len(events) == 2

    @staticmethod
    def _raw_submit(send):
        """Issue a raw ``POST /service/submit`` (``send(conn)``) against a
        real daemon; return the response, the core, the daemon, and a
        follow-up ``/healthz`` status."""
        from repro.cluster.spec import uniform_cluster
        from repro.service import ServiceCore
        from repro.service.clock import VirtualClock
        from repro.service.daemon import ServiceDaemon

        core = ServiceCore(uniform_cluster(2),
                           FuxiScheduler(track_metrics=False))
        daemon = ServiceDaemon(core, VirtualClock())
        with LiveServer(LiveHub(), port=0, control=daemon) as server:
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=10)
            try:
                send(conn)
                response = conn.getresponse()
                status = response.status
                ctype = response.headers.get("Content-Type", "")
                body = json.loads(response.read().decode("utf-8"))
            finally:
                conn.close()
            health, _, _ = _get(server.url + "/healthz")
        return status, ctype, body, core, daemon, health

    @pytest.mark.parametrize("content_length", ["-1", "abc", None])
    def test_submit_rejects_bad_content_length(self, content_length):
        """A negative, non-numeric, or missing Content-Length is a 400
        JSON error and never reaches the service."""
        def send(conn):
            conn.putrequest("POST", "/service/submit")
            if content_length is not None:
                conn.putheader("Content-Length", content_length)
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()

        status, ctype, body, core, daemon, _ = self._raw_submit(send)
        assert status == 400
        assert ctype.startswith("application/json")
        assert "error" in body
        assert core.counters["submitted"] == 0
        assert daemon.jobs_list() == []

    def test_submit_rejects_overflowing_num_tasks(self):
        """``"num_tasks": 1e999`` parses to inf, and ``int(inf)``
        raises OverflowError: still a 400 JSON error, nothing submitted,
        and the handler keeps serving."""
        from repro.service.wire import job_to_wire
        from repro.workloads.synthetic import random_job

        wire = job_to_wire(random_job(2, job_id="big", rng=0))
        wire["stages"][0]["num_tasks"] = "NUM_TASKS"
        payload = json.dumps(wire).replace('"NUM_TASKS"', "1e999").encode()

        def send(conn):
            conn.request("POST", "/service/submit", body=payload,
                         headers={"Content-Type": "application/json"})

        status, ctype, body, core, daemon, health = self._raw_submit(send)
        assert status == 400
        assert ctype.startswith("application/json")
        assert "stages[0] is malformed" in body["error"]
        assert core.counters["submitted"] == 0
        assert daemon.jobs_list() == []
        assert health == 200


# --------------------------------------------------------------------- #
# tail client + structured logging


class TestTailAndLogging:
    def test_normalize_url(self):
        assert (normalize_url("127.0.0.1:9464")
                == "http://127.0.0.1:9464/events")
        assert (normalize_url("http://h:1/events?follow=0", max_events=3)
                == "http://h:1/events?follow=0&max=3")
        with pytest.raises(ValueError, match="scheme"):
            normalize_url("ftp://h:1/")

    def test_render_event_formats(self):
        line = render_event({"seq": 7, "type": "tick", "run": "replay",
                             "events_total": 40_000, "t_sim": 99.5,
                             "elapsed_s": 1.25})
        assert line.startswith("#    7 tick")
        assert "run=replay" in line and "t_sim=99.5s" in line
        fault = render_event({"seq": 8, "type": "fault", "kind": "crash",
                              "node": "w2"})
        assert "kind=crash" in fault and "node=w2" in fault

    def test_tail_against_live_server(self, live_plane):
        pub, _, server = live_plane
        pub.run_started()
        pub.job_done(jct=10.0)
        out = io.StringIO()
        count = tail(f"{server.host}:{server.port}", stream=out, max_events=2)
        assert count == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 2 and "run_started" in lines[0]
        raw = io.StringIO()
        tail(server.url + "/events?follow=0", stream=raw, max_events=1,
             raw=True)
        assert json.loads(raw.getvalue())["type"] == "run_started"

    def test_structured_logger_records(self):
        out = io.StringIO()
        log = StructuredLogger(out, run="replay", manifest="abc")
        log.info("tick", events=100)
        log.bind(shard=3).warning("slow", msg_detail="x")
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert records[0]["run"] == "replay"
        assert records[0]["manifest"] == "abc"
        assert records[0]["event"] == "tick" and records[0]["events"] == 100
        assert records[1]["shard"] == 3 and records[1]["level"] == "warning"
        assert all("ts" in r for r in records)
        with pytest.raises(ValueError, match="unknown level"):
            log.log("loud", "boom")

    def test_bus_logger_spans_match_event_seqs(self):
        out = io.StringIO()
        pub = TelemetryPublisher(run_id="replay")
        pub.bus.subscribe(bus_logger(StructuredLogger(out, run="replay")))
        pub.job_done(jct=4.0)
        pub.close()
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["span"] for r in records] == [1, 2]
        assert records[0]["event"] == "job" and records[0]["jct"] == 4.0
        # bound fields are not duplicated from the event payload
        assert records[0]["run"] == "replay"


# --------------------------------------------------------------------- #
# fault-injection counters match FaultStats


class TestFaultTelemetry:
    def test_live_counters_match_fault_stats(self, small_cluster):
        plan = FaultPlan(events=(
            NodeCrash(time=1.0, node="w2"),
            NicBrownout(start=0.5, end=6.0, node="w0", factor=0.25),
            Straggler(time=0.5, node="w1", factor=4.0, until=50.0),
            LostShufflePartition(time=8.0, job="j", stage="A", part="w0"),
        ))
        pub = TelemetryPublisher(run_id="faulty")
        hub = LiveHub(bus=pub.bus)
        cfg = SimulationConfig(track_metrics=False, fault_plan=plan)
        sim = Simulation(small_cluster, cfg, fault_hook=fault_hook(pub))
        sim.add_job(make_job("j", [("A", "B"), ("A", "C"), ("B", "D"),
                                   ("C", "D")]),
                    ImmediatePolicy())
        stats = sim.run().faults
        assert stats is not None and stats.injected == 4

        faults = hub.registry.counter("repro_live_faults", "")
        by_kind = {
            "injected": stats.injected,
            "crash": stats.crashes,
            "brownout": stats.brownouts,
            "straggler": stats.stragglers,
            "partition_lost": stats.partitions_lost,
            "retry": stats.retries,
            "replan": stats.replans,
        }
        for kind, expected in by_kind.items():
            assert faults.value(run="faulty", kind=kind) == float(expected), kind
        assert stats.crashes == 1 and stats.retries > 0
        snap_faults = {}
        hub_run = hub.run_snapshot("faulty")
        assert hub_run is not None
        snap_faults = hub_run["faults"]
        assert snap_faults["crash"] == stats.crashes
        assert snap_faults["retry"] == stats.retries

    def test_no_fault_hook_publishes_nothing(self, small_cluster):
        plan = FaultPlan(events=(NodeCrash(time=1.0, node="w2"),))
        cfg = SimulationConfig(track_metrics=False, fault_plan=plan)
        sim = Simulation(small_cluster, cfg)  # fault_hook defaults to None
        sim.add_job(make_job("j", [("A", "B")]), ImmediatePolicy())
        assert sim.run().faults.crashes == 1  # injection unaffected


# --------------------------------------------------------------------- #
# end-to-end: mid-replay scrape, final identity, bit-identity, overhead


def _replay_jobs(n: int = 4):
    trace = generate_trace(
        TraceGeneratorConfig(num_jobs=8, replay_workers=2, max_stages=16),
        rng=3,
    )
    return [to_job(tj) for tj in trace[:n]]


class TestEndToEnd:
    def test_midrun_scrape_is_valid_and_final_matches_reports(
            self, tiny_cluster):
        jobs = _replay_jobs(4)
        pub = TelemetryPublisher(run_id="replay", total_jobs=len(jobs))
        hub = LiveHub(bus=pub.bus)
        mid_scrapes: "list[str]" = []

        def _scrape_midrun(event: dict) -> None:
            # Triggered from inside the replay loop: the request is
            # served by the HTTP thread while jobs are still running,
            # which makes this a genuine mid-run scrape.
            if event["type"] == "job" and not mid_scrapes:
                mid_scrapes.append(_get(server.url + "/metrics")[2])

        with LiveServer(hub, port=0) as server:
            pub.bus.subscribe(_scrape_midrun)
            scheduler = DelayStageScheduler(
                profiled=False, track_metrics=False,
                params=DelayStageParams(max_slots=8))
            replay_batch(jobs, tiny_cluster, scheduler, processes=1,
                         progress=pub)
            pub.close()

            job = make_job("j", [("A", "B")])
            run = run_with_scheduler(job, tiny_cluster,
                                     FuxiScheduler(track_metrics=True))
            reports = {"fuxi": interleaving_report(run.result, job,
                                                   label="fuxi")}
            hub.set_reports(reports)
            final = _get(server.url + "/metrics")[2]

        assert len(mid_scrapes) == 1
        assert validate_openmetrics_text(mid_scrapes[0]) == []
        mid_samples, _, _ = parse_openmetrics_text(mid_scrapes[0])
        done_key = ("repro_live_jobs_completed_total", (("run", "replay"),))
        assert 1.0 <= mid_samples[done_key] < len(jobs)

        # Final scrape: every family the report exporter emits appears
        # with exactly the exporter's values (same objects, same code).
        assert validate_openmetrics_text(final) == []
        final_samples, _, _ = parse_openmetrics_text(final)
        expected, _, _ = parse_openmetrics_text(reports_to_openmetrics(reports))
        assert expected  # non-trivial comparison
        for key, value in expected.items():
            assert final_samples[key] == value
        assert final_samples[done_key] == float(len(jobs))

    def test_results_bit_identical_with_serving_on(self, tiny_cluster):
        jobs = _replay_jobs(4)
        scheduler = DelayStageScheduler(profiled=False, track_metrics=False,
                                        params=DelayStageParams(max_slots=8))
        baseline = replay_batch(jobs, tiny_cluster, scheduler, processes=1)

        pub = TelemetryPublisher(run_id="replay", total_jobs=len(jobs))
        hub = LiveHub(bus=pub.bus)
        with LiveServer(hub, port=0) as server:
            stop = threading.Event()

            def _scrape_loop() -> None:
                while not stop.is_set():
                    _get(server.url + "/metrics")
                    _get(server.url + "/runs/replay")
                    stop.wait(0.005)

            scraper = threading.Thread(target=_scrape_loop, daemon=True)
            scraper.start()
            try:
                served = replay_batch(jobs, tiny_cluster, scheduler,
                                      processes=1, progress=pub)
            finally:
                stop.set()
                scraper.join(timeout=5.0)
            pub.close()
        assert served == baseline  # bit-identical, not approx

    def test_full_plane_overhead_under_five_percent(self, tiny_cluster):
        trace = generate_trace(
            TraceGeneratorConfig(num_jobs=8, replay_workers=2, max_stages=20),
            rng=0,
        )
        jobs = [to_job(tj) for tj in trace[:4]]
        schedulers = [
            FuxiScheduler(track_metrics=False),
            DelayStageScheduler(profiled=False, track_metrics=False,
                                params=DelayStageParams(max_slots=8)),
        ]

        def _once(progress) -> None:
            for job in jobs:
                for scheduler in schedulers:
                    run_with_scheduler(job, tiny_cluster, scheduler,
                                       progress=progress)

        def _best(make_plane) -> float:
            best = float("inf")
            for _ in range(5):
                progress, teardown = make_plane()
                t0 = time.perf_counter()
                _once(progress)
                best = min(best, time.perf_counter() - t0)
                teardown()
            return best

        _once(None)  # warm-up

        t_off = _best(lambda: (None, lambda: None))

        def _serving_plane():
            pub = TelemetryPublisher(run_id="bench",
                                     total_jobs=len(jobs) * 2)
            hub = LiveHub(bus=pub.bus)
            server = LiveServer(hub, port=0).start()
            return pub, server.close

        t_on = _best(_serving_plane)
        assert t_on <= t_off * 1.05 + 0.025, (
            f"live plane overhead too high: on={t_on:.4f}s off={t_off:.4f}s "
            f"({t_on / t_off - 1:.1%})"
        )


# --------------------------------------------------------------------- #
# flow analyzer: thread spawns are understood, F101 still fires inside


class TestFlowLiveRegression:
    @pytest.fixture()
    def repro_copy(self, tmp_path):
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        copy = tmp_path / "repro"
        shutil.copytree(src, copy)
        return copy

    def _analyze(self, root):
        from repro.verify.flow import FlowConfig, analyze_project

        import pathlib

        baseline = (pathlib.Path(__file__).resolve().parents[1]
                    / "tools" / "flow_baseline.json")
        return analyze_project(root, config=FlowConfig(baseline_path=baseline))

    def test_live_module_is_clean_with_sanctioned_suppressions(self):
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        r = self._analyze(src)
        assert r.ok, "\n".join(str(f) for f in r.report)
        live = [s for s in r.suppressed if "obs/live" in s.path]
        assert {(s.rule, s.how) for s in live} == {
            ("F001", "pragma"),     # structured-log timestamps
            ("F001", "baseline"),   # /healthz wall-clock stamp
        }

    def test_injected_global_mutation_in_live_worker_caught(self, repro_copy):
        target = repro_copy / "obs" / "live" / "server.py"
        source = target.read_text(encoding="utf-8")
        injected = source + (
            "\n\n_SCRAPE_LOG = []\n\n\n"
            "def _bad_worker():\n"
            "    _SCRAPE_LOG.append(1)\n\n\n"
            "def _spawn_bad_worker():\n"
            "    threading.Thread(target=_bad_worker).start()\n"
        )
        target.write_text(injected, encoding="utf-8")
        r = self._analyze(repro_copy)
        f101 = [f for f in r.report if f.rule == "F101"]
        assert len(f101) == 1
        assert f101[0].details["path"] == "repro/obs/live/server.py"
        assert f101[0].details["function"] == "_bad_worker"

    def test_thread_lambda_target_raises_no_f103(self, repro_copy):
        target = repro_copy / "obs" / "live" / "server.py"
        source = target.read_text(encoding="utf-8")
        target.write_text(source + (
            "\n\ndef _spawn_noop():\n"
            "    threading.Thread(target=lambda: None).start()\n"
        ), encoding="utf-8")
        r = self._analyze(repro_copy)
        assert r.ok, "\n".join(str(f) for f in r.report)
        assert not [f for f in r.report if f.rule == "F103"]


# --------------------------------------------------------------------- #
# CLI integration: --serve / --log-json / tail


class TestCli:
    def test_replay_serves_and_logs(self, capsys):
        from repro.cli import main

        assert main(["replay", "--jobs", "1", "--serve", "127.0.0.1:0",
                     "--log-json", "--json"]) == 0
        captured = capsys.readouterr()
        assert "live telemetry: http://127.0.0.1:" in captured.err
        payload = json.loads(captured.out)
        manifest_hash = payload["manifest"]["config_hash"]
        records = [json.loads(line) for line in captured.err.splitlines()
                   if line.startswith("{")]
        assert records, "expected --log-json records on stderr"
        assert {r["manifest"] for r in records} == {manifest_hash}
        types = {r["event"] for r in records}
        assert {"run_started", "schedule", "job", "run_finished"} <= types
        assert all(isinstance(r["span"], int) for r in records)

    def test_parse_serve_accepts_host_port(self):
        from repro.cli import _parse_serve

        assert _parse_serve("9464") == ("127.0.0.1", 9464)
        assert _parse_serve("0.0.0.0:80") == ("0.0.0.0", 80)
        with pytest.raises(SystemExit):
            _parse_serve("not-a-port")

    def test_tail_command(self, live_plane, capsys):
        from repro.cli import main

        pub, _, server = live_plane
        pub.run_started()
        pub.job_done(jct=3.0)
        assert main(["tail", server.url + "/events?follow=0", "--max", "2"]) == 0
        captured = capsys.readouterr()
        assert "run_started" in captured.out
        assert "tail: 2 event(s)" in captured.err

    def test_tail_rejects_bad_url(self, capsys):
        from repro.cli import main

        assert main(["tail", "ftp://nope"]) == 2

    def test_tail_connection_error(self, capsys):
        from repro.cli import main

        # Port 1 on loopback is essentially never listening.
        assert main(["tail", "http://127.0.0.1:1/events",
                     "--timeout", "0.2"]) == 1

    def test_tail_reconnect_flag_survives_drop(self, capsys):
        from repro.cli import main

        events = [{"seq": i, "type": "tick", "run": "r",
                   "events_total": i, "t_sim": float(i)}
                  for i in range(1, 4)]
        with _FlakyEventServer(events, per_conn=1) as flaky:
            assert main(["tail", flaky.url, "--max", "3",
                         "--reconnect", "3"]) == 0
        captured = capsys.readouterr()
        assert "tail: 3 event(s)" in captured.err
        assert "reconnect" in captured.err


# --------------------------------------------------------------------- #
# satellite: histogram boundaries and configurable buckets


class TestHistogramBoundaries:
    def test_value_on_bucket_boundary_counts_le(self):
        # OpenMetrics buckets are `value <= le`: a JCT of exactly 60s
        # belongs in the le="60.0" bucket, not the next one up.
        reg = MetricsRegistry()
        h = reg.histogram("repro_live_edge", "demo", buckets=(30.0, 60.0))
        h.observe(60.0)
        samples, _, errors = parse_openmetrics_text(reg.render_openmetrics())
        assert not errors
        assert samples[("repro_live_edge_bucket", (("le", "30.0"),))] == 0.0
        assert samples[("repro_live_edge_bucket", (("le", "60.0"),))] == 1.0
        assert samples[("repro_live_edge_bucket", (("le", "+Inf"),))] == 1.0

    def test_plus_inf_catches_overflow_only_there(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_live_inf", "demo", buckets=(1.0,))
        h.observe(10.0)
        h.observe(float("inf"))
        samples, _, errors = parse_openmetrics_text(reg.render_openmetrics())
        assert not errors
        assert samples[("repro_live_inf_bucket", (("le", "1.0"),))] == 0.0
        assert samples[("repro_live_inf_bucket", (("le", "+Inf"),))] == 2.0
        assert samples[("repro_live_inf_count", ())] == 2.0

    def test_bucket_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("repro_live_bad1", "demo", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("repro_live_bad2", "demo", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("repro_live_bad3", "demo",
                          buckets=(1.0, float("inf")))

    def test_hub_jct_buckets_configurable(self):
        pub = TelemetryPublisher(run_id="r")
        hub = LiveHub(bus=pub.bus, jct_buckets=(1.0, 2.0, 4.0))
        pub.job_done(jct=2.0)
        pub.job_done(jct=3.0)
        text = hub.render_metrics()
        samples, _, errors = parse_openmetrics_text(text)
        assert not errors
        key = "repro_live_job_jct_seconds_bucket"
        assert samples[(key, (("run", "r"), ("le", "1.0")))] == 0.0
        assert samples[(key, (("run", "r"), ("le", "2.0")))] == 1.0
        assert samples[(key, (("run", "r"), ("le", "4.0")))] == 2.0
        assert samples[(key, (("run", "r"), ("le", "+Inf")))] == 2.0

    def test_hub_default_buckets_unchanged(self):
        from repro.obs.live.registry import DEFAULT_JCT_BUCKETS

        pub = TelemetryPublisher(run_id="r")
        hub = LiveHub(bus=pub.bus)
        pub.job_done(jct=10.0)
        text = hub.registry.render_openmetrics()
        for bound in DEFAULT_JCT_BUCKETS:
            assert f'le="{float(bound)}"' in text


# --------------------------------------------------------------------- #
# satellite: OpenMetrics label-value escaping


class TestLabelEscaping:
    AWKWARD = [
        'back\\slash',
        'quo"te',
        'new\nline',
        'all\\three\n"at once"',
        '\\',
        '\n',
    ]

    def test_escape_round_trips_through_parser(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_live_esc", "demo")
        for i, value in enumerate(self.AWKWARD):
            g.set(float(i), label=value)
        text = reg.render_openmetrics()
        samples, _, errors = parse_openmetrics_text(text)
        assert not errors
        for i, value in enumerate(self.AWKWARD):
            assert samples[("repro_live_esc", (("label", value),))] == float(i)

    def test_rendered_exposition_is_one_line_per_sample(self):
        # A raw newline inside a label value would split the sample
        # across lines and corrupt the exposition; escaped it must not.
        reg = MetricsRegistry()
        reg.gauge("repro_live_esc2", "demo").set(1.0, label="a\nb")
        text = reg.render_openmetrics()
        sample_lines = [ln for ln in text.splitlines()
                        if ln.startswith("repro_live_esc2")]
        assert len(sample_lines) == 1
        assert '\\n' in sample_lines[0]
        assert validate_openmetrics_text(text) == []

    def test_escaped_backslash_not_double_unescaped(self):
        # "\\n" (escaped backslash + n) must parse back to a literal
        # backslash followed by 'n', not a newline.
        reg = MetricsRegistry()
        reg.gauge("repro_live_esc3", "demo").set(1.0, label="\\n")
        samples, _, errors = parse_openmetrics_text(reg.render_openmetrics())
        assert not errors
        assert ("repro_live_esc3", (("label", "\\n"),)) in samples


# --------------------------------------------------------------------- #
# satellite: tail reconnect against a connection-dropping server


class _FlakyEventServer:
    """Serves /events but closes the connection after ``per_conn``
    events, recording each connection's ``since=`` cursor.

    HTTP/1.0 with no Content-Length means an abrupt close reads as end
    of stream on the client — exactly what a dying live plane or a
    mid-stream proxy drop looks like to ``repro tail``.
    """

    def __init__(self, events, per_conn=2):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        from urllib.parse import parse_qs, urlsplit

        self.events = list(events)
        self.per_conn = per_conn
        self.sinces: "list[int]" = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.0"

            def log_message(self, *args):  # noqa: A003
                pass

            def do_GET(self):  # noqa: N802
                params = parse_qs(urlsplit(self.path).query)
                since = int(params.get("since", ["0"])[0])
                outer.sinces.append(since)
                self.send_response(200)
                self.send_header(
                    "Content-Type", "application/x-ndjson; charset=utf-8")
                self.end_headers()
                pending = [e for e in outer.events if e["seq"] > since]
                for event in pending[: outer.per_conn]:
                    self.wfile.write(
                        (json.dumps(event) + "\n").encode("utf-8"))
                    self.wfile.flush()
                # Fall through without more data: connection closes
                # mid-stream from the client's point of view.

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}/events"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()


class TestTailReconnect:
    def _events(self, n):
        return [{"seq": i, "type": "tick", "run": "r",
                 "events_total": i, "t_sim": float(i)}
                for i in range(1, n + 1)]

    def test_resumes_with_since_and_no_duplicates(self):
        from repro.obs.live.tail import iter_events

        sleeps: "list[float]" = []
        with _FlakyEventServer(self._events(5), per_conn=2) as flaky:
            got = list(iter_events(flaky.url, max_events=5, reconnect=3,
                                   sleep=sleeps.append))
        assert [e["seq"] for e in got] == [1, 2, 3, 4, 5]
        # Each reconnect advanced the cursor: the server never replayed
        # an event this client had already seen.
        assert flaky.sinces == [0, 2, 4]
        # Successful events reset the failure count, so every retry
        # waited the initial backoff.
        assert sleeps == [0.5, 0.5]

    def test_no_reconnect_stops_at_first_drop(self):
        from repro.obs.live.tail import iter_events

        with _FlakyEventServer(self._events(5), per_conn=2) as flaky:
            got = list(iter_events(flaky.url, max_events=5, reconnect=0))
        assert [e["seq"] for e in got] == [1, 2]
        assert flaky.sinces == [0]

    def test_budget_exhausted_raises_after_capped_backoff(self):
        from repro.obs.live.tail import (
            INITIAL_BACKOFF_S,
            MAX_BACKOFF_S,
            iter_events,
        )

        sleeps: "list[float]" = []
        attempts: "list[tuple[int, float]]" = []
        # Port 1 on loopback is essentially never listening: every
        # attempt fails, so backoff doubles until the cap.
        with pytest.raises(OSError):
            list(iter_events("http://127.0.0.1:1/events", timeout=0.2,
                             reconnect=5, sleep=sleeps.append,
                             on_reconnect=lambda a, d: attempts.append((a, d))))
        assert sleeps == [0.5, 1.0, 2.0, 4.0, 5.0]
        assert sleeps[0] == INITIAL_BACKOFF_S
        assert max(sleeps) == MAX_BACKOFF_S
        assert [a for a, _ in attempts] == [1, 2, 3, 4, 5]

    def test_tail_helper_reports_reconnects(self, capsys):
        from repro.obs.live.tail import tail as tail_fn

        out = io.StringIO()
        with _FlakyEventServer(self._events(3), per_conn=1) as flaky:
            count = tail_fn(flaky.url, stream=out, max_events=3,
                            reconnect=5, sleep=lambda _s: None)
        assert count == 3
        assert len(out.getvalue().splitlines()) == 3
        err = capsys.readouterr().err
        assert "stream dropped; reconnect" in err

    def test_server_since_param_skips_old_events(self, live_plane):
        pub, _, server = live_plane
        pub.run_started()
        pub.job_done(jct=1.0)
        pub.job_done(jct=2.0)
        status, _, body = _get(server.url + "/events?follow=0&since=1")
        assert status == 200
        seqs = [json.loads(line)["seq"] for line in body.splitlines()]
        assert seqs == [2, 3]
