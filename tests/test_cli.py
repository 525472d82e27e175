"""CLI subcommands (python -m repro ...)."""

import json

import pytest

from repro.cli import build_parser, main


def _json_out(capsys):
    """Parse stdout as JSON — the --json contract says nothing else
    may be printed there (diagnostics go to stderr)."""
    return json.loads(capsys.readouterr().out)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_compare_als(capsys):
    assert main(["compare", "--workload", "ALS", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "spark" in out and "delaystage" in out and "vs spark" in out


def test_schedule_writes_properties(tmp_path, capsys):
    out_file = tmp_path / "metrics.properties"
    code = main([
        "schedule", "--workload", "ALS", "--max-slots", "8",
        "--output", str(out_file),
    ])
    assert code == 0
    assert out_file.exists()
    text = out_file.read_text()
    assert "spark.delaystage.als." in text
    out = capsys.readouterr().out
    assert "predicted makespan" in out


def test_schedule_order_variants(capsys):
    assert main(["schedule", "--workload", "ALS", "--order", "ascending",
                 "--max-slots", "6"]) == 0
    assert "delay (s)" in capsys.readouterr().out


def test_timeline(capsys):
    assert main(["timeline", "--workload", "ALS", "--strategy", "spark"]) == 0
    out = capsys.readouterr().out
    assert "JCT" in out and "S1" in out


def test_trace_stats(capsys):
    assert main(["trace-stats", "--jobs", "80", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "parallel share of stages" in out
    assert "Fig. 2" in out


def test_replay_small(capsys):
    assert main(["replay", "--jobs", "4", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "fuxi" in out and "delaystage" in out and "vs Fuxi" in out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["compare", "--workload", "WordCount"])


def test_bounds(capsys):
    assert main(["bounds", "--workload", "ALS", "--max-slots", "6"]) == 0
    out = capsys.readouterr().out
    assert "makespan bounds" in out and "critical path" in out and "gap" in out


# --------------------------------------------------------------------- #
# --json: machine-readable payloads with manifests
# --------------------------------------------------------------------- #

def test_compare_json(capsys):
    assert main(["compare", "--workload", "ALS", "--oracle", "--json"]) == 0
    payload = _json_out(capsys)
    assert payload["command"] == "compare"
    assert set(payload["runs"]) == {"spark", "aggshuffle", "delaystage"}
    assert payload["runs"]["spark"]["speedup_vs_spark"] == 0.0
    assert payload["runs"]["delaystage"]["counters"]["stages_completed"] == 6
    manifest = payload["manifest"]
    assert manifest["seed"] == 0 and manifest["config_hash"]
    assert "als" in manifest["workloads"]


def test_schedule_json(capsys):
    assert main(["schedule", "--workload", "ALS", "--max-slots", "8",
                 "--json"]) == 0
    payload = _json_out(capsys)
    assert payload["job_id"] == "als"
    assert payload["delays"]
    assert payload["manifest"]["config_hash"]
    assert payload["predicted_makespan_seconds"] <= payload[
        "baseline_makespan_seconds"] + 1e-6


def test_timeline_json(capsys):
    assert main(["timeline", "--workload", "ALS", "--strategy", "spark",
                 "--json"]) == 0
    payload = _json_out(capsys)
    assert len(payload["stages"]) == 6
    assert all(s["submit"] <= s["read_done"] <= s["finish"]
               for s in payload["stages"])
    assert payload["manifest"]["seed"] == 0


def test_bounds_json(capsys):
    assert main(["bounds", "--workload", "ALS", "--max-slots", "6",
                 "--json"]) == 0
    payload = _json_out(capsys)
    assert payload["bounds"]["binding"] in payload["bounds"]
    assert payload["optimality_gap"] >= 0.0


def test_trace_stats_json(capsys):
    assert main(["trace-stats", "--jobs", "60", "--seed", "1", "--json"]) == 0
    payload = _json_out(capsys)
    assert payload["jobs"] == 60
    assert 0.0 < payload["parallel_stage_fraction"] < 1.0
    assert payload["manifest"]["seed"] == 1


def test_replay_json(capsys):
    assert main(["replay", "--jobs", "3", "--seed", "2", "--json"]) == 0
    payload = _json_out(capsys)
    assert set(payload["runs"]) == {"fuxi", "delaystage"}
    assert payload["manifest"]["seed"] == 2
    assert len(payload["manifest"]["workloads"]) == 3


def test_schedule_output_diagnostic_on_stderr(tmp_path, capsys):
    out_file = tmp_path / "metrics.properties"
    assert main(["schedule", "--workload", "ALS", "--max-slots", "8",
                 "--json", "--output", str(out_file)]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout is pure JSON
    assert "delay table written" in captured.err
    assert out_file.exists()


# --------------------------------------------------------------------- #
# --emit-trace / --manifest / inspect
# --------------------------------------------------------------------- #

def test_compare_emit_trace_and_inspect(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["compare", "--workload", "ALS", "--oracle",
                 "--emit-trace", str(trace)]) == 0
    captured = capsys.readouterr()
    assert "trace written" in captured.err
    assert trace.exists()

    assert main(["inspect", str(trace), "--validate"]) == 0
    out = capsys.readouterr().out
    assert "span tree" in out
    assert "decision audit" in out
    assert " spine" in out and ("fresh" in out or "chained" in out)
    assert "shuffle-read" in out and "delay-wait" in out
    assert "delay table for als" in out


def test_inspect_reconstructs_schedule_table(tmp_path, capsys):
    """Acceptance: the delay table recovered from a trace equals the
    table ``repro schedule`` computes for the same workload."""
    trace = tmp_path / "sched.json"
    assert main(["schedule", "--workload", "ALS", "--json",
                 "--emit-trace", str(trace)]) == 0
    scheduled = _json_out(capsys)

    assert main(["inspect", str(trace), "--json", "--validate"]) == 0
    inspected = _json_out(capsys)
    assert inspected["valid"]
    assert inspected["delay_tables"]["als"] == pytest.approx(
        scheduled["delays"])
    assert inspected["manifest"]["config_hash"] == scheduled[
        "manifest"]["config_hash"]
    assert inspected["decision_audits"]
    # The first scan of a plan builds its spine from t=0.
    spines = [a["spine"] for a in inspected["decision_audits"]]
    assert spines[0] == "fresh"
    assert set(spines) <= {"fresh", "chained"}


def test_compare_manifest_flag(capsys):
    assert main(["compare", "--workload", "ALS", "--oracle",
                 "--manifest"]) == 0
    out = capsys.readouterr().out
    assert "repro " in out and "seed 0" in out and "config " in out


def test_inspect_missing_file(capsys):
    assert main(["inspect", "/nonexistent/trace.json"]) == 1
    assert "cannot read trace" in capsys.readouterr().err


def test_inspect_validate_rejects_bad_trace(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [], "otherData": {}}))
    assert main(["inspect", str(bad), "--validate"]) == 1
    assert "schema:" in capsys.readouterr().err
    # Without --validate the same trace is summarized best-effort.
    assert main(["inspect", str(bad)]) == 0


# --------------------------------------------------------------------- #
# report / --progress / inspect --counters
# --------------------------------------------------------------------- #

def test_report_text(capsys):
    assert main(["report", "--workload", "ALS", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "# Interleaving report" in out
    assert "stage overlap ratio" in out
    assert "CPU/net complementarity" in out
    assert "utilization bands" in out
    assert "Delay-wait per execution path" in out


def test_report_json(capsys):
    """Acceptance: the machine payload carries every headline metric."""
    assert main(["report", "--workload", "ALS", "--oracle", "--json"]) == 0
    payload = _json_out(capsys)
    assert payload["command"] == "report"
    assert set(payload["reports"]) == {"fuxi", "spark", "delaystage"}
    ds = payload["reports"]["delaystage"]
    for key in ("stage_overlap_ratio", "cpu_net_complementarity",
                "delay_wait_seconds", "delay_wait_share", "cpu_bands",
                "net_bands", "cluster_cpu_pct", "cluster_net_pct",
                "path_delay_shares", "utilization"):
        assert key in ds, key
    assert ds["delay_wait_seconds"] > 0.0
    assert payload["reports"]["spark"]["delay_wait_seconds"] == 0.0
    assert ds["cpu_bands"]["labels"][0] == "0-10"
    assert payload["manifest"]["seed"] == 0


def test_report_writes_exports(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    prom_path = tmp_path / "report.prom"
    assert main(["report", "--workload", "ALS", "--oracle",
                 "--csv", str(csv_path), "--prometheus", str(prom_path)]) == 0
    captured = capsys.readouterr()
    assert "CSV report written" in captured.err
    assert "OpenMetrics report written" in captured.err
    assert csv_path.read_text().startswith("run,jct_seconds")
    prom = prom_path.read_text()
    assert prom.endswith("# EOF\n")
    assert "repro_stage_overlap_ratio" in prom


def test_compare_progress_heartbeat(capsys):
    assert main(["compare", "--workload", "ALS", "--oracle",
                 "--progress"]) == 0
    captured = capsys.readouterr()
    assert "[progress] compare ALS:" in captured.err
    assert "3/3 jobs" in captured.err
    assert "done in" in captured.err


def test_replay_no_progress_means_silent_stderr(capsys):
    assert main(["replay", "--jobs", "3", "--seed", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_replay_progress_parallel_bit_identical(capsys):
    """--progress on the sharded path changes stderr, never the JCTs."""
    assert main(["replay", "--jobs", "4", "--seed", "2", "--json"]) == 0
    quiet = _json_out(capsys)
    assert main(["replay", "--jobs", "4", "--seed", "2", "--parallel", "2",
                 "--progress", "--json"]) == 0
    captured = capsys.readouterr()
    noisy = json.loads(captured.out)
    assert "[progress] replay:" in captured.err
    assert noisy["runs"] == quiet["runs"]


def test_inspect_counters_text(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["compare", "--workload", "ALS", "--oracle",
                 "--emit-trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(trace), "--counters"]) == 0
    out = capsys.readouterr().out
    assert "counter tracks" in out
    assert "node:" in out and "cpu_busy" in out


def test_inspect_counters_json(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["compare", "--workload", "ALS", "--oracle",
                 "--emit-trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(trace), "--counters", "--json"]) == 0
    payload = _json_out(capsys)
    rows = payload["counter_summary"]
    assert rows and {"track", "counter", "min", "mean", "max",
                     "last"} <= set(rows[0])
    assert {r["counter"] for r in rows} >= {"cpu_busy", "net_in"}
