"""Trace schema records and the batch_task.csv parser."""

import io

import pytest

from repro.trace import TraceJob, TraceStage, parse_batch_task_csv, parse_task_name


def test_stage_duration_and_validation():
    s = TraceStage("S1", 10.0, 25.0)
    assert s.duration == 15.0
    with pytest.raises(ValueError):
        TraceStage("S1", 25.0, 10.0)


def test_job_aggregates():
    job = TraceJob(
        "j",
        [TraceStage("A", 0.0, 10.0), TraceStage("B", 10.0, 30.0)],
        [("A", "B")],
    )
    assert job.num_stages == 2
    assert job.start_time == 0.0
    assert job.end_time == 30.0
    assert job.duration == 30.0
    assert job.stage("A").duration == 10.0
    with pytest.raises(KeyError):
        job.stage("Z")


# ----------------------------- task names ----------------------------- #


def test_parse_dag_task_names():
    assert parse_task_name("M1") == (1, [])
    assert parse_task_name("R2_1") == (2, [1])
    assert parse_task_name("M3_1_2") == (3, [1, 2])
    assert parse_task_name("J10_4_7") == (10, [4, 7])


def test_parse_independent_task_names():
    assert parse_task_name("task_Nzg3ODcwNDc2MjE2") is None
    assert parse_task_name("MergeTask") is None


# ------------------------------- parser ------------------------------- #

CSV = """\
M1,10,j_1,A,Terminated,100,150,50,0.5
R2_1,5,j_1,A,Terminated,150,200,50,0.5
M3_1_2,5,j_1,A,Terminated,200,220,50,0.5
M1,4,j_2,A,Terminated,300,400,50,0.5
task_xyz,1,j_3,A,Terminated,10,20,50,0.5
"""


def test_parse_csv_jobs_and_edges():
    jobs = {j.job_id: j for j in parse_batch_task_csv(io.StringIO(CSV))}
    assert set(jobs) == {"j_1", "j_2", "j_3"}
    j1 = jobs["j_1"]
    assert j1.num_stages == 3
    assert ("M1", "R2_1") in j1.edges
    assert ("M1", "M3_1_2") in j1.edges
    assert ("R2_1", "M3_1_2") in j1.edges
    assert jobs["j_2"].edges == []
    assert jobs["j_3"].edges == []


def test_parser_skips_non_terminated():
    csv = "M1,1,j,A,Failed,1,2,0,0\nM2_1,1,j,A,Terminated,2,3,0,0\n"
    jobs = parse_batch_task_csv(io.StringIO(csv), statuses=frozenset({"Terminated"}))
    # M2 depends on M1 which was filtered -> broken DAG -> job dropped.
    assert jobs == []


def test_parser_keeps_all_statuses_when_none():
    csv = "M1,1,j,A,Failed,1,2,0,0\n"
    jobs = parse_batch_task_csv(io.StringIO(csv), statuses=None)
    assert len(jobs) == 1


def test_parser_skips_bad_timestamps():
    csv = "M1,1,j,A,Terminated,,-1,0,0\nM1,1,k,A,Terminated,5,9,0,0\n"
    jobs = parse_batch_task_csv(io.StringIO(csv))
    assert [j.job_id for j in jobs] == ["k"]


def test_parser_skips_unrepresentable_instance_counts():
    bad = "".join(f"M1,{n},j{i},A,Terminated,5,9,0,0\n"
                  for i, n in enumerate(("inf", "1e999", "-inf", "nan", "x")))
    csv = bad + "M1,3,k,A,Terminated,5,9,0,0\n"
    jobs = parse_batch_task_csv(io.StringIO(csv))
    assert [j.job_id for j in jobs] == ["k"]


def test_parser_drops_duplicate_task_numbers():
    csv = "M1,1,j,A,Terminated,1,2,0,0\nR1,1,j,A,Terminated,2,3,0,0\n"
    assert parse_batch_task_csv(io.StringIO(csv)) == []


def test_parser_max_jobs():
    csv = "".join(f"M1,1,j_{i},A,Terminated,1,2,0,0\n" for i in range(10))
    jobs = parse_batch_task_csv(io.StringIO(csv), max_jobs=3)
    assert len(jobs) <= 3


def test_parser_reads_file(tmp_path):
    f = tmp_path / "batch_task.csv"
    f.write_text(CSV)
    jobs = parse_batch_task_csv(f)
    assert len(jobs) == 3
