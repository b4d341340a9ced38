"""Smoke tests for the benchmark harness, on a tiny grid.

    python3 -m pytest -q bench

They live outside tests/ so they add nothing to the Tier-1 run.
"""

import json
import sys

import pytest

import output_checks as checks
import run
from trace_layers import Tracer

sys.path.insert(0, str(run.SRC))

TINY = run.Workload("fig7.json", (0, 40), 1)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A two-replicate workload with its reference stored under tmp_path."""
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    ref = tmp_path / "tiny.json"
    ref.write_text(json.dumps(run.reference_record(TINY)))
    monkeypatch.setattr(run, "reference_path", lambda name: ref)
    return ref


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_grid_runs_to_completion(tiny, capsys, trace):
    code = run.main(["--workload", "tiny", "--seed", "5", "--seconds", "0.1", "--trace", str(trace)])
    result = result_line(capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.END_TO_END if trace == 0 else json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = set(expected) if trace == 0 else {m["name"] for m in expected}
    assert set(result["metrics"]) == names
    assert all(m["value"] >= 0 for m in result["metrics"].values())


def test_self_times_fit_in_traced_wall_time_and_counts_repeat(tiny, tmp_path):
    counts = []
    for _ in range(2):
        tracer, tally = Tracer(), run.Tally()
        metrics = run.measure_layers("tiny", 5, 0.1, tally, tmp_path, tracer)
        assert tally.failed == 0
        assert all(ns >= 0 for ns in tracer.self_ns.values())
        assert 0 < sum(tracer.self_ns.values()) <= tracer.wall_ns
        counts.append({m: metrics[m] for m in run.LAYER_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["worstcase.minimize_dual_calls"] == 27  # dro1 solves every path of 3x3


@pytest.mark.parametrize("corrupt", ["rho", "path"])
def test_corrupted_reference_fails_the_check(tiny, capsys, corrupt):
    record = json.loads(tiny.read_text())
    row = record["rows"][0]
    if corrupt == "rho":
        row[4] *= 1.0 + 100 * checks.RTOL
    else:
        row[3][1] = row[3][1] + 1 if row[3][1] < 3 else 1
    tiny.write_text(json.dumps(record))
    code = run.main(["--workload", "tiny", "--seed", "5", "--seconds", "0.1", "--trace", "1"])
    result = result_line(capsys)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_worker_count_above_nproc_is_refused(tiny, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKERS", 1 + len(run.os.sched_getaffinity(0)))
    assert run.main(["--workload", "tiny", "--seed", "5", "--seconds", "0.1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_missing_sources_exit_without_a_result(tiny, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "nowhere")
    assert run.main(["--workload", "tiny", "--seed", "5", "--seconds", "0.1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
