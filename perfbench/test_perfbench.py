"""Tests of the benchmark itself: span arithmetic and a smoke run of every mode.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from spans import Tracer, list_schedule_makespan, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 351))
    value = tail_percentile(samples)
    assert value == 340
    assert sum(s > value for s in samples) == 10
    # with many samples the 97th percentile itself already has ten beyond
    assert tail_percentile(range(1000)) == 969


def test_makespan_hands_work_to_the_first_free_worker():
    assert list_schedule_makespan([3, 1, 1, 1], workers=2) == 3
    assert list_schedule_makespan([1, 1, 3], workers=2) == 4


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.run_id = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    self_time = tracer.self_times(7)
    (_, o0, o1, op, orun), (_, i0, i1, ip, _), (_, l0, l1, lp, _) = tracer.spans
    assert (op, ip, lp, orun) == (None, 0, 1, 7)
    assert self_time[0] == pytest.approx((o1 - o0) - (i1 - i0))
    assert self_time[1] == pytest.approx((i1 - i0) - (l1 - l0))
    assert self_time[2] == pytest.approx(l1 - l0)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, trace, tmp_path):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--smoke", "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    record = json.loads((tmp_path / workload / f"record_seed3_trace{trace}.json").read_text())
    assert record["environment"]["nproc"] >= 1
    if trace:
        spans = json.loads((tmp_path / workload / "spans_seed3.json").read_text())
        assert {"solver.solve", "solver.step", "cli.artifacts"} <= {s["name"] for s in spans}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "run_n8", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
