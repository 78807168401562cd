"""Tests of the standing benchmark: ``python -m pytest bench -q``.

They run every workload once (``--quick``), one traced ``fleet-paper``
request, and ``compare.py`` on synthetic inputs, well within a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import benchtrace  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(tmp_path, *args):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--quick",
         "--json", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out, encoding="utf-8") as handle:
        return line, json.load(handle)


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def _workloads():
    from workloads import WORKLOADS

    return list(WORKLOADS)


def test_benchmark_json_matches_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    # the standing set is a subset: the others run on demand by name
    assert set(w["name"] for w in BENCHMARK["workloads"]) <= set(_workloads())
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    assert _units(BENCHMARK["end_to_end"]) == run.END_TO_END
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics, _table = benchtrace.layer_metrics({}, 0, (0, 1))
    metrics["trace.overhead"] = 0.0
    assert _units(BENCHMARK["per_layer"]) == {
        name: run.unit_of(name) for name in metrics
    }


def test_every_workload_runs_and_is_oracle_checked(tmp_path):
    line, record = _run(tmp_path, "--workload", *_workloads())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(record["workloads"]) == set(_workloads())
    # one process ran them all: its peak memory is the run's
    expected = _units(BENCHMARK["end_to_end"])
    assert record["run_metrics"]["peak_rss_mb"]["value"] > 0
    assert line["metrics"]["peak_rss_mb"] == record["run_metrics"]["peak_rss_mb"]
    del expected["peak_rss_mb"]
    for name, result in record["workloads"].items():
        assert result["correct"], name
        assert result["replay_mismatches"] == 0
        assert result["tests_replayed"] > 0
        units = {m: v["unit"] for m, v in result["metrics"].items()}
        assert units == expected, name
        assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_run_length_is_fixed_by_the_benchmark():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "tinyvm",
         "--seconds", str(BENCHMARK["run_seconds"] + 1)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "run_seconds" in proc.stderr


def test_one_workload_reports_its_peak_memory(tmp_path):
    line, record = _run(tmp_path, "--workload", "exec-churn")
    result = record["workloads"]["exec-churn"]
    units = {m: v["unit"] for m, v in line["metrics"].items()}
    assert units == _units(BENCHMARK["end_to_end"])
    assert result["metrics"]["peak_rss_mb"]["value"] > 0
    assert not record["run_metrics"]


def test_traced_fleet_request_records_worker_spans(tmp_path):
    line, record = _run(tmp_path, "--workload", "fleet-paper", "--trace")
    result = record["workloads"]["fleet-paper"]
    units = {m: v["unit"] for m, v in line["metrics"].items()}
    assert units == _units(BENCHMARK["per_layer"])
    with open(result["trace_file"], encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    parent = {e["pid"] for e in events if e["name"] == benchtrace.REQUEST}
    workers = {e["pid"] for e in events if e["name"] == "engine.run_job"}
    assert len(parent) == 1 and workers and not workers & parent


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tinyvm"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def _record(values):
    return {"workloads": {"w": {"metrics": {
        name: {"value": value, "unit": "s"} for name, value in values.items()
    }}}}


@pytest.mark.parametrize("base, new, expected, status", [
    # 5% slower within a 10% bound
    ([1.0, 1.01, 0.99, 1.0], [1.05, 1.04, 1.06, 1.05], "same", 0),
    # 20% slower: a regression
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "worse", 1),
    # spread wider than the bound
    ([1.0, 1.5, 0.7, 1.2], [1.1, 1.6, 0.8, 1.3], "unresolved", 0),
    # every new run faster, but too few pairs to claim a gain
    ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "same", 0),
    # ten pairs, all won, by more than the base quartile distance
    ([1.0, 1.01, 0.99, 1.0] * 3, [0.8, 0.81, 0.79, 0.8] * 3, "better", 0),
])
def test_compare_applies_bounds(capsys, base, new, expected, status):
    benchmark = {"end_to_end": [
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
    ]}
    base_runs = [_record({"latency_p50_s": v}) for v in base]
    new_runs = [_record({"latency_p50_s": v}) for v in new]
    assert compare.compare(base_runs, new_runs, benchmark) == status
    row = capsys.readouterr().out.strip().splitlines()[-1]
    assert row.split()[-1] == expected
