"""BENCHMARK.json's shape, and output that names each of its metrics."""

import json
import re
import shutil
import subprocess
import sys

from bench import ROOT, WORKLOADS
from bench.layers import EXTRA_METRICS, LayerTrace, import_profile, metric_names

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    names = [entry["name"] for entry in BENCHMARK["workloads"]
             + BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {}
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
        bounds[metric["name"]] = metric["bound"]
    assert max(bounds.values()) == bounds["setup_s"]
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert [metric["name"] for metric in BENCHMARK["per_layer"]] == metric_names()


def test_traced_metrics_are_exactly_the_per_layer_metrics():
    produced = set(LayerTrace().metrics(rounds=1)) | set(import_profile())
    produced.add("trace.overhead")
    assert produced == {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert set(EXTRA_METRICS) <= produced


def _run_fleet_ksm(trace: int) -> tuple[list[str], dict]:
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "fleet-ksm",
         "--seed", "1017", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return lines[:-1], result


def _assert_reports(result: dict, metrics: list[dict]) -> None:
    assert set(result["metrics"]) == {metric["name"] for metric in metrics}
    for metric in metrics:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_workload_run_prints_every_end_to_end_metric_with_its_unit():
    lines, result = _run_fleet_ksm(trace=0)
    assert result["attempted"] == 1
    _assert_reports(result, BENCHMARK["end_to_end"])
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
        assert any(metric["name"] in line and metric["unit"] in line
                   for line in lines)


def test_traced_run_reports_every_per_layer_metric_with_its_unit():
    lines, result = _run_fleet_ksm(trace=1)
    assert result["attempted"] == 2  # the untraced and the traced round
    _assert_reports(result, BENCHMARK["per_layer"])
    assert result["metrics"]["fusion.scan.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead"]["value"] > 1
    assert any(line.split()[:1] == ["fusion.tree"] for line in lines)


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "fleet-ksm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
