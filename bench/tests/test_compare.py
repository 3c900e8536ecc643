"""``--compare`` verdicts on fabricated results."""

import json
import subprocess
import sys

from bench import ROOT
from bench.compare import compare, verdict

BASE = [10.0, 10.1, 10.2, 9.9, 10.0]


def test_every_new_run_beating_every_base_run_is_better():
    assert verdict(BASE, [9.0, 9.1, 8.9, 9.0, 9.05], "lower", 0.1) == "better"
    assert verdict(BASE, [11.0, 11.1, 10.9], "higher", 0.1) == "better"


def test_a_median_worse_by_more_than_the_bound_is_worse():
    assert verdict(BASE, [11.5, 11.6, 11.4, 11.5, 11.55], "lower", 0.1) == "worse"
    assert verdict(BASE, [8.5, 8.6, 8.4, 8.5], "higher", 0.1) == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [8.0, 12.0, 9.0, 13.0, 10.0]
    assert verdict(BASE, noisy, "lower", 0.1) == "unresolved"
    assert verdict(noisy, BASE, "lower", 0.1) == "unresolved"


def test_a_small_change_within_the_bound_is_unchanged():
    assert verdict(BASE, [10.1, 10.0, 10.2, 9.95, 10.05], "lower", 0.1) == "unchanged"
    assert verdict(BASE, [10.5, 10.4, 10.6, 10.5, 10.45], "lower", 0.1) == "unchanged"


def test_a_median_gain_beyond_the_bound_is_better():
    overlapping = [8.5, 8.6, 8.4, 8.55, 8.45, 10.1]
    assert verdict(BASE, overlapping, "lower", 0.1) == "better"
    assert verdict(BASE, [9.5, 9.6, 9.4, 9.95, 10.3], "lower", 0.1) == "unchanged"


def _result(scale: float) -> dict:
    values = {"setup_s": [1.0, 1.01, 0.99], "wall_s": [scale * 2.0] * 3,
              "sim_pages_per_s": [50000.0 / scale] * 3,
              "peak_rss_mb": [116.0, 116.1, 115.9]}
    return {"workloads": {"fleet-ksm": {"values": values, "attempted": 3,
                                        "failed": 0}}}


def test_compare_gives_one_row_per_workload_and_metric(tmp_path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(_result(1.0), _result(1.5), benchmark)
    verdicts = {row.metric: row.verdict for row in rows}
    assert verdicts == {"setup_s": "unchanged", "wall_s": "worse",
                        "sim_pages_per_s": "worse", "peak_rss_mb": "unchanged"}

    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_result(1.0)))
    new.write_text(json.dumps(_result(0.5)))
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--compare", str(base), str(new)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    lines = completed.stdout.splitlines()
    assert len(lines) == 1 + len(benchmark["end_to_end"])
    assert any("wall_s" in line and line.endswith("better") for line in lines)
