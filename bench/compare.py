"""``python -m bench --compare BASE.json NEW.json``: verdicts per metric.

Both files are results written by ``python -m bench`` (the five-round
mode).  For every workload and end-to-end metric the verdict is

* ``better`` when every new run beats every base run;
* otherwise ``unresolved`` when either side's spread (interquartile
  range over median) is wider than the metric's bound;
* otherwise ``worse`` or ``better`` when the new median differs from
  the base median by more than the bound;
* otherwise ``unchanged``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    sign = 1 if better == "lower" else -1
    base_median, new_median = statistics.median(base), statistics.median(new)
    if all(sign * n < sign * b for n in new for b in base):
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    change = sign * (new_median - base_median) / base_median
    if change > bound:
        return "worse"
    if -change > bound:
        return "better"
    return "unchanged"


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    base: list[float]
    new: list[float]
    verdict: str

    def render(self) -> str:
        b1, b3 = quartiles(self.base)
        n1, n3 = quartiles(self.new)
        base_median = statistics.median(self.base)
        new_median = statistics.median(self.new)
        return (f"{self.workload:<14} {self.metric:<16} {self.unit:<8} "
                f"{base_median:>11.4g} [{b1:.4g}, {b3:.4g}]  "
                f"{new_median:>11.4g} [{n1:.4g}, {n3:.4g}]  "
                f"{new_median / base_median:>6.3f}x  {self.verdict}")


def compare(base: dict, new: dict, benchmark: dict) -> list[Row]:
    """One row per workload in both results x end-to-end metric."""
    rows = []
    for workload, base_result in base["workloads"].items():
        new_result = new["workloads"].get(workload)
        if new_result is None:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base_values = base_result["values"][name]
            new_values = new_result["values"][name]
            rows.append(Row(workload, name, metric["unit"], base_values,
                            new_values, verdict(base_values, new_values,
                                                metric["better"],
                                                metric["bound"])))
    return rows


def render(rows: list[Row]) -> str:
    header = (f"{'workload':<14} {'metric':<16} {'unit':<8} "
              f"{'base median [q1, q3]':>28}  {'new median [q1, q3]':>28}  "
              f"{'ratio':>7}  verdict")
    return "\n".join([header] + [row.render() for row in rows])
