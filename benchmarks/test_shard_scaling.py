"""Parallel-efficiency gate for sharded scenario execution.

The real paper-scale scenario: a ``2^20``-frame machine split into
four NUMA-style shards with a fleet streaming through it, run by the
in-process reference executor and by the worker pool on
``workers = min(shards, cpu_count)`` processes.  One contract
(``--shards N`` never changes a byte) and one gate:

* byte-identity between the serial and the pooled result, asserted
  unconditionally;
* parallel efficiency ``serial_s / (workers * pooled_s)`` of at least
  0.75, each side timed best of 3 with the runs alternating.  The gate
  applies whenever there is more than one worker; on a 1-CPU host the
  report records the timings with ``gate_applied`` false.

``REPRO_FULL=1`` quadruples the fleet.  Results land in
``BENCH_shard_scaling.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.harness.scenario import PRESETS
from repro.harness.shardfleet import run_sharded_serial
from repro.harness.spec import FleetSpec, ScenarioSpec, ScheduleSpec
from repro.params import MS, SECOND
from repro.runner import ShardPoolConfig, canonical_json, run_sharded

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_shard_scaling.json"
)

SHARDS = 4
REPEATS = 3
MIN_EFFICIENCY = 0.75


def _payload(result) -> str:
    return canonical_json({"samples": result.to_payload()["samples"],
                           "totals": result.totals})


def fleet_1m_spec() -> ScenarioSpec:
    vms = 256 if os.environ.get("REPRO_FULL") == "1" else 64
    return ScenarioSpec(
        name="shard-scaling-1m",
        system=PRESETS["ksm"],
        fleet=FleetSpec(vms=vms, image_families=4, pages_per_vm=2048,
                        max_resident=16, lifetime_ns=2 * SECOND,
                        arrival_interval_ns=100 * MS),
        schedule=ScheduleSpec(settle_ns=SECOND),
        frames=1 << 20,
        seed=1017,
        shards=SHARDS,
    )


def _timed(run) -> tuple[float, object]:
    started = time.perf_counter()
    result = run()
    return time.perf_counter() - started, result


def test_shard_scaling_1m_frames():
    spec = fleet_1m_spec()
    cpus = os.cpu_count() or 1
    workers = min(SHARDS, cpus)
    config = ShardPoolConfig(workers=workers)

    serial_times, pooled_times = [], []
    for _ in range(REPEATS):
        serial_s, serial = _timed(lambda: run_sharded_serial(spec))
        pooled_s, pooled = _timed(lambda: run_sharded(spec, config=config))
        assert _payload(pooled) == _payload(serial)
        serial_times.append(serial_s)
        pooled_times.append(pooled_s)
    exchange = serial.totals["exchange"]
    assert exchange["rounds"] >= 1

    serial_s, pooled_s = min(serial_times), min(pooled_times)
    efficiency = serial_s / (workers * pooled_s)
    gated = workers > 1
    RESULT_PATH.write_text(json.dumps({
        "frames": spec.frames,
        "shards": SHARDS,
        "vms": spec.fleet.vms,
        "booted_pages": serial.totals["booted_pages"],
        "exchanged_cids": exchange["exchanged_cids"],
        "merge_intents_applied": exchange["merge_intents_applied"],
        "host_cpus": cpus,
        "workers": workers,
        "repeats": REPEATS,
        "serial_s": round(serial_s, 3),
        "pooled_s": round(pooled_s, 3),
        "speedup": round(serial_s / pooled_s, 2),
        "efficiency": round(efficiency, 3),
        "min_efficiency": MIN_EFFICIENCY,
        "gate_applied": gated,
    }, indent=2, sort_keys=True) + "\n")
    print(f"\n1M-frame fleet: serial {serial_s:.2f}s, {workers} worker(s) "
          f"{pooled_s:.2f}s, efficiency {efficiency:.2f} "
          f"(best of {REPEATS}, {cpus} cpu(s))")
    if gated:
        assert efficiency >= MIN_EFFICIENCY, (
            f"sharded 1M-frame fleet at {efficiency:.2f} parallel "
            f"efficiency on {workers} workers ({pooled_s:.2f}s vs "
            f"{serial_s:.2f}s serial)"
        )
