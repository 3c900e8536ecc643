"""Sharded fleet execution: topology, pool, determinism, degradation.

The scenario-level ``-j1 == -jN`` contract: a :class:`ScenarioSpec`
with ``shards = N`` describes a NUMA-style topology whose results are
a pure function of the spec — how many worker *processes* execute the
shards (``--shards`` on the CLI, :class:`ShardPoolConfig.workers`)
must never change a payload byte.  This suite pins that contract
across the serial reference executor, the worker pool running one job
per shard (the pool fault suite of ``tests/poolfaults.py`` on shard
jobs), sanitized runs and nested pools under the runner task layer;
plus the spec validation and ``resolve_jobs`` satellites.
"""

from __future__ import annotations

import functools
import os
import pathlib
import time

import pytest

from repro.harness import shardfleet
from repro.harness.fleet import FLEET_PRESETS, FleetDriver
from repro.harness.scenario import SystemConfig
from repro.harness.shardfleet import (
    combine_shard_results,
    run_one_shard,
    run_sharded_serial,
)
from repro.harness.spec import FleetSpec, ScenarioSpec
from repro.mem.shard import ShardExchangeError
from repro.runner import (
    PoolDegraded,
    ProgressPrinter,
    RunnerConfig,
    ShardExchangeResolved,
    ShardPoolConfig,
    ShardRoundCompleted,
    TaskRetrying,
    TaskSpec,
    canonical_json,
    execute_task,
    resolve_jobs,
    run_sharded,
    run_tasks,
)
from tests.poolfaults import (
    DegradationCases,
    ExecutionCases,
    ShardJobs,
    needs_fork,
    payload,
    real_run_one_shard,
    retry_reasons,
    run_pool,
    small_spec,
)


# ---------------------------------------------------------------------------
# Spec validation + worker-count resolution satellites
# ---------------------------------------------------------------------------
class TestSpecValidation:
    def test_shards_must_divide_frames(self):
        with pytest.raises(ValueError, match="divide evenly"):
            ScenarioSpec(name="x", system=SystemConfig.preset("ksm"),
                         fleet=FleetSpec(vms=2, pages_per_vm=16,
                                         max_resident=1),
                         frames=4096, shards=3)

    def test_per_shard_frames_floor(self):
        with pytest.raises(ValueError, match=">= 1024"):
            ScenarioSpec(name="x", system=SystemConfig.preset("ksm"),
                         fleet=FleetSpec(vms=2, pages_per_vm=16,
                                         max_resident=1),
                         frames=2048, shards=4)

    def test_shards_must_be_positive_int(self):
        with pytest.raises(ValueError, match="integer >= 1"):
            ScenarioSpec(name="x", system=SystemConfig.preset("ksm"),
                         shards=0)

    def test_residency_window_checked_per_shard(self):
        # Fits a 1-shard machine (peak 4032 <= 4096) but not each
        # 2048-frame node (per-shard peak 5 * 448 = 2240).
        fleet = FleetSpec(vms=10, pages_per_vm=448, max_resident=9)
        ScenarioSpec(name="x", system=SystemConfig.preset("ksm"),
                     fleet=fleet, frames=4096, shards=1)
        with pytest.raises(ValueError, match="exceed"):
            ScenarioSpec(name="x", system=SystemConfig.preset("ksm"),
                         fleet=fleet, frames=4096, shards=2)

    def test_shard_max_resident_splits_window(self):
        spec = small_spec(shards=2)
        assert spec.shard_max_resident == 1
        assert small_spec(shards=1).shard_max_resident == 2

    def test_round_trips_through_json(self):
        spec = small_spec(shards=2)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.to_dict()["shards"] == 2

    def test_shards_default_to_one(self):
        document = small_spec(shards=2).to_dict()
        del document["shards"]
        assert ScenarioSpec.from_dict(document).shards == 1

    def test_schema_declares_shards(self):
        assert ScenarioSpec.schema()["scenario"]["shards"] == "int"


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None, default=2) == 2

    def test_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_custom_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        monkeypatch.setenv("REPRO_JOBS", "9")
        assert resolve_jobs(None, env_var="REPRO_SHARDS") == 4

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_jobs(-2)


# ---------------------------------------------------------------------------
# Determinism: serial reference, pool, and the legacy path
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_one_shard_is_exactly_the_legacy_driver(self):
        spec = small_spec(shards=1)
        assert payload(run_sharded_serial(spec)) \
            == payload(FleetDriver(spec).run())
        # And the unified entry point takes the same short-circuit.
        assert payload(run_sharded(spec)) \
            == payload(FleetDriver(spec).run())

    def test_pool_is_byte_identical_to_serial(self):
        spec = small_spec(shards=2)
        reference = payload(run_sharded_serial(spec))
        for workers in (2, 4):
            pooled = run_sharded(
                spec, config=ShardPoolConfig(workers=workers))
            assert payload(pooled) == reference, f"workers={workers}"

    def test_sanitized_run_is_transparent(self, monkeypatch):
        spec = small_spec(shards=2, engine="vusion")
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = payload(run_sharded_serial(spec))
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        # combine_shard_results raises on any per-shard FrameSan
        # finding, so completing at all certifies clean node ledgers.
        assert payload(run_sharded_serial(spec)) == plain

    def test_task_payload_ignores_shard_workers(self):
        task = TaskSpec.fleet("smoke-sharded", system="ksm")
        serial = execute_task(task, seed=7, shard_workers=1)
        pooled = execute_task(task, seed=7, shard_workers=2)
        assert canonical_json(serial) == canonical_json(pooled)
        assert serial["totals"]["shards"] == 4

    def test_exchange_telemetry_in_totals(self):
        totals = run_sharded_serial(small_spec(shards=2)).totals
        exchange = totals["exchange"]
        assert exchange["rounds"] == len(
            run_sharded_serial(small_spec(shards=2)).samples)
        assert exchange["exchanged_cids"] >= 0
        assert exchange["resolve_ns"] \
            == totals["daemon_ns"].get("shardx", 0) - sum(
                run_one_shard(small_spec(shards=2), shard)
                .totals["daemon_ns"].get("shardx", 0)
                for shard in range(2))

    def test_incomplete_results_rejected(self):
        spec = small_spec(shards=2)
        only_one = [run_one_shard(spec, 0)]
        with pytest.raises(ShardExchangeError, match="incomplete"):
            combine_shard_results(spec, only_one)


# ---------------------------------------------------------------------------
# Progress events
# ---------------------------------------------------------------------------
class TestProgress:
    def test_pooled_run_streams_shard_events(self):
        spec = small_spec(shards=2)
        events = []
        result = run_sharded(spec, config=ShardPoolConfig(workers=2),
                             on_event=events.append)
        rounds = [e for e in events if isinstance(e, ShardRoundCompleted)]
        resolved = [e for e in events
                    if isinstance(e, ShardExchangeResolved)]
        assert {event.shard for event in rounds} == {0, 1}
        assert len(resolved) == result.totals["exchange"]["rounds"]
        assert [event.round_no for event in resolved] \
            == sorted(event.round_no for event in resolved)
        assert sum(e.intents_applied for e in resolved) \
            == result.totals["exchange"]["merge_intents_applied"]

    def test_printer_is_quiet_unless_verbose(self, capsys):
        event = ShardRoundCompleted(scenario="s", shard=1, round_no=2,
                                    exported_cids=3, booted=4, resident=1)
        ProgressPrinter()(event)
        assert capsys.readouterr().out == ""
        ProgressPrinter(verbose=True)(event)
        assert "shard 1 round 2" in capsys.readouterr().out

    def test_printer_always_reports_failures(self, capsys):
        ProgressPrinter()(TaskRetrying(
            task_id="s/shard1", attempt=0, reason="crashed", delay_s=0.25))
        assert "retry" in capsys.readouterr().out
        ProgressPrinter()(PoolDegraded(reason="why"))
        assert "degraded" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Pool failure handling: the shared fault suite on beaconing shard jobs
# ---------------------------------------------------------------------------
class TestPoolFailures(ExecutionCases):
    """The pool fault suite (tests/poolfaults.py) on shard jobs."""

    kind = ShardJobs

    def test_beacons_keep_a_worker_alive(self, jobs):
        # Shard 1 takes 7 rounds x 0.3 s, far past the 1 s watchdog,
        # but its round beacons arrive well within it.
        events = []
        results = run_pool(jobs.jobs("slow", 1), events, timeout_s=1.0)
        assert (results[1].status, results[1].attempts) == ("ok", 1)
        assert results[1].duration_s > 1.0
        assert retry_reasons(events, jobs.faulty_id) == []
        assert jobs.digest(results) == jobs.reference()

    def test_exhausted_retries_degrade_to_serial(self, jobs):
        # run_sharded reruns a shard that ran out of retries in-process.
        jobs.jobs("crash", 99)
        events = []
        result = run_sharded(
            jobs.spec, config=ShardPoolConfig(workers=2, max_retries=0),
            on_event=events.append)
        degraded = [e for e in events if isinstance(e, PoolDegraded)]
        assert len(degraded) == 1
        assert degraded[0].reason.startswith(f"{jobs.faulty_id} crashed")
        assert payload(result) == jobs.reference()


class TestDegradedModes(DegradationCases):
    """The pool degradation cases on shard jobs."""

    kind = ShardJobs


# ---------------------------------------------------------------------------
# Nested pools: a sharded fleet task under ``repro run --shards N``
# ---------------------------------------------------------------------------
def recording_shard(marker_dir: str, hang: bool, spec, shard, on_round=None):
    """``run_one_shard`` that leaves ``<pid>-<ppid>`` behind, then
    either runs the shard or hangs silently."""
    (pathlib.Path(marker_dir) / f"{os.getpid()}-{os.getppid()}").touch()
    if hang:
        time.sleep(60)
    return real_run_one_shard(spec, shard, on_round=on_round)


def shard_processes(marker_dir) -> list[tuple[int, int]]:
    return sorted({tuple(int(part) for part in path.name.split("-"))
                   for path in pathlib.Path(marker_dir).iterdir()})


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@needs_fork
class TestNestedShards:
    def test_task_worker_runs_its_shards_in_workers(self, tmp_path,
                                                    monkeypatch):
        task = TaskSpec.fleet("smoke-sharded", "ksm")
        serial = run_tasks([task], config=RunnerConfig(jobs=1))
        monkeypatch.setattr(shardfleet, "run_one_shard", functools.partial(
            recording_shard, str(tmp_path), False))
        pooled = run_tasks([task], config=RunnerConfig(
            jobs=1, shard_workers=2))
        assert pooled[0].ok, pooled[0].error
        assert canonical_json(pooled[0].payload) \
            == canonical_json(serial[0].payload)
        processes = shard_processes(tmp_path)
        # Four shards ran in at least two processes, all children of the
        # one task worker, which is itself not this process.
        assert len(processes) >= 2
        parents = {ppid for _, ppid in processes}
        assert len(parents) == 1 and os.getpid() not in parents
        assert not parents & {pid for pid, _ in processes}

    def test_watchdog_kill_leaves_no_grandchild(self, tmp_path, monkeypatch):
        monkeypatch.setattr(shardfleet, "run_one_shard", functools.partial(
            recording_shard, str(tmp_path), True))
        results = run_tasks(
            [TaskSpec.fleet("smoke-sharded", "ksm")],
            config=RunnerConfig(jobs=1, shard_workers=2, timeout_s=2.0,
                                max_retries=0))
        assert results[0].status == "timeout"
        grandchildren = [pid for pid, _ in shard_processes(tmp_path)]
        assert len(grandchildren) == 2
        deadline = time.monotonic() + 5.0
        while any(map(alive, grandchildren)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(alive, grandchildren))


# ---------------------------------------------------------------------------
# Preset wiring
# ---------------------------------------------------------------------------
class TestPresets:
    def test_smoke_sharded_preset_declares_topology(self):
        preset = FLEET_PRESETS["smoke-sharded"]
        assert preset.shards == 4
        spec = preset.spec(system="ksm", scale="quick", seed=1)
        assert spec.shards == 4
        assert spec.frames % 4 == 0

    def test_legacy_presets_stay_single_shard(self):
        for name, preset in FLEET_PRESETS.items():
            if name != "smoke-sharded":
                assert preset.shards == 1, name
