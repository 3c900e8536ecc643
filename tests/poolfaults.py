"""The one fault-injection suite for the one worker pool.

Every case runs on both kinds of pool job through
:class:`~repro.runner.pool.WorkerPool` itself:

* **one-shot task jobs** — two ``selftest`` tasks; the second crashes,
  hangs or raises on request (see ``repro.runner.task._run_selftest``);
* **beaconing shard jobs** — the two shards of a small scenario; shard
  1 misbehaves on request through a fork-inherited monkeypatch of
  ``repro.harness.shardfleet.run_one_shard`` (:func:`faulty_shard`).

``test_runner.TestPoolExecution`` / ``TestPoolDegradation`` run the
cases on task jobs, ``test_shard_fleet.TestPoolFailures`` /
``TestDegradedModes`` on shard jobs.  Payloads are compared with an
executor that never touches the pool: ``execute_task`` for tasks,
``run_sharded_serial`` for shards.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pathlib
import time

import pytest

from repro.harness import shardfleet
from repro.harness.scenario import SystemConfig
from repro.harness.spec import FleetSpec, ScenarioSpec, ScheduleSpec
from repro.params import MS, SECOND
from repro.runner import (
    PoolDegraded,
    RunnerConfig,
    TaskFinished,
    TaskRetrying,
    TaskSpec,
    TaskStarted,
    WorkerPool,
    canonical_json,
    execute_task,
)
from repro.runner.pool import Job, _task_job
from repro.runner.shardpool import _shard_job

#: Sleep before each round beacon of a "slow" shard.
SLOW_ROUND_S = 0.3

real_run_one_shard = shardfleet.run_one_shard


def small_spec(shards: int = 2, engine: str = "ksm",
               seed: int = 1017) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"shardfleet-{engine}-{shards}",
        system=SystemConfig(label=engine.upper(), engine=engine),
        fleet=FleetSpec(vms=4, image_families=2, pages_per_vm=64,
                        max_resident=2, lifetime_ns=SECOND,
                        arrival_interval_ns=125 * MS),
        schedule=ScheduleSpec(settle_ns=SECOND),
        frames=2048 * shards,
        seed=seed,
        shards=shards,
    )


def payload(result) -> str:
    return canonical_json({"samples": result.to_payload()["samples"],
                           "totals": result.totals})


def faulty_shard(fault: str, fail_attempts: int, marker_dir: str,
                 spec, shard, on_round=None):
    """``run_one_shard`` whose shard 1 misbehaves in its first
    ``fail_attempts`` pool attempts.  Attempts are counted in a marker
    file, since each one is a separate process; in-process runs (the
    serial reference, an in-process rerun) are never faulted."""
    if shard == 1 and multiprocessing.parent_process() is not None:
        log = pathlib.Path(marker_dir) / "shard1-attempts"
        with log.open("a") as handle:
            handle.write(".")
        if len(log.read_text()) <= fail_attempts:
            if fault == "crash":
                os._exit(23)  # simulated segfault: no reply, bad exit code
            if fault == "hang":
                time.sleep(60)  # silent: trips the watchdog
            if fault == "raise":
                raise RuntimeError("shard 1 injected failure")
            if fault == "slow":
                beacon = on_round

                def on_round(driver, table):
                    time.sleep(SLOW_ROUND_S)
                    beacon(driver, table)
    return real_run_one_shard(spec, shard, on_round=on_round)


class TaskJobs:
    """Two one-shot task jobs; the second misbehaves on request."""

    def __init__(self, monkeypatch, tmp_path) -> None:
        self.faulty_id = "selftest:second"

    @staticmethod
    def _specs(fault: str = "ok", fail_attempts: int = 0) -> list[TaskSpec]:
        return [TaskSpec.selftest("first", value=0, sleep_s=0.2),
                TaskSpec.selftest("second", value=1, mode=fault,
                                  fail_attempts=fail_attempts, hang_s=60)]

    def jobs(self, fault: str = "ok", fail_attempts: int = 0) -> list[Job]:
        return [Job(spec.task_id, _task_job, (spec, 7, 1))
                for spec in self._specs(fault, fail_attempts)]

    def digest(self, results) -> str:
        return canonical_json([result.payload for result in results])

    def reference(self) -> str:
        return canonical_json([execute_task(spec, 7)
                               for spec in self._specs()])


class ShardJobs:
    """The two beaconing shard jobs of a small scenario; shard 1
    misbehaves on request."""

    def __init__(self, monkeypatch, tmp_path) -> None:
        self.spec = small_spec()
        self.faulty_id = f"{self.spec.name}/shard1"
        self.monkeypatch = monkeypatch
        self.marker_dir = str(tmp_path)

    def jobs(self, fault: str = "ok", fail_attempts: int = 0) -> list[Job]:
        if fault != "ok":
            self.monkeypatch.setattr(
                shardfleet, "run_one_shard",
                functools.partial(faulty_shard, fault, fail_attempts,
                                  self.marker_dir))
        return [Job(f"{self.spec.name}/shard{shard}", _shard_job,
                    (self.spec, shard))
                for shard in range(self.spec.shards)]

    def digest(self, results) -> str:
        return payload(shardfleet.combine_shard_results(
            self.spec, [result.payload for result in results]))

    def reference(self) -> str:
        return payload(shardfleet.run_sharded_serial(self.spec))


def run_pool(jobs, events=None, **policy):
    """Both jobs on two workers; fast retries unless overridden."""
    config = RunnerConfig(**{"retry_backoff_s": 0.02, **policy})
    return WorkerPool(jobs, workers=2, policy=config,
                      on_event=None if events is None else events.append,
                      ).run()


def retry_reasons(events, job_id: str) -> list[str]:
    return [event.reason for event in events
            if isinstance(event, TaskRetrying) and event.task_id == job_id]


def break_spawn(monkeypatch) -> None:
    """Every worker start fails, as when the host is out of pids."""
    def broken(self, ctx, index, attempt):
        raise OSError("fork: resource temporarily unavailable")

    monkeypatch.setattr(WorkerPool, "_spawn", broken)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="failure injection rides on fork-inherited test state",
)


@needs_fork
class ExecutionCases:
    """Crash, hang, raise and an exhausted budget in a pool worker."""

    kind: type = TaskJobs

    @pytest.fixture
    def jobs(self, monkeypatch, tmp_path):
        return self.kind(monkeypatch, tmp_path)

    def test_results_in_submission_order(self, jobs):
        events = []
        results = run_pool(jobs.jobs(), events)
        assert [r.job_id for r in results] == [j.job_id for j in jobs.jobs()]
        assert all(r.ok and r.mode == "pool" for r in results)
        assert jobs.digest(results) == jobs.reference()

    def test_worker_crash_retried_to_success(self, jobs):
        events = []
        results = run_pool(jobs.jobs("crash", 1), events)
        assert (results[1].status, results[1].attempts) == ("ok", 2)
        assert retry_reasons(events, jobs.faulty_id) == ["crashed"]
        assert jobs.digest(results) == jobs.reference()

    def test_worker_crash_exhausts_retries(self, jobs):
        events = []
        results = run_pool(jobs.jobs("crash", 99), events, max_retries=1)
        assert (results[1].status, results[1].attempts) == ("crashed", 2)
        assert results[1].payload is None
        assert "exit code 23" in results[1].error
        assert retry_reasons(events, jobs.faulty_id) == ["crashed"]
        assert results[0].ok

    def test_hung_worker_times_out_and_retries(self, jobs):
        events = []
        results = run_pool(jobs.jobs("hang", 1), events, timeout_s=1.0)
        assert (results[1].status, results[1].attempts) == ("ok", 2)
        assert retry_reasons(events, jobs.faulty_id) == ["timeout"]
        assert jobs.digest(results) == jobs.reference()

    def test_worker_exception_reported(self, jobs):
        events = []
        results = run_pool(jobs.jobs("raise", 99), events, max_retries=1)
        assert (results[1].status, results[1].attempts) == ("error", 2)
        assert "RuntimeError" in results[1].error
        assert "injected failure" in results[1].error
        assert retry_reasons(events, jobs.faulty_id) == ["error"]

    def test_event_stream_shape(self, jobs):
        events = []
        run_pool(jobs.jobs(), events)
        started = [e.task_id for e in events if isinstance(e, TaskStarted)]
        finished = [e for e in events if isinstance(e, TaskFinished)]
        assert started == [j.job_id for j in jobs.jobs()]
        assert sorted(e.task_id for e in finished) == sorted(started)
        assert all(e.status == "ok" and e.attempts == 1 for e in finished)


class DegradationCases:
    """In-process execution when the pool cannot, or must not, run."""

    kind: type = TaskJobs

    @pytest.fixture
    def jobs(self, monkeypatch, tmp_path):
        return self.kind(monkeypatch, tmp_path)

    def test_falls_back_to_serial_when_pool_breaks(self, jobs, monkeypatch):
        break_spawn(monkeypatch)
        events = []
        results = run_pool(jobs.jobs(), events)
        assert [r.mode for r in results] == ["serial", "serial"]
        assert any(isinstance(e, PoolDegraded) for e in events)
        assert jobs.digest(results) == jobs.reference()

    def test_degraded_results_match_pool_results(self, jobs, monkeypatch):
        healthy = jobs.digest(run_pool(jobs.jobs()))
        break_spawn(monkeypatch)
        assert jobs.digest(run_pool(jobs.jobs())) == healthy

    def test_unbuildable_pool_degrades(self, jobs):
        events = []
        results = run_pool(jobs.jobs(), events, start_method="bogus")
        degraded = [e for e in events if isinstance(e, PoolDegraded)]
        assert len(degraded) == 1
        assert "no multiprocessing context" in degraded[0].reason
        assert [r.mode for r in results] == ["serial", "serial"]
        assert jobs.digest(results) == jobs.reference()

    def test_force_serial_skips_the_pool(self, jobs):
        events = []
        results = run_pool(jobs.jobs(), events, force_serial=True)
        assert not any(isinstance(e, PoolDegraded) for e in events)
        assert [r.mode for r in results] == ["serial", "serial"]
        assert jobs.digest(results) == jobs.reference()
