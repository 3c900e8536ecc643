"""Parallel fault-tolerant experiment runner (``repro.runner``).

The public surface every sweep uses:

* :class:`TaskSpec` — picklable description of one experiment, one
  attack-vs-engine cell, or a self-test task.
* :func:`expand_selectors` — CLI selector grammar -> task list.
* :class:`WorkerPool` — the one supervisor: a fresh worker process per
  job attempt, a silence watchdog, bounded retry and serial
  degradation.
* :func:`run_tasks` / :class:`RunnerConfig` — a sweep's tasks on it.
* :func:`derive_seed` — deterministic per-task seeding.
* :func:`resolve_jobs` — the one worker-count rule (explicit flag,
  then environment, then default) shared by every CLI entry point.
* :func:`run_sharded` / :class:`ShardPoolConfig` — one sharded
  scenario's shards on it (see :mod:`repro.runner.shardpool`).
* :func:`write_artifacts` — JSON artifacts under ``results/``.
* :class:`ProgressPrinter` and the event dataclasses in
  :mod:`repro.runner.progress`.
"""

from repro.runner.artifacts import canonical_json, sanitize, write_artifacts
from repro.runner.pool import (
    Job,
    JobResult,
    RunnerConfig,
    TaskResult,
    WorkerPool,
    resolve_jobs,
    run_tasks,
)
from repro.runner.progress import (
    PoolDegraded,
    ProgressPrinter,
    RunCompleted,
    RunnerEvent,
    RunStarted,
    ShardExchangeResolved,
    ShardRoundCompleted,
    TaskFinished,
    TaskRetrying,
    TaskStarted,
)
from repro.runner.seeds import derive_seed
from repro.runner.select import MATRIX_ENGINES, expand_selectors
from repro.runner.shardpool import ShardPoolConfig, run_sharded
from repro.runner.task import TaskSpec, execute_task

__all__ = [
    "MATRIX_ENGINES",
    "Job",
    "JobResult",
    "PoolDegraded",
    "ProgressPrinter",
    "RunCompleted",
    "RunnerConfig",
    "RunnerEvent",
    "RunStarted",
    "ShardExchangeResolved",
    "ShardPoolConfig",
    "ShardRoundCompleted",
    "TaskFinished",
    "TaskResult",
    "TaskRetrying",
    "TaskStarted",
    "TaskSpec",
    "WorkerPool",
    "canonical_json",
    "derive_seed",
    "execute_task",
    "expand_selectors",
    "resolve_jobs",
    "run_sharded",
    "run_tasks",
    "sanitize",
    "write_artifacts",
]
