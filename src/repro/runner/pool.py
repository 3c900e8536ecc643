"""One fault-tolerant worker pool for every parallel sweep.

The evaluation is a list of independent jobs: the tasks of a sweep
(:func:`run_tasks`) or the shards of one sharded scenario
(:func:`repro.runner.shardpool.run_sharded`).  :class:`WorkerPool` runs
them, giving every attempt a fresh forked process, with at most
``workers`` attempts in flight.  The parent supervises:

* **Watchdog** — ``timeout_s`` is the longest a worker may go without
  sending a message.  A one-shot task sends only its reply, so for it
  this is a per-attempt deadline; a shard's per-round beacons keep it
  alive.  A silent worker is killed and the attempt counts as
  ``timeout``.
* **Bounded retry with backoff** — crashed (bad exit code, no reply),
  timed-out and erroring attempts are requeued up to ``max_retries``
  times; attempt ``n`` waits ``retry_backoff_s * 2**n``.
* **Serial degradation** — if worker processes cannot be created at
  all (unknown start method, sandboxed environments, exhausted pids),
  the remaining jobs run in-process and the run still completes.
* **No orphans** — workers are not daemonic, so a worker may run a
  pool of its own (a sharded fleet task under ``--shards N``).  Such a
  nested pool first makes its worker a process-group leader; its
  workers join that group, and the one kill path takes the whole group
  down with the worker, even when the worker crashed.

Determinism: a job's payload is a pure function of its arguments (task
seeds derive from ``(root_seed, task_id)`` alone), so results are
byte-identical for any worker count and any retry history.  Results
are returned in submission order, never completion order.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from repro.runner.progress import (
    PoolDegraded,
    RunCompleted,
    RunStarted,
    TaskFinished,
    TaskRetrying,
    TaskStarted,
)
from repro.annotations import worker_entry
from repro.runner.seeds import derive_seed
from repro.runner.task import TaskSpec, execute_task


@dataclass(frozen=True)
class RunnerConfig:
    """Execution policy for one sweep."""

    jobs: int = 1
    #: Watchdog: max silence per worker; ``None`` disables it.
    timeout_s: float | None = None
    #: Failed attempts are retried this many times (attempts = retries+1).
    max_retries: int = 2
    #: Base backoff; attempt ``n`` waits ``retry_backoff_s * 2**n``.
    retry_backoff_s: float = 0.25
    #: multiprocessing start method; ``None`` prefers fork, then spawn.
    start_method: str | None = None
    #: Skip the pool entirely and run in-process (also the degraded mode).
    force_serial: bool = False
    #: Worker processes per *sharded scenario* (``spec.shards > 1``
    #: fleet tasks; see repro.runner.shardpool).  Execution policy
    #: only — artifacts are byte-identical for any value.
    shard_workers: int = 1


def resolve_jobs(explicit: int | None = None, *,
                 env_var: str = "REPRO_JOBS",
                 env: dict | None = None,
                 default: int | None = 1) -> int:
    """One rule for every worker count (``--jobs``, ``--shards``).

    Priority: the explicit CLI value, then the environment variable,
    then ``default``.  A value of ``0`` from any source — or a
    ``default`` of ``None`` — resolves to the host cpu count.  Raises
    ``ValueError`` on malformed or negative inputs, so every entry
    point rejects bad worker counts identically instead of re-deriving
    its own rule.
    """
    value = explicit
    source = "worker count"
    if value is None:
        raw = (os.environ if env is None else env).get(env_var)
        if raw is not None:
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(
                    f"{env_var} must be an integer, got {raw!r}"
                ) from None
            source = env_var
    if value is None:
        value = 0 if default is None else default
    if value == 0:
        value = os.cpu_count() or 1
    if value < 1:
        raise ValueError(f"{source} must be >= 1 (got {value})")
    return value


@dataclass(frozen=True)
class Job:
    """One unit of work: ``fn(*args, attempt=n, beacon=send)``.

    ``fn`` is a module-level function returning the job's payload.
    ``beacon(message)`` ships a progress message to the parent: it
    resets the watchdog and reaches the pool's ``on_beacon``.
    """

    job_id: str
    fn: Callable
    args: tuple


@dataclass
class JobResult:
    """Outcome of one job after all attempts."""

    job_id: str
    status: str                  #: "ok" | "error" | "timeout" | "crashed"
    attempts: int
    duration_s: float
    payload: object = None
    error: str | None = None
    mode: str = "pool"           #: "pool" | "serial"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def checks_pass(self) -> bool | None:
        """The payload's own check verdict; a failed job without one
        fails."""
        if isinstance(self.payload, dict):
            return self.payload.get("checks_pass")
        return None if self.ok else False


@dataclass(kw_only=True)
class TaskResult(JobResult):
    """Outcome of one task after all attempts."""

    spec: TaskSpec
    seed: int

    @property
    def task_id(self) -> str:
        return self.spec.task_id


def _failure_detail(exc: BaseException) -> str:
    # Structured checker errors (FrameSan, simlint) carry a one-line
    # ``diagnostic`` with frame provenance; lead with it so the
    # supervisor can surface it without parsing the traceback.
    detail = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
    diagnostic = getattr(exc, "diagnostic", None)
    return f"{diagnostic}\n{detail}" if diagnostic else detail


@worker_entry
def _worker_main(conn, fn, args: tuple, attempt: int) -> None:
    """Child entry point: run one job attempt, ship the payload back."""

    def beacon(message) -> None:
        conn.send(("beacon", message))

    try:
        payload = fn(*args, attempt=attempt, beacon=beacon)
        conn.send(("ok", payload))
    except BaseException as exc:  # noqa: BLE001 - report, parent decides
        try:
            conn.send(("error", _failure_detail(exc)))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


#: Markers of structured checker diagnostics (see repro.check): the one
#: line worth surfacing verbatim when an attempt's full detail is a
#: multi-page traceback.
_DIAGNOSTIC_MARKERS = ("[FrameSan:", "[simlint]")


def extract_diagnostic(detail: str | None) -> str | None:
    """Return the last checker diagnostic line in a failure detail."""
    if not detail:
        return None
    found = None
    for line in detail.splitlines():
        if any(marker in line for marker in _DIAGNOSTIC_MARKERS):
            found = line.strip()
    return found


@dataclass
class _Attempt:
    index: int
    attempt: int
    process: object
    conn: object
    last_heard: float


@dataclass
class _Pending:
    index: int
    attempt: int
    ready_at: float


class _PoolBroken(Exception):
    """Raised internally when worker processes cannot be created."""


class WorkerPool:
    """Supervisor for one list of jobs (see module docstring).

    ``policy`` is a :class:`RunnerConfig` or a
    :class:`~repro.runner.shardpool.ShardPoolConfig`: the pool reads
    its ``timeout_s``, ``max_retries``, ``retry_backoff_s``,
    ``start_method`` and ``force_serial``.
    """

    def __init__(self, jobs, *, workers: int, policy, on_event=None,
                 on_beacon=None) -> None:
        self.jobs: list[Job] = list(jobs)
        self.workers = max(1, workers)
        self.policy = policy
        self.on_event = on_event or (lambda event: None)
        #: ``on_beacon(index, message)`` for every job beacon.
        self.on_beacon = on_beacon or (lambda index, message: None)
        self._results: list[JobResult | None] = [None] * len(self.jobs)
        self._first_started: dict[int, float] = {}
        #: Per-job failure history ("attempt N: outcome: first line"),
        #: folded into the final error when the retry budget runs out.
        self._attempt_log: dict[int, list[str]] = {}

    # -- bookkeeping ----------------------------------------------------
    def _note_started(self, index: int, attempt: int) -> None:
        self._first_started.setdefault(index, time.monotonic())
        self.on_event(TaskStarted(
            task_id=self.jobs[index].job_id, index=index,
            total=len(self.jobs), attempt=attempt,
        ))

    def _finish(self, index: int, status: str, attempts: int,
                payload=None, error=None, mode="pool") -> None:
        result = JobResult(
            job_id=self.jobs[index].job_id, status=status, attempts=attempts,
            duration_s=time.monotonic() - self._first_started[index],
            payload=payload, error=error, mode=mode,
        )
        self._results[index] = result
        self.on_event(TaskFinished(
            task_id=result.job_id, index=index, total=len(self.jobs),
            status=status, attempts=attempts, duration_s=result.duration_s,
            checks_pass=result.checks_pass,
        ))

    def _fail(self, index: int, attempt: int, outcome: str, detail: str,
              mode: str = "pool") -> float | None:
        """Record a failed attempt; the retry delay, or None if the job
        is out of retries (and now finished)."""
        summary = (detail or outcome).strip()
        first_line = summary.splitlines()[0] if summary else outcome
        history = self._attempt_log.setdefault(index, [])
        history.append(f"attempt {attempt + 1}: {outcome}: {first_line}")
        if attempt < self.policy.max_retries:
            delay = self.policy.retry_backoff_s * (2 ** attempt)
            self.on_event(TaskRetrying(
                task_id=self.jobs[index].job_id, attempt=attempt,
                reason=outcome, delay_s=delay, detail=detail,
            ))
            return delay
        # Lead with the job id and the per-attempt history, then the
        # last checker diagnostic (FrameSan/simlint) if one is buried in
        # the traceback, then the full detail of the final attempt.
        lines = [f"job '{self.jobs[index].job_id}' gave up: {outcome} "
                 f"after {len(history)} attempt(s)"]
        lines += [f"  {entry}" for entry in history]
        diagnostic = extract_diagnostic(detail)
        if diagnostic:
            lines.append(f"  last checker diagnostic: {diagnostic}")
        if detail:
            lines.append(detail)
        self._finish(index, outcome, attempt + 1, error="\n".join(lines),
                     mode=mode)
        return None

    # -- public API -----------------------------------------------------
    def run(self) -> list[JobResult]:
        """Every job's result, in submission order."""
        if self.policy.force_serial:
            self._run_serial(range(len(self.jobs)))
        else:
            try:
                self._run_pool()
            except _PoolBroken as exc:
                self.on_event(PoolDegraded(reason=str(exc)))
                remaining = [i for i, r in enumerate(self._results)
                             if r is None]
                self._run_serial(remaining)
        return [result for result in self._results if result is not None]

    # -- pool mode ------------------------------------------------------
    def _spawn(self, ctx, index: int, attempt: int) -> _Attempt:
        """Launch one attempt: the only place a worker process starts."""
        job = self.jobs[index]
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, job.fn, job.args, attempt),
        )
        process.start()
        child_conn.close()
        return _Attempt(index=index, attempt=attempt, process=process,
                        conn=parent_conn, last_heard=time.monotonic())

    def _run_pool(self) -> None:
        try:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                self.policy.start_method
                or ("fork" if "fork" in methods else "spawn"))
            if multiprocessing.parent_process() is not None:
                # A pool inside a worker: lead a process group so the
                # outer pool's kill reaches this pool's workers too.
                os.setpgid(0, 0)
        except Exception as exc:  # unknown start method, broken platform
            raise _PoolBroken(f"no multiprocessing context: {exc}") from exc
        pending = [_Pending(index=i, attempt=0, ready_at=0.0)
                   for i in range(len(self.jobs))]
        running: list[_Attempt] = []
        try:
            while pending or running:
                now = time.monotonic()
                # Fill free slots with due jobs (submission order).
                while len(running) < self.workers and pending:
                    due = [p for p in pending if p.ready_at <= now]
                    if not due:
                        break
                    nxt = min(due, key=lambda p: (p.index, p.attempt))
                    pending.remove(nxt)
                    self._note_started(nxt.index, nxt.attempt)
                    try:
                        running.append(
                            self._spawn(ctx, nxt.index, nxt.attempt))
                    except Exception as exc:
                        raise _PoolBroken(
                            f"cannot start worker: {exc}"
                        ) from exc
                if not self._reap(running, pending):
                    time.sleep(0.005)
        finally:
            for attempt in running:
                self._kill(attempt)

    def _reap(self, running: list[_Attempt], pending: list[_Pending]) -> bool:
        """Pump every worker's pipe, collect finished and silent
        attempts; True if anything changed."""
        progressed = False
        for attempt in list(running):
            alive = attempt.process.is_alive()
            reply = None
            try:
                while reply is None and attempt.conn.poll():
                    kind, body = attempt.conn.recv()
                    attempt.last_heard = time.monotonic()
                    progressed = True
                    if kind == "beacon":
                        self.on_beacon(attempt.index, body)
                    else:
                        reply = (kind, body)
            except (EOFError, OSError):
                pass  # the worker is gone; its exit code tells how
            if reply is None:
                silent = time.monotonic() - attempt.last_heard
                if not alive:
                    reply = ("crashed",
                             f"exit code {attempt.process.exitcode}")
                elif (self.policy.timeout_s is not None
                      and silent > self.policy.timeout_s):
                    reply = ("timeout",
                             f"silent for {self.policy.timeout_s}s")
                else:
                    continue
            running.remove(attempt)
            progressed = True
            kind, body = reply
            if kind == "ok":
                self._kill(attempt, grace_s=5.0)
                self._finish(attempt.index, "ok", attempt.attempt + 1,
                             payload=body)
                continue
            self._kill(attempt)
            delay = self._fail(attempt.index, attempt.attempt, kind, body)
            if delay is not None:
                pending.append(_Pending(
                    index=attempt.index, attempt=attempt.attempt + 1,
                    ready_at=time.monotonic() + delay,
                ))
        return progressed

    @staticmethod
    def _kill(attempt: _Attempt, grace_s: float = 0.0) -> None:
        """The one kill path: a worker and any pool it leads.

        ``grace_s`` lets a worker that already replied exit by itself.
        """
        process = attempt.process
        try:
            process.join(timeout=grace_s)
            try:
                # The worker's group exists only if it ran a pool.
                os.killpg(process.pid, signal.SIGKILL)
            except OSError:
                pass
            if process.is_alive():
                process.kill()
            process.join(timeout=1)
        except Exception:
            pass
        try:
            attempt.conn.close()
        except Exception:
            pass

    # -- serial (degraded / forced) mode --------------------------------
    def _run_serial(self, indices) -> None:
        """In-process execution: no crash isolation, no timeouts, but
        the same retry policy and identical payloads."""
        for index in indices:
            job = self.jobs[index]
            beacon = functools.partial(self.on_beacon, index)
            attempt = 0
            while True:
                self._note_started(index, attempt)
                try:
                    payload = job.fn(*job.args, attempt=attempt,
                                     beacon=beacon)
                except Exception as exc:
                    detail = _failure_detail(exc)
                    delay = self._fail(index, attempt, "error", detail,
                                       mode="serial")
                    if delay is None:
                        break
                    time.sleep(delay)
                    attempt += 1
                    continue
                self._finish(index, "ok", attempt + 1, payload=payload,
                             mode="serial")
                break


@worker_entry
def _task_job(spec: TaskSpec, seed: int, shard_workers: int, *,
              attempt: int, beacon) -> dict:
    """One attempt of one task; a task sends no beacons."""
    return execute_task(spec, seed, attempt=attempt,
                        shard_workers=shard_workers)


def run_tasks(tasks, *, root_seed: int = 1017,
              config: RunnerConfig | None = None,
              on_event=None) -> list[TaskResult]:
    """Run ``tasks`` under ``config``; results in submission order."""
    tasks = list(tasks)
    config = config or RunnerConfig()
    emit = on_event or (lambda event: None)
    seeds = [task.seed if task.seed is not None
             else derive_seed(root_seed, task.task_id) for task in tasks]
    started = time.monotonic()
    emit(RunStarted(total=len(tasks), jobs=config.jobs, root_seed=root_seed))
    jobs = [Job(task.task_id, _task_job, (task, seed, config.shard_workers))
            for task, seed in zip(tasks, seeds)]
    outcomes = WorkerPool(jobs, workers=config.jobs, policy=config,
                          on_event=emit).run()
    results = [TaskResult(**vars(outcome), spec=task, seed=seed)
               for task, seed, outcome in zip(tasks, seeds, outcomes)]
    ok = sum(1 for result in results if result.ok)
    emit(RunCompleted(total=len(results), ok=ok, failed=len(results) - ok,
                      duration_s=time.monotonic() - started))
    return results
