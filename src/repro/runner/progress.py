"""Structured progress events emitted by the experiment runner.

The pool never prints; it emits typed events to an ``on_event``
callback.  The CLI installs :class:`ProgressPrinter`; tests install a
recording callback and assert on the exact sequence.  The per-job
events (``Task*``, :class:`PoolDegraded`) cover every pool job: a
sweep's tasks carry their task id, a scenario's shards carry
``<scenario>/shard<N>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RunnerEvent:
    """Base class for all runner events."""


@dataclass(frozen=True)
class RunStarted(RunnerEvent):
    total: int
    jobs: int
    root_seed: int


@dataclass(frozen=True)
class TaskStarted(RunnerEvent):
    task_id: str
    index: int
    total: int
    attempt: int


@dataclass(frozen=True)
class TaskRetrying(RunnerEvent):
    task_id: str
    attempt: int          #: the attempt that just failed (0-based)
    reason: str           #: "crashed" | "timeout" | "error"
    delay_s: float
    detail: str = ""


@dataclass(frozen=True)
class TaskFinished(RunnerEvent):
    task_id: str
    index: int
    total: int
    status: str           #: "ok" | "error" | "timeout" | "crashed"
    attempts: int
    duration_s: float
    checks_pass: bool | None = None


@dataclass(frozen=True)
class PoolDegraded(RunnerEvent):
    """Work the pool could not finish runs serially in-process."""

    reason: str


@dataclass(frozen=True)
class RunCompleted(RunnerEvent):
    total: int
    ok: int
    failed: int
    duration_s: float


@dataclass(frozen=True)
class ShardRoundCompleted(RunnerEvent):
    """One shard finished an exchange round (a sample boundary)."""

    scenario: str
    shard: int
    round_no: int
    exported_cids: int
    booted: int
    resident: int


@dataclass(frozen=True)
class ShardExchangeResolved(RunnerEvent):
    """The coordinator resolved one round's content-id exchange."""

    scenario: str
    round_no: int
    shards: int
    exchanged_cids: int
    intents_applied: int
    stale_dropped: int


@dataclass
class ProgressPrinter:
    """Render runner events as one-line progress messages.

    Shard-level events (per-round exports, exchange resolutions) are
    chatty — one line per shard per sample — so they only print when
    ``verbose`` is set (``repro fleet -v``); the shard balance summary
    they carry is exactly what the flag exists to show.
    """

    stream: object = None
    verbose: bool = False
    finished: int = field(default=0, init=False)

    def _print(self, message: str) -> None:
        import sys

        print(message, file=self.stream or sys.stdout, flush=True)

    def __call__(self, event: RunnerEvent) -> None:
        if isinstance(event, RunStarted):
            self._print(
                f"runner: {event.total} task(s), jobs={event.jobs}, "
                f"seed={event.root_seed}"
            )
        elif isinstance(event, TaskRetrying):
            self._print(
                f"  retry {event.task_id}: attempt {event.attempt + 1} "
                f"{event.reason}, backing off {event.delay_s:.2f}s"
            )
        elif isinstance(event, TaskFinished):
            self.finished += 1
            checks = ""
            if event.checks_pass is not None:
                checks = " checks=PASS" if event.checks_pass else " checks=FAIL"
            self._print(
                f"[{self.finished}/{event.total}] {event.task_id} "
                f"{event.status}{checks} ({event.duration_s:.1f}s, "
                f"{event.attempts} attempt(s))"
            )
        elif isinstance(event, PoolDegraded):
            self._print(f"runner: pool degraded, falling back to serial "
                        f"({event.reason})")
        elif isinstance(event, ShardRoundCompleted):
            if self.verbose:
                self._print(
                    f"  shard {event.shard} round {event.round_no}: "
                    f"{event.exported_cids} cid(s) exported, "
                    f"{event.booted} booted, {event.resident} resident"
                )
        elif isinstance(event, ShardExchangeResolved):
            if self.verbose:
                self._print(
                    f"  exchange round {event.round_no}: "
                    f"{event.exchanged_cids} cid(s) over {event.shards} "
                    f"shard(s), {event.intents_applied} merge intent(s) "
                    f"applied, {event.stale_dropped} stale dropped"
                )
        elif isinstance(event, RunCompleted):
            self._print(
                f"runner: {event.ok}/{event.total} ok, {event.failed} failed "
                f"in {event.duration_s:.1f}s"
            )
