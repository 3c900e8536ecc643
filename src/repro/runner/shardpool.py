"""Parallel execution of one sharded scenario.

Where :func:`~repro.runner.pool.run_tasks` parallelizes *across*
tasks, :func:`run_sharded` parallelizes *inside* one: the
``spec.shards`` NUMA-style nodes of a scenario (see
:mod:`repro.harness.shardfleet`) become one job each on the same
:class:`~repro.runner.pool.WorkerPool`, so shards get the pool's
watchdog, bounded retry and serial degradation.  Every exchange round
a shard finishes is a beacon: it keeps the shard's worker alive under
the watchdog and surfaces as a :class:`ShardRoundCompleted` event.  A
shard that runs out of retries is rerun in-process.

Determinism: a shard run is a pure function of ``(spec, shard)``, and
:func:`~repro.harness.shardfleet.combine_shard_results` folds the
results in ``(shard, pfn)`` order — so ``--shards 1``, ``--shards 4``,
a retried worker and an in-process rerun all produce byte-identical
artifacts.  :func:`run_sharded` is the one entry point every caller
(fleet tasks, the CLI, the benchmarks) goes through.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.annotations import worker_entry
from repro.runner.pool import Job, WorkerPool
from repro.runner.progress import (
    PoolDegraded,
    ShardExchangeResolved,
    ShardRoundCompleted,
)


@dataclass(frozen=True)
class ShardPoolConfig:
    """Execution policy for one sharded scenario."""

    workers: int = 1
    #: Watchdog: max silence per shard worker before it is killed.
    timeout_s: float | None = None
    #: Failed shards get this many fresh-process retries.
    max_retries: int = 1
    retry_backoff_s: float = 0.25
    #: multiprocessing start method; ``None`` prefers fork, then spawn.
    start_method: str | None = None
    #: Skip the pool entirely (also the degraded mode).
    force_serial: bool = False


def _round_beacon(driver, table) -> tuple:
    """What one finished exchange round reports to the supervisor."""
    return (driver.shard, table.round_no, len(table.entries),
            driver.booted, driver.booted - driver.retired)


@worker_entry
def _shard_job(spec, shard: int, *, attempt: int, beacon):
    """One shard of one scenario; every exchange round is a beacon."""
    from repro.harness import shardfleet

    return shardfleet.run_one_shard(
        spec, shard,
        on_round=lambda driver, table: beacon(_round_beacon(driver, table)),
    )


def run_sharded(spec, *, config: ShardPoolConfig | None = None,
                on_event=None):
    """Run one scenario across its shards; the unified entry point.

    ``spec.shards == 1`` and single-worker/forced-serial configurations
    take the in-process reference executor; everything else runs one
    pool job per shard.  The returned
    :class:`~repro.harness.fleet.FleetResult` is byte-identical across
    all of these paths.
    """
    from repro.harness import shardfleet

    config = config or ShardPoolConfig()
    emit = on_event or (lambda event: None)

    def report_round(beacon: tuple) -> None:
        shard, round_no, exported, booted, resident = beacon
        emit(ShardRoundCompleted(
            scenario=spec.name, shard=shard, round_no=round_no,
            exported_cids=exported, booted=booted, resident=resident,
        ))

    def on_exchange(outcome) -> None:
        emit(ShardExchangeResolved(
            scenario=spec.name, round_no=outcome.round_no,
            shards=spec.shards, exchanged_cids=outcome.exchanged_cids,
            intents_applied=outcome.applied,
            stale_dropped=outcome.stale_entries_dropped,
        ))

    if spec.shards == 1 or config.workers <= 1 or config.force_serial:
        return shardfleet.run_sharded_serial(
            spec,
            on_round=lambda driver, table: report_round(
                _round_beacon(driver, table)),
            on_exchange=on_exchange,
        )
    jobs = [Job(f"{spec.name}/shard{shard}", _shard_job, (spec, shard))
            for shard in range(spec.shards)]
    pool = WorkerPool(jobs, workers=config.workers, policy=config,
                      on_event=emit,
                      on_beacon=lambda index, beacon: report_round(beacon))
    results = []
    for shard, outcome in enumerate(pool.run()):
        if outcome.ok:
            results.append(outcome.payload)
            continue
        emit(PoolDegraded(reason=f"{outcome.job_id} {outcome.status} after "
                                 f"{outcome.attempts} attempt(s); rerunning "
                                 f"it in-process"))
        results.append(_shard_job(spec, shard, attempt=outcome.attempts,
                                  beacon=report_round))
    return shardfleet.combine_shard_results(spec, results,
                                            on_exchange=on_exchange)
