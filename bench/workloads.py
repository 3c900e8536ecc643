"""The benchmark's four workloads: each op's inputs, run, checks and digest.

One *op* is one scenario run or one attack cell.  :func:`prepare`
builds a round's ops from the seed and builds the first op's machine;
that is where set-up time ends.  Running the ops is the timed part.

Every op returns an :class:`Outcome` whose ``digest`` hashes its
simulated results only, so it is identical on every host, round and
worker count, traced or not.  ``failures`` lists the invariants the op
broke; an op with failures counts against ``error_rate``.
"""

from __future__ import annotations

import hashlib
import os
import traceback
from dataclasses import dataclass, field
from typing import Callable

from bench import WORKLOADS
from repro.harness.experiments import TABLE1_ATTACKS
from repro.harness.fleet import FLEET_PRESETS, FleetDriver
from repro.harness.scenario import PRESETS, Scenario
from repro.harness.shardfleet import ShardFleetDriver
from repro.harness.spec import FleetSpec, ScenarioSpec, ScheduleSpec
from repro.params import MS, SECOND
from repro.runner.artifacts import canonical_json
from repro.runner.shardpool import ShardPoolConfig, run_sharded

#: Workers for the sharded fleet: at most two processes beside ours.
SHARD_WORKERS = min(2, os.cpu_count() or 1)


@dataclass
class Outcome:
    """What one op produced: its digest, its work and broken checks."""

    label: str
    digest: str = ""
    #: Simulated page work: booted + scanned pages for fleets, guest
    #: accesses + scanned pages for attack cells.
    work: int = 0
    failures: list[str] = field(default_factory=list)


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]

    def outcome(self) -> Outcome:
        """Run the op; an exception is a failed op, not a crash."""
        try:
            return self.run()
        except Exception as exc:  # noqa: BLE001 - the op fails, the round goes on
            traceback.print_exc()
            return Outcome(self.label,
                           failures=[f"raised {type(exc).__name__}: {exc}"])


def _sha256(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _sharded_spec(seed: int) -> ScenarioSpec:
    """The 2^20-frame, 4-shard KSM fleet of the shard-scaling benchmark."""
    return ScenarioSpec(
        name="shard-scaling-1m",
        system=PRESETS["ksm"],
        fleet=FleetSpec(vms=64, image_families=4, pages_per_vm=2048,
                        max_resident=16, lifetime_ns=2 * SECOND,
                        arrival_interval_ns=100 * MS),
        schedule=ScheduleSpec(settle_ns=SECOND),
        frames=1 << 20,
        seed=seed,
        shards=4,
    )


def _fleet_outcome(spec: ScenarioSpec, result) -> Outcome:
    """Digest and check one fleet result (serial or sharded)."""
    totals = result.totals
    failures = []
    if spec.system.engine == "vusion" and totals["probe_hits"] > 0:
        failures.append(f"VUsion leaked: probe_hits={totals['probe_hits']}")
    if totals["peak_frames_in_use"] > spec.frames:
        failures.append(f"peak_frames_in_use={totals['peak_frames_in_use']}"
                        f" exceeds the machine's {spec.frames} frames")
    if spec.system.engine is not None and totals["peak_saved_frames"] == 0:
        failures.append("the engine saved no frame")
    if spec.shards > 1 and totals["exchange"]["rounds"] == 0:
        failures.append("the sharded run completed no exchange round")
    return Outcome(spec.name, digest=_sha256(result.to_payload()),
                   work=totals["booted_pages"] + totals["pages_scanned"],
                   failures=failures)


def fleet_op(spec: ScenarioSpec, scenario: Scenario | None = None) -> Op:
    def run() -> Outcome:
        return _fleet_outcome(spec, FleetDriver(spec, scenario=scenario).run())

    return Op(spec.name, run)


def _sharded_op(spec: ScenarioSpec, serial: bool) -> Op:
    config = ShardPoolConfig(workers=SHARD_WORKERS, force_serial=serial)

    def run() -> Outcome:
        return _fleet_outcome(spec, run_sharded(spec, config=config))

    return Op(spec.name, run)


def _attack_op(attack_cls, target: str | None, seed: int, env=None) -> Op:
    published = target is None
    label = f"{attack_cls.name}/{target or attack_cls.default_target}"

    def run() -> Outcome:
        environment = env or attack_cls.make_environment(target, seed=seed)
        result = attack_cls(environment).run()
        kernel = environment.kernel
        failures = []
        if result.success != published:
            failures.append(
                f"verdict differs from the paper: success={result.success}, "
                f"expected {published}"
            )
        scanned = (environment.engine.stats.pages_scanned
                   if environment.engine is not None else 0)
        digest = _sha256({
            "attack": result.attack, "target": result.target,
            "success": result.success, "mitigated_by": result.mitigated_by,
            "evidence": result.evidence, "clock_ns": kernel.clock.now,
        })
        return Outcome(label, digest=digest,
                       work=kernel.stats.accesses + scanned, failures=failures)

    return Op(label, run)


def prepare(workload: str, seed: int, *, serial_shards: bool = False) -> list[Op]:
    """A round's ops for ``workload``, with the first machine built.

    ``serial_shards`` runs the sharded fleet in this process (the
    traced round does, so that every span stays in-process).
    """
    if workload in ("fleet-ksm", "fleet-vusion"):
        system = workload.removeprefix("fleet-")
        spec = FLEET_PRESETS["consolidation"].spec(system, "full", seed)
        return [fleet_op(spec, Scenario.from_spec(spec))]
    if workload == "attack-matrix":
        cells = [(attack_cls, target) for attack_cls in TABLE1_ATTACKS
                 for target in (None, "vusion")]
        first_cls, first_target = cells[0]
        first_env = first_cls.make_environment(first_target, seed=seed)
        return [_attack_op(attack_cls, target, seed,
                           first_env if index == 0 else None)
                for index, (attack_cls, target) in enumerate(cells)]
    if workload == "fleet-sharded":
        spec = _sharded_spec(seed)
        # Shard 0's node is the first machine; the run builds its own.
        ShardFleetDriver(spec, 0)
        return [_sharded_op(spec, serial_shards)]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")
