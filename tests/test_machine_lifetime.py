"""A dropped machine is freed by reference counting alone.

The :class:`~repro.kernel.kernel.Kernel` owns its machine: strong
references point down from it, and every part that calls back up
(processes, engines, daemons, caches, FrameSan) holds the kernel's
weak handle instead.  So the moment the last owner of a kernel lets go
(an attack environment, a scenario, a shard node), the kernel, its
``PhysicalMemory`` and its engine are freed, without waiting for a
cyclic-GC pass.  Each test here builds and exercises a machine with
the cyclic collector disabled, drops it, and checks through weakrefs
that nothing of it survived.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.attacks.base import AttackEnvironment
from repro.defenses.hexpads import HexPadsConfig, HexPadsDetector
from repro.fusion.registry import create_engine, engine_names
from repro.fusion.wpf import WindowsPageFusion
from repro.harness.fleet import FLEET_PRESETS, FleetDriver
from repro.harness.scenario import PRESETS, Scenario
from repro.harness.shardfleet import ShardFleetDriver
from repro.kernel.adaptive_thp import AdaptiveThpConfig, AdaptiveThpPolicy
from repro.kernel.kernel import Kernel
from repro.kernel.khugepaged import Khugepaged
from repro.params import PAGE_SIZE, SECOND

from tests.conftest import dup, small_spec


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    """Only reference counting may free anything inside these tests."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def machine_refs(kernel: Kernel) -> dict[str, weakref.ref]:
    refs = {"Kernel": weakref.ref(kernel),
            "PhysicalMemory": weakref.ref(kernel.physmem)}
    if kernel.fusion is not None:
        refs[type(kernel.fusion).__name__] = weakref.ref(kernel.fusion)
    return refs


def assert_all_dead(refs: dict[str, weakref.ref]) -> None:
    alive = sorted(name for name, ref in refs.items() if ref() is not None)
    assert alive == [], f"still alive after the owner was dropped: {alive}"


def write_duplicates(process, pages: int = 32) -> None:
    vma = process.mmap(pages, name="dups", mergeable=True)
    for index in range(pages):
        process.write(vma.start + index * PAGE_SIZE, dup("lifetime", index % 8))


def exercised_engine_machine(engine_name: str, sanitize: bool) -> dict:
    """Build, run and retire part of a 4096-frame machine; return
    weakrefs to its parts once every local reference is gone."""
    kernel = Kernel(small_spec(frames=4096), sanitize=sanitize)
    engine = create_engine(engine_name)
    if engine is not None:
        kernel.attach_fusion(engine)
    first, second = kernel.create_process("a"), kernel.create_process("b")
    write_duplicates(first)
    write_duplicates(second)
    if isinstance(engine, WindowsPageFusion):
        kernel.idle(2 * engine.config.pass_interval + SECOND)
    else:
        kernel.idle(3 * SECOND)
    kernel.destroy_process(first)
    kernel.idle(SECOND)
    return machine_refs(kernel)


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "framesan"])
@pytest.mark.parametrize("engine_name", engine_names())
def test_engine_machine_dies_when_dropped(engine_name, sanitize):
    refs = exercised_engine_machine(engine_name, sanitize)
    if engine_name != "none":
        assert len(refs) == 3
    assert_all_dead(refs)


def test_a_process_alone_does_not_keep_its_machine():
    kernel = Kernel(small_spec(frames=1024))
    process = kernel.create_process("orphan")
    vma = process.mmap(4)
    process.write(vma.start, dup("orphan"))
    refs = machine_refs(kernel)
    del kernel
    assert_all_dead(refs)
    with pytest.raises(ReferenceError):
        process.read(vma.start)


@pytest.mark.parametrize("system", ["nodedup", "ksm", "vusion", "vusion_thp"])
def test_fleet_scenario_dies_when_dropped(system):
    def run() -> dict:
        driver = FleetDriver(FLEET_PRESETS["smoke"].spec(system, "quick"))
        driver.run()
        refs = machine_refs(driver.scenario.kernel)
        refs["Scenario"] = weakref.ref(driver.scenario)
        return refs

    assert_all_dead(run())


def test_shard_node_dies_when_dropped():
    def run() -> dict:
        node = ShardFleetDriver(
            FLEET_PRESETS["smoke-sharded"].spec("ksm", "quick"), 0)
        node.run()
        return machine_refs(node.scenario.kernel)

    assert_all_dead(run())


def test_khugepaged_and_adaptive_thp_die_with_their_machine():
    def run() -> dict:
        scenario = Scenario(PRESETS["vusion_thp"], frames=8192)
        kernel = scenario.kernel
        policy = AdaptiveThpPolicy(kernel, Khugepaged(kernel, period=SECOND),
                                   AdaptiveThpConfig(period=SECOND))
        write_duplicates(kernel.create_process("thp"), pages=1024)
        scenario.idle(3 * SECOND)
        refs = machine_refs(kernel)
        refs["Khugepaged"] = weakref.ref(policy.khugepaged)
        refs["AdaptiveThpPolicy"] = weakref.ref(policy)
        return refs

    assert_all_dead(run())


def test_hexpads_dies_with_its_environment():
    def run() -> dict:
        env = AttackEnvironment("ksm", frames=4096)
        detector = HexPadsDetector(env.kernel, HexPadsConfig(window_ns=SECOND))
        write_duplicates(env.attacker)
        write_duplicates(env.victim)
        env.wait_for_fusion(passes=2)
        env.attacker.rewrite(env.attacker.address_space.vmas[0].start)
        env.kernel.idle(2 * SECOND)
        refs = machine_refs(env.kernel)
        refs["HexPadsDetector"] = weakref.ref(detector)
        return refs

    assert_all_dead(run())
