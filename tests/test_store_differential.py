"""Differential proof that the columnar frame store is transparent.

The frame store represents contents as interned content ids over a
hash-consed arena, but it must not change a single observable of the
simulation: simulated time, merge behaviour, attack verdicts and
runner artifacts.  Four layers pin that down:

* lockstep raw :class:`~repro.mem.physmem.PhysicalMemory` operation
  sequences against :class:`ReferenceMemory`, a plain list-of-payloads
  model, comparing every observable after every operation;
* full kernels under every fusion engine running a scripted
  duplicate-heavy workload, checkpointing clock, savings, samples and
  frame layout;
* the runner: ``execute_task`` payloads (experiments and Table 1
  attack cells) rendered to canonical JSON;
* FrameSan-sanitized runs, which must match the unsanitized ones — and
  end with a clean audit, including the arena accounting cross-check.

Layers 2-4 compare SHA-256 fingerprints against
``tests/data/store_differential.golden.json``.  The goldens were
recorded while a one-``bytes``-object-per-frame store still ran in
lockstep beside the columnar one and both agreed, so they pin the
simulation to that representation-independent behaviour.  Regenerate
with ``REPRO_REGEN_GOLDEN=1`` only for an intended behaviour change.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.metrics import take_sample
from repro.kernel.kernel import Kernel
from repro.mem.content import (
    PageContent,
    ZERO_PAGE,
    content_digest,
    flip_bit,
    tagged_content,
)
from repro.mem.physmem import PhysicalMemory, FrameType
from repro.params import MachineSpec, MS, PAGE_SIZE, SECOND
from repro.runner import TaskSpec, canonical_json, execute_task

from tests.test_fingerprint_differential import ENGINES

GOLDEN = pathlib.Path(__file__).parent / "data" / "store_differential.golden.json"


def fingerprint(value) -> str:
    """SHA-256 of a checkpoint's ``repr`` (ints, bytes, str and tuples
    only, so the text is stable across interpreter versions)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def assert_golden(section: str, key: str, value) -> None:
    """``value`` equals the recorded golden (or records it, on regen)."""
    document = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":  # pragma: no cover
        document.setdefault(section, {})[key] = value
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    assert GOLDEN.exists(), "golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    assert value == document.get(section, {}).get(key), (
        f"{section}/{key} drifted from its golden; if the behaviour change "
        "is intended, regenerate with REPRO_REGEN_GOLDEN=1"
    )


# ----------------------------------------------------------------------
# Layer 1: lockstep raw operation sequences against a reference model
# ----------------------------------------------------------------------

RAW_FRAMES = 24


class ReferenceMemory:
    """The observable surface of ``PhysicalMemory`` as plain lists.

    One payload per frame, counters recomputed from scratch on every
    query and digests hashed on every call: slow, and obviously right.
    """

    def __init__(self, num_frames: int) -> None:
        self.num_frames = num_frames
        self.payloads: list[PageContent] = [ZERO_PAGE] * num_frames
        self.versions = [0] * num_frames
        self.generations = [0] * num_frames
        self.types = [FrameType.FREE] * num_frames
        self.rmap_entries: dict[int, set[tuple[int, int]]] = {}

    def write(self, pfn: int, content: PageContent) -> None:
        self.payloads[pfn] = content
        self.versions[pfn] += 1
        self.generations[pfn] += 1

    def copy(self, src: int, dst: int) -> None:
        self.write(dst, self.payloads[src])

    def corrupt_bit(self, pfn: int, byte_offset: int, bit: int) -> None:
        # A flip is a change, but not a recharge: the version stays.
        self.payloads[pfn] = flip_bit(self.payloads[pfn], byte_offset, bit)
        self.generations[pfn] += 1

    def set_frame_type(self, pfn: int, frame_type: FrameType) -> None:
        self.types[pfn] = frame_type

    def rmap_add(self, pfn: int, pid: int, vaddr: int) -> None:
        self.rmap_entries.setdefault(pfn, set()).add((pid, vaddr))

    def rmap_remove(self, pfn: int, pid: int, vaddr: int) -> None:
        self.rmap_entries[pfn].remove((pid, vaddr))

    def digest(self, pfn: int) -> int:
        return content_digest(self.payloads[pfn])

    def observables(self) -> tuple:
        histogram = {frame_type: 0 for frame_type in FrameType}
        for frame_type in self.types:
            histogram[frame_type] += 1
        return (
            list(self.payloads),
            list(self.versions),
            list(self.generations),
            sum(self.generations),
            self.num_frames - histogram[FrameType.FREE],
            histogram,
            sorted(pfn for pfn, entries in self.rmap_entries.items() if entries),
        )


raw_op = st.one_of(
    st.tuples(st.just("write"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, 11)),
    st.tuples(st.just("copy"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, RAW_FRAMES - 1)),
    st.tuples(st.just("corrupt"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, PAGE_SIZE - 1)),
    st.tuples(st.just("digest"), st.integers(0, RAW_FRAMES - 1), st.just(0)),
    st.tuples(st.just("retype"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, len(FrameType) - 1)),
    st.tuples(st.just("rmap"), st.integers(0, RAW_FRAMES - 1),
              st.integers(0, 3)),
)


def observables(physmem: PhysicalMemory) -> tuple:
    """Everything a caller can see through the public surface."""
    return (
        physmem.contents_snapshot(),
        [physmem.version(pfn) for pfn in range(physmem.num_frames)],
        [physmem.generation(pfn) for pfn in range(physmem.num_frames)],
        physmem.mutation_epoch,
        physmem.frames_in_use(),
        physmem.type_histogram(),
        list(physmem.mapped_frames()),
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(raw_op, min_size=1, max_size=100))
def test_raw_lockstep(ops):
    """The store and the reference model agree after every op."""
    physmem = PhysicalMemory(RAW_FRAMES)
    model = ReferenceMemory(RAW_FRAMES)
    rmapped: set[tuple[int, int]] = set()
    for action, a, b in ops:
        for target in (physmem, model):
            if action == "write":
                target.write(a, tagged_content("diff", b))
            elif action == "copy":
                target.copy(a, b)
            elif action == "corrupt":
                target.corrupt_bit(a, b, b % 8)
            elif action == "retype":
                target.set_frame_type(a, list(FrameType)[b])
            elif action == "rmap":
                if (a, b) in rmapped:
                    target.rmap_remove(a, 1, b * PAGE_SIZE)
                else:
                    target.rmap_add(a, 1, b * PAGE_SIZE)
        if action == "rmap":
            rmapped.symmetric_difference_update({(a, b)})
        if action == "digest":
            assert physmem.digest(a) == model.digest(a)
        assert observables(physmem) == model.observables()

    # Full-sweep digest parity, then cached re-reads stay in parity.
    for pfn in range(RAW_FRAMES):
        assert physmem.digest(pfn) == model.digest(pfn)
        assert physmem.digest(pfn) == model.digest(pfn)
    # The batch API agrees with the per-frame path.
    pfns = list(range(RAW_FRAMES)) * 2
    assert physmem.digests_many(pfns) == [model.digest(pfn) for pfn in pfns]


# ----------------------------------------------------------------------
# Layer 2: full kernels under every engine, optionally sanitized
# ----------------------------------------------------------------------

NUM_PROCS = 2
PAGES_PER_PROC = 12


def build_kernel(engine_name: str, sanitize: bool) -> Kernel:
    spec = MachineSpec(total_frames=1024, seed=1017)
    kernel = Kernel(spec, sanitize=sanitize or None)
    kernel.attach_fusion(ENGINES[engine_name]())
    return kernel


def scripted_workload(kernel: Kernel):
    """Deterministic duplicate-heavy run; yields at each checkpoint."""
    processes = [kernel.create_process(f"p{i}") for i in range(NUM_PROCS)]
    vmas = [p.mmap(PAGES_PER_PROC, mergeable=True) for p in processes]
    for process, vma in zip(processes, vmas):
        for index in range(PAGES_PER_PROC):
            process.write(
                vma.start + index * PAGE_SIZE, tagged_content("seed", index % 4)
            )
    yield "seeded"
    kernel.idle(300 * MS)  # scan daemons merge duplicates
    yield "merged"
    # Writes break some merges (CoW / unmerge paths), flips hit others.
    for step in range(6):
        process = processes[step % NUM_PROCS]
        vaddr = vmas[step % NUM_PROCS].start + (step % PAGES_PER_PROC) * PAGE_SIZE
        process.write(vaddr, tagged_content("post", step))
        kernel.idle(60 * MS)
        yield f"write-{step}"
    walk = processes[0].address_space.page_table.walk(vmas[0].start)
    if walk is not None:
        kernel.physmem.corrupt_bit(walk.frame_for(vmas[0].start), 100, 3)
    kernel.idle(SECOND)
    yield "settled"


def checkpoint(kernel: Kernel) -> tuple:
    physmem = kernel.physmem
    sample = take_sample(kernel)
    return (
        kernel.clock.now,
        kernel.fusion.saved_frames(),
        (sample.t_ns, sample.frames_in_use, sample.saved_frames,
         sample.huge_pages),
        physmem.contents_snapshot(),
        [(frame_type.value, count)
         for frame_type, count in physmem.type_histogram().items()],
        list(physmem.mapped_frames()),
        [physmem.refcount(pfn) for pfn in range(physmem.num_frames)],
    )


def checkpoint_fingerprints(kernel: Kernel) -> dict[str, str]:
    """Run the scripted workload; fingerprint every checkpoint."""
    return {
        label: fingerprint(checkpoint(kernel))
        for label in scripted_workload(kernel)
    }


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_engine_runs_are_identical_across_stores(engine_name):
    """Same engine, same seed, same workload: every checkpoint equals
    the one both stores produced."""
    kernel = build_kernel(engine_name, sanitize=False)
    assert_golden("engine_runs", engine_name, checkpoint_fingerprints(kernel))


@pytest.mark.parametrize("engine_name", ["ksm", "vusion"])
def test_sanitized_runs_are_identical_and_audit_clean(engine_name):
    """FrameSan on: still identical to the unsanitized golden, and the
    end-of-run audit (including the arena accounting cross-check) is
    clean."""
    kernel = build_kernel(engine_name, sanitize=True)
    observed = checkpoint_fingerprints(kernel)
    document = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert observed == document["engine_runs"][engine_name]
    assert kernel.sanitizer is not None
    kernel.sanitizer.assert_clean(kernel.fusion)


# ----------------------------------------------------------------------
# Layers 3 and 4: runner artifacts and Table 1 attack verdicts
# ----------------------------------------------------------------------

#: Fast experiment coverage plus one Table 1 cell per engine family.
RUNNER_TASKS = {
    "fig3": TaskSpec.experiment("fig3"),
    "fig5": TaskSpec.experiment("fig5"),
    "cow-timing@vusion": TaskSpec.attack("cow-timing", target="vusion"),
    "flip-feng-shui@ksm": TaskSpec.attack("flip-feng-shui", target="ksm"),
    "page-sharing@wpf": TaskSpec.attack("page-sharing", target="wpf"),
}


@pytest.mark.parametrize("task_name", sorted(RUNNER_TASKS))
def test_runner_artifacts_byte_identical(task_name):
    """Canonical artifact JSON is byte-for-byte the recorded one."""
    spec = RUNNER_TASKS[task_name]
    payload = execute_task(spec, seed=1017)
    observed = {"sha256": hashlib.sha256(
        canonical_json(payload).encode()).hexdigest()}
    if spec.kind == "attack":
        # The Table 1 verdict itself, spelled out in the golden: page
        # fusion attack outcomes cannot depend on the representation.
        observed["success"] = payload["success"]
        observed["mitigated_by"] = payload["mitigated_by"]
    assert_golden("runner_artifacts", task_name, observed)
