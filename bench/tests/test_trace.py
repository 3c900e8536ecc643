"""The tracer: exact self time, clean uninstall, digest-neutral spans."""

import inspect
import sys

import pytest

from bench.layers import LayerTrace, LAYERS
from bench.trace import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_exact_on_a_nested_tree_with_raising_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def advance(ns):
        clock.now += ns

    def fail():
        advance(7)
        raise RuntimeError("boom")

    leaf = tracer.timed(advance, "leaf")
    failing = tracer.timed(fail, "failing")

    def mid_body():
        advance(10)
        leaf(5)
        leaf(3)
        with pytest.raises(RuntimeError):
            failing()
        advance(2)

    mid = tracer.timed(mid_body, "mid", "mid_body")

    def top_body():
        advance(1)
        mid()
        leaf(4)
        advance(1)

    tracer.timed(top_body, "op", "top")()
    with pytest.raises(RuntimeError):
        failing()

    assert tracer.edges == {
        ("mid", "leaf"): [2, 8, 8],
        ("op", "leaf"): [1, 4, 4],
        ("mid", "failing"): [1, 7, 7],
        (None, "failing"): [1, 7, 7],
        ("op", "mid"): [1, 27, 12],
        (None, "op"): [1, 33, 2],
    }
    top, middle = tracer.records
    assert (top["id"], top["parent"], top["op"]) == (1, None, 1)
    assert (middle["id"], middle["parent"], middle["op"]) == (2, 1, 1)
    assert (top["start_ns"], top["end_ns"]) == (0, 33)
    assert (middle["start_ns"], middle["end_ns"]) == (1, 28)


def _namespace_snapshot() -> dict:
    """Every attribute of every loaded repro module and of its classes."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            snapshot[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, raw in vars(value).items():
                    snapshot[(name, attr, member)] = raw
    return snapshot


def test_uninstall_restores_every_wrapped_attribute_by_identity():
    import importlib

    for _, module, _ in LAYERS:
        importlib.import_module(module)
    from repro.fusion.rbtree import RedBlackTree
    from repro.mem import shard
    from repro.mem.shard import ShardContentTable

    before = _namespace_snapshot()
    layers = LayerTrace()
    layers.install()
    try:
        assert vars(RedBlackTree)["search"] is not before[
            ("repro.fusion.rbtree", "RedBlackTree", "search")]
        assert shard.resolve_exchange is not before[
            ("repro.mem.shard", "resolve_exchange")]
        assert isinstance(vars(ShardContentTable)["build"], classmethod)
    finally:
        layers.uninstall()
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_smoke_fleet_matches_the_untraced_digest():
    from bench.workloads import fleet_op
    from repro.harness.fleet import FLEET_PRESETS

    spec = FLEET_PRESETS["smoke"].spec("ksm", "quick", 1017)
    untraced = fleet_op(spec).outcome()
    layers = LayerTrace()
    layers.install()
    try:
        traced = layers.run_op(fleet_op(spec))
    finally:
        layers.uninstall()
    assert untraced.failures == [] and traced.failures == []
    assert traced.digest == untraced.digest
    metrics = layers.metrics(rounds=1)
    assert metrics["fusion.scan.calls"] > 0
    assert metrics["harness.boot.calls"] == spec.fleet.vms
    assert metrics["fusion.tree.physmem_reads"] > 0
    assert any(record["layer"] == "fusion.scan"
               for record in layers.tracer.records)
