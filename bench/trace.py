"""Timing spans around a program's functions, installed from outside.

A :class:`Tracer` replaces chosen attributes (methods, classmethods,
module functions) with wrappers that time each call, and puts every
original back on :meth:`Tracer.uninstall`.  The program itself is not
edited: spans inside the program are a later change.

Each call is one span.  A span's *self* time is its duration minus the
durations of the wrapped calls made inside it, so a layer is charged
only for its own code (and for the bookkeeping of the spans it
encloses, which is why the traced round is slower than the untraced
one).  Spans are aggregated per ``(parent layer, layer)`` pair into
calls, total ns and self ns, which keeps the cost of hot leaf layers
bounded.  *Named* spans (ops, boots, scan ticks, shard runs, exchange
rounds) also keep one record each, with their op id and the id of the
enclosing named span.
"""

from __future__ import annotations

import functools
import sys
import time
import types

#: (enclosing named span id, op id) outside every span.
_TOP = (None, None)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        #: Open spans, innermost last: [layer, start_ns, child_ns,
        #: (enclosing named span id, op id)].
        self._stack: list[list] = []
        #: layer -> parent layer or None -> [calls, total_ns, self_ns].
        self._by_layer: dict[str, dict[str | None, list[int]]] = {}
        #: One dict per named span, in start order; ``id`` is its index + 1.
        self.records: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def edges(self) -> dict[tuple[str | None, str], list[int]]:
        """(parent layer or None, layer) -> [calls, total_ns, self_ns]."""
        return {(parent, layer): entry
                for layer, parents in self._by_layer.items()
                for parent, entry in parents.items()}

    def timed(self, fn, layer: str, name: str | None = None):
        """``fn`` wrapped in a span of ``layer``, kept as a record of its
        own when ``name`` is given."""
        stack, clock, records = self._stack, self._clock, self.records
        parents = self._by_layer.setdefault(layer, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            context = stack[-1][3] if stack else _TOP
            record = None
            if name is not None:
                record = {"id": len(records) + 1, "parent": context[0],
                          "op": context[1], "layer": layer, "name": name}
                records.append(record)
                if layer == "op":
                    record["op"] = record["id"]
                context = (record["id"], record["op"])
            frame = [layer, 0, 0, context]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - start
                if stack:
                    parent = stack[-1]
                    parent[2] += total
                    parent_layer = parent[0]
                else:
                    parent_layer = None
                entry = parents.get(parent_layer)
                if entry is None:
                    entry = parents[parent_layer] = [0, 0, 0]
                entry[0] += 1
                entry[1] += total
                entry[2] += total - frame[2]
                if record is not None:
                    record["start_ns"] = start
                    record["end_ns"] = end

        return wrapper

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original function)``.

        ``owner`` is a class or a module.  A classmethod or
        staticmethod keeps its kind.  A module function is replaced in
        every loaded module that imported it by the same name.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        owners = [owner]
        if isinstance(owner, types.ModuleType):
            owners += [module for module in list(sys.modules.values())
                       if module is not owner
                       and getattr(module, "__dict__", {}).get(attr) is raw]
        for target in owners:
            self._patches.append((target, attr, raw))
            setattr(target, attr, replacement)

    def uninstall(self) -> None:
        """Put back every original, last patch first."""
        while self._patches:
            target, attr, raw = self._patches.pop()
            setattr(target, attr, raw)
