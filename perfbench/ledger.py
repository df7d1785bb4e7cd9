"""Per-layer wall-clock ledger, traced from outside the program.

The tracer wraps each layer's public entry points at class (or module)
level, from benchmark code, before the traced objects are built.  Class
level matters: ``AccessPath``, ``SpaceManager``, ``FineGrainedOps`` and
``FlushEngine`` bind ``events.publish`` in ``__init__``, so a wrapper
added to an instance afterwards would miss those calls.

Every wrapped call is one span ``(entry point, start, end, parent)``.
Spans stay in memory and :meth:`LayerTracer.write_spans` writes them out
at the end.  Self time — a span's duration minus the time its child
spans cover — and call counts are also accumulated online.

:meth:`LayerTracer.uninstall` puts every original attribute back, so the
timed runs carry no wrapper.  Tracing is single-threaded: the stack of
open spans is one list.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from array import array
from pathlib import Path

#: Layer name -> ``(module, owner, attribute)`` entry points it wraps.
#: ``owner`` is a class name, or ``None`` for a module-level function.
LAYERS: dict[str, tuple[tuple[str, str | None, str], ...]] = {
    "workloads": (
        ("repro.workloads.ycsb", "YcsbWorkload", "next_op"),
        ("repro.workloads.tpcc", "TpccWorkload", "next_transaction"),
    ),
    "core.access": (
        ("repro.core.buffer_manager", "BufferManager", "read"),
        ("repro.core.buffer_manager", "BufferManager", "write"),
    ),
    "core.fine_grained": (
        ("repro.core.fine_grained", "FineGrainedOps", "serve_resident_access"),
    ),
    "core.mapping": (
        ("repro.core.mapping_table", "MappingTable", "get"),
        ("repro.core.mapping_table", "MappingTable", "get_or_create"),
    ),
    "core.space": (
        ("repro.core.space_manager", "SpaceManager", "ensure_space"),
        ("repro.core.space_manager", "SpaceManager", "insert_with_space"),
        ("repro.core.space_manager", "SpaceManager", "evict_from_node"),
    ),
    "core.migration": (
        ("repro.core.migration", "MigrationEngine", "decide"),
    ),
    "replacement": (
        ("repro.replacement.clock", "ClockReplacer", "record_access"),
        ("repro.replacement.clock", "ClockReplacer", "victim"),
    ),
    "core.events": (
        ("repro.core.events", "EventBus", "publish"),
    ),
    "hardware.simclock": (
        ("repro.hardware.simclock", "CostAccumulator", "charge"),
        ("repro.hardware.simclock", "CostAccumulator", "end_cpu_batch"),
        ("repro.hardware.cost_model", "StorageHierarchy", "charge_cpu"),
    ),
    "hardware.device": (
        ("repro.hardware.device", "Device", "read"),
        ("repro.hardware.device", "Device", "write"),
        ("repro.hardware.device", "Device", "persist_barrier"),
    ),
    "wal": (
        ("repro.wal.log_manager", "LogManager", "append"),
        ("repro.wal.log_manager", "LogManager", "commit"),
    ),
    "wal.checkpoint": (
        ("repro.wal.checkpoint", "Checkpointer", "checkpoint"),
    ),
    "serve.admission": (
        ("repro.serve.admission", "AdmissionController", "try_admit"),
        ("repro.serve.admission", "AdmissionController", "release"),
    ),
    "serve.loadgen": (
        ("repro.serve.loadgen", None, "build_schedule"),
    ),
    "serve.slo": (
        ("repro.serve.slo", None, "build_slo_report"),
    ),
}


def _resolve(module: str, owner: str | None):
    target = importlib.import_module(module)
    return getattr(target, owner) if owner else target


class LayerTracer:
    """Wraps every entry point in :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        #: ``(layer, name, holder, attribute, original)`` per entry point.
        self.entry_points: list[tuple[str, str, object, str, object]] = []
        for layer, points in LAYERS.items():
            for module, owner, attr in points:
                holder = _resolve(module, owner)
                original = vars(holder)[attr]
                name = f"{owner}.{attr}" if owner else attr
                self.entry_points.append(
                    (layer, name, holder, attr, original))
        count = len(self.entry_points)
        self.calls = [0] * count
        self.self_s = [0.0] * count
        self.span_point = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: One ``[span id, child seconds]`` frame per open span.
        self._stack: list[list] = []

    # ------------------------------------------------------------------
    def install(self) -> LayerTracer:
        for index, (_layer, _name, holder, attr, original) in enumerate(
                self.entry_points):
            if vars(holder)[attr] is not original:
                raise RuntimeError(f"{holder.__name__}.{attr} is already "
                                   "wrapped")
            setattr(holder, attr, self._wrap(index, original))
        return self

    def uninstall(self) -> None:
        for _layer, _name, holder, attr, original in self.entry_points:
            setattr(holder, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute is the original again."""
        return all(vars(holder)[attr] is original
                   for _l, _n, holder, attr, original in self.entry_points)

    def __enter__(self) -> LayerTracer:
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def _wrap(self, index: int, fn):
        calls = self.calls
        self_s = self.self_s
        perf = time.perf_counter
        stack = self._stack
        points = self.span_point
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end

        def traced(*args, **kwargs):
            span = len(points)
            points.append(index)
            parents.append(stack[-1][0] if stack else -1)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf()
            starts.append(start)
            ends.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                ends[span] = end
                duration = end - start
                stack.pop()
                self_s[index] += duration - frame[1]
                calls[index] += 1
                if stack:
                    stack[-1][1] += duration
        return traced

    # ------------------------------------------------------------------
    def calls_by_point(self) -> dict[str, int]:
        return {name: self.calls[i]
                for i, (_l, name, *_rest) in enumerate(self.entry_points)}

    def by_layer(self) -> dict[str, dict]:
        """``{layer: {"calls": n, "self_s": s}}`` for every layer."""
        ledger = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for index, (layer, *_rest) in enumerate(self.entry_points):
            ledger[layer]["calls"] += self.calls[index]
            ledger[layer]["self_s"] += self.self_s[index]
        return ledger

    def span_self_s(self) -> list[float]:
        """Self seconds per entry point, recomputed from the stored spans."""
        durations = [end - start
                     for start, end in zip(self.span_start, self.span_end)]
        child = [0.0] * len(durations)
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[span]
        self_s = [0.0] * len(self.entry_points)
        for span, point in enumerate(self.span_point):
            self_s[point] += durations[span] - child[span]
        return self_s

    def write_spans(self, stem: Path) -> Path:
        """Write the spans as ``<stem>.json`` (schema) + ``<stem>.bin``.

        The binary file holds four native-endian columns one after
        another: entry-point index and parent span (int32), then start
        and end (float64, ``time.perf_counter`` seconds).
        """
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for column in (self.span_point, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(fh)
        header = {
            "spans": len(self.span_point),
            "columns": [["entry_point", "int32"], ["parent", "int32"],
                        ["start_s", "float64"], ["end_s", "float64"]],
            "entry_points": [[layer, name]
                             for layer, name, *_rest in self.entry_points],
            "pid": os.getpid(),
        }
        path = stem.with_suffix(".json")
        path.write_text(json.dumps(header, indent=1) + "\n")
        return path
