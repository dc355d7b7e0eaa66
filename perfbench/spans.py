"""Spans around the calls into each scenemerge layer, recorded from outside.

`Tracer.install` replaces public functions at the module attributes the
program calls them through with wrappers that record a span (name,
start, end, parent span, merge id) while a merge is active. Nothing in
``src/`` changes. A wrapped attribute that no longer exists is listed in
``missing`` instead of failing. Spans stay in memory until `take` hands
one merge's spans over; `merge_layers` turns them into layer figures.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time

# (module, attribute, span name): the call sites the program uses today.
WRAPPED = (
    ("scenemerge.cli", "load_config", "config.load"),
    ("scenemerge.cli", "read_document", "levelfile.read"),
    ("scenemerge.cli", "merge3", "merge.merge3"),
    ("scenemerge.cli", "write_document", "levelfile.write"),
    ("scenemerge.cli", "render_report", "report.render"),
    ("scenemerge.levelfile", "parse", "levelfile.parse"),
    ("scenemerge.levelfile", "serialize", "levelfile.serialize"),
    ("scenemerge.merge", "classify", "diff.classify"),
    ("scenemerge.merge", "validate", "graph.validate"),
    ("scenemerge.merge", "check_same_level", "diff.check_same_level"),
    ("scenemerge.diff", "validate", "graph.validate"),
)

# Spans that stand for a layer when they are outermost or directly under
# cli.main; the rest of cli.main is argument handling and glue.
LAYER_CALLS = ("config.load", "levelfile.read", "merge.merge3", "levelfile.write", "report.render")


def _merge_counts(args, outcome) -> dict[str, int]:
    stats = outcome.stats
    return {
        "edited_nodes": stats.diff_a_edited + stats.diff_b_edited,
        "conflicts": len(outcome.conflicts),
        "dropped": len(outcome.dropped),
        "cycle_edges_removed": len(outcome.removed_cycle_edges),
    }


def _parse_lines(args, doc) -> dict[str, int]:
    return {"lines": args[0].count("\n")}


NOTES = {"merge.merge3": _merge_counts, "levelfile.parse": _parse_lines}


class Tracer:
    """Span recorder; spans are lists ``[name, start, end, parent, merge_id, notes]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.merge_id: object = None
        self.gc_s: dict[object, float] = {}
        self.gc_gen2: dict[object, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.merge_id is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.merge_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def call(self, merge_id, name: str, fn, *args):
        """Run ``fn(*args)`` as merge ``merge_id``, itself recorded as span ``name``."""
        self.merge_id = merge_id
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.merge_id = None

    def take(self, merge_id) -> tuple[list[list], float, int]:
        """Hand over one merge's spans, GC seconds and full collections."""
        spans, self.spans = self.spans, []
        return spans, self.gc_s.pop(merge_id, 0.0), self.gc_gen2.pop(merge_id, 0)

    def _on_gc(self, phase: str, info: dict) -> None:
        if self.merge_id is None:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        key = self.merge_id
        self.gc_s[key] = self.gc_s.get(key, 0.0) + time.perf_counter() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2[key] = self.gc_gen2.get(key, 0) + 1

    def span_cost_s(self, calls: int = 20000) -> float:
        """Added cost of one recorded span, against a plain call."""

        def noop():
            return None

        wrapped = self.wrap("noop", noop)
        saved = (self.spans, self.merge_id)
        self.spans, self.merge_id = [], "cost"
        try:
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            plain = time.perf_counter() - start
        finally:
            self.spans, self.merge_id = saved
        return max(traced - plain, 0.0) / calls


def merge_layers(spans: list[list]) -> dict[str, float]:
    """Layer figures for the spans of one merge (indices are local)."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child_s[span[3]] += span[2] - span[1]
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    notes: dict[str, float] = {}
    layer_calls_s = 0.0
    for index, (name, start, end, parent, _, note) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + end - start - child_s[index]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (note or {}).items():
            notes[key] = notes.get(key, 0) + value
        if name in LAYER_CALLS and (parent is None or spans[parent][0] == "cli.main"):
            layer_calls_s += end - start
    parse_s = total.get("levelfile.parse", 0.0)
    return {
        "cli.main_self_s": self_s.get("cli.main", 0.0),
        "config.load_s": total.get("config.load", 0.0),
        "levelfile.parse_s": parse_s,
        "levelfile.parse_calls": calls.get("levelfile.parse", 0),
        "levelfile.parse_lines_per_s": notes.get("lines", 0) / parse_s if parse_s else 0.0,
        "levelfile.read_io_s": self_s.get("levelfile.read", 0.0),
        "levelfile.serialize_s": total.get("levelfile.serialize", 0.0),
        "levelfile.write_io_s": self_s.get("levelfile.write", 0.0),
        "graph.validate_s": total.get("graph.validate", 0.0),
        "graph.validate_calls": calls.get("graph.validate", 0),
        "diff.classify_self_s": self_s.get("diff.classify", 0.0),
        "diff.classify_calls": calls.get("diff.classify", 0),
        "merge.merge3_s": total.get("merge.merge3", 0.0),
        "merge.self_s": self_s.get("merge.merge3", 0.0),
        "merge.edited_nodes": notes.get("edited_nodes", 0),
        "merge.conflicts": notes.get("conflicts", 0),
        "merge.dropped": notes.get("dropped", 0),
        "merge.cycle_edges_removed": notes.get("cycle_edges_removed", 0),
        "report.render_s": total.get("report.render", 0.0),
        "_layer_calls_s": layer_calls_s,
        "_spans": len(spans),
    }
