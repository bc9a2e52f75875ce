"""Spans around the benchmark's calls into pgmatch, kept in memory.

A span records its name, start, end, the span that caused it and the cell it
belongs to. A layer's self time is its span's duration minus the part its
child spans cover. The untraced path is ``NullTracer``, whose ``call`` is a
plain function call, so end-to-end numbers are taken without spans.
"""

from __future__ import annotations

import json
import time


class NullTracer:
    cell = ""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, cell id)
        self.counts: dict = {}
        self.cell = ""
        self._stack: list = []

    def call(self, name, fn, *args):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.cell)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def mark(self) -> tuple:
        """A position to aggregate from: spans and counts recorded after it."""
        return len(self.spans), dict(self.counts)

    def layer_totals(self, since: tuple) -> dict:
        """Self ms and call count per span name, plus every counter, over the
        spans recorded since ``since``."""
        first, counts_before = since
        child_ms = [0.0] * (len(self.spans) - first)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                child_ms[parent - first] += (end - start) * 1000.0
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans[first:]):
            out[f"{name}.ms"] = out.get(f"{name}.ms", 0.0) + (end - start) * 1000.0 - child_ms[i]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for name, n in self.counts.items():
            out[name] = n - counts_before.get(name, 0)
        return out

    def write(self, path: str, extra: dict) -> None:
        """Write every span once, at the end of the run."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start_ms": (s - origin) * 1000.0, "end_ms": (e - origin) * 1000.0, "parent": p, "cell": c}
            for n, s, e, p, c in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=rows), fh)
