"""In-memory span recorder for the traced benchmark run.

A span has a name, a start and end time (``time.perf_counter`` seconds), the
index of its parent span and the id of the space it worked on.  Spans are
kept in parallel lists, because the exhaustive workload records a few
hundred thousand of them, and written out once as one JSON document.  A
span's self time is its duration minus the part of it that its child spans
cover; children never overlap, since the traced run is single-threaded.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class SpanRecorder:
    def __init__(self) -> None:
        self.names: "list[str]" = []
        self.starts: "list[float]" = []
        self.ends: "list[float]" = []
        self.parents: "list[int | None]" = []
        self.spaces: "list[int | None]" = []
        self._open: "list[int]" = []

    def begin(self, name: str, space: "int | None" = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else None)
        self.spaces.append(space)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def call(self, name: str, space: "int | None", fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        index = self.begin(name, space)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def self_times(self) -> "list[float]":
        """Duration minus child coverage, per span."""
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent is not None:
                out[parent] -= self.ends[index] - self.starts[index]
        return out

    def write(self, path: Path, meta: dict) -> None:
        """One JSON document: ``meta`` plus one row per span, times relative to the first span.

        Rows are written one at a time so that a large trace is never held
        twice in memory.
        """
        origin = self.starts[0] if self.starts else 0.0
        head = json.dumps(dict(meta, columns=["name", "start_s", "end_s", "parent", "space"]))
        rows = zip(self.names, self.starts, self.ends, self.parents, self.spaces)
        with path.open("w", encoding="utf-8") as out:
            out.write(head[:-1] + ', "spans": [')
            for index, (name, start, end, parent, space) in enumerate(rows):
                out.write(",\n" if index else "\n")
                out.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent, space]))
            out.write("\n]}\n")
