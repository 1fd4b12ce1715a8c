"""In-memory spans around calls into the program's layers.

A span records a name, its start and end (``perf_counter`` seconds),
the index of the span that encloses it and the request it belongs to.
Spans whose name is a layer (``"enumeration.graph"``, ...) attribute
time to that layer; spans named ``"phase"`` only group others (a set-up,
one replayed request, a slice of the serving loop), so their self time
is time the trace could not attribute to any layer.

Spans stay in memory and are written out once, when the run ends.  The
benchmark opens every span from its own code, around a public call into
the program; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self.tracer
        tracer.ends[self.index] = perf_counter()
        tracer.stack.pop()


class Tracer:
    """Collects spans; ``span(name)`` is a context manager."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.labels: list[str | None] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.request = -1

    def span(self, name: str, label: str | None = None) -> _Span:
        index = len(self.names)
        self.names.append(name)
        self.labels.append(label)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(perf_counter())
        return _Span(self, index)

    # -- Reduction ------------------------------------------------------------
    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        durations = self.durations()
        out = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= durations[index]
        return out

    def _root(self, index: int) -> int:
        while self.parents[index] >= 0:
            index = self.parents[index]
        return index

    def _in_phase(self, label: str) -> list[bool]:
        """Per span: whether its root is a phase labelled ``label``."""
        roots = [self._root(i) for i in range(len(self.names))]
        return [
            self.names[r] == "phase" and self.labels[r] == label for r in roots
        ]

    def phase_summary(self, label: str) -> dict[str, float]:
        """Self seconds per span name inside the phases labelled ``label``.

        The entry ``"wall"`` is the phases' total duration; every other
        entry sums to it (the phase spans' own self time included).
        """
        durations = self.durations()
        selfs = self.self_times()
        summary: dict[str, float] = defaultdict(float)
        for index, inside in enumerate(self._in_phase(label)):
            if inside:
                summary[self.names[index]] += selfs[index]
                if self.parents[index] < 0:
                    summary["wall"] += durations[index]
        return dict(summary)

    def phase_calls_each(self, label: str, name: str) -> list[float]:
        """Seconds of every span called ``name`` inside phases labelled
        ``label``."""
        durations = self.durations()
        return [
            durations[i] for i, inside in enumerate(self._in_phase(label))
            if inside and self.names[i] == name
        ]

    def phase_calls(self, label: str, name: str) -> list[float]:
        """Total seconds of spans called ``name`` per phase labelled
        ``label`` (one value per phase, in order)."""
        durations = self.durations()
        per_root: dict[int, float] = {}
        for index, inside in enumerate(self._in_phase(label)):
            if inside and self.parents[index] < 0:
                per_root[index] = 0.0
        for index, span_name in enumerate(self.names):
            if span_name == name:
                root = self._root(index)
                if root in per_root:
                    per_root[root] += durations[index]
        return [per_root[i] for i in sorted(per_root)]

    def dump(self, path) -> None:
        """Write every span as one JSON document."""
        spans = [
            {
                "name": name,
                "label": label,
                "start": start,
                "end": end,
                "parent": parent,
                "request": request,
            }
            for name, label, start, end, parent, request in zip(
                self.names, self.labels, self.starts, self.ends,
                self.parents, self.requests,
            )
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans}, handle)


class NullTracer:
    """The same interface with nothing recorded (the untraced passes)."""

    request = -1

    class _Null:
        __slots__ = ()

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

    _NULL = _Null()

    def span(self, name: str, label: str | None = None) -> "_Null":
        return self._NULL
