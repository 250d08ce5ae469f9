"""In-memory spans for the traced run.

A span covers one call the benchmark makes into a layer of inlslab: its
name is ``<layer>.<function>``, it records start and end times, the span
that was open when it started, the pass it belongs to, and attributes the
caller attaches (iterations, residuals, convergence). Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "attrs")

    def __init__(self, name, start, parent, pass_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.pass_id = pass_id
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)


class _Unrecorded:
    """Stand-in yielded by an untraced span: attributes are dropped."""

    def set(self, **attrs) -> None:
        pass


_UNRECORDED = _Unrecorded()


class Tracer:
    """Records spans when ``enabled``; otherwise every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.pass_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield _UNRECORDED
            return
        parent = self._open[-1] if self._open else None
        sp = Span(name, perf_counter(), parent, self.pass_id)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def layer_seconds(self) -> dict[str, float]:
        """Time inside top-level spans, summed per layer (the name's first part)."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.parent is None:
                layer = s.name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + s.seconds
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "pass": s.pass_id,
                    "start_s": s.start - t0, "end_s": s.end - t0, "attrs": s.attrs,
                }) + "\n")
