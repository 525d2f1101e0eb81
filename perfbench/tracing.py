"""In-memory spans recorded around the benchmark's own calls into csaloha.

A span is (name, start, end, parent, pass id). The layer of a span is the
part of its name before the first dot (``de_coupled.coupled_threshold`` ->
``de_coupled``). Spans stay in memory until ``write`` is called at the end of
a run, so file I/O never lands inside a timed region.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Stands in for Tracer in untraced runs: spans cost one method call."""

    pass_id = 0

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.pass_id)

    def durations(self, name: str, pass_id: int | None = None) -> list[float]:
        """Durations of the closed spans with this exact name, in start order."""
        return [
            s.seconds
            for s in self.spans
            if s is not None and s.name == name and pass_id in (None, s.pass_id)
        ]

    def total(self, name: str, pass_id: int | None = None) -> float:
        return sum(self.durations(name, pass_id))

    def layer_self_times(self) -> dict[str, dict[str, float]]:
        """Self time per layer (span duration minus the time its child spans
        cover), grouped by the name of the root span the work ran under:
        bench.pass for timed passes, bench.attribute for re-walks and
        replays, bench.probe for layer probes."""
        child = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                child[s.parent] += s.seconds
                root[i] = root[s.parent]
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            layers = out.setdefault(self.spans[root[i]].name, {})
            layers[s.layer] = layers.get(s.layer, 0.0) + s.seconds - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")
