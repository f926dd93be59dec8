"""In-memory spans recorded around calls into the program's layers.

A span is (name, start, end, parent span index, op id). Op spans
(agg.round, rec.publish, rec.open, rec.revoke, scn.pass, setup) have no
parent; layer spans name the op span that was open when they ran. Spans are
kept in a list and written out once the run ends.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    """Tracing off: layer calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def start(self) -> float:
        return 0.0

    def end(self, name: str, started: float) -> None:
        pass

    @contextmanager
    def op(self, name: str):
        yield


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self._open: int | None = None
        self._op_id = -1

    def call(self, name, fn, *args, **kwargs):
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, started, perf_counter(), self._open, self._op_id))

    def start(self) -> float:
        return perf_counter()

    def end(self, name: str, started: float) -> None:
        self.spans.append((name, started, perf_counter(), self._open, self._op_id))

    @contextmanager
    def op(self, name: str):
        self._op_id += 1
        index = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0, None, self._op_id))
        self._open = index
        try:
            yield
        finally:
            self._open = None
            _, started, _, _, op_id = self.spans[index]
            self.spans[index] = (name, started, perf_counter(), None, op_id)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time (ms) and median duration (ms).

        Self time is a span's duration minus the time its child spans cover;
        layer spans here have no children, so only op spans lose time.
        """
        child_ms: dict[int, float] = defaultdict(float)
        for _, started, ended, parent, _ in self.spans:
            if parent is not None:
                child_ms[parent] += (ended - started) * 1e3
        durations: dict[str, list[float]] = defaultdict(list)
        self_ms: dict[str, float] = defaultdict(float)
        for index, (name, started, ended, _, _) in enumerate(self.spans):
            duration = (ended - started) * 1e3
            durations[name].append(duration)
            self_ms[name] += duration - child_ms.get(index, 0.0)
        return {name: {"calls": len(values), "self_ms": self_ms[name],
                       "p50_ms": statistics.median(values)}
                for name, values in durations.items()}

    def child_totals(self, op_name: str) -> dict[str, float]:
        """Total ms of each child span name under ops of the given name."""
        op_indices = {i for i, span in enumerate(self.spans) if span[0] == op_name}
        totals: dict[str, float] = defaultdict(float)
        for name, started, ended, parent, _ in self.spans:
            if parent in op_indices:
                totals[name] += (ended - started) * 1e3
        return dict(totals)

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, started, ended, parent, op_id in self.spans:
                handle.write(json.dumps({
                    "name": name, "start_ms": round((started - origin) * 1e3, 4),
                    "end_ms": round((ended - origin) * 1e3, 4),
                    "parent": parent, "op": op_id}) + "\n")
