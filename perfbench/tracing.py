"""In-memory spans recorded around calls into opscale's modules.

Spans are taken from the benchmark's side of each call, never from inside
the library.  Each span has an id, the id of the span that was open when
it started (its parent), a ``layer.call`` name, start and end times in
nanoseconds and a few attributes.  Spans stay in memory and are returned
with the worker's result when the run ends.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def _parent(self):
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        record = {"id": sid, "parent": self._parent(), "name": name, "attrs": attrs}
        self.spans.append(record)
        self._open.append(sid)
        record["start"] = perf_counter_ns()
        try:
            yield record
        finally:
            record["end"] = perf_counter_ns()
            self._open.pop()

    def record(self, name: str, start: int, end: int, **attrs) -> None:
        """Add a span from timestamps the caller already took."""
        self.spans.append({
            "id": len(self.spans), "parent": self._parent(), "name": name,
            "attrs": attrs, "start": start, "end": end,
        })

    @contextmanager
    def patched(self, module, attr: str, name: str, describe=None):
        """Record a span around every call of ``module.attr`` while open.

        ``describe(*args, **kwargs)`` returns the span's attributes.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = describe(*args, **kwargs) if describe else {}
            with self.span(name, **attrs) as rec:
                result = original(*args, **kwargs)
            rec["result"] = result
            return result

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def between(self, start: int, end: int, name: str | None = None, **match):
        """Spans inside ``[start, end]``, optionally filtered by name and attributes."""
        return [
            s for s in self.spans
            if start <= s["start"] and s["end"] <= end
            and (name is None or s["name"] == name)
            and all(s["attrs"].get(k) == v for k, v in match.items())
        ]


def span_cost_s(calls: int = 5000) -> float:
    """Cost in seconds of recording one span, by its dearest route.

    Times ``calls`` calls of a patched no-op with an attribute callback,
    less the same calls unpatched, on a tracer of its own.  Every span of a
    run costs at most this much, so spans times this cost bounds the time
    tracing added to the run.
    """
    class Target:
        @staticmethod
        def call(x):
            return x

    def loop() -> int:
        t0 = perf_counter_ns()
        for i in range(calls):
            Target.call(i)
        return perf_counter_ns() - t0

    loop()  # warm-up
    bare = loop()
    with Tracer().patched(Target, "call", "probe", lambda x: {"n": x}):
        traced = loop()
    return max(traced - bare, 0) / calls / 1e9


def duration_s(span) -> float:
    return (span["end"] - span["start"]) / 1e9


def total_s(spans) -> float:
    return sum(duration_s(s) for s in spans)


def self_times(spans) -> dict:
    """Self time in seconds of each span: its duration minus its children's.

    Spans of one thread nest without overlapping, so the children of a span
    cover exactly the sum of their durations.
    """
    own = {s["id"]: duration_s(s) for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= duration_s(s)
    return own


def coverage(spans, wall_s: float) -> float:
    """Summed self time of ``spans`` over the wall time they were taken in."""
    return sum(self_times(spans).values()) / wall_s


def export(spans) -> list:
    """Spans as JSON-ready dicts, without the call results kept for checks."""
    return [{k: v for k, v in s.items() if k != "result"} for s in spans]
