"""In-memory span recorder for the traced pass.

The benchmark measures every layer *from outside*: a span is opened
around a call into a layer's public function, kept in a list, and
written out as one Chrome-trace JSON when the pass ends.  A span's self
time is its duration minus the part covered by its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

__all__ = ["Tracer"]


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> None:
        tr = self.tracer
        tr._stack.append(self.index)
        tr.spans[self.index][1] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tr = self.tracer
        tr.spans[self.index][2] = end
        tr._stack.pop()


class Tracer:
    """Records ``[name, start, end, parent, op, args]`` per span.

    ``op`` is the operation id every span of one operation shares:
    :meth:`new_op` before opening the operation's root span, ``None``
    for spans that belong to no operation.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self._ops = 0

    def new_op(self) -> int:
        self.op = self._ops
        self._ops += 1
        return self.op

    def span(self, name: str, **args) -> _Span:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.op, args])
        return _Span(self, len(self.spans) - 1)

    def durations(self) -> list[float]:
        return [s[2] - s[1] for s in self.spans]

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children."""
        out = self.durations()
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def per_op(self, key) -> dict[int, dict]:
        """``{op: {key(span): summed self time}}`` over all spans that
        carry an operation id."""
        acc: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        for s, self_t in zip(self.spans, self.self_times()):
            if s[4] is not None:
                acc[s[4]][key(s)] += self_t
        return acc

    def write_chrome_trace(self, path, **meta) -> None:
        """One ``X`` event per span; parent index and op id ride in args."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": s[0], "ph": "X", "pid": 1, "tid": 1,
                "ts": (s[1] - t0) * 1e6, "dur": (s[2] - s[1]) * 1e6,
                "args": {"id": i, "parent": s[3], "op": s[4], **s[5]},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "metadata": meta}, f)
