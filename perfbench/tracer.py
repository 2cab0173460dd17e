"""In-memory span tracer that wraps public functions of minmaxot from outside.

A wrapped function records one span per call: name, start, end, parent span
and step index. Wrapping rebinds the module or class attribute the caller
looks up at call time, so nothing in the package changes. A name that no
longer exists is recorded as absent instead of failing.

The step index is a counter that hooks advance (one per trajectory record
for the particle flow, one per kernel pass for the response layer); spans
started before the first advance carry step -1, the set-up phase.
"""

from __future__ import annotations

import csv
import functools
import time

COUNTERS_SPAN = "trace.counters"


class SetupReached(Exception):
    """Raised by a probe to stop a run once its set-up phase is over."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, step]
        self.absent: list[str] = []
        self.step = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.step])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_call=None, on_return=None) -> bool:
        """Rebind ``owner.attr`` to a spanning wrapper.

        ``on_call(args, kwargs)`` runs before the span opens; ``on_return(args,
        kwargs, result)`` runs after it closes, inside a span of its own
        (``trace.counters``) so the time it takes is nobody's self time.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None:
                cidx = self._open(COUNTERS_SPAN)
                try:
                    on_return(args, kwargs, result)
                finally:
                    self._close(cidx)
            return result

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        return True

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "step"])
            for i, (name, start, end, parent, step) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent, step])


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    own = [s[2] - s[1] for s in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
