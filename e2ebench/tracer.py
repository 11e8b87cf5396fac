"""Spans recorded from outside the program, around calls into each layer.

:class:`Tracer` replaces a public function or method with a timing wrapper
(:meth:`Tracer.wrap`) and puts every original back on :meth:`Tracer.restore`.
Each finished call is one span ``(id, name, start, end, parent, request)``.
Per name it keeps the call count, the total duration and the self time — the
duration minus the time its child spans cover.  Aggregates cover every span;
the span log itself is capped so a long run cannot exhaust memory.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

SPAN_LOG_CAP = 50_000


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: name -> sum of the ``count`` callback over its calls
        self.counters: Dict[str, int] = {}
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[str]]] = []
        self.dropped = 0

    # ------------------------------------------------------------------ spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> list:
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [span_id, parent, 0.0, time.perf_counter()]
        stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, request: Optional[str]) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, parent, child_seconds, start = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_seconds
            if len(self.spans) < SPAN_LOG_CAP:
                self.spans.append((span_id, name, start, end, parent, request))
            else:
                self.dropped += 1

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame, request)

    # ------------------------------------------------------------------ patching
    def wrap(self, owner: Any, attribute: str, name: str,
             count: Optional[Callable[[tuple, dict], int]] = None) -> None:
        """Time every call of ``owner.attribute`` as span ``name``.

        ``count(args, kwargs)``, when given, is summed into
        ``counters[name]`` (work done per call, such as lanes stepped).
        """
        original = _original(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None:
                with tracer._lock:
                    tracer.counters[name] = tracer.counters.get(name, 0) + count(args, kwargs)
            frame = tracer._open()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(name, frame, None)

        self.patch(owner, attribute, traced)

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        """Replace ``owner.attribute`` until :meth:`restore`."""
        self._patches.append((owner, attribute, _original(owner, attribute)))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ results
    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def counter(self, name: str) -> int:
        return int(self.counters.get(name, 0))

    def total(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[1])

    def self_time(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[2])

    def mean_self_us(self, name: str) -> float:
        calls = self.calls(name)
        return self.self_time(name) / calls * 1e6 if calls else 0.0

    def write(self, path) -> None:
        """Write aggregates and the (capped) span log as one JSON document."""
        document = {
            "layers": {name: {"calls": int(c), "total_s": t, "self_s": s}
                       for name, (c, t, s) in sorted(self.stats.items())},
            "span_fields": ["id", "name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "counters": self.counters,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))


def _original(owner: Any, attribute: str) -> Any:
    """The attribute as defined on ``owner`` itself (not inherited, not bound)."""
    return owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
