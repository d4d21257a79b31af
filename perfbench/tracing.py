"""In-memory span tracer that instruments the system from outside.

The benchmark never edits the program: it wraps public functions and
methods at layer boundaries — module and class attributes directly,
instance attributes through the hooks the program offers (trainer
callbacks, the session factories the benchmark passes to its servers).
Every wrapped call records a span (name, start, end, parent) on a
per-thread stack, so a span's self time is its duration minus the time
its direct children cover.  Spans stay in memory and are aggregated
when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans from any thread; restores every patch on close."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        with self._lock:
            self.spans.append(span)
        return span

    def discard(self, span: Span) -> None:
        """Drop an open span without recording it."""
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- patching --------------------------------------------------------
    def traced(self, name: str, fn: Callable, on_exit=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_exit is not None:
                on_exit(span, args, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Replace ``owner.attr`` (module, class or instance) by a
        span-recording wrapper; :meth:`close` puts the original back."""
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.traced(name, getattr(owner, attr), on_exit))
        self._patches.append((owner, attr, own))

    def close(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- aggregation -------------------------------------------------------
    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def child_totals(self, parent_name: str) -> Dict[str, float]:
        """Seconds per child name, summed over direct children of
        every ``parent_name`` span."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None and span.parent.name == parent_name:
                totals[span.name] += span.duration
        return totals

    def span_cost_s(self, calls: int = 20000) -> float:
        """Measured cost of one wrapped call around an empty function."""
        probe = Tracer()
        fn = probe.traced("probe", lambda: None)
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls
