"""Request micro-batching: work-conserving by default, with an opt-in
max-latency deadline."""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import List, Optional


class InferenceRequest:
    """One queued inference request: payload, result future, retry count."""

    __slots__ = ("payload", "future", "enqueued_at", "attempts")

    def __init__(self, payload) -> None:
        self.payload = payload
        self.future: Future = Future()
        self.enqueued_at = time.monotonic()
        self.attempts = 0


class MicroBatcher:
    """Thread-safe request queue that releases micro-batches to workers.

    Flush policy: :meth:`next_batch` hands out up to ``max_batch``
    requests as soon as either the queue holds a full batch or the
    oldest queued request has waited ``max_latency_s``.  The default
    deadline of 0 is work-conserving: an idle worker takes whatever is
    queued, and a backlog built while every worker is busy still leaves
    in full batches.  Sessions pad every forward to ``max_batch`` rows,
    so waiting for more arrivals never makes a batch cheaper; a positive
    deadline trades latency for fewer forwards.  Crashed workers hand
    their in-flight requests back through :meth:`requeue`, which puts
    them at the *front* of the queue so retried work is never starved
    by new arrivals.
    """

    def __init__(self, max_batch: int = 8, max_latency_s: float = 0.0) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_latency_s < 0:
            raise ValueError("max_latency_s must be >= 0")
        self.max_batch = int(max_batch)
        self.max_latency_s = float(max_latency_s)
        self._pending: "deque[InferenceRequest]" = deque()
        self._condition = threading.Condition()
        self._closed = False
        self.submitted = 0

    @property
    def pending(self) -> int:
        with self._condition:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, payload) -> Future:
        """Enqueue one payload; returns the future carrying its result."""
        request = InferenceRequest(payload)
        with self._condition:
            if self._closed:
                raise RuntimeError("cannot submit to a closed MicroBatcher")
            self._pending.append(request)
            self.submitted += 1
            self._condition.notify_all()
        return request.future

    def requeue(self, requests: List[InferenceRequest]) -> None:
        """Put in-flight requests back at the front (crash recovery)."""
        with self._condition:
            for request in reversed(requests):
                self._pending.appendleft(request)
            self._condition.notify_all()

    def next_batch(self) -> Optional[List[InferenceRequest]]:
        """Block until a batch is due; ``None`` once closed and drained.

        Each returned request has had its ``attempts`` counter bumped,
        so retry accounting happens exactly once per dispatch.
        """
        with self._condition:
            while True:
                if self._pending:
                    oldest_age = time.monotonic() - self._pending[0].enqueued_at
                    remaining = self.max_latency_s - oldest_age
                    if len(self._pending) < self.max_batch and not self._closed and remaining > 0:
                        self._condition.wait(remaining)
                        continue
                    batch = self._take()
                    if batch:  # empty when every queued request was cancelled
                        return batch
                elif self._closed:
                    return None
                else:
                    self._condition.wait()

    def _take(self) -> List[InferenceRequest]:
        batch = []
        while self._pending and len(batch) < self.max_batch:
            request = self._pending.popleft()
            if _claim(request):
                request.attempts += 1
                batch.append(request)
        return batch

    def drain_pending(self) -> List[InferenceRequest]:
        """Remove and return every queued, uncancelled request (server
        shutdown); the caller must resolve each one."""
        with self._condition:
            remaining = [request for request in self._pending if _claim(request)]
            self._pending.clear()
            self._condition.notify_all()
        return remaining

    def close(self) -> None:
        """Stop accepting submissions; queued work can still be taken."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()


def _claim(request: InferenceRequest) -> bool:
    """Mark a request's future running as it first leaves the queue.

    False means the client cancelled it while queued: it is dropped,
    neither run nor failed.  A claimed future can no longer be
    cancelled, so resolving it never raises.
    """
    return request.attempts > 0 or request.future.set_running_or_notify_cancel()
