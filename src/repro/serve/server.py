"""Supervised multi-worker inference server (proactor-style).

Workers pull micro-batches from a shared :class:`MicroBatcher` and run
them through their own :class:`InferenceSession`.  A supervisor thread
restarts any worker that dies; the dying worker hands its in-flight
requests back to the queue front first, so a crash costs a retry, not
an answer.  Requests whose retry budget is exhausted fail with the
underlying error instead of retrying forever (a poison request must
not wedge the pool).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

import numpy as np

from .batcher import InferenceRequest, MicroBatcher


class InferenceServer:
    """Worker pool over one model's sessions.

    Parameters
    ----------
    session_factory:
        Zero-argument callable returning a fresh session per worker
        (e.g. ``lambda: registry.session("mnist")``).  Sessions are
        per-thread because spiking forwards are stateful.
    workers:
        Worker thread count.
    max_batch / max_latency_s:
        Micro-batch flush policy (see :class:`MicroBatcher`); the
        default deadline of 0 hands queued requests to the first idle
        worker.
    max_attempts:
        Dispatch attempts per request before its future fails.
    max_restarts:
        Total worker restarts before the server gives up and fails all
        queued work (guards against a factory that can never succeed).
    """

    def __init__(
        self,
        session_factory: Callable[[], object],
        workers: int = 2,
        max_batch: int = 8,
        max_latency_s: float = 0.0,
        max_attempts: int = 3,
        max_restarts: int = 8,
        supervise_interval_s: float = 0.01,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self._session_factory = session_factory
        self.workers = int(workers)
        self.max_attempts = int(max_attempts)
        self.max_restarts = int(max_restarts)
        self.supervise_interval_s = float(supervise_interval_s)
        self.batcher = MicroBatcher(max_batch=max_batch, max_latency_s=max_latency_s)
        self._threads: List[threading.Thread] = []
        self._supervisor: Optional[threading.Thread] = None
        self._running = False
        self._aborted = False
        self._stats_lock = threading.Lock()
        self._completed = 0
        self._failed = 0
        self._batches = 0
        self._restarts = 0
        self._largest_batch = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceServer":
        if self._running:
            return self
        self._running = True
        self._threads = [self._spawn(index) for index in range(self.workers)]
        self._supervisor = threading.Thread(
            target=self._supervise, name="infer-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut the pool down; ``drain=True`` answers queued work first."""
        if not self._running:
            return
        self._running = False
        leftovers: List[InferenceRequest] = []
        if not drain:
            leftovers = self.batcher.drain_pending()
        self.batcher.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
        leftovers.extend(self.batcher.drain_pending())
        self._fail_requests(leftovers, RuntimeError("inference server stopped"))

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, sample) -> Future:
        """Enqueue one sample; the future resolves to its output row."""
        return self.batcher.submit(np.asarray(sample, dtype=np.float32))

    def predict(self, sample, timeout: Optional[float] = None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(sample).result(timeout=timeout)

    def stats(self) -> Dict[str, int]:
        with self._stats_lock:
            return {
                "submitted": self.batcher.submitted,
                "completed": self._completed,
                "failed": self._failed,
                "batches": self._batches,
                "restarts": self._restarts,
                "largest_batch": self._largest_batch,
                "workers_alive": sum(
                    thread.is_alive() for thread in self._threads
                ),
            }

    # ------------------------------------------------------------------
    # Worker / supervisor loops
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> threading.Thread:
        thread = threading.Thread(
            target=self._worker_loop, name=f"infer-worker-{index}", daemon=True
        )
        thread.start()
        return thread

    def _worker_loop(self) -> None:
        # A session-factory failure kills the worker before any batch is
        # taken; the supervisor replaces it and queued requests wait.
        session = self._session_factory()
        while True:
            batch = self.batcher.next_batch()
            if batch is None:
                return
            try:
                inputs = np.stack([request.payload for request in batch])
                outputs = session.predict(inputs)
            except BaseException as error:
                self._handle_crash(batch, error)
                raise
            for request, output in zip(batch, outputs):
                request.future.set_result(output)
            with self._stats_lock:
                self._completed += len(batch)
                self._batches += 1
                self._largest_batch = max(self._largest_batch, len(batch))

    def _handle_crash(self, batch: List[InferenceRequest], error: BaseException) -> None:
        retry = [r for r in batch if r.attempts < self.max_attempts]
        exhausted = [r for r in batch if r.attempts >= self.max_attempts]
        if retry:
            self.batcher.requeue(retry)
        self._fail_requests(exhausted, error)

    def _fail_requests(self, requests: List[InferenceRequest], error: BaseException) -> None:
        for request in requests:
            if not request.future.done():
                request.future.set_exception(error)
        if requests:
            with self._stats_lock:
                self._failed += len(requests)

    def _supervise(self) -> None:
        while self._running:
            for index, thread in enumerate(self._threads):
                if not self._running:
                    return
                if thread.is_alive():
                    continue
                if self._restarts >= self.max_restarts:
                    self._abort()
                    return
                with self._stats_lock:
                    self._restarts += 1
                self._threads[index] = self._spawn(index)
            time.sleep(self.supervise_interval_s)

    def _abort(self) -> None:
        """Restart budget exhausted: fail everything still queued."""
        self._aborted = True
        self.batcher.close()
        self._fail_requests(
            self.batcher.drain_pending(),
            RuntimeError(
                f"inference server gave up after {self.max_restarts} "
                "worker restarts"
            ),
        )
