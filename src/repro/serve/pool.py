"""One supervised worker pool behind both servers.

:class:`SupervisedPool` owns what the batch and stream servers share:
worker threads, one server-owned session per worker slot, the
supervisor, crash handling and shutdown.  A subclass supplies only how
a batch runs through a session (:meth:`SupervisedPool._run`).

* Worker ``i`` drains ``queues[i % len(queues)]``: one shared
  :class:`~repro.serve.batcher.MicroBatcher` spreads requests over all
  workers, one queue per worker makes strict-FIFO shards.
* :meth:`~SupervisedPool.start` builds all slots' sessions in parallel,
  slot 0 on the calling thread (a session built on a worker thread
  leaves its build garbage in that thread's malloc arena, which costs
  peak RSS), and returns once all are built.  If a factory raises,
  ``start`` re-raises it and leaves the pool stopped.  A pool starts
  once: ``start`` after ``stop`` raises.
* Sessions live from ``start`` to ``stop`` and survive worker
  restarts: an inference session resets its membranes on every
  forward and a stream session's ``process`` is transactional, so a
  worker dying mid-batch leaves its session intact.
* A dying worker hands its batch back to its queue front; a request
  whose attempts are used up fails with the worker's error instead (a
  poison request must not wedge the pool).  The supervisor replaces
  dead workers until the restart budget is spent, then fails
  everything queued.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from .batcher import InferenceRequest, MicroBatcher


class SupervisedPool:
    """Supervised worker threads over server-owned sessions.

    Each of ``workers`` slots gets one session from ``session_factory``;
    worker ``i`` drains ``queues[i % len(queues)]``.  A request is
    dispatched at most ``max_attempts`` times, and once ``max_restarts``
    workers have been replaced the pool fails all queued work.
    """

    #: Names the server in thread names and error messages.
    name = "pool"

    def __init__(
        self,
        session_factory: Callable[[], object],
        workers: int,
        queues: Sequence[MicroBatcher],
        max_attempts: int,
        max_restarts: int,
        supervise_interval_s: float,
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
        self._queues = list(queues)
        self._sessions: List[Optional[object]] = [None] * self.workers
        self._threads: List[threading.Thread] = []
        self._supervisor: Optional[threading.Thread] = None
        self._running = False
        self._stats_lock = threading.Lock()
        self._completed = 0
        self._failed = 0
        self._restarts = 0

    def start(self):
        """Build every slot's session, then serve; a no-op while running."""
        if self._running:
            return self
        if self._queues[0].closed:
            raise RuntimeError(f"{self.name} server cannot start again after stop()")
        self._running = True
        errors: List[Optional[BaseException]] = [None] * self.workers
        built = threading.Barrier(self.workers + 1)
        self._threads = [
            self._spawn(f"worker-{i}", self._worker_loop, i, built, errors)
            for i in range(self.workers)
        ]
        self._build(0, errors)
        built.wait()
        failure = next((error for error in errors if error is not None), None)
        if failure is not None:
            self.stop(drain=False)
            raise failure
        self._supervisor = self._spawn("supervisor", self._supervise)
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut the pool down; ``drain=True`` answers queued work first."""
        if not self._running:
            return
        self._running = False
        leftovers = [] if drain else self._drain()
        for queue in self._queues:
            queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
        self._sessions = [None] * self.workers
        leftovers.extend(self._drain())
        self._fail(leftovers, RuntimeError(f"{self.name} server stopped"))

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stats(self) -> Dict[str, object]:
        with self._stats_lock:
            return {
                "submitted": sum(queue.submitted for queue in self._queues),
                "completed": self._completed,
                "failed": self._failed,
                "restarts": self._restarts,
                "workers_alive": sum(thread.is_alive() for thread in self._threads),
            }

    def _run(self, session, payloads: List[object]) -> Sequence[object]:
        """One result per payload; raising counts as a worker crash."""
        raise NotImplementedError

    def _spawn(self, name: str, target: Callable, *args) -> threading.Thread:
        thread = threading.Thread(
            target=target, args=args, name=f"{self.name}-{name}", daemon=True
        )
        thread.start()
        return thread

    def _build(self, index: int, errors: List[Optional[BaseException]]) -> None:
        try:
            self._sessions[index] = self._session_factory()
        except BaseException as error:  # re-raised by start()
            errors[index] = error

    def _worker_loop(self, index: int, built=None, errors=None) -> None:
        if built is not None:
            if index:  # slot 0 is built by start()'s calling thread
                self._build(index, errors)
            built.wait()
            if any(error is not None for error in errors):
                return
        queue = self._queues[index % len(self._queues)]
        session = self._sessions[index]
        while True:
            # Looked up on the queue at every call, so a wrapped
            # ``next_batch`` (queue-wait tracing) takes effect at once.
            batch = queue.next_batch()
            if batch is None:
                return
            try:
                results = self._run(session, [request.payload for request in batch])
            except BaseException as error:
                queue.requeue([r for r in batch if r.attempts < self.max_attempts])
                self._fail([r for r in batch if r.attempts >= self.max_attempts], error)
                raise
            with self._stats_lock:
                self._completed += len(batch)
            for request, result in zip(batch, results):
                request.future.set_result(result)

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
                self._threads[index] = self._spawn(f"worker-{index}", self._worker_loop, index)
            time.sleep(self.supervise_interval_s)

    def _abort(self) -> None:
        """Restart budget spent: fail everything queued, including what
        workers still alive hand back when they crash."""
        error = RuntimeError(
            f"{self.name} server gave up after {self.max_restarts} worker restarts"
        )
        for queue in self._queues:
            queue.close()
        while True:
            # A worker requeues before it dies, so the drain after the
            # last one died catches everything.
            alive = any(thread.is_alive() for thread in self._threads)
            self._fail(self._drain(), error)
            if not alive or not self._running:
                return
            time.sleep(self.supervise_interval_s)

    def _drain(self) -> List[InferenceRequest]:
        return [request for queue in self._queues for request in queue.drain_pending()]

    def _fail(self, requests: List[InferenceRequest], error: BaseException) -> None:
        with self._stats_lock:
            self._failed += len(requests)
        # Every request out of a queue is claimed (see MicroBatcher), so
        # no client can cancel it under us.
        for request in requests:
            request.future.set_exception(error)
