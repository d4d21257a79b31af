"""Supervised multi-worker inference server (proactor-style).

Workers pull micro-batches from one shared :class:`MicroBatcher` and
run them through their slot's :class:`InferenceSession`; supervision is
the :class:`~repro.serve.pool.SupervisedPool` contract.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

import numpy as np

from .batcher import MicroBatcher
from .pool import SupervisedPool


class InferenceServer(SupervisedPool):
    """Worker pool over one model's sessions.

    Parameters
    ----------
    session_factory:
        Zero-argument callable returning a fresh session per worker
        (e.g. ``lambda: registry.session("mnist")``).  Sessions are
        per worker slot because spiking forwards are stateful.
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
        queued work.
    """

    name = "inference"

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
        self.batcher = MicroBatcher(max_batch=max_batch, max_latency_s=max_latency_s)
        super().__init__(
            session_factory, workers, [self.batcher],
            max_attempts, max_restarts, supervise_interval_s,
        )
        self._batches = 0
        self._largest_batch = 0

    def submit(self, sample) -> Future:
        """Enqueue one sample; the future resolves to its output row."""
        return self.batcher.submit(np.asarray(sample, dtype=np.float32))

    def predict(self, sample, timeout: Optional[float] = None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(sample).result(timeout=timeout)

    def stats(self) -> Dict[str, int]:
        stats = super().stats()
        stats.update(batches=self._batches, largest_batch=self._largest_batch)
        return stats

    def _run(self, session, payloads: List[np.ndarray]) -> np.ndarray:
        outputs = session.predict(np.stack(payloads))
        with self._stats_lock:
            self._batches += 1
            self._largest_batch = max(self._largest_batch, len(payloads))
        return outputs
