"""Supervised streaming workers beside the micro-batch server.

A :class:`StreamServer` serves an event feed instead of request
batches.  A stream's events must hit its session in arrival order, so
streams are routed to ``workers`` shards by a stable hash of
``stream_id``; each shard is one strict-FIFO
:class:`~repro.serve.batcher.MicroBatcher` (``max_batch=1``) drained
by one worker, so per-stream order is preserved (requeue-to-front
keeps it across crashes) while distinct streams run in parallel.

Supervision is the :class:`~repro.serve.pool.SupervisedPool` contract
shared with the batch server.  Its server-owned sessions keep
per-stream state across worker crashes: ``StreamSession.process`` is
transactional, so an event that killed its worker retries from the
shard front with no membrane state or readout lost.
"""

from __future__ import annotations

import zlib
from concurrent.futures import Future
from typing import Callable, Dict, Iterable, List, Optional

from ..stream.events import StreamEvent
from ..stream.session import StreamResult, StreamSession
from .batcher import MicroBatcher
from .pool import SupervisedPool


class StreamServer(SupervisedPool):
    """Sharded, supervised streaming inference over per-stream state.

    Parameters
    ----------
    session_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.stream.session.StreamSession`; called once per
        shard (sessions are stateful and single-threaded).
    workers:
        Shard/worker count.
    max_attempts:
        Dispatch attempts per event before its future fails.
    max_restarts:
        Worker restarts before the server gives up.
    """

    name = "stream"

    def __init__(
        self,
        session_factory: Callable[[], StreamSession],
        workers: int = 2,
        max_attempts: int = 3,
        max_restarts: int = 8,
        supervise_interval_s: float = 0.01,
    ) -> None:
        shards = [MicroBatcher(max_batch=1) for _ in range(workers)]
        super().__init__(
            session_factory, workers, shards,
            max_attempts, max_restarts, supervise_interval_s,
        )
        self._windows = 0

    def shard_of(self, stream_id: str) -> int:
        """Stable shard index for a stream (process-independent)."""
        return zlib.crc32(stream_id.encode("utf-8")) % self.workers

    def submit(self, event: StreamEvent) -> Future:
        """Enqueue one event; the future resolves to the session's
        :class:`StreamResult` (or ``None`` when no window closed)."""
        return self._queues[self.shard_of(event.stream_id)].submit(event)

    def process_stream(
        self, events: Iterable[StreamEvent], timeout: Optional[float] = None
    ) -> List[StreamResult]:
        """Feed a whole event iterable; blocking, returns the readouts."""
        futures = [self.submit(event) for event in events]
        results = [future.result(timeout=timeout) for future in futures]
        return [result for result in results if result is not None]

    def flush(self) -> List[StreamResult]:
        """Emit partial windows from every shard (idle feed, before stop)."""
        return [
            result for session in self._sessions if session is not None
            for result in session.flush()
        ]

    def stats(self) -> Dict[str, object]:
        stats = super().stats()
        stats["windows"] = self._windows
        stats["streams"] = {
            sid: per_stream
            for session in self._sessions
            if session is not None
            for sid, per_stream in session.stats().items()
        }
        return stats

    def _run(self, session, payloads: List[StreamEvent]) -> List[Optional[StreamResult]]:
        (event,) = payloads
        result = session.process(event)
        if result is not None:
            with self._stats_lock:
                self._windows += 1
        return [result]
