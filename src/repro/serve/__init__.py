"""Inference serving: registry, micro-batching, supervised workers.

The training side of the repository produces checkpoints; this package
turns them into a service.  The pieces compose:

* :class:`~repro.serve.registry.ModelRegistry` — named model factories;
  each worker gets its *own* :class:`~repro.serve.registry.InferenceSession`
  (spiking forwards are stateful through the neuron membranes, so
  sessions are never shared across threads).  Sessions run the engine
  inference-frozen (read-only CSR buffers, no dense grads) and pad
  every forward to one canonical batch shape so results are
  bit-identical no matter how requests were grouped.
* :class:`~repro.serve.batcher.MicroBatcher` — request queue that hands
  up to ``max_batch`` requests to the first idle worker (an explicit
  max-latency deadline is opt-in).
* :class:`~repro.serve.pool.SupervisedPool` — the one supervised worker
  pool: ``start()`` builds one server-owned session per worker slot (a
  factory error is raised there), a supervisor restarts crashed
  workers, and their in-flight requests are re-dispatched, not dropped.
* :class:`~repro.serve.server.InferenceServer` (micro-batches over one
  shared queue) and :class:`~repro.serve.stream_worker.StreamServer`
  (events over per-stream strict-FIFO shards) — the two servers on
  that pool.
"""

from .batcher import InferenceRequest, MicroBatcher
from .registry import InferenceSession, ModelRegistry
from .server import InferenceServer
from .stream_worker import StreamServer

__all__ = [
    "InferenceRequest",
    "MicroBatcher",
    "InferenceSession",
    "ModelRegistry",
    "InferenceServer",
    "StreamServer",
]
