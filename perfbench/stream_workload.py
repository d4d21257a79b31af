"""Streaming workload: ``stream_telemetry``.

A multiplexed telemetry feed from eight devices goes into a 2-shard
``StreamServer``.  Each shard owns a frozen ``StreamSession`` over the
``bench_streaming.py`` geometry (64 → 256 → 256 → 16 ``SpikingMLP``,
90% sparse, frozen CSR, tumbling window of 8 events), so every event
is one single-timestep forward plus a state snapshot and clone, with
no micro-batching or padding.  The workload's threads share one CPU
(see :func:`run`).
"""

from __future__ import annotations

import os
import time
from typing import Dict

import numpy as np

# Import the stream package before ``repro.data.telemetry``: importing
# the telemetry module first runs into a circular import
# (repro.data.telemetry -> repro.stream.events -> repro.stream ->
# repro.stream.encoders -> repro.data.telemetry, half initialised).
# That is a defect of the program, to be fixed there, not here.
from repro.stream import StreamSession  # (must precede the telemetry import)
from repro.data.telemetry import make_telemetry_stream
from repro.serve import StreamServer
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager

from harness import (
    SETUP_REPEATS,
    WORKERS,
    Rung,
    in_window,
    mean,
    median,
    percentile,
    run_rung,
    sustained_rate,
)

NUM_DEVICES = 8
NUM_CHANNELS = 64
HIDDEN = 256
NUM_CLASSES = 16
WINDOW = 8
SPARSITY = 0.9
MODEL_SEED = 0
#: Window readouts needed per rate (each costs WINDOW events).
MIN_WINDOWS = 1000
#: Offered event rates (events/s); the first is the stated rate.
LADDER = (1350, 2000, 10800)
P90_LIMIT_MS = 25.0
#: Seconds at the stated rate before the ladder: its events are checked
#: and counted, its latencies are not reported.
WARMUP_S = 1.0
#: Windows checked against ``StreamSession.offline_reference``, drawn
#: from the windows closed by every KEEP_EVERY-th event.
CHECKED_WINDOWS = 512
KEEP_EVERY = 4


def session_factory(probes=None):
    """Zero-argument factory of frozen CSR streaming sessions; the same
    fixed weights and masks every call."""
    def factory():
        model = SpikingMLP(
            NUM_CHANNELS, NUM_CLASSES, hidden=(HIDDEN, HIDDEN), timesteps=WINDOW,
            rng=np.random.default_rng(MODEL_SEED),
        )
        manager = SparsityManager(model, rng=np.random.default_rng(MODEL_SEED + 1))
        manager.init_random({name: 1.0 - SPARSITY for name in manager.states})
        manager.set_execution("csr")
        manager.freeze()
        session = StreamSession(model, window=WINDOW, manager=manager)
        if probes is not None:
            probes.instrument(session)
        return session

    return factory


class _StreamProbes:
    """Traced-run instrumentation of each shard's session."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.submitted: Dict[int, float] = {}
        self.queue_wait_ms = []  # (stamp, ms)

    def instrument(self, session) -> None:
        probes = self

        def on_process(span, args, result):
            submitted = probes.submitted.pop(id(args[0]), None)
            if submitted is not None:
                probes.queue_wait_ms.append((span.start, (span.start - submitted) * 1e3))

        self.tracer.wrap(session, "process", "stream.process", on_exit=on_process)
        self.tracer.wrap(session.model, "forward_once", "snn.step")

    def layer_metrics(self, rung) -> Dict:
        """Per-event figures over the stated rate's time window."""
        process = [s for s in self.tracer.by_name("stream.process") if in_window(rung, s.start)]
        steps = [s for s in self.tracer.by_name("snn.step") if in_window(rung, s.start)]
        waits = [ms for stamp, ms in self.queue_wait_ms if in_window(rung, stamp)]
        return {
            "stream.queue_wait_ms.p50": (percentile(waits, 50), "ms"),
            "stream.queue_wait_ms.p99": (percentile(waits, 99), "ms"),
            "stream.process_ms.p50": (percentile([s.duration * 1e3 for s in process], 50), "ms"),
            "snn.step_ms.p50": (percentile([s.duration * 1e3 for s in steps], 50), "ms"),
            "stream.state_ms.p50": (percentile([s.self_time * 1e3 for s in process], 50), "ms"),
        }


def run(seed: int, seconds: float, tracer, workdir) -> Dict:
    """Run the workload with every thread it starts on one CPU.

    The generator and both shard threads hand the GIL to each other for
    every event.  Spread over the two vCPUs of a shared VM, each handoff
    is a cross-CPU wake-up that a busy host delays, and unpinned runs
    measured the host's scheduler more than the program (perfbench's
    README gives the figures).  On one CPU a handoff is a local context
    switch.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        return _run(seed, seconds, tracer, workdir)
    finally:
        os.sched_setaffinity(0, allowed)


def _run(seed: int, seconds: float, tracer, workdir) -> Dict:
    probes = _StreamProbes(tracer) if tracer is not None else None
    setups_s = []
    server = None
    for attempt in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        last = attempt == SETUP_REPEATS - 1
        start = time.perf_counter()
        server = StreamServer(session_factory(probes if last else None), workers=WORKERS).start()
        setups_s.append(time.perf_counter() - start)

    per_rung_min = MIN_WINDOWS * WINDOW
    other = WARMUP_S + sum(per_rung_min / rate for rate in LADDER[1:])
    first = max(per_rung_min, int(LADDER[0] * max(0.0, seconds - other)))
    warmup = Rung(LADDER[0], int(LADDER[0] * WARMUP_S))
    rungs = [Rung(rate, first if i == 0 else per_rung_min) for i, rate in enumerate(LADDER)]

    windows = []  # a sample of emitted StreamResults, for verification
    shard_events = [0] * WORKERS
    for index, rung in enumerate([warmup] + rungs):
        feed = list(make_telemetry_stream(
            num_streams=NUM_DEVICES, num_channels=NUM_CHANNELS,
            num_events=-(-rung.planned // NUM_DEVICES), rate_hz=rung.rate / NUM_DEVICES,
            seed=seed * 1000 + index,
        ))

        def submit(i, feed=feed):
            event = feed[i]
            if probes is not None:
                probes.submitted[id(event)] = time.perf_counter()
            return server.submit(event)

        # Slack: four windows' worth of events per shard may be queued.
        # Only events that close a window give a latency sample; every
        # KEEP_EVERY-th event's window is kept for verification.
        kept, ok = run_rung(
            rung, submit, P90_LIMIT_MS, 4 * WINDOW * WORKERS,
            keep=lambda i, result: result is not None and i % KEEP_EVERY == 0,
            is_sample=lambda result: result is not None,
        )
        windows.extend(kept.values())
        for i in np.flatnonzero(ok):
            shard_events[server.shard_of(feed[i].stream_id)] += 1
        if rung is not warmup and not rung.passed:
            break
    server.stop()

    # Correctness: sampled windows must equal the offline pass over the
    # same frames.
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(windows), size=min(CHECKED_WINDOWS, len(windows)), replace=False)
    reference = session_factory()()
    mismatched = sum(
        1 for pick in picks
        if not np.array_equal(reference.offline_reference(windows[pick].frames), windows[pick].logits)
    )

    sent = warmup.sent + sum(rung.sent for rung in rungs)
    failed = warmup.failed + sum(rung.failed for rung in rungs) + mismatched
    stated = rungs[0]
    e2e = {
        "setup_s": (median(setups_s), "s"),
        "throughput_per_s": (sustained_rate(rungs), "1/s"),
        "latency_p50_ms": (stated.p(50), "ms"),
        "success_share": ((sent - failed) / sent, "share"),
    }
    info = {
        "warmup": warmup.summary(),
        "ladder": [rung.summary() for rung in rungs if rung.sent],
        "p90_limit_ms": P90_LIMIT_MS,
        "routes": "csr (frozen, forced)",
        "cpus": sorted(os.sched_getaffinity(0)),
        "windows_checked": len(picks),
        "windows_mismatched": mismatched,
    }
    layers = {
        "latency.p90_ms": (stated.p(90), "ms"),
        "latency.p99_ms": (stated.p(99), "ms"),
        "ladder.rungs_passed": (sum(rung.passed for rung in rungs), "count"),
        "sparse.csr_layers": (sum(map(reference.manager.use_csr, reference.manager.states.values())), "count"),
        "stream.windows": (sum(len(rung.latencies_ms) for rung in rungs), "count"),
        "stream.shard_skew": (max(shard_events) / mean(shard_events), "ratio"),
        "stream.gen_lag_ms.p99": (percentile(stated.gen_lag_ms, 99), "ms"),
    }
    if probes is not None:
        layers.update(probes.layer_metrics(stated))
    return {
        "attempted": sent,
        "failed": failed,
        "correct": mismatched == 0,
        "e2e": e2e,
        "layers": layers,
        "info": info,
    }
