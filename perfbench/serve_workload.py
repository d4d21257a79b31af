"""Packed serving workloads: ``serve_f32`` and ``serve_int8``.

A 768-wide, 3-layer ``SpikingMLP`` at 90% unstructured sparsity is
exported the way ``repro export`` does it (an ``auto``-calibrated
manager written by ``write_package``), loaded with
``ModelRegistry.load_package`` and served by an ``InferenceServer``
(2 workers, ``max_batch=8``, the default 5 ms flush) to single-sample
requests from one open-loop generator thread.
"""

from __future__ import annotations

import threading
import time
from typing import Dict

import numpy as np
from repro.serve import InferenceServer, InferenceSession, ModelRegistry
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager
from repro.sparse.packaging import write_package

from harness import (
    SETUP_REPEATS,
    WORKERS,
    Rung,
    calibration_dir,
    measure_calibration,
    mean,
    median,
    percentile,
    in_window,
    run_rung,
    sustained_rate,
)

WIDTH = 768
NUM_CLASSES = 32
TIMESTEPS = 2
SPARSITY = 0.9
MAX_BATCH = 8
#: The model's weights and masks are fixed; ``--seed`` drives the
#: request inputs and their arrival times.
MODEL_SEED = 0
#: Distinct request inputs; request ``i`` sends ``pool[i % POOL]``.
POOL = 512
MIN_SAMPLES = 1000

#: Per-workload traffic: runtime precision, the offered-rate ladder
#: (requests/s; the first rung is the stated rate that latency is
#: reported at) and the p90 latency limit a rung must meet.
PROFILES = {
    "serve_f32": {"precision": "f32", "ladder": (250, 500, 1000, 2000, 8000), "p90_limit_ms": 40.0},
    "serve_int8": {"precision": "int8", "ladder": (40, 160, 640), "p90_limit_ms": 750.0},
}

MODEL_SPEC = {
    "model": "mlp",
    "kwargs": {
        "in_features": WIDTH,
        "num_classes": NUM_CLASSES,
        "hidden": [WIDTH, WIDTH],
        "timesteps": TIMESTEPS,
    },
    "encoder": "direct",
    "seed": MODEL_SEED,
}


def export_package(path: str, precision: str, workdir):
    """Calibrate, mask and write the served artifact (the build step)."""
    calibration_dir(workdir, "export", pinned=True)
    model = SpikingMLP(
        WIDTH, NUM_CLASSES, hidden=(WIDTH, WIDTH), timesteps=TIMESTEPS,
        rng=np.random.default_rng(MODEL_SEED),
    )
    manager = SparsityManager(model, rng=np.random.default_rng(MODEL_SEED + 1))
    manager.init_random({name: 1.0 - SPARSITY for name in manager.states})
    manager.set_execution("auto", calibrate=True)
    model.eval()
    start = time.perf_counter()
    summary = write_package(path, model, manager, MODEL_SPEC, precision=precision)
    export_s = time.perf_counter() - start
    return model, manager, summary, export_s


class _Setup:
    """One cold start: load_package → server start → every worker's
    session built and warmed → first response."""

    def __init__(self, path: str, precision: str, warm_input, probes=None) -> None:
        self.ready = threading.Semaphore(0)
        self.warmup_ms = []
        self.session_ms = []
        start = time.perf_counter()
        self.registry = ModelRegistry().load_package(
            "mlp", path, precision=precision, max_batch=MAX_BATCH
        )
        self.load_ms = (time.perf_counter() - start) * 1e3

        def factory():
            built = time.perf_counter()
            session = self.registry.session("mlp")
            warm = time.perf_counter()
            session.predict(warm_input[None])
            finished = time.perf_counter()
            self.session_ms.append((warm - built) * 1e3)
            self.warmup_ms.append((finished - warm) * 1e3)
            if probes is not None:
                probes.instrument(session)
            self.ready.release()
            return session

        self.server = InferenceServer(
            factory, workers=WORKERS, max_batch=MAX_BATCH
        ).start()
        for _ in range(WORKERS):
            if not self.ready.acquire(timeout=120):
                raise RuntimeError("a serving worker never came up")
        self.server.submit(warm_input).result(timeout=120)
        self.setup_s = time.perf_counter() - start


class _ServeProbes:
    """Traced-run instrumentation of each worker's session and of the
    server's batch queue.  Samples carry a ``perf_counter`` stamp so
    they can be cut to the stated rate's time window."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.queue_wait_ms = []  # (stamp, ms)
        self.rows = []  # (stamp, real rows, rows computed)

    def instrument(self, session) -> None:
        rows = self.rows

        def on_predict(span, args, result):
            real = len(args[0])
            rows.append((span.start, real, -(-real // session.max_batch) * session.max_batch))

        self.tracer.wrap(session, "predict", "serve.predict", on_exit=on_predict)
        for name in session.manager.states:
            self.tracer.wrap(_layer_module(session.model, name), "forward", "sparse.layer")

    def instrument_batcher(self, batcher) -> None:
        """Queue wait: submit → the batch leaving the queue for predict."""
        original = batcher.next_batch
        waits = self.queue_wait_ms

        def next_batch():
            batch = original()
            if batch:
                taken = time.monotonic()
                stamp = time.perf_counter()
                waits.extend((stamp, (taken - request.enqueued_at) * 1e3) for request in batch)
            return batch

        batcher.next_batch = next_batch

    def layer_metrics(self, rung) -> Dict:
        spans = [s for s in self.tracer.by_name("serve.predict") if in_window(rung, s.start)]
        predict_ms = [span.duration * 1e3 for span in spans]
        layer_ms = [span.child_time * 1e3 for span in spans]
        waits = [ms for stamp, ms in self.queue_wait_ms if in_window(rung, stamp)]
        rows = [(real, computed) for stamp, real, computed in self.rows if in_window(rung, stamp)]
        return {
            "serve.queue_wait_ms.p50": (percentile(waits, 50), "ms"),
            "serve.queue_wait_ms.p99": (percentile(waits, 99), "ms"),
            "serve.predict_ms.p50": (percentile(predict_ms, 50), "ms"),
            "serve.predict_ms.p99": (percentile(predict_ms, 99), "ms"),
            "sparse.layers_ms": (mean(layer_ms), "ms"),
            "snn.rest_ms": (mean(predict_ms) - mean(layer_ms), "ms"),
            "serve.batch_rows.mean": (mean([real for real, _ in rows]), "rows"),
            "serve.useful_row_share": (
                sum(real for real, _ in rows) / max(1, sum(c for _, c in rows)), "share"
            ),
        }


def _layer_module(model, weight_name: str):
    module_name = weight_name.rsplit(".", 1)[0]
    return dict(model.named_modules())[module_name]


def run(workload: str, seed: int, seconds: float, tracer, workdir) -> Dict:
    profile = PROFILES[workload]
    precision = profile["precision"]
    path = f"{workdir.sub('package')}/mlp-{precision}.reprom"
    model, manager, summary, export_s = export_package(path, precision, workdir)
    routes = {name: manager.explain_dispatch(name)["route"] for name in manager.states}
    calibrate_s, measured, flips = measure_calibration(workdir, manager)

    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((POOL, WIDTH)).astype(np.float32)

    probes = _ServeProbes(tracer) if tracer is not None else None
    setups = []
    for attempt in range(SETUP_REPEATS):
        if setups:
            setups[-1].server.stop()
        last = attempt == SETUP_REPEATS - 1
        setups.append(_Setup(path, precision, pool[0], probes if last else None))
    live = setups[-1]
    if probes is not None:
        probes.instrument_batcher(live.server.batcher)

    # Ladder: every rung gets at least MIN_SAMPLES requests; the stated
    # (first) rung also absorbs whatever is left of the time budget.
    ladder = profile["ladder"]
    limit = profile["p90_limit_ms"]
    other = sum(MIN_SAMPLES / rate for rate in ladder[1:])
    first = max(MIN_SAMPLES, int(ladder[0] * max(0.0, seconds - other)))
    rungs = [Rung(rate, first if i == 0 else MIN_SAMPLES) for i, rate in enumerate(ladder)]

    responses = []  # (pool index, output) for verification
    sent_before = 0
    for rung in rungs:
        def submit(i, base=sent_before):
            return live.server.submit(pool[(base + i) % POOL])

        # Slack: two full batches per worker may be outstanding.
        outputs, _ = run_rung(
            rung, submit, limit, 2 * MAX_BATCH * WORKERS, keep=lambda i, output: True
        )
        responses.extend(((sent_before + i) % POOL, output) for i, output in outputs.items())
        sent_before += rung.sent
        if not rung.passed:
            break  # higher rates only fail harder
    live.server.stop()

    # Correctness: every response bit-identical to a sequential predict
    # on the same package; served top-1 against the unpacked f32 model.
    reference = live.registry.session("mlp")
    expected = np.concatenate([
        reference.predict(pool[i:i + MAX_BATCH]) for i in range(0, POOL, MAX_BATCH)
    ])
    mismatched = sum(
        1 for index, output in responses if not np.array_equal(output, expected[index])
    )
    original = InferenceSession(model, manager, max_batch=MAX_BATCH)
    truth = np.concatenate([
        original.predict(pool[i:i + MAX_BATCH]) for i in range(0, POOL, MAX_BATCH)
    ]).argmax(axis=1)
    agreement = float(np.mean(expected.argmax(axis=1) == truth))

    sent = sum(rung.sent for rung in rungs)
    failed = sum(rung.failed for rung in rungs) + mismatched
    stated = rungs[0]
    e2e = {
        "setup_s": (median([s.setup_s for s in setups]), "s"),
        "throughput_per_s": (sustained_rate(rungs), "1/s"),
        "latency_p50_ms": (stated.p(50), "ms"),
        "success_share": ((sent - failed) / sent, "share"),
    }
    info = {
        "ladder": [rung.summary() for rung in rungs if rung.sent],
        "p90_limit_ms": limit,
        "calibration_used": manager.calibration.to_meta(),
        "calibration_measured": measured,
        "routes": routes,
        "package_bytes": summary["file_bytes"],
        "responses_checked": len(responses),
        "responses_mismatched": mismatched,
    }
    layers = {
        "latency.p90_ms": (stated.p(90), "ms"),
        "latency.p99_ms": (stated.p(99), "ms"),
        "serve.top1_agreement": (agreement, "share"),
        "ladder.rungs_passed": (sum(rung.passed for rung in rungs), "count"),
        "sparse.calibrate_s": (calibrate_s, "s"),
        "sparse.calibration_flips": (flips, "count"),
        "sparse.csr_layers": (sum(route == "csr" for route in routes.values()), "count"),
        "packaging.file_bytes": (summary["file_bytes"], "bytes"),
        "packaging.export_s": (export_s, "s"),
        "packaging.load_ms": (median([s.load_ms + median(s.session_ms) for s in setups]), "ms"),
        "serve.warmup_ms": (median([median(s.warmup_ms) for s in setups]), "ms"),
        "serve.gen_lag_ms.p99": (percentile(stated.gen_lag_ms, 99), "ms"),
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
