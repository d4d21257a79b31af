"""Packed-artifact benchmark: .reprom size, cold-load, quantized serving.

Measures what :mod:`repro.sparse.packaging` buys over checkpoint-based
serving on the standard bench MLP (width 768, 90% unstructured
sparsity):

* **artifact size** — int8 + delta/varint ``.reprom`` bytes vs the
  float32 ``save_checkpoint`` pair (``.npz`` + ``.json``);
* **cold load** — wall time from artifact on disk to a frozen
  :class:`~repro.serve.InferenceSession` ready to predict: npz
  decompress + re-init + mask load vs mmap + zero-copy bind;
* **quantized serving** — throughput of the int8 package (served at the
  default f32 runtime, values pre-scaled at load) against the
  frozen-f32 checkpoint session, with a hard max-abs-error assert —
  a fast wrong artifact is not a fast artifact;
* **stored-precision runtime** — the same int8 package served at
  ``precision="int8"``: values stay mapped at int8 and each layer
  dequantizes into one per-session scratch buffer before the same CSR
  product.  Gated as ``int8_runtime_ratio`` (f32-runtime p50 ÷
  int8-runtime p50, timed interleaved; must stay ≥ 1/1.5), with a hard
  bit-identity assert against the f32 runtime and the ``tracemalloc``
  peak transient bytes of one forward reported next to the largest
  layer's float32 value bytes;
* **f16 / f32 runtime cells** — reported for the docs trade-off table
  (absolute times, never gated).

Emits ``BENCH_packaging.json``::

    PYTHONPATH=src python benchmarks/bench_packaging.py --out BENCH_packaging.json

``--check BENCH_packaging.json`` re-measures and exits non-zero if a
headline ratio fell more than 15% below the committed number (ratios
only; absolute times are host-dependent).
"""

import argparse
import os
import sys
import tempfile
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np

from repro.serve import InferenceSession
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager
from repro.sparse.packaging import PackedModel, build_packed_runtime, write_package
from repro.train.checkpoint import load_inference_state, save_checkpoint

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _gate import CHECK_TOLERANCE, add_check_argument, finish, headline_failures  # noqa: E402

#: Bench MLP geometry — identical to bench_serving's unstructured cell.
MLP_WIDTH = 768
NUM_CLASSES = 32
SPARSITY = 0.9
TIMESTEPS = 2
BATCH = 8
#: int8 output error bound vs the frozen-f32 session (hard assert).
INT8_ERROR_BOUND = 1e-2
#: Floor of ``int8_runtime_ratio``: serving at stored int8 precision may
#: cost at most 1.5x the pre-scaled f32 runtime's p50.
INT8_RUNTIME_FLOOR = 1 / 1.5
#: Gated metrics — ratios only, higher is better.
HEADLINE_METRICS = (
    "artifact_size_ratio",
    "cold_load_speedup",
    "int8_throughput_ratio",
    "int8_runtime_ratio",
)

MODEL_SPEC = {
    "model": "mlp",
    "kwargs": {
        "in_features": MLP_WIDTH,
        "num_classes": NUM_CLASSES,
        "hidden": [MLP_WIDTH, MLP_WIDTH],
        "timesteps": TIMESTEPS,
    },
    "encoder": "direct",
    "seed": 0,
}


def build_masked_mlp(seed=0, width=MLP_WIDTH, sparsity=SPARSITY):
    """The bench model with random unstructured masks, CSR execution."""
    model = SpikingMLP(
        width, NUM_CLASSES, hidden=(width, width), timesteps=TIMESTEPS,
        rng=np.random.default_rng(seed),
    )
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_random({name: 1.0 - sparsity for name in manager.states})
    manager.set_execution("csr")
    model.eval()
    return model, manager


def checkpoint_bytes(path):
    """Total on-disk bytes of a save_checkpoint pair (.npz + .json)."""
    total = os.path.getsize(path)
    sidecar = os.path.splitext(path)[0] + ".json"
    if os.path.exists(sidecar):
        total += os.path.getsize(sidecar)
    return total


def load_checkpoint_session(path, width=MLP_WIDTH, max_batch=BATCH):
    """Checkpoint → frozen session, the registry ``load_checkpoint`` way.

    The bench MLP is not an experiment-config model, so this replicates
    the factory body: real init draws, npz decompress, mask load,
    freeze.  That is exactly the cold-start cost ``load_package``
    competes against.
    """
    model = SpikingMLP(
        width, NUM_CLASSES, hidden=(width, width), timesteps=TIMESTEPS,
        rng=np.random.default_rng(0),
    )
    state = load_inference_state(path, model)
    manager = SparsityManager(model)
    if state.masks:
        manager.load_masks(state.masks)
    if state.calibration is not None:
        manager.calibration = state.calibration
    manager.set_execution("csr")
    return InferenceSession(model, manager, max_batch=max_batch)


def load_package_session(path, precision=None, max_batch=BATCH):
    """Package → frozen session (mmap open included: true cold load)."""
    package = PackedModel(path)
    model, manager = build_packed_runtime(package, precision=precision)
    return InferenceSession(model, manager, max_batch=max_batch)


def time_cold_load(loader, repeats):
    """Median seconds of a cold session build (fresh call each time)."""
    loader()  # warm the page cache / imports so both sides start equal
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        loader()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def time_predict(session, inputs, repeats):
    session.predict(inputs)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        session.predict(inputs)
        times.append(time.perf_counter() - start)
    seconds = float(np.percentile(times, 50))
    return {
        "p50_ms": seconds * 1e3,
        "throughput_rps": inputs.shape[0] / seconds,
    }


def time_interleaved(sessions, inputs, repeats):
    """p50 cells for several sessions, measured round-robin.

    The gated ratios compare nearly equal code paths, so host drift
    between separate timing loops easily exceeds the real difference;
    alternating calls cancels it.
    """
    for session in sessions:
        session.predict(inputs)
    times = [[] for _ in sessions]
    for _ in range(repeats):
        for session, samples in zip(sessions, times):
            start = time.perf_counter()
            session.predict(inputs)
            samples.append(time.perf_counter() - start)
    cells = []
    for samples in times:
        seconds = float(np.percentile(samples, 50))
        cells.append({
            "p50_ms": seconds * 1e3,
            "throughput_rps": inputs.shape[0] / seconds,
        })
    return cells


def forward_transient_bytes(session, inputs):
    """``tracemalloc`` peak bytes one warmed predict allocates."""
    session.predict(inputs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        session.predict(inputs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def run_comparison(repeats=20, load_repeats=5, width=MLP_WIDTH):
    """Full packaging grid; returns the BENCH_packaging payload."""
    model, manager = build_masked_mlp(width=width)
    spec = dict(MODEL_SPEC)
    spec["kwargs"] = dict(MODEL_SPEC["kwargs"],
                          in_features=width, hidden=[width, width])
    inputs = np.random.default_rng(9).standard_normal(
        (BATCH, width)).astype(np.float32)

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "model.npz")
        save_checkpoint(ckpt, model, method=SimpleNamespace(masks=manager))
        packages = {}
        for precision in ("f32", "f16", "int8"):
            out = os.path.join(tmp, f"model_{precision}.reprom")
            summary = write_package(out, model, manager, spec,
                                    precision=precision)
            packages[precision] = summary

        ckpt_bytes = checkpoint_bytes(ckpt)
        int8_path = packages["int8"]["path"]

        # --- cold load: checkpoint factory vs package mmap ---------------
        ckpt_load_s = time_cold_load(
            lambda: load_checkpoint_session(ckpt, width=width), load_repeats)
        pkg_load_s = time_cold_load(
            lambda: load_package_session(int8_path), load_repeats)

        # --- serving: frozen-f32 checkpoint vs packed runtimes ----------
        ckpt_session = load_checkpoint_session(ckpt, width=width)
        reference = ckpt_session.predict(inputs)
        errors = {}
        # The gated sessions run interleaved with a higher floor on
        # repeats: all are sub-millisecond to few-millisecond CSR paths,
        # so the ratios need tighter statistics than the reported cells.
        int8_f32_session = load_package_session(int8_path)
        int8_int8_session = load_package_session(int8_path, precision="int8")
        prescaled = int8_f32_session.predict(inputs)
        if not np.array_equal(int8_int8_session.predict(inputs), prescaled):
            raise AssertionError(
                "int8 runtime output differs from the pre-scaled f32 runtime"
            )
        errors["int8_runtime_f32"] = float(np.abs(prescaled - reference).max())
        errors["int8_runtime_int8"] = errors["int8_runtime_f32"]
        ckpt_cell, int8_cell, int8_int8_cell = time_interleaved(
            (ckpt_session, int8_f32_session, int8_int8_session),
            inputs, max(repeats, 60))
        cells = {
            "checkpoint_f32": ckpt_cell,
            "int8_runtime_f32": int8_cell,
            "int8_runtime_int8": int8_int8_cell,
        }
        memory = {
            "int8_runtime_transient_bytes":
                forward_transient_bytes(int8_int8_session, inputs),
            "f32_runtime_transient_bytes":
                forward_transient_bytes(int8_f32_session, inputs),
            "largest_layer_value_bytes": 4 * max(
                state.csr_pattern().nnz
                for state in int8_int8_session.manager.states.values()
            ),
        }
        for precision, runtime in (("f16", "f16"), ("f32", None)):
            label = f"{precision}_runtime_{runtime or 'f32'}"
            session = load_package_session(
                packages[precision]["path"], precision=runtime)
            produced = session.predict(inputs)
            errors[label] = float(np.abs(produced - reference).max())
            cells[label] = time_predict(session, inputs, repeats)

        int8_error = errors["int8_runtime_f32"]
        if int8_error > INT8_ERROR_BOUND:
            raise AssertionError(
                f"int8 serving error {int8_error:.3e} exceeds the "
                f"{INT8_ERROR_BOUND:.0e} bound — quantization is broken"
            )

        payload = {
            "bench": "packaging_size_coldload_quantized",
            "width": width,
            "sparsity": SPARSITY,
            "repeats": repeats,
            "checkpoint_bytes": ckpt_bytes,
            "package_bytes": {
                precision: packages[precision]["file_bytes"]
                for precision in packages
            },
            "cold_load": {
                "checkpoint_s": ckpt_load_s,
                "package_s": pkg_load_s,
            },
            "cells": cells,
            "max_abs_error": errors,
            "memory": memory,
            "artifact_size_ratio":
                ckpt_bytes / packages["int8"]["file_bytes"],
            "cold_load_speedup": ckpt_load_s / pkg_load_s,
            "int8_throughput_ratio":
                cells["int8_runtime_f32"]["throughput_rps"]
                / cells["checkpoint_f32"]["throughput_rps"],
            "int8_runtime_ratio":
                cells["int8_runtime_f32"]["p50_ms"]
                / cells["int8_runtime_int8"]["p50_ms"],
        }
    return payload


def check_regressions(baseline, payload, tolerance=CHECK_TOLERANCE):
    """Headline-ratio failures vs a committed baseline (empty = pass).

    ``int8_runtime_ratio`` must also clear its absolute floor.
    """
    failures = headline_failures(baseline, payload, HEADLINE_METRICS, tolerance)
    ratio = payload["int8_runtime_ratio"]
    if ratio < INT8_RUNTIME_FLOOR:
        failures.append(
            f"int8_runtime_ratio: {ratio:.3f} < {INT8_RUNTIME_FLOOR:.3f} "
            "(int8-stored p50 above 1.5x the f32 runtime)"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="packed .reprom artifact: size, cold load, quantized serving"
    )
    parser.add_argument("--out", default="BENCH_packaging.json")
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--load-repeats", type=int, default=5)
    parser.add_argument("--width", type=int, default=MLP_WIDTH)
    add_check_argument(parser)
    args = parser.parse_args(argv)
    payload = run_comparison(repeats=args.repeats,
                             load_repeats=args.load_repeats,
                             width=args.width)
    print(f"checkpoint (f32 npz):   {payload['checkpoint_bytes']:>9d} B")
    for precision, size in sorted(payload["package_bytes"].items()):
        print(f".reprom {precision:>4s}:          {size:>9d} B")
    print(
        f"artifact size ratio (ckpt / int8): "
        f"{payload['artifact_size_ratio']:.2f}x"
    )
    cold = payload["cold_load"]
    print(
        f"cold load: checkpoint {cold['checkpoint_s']*1e3:.1f}ms  "
        f"package {cold['package_s']*1e3:.1f}ms  "
        f"speedup {payload['cold_load_speedup']:.2f}x"
    )
    for label, cell in payload["cells"].items():
        err = payload["max_abs_error"].get(label)
        err_text = f"  max_err {err:.2e}" if err is not None else ""
        print(
            f"{label:>22s}: p50 {cell['p50_ms']:7.2f}ms  "
            f"{cell['throughput_rps']:8.1f} req/s{err_text}"
        )
    print(f"int8 throughput ratio vs frozen-f32: "
          f"{payload['int8_throughput_ratio']:.3f}x")
    print(f"int8 runtime ratio (f32 p50 / int8 p50): "
          f"{payload['int8_runtime_ratio']:.3f}")
    memory = payload["memory"]
    print(
        f"forward transient: int8 runtime {memory['int8_runtime_transient_bytes']} B  "
        f"f32 runtime {memory['f32_runtime_transient_bytes']} B  "
        f"(largest layer values {memory['largest_layer_value_bytes']} B)"
    )
    return finish(args, payload, check_regressions)


if __name__ == "__main__":
    raise SystemExit(main())
