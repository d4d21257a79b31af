"""End-to-end benchmark of training, packed serving and streaming.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_f32 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures and prints every end-to-end metric; ``--trace 1``
repeats the workload with spans around each layer and prints the
per-layer metrics instead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero, with no JSON line, when the program under
``src/`` cannot be imported or a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: BLAS/OpenMP threads, pinned before numpy first loads so every commit
#: is measured with the same value: one per core, the workers being the
#: parallelism.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from harness import WorkDir, environment, peak_rss_mb  # noqa: E402

WORKLOADS = ("train_vgg16_ndsnn", "serve_f32", "serve_int8", "stream_telemetry")


def run_workload(name: str, seed: int, seconds: float, tracer, workdir):
    if name == "train_vgg16_ndsnn":
        import train_workload

        return train_workload.run(seed, seconds, tracer, workdir)
    if name in ("serve_f32", "serve_int8"):
        import serve_workload

        return serve_workload.run(name, seed, seconds, tracer, workdir)
    import stream_workload

    return stream_workload.run(seed, seconds, tracer, workdir)


def declared_metrics(e2e, layers, traced: bool):
    """The metric set BENCHMARK.json declares for this kind of run.

    Per-layer metrics a workload does not exercise (drop/grow on a
    serving workload, say) are reported as 0; every end-to-end metric
    must have been measured.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    if not traced:
        missing = [m["name"] for m in declared["end_to_end"] if m["name"] not in e2e]
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
        return {m["name"]: e2e[m["name"]] for m in declared["end_to_end"]}
    return {
        m["name"]: layers.get(m["name"], (0.0, m["unit"]))
        for m in declared["per_layer"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    with WorkDir(ROOT) as workdir:
        try:
            result = run_workload(args.workload, args.seed, args.seconds, tracer, workdir)
        finally:
            if tracer is not None:
                tracer.close()

    e2e = dict(result["e2e"])
    e2e["peak_rss_mb"] = (peak_rss_mb(), "MB")
    layers = dict(result["layers"])
    if tracer is not None:
        # The traced run's own end-to-end figures: their difference from
        # an untraced run of the same seed is the tracing overhead.
        for key in ("throughput_per_s", "latency_p50_ms"):
            value, unit = e2e[key]
            layers[f"traced.{key}"] = (value, unit)
        layers["trace.spans"] = (len(tracer.spans), "count")
        layers["trace.span_cost_us"] = (tracer.span_cost_s() * 1e6, "us")

    print(f"workload {args.workload}")
    for key, value in environment(args.seed).items():
        print(f"env {key} {value}")
    for key, value in result["info"].items():
        print(f"info {key} {json.dumps(value)}")
    shown = layers if tracer is not None else e2e
    for key, (value, unit) in shown.items():
        print(f"metric {key} {value:.6g} {unit}")
    print(
        f"ops attempted {result['attempted']} failed {result['failed']} "
        f"failed_share {result['failed'] / result['attempted']:.6g}"
    )

    metrics = declared_metrics(e2e, layers, traced=tracer is not None)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {key: {"value": float(value), "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
