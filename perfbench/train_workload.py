"""Training workload: ``train_vgg16_ndsnn``.

NDSNN through ``run_experiment`` on scaled CIFAR-10: VGG-16 at width
0.125, 16 px, T=5, 99% final sparsity, default ``auto`` execution —
the paper's Fig. 5 / LTH-cost setting, and the only workload that runs
backward, drop-and-grow and the optimizer.

The work is fixed (``EPOCHS`` epochs of ``TRAIN_SAMPLES`` samples, about
20 s on the reference machine) rather than sized by ``--seconds``:
final accuracy has to be a deterministic function of the seed.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.experiments.config import scaled_config
from repro.experiments.runner import run_experiment
from repro.tensor import Tensor
from repro.train import trainer as trainer_module
from repro.train.cost import CostAccountingCallback
from repro.train.hooks import TrainerCallback

from harness import (
    SETUP_REPEATS,
    calibration_dir,
    mean,
    measure_calibration,
    median,
    percentile,
)

EPOCHS = 8
TRAIN_SAMPLES = 256
TEST_SAMPLES = 128
FINAL_SPARSITY = 0.99


def experiment_config(seed: int):
    return scaled_config(
        "cifar10", "vgg16", "ndsnn", FINAL_SPARSITY,
        seed=seed, epochs=EPOCHS, train_samples=TRAIN_SAMPLES,
        test_samples=TEST_SAMPLES, image_size=16, width_mult=0.125,
        timesteps=5, execution="auto",
    )


class _SetupDone(Exception):
    """Raised from ``on_train_begin`` to end a set-up-only repetition."""


class Probe(TrainerCallback):
    """Times set-up (first call → ``on_train_begin``), every step (one
    ``on_step_end`` to the next, the first of an epoch from
    ``on_epoch_start``) and ``Trainer.fit``."""

    def __init__(self, started: float, setup_only: bool, tracer=None) -> None:
        self.started = started
        self.setup_only = setup_only
        self.tracer = tracer
        self.setup_s = 0.0
        self.fit_s = 0.0
        self.step_ms: List[float] = []
        self.trainer = None

    def on_train_begin(self, trainer, epochs: int) -> None:
        self.setup_s = time.perf_counter() - self.started
        if self.setup_only:
            raise _SetupDone
        self.trainer = trainer
        if self.tracer is not None:
            instrument_trainer(self.tracer, trainer)
        self._fit_start = self._last = time.perf_counter()

    def on_epoch_start(self, trainer, epoch: int) -> None:
        self._last = time.perf_counter()

    def on_step_end(self, trainer, iteration: int) -> None:
        now = time.perf_counter()
        self.step_ms.append((now - self._last) * 1e3)
        self._last = now

    def on_train_end(self, trainer, result) -> None:
        self.fit_s = time.perf_counter() - self._fit_start


class _TracedLoader:
    """Wraps the train loader: one ``train.step`` span per batch, from
    fetching it (``data.wait``) to fetching the next."""

    def __init__(self, loader, tracer) -> None:
        self.loader = loader
        self.tracer = tracer

    def __iter__(self):
        tracer = self.tracer
        batches = iter(self.loader)
        while True:
            step = tracer.begin("train.step")
            wait = tracer.begin("data.wait")
            try:
                batch = next(batches)
            except StopIteration:
                tracer.discard(wait)
                tracer.discard(step)
                return
            tracer.end(wait)
            yield batch
            tracer.end(step)

    def __len__(self) -> int:
        return len(self.loader)


def instrument_trainer(tracer, trainer) -> None:
    """Spans on the trainer's own objects (reached through the
    ``on_train_begin`` hook) at every layer a step passes through."""
    tracer.wrap(trainer.model, "forward", "snn.forward")
    tracer.wrap(trainer, "loss_fn", "train.loss")
    tracer.wrap(trainer.optimizer, "zero_grad", "optim.step")
    tracer.wrap(trainer.optimizer, "step", "optim.step")
    tracer.wrap(trainer.method, "after_backward", "sparse.mask_update")
    tracer.wrap(trainer.method, "after_step", "sparse.mask_update")
    tracer.wrap(trainer.method, "update_topology", "sparse.drop_grow")
    trainer.train_loader = _TracedLoader(trainer.train_loader, tracer)


def check_density(method) -> int:
    """Layers whose final active count misses the NDSNN schedule's
    target at the last update round (0 when every layer hits it)."""
    if not method.history:
        return len(method.masks.states)
    targets = method.ramp.sparsity_at(method.history[-1].iteration)
    misses = 0
    for name in method.masks.states:
        size = method.masks.layer_size(name)
        expected = max(1, int(round((1.0 - targets[name]) * size)))
        misses += method.masks.nonzero_count(name) != expected
    return misses


def run(seed: int, seconds: float, tracer, workdir) -> Dict:
    config = experiment_config(seed)
    setups = []
    for attempt in range(SETUP_REPEATS - 1):
        calibration_dir(workdir, f"setup{attempt}", pinned=True)
        probe = Probe(time.perf_counter(), setup_only=True)
        try:
            run_experiment(config, extra_callbacks=[probe])
        except _SetupDone:
            setups.append(probe.setup_s)

    calibration_dir(workdir, "train", pinned=True)
    if tracer is not None:
        tracer.wrap(Tensor, "backward", "tensor.backward")
        tracer.wrap(trainer_module, "evaluate", "train.eval")
    cost = CostAccountingCallback()
    probe = Probe(time.perf_counter(), setup_only=False, tracer=tracer)
    outcome = run_experiment(config, extra_callbacks=[probe, cost])
    setups.append(probe.setup_s)

    trainer = probe.trainer
    method = trainer.method
    manager = method.masks
    misses = check_density(method)
    calibrate_s, measured, flips = measure_calibration(workdir, manager)
    routes = {name: manager.explain_dispatch(name)["route"] for name in manager.states}
    # Fig. 5 cost with the run's own spike rates as the reference
    # (no dense run is trained here), i.e. the density term alone.
    modeled = cost.breakdown(cost.spike_rates).percent_of_dense

    samples = TRAIN_SAMPLES * EPOCHS
    e2e = {
        "setup_s": (median(setups), "s"),
        "throughput_per_s": (samples / probe.fit_s, "1/s"),
        "latency_p50_ms": (percentile(probe.step_ms, 50), "ms"),
        "success_share": (0.0 if misses else 1.0, "share"),
    }
    info = {
        "epochs": EPOCHS,
        "train_samples": TRAIN_SAMPLES,
        "steps": len(probe.step_ms),
        "final_accuracy": outcome.final_accuracy,
        "final_sparsity": outcome.final_sparsity,
        "density_layers_missed": misses,
        "calibration_used": manager.calibration.to_meta(),
        "calibration_measured": measured,
        "routes": routes,
        "csr_dispatch_share_per_epoch": [round(s.csr_dispatch_share, 4) for s in outcome.history],
    }
    layers = {
        "latency.p90_ms": (percentile(probe.step_ms, 90), "ms"),
        "latency.p99_ms": (percentile(probe.step_ms, 99), "ms"),
        "train.test_acc": (outcome.final_accuracy, "share"),
        "sparse.csr_dispatch_share": (mean([s.csr_dispatch_share for s in outcome.history]), "share"),
        "sparse.final_density": (manager.density(), "share"),
        "sparse.modeled_cost_pct": (modeled, "%"),
        "sparse.csr_layers": (sum(route == "csr" for route in routes.values()), "count"),
        "sparse.mask_updates": (cost.mask_updates, "count"),
        "sparse.calibrate_s": (calibrate_s, "s"),
        "sparse.calibration_flips": (flips, "count"),
    }
    if tracer is not None:
        steps = tracer.by_name("train.step")
        n = max(1, len(steps))
        phases = tracer.child_totals("train.step")
        backward = phases["train.loss"] + phases["tensor.backward"]
        step_s = sum(span.duration for span in steps)
        self_s = sum(span.self_time for span in steps)
        layers.update({
            "train.step_ms": (step_s / n * 1e3, "ms"),
            "data.wait_ms": (phases["data.wait"] / n * 1e3, "ms"),
            "snn.forward_ms": (phases["snn.forward"] / n * 1e3, "ms"),
            "tensor.backward_ms": (backward / n * 1e3, "ms"),
            "sparse.mask_update_ms": (phases["sparse.mask_update"] / n * 1e3, "ms"),
            "optim.step_ms": (phases["optim.step"] / n * 1e3, "ms"),
            "train.step_self_ms": (self_s / n * 1e3, "ms"),
            "sparse.drop_grow_ms": (mean([s.duration * 1e3 for s in tracer.by_name("sparse.drop_grow")]), "ms"),
            "train.eval_s": (sum(s.duration for s in tracer.by_name("train.eval")), "s"),
        })
        info["step_phase_sum_ms"] = round(
            (phases["data.wait"] + phases["snn.forward"] + backward + phases["sparse.mask_update"]
             + phases["optim.step"] + self_s) / n * 1e3, 4)
    return {
        "attempted": 1,
        "failed": 1 if misses else 0,
        "correct": misses == 0,
        "e2e": e2e,
        "layers": layers,
        "info": info,
    }
