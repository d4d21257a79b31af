"""Layer-major (multi-step) inference against the time-major forward.

A grad-free eval-mode ``SpikingModel.forward`` stacks its T timesteps
into one ``[T*B]`` batch: each layer runs once, each neuron unrolls its
recurrence over the T row blocks.  The reference is :func:`time_major`,
the loop ``forward`` ran for every call before (and still runs under
autograd).  Pinned here:

* bit-identical logits and identical spike counters for MLP, ConvNet,
  LeNet-5, tiny VGG-16 and ResNet-19, under ``dense`` and ``csr``
  execution and the f32/f16/int8 package runtimes, with direct and
  Poisson encoding and LIF, IF, PLIF and ALIF neurons;
* the stacked path really runs (one ``forward_once`` per forward), and
  does not for a recurrent layer, a train-mode model under
  ``no_grad`` or an autograd forward;
* ``evaluate()`` reports the time-major accuracy;
* dense products inside a stacked forward run once per timestep block.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.data import DataLoader, make_dataset
from repro.nn import BatchNorm1d, BatchNorm2d, Conv2d, Linear
from repro.serve import InferenceSession
from repro.snn import RecurrentSpikingLayer, reset_net
from repro.snn.encoding import PoissonEncoder
from repro.snn.functional import reset_spike_stats
from repro.snn.models import SpikingModel, SpikingMLP, build_model
from repro.snn.neuron import BaseNeuron
from repro.sparse import PackedModel, SparsityManager, build_packed_runtime, write_package
from repro.tensor import Tensor, no_grad
from repro.tensor.tensor import stacked_timesteps
from repro.train.metrics import evaluate

NEURONS = ("lif", "if", "plif", "alif")

#: Low enough that every neuron layer of every model below fires, so
#: the deep layers see non-zero inputs.
THRESHOLD = 0.15

#: name -> (constructor kwargs, input shape); every model is tiny.
MODELS = {
    "mlp": ({"in_features": 12, "num_classes": 4, "hidden": [16, 10]}, (12,)),
    "convnet": ({"num_classes": 4, "in_channels": 2, "image_size": 8,
                 "channels": [4, 6]}, (2, 8, 8)),
    "lenet5": ({"num_classes": 4, "in_channels": 2, "image_size": 8,
                "width_mult": 0.5}, (2, 8, 8)),
    "vgg16": ({"num_classes": 4, "in_channels": 2, "image_size": 8,
               "width_mult": 0.125}, (2, 8, 8)),
    "resnet19": ({"num_classes": 4, "in_channels": 2, "image_size": 8,
                  "width_mult": 0.125}, (2, 8, 8)),
}


def time_major(model, x):
    """``SpikingModel.forward`` as it runs one timestep at a time."""
    reset_net(model)
    accumulated = None
    for frame in model.encoder(x):
        logits = model.forward_once(frame)
        accumulated = logits if accumulated is None else accumulated + logits
    return accumulated * (1.0 / model.timesteps)


def build(name, kind="lif", timesteps=3, seed=0, **extra):
    kwargs = dict(MODELS[name][0], timesteps=timesteps, neuron_kind=kind,
                  v_threshold=THRESHOLD, **extra)
    rng = np.random.default_rng(seed)
    model = SpikingMLP(**kwargs, rng=rng) if name == "mlp" else build_model(name, **kwargs, rng=rng)
    for module in model.modules():  # non-trivial eval-mode statistics
        if isinstance(module, (BatchNorm1d, BatchNorm2d)):
            size = module.num_features
            module.update_buffer("running_mean", rng.normal(0, 0.1, size).astype(np.float32))
            module.update_buffer("running_var", rng.uniform(0.5, 1.5, size).astype(np.float32))
    return model


def sparsify(model, execution, seed=0, density=0.5):
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_random({name: density for name in manager.states})
    manager.set_execution(execution)
    return manager


def count_steps(model):
    """Wrap ``forward_once`` so calls are counted in ``model.steps_run``."""
    original = model.forward_once

    def counted(x):
        model.steps_run += 1
        return original(x)

    model.forward_once = counted
    model.steps_run = 0


def spike_counters(model):
    return [(m.spike_count, m.neuron_steps) for m in model.modules() if isinstance(m, BaseNeuron)]


def run(forward, model, inputs, encoder=None):
    """(logits, spike counters, forward_once calls) of one forward."""
    if encoder is not None:
        model.encoder = encoder()
    reset_spike_stats(model)
    model.steps_run = 0
    with no_grad():
        logits = forward(model, Tensor(inputs)).data
    return logits, spike_counters(model), model.steps_run


def assert_layer_major_matches(model, inputs, encoder=None):
    count_steps(model)
    logits, spikes, steps = run(lambda m, x: m(x), model, inputs, encoder)
    want_logits, want_spikes, want_steps = run(time_major, model, inputs, encoder)
    assert steps == 1 and want_steps == model.timesteps
    assert logits.tobytes() == want_logits.tobytes()
    assert spikes == want_spikes
    assert sum(count for count, _ in spikes) > 0


def draw_inputs(seed, batch, shape, encoding):
    rng = np.random.default_rng(seed)
    if encoding == "poisson":  # firing probabilities
        return rng.random((batch,) + shape).astype(np.float32)
    return (3.0 * rng.standard_normal((batch,) + shape)).astype(np.float32)


@pytest.mark.parametrize("kind", NEURONS)
@pytest.mark.parametrize("execution", ["dense", "csr"])
@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=3, deadline=None)
# One row per timestep: the stacked CSR product runs SciPy's
# multi-vector kernel where the time-major loop runs its single-vector one.
@example(encoding="direct", batch=1, timesteps=3, seed=0)
@example(encoding="poisson", batch=1, timesteps=2, seed=1)
@given(
    encoding=st.sampled_from(["direct", "poisson"]),
    batch=st.integers(min_value=1, max_value=5),
    timesteps=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_zoo_bit_identical_to_time_major(name, execution, kind, encoding, batch, timesteps, seed):
    model = build(name, kind, timesteps, seed)
    sparsify(model, execution, seed)
    model.eval()
    inputs = draw_inputs(seed, batch, MODELS[name][1], encoding)
    encoder = None
    if encoding == "poisson":
        encoder = lambda: PoissonEncoder(timesteps, seed=seed)  # noqa: E731
    assert_layer_major_matches(model, inputs, encoder)


@pytest.mark.parametrize("layer, shape", [
    (lambda rng: Linear(64, 256, rng=rng), (64,)),
    (lambda rng: Conv2d(4, 6, 3, padding=1, rng=rng), (4, 4, 4)),
])
@pytest.mark.parametrize("rows", [1, 4])
def test_dense_products_run_per_timestep_block(layer, shape, rows):
    """BLAS picks its kernel by row count, so one product over T*B rows
    is not bit-identical per row to T products over B rows.  Spikes
    hide most such 1-ulp differences behind the threshold, hence this
    op-level check."""
    rng = np.random.default_rng(0)
    module = layer(rng)
    steps = 3
    x = rng.standard_normal((steps * rows,) + shape).astype(np.float32)
    with no_grad():
        want = [module(Tensor(x[t * rows:(t + 1) * rows])).data for t in range(steps)]
        with stacked_timesteps(steps, rows):
            got = module(Tensor(x)).data
    assert got.tobytes() == np.concatenate(want).tobytes()


RUNTIMES = {  # runtime -> (stored precision, export execution)
    "f32-csr": ("f32", "csr"),
    "f32-dense": ("f32", "dense"),
    "f16": ("f16", "csr"),
    "int8": ("int8", "csr"),
}


@pytest.fixture(scope="module")
def packages(tmp_path_factory):
    directory = tmp_path_factory.mktemp("layer_major")
    built = {}
    for name in ("mlp", "convnet"):
        for runtime, (precision, execution) in RUNTIMES.items():
            model = build(name, timesteps=3)
            manager = sparsify(model, execution)
            model.eval()
            spec = {"model": name,
                    "kwargs": dict(MODELS[name][0], timesteps=3, v_threshold=THRESHOLD)}
            path = directory / f"{name}-{runtime}.reprom"
            write_package(path, model, manager, spec, precision=precision)
            built[(name, runtime)] = PackedModel(path)
    return built


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
@pytest.mark.parametrize("name", ["mlp", "convnet"])
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch=st.integers(min_value=1, max_value=5), seed=st.integers(min_value=0, max_value=2**16))
def test_package_runtimes_bit_identical_to_time_major(packages, name, runtime, batch, seed):
    precision = RUNTIMES[runtime][0]
    model, manager = build_packed_runtime(
        packages[(name, runtime)], precision=None if precision == "f32" else precision
    )
    routes = {state.route for state in manager.states.values()}
    assert routes == {"dense" if runtime == "f32-dense" else "csr"}
    inputs = draw_inputs(seed, batch, MODELS[name][1], "direct")
    assert_layer_major_matches(model, inputs)
    # and through the padded serving path
    session = InferenceSession(model, manager, max_batch=4)
    rows = min(batch, 4)
    padded = np.zeros((4,) + inputs.shape[1:], dtype=np.float32)
    padded[:rows] = inputs[:rows]
    with no_grad():
        want = time_major(model, Tensor(padded)).data[:rows]
    assert session.predict(inputs[:rows]).tobytes() == want.tobytes()


class RecurrentNet(SpikingModel):
    def __init__(self, timesteps=3, rng=None):
        super().__init__(timesteps=timesteps)
        self.recurrent = RecurrentSpikingLayer(12, 16, rng=rng)
        self.head = Linear(16, 4, rng=rng)

    def forward_once(self, x):
        return self.head(self.recurrent(x))


class TestPathSelection:
    def test_recurrent_layer_stays_time_major(self):
        model = RecurrentNet(rng=np.random.default_rng(0)).eval()
        count_steps(model)
        inputs = draw_inputs(0, 3, (12,), "direct")
        logits, spikes, steps = run(lambda m, x: m(x), model, inputs)
        want_logits, want_spikes, _ = run(time_major, model, inputs)
        assert steps == model.timesteps
        assert logits.tobytes() == want_logits.tobytes() and spikes == want_spikes

    def test_train_mode_under_no_grad_stays_time_major(self):
        # BatchNorm batch statistics over T*B rows would differ from
        # T per-step batches of B rows.
        model = build("convnet")
        model.train()
        count_steps(model)
        inputs = draw_inputs(0, 3, MODELS["convnet"][1], "direct")
        logits, spikes, steps = run(lambda m, x: m(x), model, inputs)
        want_logits, want_spikes, _ = run(time_major, model, inputs)
        assert steps == model.timesteps
        assert logits.tobytes() == want_logits.tobytes() and spikes == want_spikes

    def test_autograd_forward_stays_time_major(self):
        model = build("mlp").eval()
        count_steps(model)
        model(Tensor(draw_inputs(0, 2, MODELS["mlp"][1], "direct")))
        assert model.steps_run == model.timesteps

    def test_stacking_refuses_autograd(self):
        # time_blocks detaches its blocks, so a stacked forward with
        # autograd on would silently lose gradients.
        with pytest.raises(RuntimeError, match="autograd"):
            with stacked_timesteps(2, 3):
                pass

    def test_direct_encoded_prefix_runs_once_on_batch_rows(self):
        model = build("convnet").eval()
        sparsify(model, "csr")
        seen = []
        conv = model.features[0]
        original = conv.forward
        conv.forward = lambda x: seen.append(x.shape[0]) or original(x)
        classifier_rows = []
        head = model.classifier.forward
        model.classifier.forward = lambda x: classifier_rows.append(x.shape[0]) or head(x)
        with no_grad():
            model(Tensor(draw_inputs(0, 5, MODELS["convnet"][1], "direct")))
        assert seen == [5]
        assert classifier_rows == [5 * model.timesteps]


def test_evaluate_matches_time_major_accuracy():
    data = make_dataset("cifar10", train=False, num_samples=40, image_size=8, seed=3)
    loader = DataLoader(data, batch_size=16, shuffle=False)
    model = build("convnet", in_channels=3, num_classes=10)
    sparsify(model, "csr")
    count_steps(model)
    accuracy = evaluate(model, loader)
    assert model.steps_run == len(loader)
    model.eval()
    correct = seen = 0
    with no_grad():
        for images, labels in loader:
            correct += int((time_major(model, images).data.argmax(axis=1) == labels).sum())
            seen += len(labels)
    assert accuracy == correct / seen
