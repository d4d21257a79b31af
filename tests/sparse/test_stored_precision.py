"""Stored-precision (f16/int8) runtimes of packed ``.reprom`` artifacts.

Serving a package at its stored precision runs the same frozen
``CSRPattern`` kernels as the pre-scaled f32 runtime; each layer
dequantizes into one per-session float32 scratch buffer right before
its product.  Pinned here:

* outputs are **bit-identical** to the f32 runtime on the same
  artifact, for an MLP and a conv model, at batch 1, 3 and
  ``max_batch``;
* blocked dequantization reproduces the elementwise
  ``q.astype(float32) * scale[row]`` reference at any block size;
* each layer dequantizes once per forward (not once per timestep);
* no buffer that aliases the map ever becomes writable;
* per ``tracemalloc``, a stored-precision session retains fewer bytes
  than the f32 runtime, and a forward's transient peak stays below the
  largest layer's nnz x 4 bytes plus the activations.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import InferenceSession
from repro.snn.models import SpikingConvNet, SpikingMLP
from repro.sparse import (
    PackedModel,
    SparsityManager,
    StoredPackedState,
    build_packed_runtime,
    dequantize_rows,
    quantize_rows_int8,
    write_package,
)
from repro.sparse.packaging import dequant_plan
from repro.tensor import Tensor, no_grad

MAX_BATCH = 4

MODELS = {
    "mlp": (
        lambda rng: SpikingMLP(16, 3, hidden=(24,), timesteps=3, rng=rng),
        {"model": "mlp",
         "kwargs": {"in_features": 16, "num_classes": 3, "hidden": [24],
                    "timesteps": 3}},
        (16,),
    ),
    "conv": (
        lambda rng: SpikingConvNet(num_classes=5, in_channels=2, image_size=8,
                                   channels=(8, 8), timesteps=2, rng=rng),
        {"model": "convnet",
         "kwargs": {"num_classes": 5, "in_channels": 2, "image_size": 8,
                    "channels": [8, 8], "timesteps": 2}},
        (2, 8, 8),
    ),
    # Largest layer (256x256 at 40%) spans several dequantization
    # blocks, so the memory bounds below have room to bite.
    "wide": (
        lambda rng: SpikingMLP(96, 10, hidden=(256, 256), timesteps=2, rng=rng),
        {"model": "mlp",
         "kwargs": {"in_features": 96, "num_classes": 10, "hidden": [256, 256],
                    "timesteps": 2}},
        (96,),
    ),
}


def export(directory, kind, precision, density=0.4, seed=0):
    build, spec, _ = MODELS[kind]
    model = build(np.random.default_rng(seed))
    model.eval()
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_random({name: density for name in manager.states})
    manager.set_execution("csr")
    path = directory / f"{kind}_{precision}.reprom"
    write_package(path, model, manager, dict(spec, encoder="direct", seed=seed),
                  precision=precision)
    return PackedModel(path)


@pytest.fixture(scope="module")
def packages(tmp_path_factory):
    directory = tmp_path_factory.mktemp("stored")
    return {
        (kind, precision): export(directory, kind, precision)
        for kind in ("mlp", "conv")
        for precision in ("f16", "int8")
    }


@settings(max_examples=30, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30),
    block=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_blocked_dequant_matches_elementwise_reference(counts, block, seed):
    """Any block size reproduces ``q.astype(float32) * scale[row]``."""
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    values = np.random.default_rng(seed).standard_normal(int(indptr[-1])).astype(np.float32)
    quantized, scales = quantize_rows_int8(values, indptr)
    row_of = np.repeat(np.arange(len(counts)), counts)
    reference = quantized.astype(np.float32) * scales[row_of]
    plan = dequant_plan(indptr, block)
    assert all(stop - start <= block + max(counts) for start, stop, _, _ in plan)
    out = np.full(values.size, np.nan, dtype=np.float32)
    dequantize_rows(quantized, scales, indptr, out=out, plan=plan)
    assert out.tobytes() == reference.tobytes()


def forward(model, inputs):
    with no_grad():
        return model(Tensor(inputs)).data


@pytest.mark.parametrize("precision", ["f16", "int8"])
@pytest.mark.parametrize("kind", ["mlp", "conv"])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_bit_identical_to_prescaled_f32_runtime(packages, kind, precision, seed):
    package = packages[(kind, precision)]
    stored_model, stored_manager = build_packed_runtime(package, precision=precision)
    f32_model, _ = build_packed_runtime(package)
    assert all(
        isinstance(state, StoredPackedState)
        for state in stored_manager.states.values()
    )
    shape = MODELS[kind][2]
    rng = np.random.default_rng(seed)
    for batch in (1, 3, MAX_BATCH):
        inputs = rng.standard_normal((batch,) + shape).astype(np.float32)
        expected = forward(f32_model, inputs)
        produced = forward(stored_model, inputs)
        assert produced.tobytes() == expected.tobytes(), (kind, precision, batch)
    # and through the padded serving path
    stored = InferenceSession(stored_model, stored_manager, max_batch=MAX_BATCH)
    f32 = InferenceSession(f32_model, build_packed_runtime(package)[1],
                           max_batch=MAX_BATCH)
    inputs = rng.standard_normal((3,) + shape).astype(np.float32)
    assert stored.predict(inputs).tobytes() == f32.predict(inputs).tobytes()


@pytest.mark.parametrize("precision", ["f16", "int8"])
def test_each_layer_dequantizes_once_per_predict(packages, precision, monkeypatch):
    calls = []
    dequantize = StoredPackedState.csr_values

    def counted(state):
        calls.append(state.name)
        return dequantize(state)

    monkeypatch.setattr(StoredPackedState, "csr_values", counted)
    model, manager = build_packed_runtime(packages[("mlp", precision)], precision=precision)
    session = InferenceSession(model, manager, max_batch=MAX_BATCH)
    assert model.timesteps == 3
    session.predict(np.ones((MAX_BATCH, 16), dtype=np.float32))
    assert sorted(calls) == sorted(manager.states)
    calls.clear()
    session.predict(np.ones((1, 16), dtype=np.float32))
    assert sorted(calls) == sorted(manager.states)


@pytest.mark.parametrize("precision", ["f16", "int8"])
def test_no_buffer_aliasing_the_map_becomes_writable(packages, precision):
    package = packages[("conv", precision)]
    model, manager = build_packed_runtime(package, precision=precision)
    forward(model, np.ones((2, 2, 8, 8), dtype=np.float32))

    def arrays():
        for state in manager.states.values():
            pattern = state.csr_pattern()
            yield state.stored
            if state.scales is not None:
                yield state.scales
            yield pattern.values
            yield pattern._sp.data
        for parameter in model.parameters():
            yield parameter.data
        for _, buffer in model.named_buffers():
            yield buffer

    mapped = 0
    for array in arrays():
        if np.shares_memory(array, package._mm):
            mapped += 1
            assert not array.flags.writeable
    assert mapped >= 2 * len(manager.states)  # values (+ scales) and biases
    for state in manager.states.values():
        values = state.csr_pattern().values
        assert not values.flags.writeable
        assert np.shares_memory(values, manager.scratch)
        assert not np.shares_memory(values, package._mm)
        assert np.shares_memory(state.csr_pattern()._sp.data, manager.scratch)
    assert manager.scratch.size == max(
        state.csr_pattern().nnz for state in manager.states.values()
    )


def _retained_and_transient(package, precision, inputs):
    """(bytes a warmed session retains, transient peak of one forward)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model, manager = build_packed_runtime(package, precision=precision)
        forward(model, inputs)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        forward(model, inputs)
        transient = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return retained, transient, manager


def test_session_memory_below_the_f32_runtime(tmp_path):
    package = export(tmp_path, "wide", "int8")
    inputs = np.random.default_rng(0).standard_normal(
        (MAX_BATCH, 96)).astype(np.float32)
    f32_retained, activations, _ = _retained_and_transient(package, None, inputs)
    retained, transient, manager = _retained_and_transient(package, "int8", inputs)
    largest = max(state.csr_pattern().nnz for state in manager.states.values())
    assert retained < f32_retained
    assert transient < largest * 4 + activations
