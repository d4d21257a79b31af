"""CSR-backed sparse inference through the one ``CSRPattern`` runtime.

Frozen layers serve straight from CSR (values + column indices + row
pointers) and match the dense masked model; a packed ``.reprom``
artifact is the compressed deployment form of a trained model, served
with every weight layer on the CSR route.
"""

import numpy as np
import pytest

from repro.nn import Conv2d, Linear
from repro.optim import SGD
from repro.snn.models import SpikingConvNet
from repro.sparse import (
    NDSNN,
    PackedModel,
    SparsityManager,
    StoredPackedState,
    build_packed_runtime,
    serving_storage_report,
    write_package,
)
from repro.tensor import Tensor, cross_entropy, no_grad

CONVNET_SPEC = {
    "model": "convnet",
    "kwargs": {"num_classes": 5, "in_channels": 2, "image_size": 8,
               "channels": [8, 8], "timesteps": 2},
    "encoder": "direct",
    "seed": 0,
}


def sparse_trained_model(seed=0):
    model = SpikingConvNet(
        num_classes=5, in_channels=2, image_size=8, channels=(8, 8),
        timesteps=2, rng=np.random.default_rng(seed),
    )
    method = NDSNN(initial_sparsity=0.5, final_sparsity=0.8,
                   total_iterations=12, update_frequency=4,
                   rng=np.random.default_rng(seed + 1))
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    method.bind(model, optimizer)
    rng = np.random.default_rng(seed + 2)
    for iteration in range(12):
        x = Tensor(rng.standard_normal((4, 2, 8, 8)).astype(np.float32))
        y = rng.integers(0, 5, 4)
        loss = cross_entropy(model(x), y)
        optimizer.zero_grad()
        loss.backward()
        method.after_backward(iteration)
        optimizer.step()
        method.after_step(iteration)
    return model, method


def packaged(tmp_path, model, manager, precision="int8"):
    model.eval()
    path = tmp_path / f"model_{precision}.reprom"
    write_package(path, model, manager, CONVNET_SPEC, precision=precision)
    return build_packed_runtime(PackedModel(path), precision=precision)


def frozen_csr(layer):
    """Freeze ``layer`` onto the CSR route with its non-zeros as mask."""
    manager = SparsityManager(layer)
    manager.set_mask("weight", layer.weight.data != 0)
    manager.set_execution("csr")
    manager.freeze()
    assert layer.dispatch_info()["route"] == "csr"
    return manager


class TestCSRLayers:
    def test_csr_linear_matches_dense(self):
        layer = Linear(10, 6, rng=np.random.default_rng(0))
        layer.weight.data *= (np.random.default_rng(1).random((6, 10)) < 0.4)
        x = Tensor(np.random.default_rng(2).standard_normal((3, 10)).astype(np.float32))
        dense = layer(x).data
        frozen_csr(layer)
        assert np.allclose(layer(x).data, dense, atol=1e-5)

    def test_csr_conv_matches_dense(self):
        layer = Conv2d(3, 5, 3, stride=2, padding=1, rng=np.random.default_rng(3))
        layer.weight.data *= (np.random.default_rng(4).random(layer.weight.shape) < 0.3)
        x = Tensor(np.random.default_rng(5).standard_normal((2, 3, 8, 8)).astype(np.float32))
        dense = layer(x).data
        frozen_csr(layer)
        assert np.allclose(layer(x).data, dense, atol=1e-4)

    def test_csr_conv_channel_check(self):
        layer = Conv2d(3, 5, 3, rng=np.random.default_rng(6))
        frozen_csr(layer)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32)))

    def test_no_bias_layers(self):
        layer = Linear(4, 3, bias=False, rng=np.random.default_rng(7))
        x = Tensor(np.random.default_rng(8).standard_normal((2, 4)).astype(np.float32))
        dense = layer(x).data
        frozen_csr(layer)
        assert np.allclose(layer(x).data, dense, atol=1e-5)


class TestCompressModel:
    def test_outputs_identical_after_compression(self):
        model, method = sparse_trained_model()
        x = Tensor(np.random.default_rng(9).standard_normal((3, 2, 8, 8)).astype(np.float32))
        model.eval()
        with no_grad():
            dense_out = model(x).data.copy()
        method.masks.set_execution("csr")
        method.masks.freeze()
        with no_grad():
            sparse_out = model(x).data
        assert np.allclose(dense_out, sparse_out, atol=1e-4)

    def test_all_weight_layers_replaced(self, tmp_path):
        model, method = sparse_trained_model(seed=1)
        served, manager = packaged(tmp_path, model, method.masks)
        layers = [m for m in served.modules() if isinstance(m, (Linear, Conv2d))]
        assert len(layers) == 3
        for layer in layers:
            assert isinstance(layer.weight_state, StoredPackedState)
            assert layer.dispatch_info()["route"] == "csr"
            # no dense weight exists: a read-only zero-stride placeholder
            weight = layer.weight.data
            assert not weight.flags.writeable
            assert all(stride == 0 for stride in weight.strides)

    def test_report_density_matches_training_sparsity(self, tmp_path):
        model, method = sparse_trained_model(seed=2)
        sparsity = method.sparsity()
        _, manager = packaged(tmp_path, model, method.masks)
        report = serving_storage_report(manager)
        assert len(report["layers"]) == 3  # 2 convs + classifier
        assert abs(manager.sparsity() - sparsity) < 1e-6
        assert report["total_csr_bits"] == sum(
            state.csr_pattern().storage_bits() for state in manager.states.values()
        )

    def test_storage_shrinks_with_sparsity(self):
        model, method = sparse_trained_model(seed=3)
        bits_sparse = serving_storage_report(method.masks)

        fresh = SpikingConvNet(num_classes=5, in_channels=2, image_size=8,
                               channels=(8, 8), timesteps=2,
                               rng=np.random.default_rng(3))
        bits_dense = serving_storage_report(SparsityManager(fresh))
        assert bits_sparse["total_csr_bits"] < bits_dense["total_csr_bits"]
        assert bits_sparse["total_packed_bytes"] < bits_dense["total_packed_bytes"]
