"""Fused training ops against the composed graphs they replace.

BatchNorm (1d, 2d, tdBN) and the neuron update (LIF, IF, PLIF, ALIF)
each run as a few hand-written autograd nodes.  Their forwards must be
bit-identical to test-local copies of the composed Tensor-op formulas,
and their gradients close to the composed graph's and to finite
differences.  The one-lowering convolution is checked against a
direct-loop reference over stride, padding and kernel size, and its
flipped-filter input gradient against the column-scatter one.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import BatchNorm1d, BatchNorm2d
from repro.snn import (
    AdaptiveLIFNeuron,
    IFNeuron,
    LIFNeuron,
    ParametricLIFNeuron,
    ThresholdDependentBatchNorm2d,
)
from repro.tensor import (
    Tensor,
    check_gradients,
    col2im_t,
    conv2d,
    conv_output_shape,
    is_grad_enabled,
)

SEEDS = st.integers(0, 2**31 - 1)


def composed_batch_norm(layer, x, axes):
    """The composed-op BatchNorm forward the fused node replaced.

    Returns ``(out, running_mean, running_var)`` without touching the
    layer's buffers."""
    shape = [1] * x.ndim
    shape[1] = layer.num_features
    running_mean, running_var = layer.running_mean, layer.running_var
    if layer.training:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        m = layer.momentum
        running_mean = ((1 - m) * running_mean + m * mean.data.reshape(-1)).astype(np.float32)
        running_var = ((1 - m) * running_var + m * var.data.reshape(-1)).astype(np.float32)
    else:
        mean = Tensor(layer.running_mean.reshape(shape))
        var = Tensor(layer.running_var.reshape(shape))
    x_hat = (x - mean) / (var + layer.eps).sqrt()
    out = x_hat * layer.weight.reshape(shape) + layer.bias.reshape(shape)
    return out, running_mean, running_var


def make_batch_norm(kind, channels, rng):
    layer = {
        "2d": lambda: BatchNorm2d(channels),
        "1d": lambda: BatchNorm1d(channels),
        "td": lambda: ThresholdDependentBatchNorm2d(channels, v_threshold=0.5, alpha_td=1.5),
    }[kind]()
    layer.weight.data[:] += rng.standard_normal(channels).astype(np.float32) * 0.3
    layer.bias.data[:] = rng.standard_normal(channels).astype(np.float32) * 0.3
    layer.update_buffer("running_mean", rng.standard_normal(channels).astype(np.float32))
    layer.update_buffer("running_var", rng.uniform(0.5, 2.0, channels).astype(np.float32))
    return layer


def batch_norm_input(kind, batch, channels, spatial, rng):
    shape = (batch, channels) if kind == "1d" else (batch, channels, spatial, spatial + 1)
    data = rng.standard_normal(shape).astype(np.float32) * 2.0 + 0.5
    return Tensor(data, requires_grad=True)


def leaf_grads(tensors):
    return [None if t.grad is None else t.grad.copy() for t in tensors]


class TestBatchNorm:
    @pytest.mark.smoke
    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["2d", "1d", "td"]),
        training=st.booleans(),
        batch=st.integers(2, 5),
        channels=st.integers(1, 4),
        spatial=st.integers(1, 4),
        seed=SEEDS,
    )
    def test_matches_composed_formula(self, kind, training, batch, channels, spatial, seed):
        rng = np.random.default_rng(seed)
        layer = make_batch_norm(kind, channels, rng)
        layer.train(training)
        x = batch_norm_input(kind, batch, channels, spatial, rng)
        axes = 0 if kind == "1d" else (0, 2, 3)
        expected, expected_mean, expected_var = composed_batch_norm(layer, x, axes)

        out = layer(x)
        # Forward and running statistics: bit-identical.
        assert np.array_equal(out.data, expected.data)
        assert np.array_equal(layer.running_mean, expected_mean)
        assert np.array_equal(layer.running_var, expected_var)

        # Gradients: close to the composed graph's.
        upstream = rng.standard_normal(out.shape).astype(np.float32)
        params = [x, layer.weight, layer.bias]
        out.backward(upstream)
        fused = leaf_grads(params)
        for p in params:
            p.zero_grad()
        expected.backward(upstream)
        for got, want in zip(fused, leaf_grads(params)):
            assert np.allclose(got, want, rtol=1e-4, atol=1e-4)

    @pytest.mark.smoke
    @pytest.mark.parametrize("kind,training", itertools.product(["2d", "1d", "td"], [True, False]))
    def test_gradcheck(self, kind, training):
        rng = np.random.default_rng(11)
        layer = make_batch_norm(kind, 3, rng)
        layer.train(training)
        x = batch_norm_input(kind, 4, 3, 3, rng)
        weights = Tensor(rng.standard_normal((4, 3) if kind == "1d" else (4, 3, 3, 4)).astype(np.float32))
        check_gradients(lambda: (layer(x) * weights).sum(), [x, layer.weight, layer.bias])


def composed_spike(x, surrogate):
    """The composed Heaviside/surrogate op the ``fire`` node replaced."""
    spikes = (x.data >= 0.0).astype(np.float32)
    requires = is_grad_enabled() and x.requires_grad
    out = Tensor(spikes, requires_grad=requires, _prev=(x,) if requires else (), _op="spike")

    def backward(grad):
        x._accumulate(grad * surrogate(x.data).astype(np.float32))

    out._backward = backward
    return out


def composed_step(neuron, current, leak, threshold=None):
    """The composed-op neuron update the ``integrate`` node replaced."""
    if neuron.v is None:
        neuron.v = current
    else:
        membrane = neuron.v + current if leak is None else neuron.v * leak + current
        if neuron.o_prev is not None:
            membrane = membrane - neuron.o_prev * neuron.v_threshold
        neuron.v = membrane
    shift = neuron.v_threshold if threshold is None else Tensor(threshold)
    spikes = composed_spike(neuron.v - shift, neuron.surrogate)
    neuron.o_prev = spikes
    neuron._record(spikes)
    return spikes


class ComposedLIF(LIFNeuron):
    def forward(self, current):
        return composed_step(self, current, self.alpha)


class ComposedIF(IFNeuron):
    def forward(self, current):
        return composed_step(self, current, None)


class ComposedPLIF(ParametricLIFNeuron):
    def forward(self, current):
        return composed_step(self, current, self.decay_logit.sigmoid())


class ComposedALIF(AdaptiveLIFNeuron):
    def forward(self, current):
        if self.adaptation is None:
            self.adaptation = np.zeros(current.shape, dtype=np.float32)
        threshold = self.v_threshold + self.beta * self.adaptation
        spikes = composed_step(self, current, self.alpha, threshold)
        self.adaptation = self.rho * self.adaptation + spikes.data
        return spikes


NEURONS = {
    "lif": (lambda: LIFNeuron(alpha=0.6, v_threshold=0.4), lambda: ComposedLIF(alpha=0.6, v_threshold=0.4)),
    "if": (lambda: IFNeuron(v_threshold=0.4), lambda: ComposedIF(v_threshold=0.4)),
    "plif": (
        lambda: ParametricLIFNeuron(init_alpha=0.7, v_threshold=0.4),
        lambda: ComposedPLIF(init_alpha=0.7, v_threshold=0.4),
    ),
    "alif": (
        lambda: AdaptiveLIFNeuron(alpha=0.6, v_threshold=0.4, beta=0.3),
        lambda: ComposedALIF(alpha=0.6, v_threshold=0.4, beta=0.3),
    ),
}


def unroll(neuron, currents, readout):
    """Drive ``neuron`` over the timesteps; backprop a weighted spike sum."""
    potentials, spikes, total = [], [], None
    for current, weights in zip(currents, readout):
        out = neuron(current)
        potentials.append(neuron.v.data.copy())
        spikes.append(out.data.copy())
        term = (out * weights).sum()
        total = term if total is None else total + term
    total.backward()
    return potentials, spikes


class TestNeuronUpdate:
    @pytest.mark.smoke
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(sorted(NEURONS)), steps=st.integers(1, 4),
           rows=st.integers(1, 4), seed=SEEDS)
    def test_matches_composed_graph(self, kind, steps, rows, seed):
        rng = np.random.default_rng(seed)
        shape = (rows, 5)
        # Half the currents sit on a 0.1 grid, so membranes land exactly
        # on the threshold (0.4) and the Heaviside edge gets exercised.
        data = [
            np.where(rng.random(shape) < 0.5, rng.integers(-4, 9, shape) * 0.1,
                     rng.standard_normal(shape) * 0.6).astype(np.float32)
            for _ in range(steps)
        ]
        readout = [Tensor(rng.standard_normal(shape).astype(np.float32)) for _ in range(steps)]
        results = []
        for factory in NEURONS[kind]:
            neuron = factory()
            currents = [Tensor(d, requires_grad=True) for d in data]
            potentials, spikes = unroll(neuron, currents, readout)
            grads = leaf_grads(currents + list(neuron.parameters()))
            results.append((potentials, spikes, grads, neuron.spike_count))
        (fused_v, fused_s, fused_g, fused_count), (ref_v, ref_s, ref_g, ref_count) = results
        # Membrane potential and spikes: bit-identical at every step.
        for got, want in zip(fused_v + fused_s, ref_v + ref_s):
            assert np.array_equal(got, want)
        assert fused_count == ref_count
        for got, want in zip(fused_g, ref_g):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.allclose(got, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.smoke
    def test_plif_decay_receives_gradient(self):
        neuron = ParametricLIFNeuron(init_alpha=0.5, v_threshold=0.3)
        rng = np.random.default_rng(3)
        currents = [Tensor(rng.standard_normal((3, 4)).astype(np.float32)) for _ in range(3)]
        readout = [Tensor(np.ones((3, 4), dtype=np.float32))] * 3
        unroll(neuron, currents, readout)
        assert neuron.decay_logit.grad is not None
        assert np.all(np.isfinite(neuron.decay_logit.grad))
        assert neuron.decay_logit.grad[0] != 0.0


def count_nodes(out, leaves):
    """Autograd nodes between ``out`` and the given leaf tensors."""
    stop = {id(t) for t in leaves}
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) in seen or id(node) in stop:
            continue
        seen.add(id(node))
        if node._prev:
            count += 1
            stack.extend(node._prev)
    return count


class TestTapeSize:
    @pytest.mark.smoke
    @pytest.mark.parametrize("kind,training", itertools.product(["2d", "1d", "td"], [True, False]))
    def test_batch_norm_is_one_node(self, kind, training):
        rng = np.random.default_rng(0)
        layer = make_batch_norm(kind, 3, rng)
        layer.train(training)
        x = batch_norm_input(kind, 4, 3, 2, rng)
        assert count_nodes(layer(x), [x, layer.weight, layer.bias]) == 1

    @pytest.mark.smoke
    @pytest.mark.parametrize("kind", sorted(NEURONS))
    def test_neuron_step_is_two_nodes(self, kind):
        neuron = NEURONS[kind][0]()
        first = Tensor(np.full((2, 3), 0.5, dtype=np.float32), requires_grad=True)
        second = Tensor(np.full((2, 3), 0.2, dtype=np.float32), requires_grad=True)
        spikes = neuron(first)
        assert count_nodes(spikes, [first]) == 1  # fire only: v starts as the current
        v_prev, o_prev = neuron.v, neuron.o_prev
        spikes = neuron(second)
        leaves = [second, v_prev, o_prev] + list(neuron.parameters())
        if kind == "plif":  # the sigmoid of the decay logit is its own node
            assert count_nodes(spikes, leaves) == 3
        else:
            assert count_nodes(spikes, leaves) == 2


def naive_conv2d(x, w, stride, padding):
    """Direct-loop convolution with per-axis stride and padding."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    (sh, sw), (ph, pw) = stride, padding
    out_h = conv_output_shape(h, kh, sh, ph)
    out_w = conv_output_shape(wd, kw, sw, pw)
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, f, out_h, out_w))
    for y in range(out_h):
        for z in range(out_w):
            patch = xp[:, :, y * sh:y * sh + kh, z * sw:z * sw + kw]
            out[:, :, y, z] = np.einsum("nckl,fckl->nf", patch, w)
    return out


CONV_GRID = list(itertools.product([1, 2], [0, 1, 2], [1, 3, 5]))


class TestConvLowering:
    @pytest.mark.smoke
    @pytest.mark.parametrize("stride,padding,kernel", CONV_GRID)
    def test_dense_values_and_input_grad(self, stride, padding, kernel):
        rng = np.random.default_rng(stride * 100 + padding * 10 + kernel)
        h, w = 7, 9  # non-square
        x = Tensor(rng.standard_normal((2, 3, h, w)).astype(np.float32), requires_grad=True)
        weight = Tensor(rng.standard_normal((4, 3, kernel, kernel)).astype(np.float32), requires_grad=True)
        out = conv2d(x, weight, None, stride=stride, padding=padding)
        expected = naive_conv2d(x.data, weight.data, (stride, stride), (padding, padding))
        assert out.shape == expected.shape
        assert np.allclose(out.data, expected, rtol=1e-4, atol=1e-4)

        # Input gradient against the column-scatter reference; weight
        # gradient against the direct patch sum.
        grad = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(grad)
        grad_flat = grad.transpose(1, 0, 2, 3).reshape(4, -1)
        grad_cols = weight.data.reshape(4, -1).T @ grad_flat
        scattered = col2im_t(grad_cols, x.shape, (kernel, kernel), (stride, stride), (padding, padding))
        assert np.allclose(x.grad, scattered, rtol=1e-4, atol=1e-4)

        xp = np.pad(x.data.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        grad_w = np.zeros(weight.shape)
        for y in range(out.shape[2]):
            for z in range(out.shape[3]):
                patch = xp[:, :, y * stride:y * stride + kernel, z * stride:z * stride + kernel]
                grad_w += np.einsum("nf,nckl->fckl", grad[:, :, y, z], patch)
        assert np.allclose(weight.grad, grad_w, rtol=1e-4, atol=1e-3)

    @pytest.mark.smoke
    @settings(max_examples=20, deadline=None)
    @given(stride=st.tuples(st.integers(1, 2), st.integers(1, 2)),
           padding=st.tuples(st.integers(0, 3), st.integers(0, 3)),
           kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           seed=SEEDS)
    def test_rectangular_geometry(self, stride, padding, kernel, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 2, 5, 6)).astype(np.float32), requires_grad=True)
        weight = Tensor(rng.standard_normal((3, 2) + kernel).astype(np.float32), requires_grad=True)
        out = conv2d(x, weight, None, stride=stride, padding=padding)
        assert np.allclose(out.data, naive_conv2d(x.data, weight.data, stride, padding),
                           rtol=1e-4, atol=1e-4)
        grad = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(grad)
        grad_cols = weight.data.reshape(3, -1).T @ grad.transpose(1, 0, 2, 3).reshape(3, -1)
        assert np.allclose(x.grad, col2im_t(grad_cols, x.shape, kernel, stride, padding),
                           rtol=1e-4, atol=1e-4)

    @pytest.mark.smoke
    @pytest.mark.parametrize("stride,padding,kernel", [
        (1, 1, 3),   # transposed-conv input gradient
        (1, 0, 3),
        (1, 2, 5),
        (1, 1, 1),   # padding > kernel - 1: column-scatter fallback
        (1, 3, 3),
        (2, 1, 3),   # stride 2: column-scatter fallback
    ])
    def test_gradcheck(self, stride, padding, kernel):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 2, 5, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, kernel, kernel)).astype(np.float32) * 0.4,
                   requires_grad=True)
        b = Tensor(rng.standard_normal(3).astype(np.float32) * 0.1, requires_grad=True)
        check_gradients(
            lambda: (conv2d(x, w, b, stride=stride, padding=padding) ** 2).sum(), [x, w, b]
        )
