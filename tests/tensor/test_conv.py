"""Convolution/pooling kernels: values against a naive reference and
gradients against finite differences."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    avg_pool2d,
    check_gradients,
    col2im_t,
    conv2d,
    conv_output_shape,
    im2col_t,
    max_pool2d,
)


def naive_conv2d(x, w, b, stride, padding):
    """Direct-loop reference convolution."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    out_h = conv_output_shape(h, kh, stride, padding)
    out_w = conv_output_shape(wd, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, f, out_h, out_w), dtype=np.float64)
    for i in range(n):
        for j in range(f):
            for y in range(out_h):
                for z in range(out_w):
                    patch = xp[i, :, y * stride:y * stride + kh, z * stride:z * stride + kw]
                    out[i, j, y, z] = (patch * w[j]).sum()
            if b is not None:
                out[i, j] += b[j]
    return out.astype(np.float32)


class TestConvForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = naive_conv2d(x, w, b, stride, padding)
        assert np.allclose(out.data, expected, atol=1e-4)

    def test_no_bias(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(w), None, padding=1)
        expected = naive_conv2d(x, w, None, 1, 1)
        assert np.allclose(out.data, expected, atol=1e-4)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((3, 5, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            conv2d(x, w, None)

    def test_output_shape_helper(self):
        assert conv_output_shape(32, 3, 1, 1) == 32
        assert conv_output_shape(32, 3, 2, 1) == 16
        assert conv_output_shape(5, 5, 1, 0) == 1


class TestIm2Col:
    def test_roundtrip_identity_for_unit_stride_kernel1(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        cols = im2col_t(x, (1, 1), (1, 1), (0, 0))
        back = col2im_t(cols, x.shape, (1, 1), (1, 1), (0, 0))
        assert np.allclose(back, x)

    def test_col2im_counts_overlaps(self):
        # With a 2x2 kernel at stride 1, interior pixels appear in 4 patches.
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        cols = im2col_t(x, (2, 2), (1, 1), (0, 0))
        back = col2im_t(cols, x.shape, (2, 2), (1, 1), (0, 0))
        assert back[0, 0, 1, 1] == 4.0
        assert back[0, 0, 0, 0] == 1.0
        assert back[0, 0, 0, 1] == 2.0

    def test_im2col_shape(self):
        x = np.zeros((2, 3, 8, 8), dtype=np.float32)
        cols = im2col_t(x, (3, 3), (2, 2), (1, 1))
        assert cols.shape == (27, 2 * 16)


class TestConvGradients:
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_gradcheck(self, stride, padding):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 2, 5, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32) * 0.4, requires_grad=True)
        b = Tensor(rng.standard_normal(3).astype(np.float32) * 0.1, requires_grad=True)
        check_gradients(
            lambda: (conv2d(x, w, b, stride=stride, padding=padding) ** 2).sum(), [x, w, b]
        )


class TestPooling:
    def test_avg_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_gradient(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: (avg_pool2d(x, 2) ** 2).sum(), [x])

    def test_max_pool_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 2, 4, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: (max_pool2d(x, 2) ** 2).sum(), [x])

    def test_pool_with_stride(self):
        x = Tensor(np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5))
        out = avg_pool2d(x, 3, stride=2)
        assert out.shape == (1, 1, 2, 2)

    def test_avg_pool_crops_ragged_edge(self):
        # Tiled windows drop the last row/column of an odd-sized map,
        # which then gets no gradient.
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 2, 5, 5)).astype(np.float32), requires_grad=True)
        out = avg_pool2d(x, 2)
        expected = x.data[:, :, :4, :4].reshape(2, 2, 2, 2, 2, 2).mean(axis=(3, 5))
        assert np.allclose(out.data, expected)
        check_gradients(lambda: (avg_pool2d(x, 2) ** 2).sum(), [x])
        assert np.all(x.grad[:, :, 4, :] == 0) and np.all(x.grad[:, :, :, 4] == 0)

    @pytest.mark.parametrize("pool", [avg_pool2d, max_pool2d])
    def test_overlapping_pool_gradient(self, pool):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 2, 5, 6)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: (pool(x, 3, stride=2) ** 2).sum(), [x])
