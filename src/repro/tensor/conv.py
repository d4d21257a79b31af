"""Convolution and pooling primitives built on one patch lowering.

These are the compute kernels of the spiking model zoo.  Every
convolution lowers its input once with :func:`im2col_t`, straight into
the ``(C*kh*kw, N*out_h*out_w)`` layout a single 2-D product consumes:
a dense GEMM against the filter matrix, or the CSR kernel of a sparse
layer.  The weight gradient is one more GEMM against the same lowering
on both routes.  The dense input gradient is the full correlation of
the output gradient with the flipped filters (one more lowering and
GEMM, no scatter-add) wherever the geometry allows it; otherwise, and
on the CSR route, the column gradient is scattered back with
:func:`col2im_t`.  Both directions are exact, which the test suite
verifies against a direct-loop reference and finite differences.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .tensor import Tensor, is_grad_enabled


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_shape(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col_t(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]) -> np.ndarray:
    """Lower image patches to columns in the ``(K, N*L)`` layout.

    ``x`` has shape ``(N, C, H, W)`` (any strides); the result has shape
    ``(C*kh*kw, N*out_h*out_w)`` with rows ordered ``(c, kh, kw)``, the
    order of ``weight.reshape(F, -1)``.  A padded input is copied into
    a zeroed channel-major buffer; the strided patch view is ordered
    ``(c, kh, kw, n, oh, ow)``, so its single reshape copy lands in
    kernel layout.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_shape(h, kh, sh, ph)
    out_w = conv_output_shape(w, kw, sw, pw)
    if ph or pw:
        padded = np.zeros((c, n, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = x.transpose(1, 0, 2, 3)
        x = padded.transpose(1, 0, 2, 3)

    # Strided view: (C, kh, kw, N, out_h, out_w)
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, kh, kw, n, out_h, out_w),
        strides=(s1, s2, s3, s0, s2 * sh, s3 * sw),
        writeable=False,
    )
    return view.reshape(c * kh * kw, n * out_h * out_w)


def col2im_t(
    cols_t: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Inverse of :func:`im2col_t`: scatter-add ``(K, N*L)`` columns back.

    Accumulates into a channel-major ``(C, N, H, W)`` buffer, which the
    column layout slices without a transpose, and returns a contiguous
    ``(N, C, H, W)`` array after one transpose at the end.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_shape(h, kh, sh, ph)
    out_w = conv_output_shape(w, kw, sw, pw)

    padded = np.zeros((c, n, h + 2 * ph, w + 2 * pw), dtype=cols_t.dtype)
    cols6 = cols_t.reshape(c, kh, kw, n, out_h, out_w)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols6[:, i, j]
    return np.ascontiguousarray(padded[:, :, ph:ph + h, pw:pw + w].transpose(1, 0, 2, 3))


def _channel_major(flat: np.ndarray, n: int, out_h: int, out_w: int) -> np.ndarray:
    """``(F, N*L)`` product rows to a contiguous ``(N, F, out_h, out_w)``."""
    return np.ascontiguousarray(flat.reshape(-1, n, out_h, out_w).transpose(1, 0, 2, 3))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor = None, stride=1, padding=0, sparse=None) -> Tensor:
    """2-D convolution over an ``(N, C, H, W)`` input.

    Parameters
    ----------
    weight:
        Filter bank of shape ``(F, C, kh, kw)``.
    bias:
        Optional per-filter bias of shape ``(F,)``.
    sparse:
        Optional ``(pattern, values)`` pair: a
        :class:`~repro.sparse.storage.CSRPattern` over the flattened
        filters and its active values.  The forward product and the
        input gradient then run through the CSR kernels; the lowering,
        bias and dense weight gradient are shared with the dense route.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    f, c_w, kh, kw = weight.shape
    if c != c_w:
        raise ValueError(f"input channels {c} do not match weight channels {c_w}")
    out_h = conv_output_shape(h, kh, stride[0], padding[0])
    out_w = conv_output_shape(w, kw, stride[1], padding[1])

    cols_t = im2col_t(x.data, (kh, kw), stride, padding)  # (K, N*L)
    if sparse is None:
        out_flat = weight.data.reshape(f, -1) @ cols_t
    else:
        pattern, values = sparse
        out_flat = pattern.matmul(values, cols_t)
    out_data = _channel_major(out_flat, n, out_h, out_w)
    if bias is not None:
        out_data += bias.data.reshape(1, f, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=requires, _prev=parents if requires else (), _op="conv2d")

    def input_grad(grad: np.ndarray, grad_flat: np.ndarray) -> np.ndarray:
        if sparse is not None:
            grad_cols = sparse[0].t_matmul(sparse[1], grad_flat)
        elif stride == (1, 1) and padding[0] < kh and padding[1] < kw:
            # Full correlation with the flipped filters: the stride-1
            # transposed convolution is itself a stride-1 convolution.
            flipped = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
            grad_cols = im2col_t(grad, (kh, kw), (1, 1), (kh - 1 - padding[0], kw - 1 - padding[1]))
            return _channel_major(flipped @ grad_cols, n, h, w)
        else:
            grad_cols = weight.data.reshape(f, -1).T @ grad_flat
        return col2im_t(grad_cols, (n, c, h, w), (kh, kw), stride, padding)

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(n, f, out_h * out_w).transpose(1, 0, 2).reshape(f, -1)
        if weight.requires_grad:
            # Dense on both routes: regrowth scores need the gradient at
            # inactive positions too.
            weight._accumulate((cols_t @ grad_flat.T).T.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            x._accumulate(input_grad(grad, grad_flat))

    out._backward = backward
    return out


def _pool_geometry(x: Tensor, kernel_size, stride):
    kernel = _pair(kernel_size)
    stride_p = _pair(stride) if stride is not None else kernel
    out_h = conv_output_shape(x.shape[2], kernel[0], stride_p[0], 0)
    out_w = conv_output_shape(x.shape[3], kernel[1], stride_p[1], 0)
    return kernel, stride_p, x.shape, out_h, out_w


def avg_pool2d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Average pooling over the spatial dimensions.

    Non-overlapping windows (stride equal to the kernel, the default)
    reduce a ``(N, C, oh, kh, ow, kw)`` reshape and broadcast the
    gradient back; other geometries pool the :func:`im2col_t` lowering.
    """
    kernel, stride_p, shape, out_h, out_w = _pool_geometry(x, kernel_size, stride)
    n, c = shape[:2]
    kh, kw = kernel
    tiled = stride_p == kernel
    if tiled:
        crop = x.data[:, :, :out_h * kh, :out_w * kw]
        out_data = crop.reshape(n, c, out_h, kh, out_w, kw).mean(axis=(3, 5))
    else:
        cols_t = im2col_t(x.data, kernel, stride_p, (0, 0))
        pooled = cols_t.reshape(c, kh * kw, -1).mean(axis=1)
        out_data = _channel_major(pooled, n, out_h, out_w)
    requires = is_grad_enabled() and x.requires_grad
    out = Tensor(out_data, requires_grad=requires, _prev=(x,) if requires else (), _op="avg_pool2d")

    def backward(grad: np.ndarray) -> None:
        share = grad / (kh * kw)
        if tiled:
            full = np.zeros(shape, dtype=grad.dtype)
            full[:, :, :out_h * kh, :out_w * kw] = share.repeat(kh, axis=2).repeat(kw, axis=3)
            x._accumulate(full)
            return
        share_t = share.transpose(1, 0, 2, 3).reshape(c, 1, -1)
        grad_cols = np.broadcast_to(share_t, (c, kh * kw, share_t.shape[2])).reshape(c * kh * kw, -1)
        x._accumulate(col2im_t(grad_cols, shape, kernel, stride_p, (0, 0)))

    out._backward = backward
    return out


def max_pool2d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Max pooling over the spatial dimensions (through :func:`im2col_t`)."""
    kernel, stride_p, shape, out_h, out_w = _pool_geometry(x, kernel_size, stride)
    n, c = shape[:2]
    kh, kw = kernel
    cols = im2col_t(x.data, kernel, stride_p, (0, 0)).reshape(c, kh * kw, -1)
    argmax = cols.argmax(axis=1)[:, None, :]
    out_data = _channel_major(np.take_along_axis(cols, argmax, axis=1), n, out_h, out_w)
    requires = is_grad_enabled() and x.requires_grad
    out = Tensor(out_data, requires_grad=requires, _prev=(x,) if requires else (), _op="max_pool2d")

    def backward(grad: np.ndarray) -> None:
        grad_cols = np.zeros(cols.shape, dtype=grad.dtype)
        np.put_along_axis(grad_cols, argmax, grad.transpose(1, 0, 2, 3).reshape(c, 1, -1), axis=1)
        x._accumulate(col2im_t(grad_cols.reshape(c * kh * kw, -1), shape, kernel, stride_p, (0, 0)))

    out._backward = backward
    return out
