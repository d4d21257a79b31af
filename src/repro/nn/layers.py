"""Standard neural network layers on top of the autograd engine."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, avg_pool2d, is_grad_enabled, masked_conv2d, masked_linear, max_pool2d
from . import init
from .module import Module, Parameter


def _layer_dispatch_info(layer) -> Optional[dict]:
    """Shared ``dispatch_info`` body for masked layers (duck-typed on
    ``weight_state`` to avoid importing the sparse engine here)."""
    state = layer.weight_state
    if state is None or state.manager is None:
        return None
    return state.manager.explain_dispatch(state.name)


def _keep_index(keep, bound: int, what: str) -> np.ndarray:
    """Validate a keep-index array for :meth:`compact` (sorted, in range)."""
    index = np.asarray(keep, dtype=np.int64).reshape(-1)
    if index.size == 0:
        raise ValueError(f"compact() must keep at least one {what}")
    if index.min() < 0 or index.max() >= bound:
        raise ValueError(f"{what} keep indices out of range [0, {bound})")
    if np.any(np.diff(index) <= 0):
        raise ValueError(f"{what} keep indices must be sorted and unique")
    return index


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with weight shape ``(out, in)``.

    When a :class:`~repro.sparse.engine.SparsityManager` binds layers,
    ``weight_state`` carries the layer's mask/CSR state and the forward
    pass dispatches dense-vs-CSR by measured density.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng=rng))
        if bias:
            self.bias = Parameter(init.uniform_bias((out_features,), self.weight.shape, rng=rng))
        else:
            self.bias = None
        self.weight_state = None

    def forward(self, x: Tensor) -> Tensor:
        return masked_linear(x, self.weight, self.bias, self.weight_state)

    def dispatch_info(self) -> Optional[dict]:
        """Dispatch decision for this layer, or ``None`` when unbound.

        Delegates to the owning manager's ``explain_dispatch`` so users
        can ask a layer directly which route (dense vs CSR) its next
        forward will take and why.
        """
        return _layer_dispatch_info(self)

    def compact(self, keep_out=None, keep_in=None) -> "Linear":
        """Physically shrink the layer to the kept output/input features.

        Structured pruning zeroes whole weight rows but still pays dense
        FLOPs for them; compaction slices the pruned rows (``keep_out``)
        and the input columns fed by upstream pruned units (``keep_in``)
        out of the weight matrix, so the layer runs a genuinely smaller
        kernel.  Any bound ``weight_state`` is detached — the caller
        (see :func:`repro.sparse.structured.compact_model`) rebinds a
        fresh manager over the sliced shapes.
        """
        weight = self.weight.data
        if keep_out is not None:
            keep_out = _keep_index(keep_out, self.out_features, "output feature")
            weight = weight[keep_out]
            if self.bias is not None:
                self.bias = Parameter(self.bias.data[keep_out].copy())
            self.out_features = int(keep_out.size)
        if keep_in is not None:
            keep_in = _keep_index(keep_in, self.in_features, "input feature")
            weight = weight[:, keep_in]
            self.in_features = int(keep_in.size)
        self.weight = Parameter(np.ascontiguousarray(weight))
        self.weight_state = None
        return self

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class Conv2d(Module):
    """2-D convolution with filters of shape ``(F, C, kh, kw)``.

    Like :class:`Linear`, a bound ``weight_state`` routes the forward
    pass through the CSR fast path at low measured density.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng=rng))
        if bias:
            self.bias = Parameter(init.uniform_bias((out_channels,), shape, rng=rng))
        else:
            self.bias = None
        self.weight_state = None

    def forward(self, x: Tensor) -> Tensor:
        return masked_conv2d(
            x, self.weight, self.bias,
            stride=self.stride, padding=self.padding, state=self.weight_state,
        )

    def dispatch_info(self) -> Optional[dict]:
        """Dispatch decision for this layer, or ``None`` when unbound."""
        return _layer_dispatch_info(self)

    def compact(self, keep_out=None, keep_in=None) -> "Conv2d":
        """Physically remove pruned filters (``keep_out``) and the input
        channels of upstream pruned filters (``keep_in``)."""
        weight = self.weight.data
        if keep_out is not None:
            keep_out = _keep_index(keep_out, self.out_channels, "filter")
            weight = weight[keep_out]
            if self.bias is not None:
                self.bias = Parameter(self.bias.data[keep_out].copy())
            self.out_channels = int(keep_out.size)
        if keep_in is not None:
            keep_in = _keep_index(keep_in, self.in_channels, "input channel")
            weight = weight[:, keep_in]
            self.in_channels = int(keep_in.size)
        self.weight = Parameter(np.ascontiguousarray(weight))
        self.weight_state = None
        return self

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel={self.kernel_size}, stride={self.stride}, pad={self.padding})"
        )


def _batch_norm(layer, x: Tensor, axes) -> Tensor:
    """Batch normalization of ``x`` over ``axes`` as one autograd node.

    Train mode normalizes by the batch statistics and folds them into
    the layer's running statistics; eval mode uses the running ones.
    The forward and the running-statistic update evaluate the same
    float32 expressions, in the same order, as the composed
    ``(x - mean) / sqrt(var + eps) * weight + bias`` Tensor graph
    (with ``x.mean``/``x.var`` statistics), so they are bit-identical
    to it; the backward is the analytic batch-norm gradient.
    """
    shape = [1] * x.ndim
    shape[1] = layer.num_features
    if layer.training:
        inv_count = np.float32(1.0 / (x.data.size // layer.num_features))
        mean = x.data.sum(axis=axes, keepdims=True) * inv_count
        centered = x.data - mean
        var = (centered * centered).sum(axis=axes, keepdims=True) * inv_count
        m = layer.momentum
        layer.update_buffer(
            "running_mean",
            ((1 - m) * layer.running_mean + m * mean.reshape(-1)).astype(np.float32),
        )
        layer.update_buffer(
            "running_var",
            ((1 - m) * layer.running_var + m * var.reshape(-1)).astype(np.float32),
        )
    else:
        centered = x.data - layer.running_mean.reshape(shape)
        var = layer.running_var.reshape(shape)
    std = np.sqrt(var + np.float32(layer.eps))
    x_hat = centered / std
    scale = layer.weight.data.reshape(shape)
    out_data = x_hat * scale + layer.bias.data.reshape(shape)

    weight, bias, training = layer.weight, layer.bias, layer.training
    parents = (x, weight, bias)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=requires, _prev=parents if requires else (), _op="batch_norm")

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            weight._accumulate((grad * x_hat).sum(axis=axes))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=axes))
        if x.requires_grad:
            grad_hat = grad * scale
            if training:  # the batch statistics depend on x too
                grad_hat = (
                    grad_hat
                    - grad_hat.mean(axis=axes, keepdims=True)
                    - x_hat * (grad_hat * x_hat).mean(axis=axes, keepdims=True)
                )
            x._accumulate(grad_hat / std)

    out._backward = backward
    return out


class BatchNorm2d(Module):
    """Batch normalization over ``(N, C, H, W)`` inputs.

    Keeps running statistics for evaluation mode, like torch.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError("BatchNorm2d expects (N, C, H, W) input")
        return _batch_norm(self, x, (0, 2, 3))

    def compact(self, keep) -> "BatchNorm2d":
        """Shrink to the kept channels (affine params + running stats)."""
        _compact_batchnorm(self, keep)
        return self

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


def _compact_batchnorm(layer, keep) -> None:
    keep = _keep_index(keep, layer.num_features, "channel")
    layer.weight = Parameter(layer.weight.data[keep].copy())
    layer.bias = Parameter(layer.bias.data[keep].copy())
    layer.update_buffer("running_mean", layer.running_mean[keep].copy())
    layer.update_buffer("running_var", layer.running_var[keep].copy())
    layer.num_features = int(keep.size)


class BatchNorm1d(Module):
    """Batch normalization over ``(N, F)`` inputs."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2:
            raise ValueError("BatchNorm1d expects (N, F) input")
        return _batch_norm(self, x, (0,))

    def compact(self, keep) -> "BatchNorm1d":
        """Shrink to the kept features (affine params + running stats)."""
        _compact_batchnorm(self, keep)
        return self


class AvgPool2d(Module):
    """Average pooling layer."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(kernel={self.kernel_size})"


class MaxPool2d(Module):
    """Max pooling layer."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel={self.kernel_size})"


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(np.float32) / keep
        return x * Tensor(mask)


class Identity(Module):
    """Pass-through layer; handy for optional residual shortcuts."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Chain modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, str(index), module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x

    def __iter__(self):
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __len__(self) -> int:
        return len(self._modules)
