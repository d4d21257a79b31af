"""Base class shared by the spiking model zoo.

A spiking model wraps a stateful backbone in a temporal loop: the input
is presented for ``T`` timesteps (direct encoding by default), the
backbone produces per-timestep logits, and the classifier output is the
mean of those logits — the standard readout for directly-trained
CIFAR-scale SNNs and the one the paper's SpikingJelly substrate uses.
Grad-free eval forwards run the same computation layer-major (the
multi-step mode of SpikingJelly): the timesteps are stacked into one
batch so each layer runs once per forward, bit-identically.
"""

from __future__ import annotations

from typing import Optional

from ...nn.module import Module
from ...tensor import Tensor, concatenate, is_grad_enabled
from ...tensor.tensor import stacked_timesteps, time_blocks
from ..encoding import DirectEncoder
from ..functional import reset_net
from ..neuron import BaseNeuron, IFNeuron, LIFNeuron, ParametricLIFNeuron
from ..surrogate import get_surrogate


def make_neuron(
    alpha: float = 0.5,
    v_threshold: float = 1.0,
    surrogate: Optional[object] = None,
    kind: str = "lif",
) -> BaseNeuron:
    """Construct a zoo neuron: ``lif`` (default), ``if``, ``plif`` or ``alif``."""
    if isinstance(surrogate, str):
        surrogate = get_surrogate(surrogate)
    if kind == "lif":
        return LIFNeuron(alpha=alpha, v_threshold=v_threshold, surrogate=surrogate)
    if kind == "if":
        return IFNeuron(v_threshold=v_threshold, surrogate=surrogate)
    if kind == "plif":
        return ParametricLIFNeuron(
            init_alpha=alpha, v_threshold=v_threshold, surrogate=surrogate
        )
    if kind == "alif":
        from ..extensions import AdaptiveLIFNeuron

        return AdaptiveLIFNeuron(alpha=alpha, v_threshold=v_threshold, surrogate=surrogate)
    raise ValueError(f"unknown neuron kind {kind!r} (lif, if, plif, alif)")


def scaled_width(channels: int, width_mult: float, minimum: int = 4) -> int:
    """Scale a channel count by ``width_mult`` with a floor of ``minimum``."""
    return max(minimum, int(round(channels * width_mult)))


class SpikingModel(Module):
    """Temporal wrapper: runs the stateful backbone for ``timesteps``.

    Subclasses implement :meth:`forward_once` (a single-timestep pass)
    and inherit the temporal averaging readout.
    """

    def __init__(self, timesteps: int = 5) -> None:
        super().__init__()
        if timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        self.timesteps = timesteps
        self.encoder = DirectEncoder(timesteps)

    def forward_once(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        reset_net(self)
        if self._layer_major():
            return self._forward_layer_major(x)
        return self._readout(map(self.forward_once, self.encoder(x)), self.timesteps)

    @staticmethod
    def _readout(step_logits, steps: int) -> Tensor:
        """Mean of per-timestep logits, summed in time order."""
        accumulated: Optional[Tensor] = None
        for logits in step_logits:
            accumulated = logits if accumulated is None else accumulated + logits
        return accumulated * (1.0 / steps)

    def _layer_major(self) -> bool:
        """Whether :meth:`forward` may stack its timesteps into one batch.

        Only a grad-free eval forward qualifies: training keeps the
        time-major tape (and BatchNorm's per-step batch statistics),
        and a stateful non-neuron module (a recurrent layer) needs
        every layer's output of step ``t`` before step ``t + 1``.
        """
        if is_grad_enabled():
            return False
        return not any(
            module.training
            or (hasattr(module, "snapshot_state") and not isinstance(module, BaseNeuron))
            for module in self.modules()
        )

    def _forward_layer_major(self, x: Tensor) -> Tensor:
        """:meth:`forward` with the T frames stacked into one ``[T*B]`` batch.

        Rows ``[t*B, (t+1)*B)`` hold timestep ``t``.  Every layer runs
        once per forward and each neuron unrolls its recurrence over the
        T blocks; a direct-encoded input stays ``B`` rows until the
        first neuron, so the layers before it run once.  Logits are
        summed in time order, bit-identical to the time-major loop.
        """
        if isinstance(self.encoder, DirectEncoder):
            steps, stacked = self.encoder.timesteps, x
        else:
            frames = list(self.encoder(x))
            steps, stacked = len(frames), concatenate(frames)
        with stacked_timesteps(steps, x.shape[0]):
            out = self.forward_once(stacked)
            blocks = time_blocks(out) or [out] * steps
        return self._readout(blocks, self.timesteps)

    def forward_window(self, frames) -> Tensor:
        """Offline reference pass over pre-encoded ``frames``.

        The time-major loop of :meth:`forward` (which a grad-free eval
        forward reproduces bit-identically layer-major), driven by an
        explicit frame sequence instead of the encoder, so the
        streaming layer can prove its incremental execution
        bit-identical to a batch pass over the same window.
        """
        frames = list(frames)
        if not frames:
            raise ValueError("forward_window requires at least one frame")
        reset_net(self)
        return self._readout(map(self.forward_once, frames), len(frames))


def flattened_spatial(image_size: int, num_halvings: int) -> int:
    """Spatial edge length after ``num_halvings`` stride-2 reductions."""
    size = image_size
    for _ in range(num_halvings):
        size = max(1, size // 2)
    return size
