"""Spiking neural network substrate: neurons, surrogates, encoders, models."""

from .encoding import DirectEncoder, LatencyEncoder, PoissonEncoder, build_encoder
from .functional import (
    reset_net,
    reset_spike_stats,
    set_spike_tracking,
    spike_rate,
    spike_rates_per_layer,
)
from .neuron import (
    BaseNeuron,
    IFNeuron,
    LIFNeuron,
    ParametricLIFNeuron,
    build_neuron,
    fire,
    integrate,
)
from .extensions import (
    AdaptiveLIFNeuron,
    RecurrentSpikingLayer,
    ThresholdDependentBatchNorm2d,
    spike_rate_loss,
)
from .surrogate import (
    ATan,
    FastInverse,
    SigmoidSurrogate,
    StraightThrough,
    SurrogateFunction,
    Triangle,
    available_surrogates,
    get_surrogate,
)

__all__ = [
    "AdaptiveLIFNeuron",
    "RecurrentSpikingLayer",
    "ThresholdDependentBatchNorm2d",
    "spike_rate_loss",
    "LIFNeuron",
    "IFNeuron",
    "ParametricLIFNeuron",
    "BaseNeuron",
    "build_neuron",
    "integrate",
    "fire",
    "SurrogateFunction",
    "FastInverse",
    "ATan",
    "SigmoidSurrogate",
    "Triangle",
    "StraightThrough",
    "get_surrogate",
    "available_surrogates",
    "DirectEncoder",
    "PoissonEncoder",
    "LatencyEncoder",
    "build_encoder",
    "reset_net",
    "reset_spike_stats",
    "spike_rate",
    "spike_rates_per_layer",
    "set_spike_tracking",
]
