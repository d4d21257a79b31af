"""Synthetic sensor-telemetry event generators.

The streaming workload class the ROADMAP targets is sensor telemetry:
hundreds of channels per device, irregular arrival, devices dropping
out mid-stream.  No such feed is available offline, so this module
generates deterministic surrogates with the right statistics:

* inter-arrival times are exponential (Poisson arrivals) with a
  per-source rate — the canonical irregular-arrival model;
* channel values are smooth per-channel sinusoids plus noise, clipped
  to ``[0, 1]`` so they feed rate/latency encoders directly;
* everything derives from ``(seed, stream_id)``, so two generators
  built the same way emit byte-identical event sequences — replays
  are exact, which the bit-identity tests rely on.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..stream.events import EventStream, StreamEvent, StreamSource, stream_seed

__all__ = ["TelemetrySource", "make_telemetry_stream", "stream_seed"]


class TelemetrySource(StreamSource):
    """Deterministic telemetry stream for one simulated device.

    Parameters
    ----------
    stream_id:
        Device identity (also salts the RNG stream).
    num_channels:
        Sensor channels per event.
    num_events:
        Length of one pass; each :meth:`events` call replays the same
        sequence from the start.
    rate_hz:
        Mean arrival rate of the Poisson process (events per second).
    seed:
        Base experiment seed; combined with ``stream_id`` via
        :func:`stream_seed`.
    start_time:
        Timestamp of time zero for this device.
    """

    def __init__(
        self,
        stream_id: str,
        num_channels: int = 16,
        num_events: int = 256,
        rate_hz: float = 100.0,
        seed: int = 0,
        start_time: float = 0.0,
    ) -> None:
        if num_channels < 1:
            raise ValueError("num_channels must be >= 1")
        if num_events < 0:
            raise ValueError("num_events must be >= 0")
        if rate_hz <= 0.0:
            raise ValueError("rate_hz must be positive")
        self.stream_id = stream_id
        self.num_channels = int(num_channels)
        self.num_events = int(num_events)
        self.rate_hz = float(rate_hz)
        self.seed = int(seed)
        self.start_time = float(start_time)

    def events(self):
        rng = np.random.default_rng(stream_seed(self.seed, self.stream_id))
        # Per-channel signal parameters are drawn once so the channel
        # values are smooth functions of event time, not white noise.
        freq = rng.uniform(0.2, 2.0, size=self.num_channels)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=self.num_channels)
        amplitude = rng.uniform(0.2, 0.45, size=self.num_channels)
        noise_scale = 0.05
        t = self.start_time
        for _ in range(self.num_events):
            t += float(rng.exponential(1.0 / self.rate_hz))
            clean = 0.5 + amplitude * np.sin(2.0 * np.pi * freq * t + phase)
            noisy = clean + rng.normal(0.0, noise_scale, size=self.num_channels)
            channels = np.clip(noisy, 0.0, 1.0).astype(np.float32)
            yield StreamEvent(stream_id=self.stream_id, timestamp=t, channels=channels)

    def __repr__(self) -> str:
        return (
            f"TelemetrySource(id={self.stream_id!r}, channels={self.num_channels}, "
            f"events={self.num_events}, rate={self.rate_hz}Hz, seed={self.seed})"
        )


def make_telemetry_stream(
    num_streams: int = 4,
    num_channels: int = 16,
    num_events: int = 256,
    rate_hz: float = 100.0,
    seed: int = 0,
    stream_ids: Optional[List[str]] = None,
) -> EventStream:
    """Multiplexed feed of ``num_streams`` deterministic devices."""
    if stream_ids is None:
        stream_ids = [f"device-{i:02d}" for i in range(num_streams)]
    sources = [
        TelemetrySource(
            stream_id=sid,
            num_channels=num_channels,
            num_events=num_events,
            rate_hz=rate_hz,
            seed=seed,
        )
        for sid in stream_ids
    ]
    return EventStream(sources)
