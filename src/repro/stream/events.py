"""Event-stream abstractions for event-driven SNN inference.

An event is one sensor reading: ``(stream_id, timestamp, channels)``.
Streams are *irregular* — inter-arrival times vary per source — and a
deployment multiplexes many sources (one per device / sensor bundle)
into a single globally time-ordered feed.  This module provides the
minimal vocabulary:

* :class:`StreamEvent` — an immutable event record.
* :class:`StreamSource` — anything that yields its own events in
  timestamp order (see :class:`repro.data.telemetry.TelemetrySource`
  for the synthetic reference implementation).
* :class:`EventStream` — a k-way timestamp-ordered merge of sources,
  the feed the session layer consumes.
* :func:`stream_seed` — the stable per-stream RNG seed that generators
  and online encoders both derive from.

This module imports nothing else from :mod:`repro`, so the data layer
and the stream package can both depend on it without a cycle.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence

import numpy as np


def stream_seed(seed: int, stream_id: str) -> int:
    """Stable per-stream seed: experiment seed folded with the id."""
    return (int(seed) * 0x9E3779B1 + zlib.crc32(stream_id.encode("utf-8"))) % (2**32)


@dataclass(frozen=True)
class StreamEvent:
    """One sensor reading from one stream.

    Attributes
    ----------
    stream_id:
        Stable identity of the emitting source; the session layer keys
        persistent neuron state on it.
    timestamp:
        Event time in seconds (monotone per source, not globally
        dense — arrival is irregular by design).
    channels:
        1-D float32 vector of per-channel readings in ``[0, 1]``.
    """

    stream_id: str
    timestamp: float
    channels: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        channels = np.asarray(self.channels, dtype=np.float32)
        if channels.ndim != 1:
            raise ValueError(
                f"channels must be a 1-D vector, got shape {channels.shape}"
            )
        object.__setattr__(self, "channels", channels)

    @property
    def num_channels(self) -> int:
        return int(self.channels.shape[0])


class StreamSource:
    """A single event producer.

    Subclasses implement :meth:`events` yielding :class:`StreamEvent`
    in non-decreasing timestamp order, and expose ``stream_id`` and
    ``num_channels``.  Sources are restartable: each ``events()`` call
    starts a fresh, deterministic pass (important for replay-based
    bit-identity checks).
    """

    stream_id: str
    num_channels: int

    def events(self) -> Iterator[StreamEvent]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[StreamEvent]:
        return self.events()


class ListSource(StreamSource):
    """In-memory source over a fixed event list (tests, replays)."""

    def __init__(self, stream_id: str, events: Sequence[StreamEvent]) -> None:
        events = list(events)
        for prev, cur in zip(events, events[1:]):
            if cur.timestamp < prev.timestamp:
                raise ValueError("events must be in non-decreasing timestamp order")
        for event in events:
            if event.stream_id != stream_id:
                raise ValueError(
                    f"event stream_id {event.stream_id!r} != source {stream_id!r}"
                )
        self.stream_id = stream_id
        self.num_channels = events[0].num_channels if events else 0
        self._events = events

    def events(self) -> Iterator[StreamEvent]:
        return iter(self._events)


class EventStream:
    """Timestamp-ordered merge of multiple sources.

    Ties are broken by source registration order then per-source
    sequence, so the merged order is fully deterministic — replays of
    the same sources produce the same feed, which is what lets the
    streaming tests demand bit-identical results.
    """

    def __init__(self, sources: Iterable[StreamSource]) -> None:
        self.sources: List[StreamSource] = list(sources)
        if not self.sources:
            raise ValueError("EventStream needs at least one source")
        seen = set()
        for source in self.sources:
            if source.stream_id in seen:
                raise ValueError(f"duplicate stream_id {source.stream_id!r}")
            seen.add(source.stream_id)

    @property
    def stream_ids(self) -> List[str]:
        return [source.stream_id for source in self.sources]

    def __iter__(self) -> Iterator[StreamEvent]:
        def keyed(index: int, source: StreamSource):
            for seq, event in enumerate(source.events()):
                yield (event.timestamp, index, seq), event

        merged = heapq.merge(
            *(keyed(i, s) for i, s in enumerate(self.sources)), key=lambda kv: kv[0]
        )
        for _, event in merged:
            yield event

    def take(self, limit: int) -> List[StreamEvent]:
        """First ``limit`` events of the merged feed (fresh replay)."""
        out: List[StreamEvent] = []
        for event in self:
            out.append(event)
            if len(out) >= limit:
                break
        return out
