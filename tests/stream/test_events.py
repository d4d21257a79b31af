"""Event-stream layer: records, sources, merge, synthetic telemetry."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data.telemetry import TelemetrySource, make_telemetry_stream, stream_seed
from repro.stream import EventStream, ListSource, StreamEvent


def event(stream_id="s", timestamp=0.0, channels=(0.5, 0.5)):
    return StreamEvent(stream_id=stream_id, timestamp=timestamp,
                       channels=np.asarray(channels))


class TestStreamEvent:
    def test_channels_coerced_to_float32_vector(self):
        made = event(channels=[0.25, 0.5, 1.0])
        assert made.channels.dtype == np.float32
        assert made.num_channels == 3

    def test_rejects_non_1d_channels(self):
        with pytest.raises(ValueError, match="1-D"):
            StreamEvent(stream_id="s", timestamp=0.0,
                        channels=np.zeros((2, 2), dtype=np.float32))

    def test_immutable(self):
        made = event()
        with pytest.raises(AttributeError):
            made.timestamp = 1.0


class TestListSource:
    def test_replays_in_order(self):
        events = [event(timestamp=t) for t in (0.0, 1.0, 1.0, 2.0)]
        source = ListSource("s", events)
        assert [e.timestamp for e in source] == [0.0, 1.0, 1.0, 2.0]
        # Restartable: a second pass yields the same sequence.
        assert [e.timestamp for e in source.events()] == [0.0, 1.0, 1.0, 2.0]

    def test_rejects_out_of_order_timestamps(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ListSource("s", [event(timestamp=1.0), event(timestamp=0.5)])

    def test_rejects_foreign_stream_ids(self):
        with pytest.raises(ValueError, match="stream_id"):
            ListSource("a", [event(stream_id="b")])


class TestEventStream:
    def make(self):
        first = ListSource("a", [event("a", t) for t in (0.0, 2.0, 4.0)])
        second = ListSource("b", [event("b", t) for t in (1.0, 3.0)])
        return EventStream([first, second])

    def test_merge_is_globally_time_ordered(self):
        merged = list(self.make())
        assert [e.stream_id for e in merged] == ["a", "b", "a", "b", "a"]
        times = [e.timestamp for e in merged]
        assert times == sorted(times)

    def test_ties_break_by_registration_order(self):
        first = ListSource("a", [event("a", 1.0)])
        second = ListSource("b", [event("b", 1.0)])
        merged = list(EventStream([first, second]))
        assert [e.stream_id for e in merged] == ["a", "b"]

    def test_replay_is_deterministic(self):
        stream = self.make()
        assert [e.timestamp for e in stream] == [e.timestamp for e in stream]

    def test_take_limits_the_feed(self):
        taken = self.make().take(3)
        assert [e.stream_id for e in taken] == ["a", "b", "a"]

    def test_stream_ids(self):
        assert self.make().stream_ids == ["a", "b"]

    def test_rejects_duplicate_ids_and_empty(self):
        with pytest.raises(ValueError, match="duplicate"):
            EventStream([ListSource("a", []), ListSource("a", [])])
        with pytest.raises(ValueError, match="at least one"):
            EventStream([])


class TestTelemetrySource:
    def test_replay_is_byte_identical(self):
        source = TelemetrySource("dev", num_channels=4, num_events=16, seed=3)
        first, second = list(source.events()), list(source.events())
        assert len(first) == 16
        for a, b in zip(first, second):
            assert a.timestamp == b.timestamp
            assert np.array_equal(a.channels, b.channels)

    def test_arrival_is_irregular(self):
        source = TelemetrySource("dev", num_channels=2, num_events=32, seed=0)
        times = [e.timestamp for e in source]
        gaps = np.diff(times)
        assert (gaps > 0).all()
        assert gaps.std() > 0  # exponential arrivals, not a fixed clock

    def test_values_feed_rate_encoders(self):
        for made in TelemetrySource("dev", num_channels=8, num_events=8):
            assert made.channels.dtype == np.float32
            assert (made.channels >= 0.0).all() and (made.channels <= 1.0).all()

    def test_distinct_streams_distinct_sequences(self):
        assert stream_seed(0, "a") != stream_seed(0, "b")
        a = next(iter(TelemetrySource("a", num_channels=4, num_events=1)))
        b = next(iter(TelemetrySource("b", num_channels=4, num_events=1)))
        assert not np.array_equal(a.channels, b.channels)

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetrySource("dev", num_channels=0)
        with pytest.raises(ValueError):
            TelemetrySource("dev", rate_hz=0.0)

    def test_make_telemetry_stream_names_devices(self):
        stream = make_telemetry_stream(num_streams=3, num_channels=4, num_events=4)
        assert stream.stream_ids == ["device-00", "device-01", "device-02"]
        assert len(list(stream)) == 12


@pytest.mark.parametrize("module", ["repro.data.telemetry", "repro.stream.encoders"])
def test_fresh_interpreter_imports_either_side_first(module):
    """The telemetry generators and the stream package depend on each
    other's leaf helpers; importing either one first must not hit a
    partially initialized module."""
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
