"""The supervision contract both servers share (``SupervisedPool``).

Every test runs against ``InferenceServer`` and ``StreamServer`` with
echo sessions (each request's result is its own sample), so the suite
pins the pool's policy, not a model: crash retries, the retry and
restart budgets, shutdown, session lifetime (built by ``start()``,
released by ``stop()``), single use, and client cancellation.
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.serve import InferenceServer, StreamServer
from repro.stream.events import StreamEvent


def sample(i):
    return np.full(3, i, dtype=np.float32)


class EchoSession:
    """Answers each request with its sample; ``before`` runs first and
    may raise (a worker crash) or block."""

    def __init__(self, before=lambda: None):
        self.before = before

    def predict(self, inputs):
        self.before()
        return inputs

    def process(self, event):
        self.before()
        return event.channels

    def stats(self):
        return {}


class Crashes:
    """Factory whose sessions, between them, crash the first ``times`` calls."""

    def __init__(self, times):
        self.remaining = times
        self.lock = threading.Lock()

    def __call__(self):
        return EchoSession(self.crash)

    def crash(self):
        with self.lock:
            if self.remaining > 0:
                self.remaining -= 1
                raise RuntimeError("injected crash")


class Gate:
    """Factory whose sessions block until ``release`` is set."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self):
        return EchoSession(self.wait)

    def wait(self):
        self.entered.set()
        self.release.wait(5.0)


class Kit:
    def __init__(self, server_class, payload):
        self.server_class = server_class
        self.payload = payload

    def server(self, factory, **options):
        return self.server_class(factory, supervise_interval_s=0.002, **options)


KITS = {
    "inference": Kit(InferenceServer, sample),
    "stream": Kit(StreamServer, lambda i: StreamEvent("device-00", float(i), sample(i))),
}


@pytest.fixture(params=sorted(KITS))
def kit(request):
    return KITS[request.param]


@pytest.fixture(autouse=True)
def quiet_thread_excepthook(monkeypatch):
    # Crashing workers re-raise on purpose (the supervisor watches the
    # thread); keep the expected tracebacks out of the test output.
    monkeypatch.setattr(threading, "excepthook", lambda args: None)


@pytest.mark.smoke
class TestSupervisedPoolContract:
    def test_a_crash_is_retried(self, kit):
        with kit.server(Crashes(1), workers=1) as server:
            futures = [server.submit(kit.payload(i)) for i in range(3)]
            results = [future.result(timeout=5.0) for future in futures]
            stats = server.stats()
        assert all(np.array_equal(result, sample(i)) for i, result in enumerate(results))
        assert stats["restarts"] >= 1
        assert (stats["completed"], stats["failed"]) == (3, 0)

    def test_a_request_out_of_attempts_fails(self, kit):
        with kit.server(Crashes(100), workers=1, max_attempts=2, max_restarts=100) as server:
            future = server.submit(kit.payload(0))
            with pytest.raises(RuntimeError, match="injected crash"):
                future.result(timeout=5.0)
            assert server.stats()["failed"] == 1

    def test_a_spent_restart_budget_fails_queued_work(self, kit):
        server = kit.server(Crashes(100), workers=1, max_attempts=5, max_restarts=2)
        server.start()
        future = server.submit(kit.payload(0))
        with pytest.raises(RuntimeError, match="server gave up after 2"):
            future.result(timeout=5.0)
        server.stop(drain=False)

    def test_stop_without_drain_fails_leftovers(self, kit):
        gate = Gate()
        server = kit.server(gate, workers=1).start()
        running = server.submit(kit.payload(0))
        assert gate.entered.wait(5.0)
        queued = [server.submit(kit.payload(i)) for i in (1, 2, 3)]
        server.stop(drain=False, timeout=0.05)
        gate.release.set()
        assert np.array_equal(running.result(timeout=5.0), sample(0))
        for future in queued:
            with pytest.raises(RuntimeError, match="server stopped"):
                future.result(timeout=5.0)
        assert server.stats()["failed"] == 3

    def test_a_factory_error_is_raised_from_start_and_stops_the_server(self, kit):
        calls = []

        def fails_once():
            calls.append(None)
            if len(calls) == 1:
                raise ValueError("bad model")
            return EchoSession()

        server = kit.server(fails_once, workers=2)
        early = server.submit(kit.payload(0))
        with pytest.raises(ValueError, match="bad model"):
            server.start()
        # Stopped, not half-running: no threads, queued work failed, and
        # neither a retry nor a submit can hang.
        assert server.stats()["workers_alive"] == 0
        with pytest.raises(RuntimeError, match="server stopped"):
            early.result(timeout=5.0)
        with pytest.raises(RuntimeError, match="after stop"):
            server.start()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(kit.payload(1))

    def test_sessions_are_built_by_start_and_released_by_stop(self, kit):
        built = []

        def slow_factory():
            time.sleep(0.02)  # a slow build still finishes inside start()
            session = EchoSession()
            built.append(weakref.ref(session))
            return session

        server = kit.server(slow_factory, workers=3).start()
        assert len(built) == 3 and all(ref() is not None for ref in built)
        server.stop()
        gc.collect()
        assert all(ref() is None for ref in built)

    def test_start_after_stop_raises(self, kit):
        server = kit.server(EchoSession, workers=1)
        server.start()
        server.stop()
        with pytest.raises(RuntimeError, match="after stop"):
            server.start()

    def test_a_request_cancelled_while_queued_is_skipped(self, kit):
        server = kit.server(EchoSession, workers=1)
        futures = [server.submit(kit.payload(i)) for i in range(4)]
        assert futures[1].cancel()
        with server:
            results = {i: futures[i].result(timeout=5.0) for i in (0, 2, 3)}
        assert all(np.array_equal(result, sample(i)) for i, result in results.items())
        assert futures[1].cancelled()
        stats = server.stats()
        assert (stats["completed"], stats["failed"], stats["restarts"]) == (3, 0, 0)

    def test_a_dispatched_request_cannot_be_cancelled(self, kit):
        gate = Gate()
        with kit.server(gate, workers=1) as server:
            future = server.submit(kit.payload(0))
            assert gate.entered.wait(5.0)
            assert not future.cancel()
            gate.release.set()
            assert np.array_equal(future.result(timeout=5.0), sample(0))
            assert server.stats()["restarts"] == 0
