"""Serving stack: micro-batcher policy, registry, and the supervised
worker pool.

The two contracts the tentpole rests on:

* concurrency changes *nothing*: N clients hammering the batched
  server get bit-identical results to sequential single-request
  inference, at every batch size (sessions pad every forward to one
  canonical GEMM shape precisely so this holds);
* a crashed worker costs a retry, not an answer: its in-flight
  requests go back to the queue front, a fresh worker replaces it, and
  only requests whose retry budget is exhausted fail.
"""

import threading
import time

import numpy as np
import pytest

from repro.serve import InferenceServer, InferenceSession, MicroBatcher, ModelRegistry
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager


def make_session(max_batch=4, seed=0, execution="csr"):
    model = SpikingMLP(in_features=10, num_classes=5, hidden=(12,),
                       timesteps=2, rng=np.random.default_rng(seed))
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_distribution("uniform", 0.3)
    manager.set_execution(execution)
    return InferenceSession(model, manager, max_batch=max_batch)


def make_samples(count, seed=5):
    return np.random.default_rng(seed).standard_normal(
        (count, 10)
    ).astype(np.float32)


class _NeverWaits(threading.Condition):
    """A batcher condition that fails the test instead of blocking."""

    def wait(self, timeout=None):
        raise AssertionError(f"next_batch blocked (timeout={timeout})")


@pytest.mark.smoke
class TestMicroBatcher:
    def test_full_batch_flushes_immediately(self):
        batcher = MicroBatcher(max_batch=3, max_latency_s=60.0)
        futures = [batcher.submit(i) for i in range(3)]
        batch = batcher.next_batch()
        assert [r.payload for r in batch] == [0, 1, 2]
        assert all(r.attempts == 1 for r in batch)
        assert futures[0] is batch[0].future

    def test_short_batch_flushes_after_max_latency(self):
        batcher = MicroBatcher(max_batch=8, max_latency_s=0.01)
        batcher.submit("only")
        start = time.monotonic()
        batch = batcher.next_batch()
        assert [r.payload for r in batch] == ["only"]
        # Flushed by the latency deadline, not a full batch.
        assert time.monotonic() - start < 1.0

    def test_requeue_goes_to_the_front_in_order(self):
        batcher = MicroBatcher(max_batch=4, max_latency_s=0.0)
        batcher.submit("a")
        batcher.submit("b")
        inflight = batcher.next_batch()
        batcher.submit("c")
        batcher.requeue(inflight)
        # Retried work leads, in its original order, ahead of arrivals.
        assert [r.payload for r in batcher.next_batch()] == ["a", "b", "c"]

    def test_attempts_bump_once_per_dispatch(self):
        batcher = MicroBatcher(max_batch=2, max_latency_s=0.0)
        batcher.submit("x")
        (request,) = batcher.next_batch()
        assert request.attempts == 1
        batcher.requeue([request])
        (again,) = batcher.next_batch()
        assert again is request
        assert again.attempts == 2

    def test_default_hands_a_lone_request_over_without_waiting(self):
        batcher = MicroBatcher(max_batch=8)
        batcher._condition = _NeverWaits()
        batcher.submit("only")
        # A deadline would block on the condition; the default must not.
        assert [r.payload for r in batcher.next_batch()] == ["only"]

    def test_default_still_fills_a_batch_from_a_backlog(self):
        batcher = MicroBatcher(max_batch=8)
        batcher._condition = _NeverWaits()
        for i in range(9):
            batcher.submit(i)
        assert [r.payload for r in batcher.next_batch()] == list(range(8))
        assert [r.payload for r in batcher.next_batch()] == [8]

    def test_server_and_cli_default_to_the_work_conserving_flush(self):
        from repro.cli import _build_parser

        assert InferenceServer(lambda: None).batcher.max_latency_s == 0.0
        args = _build_parser().parse_args(["serve", "--checkpoint", "ckpt"])
        assert args.max_latency_ms == 0.0

    def test_workers_look_up_next_batch_on_the_batcher_every_call(self):
        # Queue-wait tracing replaces ``server.batcher.next_batch`` on a
        # running server; the replacement must take effect.
        with InferenceServer(lambda: make_session(), workers=1) as server:
            original = server.batcher.next_batch
            taken = []

            def traced():
                batch = original()
                taken.extend(batch or [])
                return batch

            server.batcher.next_batch = traced
            for sample in make_samples(2):
                server.predict(sample, timeout=30.0)
        assert len(taken) >= 1

    def test_close_drains_then_returns_none(self):
        batcher = MicroBatcher(max_batch=8, max_latency_s=60.0)
        batcher.submit("queued")
        batcher.close()
        assert [r.payload for r in batcher.next_batch()] == ["queued"]
        assert batcher.next_batch() is None
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("late")


@pytest.mark.smoke
class TestRegistry:
    def test_sessions_are_fresh_per_call(self):
        # A factory returning a shared pair would hand two workers the
        # same membrane state; the registry must call it per session.
        calls = []

        def factory():
            session = make_session()
            calls.append(1)
            return session.model, session.manager

        registry = ModelRegistry().register("counted", factory)
        first = registry.session("counted")
        second = registry.session("counted")
        assert len(calls) == 2
        assert first.model is not second.model
        assert "counted" in registry
        assert registry.names() == ["counted"]

    def test_unknown_name_lists_registered(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError, match="no model 'ghost'"):
            registry.session("ghost")

    def test_load_checkpoint_round_trip(self, tmp_path):
        from repro.experiments import scaled_config
        from repro.experiments.runner import build_experiment_model
        from repro.optim import SGD
        from repro.sparse import SETSNN
        from repro.train.checkpoint import save_checkpoint

        config = scaled_config("cifar10", "convnet", "set", 0.7,
                               epochs=1, train_samples=16, timesteps=2)
        model = build_experiment_model(config)
        method = SETSNN(sparsity=0.7, total_iterations=8, update_frequency=4,
                        rng=np.random.default_rng(3))
        method.bind(model, SGD(model.parameters(), lr=0.1))
        save_checkpoint(tmp_path / "ckpt", model, method)

        registry = ModelRegistry().load_checkpoint(
            "restored", config, tmp_path / "ckpt", max_batch=4
        )
        session = registry.session("restored")
        assert session.manager.frozen
        # Masks survived the round-trip: the restored manager reports
        # the trained sparsity, not a dense model.
        assert abs(session.manager.sparsity() - method.sparsity()) < 1e-6
        sample = np.random.default_rng(6).standard_normal(
            (2, 3, config.image_size, config.image_size)
        ).astype(np.float32)
        out = session.predict(sample)
        assert out.shape == (2, config.num_classes)

    def test_session_is_frozen_and_batch_sized(self):
        session = make_session(max_batch=6)
        assert session.manager.frozen
        assert session.max_batch == 6
        routes = {entry["route"] for entry in session.dispatch_report()}
        assert routes <= {"csr", "dense"}
        report = session.storage_report()
        assert report["frozen"] is True


class TestBitIdenticalConcurrency:
    @pytest.mark.parametrize("max_batch", (1, 3, 8))
    def test_concurrent_clients_match_sequential(self, max_batch):
        samples = make_samples(17)
        reference_session = make_session(max_batch=max_batch)
        reference = np.stack(
            [reference_session.predict_one(sample) for sample in samples]
        )

        results = {}
        lock = threading.Lock()

        def client(indices):
            for index in indices:
                value = server.predict(samples[index], timeout=30.0)
                with lock:
                    results[index] = value

        with InferenceServer(
            lambda: make_session(max_batch=max_batch),
            workers=3, max_batch=max_batch, max_latency_s=0.002,
        ) as server:
            chunks = np.array_split(np.arange(len(samples)), 4)
            threads = [threading.Thread(target=client, args=(chunk,))
                       for chunk in chunks]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        produced = np.stack([results[i] for i in range(len(samples))])
        # Bit-identical, not merely close: the padded canonical batch
        # shape makes the BLAS reduction order independent of how the
        # batcher grouped requests.
        assert np.array_equal(produced, reference)

    def test_batched_predict_matches_sequential(self):
        session = make_session(max_batch=4)
        samples = make_samples(11)
        batched = session.predict(samples)
        sequential = np.stack([session.predict_one(s) for s in samples])
        assert np.array_equal(batched, sequential)


class _FlakySessionFactory:
    """Builds sessions whose first ``crashes`` predictions raise."""

    def __init__(self, crashes=1, max_batch=4):
        self.remaining = crashes
        self.max_batch = max_batch
        self.lock = threading.Lock()

    def __call__(self):
        real = make_session(max_batch=self.max_batch)
        outer = self

        class Flaky:
            def predict(self, inputs):
                with outer.lock:
                    if outer.remaining > 0:
                        outer.remaining -= 1
                        raise RuntimeError("injected worker crash")
                return real.predict(inputs)

        return Flaky()


class TestCrashRecovery:
    @pytest.fixture(autouse=True)
    def quiet_thread_excepthook(self, monkeypatch):
        # Worker deaths re-raise on purpose (the supervisor watches the
        # thread); keep the expected tracebacks out of the test output.
        monkeypatch.setattr(threading, "excepthook", lambda args: None)

    def test_killed_worker_requests_are_redispatched(self):
        samples = make_samples(9)
        reference_session = make_session(max_batch=4)
        reference = np.stack(
            [reference_session.predict_one(sample) for sample in samples]
        )
        with InferenceServer(
            _FlakySessionFactory(crashes=1), workers=1, max_batch=4,
            max_latency_s=0.002, supervise_interval_s=0.002,
        ) as server:
            futures = [server.submit(sample) for sample in samples]
            produced = np.stack([f.result(timeout=30.0) for f in futures])
            stats = server.stats()
        assert np.array_equal(produced, reference)
        assert stats["restarts"] >= 1
        assert stats["failed"] == 0
        assert stats["completed"] == len(samples)

    def test_exhausted_retry_budget_fails_the_future(self):
        with InferenceServer(
            _FlakySessionFactory(crashes=100), workers=1, max_batch=2,
            max_attempts=2, max_restarts=100,
            max_latency_s=0.002, supervise_interval_s=0.002,
        ) as server:
            future = server.submit(make_samples(1)[0])
            with pytest.raises(RuntimeError, match="injected worker crash"):
                future.result(timeout=30.0)
            stats = server.stats()
        assert stats["failed"] >= 1

    def test_restart_budget_exhaustion_fails_queued_requests(self):
        # Every batch crashes and the request outlasts the restart
        # budget (max_attempts > max_restarts), so the supervisor gives up.
        server = InferenceServer(
            _FlakySessionFactory(crashes=100), workers=1, max_attempts=5,
            max_restarts=2, supervise_interval_s=0.002,
        )
        server.start()
        future = server.submit(make_samples(1)[0])
        with pytest.raises(RuntimeError, match="gave up after 2"):
            future.result(timeout=30.0)
        server.stop(drain=False)

    def test_abort_fails_work_that_crashes_after_it(self):
        # One worker dies with the restart budget at 0 while the other is
        # mid-batch; when that batch crashes too, the abort must fail it
        # rather than leave it in the closed queue with no worker left.
        entered, release = threading.Event(), threading.Event()

        class Session:
            def predict(self, inputs):
                if inputs[0, 0] == 1:
                    raise RuntimeError("poison")
                entered.set()
                release.wait(5.0)
                raise RuntimeError("late crash")

        server = InferenceServer(
            Session, workers=2, max_batch=1, max_attempts=5, max_restarts=0,
            supervise_interval_s=0.002,
        ).start()
        slow = server.submit(np.zeros(2, dtype=np.float32))
        assert entered.wait(5.0)
        poison = server.submit(np.ones(2, dtype=np.float32))
        with pytest.raises(RuntimeError, match="gave up after 0"):
            poison.result(timeout=5.0)
        release.set()
        with pytest.raises(RuntimeError, match="gave up after 0"):
            slow.result(timeout=5.0)
        server.stop(drain=False)

    def test_stop_without_drain_fails_leftovers(self):
        batcher_blocker = threading.Event()

        def slow_factory():
            session = make_session()

            class Slow:
                def predict(self, inputs):
                    batcher_blocker.wait(5.0)
                    return session.predict(inputs)

            return Slow()

        server = InferenceServer(
            slow_factory, workers=1, max_batch=1, max_latency_s=0.0
        )
        server.start()
        time.sleep(0.05)  # let the worker block on its first batch
        futures = [server.submit(sample) for sample in make_samples(6)]
        server.stop(drain=False, timeout=1.0)
        batcher_blocker.set()
        outcomes = []
        for future in futures:
            try:
                future.result(timeout=10.0)
                outcomes.append("ok")
            except RuntimeError:
                outcomes.append("stopped")
        # Everything still queued when stop(drain=False) ran must have
        # been failed, not silently dropped.
        assert "stopped" in outcomes
        assert all(done in ("ok", "stopped") for done in outcomes)
