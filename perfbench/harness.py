"""Shared plumbing for the end-to-end benchmark: work directories,
statistics, dispatch-calibration pinning, the environment record and
the open-loop rate ladder.

Nothing here imports the system under test at module import time; the
workloads import it after ``run.py`` has put ``src/`` on the path.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import platform
import resource
import shutil
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Server worker threads for every workload (the reference machine has
#: two CPUs).
WORKERS = 2
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 11


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, root: str) -> None:
        self.path = os.path.join(root, ".perfbench_work", f"{os.getpid()}-{uuid.uuid4().hex[:8]}")

    def __enter__(self) -> "WorkDir":
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run still owns a sibling directory

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path


def pinned_cutoffs() -> Dict[str, float]:
    """The dispatch cutoffs every timed run uses (``"<rows>x<cols>"``).

    ``auto`` dispatch calibrates by timing kernels, and on a loaded
    machine the same shape comes out at different cutoffs from call to
    call, flipping layers between the dense and CSR routes (and so
    flipping timings and even trained accuracy).  Timed runs therefore
    read these cutoffs — the values the program's own calibration
    picks most often on the reference machine — and every run measures
    a fresh calibration on the side and counts the shapes where it
    disagrees (``sparse.calibration_flips``).
    """
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "calibration.json")) as handle:
        return json.load(handle)


def calibration_dir(workdir: WorkDir, tag: str, pinned: bool) -> str:
    """Point ``REPRO_CALIBRATION_DIR`` at a new directory.

    With ``pinned`` the directory is seeded, in the program's
    write-once cache format, with :func:`pinned_cutoffs`, so every
    lookup adopts them; otherwise it starts empty and every shape is
    measured afresh.
    """
    from repro.sparse.dispatch import CALIBRATION_ENV, clear_process_cache

    path = workdir.sub(f"calibration-{tag}")
    if pinned:
        for key, cutoff in pinned_cutoffs().items():
            rows, cols = (int(n) for n in key.split("x"))
            with open(os.path.join(path, f"calibration-{key}.json"), "w") as handle:
                json.dump({"rows": rows, "cols": cols, "cutoff": cutoff}, handle)
    os.environ[CALIBRATION_ENV] = path
    clear_process_cache()
    return path


def measure_calibration(workdir: WorkDir, manager) -> Tuple[float, Dict[str, float], int]:
    """Calibrate ``manager``'s shapes from scratch, on the side.

    Returns the seconds it took, the cutoffs it chose and how many
    shapes differ from :func:`pinned_cutoffs`.  The manager's own
    table is left as it was.
    """
    calibration_dir(workdir, "measured", pinned=False)
    kept = manager.calibration
    manager.calibration = None
    start = time.perf_counter()
    measured = manager.calibrate().to_meta()
    seconds = time.perf_counter() - start
    manager.calibration = kept
    pinned = pinned_cutoffs()
    flips = sum(1 for key, cutoff in measured.items() if pinned.get(key) != cutoff)
    return seconds, measured, flips


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """numpy's linear-interpolated percentile; NaN when empty."""
    return float(np.percentile(values, q)) if len(values) else float("nan")


def median(values) -> float:
    return percentile(values, 50)


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> Dict[str, object]:
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Open-loop load generation
# ----------------------------------------------------------------------
@dataclass
class Rung:
    """One offered rate of a ladder and what happened at it."""

    rate: float
    planned: int
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    aborted: bool = False
    backlog: float = 0.0
    achieved_rate: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    gen_lag_ms: List[float] = field(default_factory=list)
    passed: bool = False
    #: perf_counter interval from the first due time to the last answer.
    window: tuple = (0.0, 0.0)

    def p(self, q: float) -> float:
        return percentile(self.latencies_ms, q)

    def judge(self, limit_ms: float, backlog_cap: int) -> None:
        """A rate is sustained when nothing failed, p90 meets the limit
        and the queue did not grow: the median number of requests
        outstanding over the second half of the rate's run stays within
        ``backlog_cap`` (a median, so one stall does not count as a
        growing queue)."""
        self.passed = (
            not self.aborted
            and self.failed == 0
            and self.p(90) <= limit_ms
            and self.backlog <= backlog_cap
        )

    def summary(self) -> Dict[str, object]:
        return {
            "rate": self.rate,
            "achieved_rate": round(self.achieved_rate, 2),
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "samples": len(self.latencies_ms),
            "p50_ms": round(self.p(50), 3),
            "p90_ms": round(self.p(90), 3),
            "p99_ms": round(self.p(99), 3),
            "backlog": self.backlog,
            "aborted": self.aborted,
            "passed": self.passed,
        }


class _Tracker:
    """Completion bookkeeping for one rung, kept out of the collector's
    way: times and outcomes live in numpy arrays and no future is held
    here, so only in-flight requests own GC-tracked objects."""

    def __init__(self, planned: int, keep, is_sample) -> None:
        self.done_at = np.zeros(planned)
        self.ok = np.zeros(planned, dtype=bool)
        self.sample = np.zeros(planned, dtype=bool)
        self.kept: Dict[int, object] = {}
        self.completed = 0
        self._keep = keep
        self._is_sample = is_sample
        self._lock = threading.Lock()
        self._all_done = threading.Condition(self._lock)

    def track(self, index: int, future) -> None:
        future.add_done_callback(functools.partial(self._done, index))

    def _done(self, index: int, future) -> None:
        self.done_at[index] = time.perf_counter()
        if future.exception() is None:
            result = future.result()
            self.ok[index] = True
            self.sample[index] = self._is_sample(result)
            if self._keep(index, result):
                self.kept[index] = result
        with self._lock:
            self.completed += 1
            self._all_done.notify_all()

    def wait(self, sent: int, timeout_s: float) -> None:
        with self._all_done:
            self._all_done.wait_for(lambda: self.completed >= sent, timeout=timeout_s)


def run_rung(
    rung: Rung,
    submit: Callable[[int], object],
    limit_ms: float,
    slack: int,
    keep: Callable[[int, object], bool],
    is_sample: Callable[[object], bool] = lambda result: True,
    wait_timeout_s: float = 120.0,
) -> Tuple[Dict[int, object], np.ndarray]:
    """Offer ``rung.planned`` items at ``rung.rate`` from this thread.

    Item ``i`` is due at ``start + i / rate`` (open loop: the schedule
    never waits for the server) and its latency runs from that due time
    to its future's completion; ``is_sample`` picks the results that
    count as latency samples.  Submission stops early (``aborted``)
    once the queue is plainly growing.  Fills in ``rung``, judges it
    against ``limit_ms`` and returns the results ``keep(i, result)``
    selected, by index, and the mask of items that succeeded.
    """
    # Start every rung from a collected heap, with the survivors (the
    # imported modules, the loaded model, earlier rungs' records) moved
    # out of the collector's view: full collections then cost what this
    # rung allocates, not what the process has accumulated.
    gc.collect()
    gc.freeze()
    cap = int(rung.rate * limit_ms / 1e3) + slack
    tracker = _Tracker(rung.planned, keep, is_sample)
    lag_ms = np.zeros(rung.planned)
    start = time.perf_counter() + 0.005
    due = start + np.arange(rung.planned) / rung.rate
    sent = 0
    outstanding = []  # sampled every 32 submissions
    for index in range(rung.planned):
        delay = due[index] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lag_ms[index] = (time.perf_counter() - due[index]) * 1e3
        tracker.track(index, submit(index))
        sent += 1
        if index % 32 == 31:
            outstanding.append(sent - tracker.completed)
            if outstanding[-1] > 2 * cap:
                rung.aborted = True
                break
    rung.backlog = median(outstanding[len(outstanding) // 2:]) if outstanding else 0.0
    tracker.wait(sent, wait_timeout_s)

    ok = tracker.ok[:sent]
    rung.sent = sent
    rung.succeeded = int(ok.sum())
    rung.failed = sent - rung.succeeded
    rung.gen_lag_ms = lag_ms[:sent].tolist()
    samples = ok & tracker.sample[:sent]
    rung.latencies_ms = ((tracker.done_at[:sent] - due[:sent])[samples] * 1e3).tolist()
    last_done = float(tracker.done_at[:sent][ok].max()) if rung.succeeded else start
    rung.window = (start, last_done)
    if last_done > start:
        rung.achieved_rate = rung.succeeded / (last_done - start)
    rung.judge(limit_ms, cap)
    return tracker.kept, ok


def sustained_rate(rungs: List[Rung]) -> float:
    """Completion rate at the highest sustained ladder step.  When not
    even the first step was sustained, its completion rate stands in
    (an upper bound) so the figure stays comparable; the ladder lines
    and ``ladder.rungs_passed`` say which case it is."""
    passing = [rung for rung in rungs if rung.passed]
    return (passing[-1] if passing else rungs[0]).achieved_rate


def in_window(rung: Rung, stamp: float) -> bool:
    return rung.window[0] <= stamp <= rung.window[1]
