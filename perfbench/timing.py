"""Drift-corrected timing.

On a shared 2-core machine the CPU speed drifts in phases of a fraction
of a second to several seconds, by up to 1.8x. A raw stopwatch therefore
measures the machine as much as the program. The benchmark times the
program against a fixed reference instead:

* ``DriftClock`` interrupts the main thread every ``PERIOD`` seconds
  (``SIGALRM``) and takes one reference sample there: the thread CPU
  time of a fixed piece of NumPy work that does not touch vrlite. Each
  sample reads the current machine speed.
* ``DriftClock.now`` is ``perf_counter`` minus the CPU time spent in
  samples, so the samples never count as program time.
* A span of program time divided by the mean sample taken during it is
  a speed-independent ratio. Multiplying by the sample's time at this
  machine's full speed turns it back into seconds.

There are two references. ``python_sample`` is a loop of Python
statements shaped like the program's per-sample step; it tracks the
single-threaded workloads best. It must not be used while other Python
threads run: it yields the interpreter lock at bytecode boundaries, and
its CPU time then reads up to 3x high, and unevenly. ``held_sample``
issues small ufunc calls through ``map`` from C, so it keeps the lock
for its whole length; it is the reference of the threaded socket
workload.
"""

from __future__ import annotations

import gc
import signal
import statistics
import threading
import time

import numpy as np

PERIOD = 0.02  # seconds between reference samples

_ROWS = np.random.default_rng(12345).standard_normal((256, 20))
_LEFT = [_ROWS[i % 256] for i in range(300)]
_RIGHT = [_ROWS[(7 * i + 3) % 256] for i in range(300)]


def _cpu_seconds(work) -> float:
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        work()
        return time.thread_time() - t0
    finally:
        if collecting:
            gc.enable()


def _python_steps():
    x = np.zeros(20)
    for i in range(250):
        a = _ROWS[i & 255]
        x = x - 1e-3 * (float(np.dot(a, x)) * a + 2e-4 * x)


def _held_calls():
    list(map(np.multiply, _LEFT, _RIGHT))
    list(map(np.add, _LEFT, _RIGHT))
    list(map(np.subtract, _LEFT, _RIGHT))


def python_sample() -> float:
    return _cpu_seconds(_python_steps)


def held_sample() -> float:
    return _cpu_seconds(_held_calls)


# reference name -> (sample, its CPU seconds at full speed on the
# 2-core x86 box of the README, Python 3.11.7, NumPy 2.4.6)
REFERENCES = {
    "python": (python_sample, 0.00083),
    "held": (held_sample, 0.00037),
}


class DriftClock:
    """Program clock with reference samples taken alongside it.

    Use as a context manager in the main thread. Samples run in the
    main thread only; while one runs, other Python threads wait for the
    interpreter lock, so subtracting sample time is right for them too.
    """

    def __init__(self, reference: str):
        self.sample, self.nominal = REFERENCES[reference]
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def now(self) -> float:
        return time.perf_counter() - self.stolen

    def _tick(self, signum, frame):
        t0 = time.thread_time()
        self.samples.append(self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD)
        self.stolen += time.thread_time() - t0

    def __enter__(self):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("DriftClock must run in the main thread")
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, first: int = 0) -> float:
        """Factor that turns program seconds measured while the samples
        from ``first`` on were taken into seconds at full speed."""
        window = self.samples[first:] or self.samples[-8:]
        return self.nominal / statistics.fmean(window)
