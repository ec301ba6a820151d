"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host the same attack can take twice as long from one minute to
the next: the process keeps running, only slower, as its neighbours' load
comes and goes. The benchmark therefore times this kernel next to the
program's work and reports times at the host speed where the kernel takes
``REFERENCE_S``: a time t measured while the kernel takes r counts as
``t * REFERENCE_S / r`` seconds.

The kernel is the benchmark's own code, so no change to pwbandit can make it
faster or slower. It does the two kinds of work an attack does: Python-level
dictionary lookups over a table larger than the core's cache, as the corpus
lookups do, and small numpy products with a projected step in a Python
loop, as the solver does. The host's speed changes do not slow the two
alike, and the program's time is a mix of both (see the README). The kernel
runs in a helper process (``Gauge``) so that its table is not counted in
the program's peak memory.
"""

from __future__ import annotations

import functools
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# About the kernel's median seconds, in the helper, on the machine the
# README's figures come from (2-core x86-64 Xeon VM) at its steady speed.
REFERENCE_S = 0.006
# Kernel runs per reading, at the least; a reading is their median, since a
# single run is short enough for one interruption to double it.
RUNS_PER_READING = 3


@functools.cache
def _data():
    rng = np.random.default_rng(20061590)
    words = [f"w{j:06d}" for j in range(50_000)]
    keys = [words[j] for j in rng.integers(0, len(words), 20_000)]
    table = {word: float(j) for j, word in enumerate(words)}
    probs = rng.random((60, 3)) * 1e-3
    counts = rng.integers(1, 50, 60).astype(float)
    return table, keys, probs, counts


def _kernel() -> float:
    table, keys, probs, counts = _data()
    # Dictionary lookups over a table larger than the core's cache (7 MB) ...
    values = [table[key] for key in keys]
    smallest = sorted(values[:5000])[0]
    # ... and small numpy products with a projected step in a Python loop.
    q = np.full(3, 1 / 3)
    rest = 10_000 - counts.sum()
    for _ in range(300):
        observed = np.maximum(probs @ q, 1e-12)
        remainder = max(1.0 - observed.sum(), 1e-12)
        g = probs.T @ (counts / observed) - rest * probs.sum(axis=0) / remainder
        q = np.maximum(q + 1e-6 * g, 0.0)
        q /= q.sum()
    return smallest + q[0]


def kernel_reading(at_least: float = 0.0) -> float:
    """Median seconds of one kernel run, over RUNS_PER_READING runs or more,
    run until ``at_least`` seconds have passed, after one untimed run that
    brings the kernel's data back into the cache."""
    _kernel()
    started = time.perf_counter()
    times: list[float] = []
    while len(times) < RUNS_PER_READING or time.perf_counter() - started < at_least:
        t = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def reference_time(times: list[float], readings: list[float]) -> float:
    """Total of ``times`` at the reference speed.

    ``readings`` has one more entry than ``times``: the kernel reading before
    the first and after each timed stretch, so each stretch is scaled by the
    mean of the readings on either side of it.
    """
    if len(readings) != len(times) + 1:
        raise ValueError("need a kernel reading before and after every stretch")
    return sum(t * 2 * REFERENCE_S / (before + after)
               for t, before, after in zip(times, readings, readings[1:]))


class Gauge:
    """The kernel in a helper process, so that its table stays out of the
    measured process's memory.

    Both processes are pinned to one CPU and take turns: the caller waits
    while the helper takes a reading, so the two never compete and the
    helper sees the same host speed the program does.
    """

    def __init__(self):
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._helper = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def reading(self, at_least: float = 0.0) -> float:
        self._helper.stdin.write(f"{at_least!r}\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def close(self) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    # The helper behind Gauge: one reading per line of input, until it closes.
    for line in sys.stdin:
        print(repr(kernel_reading(float(line))), flush=True)
