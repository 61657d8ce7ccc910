"""Reference work sampled during each timed section, to track the machine's speed.

On a shared host the same pass can take 0.6x to 1.5x its usual time, in
phases from under a second to minutes long, so raw medians of 20-second
runs spread by 20-30% from run to run.  While a section is timed, a
SIGALRM handler runs a short fixed burst of reference work every 0.1 s
and records how long it took.  The burst is the same kind of computation
stopline does (small-array numpy sweeps, a Python loop drawing scalar
variates, short SHA-256 digests, and per-particle keyed streams growing
short path arrays) but uses no stopline code, so no change to the program
moves its time.  A section's time less its bursts, divided by the bursts'
mean time over their nominal time, is its time in reference seconds: the
machine's speed during that very section cancels.
"""
from __future__ import annotations

import hashlib
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np
# imported here, not lazily inside a burst: a burst can interrupt an import
from numpy.random import Generator, Philox, SeedSequence

INTERVAL_S = 0.1  # one burst per this much wall time
NOMINAL_S = 0.0035  # a burst's time at reference speed: fixes the reference second
FALLBACK_BURSTS = 3  # run after a section too short to be sampled


def burst() -> float:
    """Run the fixed reference work once and return its duration in seconds."""
    start = perf_counter()
    v = np.linspace(0.0, 1.0, 1601)
    g = 0.5 * v
    d = np.full(1601, 2.5)
    idx = np.arange(1, 1600)
    for _ in range(8):
        for grp in (idx[idx % 2 == 1], idx[idx % 2 == 0]):
            gs = (g[grp] + v[grp - 1] + v[grp + 1]) / d[grp]
            v[grp] = np.maximum(g[grp], v[grp] + 1.5 * (gs - v[grp]))
    rng = Generator(Philox(12345))
    acc = {}
    for i in range(500):
        key = (i % 7, i % 11)
        acc[key] = acc.get(key, 0.0) + float(rng.standard_normal())
    for i in range(80):
        hashlib.sha256(f"{i}|rep|{i % 13}".encode()).digest()
    # particles: a keyed stream each, then a path grown in short segments
    for i in range(14):
        key = hashlib.sha256(f"7|{i}|0.{i % 5}".encode()).digest()
        rng = Generator(Philox(SeedSequence(entropy=int.from_bytes(key[:16], "little"))))
        t, ts, xs = 0.0, [np.array([0.0])], [np.zeros((1, 1))]
        while t < 0.5:
            n = max(1, min(8, int(float(rng.exponential(1.0)) / 0.02)))
            steps = np.full(n, 0.02)
            ts.append(t + np.cumsum(steps))
            xs.append(np.cumsum(0.4 * rng.standard_normal((n, 1)), axis=0))
            t += float(steps.sum())
            float(rng.uniform(0.0, 1.0))
        acc[(i, i % 3)] = (np.concatenate(ts), np.concatenate(xs))
    return perf_counter() - start


class SpeedProbe:
    """Collects the durations of reference bursts taken during a section."""

    def __init__(self):
        self.bursts = []

    def _tick(self, signum, frame) -> None:
        self.bursts.append(burst())

    @contextmanager
    def sampling(self):
        """Take a burst every INTERVAL_S of wall time inside the block."""
        self.bursts = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def in_reference_s(measured_s: float, bursts: list) -> float:
    """A sampled section's measured time, less its bursts, in reference seconds."""
    net = measured_s - sum(bursts)
    if not bursts:
        bursts = [burst() for _ in range(FALLBACK_BURSTS)]
    return net * NOMINAL_S / statistics.mean(bursts)
