"""Machine-speed reference for the benchmark's pass times.

The host this benchmark was built on lends it two cores of a shared machine,
and the throughput of those cores drifts with the other tenants' load: the
same fixed work took 60 % longer in one minute than in the next. A raw wall
time then measures the neighbours as much as the program.

So every timed pass is sampled against a fixed reference: a few
milliseconds of interpreter, small-array numpy and larger-array numpy work,
the three kinds of work csaloha does, written here and never changed by the
program. A `SpeedSampler` runs the reference on a wall-clock timer *inside*
the timed region (a SIGALRM handler, between two Python bytecodes of the
program), ten times a second, so a 30 s pass is sampled about 300 times
while it runs, not only before and after. The host switches between a fast
and a slow state (about 5 and 8 ms for the reference) many times a minute,
so the samples must be that dense to follow it. The time the handler takes
(5–8 % of it) is subtracted from the region.

A region's time at reference speed is

    seconds_at_ref = (wall - sampler time) * REFERENCE_S / harmonic mean of the samples

The samples come at even steps of wall time, so the mean of the speeds they
see (1 / duration) is the region's mean speed, and its inverse is the
harmonic mean of the durations. REFERENCE_S is a constant, the reference's
duration on that host in its fast state, so seconds at reference speed read
like seconds there when nothing else runs.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Duration of reference() on the 2-core host the benchmark was tuned on, in its
# fast state; it only scales the normalised times.
REFERENCE_S = 0.005
SAMPLE_EVERY_S = 0.1

_IDX = (np.arange(1800) * 7) % 600
_SLOTS = np.random.default_rng(1).integers(0, 1500, size=(600, 3))
_MAT = np.random.default_rng(0).integers(0, 2**63, size=(2000, 64), dtype=np.uint64)


def _interpreter() -> int:
    # peel's inner loop: numpy scalar reads and updates while walking the rows
    # of a random burst-to-slot table, with list and set traffic
    deg = np.zeros(1500, dtype=np.int64)
    acc = np.zeros(1500, dtype=np.int64)
    seen, frontier = set(), []
    for b in range(520):
        seen.add(b)
        for t in _SLOTS[b]:
            deg[t] += 1
            acc[t] ^= b
            if deg[t] == 1:
                frontier.append(int(t))
    return len(frontier) + len(seen)


def _small_arrays() -> float:
    # gathers, cumprod, scatter-add and expm1 on ~600 floats: one DE step
    p = np.ones(600)
    for _ in range(60):
        w = p[_IDX].reshape(600, 3)
        q = np.zeros(600)
        np.add.at(q, _IDX, np.cumprod(w, axis=1).ravel())
        p = -np.expm1(-0.9 * q / 3.0)
    return float(p[0])


def _large_arrays() -> int:
    # column scans and row XORs over a 1 MB bit matrix: gje_decode's pivots
    m = _MAT.copy()
    for c in range(35):
        sel = np.nonzero(m[:, c & 63] & np.uint64(1 << (c % 63)))[0][:200]
        m[sel] ^= m[c]
    return int(m[0, 0])


def reference() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _interpreter()
    _small_arrays()
    _large_arrays()
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, samples: list[float]) -> float:
    return seconds * REFERENCE_S / statistics.harmonic_mean(samples)


class SpeedSampler:
    """Samples reference() every `every_s` of wall time while active (never
    if `every_s` is 0).

        with SpeedSampler() as s:
            work()
        s.seconds         # wall time of work(), the sampler's own time excluded
        s.samples         # reference durations, at least two
        s.at_reference()  # s.seconds at reference speed

    One sample is taken just before and one just after the region, so a short
    region still has a speed. The timer is one-shot and re-armed after each
    sample, so a slow sample can never pile up further signals.
    """

    def __init__(self, every_s: float = SAMPLE_EVERY_S):
        self.every_s = every_s
        self.samples: list[float] = []
        self.seconds = 0.0
        self._in_region = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference())
        self._in_region += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, self.every_s)

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(reference())
        if self.every_s > 0:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.every_s)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._t0
        if self.every_s > 0:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.seconds = wall - self._in_region
        self.samples.append(reference())

    def at_reference(self) -> float:
        return at_reference_speed(self.seconds, self.samples)
