"""Work clock with the host's speed sampled alongside the measured work.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same 7-world campaign pass took 10.1 s and 14.7 s within three minutes,
and its process CPU time drifted just as much, so the drift is in the
hardware the process gets, not in the scheduler. A small reference kernel
timed during the passes slows down with them. Of the kernels tried, a
heap queue of tuples in pure Python, the kind of work the planners' open
lists do, followed the pass walls best: correlation 0.95 over 14
plan_queries passes, 0.93 over 10 campaign passes and 0.90 over 8
downsample passes. Dividing each pass wall by its mean kernel time cut the
spread of the walls (interquartile range over median) from 0.104 to 0.038,
0.090 to 0.027 and 0.054 to 0.033. A memory stream with an interpreter
loop reached only 0.068, 0.065 and 0.063.

While ``sampling()`` is active, a SIGALRM timer runs that kernel every
``INTERVAL_S`` seconds of wall time and records how long it took. ``now()``
is ``perf_counter()`` minus the time spent in the timer, so spans and pass
walls hold the program's work only. ``scale(a, b)`` turns a wall time
measured while samples ``a`` to ``b`` were taken into seconds at reference
speed: it is ``NOMINAL_S`` over the samples' mean kernel time. The kernel
uses the standard library only, no code of the package, so a change to the
package moves the measured time and not the scale.
"""
from __future__ import annotations

import heapq
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.05
# Kernel time that defines reference speed, near the kernel's mean time on
# the 2-core VM of the recorded baseline, so scaled times read close to
# that VM's wall times.
NOMINAL_S = 0.7e-3
KERNEL_ITEMS = 700

samples: list[float] = []
_stolen = 0.0


def kernel() -> int:
    """Push KERNEL_ITEMS tuples onto a heap and pop them all, about 0.7 ms."""
    heap = []
    for i in range(KERNEL_ITEMS):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
    last = 0
    while heap:
        last = heapq.heappop(heap)[1]
    return last


def _tick(signum, frame) -> None:
    global _stolen
    t0 = perf_counter()
    kernel()
    t1 = perf_counter()
    samples.append(t1 - t0)
    _stolen += perf_counter() - t0


def now() -> float:
    """Seconds of work: perf_counter minus the time spent in the timer."""
    while True:
        stolen = _stolen
        t = perf_counter()
        if stolen == _stolen:
            return t - stolen


@contextmanager
def sampling():
    """Sample the reference kernel until the block ends."""
    kernel()
    old = signal.signal(signal.SIGALRM, _tick)
    # Restart system calls the timer interrupts instead of failing them.
    signal.siginterrupt(signal.SIGALRM, False)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, old)


def mark() -> int:
    """Index of the next sample, to delimit a stretch of work."""
    return len(samples)


def scale(first: int, last: int) -> float:
    """NOMINAL_S over the mean kernel time of samples[first:last].

    The mean leaves out the fastest and slowest tenth of the samples, so a
    sample that lost the processor does not move it. A stretch too short
    to hold a sample takes all samples.
    """
    window = sorted(samples[first:last] or samples)
    cut = len(window) // 10
    return NOMINAL_S / statistics.fmean(window[cut:len(window) - cut])
