"""Host speed, measured with a fixed loop that is timed next to the program.

The benchmark's host is a few cores of a shared machine. Other tenants change
its speed by ±20% within seconds and drift it over minutes, and a whole run
can fall into a slow phase. A fixed pure-Python loop slows down with the
program, so a step's time multiplied by the loop's speed while the step ran
stays put when the host's speed changes and moves when the program does.
Multiplied by REF_LOOP_S, that is the time the step takes when the loop runs
at its reference speed: "seconds at reference speed".
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_ITERS = 100_000
# about the fastest time of `loop_seconds` on an idle core of the 2-vCPU
# Intel Xeon host the bounds were set on (Python 3.11); any fixed value would
# do, since only the ratio to it is compared between runs
REF_LOOP_S = 0.0055
# how often a running step is interrupted to time the loop
SAMPLE_INTERVAL_S = 0.2


def loop_seconds() -> float:
    """Time of one run of the reference loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP_ITERS):
        s += i * i
    return time.perf_counter() - t0


def scaled(seconds: float, loops) -> float:
    """`seconds` at reference speed, given loop times taken while they ran."""
    return seconds * statistics.fmean(REF_LOOP_S / t for t in loops)


class Clock:
    """Times steps and the host's speed while they run.

    The loop is timed before the first step, after every step, and every
    SAMPLE_INTERVAL_S seconds during one from a SIGALRM handler, so a step
    that lasts many seconds is scaled by the speed over its whole length, not
    only at its ends. Time spent in the handler is left out of the step's
    time. Use as a context manager in the main thread."""

    def __init__(self):
        self._samples = None  # loop times of the running step, else None
        self._in_handler = 0.0
        self._last = None
        self._old_handler = None

    def _sample(self, signum, frame):
        if self._samples is None:
            return
        t0 = time.perf_counter()
        self._samples.append(loop_seconds())
        self._in_handler += time.perf_counter() - t0

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        self._last = loop_seconds()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def step(self, call):
        """Runs `call()`; returns (its result, seconds, seconds at reference
        speed)."""
        before = self._last
        self._samples, self._in_handler = [], 0.0
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            samples, self._samples = self._samples, None
            seconds = time.perf_counter() - t0 - self._in_handler
        self._last = loop_seconds()
        return result, seconds, scaled(seconds, [before, *samples, self._last])
