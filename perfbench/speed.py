"""Host-speed probe: program times scaled to a fixed reference speed.

On a shared host the speed of a virtual CPU changes by up to 1.7x within
a second or two, as other tenants come and go, and all Python work slows
by a similar factor.  A ``Probe`` runs a fixed reference loop of
pure-Python big-integer and dict work (about 0.15 ms) a few times
before and after the measured call and, from a ``SIGALRM`` interval timer,
every ``TICK_S`` during it.  ``Probe.scaled(start_ns, end_ns)`` is the
program's own wall time in that interval (the probes' time taken out),
each stretch between two probes scaled by ``REF_NS`` over the reference
loop's time measured around that stretch.  The reference loop is part of
the benchmark, so a change to the program moves the scaled time exactly as
much as it moves the wall time at a steady host speed.
"""

from __future__ import annotations

import signal
import statistics
import time

TICK_S = 0.01
# The reference loop's time, run back to back, on an unloaded vCPU of the
# 2.1 GHz Xeon host the benchmark was written on.  Between stretches of the
# program it runs a little slower (colder caches), so scaled times read
# below wall times even on an idle host; they are for comparing versions.
REF_NS = 136_000
_MODULUS = (1 << 61) - 1


def reference() -> int:
    x, table = 12345, {}
    for i in range(600):
        x = (x * x + i) % _MODULUS
        table[i & 255] = x
    return x


class Probe:
    """Reference-loop timings interleaved with one call, in perf_counter_ns."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []  # (start_ns, end_ns)
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter_ns()
        reference()
        self.samples.append((start, time.perf_counter_ns()))
        self._busy = False

    def __enter__(self) -> "Probe":
        for _ in range(5):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(5):
            self.sample()

    def scaled(self, start_ns: int, end_ns: int) -> int:
        """The program's time within [start_ns, end_ns] at the reference speed, in ns."""
        samples = self.samples
        durations = [end - start for start, end in samples]
        total = 0.0
        for i in range(len(samples) - 1):
            gap_start, gap_end = max(start_ns, samples[i][1]), min(end_ns, samples[i + 1][0])
            if gap_end <= gap_start:
                continue
            # Two probes on each side; the median drops one that was preempted.
            local = statistics.median(durations[max(0, i - 1):i + 3])
            total += (gap_end - gap_start) * REF_NS / local
        return round(total)
