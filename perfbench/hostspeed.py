"""Host-speed sampling, so that timings can be read at a fixed host speed.

The CPU this benchmark runs on is shared: the same pass can take 1.8 times
as long a few minutes later, and its speed swings by a third within seconds.
A Sampler runs a fixed reference slice of pure-Python work (stdlib Fraction
polynomial products and big-integer fixed-point steps, the two kinds of
arithmetic q2dpoly's exact and mpmath paths spend their time in) from a
SIGALRM timer every INTERVAL_S while a pass runs, and records when each
slice ran and how long it took.  The slice's own time is kept apart, so it
can be subtracted from whatever it interrupted.

`normalize(a, b, raw)` turns `raw` seconds spent in [a, b] into seconds at
the nominal host speed: raw * REF_NOMINAL_S / (median time of the slices run
within WINDOW_S of [a, b]).  The reference is code of the benchmark, not of
q2dpoly, so a change to q2dpoly moves the normalized times and not the
reference.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
WINDOW_S = 0.5
START_SLICES = 5  # run at once by start(), so that a short set-up has slices near it
REF_NOMINAL_S = 0.006  # about the slice's time on a 2.1 GHz Xeon vCPU shared with a busy neighbour

_POLY = {(i, j): Fraction((7 * i + 3 * j) % 23 - 11, 1 + (5 * i + j) % 17)
         for i in range(6) for j in range(6)}
_ONE = 1 << 160


def _step(acc, x, k):
    return (acc * x) >> 160, acc // k


def reference_slice():
    """A fixed piece of work whose time tracks the host's current speed."""
    out = {}
    for (i, j), a in _POLY.items():
        for (k, l), b in _POLY.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + a * b
    acc, x, total = _ONE, _ONE // 3 + 12345, 0
    for k in range(1, 700):
        acc, term = _step(acc + _ONE, x, k)
        total += term
    return out, total


class Sampler:
    """Runs reference_slice every INTERVAL_S from SIGALRM until stopped."""

    def __init__(self):
        self.at = []       # midpoint of each slice (perf_counter seconds)
        self.took = []     # duration of each slice
        self.spent = 0.0   # time spent in the handler, to subtract from spans
        self._previous = None

    def _sample(self):
        t0 = time.perf_counter()
        reference_slice()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        return t0

    def _handler(self, signum, frame):
        t0 = self._sample()
        # one-shot timer, re-armed here, so a slow slice never nests
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.spent += time.perf_counter() - t0

    def start(self):
        """Run START_SLICES slices now (before anything is timed), then one
        every INTERVAL_S."""
        for _ in range(START_SLICES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def slowness(self, a, b):
        """Median time of the slices run within WINDOW_S of [a, b]; a slice
        runs every INTERVAL_S, so there are always some."""
        lo = bisect.bisect_left(self.at, a - WINDOW_S)
        hi = bisect.bisect_right(self.at, b + WINDOW_S)
        return statistics.median(self.took[lo:hi])

    def normalize(self, a, b, raw):
        return raw * REF_NOMINAL_S / self.slowness(a, b)
