"""Machine-speed correction for timings on a shared, noisy CPU.

A CPU shared with other tenants drifts in speed: on a 2-core shared
machine with Python 3.11 the same check-theorems pass took 4.4 s and 8.6 s
a few minutes apart.  The pass's own CPU time drifts as much (its spread
over five seeds was 0.26), because the tenants slow the core down rather
than take it away.  Raw times of runs made minutes apart can not be
compared there, so every timing the benchmark reports is converted into
reference seconds:

    reference seconds = sum over intervals of  dt * REFERENCE_S / r

where the pass is cut into intervals of SAMPLE_EVERY_S seconds and r is
the time the reference kernel took at the end of the interval, sampled
from a SIGALRM handler.  The reference kernel is a frozen copy of a
pairwise Hamming scan, the loop that dominates two of the three
workloads; it imports nothing from mdskit, so no change to the package
can move it.  The handler's own time is left out of the pass.

The correction is exact only for code that slows down as much as the
reference loop.  Other code slows down less: speed_check.py prints, for
a bit-sliced big-int kernel and for C library calls, the exponent b
in  (their slowdown) = (reference slowdown) ** b.  On the machine above b
was 0.86 and 0.52.  Such code reads (r / REFERENCE_S) ** (b - 1) times
its time at the load where the reference takes REFERENCE_S: faster under
more load, slower under less.  REFERENCE_S is therefore the reference
kernel's median time at that machine's usual load, not its fastest time,
so the factor stays near 1 while the load stays near usual.

Set-up time is scaled by a different reference, a bare interpreter start
(`python3 -c pass`) timed just before each set-up sample, because process
start and imports slow down less than the Python loop.  START_REFERENCE_S
is the median bare start on the machine above.
"""

import random
import signal
import subprocess
import sys
from time import monotonic, perf_counter

SAMPLE_EVERY_S = 0.5
REFERENCE_S = 0.0085
START_REFERENCE_S = 0.064

_rng = random.Random(0)
_WORDS = sorted(tuple(_rng.randrange(9) for _ in range(10)) for _ in range(100))


def best_of_two(kernel):
    """Seconds the kernel takes now; best of two, so a single preemption
    does not read as a slow machine."""
    best = None
    for _ in range(2):
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        best = took if best is None else min(best, took)
    return best


def hamming_scan():
    """The reference kernel: a pairwise Hamming scan of 100 words."""
    for i, a in enumerate(_WORDS):
        for b in _WORDS[i + 1:]:
            sum(x != y for x, y in zip(a, b))


def reference_time():
    """Seconds the reference kernel takes now."""
    return best_of_two(hamming_scan)


def interpreter_start_time():
    """Seconds to start and stop a bare interpreter, now."""
    start = monotonic()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return monotonic() - start


class SpeedClock:
    """Converts the wall time between start() and stop() into reference
    seconds, sampling the machine's speed every SAMPLE_EVERY_S seconds."""

    def __init__(self):
        self.reference_s = 0.0
        self.sampling_s = 0.0
        self._last = None

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        took = reference_time()
        end = perf_counter()
        self.reference_s += (start - self._last) * REFERENCE_S / took
        self.sampling_s += end - start
        self._last = end

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._last = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
