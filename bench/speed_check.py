"""How well the machine-speed correction (speed.py) fits code other than
its reference loop.

    python3 bench/speed_check.py

Times the reference kernel, a bit-sliced big-int kernel and a mix of C
library calls in turn for CHECK_SECONDS, takes each kernel's median per
CHECK_WINDOW_S window, and prints for each kernel the least-squares slope
b of log(its median) on log(the reference's median) across windows.  A
kernel with slope b reads (r / REFERENCE_S) ** (b - 1) of its time at the
usual load, where r is the reference's time; the script prints the range
of that factor over the windows.  b = 1 means the correction holds
exactly for that kind of code.
"""

import hashlib
import math
import random
import statistics
import zlib
from time import monotonic

import speed

CHECK_SECONDS = 600
CHECK_WINDOW_S = 20


def _check_kernels():
    """The reference and two other kinds of code, with their inputs."""
    rng = random.Random(0)
    # a code of 729 random words, n=6 over q=3, as per-position symbol bitmasks
    code = [tuple(rng.randrange(3) for _ in range(6)) for _ in range(729)]
    masks = [[0] * 3 for _ in range(6)]
    for j, word in enumerate(code):
        for p, s in enumerate(word):
            masks[p][s] |= 1 << j
    data = rng.randbytes(200000)
    floats = [rng.random() for _ in range(30000)]

    def bit_sliced():
        """Per word, its agreements with every word of the code at once,
        by a bit-sliced adder over the position masks: a loop of big-int
        operations."""
        for word in code + code:
            b0 = b1 = b2 = 0
            for p, s in enumerate(word):
                m = masks[p][s]
                c0 = b0 & m
                b0 ^= m
                c1 = b1 & c0
                b1 ^= c0
                b2 |= c1
            (b2 | (b1 & b0)).bit_count()

    def c_library():
        """Time inside C library calls: hashing, compression, sorting."""
        hashlib.sha256(data).digest()
        zlib.compress(data[:50000])
        sorted(floats)

    return {"reference": speed.hamming_scan, "bit-sliced big-int": bit_sliced,
            "C library": c_library}


def main():
    kernels = _check_kernels()
    windows = []
    end = monotonic() + CHECK_SECONDS
    while monotonic() < end:
        window_end = monotonic() + CHECK_WINDOW_S
        samples = {name: [] for name in kernels}
        while monotonic() < window_end:
            for name, kernel in kernels.items():
                samples[name].append(speed.best_of_two(kernel))
        windows.append({name: statistics.median(v) for name, v in samples.items()})
    x = [math.log(w["reference"]) for w in windows]
    low, high = min(w["reference"] for w in windows), max(w["reference"] for w in windows)
    print(f"{len(windows)} windows of {CHECK_WINDOW_S} s; reference median "
          f"{statistics.median(w['reference'] for w in windows) * 1e3:.2f} ms, "
          f"from {low * 1e3:.2f} to {high * 1e3:.2f} ms")
    for name in kernels:
        if name != "reference":
            y = [math.log(w[name]) for w in windows]
            b = statistics.linear_regression(x, y).slope
            busiest, quietest = ((r / speed.REFERENCE_S) ** (b - 1) for r in (high, low))
            print(f"{name:20} b = {b:.2f}; reads {busiest:.3f} to {quietest:.3f}"
                  " of its time at the usual load")


if __name__ == "__main__":
    main()
