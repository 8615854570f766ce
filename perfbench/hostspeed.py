"""Host-speed probe used to adjust the benchmark's timings.

On a shared virtual machine the speed of one vCPU changes by up to 1.6x from
one few-second stretch to the next, as other tenants load the host.  That
swing is larger than any bound a regression gate can use.  The benchmark
therefore times this fixed, library-independent probe next to every request
(before and after it), and reports each request's time scaled by
REFERENCE_S / probe time.  On a steady host the factor is a constant and
changes no comparison.  On a shared one it removes most of the swing,
because the probe slows down with the host: over one minute of 5 s windows,
the median of a p=97 `dft` moved by -28% to +14% raw and by -2% to +4%
adjusted.

The probe is the geometric mean of three kernels, one for each kind of work
the library does: an interpreter-bound integer loop, big-integer products
accumulated into a list (the character sums and packed products), and
`Fraction` arithmetic (the inverse).  Each alone tracks the library's
slow-down to within about 10%; their geometric mean tracks both a p=97
`dft` and p=7 inverses to within about 3%.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Probe time, in seconds, of an uncontended Intel Xeon vCPU under
# CPython 3.11.7; adjusted timings are in seconds at that speed.
REFERENCE_S = 0.00025

_RNG = random.Random(20031008)
_WORDS = [_RNG.getrandbits(200) for _ in range(64)]
_FRACTIONS = [Fraction(_RNG.randint(1, 10**6), _RNG.randint(1, 10**6)) for _ in range(64)]


def _loop() -> int:
    x = 0
    for i in range(8000):
        x += i * i % 7
    return x


def _bigint() -> list[int]:
    acc = [0] * 97
    words = _WORDS
    for k in range(5):
        for i, c in enumerate(words):
            acc[(i * k) % 97] += c * words[(i + k) & 63]
    return acc


def _fractions() -> Fraction:
    acc = Fraction(0)
    values = _FRACTIONS
    for i in range(40):
        acc += values[i & 63] * values[(i * 7) & 63] - values[(i + 3) & 63]
    return acc


def probe() -> float:
    """Time one probe: the geometric mean of the three kernels' seconds."""
    clock = time.perf_counter
    marks = [clock()]
    for kernel in (_loop, _bigint, _fractions):
        kernel()
        marks.append(clock())
    product = 1.0
    for start, end in zip(marks, marks[1:]):
        product *= end - start
    return product ** (1 / 3)


def factor(before: float, after: float) -> float:
    """Scale for a timing taken between two probes."""
    return REFERENCE_S / ((before + after) / 2)
