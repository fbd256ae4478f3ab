"""How fast the machine is right now, measured with a fixed Python kernel.

The benchmark shares a few cores with other machines' work, and the
speed those cores give it drifts: a fixed pure-Python loop took anywhere
from 1.0x to 2x its quiet time over a few minutes, and every timing of
the server drifted with it.  So the benchmark times this kernel -- in
the load-generator process, while the server is idle -- between the
measured rounds, and reports each timing scaled to a *reference speed*:
``raw * REFERENCE_KERNEL_S / kernel_s``, the time the work would have
taken on a machine where the kernel takes ``REFERENCE_KERNEL_S``.

The kernel does the kind of work the server's evaluator does -- builds
a hash index of string tuples, joins through it, formats and sorts the
result -- but with no code of the program under test, so a change to
the program never changes the yardstick.
"""

from __future__ import annotations

import random
import statistics
import time

# About the kernel's time on a quiet core of the machine the benchmark
# was written on (Python 3.11, 2 vCPUs); scaled figures are in "seconds
# of that machine".
REFERENCE_KERNEL_S = 0.016
_REPEATS = 3


def _kernel() -> int:
    rng = random.Random(7)
    rows = [
        (f"p{rng.randrange(300)}", f"c{rng.randrange(500)}") for _ in range(6000)
    ]
    index: dict[str, list[str]] = {}
    for person, course in rows:
        index.setdefault(course, []).append(person)
    pairs = set()
    for person, course in rows[:3000]:
        for other in index.get(course, ()):
            pairs.add((person, other))
    return len(sorted(str(pair) for pair in list(pairs)[:4000]))


def kernel_seconds() -> float:
    """Median time of a few runs of the kernel, now."""
    times = []
    for _ in range(_REPEATS):
        began = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - began)
    return statistics.median(times)
