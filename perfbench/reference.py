"""A fixed pure-Python loop that gauges the host's speed during a run.

The host that runs the benchmark shares its cores: its speed drops by a
third or more for seconds to many minutes at a time, in user and system
time alike, with no steal time to show it.  A run that falls in a slow
phase reads slow however it is summarised.  So the parent times this loop
before every CLI invocation and after the last one, and each invocation's
wall and CPU seconds are divided by the mean of the two loop timings that
bracket it.  Multiplied by REFERENCE_S, the ratio reads in seconds on a
host whose loop takes exactly REFERENCE_S: the speed of the host on which
the benchmark was made, when quiet.

The loop does the kinds of work the CLI does -- interpreter dispatch,
small and big integer arithmetic, gcd, tuples, a dict and string
formatting -- and nothing from the program, so a change to the program
never changes it.
"""

from __future__ import annotations

import time
from math import gcd

# The loop's median wall time on the quiet 2-vCPU host the benchmark was
# made on (CPython 3.11); the unit of every normalised timing.
REFERENCE_S = 0.0240
ITERATIONS = 40_000


def _loop(n: int) -> int:
    acc = 0
    table = {}
    parts = []
    a, b = 1, 2
    for i in range(n):
        a, b = b, (a + 2 * b) % 1000003
        acc += gcd(a * 1000000007 * 998244353, b * 1000000009 + 1)
        table[i & 255] = (a, b)
        if i & 7 == 0:
            parts.append(f"{a}/{b}")
    return acc + len(table) + len(",".join(parts))


def reference() -> tuple[float, float]:
    """Run the loop once; return its (wall, CPU) seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    _loop(ITERATIONS)
    return time.perf_counter() - wall, time.process_time() - cpu
