"""The machine's speed, read from a fixed reference loop.

A shared host runs this benchmark on a few vCPUs whose speed swings by up
to 2x within seconds as other tenants' load comes and goes; CPU time swings
with wall time, so it is contention for the core, not preemption.  The
benchmark therefore times the reference loop just before and just after
every timed interval and reports the interval scaled to the loop's
reference time:

    scaled = elapsed * REFERENCE_LOOP_S / mean(loop before, loop after)

A scaled time reads as the interval's length at the speed the machine has
when the loop takes ``REFERENCE_LOOP_S``.  The loop mixes interpreted
arithmetic with small NumPy calls, the kind of work the program spends its
time on.  The raw times are kept in the per-operation records.
"""

from __future__ import annotations

import time

import numpy as np

# The loop's time on the 2-vCPU machine of README.md's reference figures,
# at the faster of the speeds it alternates between.
REFERENCE_LOOP_S = 0.0023


def reference_loop() -> float:
    """Run the fixed reference loop once and return its wall time in seconds."""
    start = time.perf_counter()
    s = 0
    for i in range(18000):
        s += i * i % 7
    a = np.ones(4)
    for _ in range(900):
        a = a * 0.5 + 0.5
    return time.perf_counter() - start


def scaled(elapsed: float, loop_before: float, loop_after: float) -> float:
    """``elapsed`` at the reference speed, given the loop's times around it."""
    return elapsed * REFERENCE_LOOP_S / (0.5 * (loop_before + loop_after))
