"""Reference work that gauges the machine's current speed.

On a shared virtual machine the speed of CPU-bound Python code drifts by
tens of percent over seconds to minutes, driven from outside the machine.
The harness times one slice of this loop between chunks of the child's
work, on the same CPU, and scales every time it measures by
``REF_SLICE_S / slice time``: the times it reports are what they would be
on a CPU that runs one slice in exactly ``REF_SLICE_S``.  The loop uses
none of transfinita, so a change to the program cannot move it; it does
the kind of interpreter work the program does (small tuples, sorting,
hashing, dicts, exact fractions, string formatting).

Set-up time is mostly exec, file reads and imports, which follow that
drift only in part, so set-up is gauged by a reference spawn instead: the
same interpreter importing a few standard modules, scaled by
``REF_SPAWN_S / spawn time``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

REF_SLICE_S = 0.004  # nominal time of one slice (about what it took where written)
REF_SPAWN_S = 0.05  # nominal time of one reference spawn
_ROUNDS = 500
_SPAWN = [sys.executable, "-c", "import argparse, fractions, json, select"]


def _work() -> int:
    acc = 0
    seen = {}
    q = Fraction(0)
    for i in range(_ROUNDS):
        t = tuple(sorted(((i * 7919 + k * 104729) % 1000, k) for k in range(6)))
        seen[t] = i
        acc += hash(t) & 0xFF
        q += Fraction(i % 97 + 1, i % 89 + 2)
        acc += len(f"{i}-{acc:x}")
    return acc + len(seen) + q.denominator % 7


def slice_s() -> float:
    """Wall time of one slice of the reference loop."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def spawn_s() -> float:
    """Wall time of one reference spawn, from start to exit."""
    t0 = time.perf_counter()
    subprocess.run(_SPAWN, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0
