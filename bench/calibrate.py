"""Machine-speed calibration: a fixed reference job timed next to the calls.

The benchmark runs on shared virtual machines whose speed drifts on its own
by a quarter and more between minutes, for every program alike, so raw call
times measure the neighbours as much as the library.  Before every timed
call the benchmark therefore also times ``reference_job``, a fixed piece of
pure Python in the library's idiom (exact fractions, tuples as dictionary
keys, sorting, small objects, LP-like text written and parsed back) that no
change to the library touches.  The run's times are multiplied by
``REFERENCE_S`` over the median reference time of the run, which estimates
the times the calls would have taken at the speed where ``REFERENCE_S`` was
measured.  A change to the library moves the scaled times exactly as much
as the raw ones, since the factor does not depend on the library; a change
of the machine's speed moves the calls and the reference together and
largely cancels.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from typing import Sequence

from stats import median

# median seconds of one reference_job on the machine the benchmark was
# defined on (2-vCPU virtual machine, Python 3.11.7), in a quiet period;
# scaled times are expressed at that speed, and its value cancels from
# every comparison
REFERENCE_S = 0.013


class _Item:
    __slots__ = ("key", "pair", "cell")

    def __init__(self, key: int, pair: tuple[int, int], cell: list[int]) -> None:
        self.key = key
        self.pair = pair
        self.cell = cell


def reference_job() -> int:
    """Fixed work, about 15 ms; its result never changes."""
    table: dict[tuple[int, int, int], int] = {}
    total = Fraction(0)
    rows = []
    for i in range(1200):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i
        total += Fraction(i % 17 + 1, i % 23 + 2) * Fraction(3, 7)
        rows.append(tuple(sorted((i * 31 % 97, i * 17 % 89, i % 5))))
    rows.sort()
    text = ",".join(f"{a}:{b}:{c}" for a, b, c in rows[::10])
    items = [_Item(i * 7919 % 1009, (i, i + 1), [i]) for i in range(4000)]
    items.sort(key=lambda item: item.key)
    pairs = {item.pair for item in items[::3]}
    lines = "\n".join(
        f"r{i}: {i % 9} x{i % 31} + {i % 5}/3 x{i % 17} <= {i % 11}" for i in range(400)
    )
    parsed = 0
    for line in lines.splitlines():
        name, _, body = line.partition(":")
        lhs, _, rhs = body.partition("<=")
        for term in lhs.split(" + "):
            coeff, _, var = term.strip().partition(" ")
            parsed += Fraction(coeff).denominator + len(var)
        parsed += int(rhs) + len(name)
    return len(table) + total.numerator % 1000 + len(text) + len(pairs) + parsed


def time_reference() -> float:
    """Seconds one ``reference_job`` takes now, without garbage collection,
    whose cost depends on what the calls before left on the heap."""
    clock = time.perf_counter
    gc.disable()
    try:
        started = clock()
        reference_job()
        return clock() - started
    finally:
        gc.enable()


def speed_factor(references: Sequence[float]) -> float:
    """What times measured next to these reference times are multiplied by
    to express them at the speed where ``REFERENCE_S`` was measured."""
    if not references:
        raise ValueError("no reference times")
    return REFERENCE_S / median(references)
