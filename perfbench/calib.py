"""CPU pinning and machine-speed calibration for the benchmark's timings.

The shared 2-CPU machines this benchmark was written on differ in speed
from one CPU to the other by up to 70%, and each CPU's speed drifts by
20% or more over seconds to minutes, because other tenants load the
host. A process that the scheduler moves between CPUs times the same
work differently from run to run. So the benchmark pins each operation
that runs in one process to one CPU (its processes only), and between
those operations times a fixed kernel on the same CPU. Half of it is
the kind of work resnap's parsers and views do (allocating tuples,
strings and datetimes, grouping them in a dict, sorting each group),
half the kind its tree learners do (argsort, bincount and masks over
small numpy arrays).

The speed also changes within a run, so each operation is scaled by the
kernel times taken right before and right after it: its wall time times
``REFERENCE_S`` over their mean, which is seconds at the speed the
reference machine (2-CPU x86-64 VM, Python 3.11) had when
``REFERENCE_S`` was measured. :class:`Clock` applies this rule to every
single-CPU timing. A timing is the median of those. A run on a process
pool uses both CPUs, and which worker the OS puts on the faster one
decides its time, so pool runs are reported as raw wall time. ``run.py``
prints the raw wall times of all timings.
"""
from __future__ import annotations

import os
import statistics
import time
from datetime import datetime, timedelta, timezone
from typing import NamedTuple

import numpy as np

REFERENCE_S = 0.14  # median kernel time on the reference machine
REPEATS = 2  # kernel runs per calibration
KERNEL_ROWS = 30000
_BASE = datetime(2010, 1, 1, tzinfo=timezone.utc)
_RNG = np.random.default_rng(3)
_COLUMNS = [_RNG.random(600) for _ in range(40)]
_LABELS = _RNG.integers(0, 13, 600)


def cpus(count: int) -> list[int]:
    """The first ``count`` CPUs this process may run on (fewer if fewer exist)."""
    return sorted(os.sched_getaffinity(0))[:count]


def pin(cpu_set: list[int]) -> None:
    """Run this process, and the processes it starts from now on, on ``cpu_set`` only."""
    os.sched_setaffinity(0, cpu_set)


class Timing(NamedTuple):
    raw: float  # wall seconds
    scaled: float  # at the reference speed; equal to raw for pool runs


def _kernel() -> int:
    rows = [
        (f"c{i % 7554}", f"a{i % 13}", _BASE + timedelta(seconds=i * 7919 % 100003))
        for i in range(KERNEL_ROWS)
    ]
    groups: dict[str, list[tuple]] = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row)
    for group in groups.values():
        group.sort(key=lambda row: row[2])
    for _ in range(20):
        for column in _COLUMNS:
            order = np.argsort(column, kind="stable")
            np.cumsum(np.bincount(_LABELS[order], minlength=13))
            column[column <= 0.5].sum()
    return len(groups)


def kernel_time() -> float:
    """Median wall time of ``REPEATS`` kernel runs on the CPU this process runs on."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Scales wall times taken on the CPU this process is pinned to.

    The kernel is timed when the clock is made and again after each
    operation, so every operation lies between two kernel times.
    """

    def __init__(self):
        self._speed = kernel_time()

    def timing(self, raw: float) -> Timing:
        """Timing of an operation of ``raw`` seconds that has just ended."""
        before, self._speed = self._speed, kernel_time()
        return Timing(raw, raw * REFERENCE_S * 2.0 / (before + self._speed))
