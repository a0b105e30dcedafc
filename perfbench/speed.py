"""Host-speed reference that the end-to-end timings are divided by.

On a shared host the speed of a vCPU changes by up to 1.7x in phases that
last from seconds to minutes, and the two vCPUs change independently. A
run's plain median follows the phase mix of that run, so two runs of the
same code can differ by a third.

Every timed operation is therefore bracketed by two readings of a fixed
reference loop taken on the CPUs the operation runs on. The loop is the
benchmark's own code, so no change to the package can move it. A reading
is the loop's slowdown against its nominal time; an operation's normalised
time is its measured time divided by the mean of the readings before and
after it. It is the time the operation would take with the CPU at the
reference loop's nominal speed.

The phases slow interpreted Python more than memory-bound numpy, so the
loop has two halves: an interpreter loop, and numpy maxima over 12 MiB of
arrays (beyond L2, inside L3). A reading is the product of the two halves'
slowdowns, each the best of two repetitions, raised to the workload's
exponents (`speed_exponents`, interpreter first): (1.25, 0) for the CLI
and the set-system scans, which slow somewhat more than the small loop,
and (0.5, 0.5) for the numpy sweeps of lattice-m22. Those exponents gave
the steadiest medians in interleaved trials of the operations.
"""
from __future__ import annotations

import os
import time

import numpy as np

# Times of the two halves on an idle-phase 2-vCPU Xeon VM (Python 3.11,
# numpy 2.4), about the 1st percentile of 3000 readings.
NOMINAL_PY_MS = 1.0
NOMINAL_NP_MS = 1.5

# Exponents for interpreter-bound work and for numpy sweeps.
INTERPRETER = (1.25, 0.0)
NUMPY_SWEEPS = (0.5, 0.5)

_arrays = []


def _py_ms() -> float:
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for k in range(10000):
        acc += k * k
        seen[k & 255] = acc
    return (time.perf_counter() - t0) * 1e3


def _np_ms() -> float:
    if not _arrays:
        a = np.arange(1 << 19, dtype=np.int64)
        _arrays.extend((a, a[::-1].copy(), np.empty_like(a)))
    a, b, out = _arrays
    t0 = time.perf_counter()
    for _ in range(2):
        np.maximum(a, b, out=out)
    return (time.perf_counter() - t0) * 1e3


def slowdown(exponents) -> float:
    """How many times slower than nominal the current CPU runs now, for
    work whose speed follows the (interpreter, numpy) halves with these
    exponents."""
    py_exp, np_exp = exponents
    out = (min(_py_ms(), _py_ms()) / NOMINAL_PY_MS) ** py_exp
    if np_exp:
        out *= (min(_np_ms(), _np_ms()) / NOMINAL_NP_MS) ** np_exp
    return out


class Placement:
    """Pins this process to one CPU and times operations against the
    reference. Processes started inside `timed` inherit the pinning, so the
    readings are taken where the work runs."""

    def __init__(self, exponents) -> None:
        self.exponents = exponents
        self.cpus = sorted(os.sched_getaffinity(0))
        self.home = {self.cpus[0]}
        os.sched_setaffinity(0, self.home)

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    def slowdown(self, cpus, exponents) -> float:
        """Mean slowdown over `cpus`, read on each in turn."""
        readings = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            readings.append(slowdown(exponents))
        os.sched_setaffinity(0, self.home)
        return sum(readings) / len(readings)

    def timed(self, fn, *args, all_cpus: bool = False, exponents=None):
        """(fn(*args), measured ms, normalised ms). With `all_cpus` the
        operation may use every CPU of the process, and the readings are
        averaged over them. `exponents` overrides the workload's."""
        cpus = set(self.cpus) if all_cpus else self.home
        exponents = exponents or self.exponents
        before = self.slowdown(cpus, exponents)
        os.sched_setaffinity(0, cpus)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            ms = (time.perf_counter() - t0) * 1e3
            os.sched_setaffinity(0, self.home)
        after = self.slowdown(cpus, exponents)
        return out, ms, ms / ((before + after) / 2)
