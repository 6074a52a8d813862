"""Fixed machine-speed probes, independent of fedq.

On a shared host the speed of this machine drifts by tens of percent
over minutes, so raw wall times of identical work differ more between
runs than the changes the benchmark must detect.  Timing a fixed task
next to each measured unit, and reporting the unit's time as a multiple
of the probe's, cancels most of that drift, provided the probe is held
back by the same thing as the unit.  There are two probes:

* the CPU probe mixes bytecode interpretation, many small numpy calls
  and numpy generator construction, where the small-table workloads
  spend their time; it allocates no large arrays;
* the memory probe runs the compare-and-argmax of a dense inverse-CDF
  sampler over an 8 MB table, the shape of work that dominates a large
  dense kernel; its table adds about 9 MB to the workload's peak RSS.

Normalized times are "seconds at reference speed":
measured time x reference seconds / probe time.  The reference seconds
are the probe times on the reference machine (2-core x86_64 VM, Python
3.11.7, numpy 2.4.6, uncontended).
"""
from __future__ import annotations

import math
import time

import numpy as np

CPU_REFERENCE_S = 0.004
MEMORY_REFERENCE_S = 0.003

_VECTOR = np.random.default_rng(0).random(100)


def _interpreter() -> None:
    total = 0
    for i in range(50_000):
        total += i * i % 7


def _small_numpy() -> None:
    v = _VECTOR
    for _ in range(700):
        np.argsort(-np.abs(v), kind="stable")
        v.max()
        v + v


def _generators() -> None:
    for i in range(200):
        seq = np.random.SeedSequence(5, spawn_key=(i, 3, 0))
        np.random.Generator(np.random.PCG64(seq)).random((25, 4))


def cpu_probe() -> float:
    """Current CPU probe time in seconds (geometric mean of its three parts)."""
    logs = 0.0
    for part in (_interpreter, _small_numpy, _generators):
        started = time.perf_counter()
        part()
        logs += math.log(time.perf_counter() - started)
    return math.exp(logs / 3)


class MemoryProbe:
    """Times two passes of a sampler-shaped scan over an 8 MB table."""

    def __init__(self, size: int = 512) -> None:
        rng = np.random.default_rng(0)
        cum = rng.random((size, 4, size))
        np.cumsum(cum, axis=2, out=cum)  # in place, to hold one table at a time
        cum /= cum[:, :, -1:]
        self._cum = cum
        self._u = rng.random((size, 4))

    def __call__(self) -> float:
        started = time.perf_counter()
        for _ in range(2):
            np.argmax(self._u[:, :, None] < self._cum, axis=2)
        return time.perf_counter() - started


def for_workload(memory_bound: bool):
    """Return (probe, reference seconds) for a workload."""
    if memory_bound:
        return MemoryProbe(), MEMORY_REFERENCE_S
    return cpu_probe, CPU_REFERENCE_S
