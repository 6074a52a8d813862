"""Paths, thread caps and machine facts shared by the benchmark scripts.

This module imports neither numpy nor fedq, so a script can apply the
thread caps before either is loaded.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def cap_threads(env: dict | None = None) -> dict:
    """Cap BLAS/OpenMP pools at nproc in `env` (default: this process's environment)."""
    env = os.environ if env is None else env
    for var in _THREAD_VARS:
        env[var] = str(nproc())
    return env


def child_env() -> dict:
    """Environment for a child process: thread caps plus `src` first on the import path."""
    env = cap_threads(dict(os.environ))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_fedq():
    """Import fedq from this checkout's `src`, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import fedq

    if SRC not in Path(fedq.__file__).resolve().parents:
        raise ImportError(f"fedq was imported from {fedq.__file__}, not from {SRC}")
    return fedq


def llc_size() -> str:
    """Size of the last-level cache as the kernel reports it, or 'unknown'."""
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (-1, "unknown")
    for index in caches.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, size)
    return best[1]


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "llc": llc_size(),
        "machine": platform.machine(),
    }
