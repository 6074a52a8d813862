"""Regenerate ``reference.json``: the expected output digests per workload and seed.

Usage, from the repository root::

    python3 bench/make_reference.py [--seeds 256]

Run it only on a commit whose output bytes are known to be right: the
benchmark counts every unit whose digest differs from this file as failed.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys

from common import OUT, cap_threads, import_fedq

cap_threads()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=256, help="digest seeds 0 .. N-1")
    args = parser.parse_args(argv)
    import_fedq()
    from run import REFERENCE
    from workloads import WORKLOADS

    table = {}
    for name, workload in WORKLOADS.items():
        table[name] = {}
        for seed in range(args.seeds):
            work_dir = OUT / f"reference-{name}-{seed}"
            work_dir.mkdir(parents=True, exist_ok=True)
            try:
                prep = workload.prepare(seed, work_dir)
                workload.before_unit(prep)
                table[name][str(seed)] = workload.digest(prep, workload.unit(prep), work_dir)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
        print(f"{name}: {args.seeds} seeds", flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
