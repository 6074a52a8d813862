"""Wall time of each acceptance criterion next to its in-test time gate.

Runs every test of ``tests/test_acceptance.py`` once, each in its own
pytest process, without modifying the tests, and records the wall time
of that process beside the ``elapsed < X`` gate the test asserts (if
any).  Usage, from the repository root::

    python3 bench/acceptance_times.py [--only NAME_SUBSTRING] [--out FILE]

The report is printed and written as JSON (default
``.bench_out/acceptance_times.json``).
"""
from __future__ import annotations

import argparse
import ast
import json
import re
import subprocess
import sys
import time
from pathlib import Path

from common import OUT, ROOT, child_env, machine_facts

TEST_FILE = ROOT / "tests" / "test_acceptance.py"
_OUTCOME = re.compile(r"\b(\d+) (passed|failed|xfailed|xpassed|error|errors|skipped)\b")


def time_gates(source: str) -> dict[str, float | None]:
    """Map each test function to the bound of its ``elapsed < X`` check, if any."""
    gates: dict[str, float | None] = {}
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("test_")):
            continue
        bounds = [
            cmp.comparators[0].value
            for cmp in ast.walk(node)
            if isinstance(cmp, ast.Compare)
            and isinstance(cmp.left, ast.Name)
            and cmp.left.id == "elapsed"
            and isinstance(cmp.ops[0], ast.Lt)
            and isinstance(cmp.comparators[0], ast.Constant)
        ]
        gates[node.name] = float(min(bounds)) if bounds else None
    return gates


def run_one(name: str) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
           f"{TEST_FILE.relative_to(ROOT)}::{name}"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True)
    wall = time.perf_counter() - started
    outcomes = _OUTCOME.findall(proc.stdout.splitlines()[-1] if proc.stdout else "")
    detail = [line for line in proc.stdout.splitlines() if line.startswith("[criterion")]
    return {
        "test": name,
        "outcome": outcomes[0][1] if outcomes else f"exit {proc.returncode}",
        "wall_s": round(wall, 3),
        "report": detail[0] if detail else "",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="", help="run only tests whose name contains this")
    parser.add_argument("--out", type=Path, default=OUT / "acceptance_times.json")
    args = parser.parse_args(argv)

    gates = time_gates(TEST_FILE.read_text())
    rows = []
    for name, gate in gates.items():
        if args.only not in name:
            continue
        row = run_one(name)
        row["gate_s"] = gate
        row["within_gate"] = None if gate is None else row["wall_s"] < gate
        rows.append(row)
        gate_txt = "no gate" if gate is None else f"gate {gate:g} s"
        print(f"{name:55s} {row['outcome']:8s} {row['wall_s']:9.1f} s  ({gate_txt})", flush=True)

    report = {"machine": machine_facts(), "criteria": rows,
              "total_wall_s": round(sum(r["wall_s"] for r in rows), 3)}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"total {report['total_wall_s']:.1f} s; report written to {args.out}")
    return 0 if all(r["outcome"] in ("passed", "xfailed") for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
