"""Reproduce the compression comparison as a manifest-driven sweep.

Writes one trace CSV per (compressor, seed) plus across-seed aggregate
files into a temporary directory, removed when the demo ends, then
tabulates final accuracy against total communication.  To plot rmse vs
bits_cumulative with an external tool, point ``output_dir`` at a
directory that stays.
"""
import json
import tempfile
from pathlib import Path

from fedq.harness import RunManifest, read_trace_csv, run_experiment

with tempfile.TemporaryDirectory(prefix="fedq_sweep_") as tmp:
    out = Path(tmp)
    manifest = RunManifest.from_mapping({
        "map": "map5x5",
        "rounds": 600,
        "agents": 20,
        "local_epochs": 1,
        "eta": 0.05,
        "beta": 0.8,
        "noise_std": 0.5,
        "noise_clip": 0.5,
        "compressor": "identity",
        "n_seeds": 3,
        "sweep": {"compressor": ["identity", "top_k", "sparsified_k"], "k": [5, 10]},
        "output_dir": str(out),
    })
    written = run_experiment(manifest)

    print(f"{len(written)} files under {out}\n")
    print(f"{'run':>55}  {'final rmse':>10}  {'bits/agent':>12}")
    for path in sorted(out.glob("*_summary.json")):
        summary = json.loads(path.read_text())
        print(f"{summary['slug']:>55}  {summary['final_rmse']:10.4f}  {summary['total_bits_per_agent']:12.0f}")

    # the identity rows pay |S||A| * 32 bits per round; top_k and sparsified_k
    # pay per stored entry, so the same accuracy arrives orders cheaper
    sample = next(p for p in sorted(out.glob("*top_k5*seed0.csv")) if "_agg" not in p.name)
    rows = read_trace_csv(sample)
    print(f"\nexample trace {sample.name}: round 1 shipped {rows[1].payload_entries} entries "
          f"across all agents, {rows[1].bits_round:.0f} bits/agent")
