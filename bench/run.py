"""fedq benchmark: set up a workload, time its units, check output bytes.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]   # all workloads

Each workload runs in its own process.  With ``--trace 0`` the run is
untraced and reports the end-to-end metrics; unit and set-up times are
normalized to reference speed by a machine-speed probe of ``probe.py``,
and the raw wall-clock unit times are printed before the result, marked
as not gated.  With ``--trace 1`` the run alternates untraced and traced
units and reports the per-layer metrics, plus the tracing overhead from
the ratio of the two unit-time medians.  Per-layer values are the mean
per set-up plus the mean per traced unit.

Closed loop, one unit at a time: set up ``SETUP_REPS`` times (each an
``import fedq`` in a fresh interpreter that has numpy loaded, plus the
in-process set-up), run one warm-up unit, then run units until
``--seconds`` have passed.  Every unit's output digest must equal the
reference shipped in ``reference.json`` for the seed (or, for a seed
without one, the warm-up's digest); a unit that raises or mismatches
counts as failed.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only if every unit was correct.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from common import OUT, cap_threads, child_env, import_fedq, machine_facts

cap_threads()  # before numpy is imported, here or in any child

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPS = 5
HIGH_PERCENTILES = (99, 95, 90, 75)


def import_seconds() -> float:
    """Wall time of `import fedq` in a fresh interpreter that has already
    imported numpy, whose own import fedq cannot change."""
    code = "import time, numpy; t = time.perf_counter(); import fedq; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


class Runner:
    """Times the units of one workload and checks their digests."""

    def __init__(self, workload, prep, work_dir: Path, reference: dict | None) -> None:
        self.workload, self.prep, self.work_dir = workload, prep, work_dir
        self.reference = reference
        self.attempted = self.failed = 0

    def unit(self, context=None):
        """Run one unit; return (seconds, output) or (seconds, None) on failure."""
        w = self.workload
        w.before_unit(self.prep)
        self.attempted += 1
        try:
            with context or nullcontext():
                started = time.perf_counter()
                out = w.unit(self.prep)
                elapsed = time.perf_counter() - started
        except Exception as exc:  # a failing unit is counted, not fatal
            self.failed += 1
            print(f"unit {self.attempted} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return 0.0, None
        digest = w.digest(self.prep, out, self.work_dir)
        if self.reference is None:
            self.reference = digest  # no shipped reference: reruns must match the warm-up
        if digest != self.reference:
            self.failed += 1
            print(f"unit {self.attempted} digest {digest} != reference {self.reference}",
                  file=sys.stderr)
            return elapsed, None
        return elapsed, out


def percentile_report(times: list[float]) -> dict:
    """Raw median, quartiles and the highest percentile with >= 10 samples beyond it."""
    report = {"run_s_n": (len(times), "count"), "run_s_p50": (statistics.median(times), "s")}
    if len(times) >= 2:
        cuts = statistics.quantiles(times, n=100, method="inclusive")
        report["run_s_p25"], report["run_s_p75"] = (cuts[24], "s"), (cuts[74], "s")
        for p in HIGH_PERCENTILES:
            if len(times) * (100 - p) / 100 >= 10:
                report[f"run_s_p{p}"] = (cuts[p - 1], "s")
                break
    return report


def set_up(workload, seed: int, work_dir: Path, tracer=None, totals=None, keep=None, speed=None):
    """Set up SETUP_REPS times; return the last set-up and each rep's seconds,
    multiplied by ``speed()`` taken just before the rep when given."""
    samples, prep = [], None
    for rep in range(SETUP_REPS):
        scale = speed() if speed else 1.0
        imported = import_seconds()
        prep = None  # release the previous MDP before building the next
        context = tracer.recording(f"setup-{rep}") if tracer else nullcontext()
        with context:
            started = time.perf_counter()
            prep = workload.prepare(seed, work_dir)
            samples.append((imported + time.perf_counter() - started) * scale)
        if tracer:
            spans = tracer.take()
            totals.add(spans)
            if rep == 0:
                keep.extend(spans)
    return prep, samples


def end_to_end(runner: Runner, workload, setup_samples, measure_speed, reference_s, seconds: float):
    """Time units for `seconds`; each is followed by the workload's probe, and
    its time is normalized to reference speed by that probe (see probe.py).

    Returns the gated metrics and the raw wall-clock figures."""
    runner.unit()  # warm-up, checked but not timed
    agent_rounds = workload.agent_rounds(runner.prep)
    times, normalized = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        elapsed, out = runner.unit()
        speed = reference_s / measure_speed()
        if out is not None:
            times.append(elapsed)
            normalized.append(elapsed * speed)
    if not times:
        return {}, {}
    raw = percentile_report(times)
    raw["agent_rounds_per_s"] = (agent_rounds / raw["run_s_p50"][0], "1/s")
    run_ref_s = statistics.median(normalized)
    metrics = {
        "agent_rounds_per_ref_s": (agent_rounds / run_ref_s, "1/s"),
        "run_ref_s_p50": (run_ref_s, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, raw


def per_layer(runner: Runner, workload, setup_totals, tracer, seconds: float, keep):
    """Alternate untraced and traced units for `seconds`.

    Returns the per-layer metrics and the unit counts."""
    from tracing import NESTING, SPAN_NAMES, LayerTotals

    runner.unit()  # warm-up
    units = LayerTotals()
    plain, traced, kept, written, runs = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        elapsed, out = runner.unit()
        if out is not None:
            plain.append(elapsed)
        elapsed, out = runner.unit(tracer.recording(f"unit-{len(traced)}"))
        spans = tracer.take()
        if out is None:
            continue
        if not traced:
            keep.extend(spans)
        traced.append(elapsed)
        units.add(spans)
        kept.append(workload.kept_frac(runner.prep, out))
        files = workload.files_written(out)
        written.append(sum(p.stat().st_size for p in files))
        runs.append(sum(p.name.endswith("_summary.json") for p in files))
    if not traced or not plain:
        return {}, {}

    both = (setup_totals, units)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (sum(t.per_run(t.calls[name]) for t in both), "count")
        metrics[f"{name}.s"] = (sum(t.per_run(t.incl[name]) for t in both), "s")
        if name in NESTING:
            metrics[f"{name}.self_s"] = (sum(t.per_run(t.self_s[name]) for t in both), "s")
    sizes = workload.sizes(runner.prep)
    mean = statistics.fmean
    metrics.update({
        "mdp.sample_bytes": (sizes["S"] * sizes["A"] * sizes["S"], "bytes_computed"),
        "compression.kept_frac": (mean(kept), "ratio"),
        "harness.qstar_cache_hits": (sum(
            t.per_run(t.calls["harness.cached_qstar"] - t.qstar_computed) for t in both), "count"),
        "harness.bytes_written": (mean(written), "bytes"),
        "harness.runs": (mean(runs), "count"),
        "trace.unit_s": (mean(traced), "s"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"),
    })
    counts = {"traced_units": (len(traced), "count"), "untraced_units": (len(plain), "count")}
    return metrics, counts


def run_workload(args, workloads) -> int:
    import probe
    from tracing import LayerTotals, Tracer

    workload = workloads.WORKLOADS[args.workload]
    work_dir = OUT / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    reference = load_reference(workload.name, args.seed)
    try:
        if args.trace:
            tracer, setup_totals, keep = Tracer(), LayerTotals(), []
            prep, _ = set_up(workload, args.seed, work_dir, tracer, setup_totals, keep)
            runner = Runner(workload, prep, work_dir, reference)
            metrics, extra = per_layer(runner, workload, setup_totals, tracer, args.seconds, keep)
            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
            spans_path.write_text("".join(
                json.dumps({"run": run, "name": name, "start": start, "end": end, "parent": parent}) + "\n"
                for name, start, end, parent, run in keep))
            report = {"absent_spans": tracer.absent,
                      "spans_file": str(spans_path.relative_to(OUT.parent))}
        else:
            measure_speed, reference_s = probe.for_workload(workload.memory_bound)
            prep, samples = set_up(workload, args.seed, work_dir, speed=lambda: reference_s / min(
                measure_speed() for _ in range(3)))
            runner = Runner(workload, prep, work_dir, reference)
            metrics, extra = end_to_end(runner, workload, samples, measure_speed, reference_s,
                                        args.seconds)
            report = {}
        extra["failed_frac"] = (runner.failed / runner.attempted, "ratio")
        report.update({
            "workload": workload.name, "why": workload.why, "seed": args.seed,
            "sizes": workload.sizes(runner.prep), "machine": machine_facts(),
            "reference": "shipped" if reference else "warm-up (no shipped digest for this seed)",
        })
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps(report))
    for name, (value, unit) in extra.items():
        print(f"{workload.name}  {name} = {value!r} {unit}  (not gated)")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name}  {name} = {value!r} {unit}")
    correct = runner.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args, workloads) -> int:
    """Run every workload, each in a fresh process, and relay their output."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fedq benchmark")
    parser.add_argument("--workload", help="workload name; omit to run every workload")
    parser.add_argument("--seed", type=int, default=0, help="input seed, used as master_seed")
    parser.add_argument("--seconds", type=float, default=36.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        import_fedq()
    except ImportError as exc:
        print(f"bench: cannot import fedq from this checkout: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload is None:
        return run_all(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
