"""The byte pins hold at every numpy dispatch level this CPU offers.

numpy picks its SIMD kernels at run time, by CPU, so a rerun on another
machine can take other kernels.  Each level reruns the byte pins in a
fresh interpreter whose environment alone sets
``NPY_DISABLE_CPU_FEATURES`` to the dispatch targets above the level:
every target at numpy's X86_V2 baseline, those above X86_V3 at X86_V3.
The pins are ``test_sweep_bytes_pinned``, ``test_qstar_bytes_pinned``,
``test_seeding_in_bounded_blocks`` (its ``q_final`` SHA-256) and seed 3
of each ``bench/reference.json`` digest, computed by the workloads of
``bench/workloads.py``, imported read-only.  The child writes no
bytecode and every output under ``tmp_path``.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

umath = pytest.importorskip("numpy._core._multiarray_umath")  # numpy 2's dispatch names

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
PINS = [
    f"{TESTS / 'test_harness.py'}::TestRunExperiment::test_sweep_bytes_pinned",
    f"{TESTS / 'test_harness.py'}::TestQstar::test_qstar_bytes_pinned",
    f"{TESTS / 'test_engine.py'}::TestRunFederated::test_seeding_in_bounded_blocks",
]
DIGEST_SEED = 3


def disabled_above(level: str) -> list[str] | None:
    """The dispatch targets above ``level`` that this CPU has, which hold numpy at ``level`` once
    disabled; None if this numpy or CPU cannot run at ``level``."""
    dispatch = list(umath.__cpu_dispatch__)
    if level in umath.__cpu_baseline__:
        above = dispatch
    elif level in dispatch and umath.__cpu_features__.get(level):
        above = dispatch[dispatch.index(level) + 1:]
    else:
        return None
    return [target for target in above if umath.__cpu_features__.get(target)]


def rerun_pins(work_dir: str, disabled: list[str]) -> int:
    """Run the pins and the benchmark digests under ``work_dir``; the exit code, 0 if all hold."""
    if any(umath.__cpu_features__[target] for target in disabled):
        raise RuntimeError(f"numpy kept some of {disabled} on; NPY_DISABLE_CPU_FEATURES was not applied")
    work_dir = Path(work_dir)
    code = pytest.main([*PINS, "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
                        "--rootdir", str(ROOT), "--basetemp", str(work_dir / "pytest")])
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    for workload in workloads.WORKLOADS.values():
        unit_dir = work_dir / workload.name
        unit_dir.mkdir()
        prep = workload.prepare(DIGEST_SEED, unit_dir)
        workload.before_unit(prep)
        digest = workload.digest(prep, workload.unit(prep), unit_dir)
        if digest != reference[workload.name][str(DIGEST_SEED)]:
            print(f"{workload.name} seed {DIGEST_SEED}: digest {digest}, reference "
                  f"{reference[workload.name][str(DIGEST_SEED)]}")
            code = code or 1
    return code


@pytest.mark.slow
@pytest.mark.parametrize("level", ["X86_V2", "X86_V3"])
def test_byte_pins_hold_at_dispatch_level(level, tmp_path):
    disabled = disabled_above(level)
    if disabled is None:
        pytest.skip(f"numpy on this CPU cannot run at {level}")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled), PYTHONDONTWRITEBYTECODE="1",
               TMPDIR=str(tmp_path), FEDQ_OUTPUT_ROOT=str(tmp_path / "runs"))
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT), str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, tests.test_dispatch as t; sys.exit(t.rerun_pins(sys.argv[1], sys.argv[2:]))"
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), *disabled], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
