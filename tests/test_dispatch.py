"""The byte pins hold at every numpy dispatch level this CPU offers.

numpy picks its SIMD kernels at run time, by CPU, so a rerun on another
machine can take other kernels.  Each level reruns the byte pins in a
fresh interpreter whose environment alone sets
``NPY_DISABLE_CPU_FEATURES`` to the dispatch targets above the level:
every target at numpy's X86_V2 baseline, those above X86_V3 at X86_V3.
The pins are ``test_sweep_bytes_pinned``, ``test_qstar_bytes_pinned``,
``test_seeding_in_bounded_blocks`` (its ``q_final`` SHA-256), the test
that pins each dispatch-sensitive numpy call on the output path (the
README's table under "Bytes at every dispatch level") and seed 3 of each
``bench/reference.json`` digest, computed by the workloads of
``bench/workloads.py``, imported read-only.  The child writes no
bytecode and every output under ``tmp_path``.
"""
import json
from pathlib import Path

import pytest

from tests.conftest import ROOT, load_workloads, run_python

umath = pytest.importorskip("numpy._core._multiarray_umath")  # numpy 2's dispatch names

TESTS = ROOT / "tests"
PINS = [f"{TESTS / name}" for name in (
    "test_harness.py::TestRunExperiment::test_sweep_bytes_pinned",
    "test_harness.py::TestQstar::test_qstar_bytes_pinned",
    "test_engine.py::TestRunFederated::test_seeding_in_bounded_blocks",
    # the pin of each dispatch-sensitive numpy call on the output path (README, "Bytes at every dispatch level")
    "test_bellman.py::TestStateValues",
    "test_engine.py::test_batched_errors_keep_nan_inf_and_signed_zero_bits",
    "test_engine.py::TestAggregate::test_scatter_add_matches_densify_and_add",
    "test_compression.py::TestTopKMatchesStableSort",
    "test_compression.py::TestContractionAlpha",
    "test_engine.py::test_batched_round_matches_per_agent_reference[top_k-error_feedback-3-3-True-1.5]",
    "test_engine.py::test_batched_round_matches_per_agent_reference[sparsified_l1-direct-3-3-True-1.5]",
    "test_mdp.py::TestSynchronousSample::test_batch_rows_match_direct_generator_draws",
    "test_mdp.py::TestSampleReward::test_negative_zero_draw_gives_positive_zero_noise",
)]
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
    workloads = load_workloads()
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
    code = "import sys, tests.test_dispatch as t; sys.exit(t.rerun_pins(sys.argv[1], sys.argv[2:]))"
    proc = run_python(["-c", code, str(tmp_path), *disabled], tmp_path,
                      NPY_DISABLE_CPU_FEATURES=" ".join(disabled), NPY_ENABLE_CPU_FEATURES=None)
    assert proc.returncode == 0, proc.stdout + proc.stderr
