"""Every demo script runs to completion and prints its closing result."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

# (script, a line fragment its output must contain)
CASES = [
    ("01_maps_and_oracle.py", "fixed-point residual"),
    ("02_compression_operators.py", "(unbiased)"),
    ("03_federated_run.py", "centralized reduction check: bit-identical"),
    pytest.param("04_communication_sweep.py", "example trace", marks=pytest.mark.slow),
    ("05_theory_overlay.py", "how the guarantee scales"),
]


@pytest.mark.parametrize("script, expected", CASES)
def test_demo_runs(script, expected, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["FEDQ_OUTPUT_ROOT"] = str(tmp_path / "runs")
    env["TMPDIR"] = str(tmp_path)  # demo 04 writes its sweep under a temporary directory
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
    assert not list(tmp_path.glob("fedq_sweep_*"))  # temporary sweep output is removed
