"""Every demo script runs to completion and prints its closing result."""
import pytest

from tests.conftest import ROOT, run_python

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
    proc = run_python([str(DEMOS / script)], tmp_path)  # demo 04 writes its sweep under TMPDIR
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
    assert not list(tmp_path.glob("fedq_sweep_*"))  # temporary sweep output is removed
