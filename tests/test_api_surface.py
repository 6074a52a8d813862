"""The package's public surface and its documented entry point stay in step."""
import re
from pathlib import Path

import fedq

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in fedq.__all__ if not hasattr(fedq, name)]
    assert missing == []


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    metrics = namespace["result"].metrics
    assert len(metrics) == namespace["config"].rounds + 1
