"""The package's public surface and its documented entry point stay in step."""
import ast
import dataclasses
import itertools
import json
import re

import fedq
import fedq.cli
from tests.conftest import ROOT, run_python

README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in fedq.__all__ if not hasattr(fedq, name)]
    assert missing == []


LAZY_HARNESS = """
import sys, fedq
print(sorted(name for name in ("fedq.harness", "fedq.cli", "json") if name in sys.modules))
print({"harness", "RunManifest", "compute_qstar", "run_experiment"} <= set(dir(fedq)), "fedq.harness" in sys.modules)
print(fedq.harness.write_trace_csv.__name__)
from fedq import RunManifest
print(RunManifest is fedq.harness.RunManifest, fedq.run_experiment is fedq.harness.run_experiment)
try:
    fedq.no_such_name
except AttributeError as exc:
    print(type(exc).__name__)
"""


def test_import_loads_the_harness_on_first_use(tmp_path):
    # a run needs no manifest, CSV or JSON code, so `import fedq` leaves it for the first harness name read
    proc = run_python(["-c", LAZY_HARNESS], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True False", "write_trace_csv", "True True", "AttributeError"]


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    metrics = namespace["result"].metrics
    assert len(metrics) == namespace["config"].rounds + 1


def _resolves(name: str) -> bool:
    """Whether a dotted name, ``fedq.``-prefixed or starting at a fedq module, names an attribute."""
    obj = fedq
    for part in name.removeprefix("fedq.").split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_names_resolve():
    # every backticked dotted name under fedq, like `fedq.rng.seed_words` or `engine.BATCH_CELLS`, exists
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    roots = {"fedq"} | {path.stem for path in (ROOT / "src" / "fedq").glob("*.py")}
    names = {name for span in re.findall(r"`([^`]+)`", prose)
             for name in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.\w+)+", span)
             if name.split(".")[0] in roots}
    assert len(names) > 10  # the pattern still finds the README's names
    assert sorted(name for name in names if not _resolves(name)) == []


def _readme_default(field: dataclasses.Field) -> str:
    """A manifest field's default as the README's table writes it: JSON, strings in backticks."""
    if field.default is not dataclasses.MISSING:
        value = field.default
    elif field.default_factory is not dataclasses.MISSING:
        value = field.default_factory()
    else:
        return "—"  # required
    return f"`{value}`" if isinstance(value, str) else json.dumps(value)


def test_readme_manifest_table_matches_run_manifest():
    # one row per RunManifest field with its default; a row naming two keys lists two defaults
    table = README.read_text(encoding="utf-8").split("| key | default | meaning |", 1)[1]
    documented = {}
    for row in itertools.takewhile(lambda line: line.startswith("|"), table.strip().splitlines()[1:]):
        keys_cell, defaults_cell = (cell.strip() for cell in row.strip("|").split("|")[:2])
        keys = re.findall(r"`(\w+)`", keys_cell)
        defaults = defaults_cell.split(", ") if len(keys) > 1 else [defaults_cell]
        assert len(defaults) == len(keys), row
        documented.update(zip(keys, defaults))
    assert documented == {f.name: _readme_default(f) for f in dataclasses.fields(fedq.RunManifest)}


def test_library_never_validates_with_assert():
    # `python -O` strips assert statements; bad input must raise a typed FedqError
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "fedq").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_modules_share_no_private_names():
    # a rule two modules need belongs in one public place (fedq.errors for range checks)
    found = [
        f"{path.name}:{node.lineno} imports {alias.name}"
        for path in sorted((ROOT / "src" / "fedq").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("fedq"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_only_read_text_and_make_dir_catch_file_errors():
    # every input file goes through fedq.errors.read_text, which raises the caller's typed error, and
    # every output directory through harness._make_dir, which raises ParamOutOfRangeError
    file_errors = {"OSError", "FileNotFoundError", "IsADirectoryError", "PermissionError", "FileExistsError",
                   "NotADirectoryError", "UnicodeError", "UnicodeDecodeError"}
    found = set()
    for path in sorted((ROOT / "src" / "fedq").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    if file_errors & {getattr(c, "id", None) for c in caught}:
                        found.add(f"{path.name}:{getattr(top, 'name', node.lineno)}")
    assert found == {"errors.py:read_text", "harness.py:_make_dir"}


def test_only_errors_coerces_arrays_to_a_dtype():
    # every array argument is coerced and checked by fedq.errors.check_array or check_ids
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "fedq").glob("*.py"))
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "asarray"
        and getattr(node.func.value, "id", None) in {"np", "numpy"}
        and (len(node.args) > 1 or any(keyword.arg == "dtype" for keyword in node.keywords))
    ]
    assert found == []


def test_library_never_advances_a_stream():
    # a stream moves on only by drawing or through fedq.rng.skip_words, so every bit generator
    # ends where the same draws leave it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "fedq").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "advance"
    ]
    assert found == []
