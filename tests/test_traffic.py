"""Every library statement that no workload, demo or CLI command runs is kept for a named reason.

The traffic is what ``bench/run.py`` calls on each workload of
``bench/workloads.py`` at seed 3 (``prepare``, ``before_unit``, ``unit``,
``digest`` and ``kept_frac``), the five demos, and ``fedq run``, ``fedq
sweep`` and ``fedq qstar`` on map5x5.  A ``sys.settrace`` line tracer,
limited to frames in ``src/fedq``, records what that traffic runs, in a
fresh interpreter that has imported fedq before the trace starts; the
workloads' ``sizes`` are traced apart, as the benchmark's reader.  Only
statements in function bodies count, and ``raise`` statements do not.

``KEPT`` lists each function that keeps unreached statements, with their
number and the one reason they stay; the README's "Library layout"
section gives the same reason and says why.  A change that adds a branch
no traffic reaches fails here until it deletes the branch or names why
it stays.
"""
import ast
import contextlib
import io
import itertools
import json
import os
import runpy
import sys
from pathlib import Path

import pytest

from tests.conftest import ROOT, load_workloads, run_python

PACKAGE = ROOT / "src" / "fedq"
README = ROOT / "README.md"

ENTRY_POINT = "public entry point"
VALIDATION = "input validation or error handling"
SUPPORTED_INPUT = "only path for a supported input"
TEST_REFERENCE = "test reference"
OPTION = "documented option"
BENCH_READER = "benchmark reader"
REASONS = {ENTRY_POINT, VALIDATION, SUPPORTED_INPUT, TEST_REFERENCE, OPTION, BENCH_READER}

# function: (statements the traffic leaves unreached, reason they stay)
KEPT = {
    "fedq.__getattr__": (3, ENTRY_POINT),
    "fedq.__dir__": (1, ENTRY_POINT),
    "bellman.empirical_bellman": (12, TEST_REFERENCE),
    "bellman.rmse": (1, ENTRY_POINT),
    "bounds.direct_bound": (1, ENTRY_POINT),
    "cli._cmd_manifest": (1, OPTION),
    "cli.main": (4, VALIDATION),
    "compression.SparseVector.__len__": (1, ENTRY_POINT),
    "compression.compress_batch": (1, SUPPORTED_INPUT),
    "compression._probabilities": (1, OPTION),
    "compression.unbiased_constants": (1, SUPPORTED_INPUT),
    "compression.direct_compress": (1, ENTRY_POINT),
    "engine._server_step": (3, SUPPORTED_INPUT),
    "engine._Batch.local_phases": (2, SUPPORTED_INPUT),
    "errors.check_count": (5, VALIDATION),
    "errors.check_interval": (3, VALIDATION),
    "errors.check_array": (1, VALIDATION),
    "harness._check_type": (1, VALIDATION),
    "harness._overlay_bound": (2, SUPPORTED_INPUT),
    "harness._write_run": (2, VALIDATION),
    "mdp.TabularMDP.transition": (4, BENCH_READER),
    "mdp.rewards_from_normals": (1, SUPPORTED_INPUT),
}

CLI_MANIFESTS = {
    "run": {"map": "map5x5", "rounds": 5},
    "sweep": {"map": "map5x5", "rounds": 5, "n_seeds": 2,
              "sweep": {"compressor": ["identity", "top_k", "sparsified_k"], "k": [5]}},
}


def _reached(run) -> set[tuple[str, int]]:
    """The (file name, line) pairs of ``src/fedq`` that ``run()`` executes."""
    lines, package = set(), str(PACKAGE) + os.sep

    def on_line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {(os.path.basename(path), line) for path, line in lines}


def trace_traffic(work_dir: str) -> None:
    """Print, as JSON, the lines the traffic reaches and those the workloads' ``sizes`` reach.

    Runs in a fresh interpreter whose working directory, ``TMPDIR`` and
    ``FEDQ_OUTPUT_ROOT`` lie under ``work_dir``, with bytecode writing off,
    so nothing is written into the repository.
    """
    import fedq
    import fedq.cli

    if Path(fedq.__file__).resolve().parent != PACKAGE:
        raise ImportError(f"fedq was imported from {fedq.__file__}, not from {PACKAGE}")
    workloads = load_workloads()
    work_dir, prepared = Path(work_dir), []

    def traffic():
        for workload in workloads.WORKLOADS.values():
            unit_dir = work_dir / workload.name
            unit_dir.mkdir()
            prep = workload.prepare(3, unit_dir)
            workload.before_unit(prep)
            out = workload.unit(prep)
            workload.digest(prep, out, unit_dir)
            workload.kept_frac(prep, out)
            prepared.append((workload, prep))
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
        for command, manifest in CLI_MANIFESTS.items():
            path = work_dir / f"{command}.json"
            path.write_text(json.dumps(manifest))
            if fedq.cli.main([command, str(path)]) != 0:
                raise RuntimeError(f"fedq {command} failed")
        if fedq.cli.main(["qstar", "map5x5", "--gamma", "0.8"]) != 0:
            raise RuntimeError("fedq qstar failed")

    with contextlib.redirect_stdout(io.StringIO()):
        reached = {"traffic": _reached(traffic),
                   "reader": _reached(lambda: [workload.sizes(prep) for workload, prep in prepared])}
    print(json.dumps({name: sorted(lines) for name, lines in reached.items()}))


def _own_lines(stmt: ast.stmt) -> range:
    """A statement's lines; a compound statement's header only, up to its first body statement."""
    body = getattr(stmt, "body", None)
    return range(stmt.lineno, max(body[0].lineno, stmt.lineno + 1) if body else stmt.end_lineno + 1)


def _statements(body: list[ast.stmt]):
    """The statements of a function body, nested blocks included, nested functions and classes not."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield stmt
        for block in (getattr(stmt, "body", []), getattr(stmt, "orelse", []), getattr(stmt, "finalbody", []),
                      *(handler.body for handler in getattr(stmt, "handlers", []))):
            yield from _statements(block)


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, body without its docstring) of every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = child.body[1:] if ast.get_docstring(child) is not None else child.body
            yield prefix + child.name, body
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _functions(child, f"{prefix}{child.name}.")


def _unreached(reached: set[tuple[str, int]]) -> dict[str, list[int]]:
    """Each library function's statements outside ``reached``, ``raise`` statements aside, by line."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "fedq" if path.stem == "__init__" else path.stem
        lines = {line for name, line in reached if name == path.name}
        for name, body in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            missed = [stmt.lineno for stmt in _statements(body)
                      if not isinstance(stmt, ast.Raise) and lines.isdisjoint(_own_lines(stmt))]
            if missed:
                found[f"{module}.{name}"] = missed
    return found


@pytest.fixture(scope="module")
def reach(tmp_path_factory) -> dict[str, set[tuple[str, int]]]:
    work_dir = tmp_path_factory.mktemp("traffic")
    proc = run_python(["-c", "import sys, tests.test_traffic as t; t.trace_traffic(sys.argv[1])", str(work_dir)],
                      work_dir)
    assert proc.returncode == 0, proc.stderr
    return {name: set(map(tuple, lines)) for name, lines in json.loads(proc.stdout).items()}


@pytest.mark.slow
def test_every_unreached_statement_has_a_reason(reach):
    found = _unreached(reach["traffic"])
    changed = {name: found.get(name, []) for name in found.keys() | KEPT.keys()
               if len(found.get(name, [])) != KEPT.get(name, (0,))[0]}
    # delete each new unreached statement, or give its function a reason here and in the README
    assert changed == {}, "unreached statements by line, where KEPT counts otherwise"


@pytest.mark.slow
def test_benchmark_reader_paths_are_read_by_the_benchmark(reach):
    # a path kept only for the benchmark's reader goes once the reader stops reading it
    found = _unreached(reach["traffic"] | reach["reader"])
    assert [name for name, (_, reason) in KEPT.items() if reason == BENCH_READER and name in found] == []


def test_readme_gives_each_kept_path_its_reason():
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1].split("\n## ", 1)[0]
    table = section.split("| function | unreached statements | reason |", 1)[1]
    documented = {}
    for row in itertools.takewhile(lambda line: line.startswith("|"), table.strip().splitlines()[1:]):
        name, count, reason = (cell.strip() for cell in row.strip("|").split("|"))
        documented[name.strip("`")] = (int(count), reason.split(":", 1)[0])
    assert set(reason for _, reason in KEPT.values()) <= REASONS
    assert documented == KEPT
