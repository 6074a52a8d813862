"""Span tracing of fedq from outside the package.

The tracer replaces module attributes (and ``RngStream.generator``) with
thin wrappers for the length of one traced unit, then puts the originals
back, so untraced units run the unmodified code.  Each wrapper appends a
span ``[name, start, end, parent, run]`` to an in-memory list; ``parent``
is the index of the enclosing span in the same list (-1 at the top).

Callers see a patched name only if they look it up at call time, which
is how fedq's modules call each other (``engine`` calls its own global
``synchronous_sample``, and so on).  A target that no longer exists, for
example because a later refactor removed the seam, is recorded as
absent and reported with zero calls instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute path).  A span name may have several
# targets: the same function as imported into different namespaces.
TARGETS = (
    ("rng.generator", "fedq.rng", "RngStream.generator"),
    ("mdp.synchronous_sample", "fedq.engine", "synchronous_sample"),
    ("bellman.empirical_bellman", "fedq.engine", "empirical_bellman"),
    ("bellman.score", "fedq.engine", "rmse"),
    ("bellman.score", "fedq.engine", "linf_error"),
    ("bellman.value_iteration", "fedq.bellman", "value_iteration"),
    ("bellman.value_iteration", "fedq.harness", "value_iteration"),
    ("bellman.exact_bellman", "fedq.bellman", "exact_bellman"),
    ("compression.ef_compress", "fedq.engine", "ef_compress"),
    ("compression.direct_compress", "fedq.engine", "direct_compress"),
    ("compression.contraction_alpha", "fedq.engine", "contraction_alpha"),
    ("compression.selection_probabilities", "fedq.engine", "selection_probabilities"),
    ("engine.run_local_phase", "fedq.engine", "run_local_phase"),
    ("engine.aggregate", "fedq.engine", "aggregate"),
    ("engine.run_federated", "fedq.engine", "run_federated"),
    ("engine.run_federated", "fedq.harness", "run_federated"),
    ("bounds.payload_bits", "fedq.engine", "payload_bits"),
    ("bounds.evaluators", "fedq.harness", "direct_bound"),
    ("bounds.evaluators", "fedq.harness", "error_feedback_bound"),
    ("grids.build_gridworld", "fedq.grids", "build_gridworld"),
    ("grids.build_gridworld", "fedq.harness", "build_gridworld"),
    ("harness.cached_qstar", "fedq.harness", "cached_qstar"),
    ("harness.write", "fedq.harness", "write_trace_csv"),
    ("harness.write", "fedq.harness", "write_overlay_csv"),
    ("harness.write", "fedq.harness", "write_agg_csv"),
    ("cli.main", "fedq.cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# Spans that enclose other traced spans; only these report self time.
NESTING = frozenset({
    "bellman.value_iteration",
    "engine.run_local_phase",
    "engine.run_federated",
    "harness.cached_qstar",
    "harness.write",
    "cli.main",
})


def _resolve(module: str, path: str):
    """Return (owner, attribute) for a dotted path, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(vars(owner).get(attr)):
        return None
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run = ""
        found = {name for name, module, path in TARGETS if _resolve(module, path)}
        self.absent = sorted(set(SPAN_NAMES) - found)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.run])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    @contextmanager
    def recording(self, run: str):
        """Trace every target while the block runs, tagging spans with `run`."""
        self.run = run
        patched = []
        try:
            for name, module, path in TARGETS:
                target = _resolve(module, path)
                if target is None:
                    continue
                owner, attr = target
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(name, original))
                patched.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


class LayerTotals:
    """Per-name call counts, inclusive and self time, summed over runs."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.qstar_computed = 0
        self.runs = 0

    def add(self, spans: list[list]) -> None:
        """Fold in the spans of one run (one set-up or one timed unit)."""
        self.runs += 1
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(spans):
            self.calls[name] += 1
            self.incl[name] += end - start
            self.self_s[name] += end - start - child_time[idx]
        # a cached_qstar call that ran value_iteration below it was a miss
        missed = set()
        for name, _, _, parent, _ in spans:
            if name != "bellman.value_iteration":
                continue
            while parent >= 0:
                if spans[parent][0] == "harness.cached_qstar":
                    missed.add(parent)
                parent = spans[parent][3]
        self.qstar_computed += len(missed)

    def per_run(self, value: float) -> float:
        return value / self.runs if self.runs else 0.0
