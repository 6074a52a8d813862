"""Experiment orchestration: manifests, sweeps, and trace emission.

A manifest (JSON) pins one experiment family: the map, the environment
parameters, the federated hyperparameters, optional sweep axes, and the
number of seeded repetitions.  Running it produces, per grid point and
seed:

* ``<slug>.csv``          trace with header
  ``round,rmse,linf_error,bits_round,bits_cumulative,payload_entries``
* ``<slug>_summary.json`` final metrics plus wall time (the whole manifest
  is one :func:`~fedq.engine.run_federated_batch` call, which decides
  which runs share a batch, and each run records its batch's wall time
  divided by the batch's number of runs)
* ``<slug>_overlay.csv``  ``round,empirical_linf,theory_bound``

plus one ``<base>_agg.csv`` per grid point with the across-seed band.
Identical manifests rewrite byte-identical CSVs.  The fixed-point oracle
q* that the error columns are measured against is solved by value
iteration on each invocation; a run writes only the files above.
"""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .bellman import greedy_policy, value_iteration
from .bounds import BoundParams, direct_bound_curve, error_feedback_bound_curve
from .compression import IDENTITY, RULE_L1, SPARSIFIED_K, TOP_K, CompressorSpec, unbiased_constants
from .engine import DEFAULT_MODE, DIRECT, ExperimentConfig, RoundMetrics, RunResult, run_federated_batch
from .errors import FileFormatError, ParamOutOfRangeError, check_count, check_interval, read_text
from .grids import build_gridworld, load_map
from .mdp import NoiseSpec, TabularMDP

OUTPUT_ROOT_ENV = "FEDQ_OUTPUT_ROOT"

_SWEEP_AXES = ("eta", "beta", "agents", "local_epochs", "k", "compressor", "mode")
# Manifest fields a run summary records as its "config", next to its seed.
_SUMMARY_FIELDS = _SWEEP_AXES + ("rounds", "gamma", "noise_std", "noise_clip")

TRACE_HEADER = ",".join(RoundMetrics._fields)
# Cell parser for each trace column: its RoundMetrics field type.
_TRACE_PARSERS = tuple(get_type_hints(RoundMetrics).values())


@dataclass(frozen=True)
class RunManifest:
    map: str
    rounds: int
    agents: int = 1
    local_epochs: int = 1
    eta: float = 0.1
    beta: float = 1.0
    gamma: float = 0.8
    noise_std: float = 0.5
    noise_clip: float = 0.5
    compressor: str = IDENTITY
    k: int = 0
    probability_rule: str = RULE_L1
    mode: str | None = None
    master_seed: int = 0
    n_seeds: int = 1
    q0: float = 0.0
    output_dir: str | None = None
    fpp: int = 32
    qstar_tol: float = 1e-10
    delta: float = 0.05
    sweep: dict = field(default_factory=dict)
    max_runs: int = 512

    def __post_init__(self) -> None:
        for name, types in _FIELD_TYPES.items():
            _check_type(name, getattr(self, name), types)
        for axis, values in self.sweep.items():
            if axis not in _SWEEP_AXES:
                raise ParamOutOfRangeError(f"unknown sweep axis {axis!r}; allowed: {_SWEEP_AXES}")
            if not isinstance(values, (list, tuple)) or not values:
                raise ParamOutOfRangeError(f"sweep axis {axis!r} must be a non-empty list, got {values!r}")
            for value in values:
                _check_type(f"sweep.{axis}", value, _FIELD_TYPES[axis])
        check_count("n_seeds", self.n_seeds, 1)
        check_count("max_runs", self.max_runs, 1)
        check_interval("qstar_tol", self.qstar_tol)
        check_interval("delta", self.delta, 0, 1)

    @staticmethod
    def from_mapping(data: dict) -> "RunManifest":
        if not isinstance(data, dict):
            raise ParamOutOfRangeError(f"manifest must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(_FIELD_TYPES)
        if unknown:
            raise ParamOutOfRangeError(f"unknown manifest keys: {sorted(unknown)}")
        if "map" not in data or "rounds" not in data:
            raise ParamOutOfRangeError("manifest needs at least 'map' and 'rounds'")
        return RunManifest(**data)

    @staticmethod
    def from_file(path: str | Path) -> "RunManifest":
        try:
            data = json.loads(read_text(path, "manifest", ParamOutOfRangeError))
        except json.JSONDecodeError as exc:
            raise ParamOutOfRangeError(f"manifest {path} is not valid JSON: {exc}") from exc
        return RunManifest.from_mapping(data)


# JSON values accepted for each RunManifest field: its annotation's types, and an int for a float.
# Booleans are rejected separately: JSON true/false would otherwise pass as an int.
_FIELD_TYPES = {name: get_args(t) or ((int, float) if t is float else (t,))
                for name, t in get_type_hints(RunManifest).items()}


def _check_type(key: str, value, types: tuple[type, ...]) -> None:
    if isinstance(value, bool) or not isinstance(value, types):
        expected = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ParamOutOfRangeError(f"manifest key {key!r} must be {expected}, got {value!r}")


def _map_name(map_ref: str) -> str:
    return Path(map_ref).stem


def grid_slug(point: RunManifest, seed: int) -> str:
    comp = point.compressor
    comp_part = comp if comp == IDENTITY else f"{comp}{point.k}"
    mode_part = point.mode if point.mode is not None else "auto"
    return (
        f"{_map_name(point.map)}_I{point.agents}_K{point.local_epochs}"
        f"_T{point.rounds}_eta{point.eta}_beta{point.beta}"
        f"_{comp_part}_{mode_part}_seed{seed}"
    )


def expand_grid(manifest: RunManifest) -> list[RunManifest]:
    """One single-point manifest (no sweep) per distinct point of the sweep grid.

    Each point is the manifest with its swept fields replaced, in the
    Cartesian product order of the axes.  The identity compressor ignores
    the budget axis, so its points get k = 0 and points that only differ
    in k collapse to one run.  A grid is rejected as soon as its distinct
    points so far times ``n_seeds`` exceed ``max_runs``, so neither the rest
    of the product nor any point manifest is built.
    """
    names = [ax for ax in _SWEEP_AXES if ax in manifest.sweep]
    combos = {}
    for values in itertools.product(*(manifest.sweep[n] for n in names)):
        combo = dict(zip(names, values))
        if combo.get("compressor", manifest.compressor) == IDENTITY:
            combo["k"] = 0
        combos.setdefault(tuple(combo.items()), combo)
        if len(combos) * manifest.n_seeds > manifest.max_runs:
            raise ParamOutOfRangeError(
                f"sweep expands to more than {manifest.max_runs} runs, the safety cap (max_runs)"
            )
    return [replace(manifest, sweep={}, **combo) for combo in combos.values()]


def output_root(directory: str | Path | None = None) -> Path:
    """``directory`` if given, else $FEDQ_OUTPUT_ROOT, else ``./runs``."""
    if directory:
        return Path(directory)
    env = os.environ.get(OUTPUT_ROOT_ENV)
    return Path(env) if env else Path("runs")


def _make_dir(path: Path) -> Path:
    """``path``, created with its parents; one that cannot be created raises ParamOutOfRangeError naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, a path under one, no permission
        raise ParamOutOfRangeError(f"cannot create output directory {path}: {exc.strerror}") from exc
    return path


def load_environment(manifest: RunManifest) -> TabularMDP:
    grid = load_map(manifest.map)
    noise = NoiseSpec(std=manifest.noise_std, clip=manifest.noise_clip)
    return build_gridworld(grid, noise=noise, gamma=manifest.gamma)


# ---------------------------------------------------------------------------
# Fixed-point oracle


def compute_qstar(map_ref: str, gamma: float, tol: float, out_dir: str | Path) -> tuple[Path, Path]:
    """Solve the map's fixed-point oracle and write it and its greedy policy as CSV files.

    The map is read and solved before ``out_dir`` is created, so bad input
    writes nothing.
    """
    q_star = value_iteration(build_gridworld(load_map(map_ref), gamma=gamma), tol=tol)
    out_dir = _make_dir(Path(out_dir))
    name = _map_name(map_ref)
    q_path = out_dir / f"{name}_qstar.csv"
    p_path = out_dir / f"{name}_policy.csv"
    states, actions = np.indices(q_star.shape).reshape(2, -1).tolist()
    _write_csv(q_path, "state,action,q", _cells((states, actions, q_star.ravel().tolist())))
    _write_csv(p_path, "state,action", _cells((range(len(q_star)), greedy_policy(q_star).tolist())))
    return q_path, p_path


# ---------------------------------------------------------------------------
# CSV emission


def _cells(columns) -> list[list[str]]:
    """Each column's values as their ``repr``s: a CSV's cells, formatted once per value."""
    return [list(map(repr, column)) for column in columns]


def _write_csv(path: Path, header: str, cells: list[list[str]]) -> None:
    """Write ``header``, then line i joining cell i of each column of ``cells``, as :func:`_cells` makes them."""
    path.write_text("\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def write_trace_csv(path: Path, metrics: list[RoundMetrics]) -> None:
    _write_csv(path, TRACE_HEADER, _cells(zip(*metrics)))


def read_trace_csv(path: str | Path) -> list[RoundMetrics]:
    """Parse a trace CSV; a file without the trace layout raises FileFormatError naming the path."""
    lines = read_text(path, "trace", FileFormatError).removesuffix("\n").split("\n")
    header = lines[0].strip()
    if header != TRACE_HEADER:
        raise FileFormatError(f"{path}: trace header must be {TRACE_HEADER!r}, got {header!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.strip().split(",")
        if len(cells) != len(_TRACE_PARSERS):
            raise FileFormatError(
                f"{path}:{lineno}: trace row needs {len(_TRACE_PARSERS)} fields, got {len(cells)}"
            )
        try:
            rows.append(RoundMetrics(*(parse(c) for parse, c in zip(_TRACE_PARSERS, cells))))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: trace row is not numeric: {exc}") from exc
    return rows


def _overlay_bound(
    config: ExperimentConfig, delta: float, mdp: TabularMDP, result: RunResult
) -> list[float] | None:
    """The run's bound after each of its rounds 1 to T; None where no bound applies.

    A run is analyzed when its kind is the identity or its mode is the
    kind's ``DEFAULT_MODE``.  The mode picks the evaluator and the kind the
    compressor constants: the ``BoundParams`` defaults for the identity,
    the run's smallest alpha for top_k and the constants of its smallest
    selection probability for sparsified_k; a run that realized no such
    constant, or an alpha of 0, gets None.  The initial gap is the trace's
    round-0 sup-norm error.  The whole curve is one evaluator call, which
    computes the terms that do not depend on the round once.
    """
    kind = config.compressor.kind
    if kind != IDENTITY and config.mode != DEFAULT_MODE[kind]:
        return None
    constants = {}
    if kind == TOP_K:
        if result.alpha_min is None or result.alpha_min <= 0:
            return None
        constants = dict(alpha=result.alpha_min)
    elif kind == SPARSIFIED_K:
        if result.p_support_min is None:
            return None
        q2, q_inf = unbiased_constants([result.p_support_min])
        constants = dict(q2=q2, q_inf=q_inf)
    params = BoundParams(
        beta=config.beta,
        eta=config.eta,
        gamma=config.gamma,
        local_epochs=config.local_epochs,
        rounds=config.rounds,
        n_agents=config.n_agents,
        delta=delta,
        n_states=mdp.n_states,
        n_actions=mdp.n_actions,
        q0_gap=result.columns.linf_error[0],
        **constants,
    )
    curve = direct_bound_curve if config.mode == DIRECT else error_feedback_bound_curve
    return curve(params)


def write_overlay_csv(path: Path, cells: RoundMetrics, bounds: list[float] | None) -> None:
    """Per round t, the trace ``cells``' round and linf_error, and the bound at t (NaN if ``bounds`` is None)."""
    bound_cells = list(map(repr, bounds)) if bounds else ["nan"] * (len(cells.round) - 1)
    _write_csv(path, "round,empirical_linf,theory_bound", [cells.round[1:], cells.linf_error[1:], bound_cells])


def write_agg_csv(path: Path, results: list[RunResult], cells: list[RoundMetrics]) -> None:
    """Across-seed band: per round, the seeds' mean, min and max RMSE and their mean cumulative bits.

    A mean is Python's left-to-right ``sum`` / n.  The min and max are the ``cells`` (each seed's
    :class:`RoundMetrics` of cells) of the seeds that Python's ``min`` and ``max`` pick.
    """
    seeds = range(len(results))
    rmses = list(zip(*(result.columns.rmse for result in results)))
    low, high = ([pick(seeds, key=row.__getitem__) for row in rmses] for pick in (min, max))
    band = [cells[0].round, [repr(sum(row) / len(row)) for row in rmses],
            [cells[s].rmse[t] for t, s in enumerate(low)], [cells[s].rmse[t] for t, s in enumerate(high)],
            [repr(sum(row) / len(row)) for row in zip(*(result.columns.bits_cumulative for result in results))]]
    _write_csv(path, "round,rmse_mean,rmse_min,rmse_max,bits_cumulative_mean", band)


def _config_for(point: RunManifest, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        n_agents=point.agents,
        local_epochs=point.local_epochs,
        rounds=point.rounds,
        eta=point.eta,
        beta=point.beta,
        gamma=point.gamma,
        compressor=CompressorSpec(point.compressor, point.k, point.probability_rule),
        mode=point.mode,
        master_seed=seed,
        q0=point.q0,
        fpp=point.fpp,
    )


def _write_run(point: RunManifest, config: ExperimentConfig, result: RunResult, cells: RoundMetrics,
               mdp: TabularMDP, out_dir: Path) -> Path:
    """Write one run's trace (its ``cells``), overlay and summary; on failure remove whichever of them exist."""
    seed = config.master_seed
    slug = grid_slug(point, seed)
    trace_path = out_dir / f"{slug}.csv"
    summary_path = out_dir / f"{slug}_summary.json"
    overlay_path = out_dir / f"{slug}_overlay.csv"
    try:
        _write_csv(trace_path, TRACE_HEADER, cells)
        write_overlay_csv(overlay_path, cells, _overlay_bound(config, point.delta, mdp, result))
        summary = {
            "slug": slug,
            "map": point.map,
            "config": {
                **{name: getattr(point, name) for name in _SUMMARY_FIELDS},
                "master_seed": seed,
            },
            "final_rmse": result.columns.rmse[-1],
            "final_linf_error": result.columns.linf_error[-1],
            "total_bits_per_agent": result.columns.bits_cumulative[-1],
            "payload_entries_total": sum(result.columns.payload_entries),
            "runtime_seconds": result.seconds,
        }
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except BaseException:
        for p in (trace_path, summary_path, overlay_path):
            p.unlink(missing_ok=True)
        raise
    return trace_path


def run_experiment(manifest: RunManifest) -> list[Path]:
    """Run every grid point's seeds and return the written trace paths, then the agg paths.

    The configs of every point and seed are built, the map is loaded and
    its oracle solved, and the whole manifest runs as one
    :func:`~fedq.engine.run_federated_batch` call, which checks every
    config before it computes anything and decides which runs share a
    batch; only then is the output directory created, so bad input writes
    nothing.  Every result is held until that call returns, at most
    ``max_runs`` of them.  Each run writes its own files, whose content
    (all but ``runtime_seconds``, its batch's wall time divided by the
    batch's number of runs) is a pure function of the manifest, so a rerun
    rewrites the same bytes.
    """
    points = expand_grid(manifest)
    n_seeds = manifest.n_seeds
    configs = [_config_for(point, manifest.master_seed + rep) for point in points for rep in range(n_seeds)]
    mdp = load_environment(manifest)
    q_star = value_iteration(mdp, tol=manifest.qstar_tol)
    results = run_federated_batch(configs, mdp, q_star)
    out_dir = _make_dir(output_root(manifest.output_dir))

    traces, aggs = [], []
    for j, point in enumerate(points):
        runs = slice(j * n_seeds, (j + 1) * n_seeds)
        cells = [RoundMetrics._make(_cells(result.columns)) for result in results[runs]]
        traces.extend(_write_run(point, config, result, run_cells, mdp, out_dir)
                      for config, result, run_cells in zip(configs[runs], results[runs], cells))
        if n_seeds > 1:
            base = grid_slug(point, manifest.master_seed).rsplit("_seed", 1)[0]
            agg_path = out_dir / f"{base}_agg.csv"
            write_agg_csv(agg_path, results[runs], cells)
            aggs.append(agg_path)
    return traces + aggs
