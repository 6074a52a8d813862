"""Experiment orchestration: manifests, sweeps, and trace emission.

A manifest (JSON) pins one experiment family: the map, the environment
parameters, the federated hyperparameters, optional sweep axes, and the
number of seeded repetitions.  Running it produces, per grid point and
seed:

* ``<slug>.csv``          trace with header
  ``round,rmse,linf_error,bits_round,bits_cumulative,payload_entries``
* ``<slug>_summary.json`` final metrics plus wall time
* ``<slug>_overlay.csv``  ``round,empirical_linf,theory_bound``

plus one ``<base>_agg.csv`` per grid point with the across-seed band.
Identical manifests rewrite byte-identical CSVs, regardless of how many
worker threads execute the grid.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .bellman import greedy_policy, linf_error, value_iteration, write_policy_csv, write_qtable_csv
from .bounds import BitModel, BoundParams, direct_bound, error_feedback_bound
from .compression import IDENTITY, RULE_L1, SPARSIFIED_K, TOP_K, CompressorSpec, unbiased_constants
from .engine import DIRECT, ExperimentConfig, RoundMetrics, RunResult, run_federated
from .errors import FileFormatError, ParamOutOfRangeError
from .grids import N_ACTIONS, build_gridworld, load_map, parse_map, read_map_text
from .mdp import NoiseSpec, TabularMDP

OUTPUT_ROOT_ENV = "FEDQ_OUTPUT_ROOT"

_SWEEP_AXES = ("eta", "beta", "agents", "local_epochs", "k", "compressor", "mode")

# JSON values accepted for each RunManifest field annotation.  Booleans are
# rejected separately: JSON true/false would otherwise pass as an int.
_JSON_TYPES = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "str | None": (str, type(None)),
    "dict": (dict,),
}

QSTAR_CACHE_FORMAT = "qstar_v1"
TRACE_HEADER = "round,rmse,linf_error,bits_round,bits_cumulative,payload_entries"


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
        if self.n_seeds < 1:
            raise ParamOutOfRangeError("n_seeds must be >= 1")
        if self.qstar_tol <= 0:
            raise ParamOutOfRangeError("qstar_tol must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ParamOutOfRangeError(f"delta must lie in (0, 1), got {self.delta}")

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
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise ParamOutOfRangeError(f"cannot read manifest {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ParamOutOfRangeError(f"manifest {path} is not UTF-8 text") from exc
        return RunManifest.from_mapping(data)


_FIELD_TYPES = {f.name: _JSON_TYPES[f.type] for f in fields(RunManifest)}


def _check_type(key: str, value, types: tuple[type, ...]) -> None:
    if isinstance(value, bool) or not isinstance(value, types):
        expected = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ParamOutOfRangeError(f"manifest key {key!r} must be {expected}, got {value!r}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _map_name(map_ref: str) -> str:
    return Path(map_ref).stem


def grid_slug(manifest: RunManifest, point: dict, seed: int) -> str:
    comp = point["compressor"]
    comp_part = comp if comp == IDENTITY else f"{comp}{point['k']}"
    mode = point["mode"]
    mode_part = mode if mode is not None else "auto"
    return (
        f"{_map_name(manifest.map)}_I{point['agents']}_K{point['local_epochs']}"
        f"_T{manifest.rounds}_eta{_fmt(point['eta'])}_beta{_fmt(point['beta'])}"
        f"_{comp_part}_{mode_part}_seed{seed}"
    )


def expand_grid(manifest: RunManifest) -> list[dict]:
    """Cartesian product of the sweep axes over the manifest's defaults.

    The identity compressor ignores the budget axis, so points that only
    differ in k collapse to one run.
    """
    base = {
        "eta": manifest.eta,
        "beta": manifest.beta,
        "agents": manifest.agents,
        "local_epochs": manifest.local_epochs,
        "k": manifest.k,
        "compressor": manifest.compressor,
        "mode": manifest.mode,
    }
    axes = {ax: list(vals) for ax, vals in manifest.sweep.items()}
    names = [ax for ax in _SWEEP_AXES if ax in axes]
    points = []
    seen = set()
    for combo in itertools.product(*(axes[n] for n in names)) if names else [()]:
        point = dict(base)
        point.update(dict(zip(names, combo)))
        if point["compressor"] == IDENTITY:
            point["k"] = 0
        key = tuple(point[ax] for ax in _SWEEP_AXES)
        if key not in seen:
            seen.add(key)
            points.append(point)
    return points


def output_root(manifest: RunManifest) -> Path:
    if manifest.output_dir:
        return Path(manifest.output_dir)
    env = os.environ.get(OUTPUT_ROOT_ENV)
    return Path(env) if env else Path("runs")


def load_environment(manifest: RunManifest) -> TabularMDP:
    grid = load_map(manifest.map)
    noise = NoiseSpec(std=manifest.noise_std, clip=manifest.noise_clip)
    return build_gridworld(grid, noise=noise, gamma=manifest.gamma)


# ---------------------------------------------------------------------------
# Fixed-point oracle cache


def _atomic_save(path: Path, array: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, array)
        os.replace(tmp, path)  # atomic: concurrent writers race harmlessly
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_qstar(path: Path, shape: tuple[int, int]) -> np.ndarray:
    try:
        q_star = np.load(path)
    except (ValueError, EOFError) as exc:
        raise FileFormatError(f"q* cache file {path} is not a readable .npy array: {exc}") from exc
    if q_star.shape != shape or q_star.dtype != np.float64:
        raise FileFormatError(
            f"q* cache file {path} holds a {q_star.dtype} array of shape {q_star.shape}; "
            f"the map needs float64 of shape {shape}"
        )
    return q_star


def cached_qstar(map_ref: str, gamma: float, tol: float, cache_dir: Path) -> np.ndarray:
    """Fixed point of the exact operator, cached by (format, map hash, gamma, tol)."""
    if tol <= 0:
        raise ParamOutOfRangeError("tol must be positive")
    text = read_map_text(map_ref)
    grid = parse_map(text)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    key = f"{QSTAR_CACHE_FORMAT}_{digest}_g{repr(float(gamma))}_t{repr(float(tol))}.npy"
    path = cache_dir / key
    if path.exists():
        return _load_qstar(path, (grid.n_states, N_ACTIONS))
    q_star = value_iteration(build_gridworld(grid, gamma=gamma), tol=tol)
    _atomic_save(path, q_star)
    return q_star


def compute_qstar(map_ref: str, gamma: float, tol: float, out_dir: str | Path) -> tuple[Path, Path]:
    """Write the oracle Q-table and its greedy policy as CSV files."""
    out_dir = Path(out_dir)
    q_star = cached_qstar(map_ref, gamma, tol, out_dir / "qstar_cache")  # creates out_dir
    name = _map_name(map_ref)
    q_path = out_dir / f"{name}_qstar.csv"
    p_path = out_dir / f"{name}_policy.csv"
    write_qtable_csv(q_path, q_star)
    write_policy_csv(p_path, greedy_policy(q_star))
    return q_path, p_path


# ---------------------------------------------------------------------------
# Trace emission


def write_trace_csv(path: Path, metrics: list[RoundMetrics]) -> None:
    lines = [TRACE_HEADER]
    for m in metrics:
        lines.append(
            f"{m.round},{repr(m.rmse)},{repr(m.linf_error)},"
            f"{repr(m.bits_round)},{repr(m.bits_cumulative)},{m.payload_entries}"
        )
    path.write_text("\n".join(lines) + "\n")


def read_trace_csv(path: str | Path) -> list[RoundMetrics]:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise FileFormatError(f"{path}: trace header must be {TRACE_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if len(cells) != 6:
                raise FileFormatError(f"{path}:{lineno}: trace row needs 6 fields, got {len(cells)}")
            r, rm, li, br, bc, pe = cells
            rows.append(RoundMetrics(int(r), float(rm), float(li), float(br), float(bc), int(pe)))
    return rows


def _bound_params_for(
    config: ExperimentConfig, delta: float, mdp: TabularMDP, result: RunResult, q0_gap: float, rounds: int
) -> tuple[str, BoundParams] | None:
    """Pick the applicable bound for the run's operator/mode pairing.

    Returns None for pairings outside the analyzed ones (e.g. direct
    top_k), in which case the overlay carries NaNs.
    """
    common = dict(
        beta=config.beta,
        eta=config.eta,
        gamma=config.gamma,
        local_epochs=config.local_epochs,
        rounds=rounds,
        n_agents=config.n_agents,
        delta=delta,
        n_states=mdp.n_states,
        n_actions=mdp.n_actions,
        q0_gap=q0_gap,
    )
    kind = config.compressor.kind
    if config.resolved_mode() == DIRECT:
        if kind == IDENTITY:
            return "direct", BoundParams(**common, q2=0.0, q_inf=0.0)
        if kind == SPARSIFIED_K:
            if result.p_support_min is None:
                return None
            q2, q_inf = unbiased_constants([result.p_support_min])
            return "direct", BoundParams(**common, q2=q2, q_inf=q_inf)
        return None
    if kind == IDENTITY:
        return "error_feedback", BoundParams(**common, alpha=1.0)
    if kind == TOP_K:
        alpha = result.alpha_min
        if alpha is None or alpha <= 0:
            return None
        return "error_feedback", BoundParams(**common, alpha=alpha)
    return None


def write_overlay_csv(
    path: Path,
    config: ExperimentConfig,
    delta: float,
    mdp: TabularMDP,
    result: RunResult,
    q0_gap: float,
) -> None:
    lines = ["round,empirical_linf,theory_bound"]
    evaluator = {"direct": direct_bound, "error_feedback": error_feedback_bound}
    for m in result.metrics[1:]:
        picked = _bound_params_for(config, delta, mdp, result, q0_gap, m.round)
        if picked is None:
            bound = float("nan")
        else:
            which, params = picked
            bound = evaluator[which](params)
        lines.append(f"{m.round},{repr(m.linf_error)},{repr(bound)}")
    path.write_text("\n".join(lines) + "\n")


def write_agg_csv(path: Path, traces: list[list[RoundMetrics]]) -> None:
    """Across-seed band: per-round mean/min/max RMSE and mean bits."""
    lines = ["round,rmse_mean,rmse_min,rmse_max,bits_cumulative_mean"]
    for rows in zip(*traces):
        rmses = [r.rmse for r in rows]
        bits = [r.bits_cumulative for r in rows]
        lines.append(
            f"{rows[0].round},{repr(sum(rmses) / len(rmses))},{repr(min(rmses))},"
            f"{repr(max(rmses))},{repr(sum(bits) / len(bits))}"
        )
    path.write_text("\n".join(lines) + "\n")


def _config_for(manifest: RunManifest, point: dict, seed: int) -> ExperimentConfig:
    kind = point["compressor"]
    spec = CompressorSpec(
        kind=kind,
        k=point["k"] if kind != IDENTITY else 0,
        probability_rule=manifest.probability_rule,
    )
    return ExperimentConfig(
        n_agents=point["agents"],
        local_epochs=point["local_epochs"],
        rounds=manifest.rounds,
        eta=point["eta"],
        beta=point["beta"],
        gamma=manifest.gamma,
        compressor=spec,
        mode=point["mode"],
        master_seed=seed,
        q0=manifest.q0,
    )


def _execute_task(
    manifest: RunManifest,
    point: dict,
    config: ExperimentConfig,
    mdp: TabularMDP,
    q_star: np.ndarray,
    out_dir: Path,
    bit_model: BitModel,
) -> tuple[Path, list[RoundMetrics]]:
    seed = config.master_seed
    slug = grid_slug(manifest, point, seed)
    trace_path = out_dir / f"{slug}.csv"
    summary_path = out_dir / f"{slug}_summary.json"
    overlay_path = out_dir / f"{slug}_overlay.csv"
    started = time.perf_counter()
    result = run_federated(config, mdp, q_star, bit_model=bit_model)
    elapsed = time.perf_counter() - started
    q0_gap = linf_error(np.full(q_star.shape, manifest.q0), q_star)
    try:
        write_trace_csv(trace_path, result.metrics)
        write_overlay_csv(overlay_path, config, manifest.delta, mdp, result, q0_gap)
        last = result.metrics[-1]
        summary = {
            "slug": slug,
            "map": manifest.map,
            "config": {
                "agents": point["agents"],
                "local_epochs": point["local_epochs"],
                "rounds": manifest.rounds,
                "eta": point["eta"],
                "beta": point["beta"],
                "gamma": manifest.gamma,
                "compressor": point["compressor"],
                "k": point["k"],
                "mode": point["mode"],
                "master_seed": seed,
                "noise_std": manifest.noise_std,
                "noise_clip": manifest.noise_clip,
            },
            "final_rmse": last.rmse,
            "final_linf_error": last.linf_error,
            "total_bits_per_agent": last.bits_cumulative,
            "payload_entries_total": sum(m.payload_entries for m in result.metrics),
            "runtime_seconds": elapsed,
        }
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except BaseException:
        for p in (trace_path, summary_path, overlay_path):
            p.unlink(missing_ok=True)
        raise
    return trace_path, result.metrics


def run_experiment(manifest: RunManifest, threads: int = 1) -> list[Path]:
    """Run every (grid point, seed) task and return the written trace paths.

    Tasks may execute on a thread pool; each writes its own files and the
    content is a pure function of the manifest, so the thread count can
    never change any output byte.  Every task's parameters are checked,
    and the map is loaded, before anything is written.
    """
    points = expand_grid(manifest)
    n_runs = len(points) * manifest.n_seeds
    if n_runs > manifest.max_runs:
        raise ParamOutOfRangeError(
            f"sweep expands to {n_runs} runs, above the safety cap {manifest.max_runs}"
        )
    tasks = [
        (point, _config_for(manifest, point, manifest.master_seed + rep))
        for point in points
        for rep in range(manifest.n_seeds)
    ]
    bit_model = BitModel(fpp=manifest.fpp)
    mdp = load_environment(manifest)
    for _, config in tasks:
        config.check_against(mdp)
    out_dir = output_root(manifest)
    out_dir.mkdir(parents=True, exist_ok=True)
    q_star = cached_qstar(manifest.map, manifest.gamma, manifest.qstar_tol, out_dir / "qstar_cache")

    args = [(manifest, point, config, mdp, q_star, out_dir, bit_model) for point, config in tasks]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = [f.result() for f in [pool.submit(_execute_task, *a) for a in args]]
    else:
        outcomes = [_execute_task(*a) for a in args]

    written = [path for path, _ in outcomes]
    if manifest.n_seeds > 1:
        per_point = len(tasks) // len(points)
        for idx, point in enumerate(points):
            traces = [outcomes[idx * per_point + r][1] for r in range(per_point)]
            base = grid_slug(manifest, point, manifest.master_seed).rsplit("_seed", 1)[0]
            agg_path = out_dir / f"{base}_agg.csv"
            write_agg_csv(agg_path, traces)
            written.append(agg_path)
    return written
