"""Federated synchronous Q-learning on tabular grid-worlds with
compressed, periodically aggregated updates.

Layout:

* :mod:`fedq.grids` / :mod:`fedq.mdp` -- maps, maze MDPs, generative-model sampling
* :mod:`fedq.bellman` -- exact/empirical Bellman operators, fixed-point solver, metrics
* :mod:`fedq.compression` -- top-k and random sparsification, error feedback
* :mod:`fedq.engine` -- the federated training loop and its metrics trace
* :mod:`fedq.bounds` -- convergence-bound evaluators and payload bit accounting
* :mod:`fedq.harness` / :mod:`fedq.cli` -- manifests, sweeps, CSV/JSON emission;
  the harness loads on first use, so ``import fedq`` loads no harness, CLI or ``json``
"""
import importlib

from .bellman import (
    empirical_bellman,
    exact_bellman,
    greedy_policy,
    linf_error,
    rmse,
    value_iteration,
)
from .bounds import (BoundParams, decay_factor, direct_bound, direct_bound_curve, error_feedback_bound,
                     error_feedback_bound_curve, payload_bits)
from .compression import (
    CompressorSpec,
    EfState,
    SparseVector,
    contraction_alpha,
    direct_compress,
    ef_compress,
    selection_probabilities,
    sparsified_k,
    top_k,
    unbiased_constants,
)
from .engine import (
    DIRECT,
    ERROR_FEEDBACK,
    ExperimentConfig,
    RoundMetrics,
    RunResult,
    run_federated,
    run_federated_batch,
)
from .grids import BUNDLED_MAPS, GridSpec, build_gridworld, load_map, map_path, parse_map
from .mdp import NoiseSpec, TabularMDP, synchronous_sample
from .rng import RngStream

__version__ = "0.1.0"
_LAZY = {"harness", "RunManifest", "compute_qstar", "run_experiment"}  # names the harness's first use loads


def __getattr__(name: str):
    # import_module, not `from . import harness`: that form's hasattr(fedq, "harness") re-enters this hook
    if name in _LAZY:
        harness = importlib.import_module(".harness", __name__)
        return harness if name == "harness" else getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY)  # lists the lazy names without loading the harness


__all__ = [
    "BUNDLED_MAPS",
    "BoundParams",
    "CompressorSpec",
    "DIRECT",
    "ERROR_FEEDBACK",
    "EfState",
    "ExperimentConfig",
    "GridSpec",
    "NoiseSpec",
    "RngStream",
    "RoundMetrics",
    "RunManifest",
    "RunResult",
    "SparseVector",
    "TabularMDP",
    "build_gridworld",
    "compute_qstar",
    "contraction_alpha",
    "direct_compress",
    "ef_compress",
    "empirical_bellman",
    "exact_bellman",
    "greedy_policy",
    "linf_error",
    "load_map",
    "map_path",
    "parse_map",
    "payload_bits",
    "decay_factor",
    "rmse",
    "run_federated",
    "run_federated_batch",
    "run_experiment",
    "selection_probabilities",
    "sparsified_k",
    "synchronous_sample",
    "direct_bound",
    "direct_bound_curve",
    "error_feedback_bound",
    "error_feedback_bound_curve",
    "top_k",
    "unbiased_constants",
    "value_iteration",
]
