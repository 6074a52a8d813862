"""Federated synchronous Q-learning on tabular grid-worlds with
compressed, periodically aggregated updates.

Layout:

* :mod:`fedq.grids` / :mod:`fedq.mdp` -- maps, maze MDPs, generative-model sampling
* :mod:`fedq.bellman` -- exact/empirical Bellman operators, fixed-point solver, metrics
* :mod:`fedq.compression` -- top-k and random sparsification, error feedback
* :mod:`fedq.engine` -- the federated training loop and its metrics trace
* :mod:`fedq.bounds` -- convergence-bound evaluators and payload bit accounting
* :mod:`fedq.harness` / :mod:`fedq.cli` -- manifests, sweeps, CSV/JSON emission
"""
from .bellman import (
    empirical_bellman,
    exact_bellman,
    greedy_policy,
    linf_error,
    rmse,
    value_iteration,
)
from .bounds import BoundParams, payload_bits, decay_factor, direct_bound, error_feedback_bound
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
)
from .grids import BUNDLED_MAPS, GridSpec, build_gridworld, load_map, map_path, parse_map
from .harness import RunManifest, compute_qstar, run_experiment
from .mdp import NoiseSpec, TabularMDP, synchronous_sample
from .rng import RngStream

__version__ = "0.1.0"

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
    "run_experiment",
    "selection_probabilities",
    "sparsified_k",
    "synchronous_sample",
    "direct_bound",
    "error_feedback_bound",
    "top_k",
    "unbiased_constants",
    "value_iteration",
]
