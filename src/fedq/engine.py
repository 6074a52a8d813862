"""The federated synchronous Q-learning loop with compressed uploads.

One communication round: the server broadcasts the global table; every
agent runs K local epochs of damped empirical-Bellman updates on its own
sample streams; each agent uploads a compressed version of its progress
(its final local table minus the broadcast), either directly or through
an error-feedback residual; the server adds ``beta / I`` times the summed
payloads back onto the global table.

Everything is deterministic given the master seed: sampling streams are
derived per (agent, round, epoch), the compressor stream per
(agent, round, K), and the server sums payloads in ascending agent
order, so no scheduling of the per-agent work can change the result.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bellman import empirical_bellman, linf_error, rmse
from .bounds import BitModel, payload_bits
from .compression import (
    IDENTITY,
    SPARSIFIED_K,
    TOP_K,
    CompressorSpec,
    EfState,
    SparseVector,
    contraction_alpha,
    direct_compress,
    ef_compress,
    selection_probabilities,
)
from .errors import (
    DimensionMismatchError,
    EmptyAgentListError,
    ParamOutOfRangeError,
    ShapeMismatchError,
)
from .mdp import TabularMDP, synchronous_sample
from .rng import RngStream

DIRECT = "direct"
ERROR_FEEDBACK = "error_feedback"
MODES = (DIRECT, ERROR_FEEDBACK)

# Default operator/mode pairing: the unbiased operators upload directly,
# the biased one goes through error feedback.  Any pairing can be forced
# explicitly for ablations.
_DEFAULT_MODE = {IDENTITY: DIRECT, SPARSIFIED_K: DIRECT, TOP_K: ERROR_FEEDBACK}


@dataclass(frozen=True)
class ExperimentConfig:
    """All hyperparameters of one federated run."""

    n_agents: int
    local_epochs: int
    rounds: int
    eta: float  # local learning rate in (0, 1]
    beta: float  # server step size in (0, 1]
    gamma: float  # discount factor in (0, 1)
    compressor: CompressorSpec = CompressorSpec()
    mode: str | None = None  # None = pair by compressor kind
    master_seed: int = 0
    q0: float = 0.0  # constant initial Q value; 0.0 = zero table

    def __post_init__(self) -> None:
        if self.n_agents < 1 or self.local_epochs < 1 or self.rounds < 1:
            raise ParamOutOfRangeError("n_agents, local_epochs and rounds must be >= 1")
        if not 0.0 < self.eta <= 1.0:
            raise ParamOutOfRangeError(f"eta must lie in (0, 1], got {self.eta}")
        if not 0.0 < self.beta <= 1.0:
            raise ParamOutOfRangeError(f"beta must lie in (0, 1], got {self.beta}")
        if not 0.0 < self.gamma < 1.0:
            raise ParamOutOfRangeError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.mode is not None and self.mode not in MODES:
            raise ParamOutOfRangeError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.master_seed < 0:
            raise ParamOutOfRangeError("master_seed must be non-negative")

    def resolved_mode(self) -> str:
        return self.mode if self.mode is not None else _DEFAULT_MODE[self.compressor.kind]

    def check_against(self, mdp: TabularMDP) -> None:
        """Check the ranges that depend on the MDP: gamma, |q0| and the budget k."""
        if self.gamma != mdp.gamma:
            raise ParamOutOfRangeError(
                f"config gamma {self.gamma} differs from MDP gamma {mdp.gamma}"
            )
        q0_bound = mdp.r_max / (1.0 - self.gamma)
        if abs(self.q0) > q0_bound:
            raise ParamOutOfRangeError(
                f"|q0| must be <= r_max/(1-gamma) = {q0_bound}, got {self.q0}"
            )
        if self.compressor.kind != IDENTITY and self.compressor.k > mdp.table_size:
            raise ParamOutOfRangeError(
                f"budget k={self.compressor.k} exceeds the table size d={mdp.table_size}"
            )


@dataclass(frozen=True)
class RoundMetrics:
    """One trace row; field names match the trace CSV columns.

    ``bits_round``/``bits_cumulative`` are per-agent payload bits,
    averaged over agents (agents differ only under random
    sparsification).  ``payload_entries`` counts stored (index, value)
    pairs summed over agents.  Row 0 describes the initial table before
    any communication.
    """

    round: int
    rmse: float
    linf_error: float
    bits_round: float
    bits_cumulative: float
    payload_entries: int


@dataclass
class RunResult:
    metrics: list[RoundMetrics]
    q_final: np.ndarray
    alpha_min: float | None = None  # smallest realized top_k contraction factor
    p_support_min: float | None = None  # smallest realized selection probability
    q_tables: list[np.ndarray] | None = None  # per-round global tables, if recorded


def local_epoch(q: np.ndarray, mdp: TabularMDP, eta: float, rng) -> np.ndarray:
    """One damped empirical-Bellman update of the whole table.

    Draws one synchronous sample table and applies
    ``q' = (1 - eta) q + eta (rewards + gamma * max_a' q[next, a'])``
    to every entry simultaneously; the max reads the pre-update table.
    """
    if not 0.0 < eta <= 1.0:
        raise ParamOutOfRangeError(f"eta must lie in (0, 1], got {eta}")
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (mdp.n_states, mdp.n_actions):
        raise ShapeMismatchError(f"Q shape {q.shape} does not match the MDP")
    next_states, rewards = synchronous_sample(mdp, rng)
    target = empirical_bellman(q, next_states, rewards, mdp.gamma)
    return (1.0 - eta) * q + eta * target


def run_local_phase(
    q_bar: np.ndarray, mdp: TabularMDP, eta: float, n_epochs: int, stream: RngStream
) -> np.ndarray:
    """K sequential local epochs starting from the broadcast table.

    Epoch k consumes the sub-stream ``stream.child(k)``.
    """
    if n_epochs < 1:
        raise ParamOutOfRangeError("n_epochs must be >= 1")
    q = q_bar
    for k in range(n_epochs):
        q = local_epoch(q, mdp, eta, stream.child(k).generator())
    return q


def aggregate(q_bar: np.ndarray, h_list: list[SparseVector], beta: float) -> np.ndarray:
    """Server update: add ``beta / I`` times the summed payloads.

    Payloads are summed densified in ascending agent order so the
    floating-point result is independent of how the agents were
    scheduled.
    """
    if not h_list:
        raise EmptyAgentListError("aggregate needs at least one payload")
    if not 0.0 < beta <= 1.0:
        raise ParamOutOfRangeError(f"beta must lie in (0, 1], got {beta}")
    q_bar = np.asarray(q_bar, dtype=np.float64)
    d = q_bar.size
    acc = np.zeros(d)
    for h in h_list:
        if h.dimension != d:
            raise DimensionMismatchError(f"payload dimension {h.dimension} != table size {d}")
        acc += h.densify()
    return q_bar + (beta / len(h_list)) * acc.reshape(q_bar.shape)


def run_federated(
    config: ExperimentConfig,
    mdp: TabularMDP,
    q_star: np.ndarray,
    bit_model: BitModel | None = None,
    record_tables: bool = False,
) -> RunResult:
    """Run the full compressed federated loop and trace per-round metrics.

    ``q_star`` is the oracle fixed point used for the error columns.
    The trace has rounds + 1 rows: row 0 scores the initial table with
    zero communication, row t >= 1 the table after the t-th aggregation.
    With ``record_tables`` the result also carries every global table,
    for equivalence checks against reference recursions.
    """
    if q_star.shape != (mdp.n_states, mdp.n_actions):
        raise ShapeMismatchError("q_star shape does not match the MDP")
    config.check_against(mdp)

    bm = bit_model if bit_model is not None else BitModel()
    spec = config.compressor
    mode = config.resolved_mode()
    n_agents = config.n_agents
    d = mdp.table_size
    root = RngStream(config.master_seed)

    q_bar = np.full((mdp.n_states, mdp.n_actions), float(config.q0))
    ef_states = (
        [EfState.zeros(d) for _ in range(n_agents)] if mode == ERROR_FEEDBACK else None
    )

    alpha_min: float | None = None
    p_support_min: float | None = None
    cumulative_bits = 0.0
    q_tables: list[np.ndarray] | None = [q_bar.copy()] if record_tables else None
    metrics = [
        RoundMetrics(
            round=0,
            rmse=rmse(q_bar, q_star),
            linf_error=linf_error(q_bar, q_star),
            bits_round=0.0,
            bits_cumulative=0.0,
            payload_entries=0,
        )
    ]

    for t in range(config.rounds):
        h_list: list[SparseVector] = []
        for i in range(n_agents):
            q_local = run_local_phase(q_bar, mdp, config.eta, config.local_epochs, root.child(i, t))
            delta = (q_local - q_bar).ravel()
            # only random compressors consume a stream; its path is pinned to
            # (agent, round, K) either way
            comp_rng = (
                root.child(i, t, config.local_epochs).generator()
                if spec.kind == SPARSIFIED_K
                else None
            )

            pending = delta + ef_states[i].e if mode == ERROR_FEEDBACK else delta
            if spec.kind == TOP_K and np.any(pending):
                a = contraction_alpha(pending, spec.k)
                alpha_min = a if alpha_min is None else min(alpha_min, a)
            elif spec.kind == SPARSIFIED_K:
                p = selection_probabilities(pending, spec.k, spec.probability_rule)
                on_support = p[p > 0]
                if on_support.size:
                    pm = float(on_support.min())
                    p_support_min = pm if p_support_min is None else min(p_support_min, pm)

            if mode == ERROR_FEEDBACK:
                h, ef_states[i] = ef_compress(ef_states[i], delta, spec, comp_rng)
            else:
                h = direct_compress(delta, spec, comp_rng)
            h_list.append(h)

        q_bar = aggregate(q_bar, h_list, config.beta)
        if q_tables is not None:
            q_tables.append(q_bar.copy())

        bits_each = [payload_bits(spec.kind, d, len(h), bm) for h in h_list]
        bits_round = float(sum(bits_each)) / n_agents
        cumulative_bits += bits_round
        metrics.append(
            RoundMetrics(
                round=t + 1,
                rmse=rmse(q_bar, q_star),
                linf_error=linf_error(q_bar, q_star),
                bits_round=bits_round,
                bits_cumulative=cumulative_bits,
                payload_entries=int(sum(len(h) for h in h_list)),
            )
        )

    return RunResult(
        metrics=metrics,
        q_final=q_bar,
        alpha_min=alpha_min,
        p_support_min=p_support_min,
        q_tables=q_tables,
    )
