"""The federated synchronous Q-learning loop with compressed uploads.

One communication round: the server broadcasts the global table; every
agent runs K local epochs of damped empirical-Bellman updates on its own
sample streams; each agent uploads a compressed version of its progress
(its final local table minus the broadcast), either directly or through
an error-feedback residual; the server adds ``beta / I`` times the summed
payloads back onto the global table.

A round is computed for all I agents at once.  Given the broadcast, the
local phases are independent, so the local tables form one (I, S, A)
array: each epoch, every agent draws its own sample table into a row of
a batch, and the Bellman update runs once on the whole batch.  Deltas and
error-feedback residuals are (I, d) arrays compressed in one call, and
the server scatter-adds the transmitted (index, value) pairs without
building a per-agent payload object.

Everything is deterministic given the master seed: sampling streams are
derived per (agent, round, epoch), the compressor stream per
(agent, round, K), and the server adds payloads in ascending agent
order, so the result is the same bits as running the agents one by one,
in any order, and summing their densified payloads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bellman import empirical_bellman, linf_error, rmse
from .bounds import BitModel, payload_bits
from .compression import IDENTITY, SPARSIFIED_K, TOP_K, CompressorSpec, _check_budget, compress_batch
from .errors import ParamOutOfRangeError, ShapeMismatchError
from .mdp import TabularMDP, synchronous_sample_batch
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
        if self.compressor.kind != IDENTITY:
            _check_budget(self.compressor.k, mdp.table_size)


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
    """A run's trace rows, its final global table and its realized compressor constants."""

    metrics: list[RoundMetrics]
    q_final: np.ndarray
    alpha_min: float | None = None  # smallest realized top_k contraction factor
    p_support_min: float | None = None  # smallest realized selection probability


def _epoch(q: np.ndarray, mdp: TabularMDP, eta: float, rngs) -> np.ndarray:
    """One damped empirical-Bellman update of an (I, S, A) batch; row i draws from rngs[i]."""
    next_states, rewards = synchronous_sample_batch(mdp, rngs)
    return (1.0 - eta) * q + eta * empirical_bellman(q, next_states, rewards, mdp.gamma)


def _local_phases(
    q_bar: np.ndarray, mdp: TabularMDP, eta: float, n_epochs: int, root: RngStream, t: int,
    n_agents: int,
) -> np.ndarray:
    """The round-t local phases of n_agents agents from one broadcast: shape (I, S, A).

    Epoch k of agent i draws from ``root.child(i, t, k)``.
    """
    q = np.broadcast_to(q_bar, (n_agents,) + q_bar.shape)
    for k in range(n_epochs):
        q = _epoch(q, mdp, eta, [root.child(i, t, k).generator() for i in range(n_agents)])
    return q


def _server_step(
    q_bar: np.ndarray, indices: np.ndarray, values: np.ndarray, beta: float, n_agents: int
) -> np.ndarray:
    """Add ``beta / I`` times the scatter-added (index, value) pairs onto the table.

    The sum starts from +0.0 and adds the pairs one by one in the order
    given, so pairs listed in ascending agent order give the same bits as
    adding the densified payloads agent by agent: a +0.0 sum can never
    become -0.0, and adding +0.0 for an absent coordinate changes nothing.
    """
    acc = np.zeros(q_bar.size)
    np.add.at(acc, indices, values)
    return q_bar + (beta / n_agents) * acc.reshape(q_bar.shape)


def _running_min(current: float | None, values: np.ndarray) -> float | None:
    if not values.size:
        return current
    low = float(values.min())
    return low if current is None else min(current, low)


def run_federated(
    config: ExperimentConfig,
    mdp: TabularMDP,
    q_star: np.ndarray,
    bit_model: BitModel | None = None,
) -> RunResult:
    """Run the full compressed federated loop and trace per-round metrics.

    ``q_star`` is the oracle fixed point used for the error columns.
    The trace has rounds + 1 rows: row 0 scores the initial table with
    zero communication, row t >= 1 the table after the t-th aggregation.
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
    residual = np.zeros((n_agents, d)) if mode == ERROR_FEEDBACK else None

    alpha_min: float | None = None
    p_support_min: float | None = None
    cumulative_bits = 0.0
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
        q_local = _local_phases(q_bar, mdp, config.eta, config.local_epochs, root, t, n_agents)
        pending = (q_local - q_bar).reshape(n_agents, d)
        if residual is not None:
            pending += residual
        # only random compressors consume a stream; its path is pinned to
        # (agent, round, K) either way
        comp_rngs = (
            [root.child(i, t, config.local_epochs).generator() for i in range(n_agents)]
            if spec.kind == SPARSIFIED_K
            else None
        )
        payload = compress_batch(pending, spec, comp_rngs)
        if residual is not None:
            residual = payload.residual(pending)
        if payload.alpha is not None:
            alpha_min = _running_min(alpha_min, payload.alpha)
        if payload.p is not None:
            p_support_min = _running_min(p_support_min, payload.p[payload.p > 0])

        indices = np.nonzero(payload.kept)[1]  # row-major: ascending agent, then index
        q_bar = _server_step(q_bar, indices, payload.values, config.beta, n_agents)

        counts = payload.kept.sum(axis=1).tolist()
        bits_round = float(sum(payload_bits(spec.kind, d, n, bm) for n in counts)) / n_agents
        cumulative_bits += bits_round
        metrics.append(
            RoundMetrics(
                round=t + 1,
                rmse=rmse(q_bar, q_star),
                linf_error=linf_error(q_bar, q_star),
                bits_round=bits_round,
                bits_cumulative=cumulative_bits,
                payload_entries=int(sum(counts)),
            )
        )

    return RunResult(
        metrics=metrics,
        q_final=q_bar,
        alpha_min=alpha_min,
        p_support_min=p_support_min,
    )
