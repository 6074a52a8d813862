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
in any order, and summing their densified payloads.  The seed words of
every stream of the run are computed in one :func:`~fedq.rng.seed_words`
call at the start (32 bytes per stream); each epoch builds only its own
I generators from them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bellman import empirical_bellman, linf_error, rmse
from .bounds import payload_bits
from .compression import IDENTITY, SPARSIFIED_K, TOP_K, CompressorSpec, _check_budget, compress_batch
from .errors import ParamOutOfRangeError, ShapeMismatchError
from .mdp import TabularMDP, synchronous_sample_batch
from .rng import ID_LIMIT, generators, seed_words

DIRECT = "direct"
ERROR_FEEDBACK = "error_feedback"
MODES = (DIRECT, ERROR_FEEDBACK)

# Default operator/mode pairing: the unbiased operators upload directly,
# the biased one goes through error feedback.  Any pairing can be forced
# explicitly for ablations.
_DEFAULT_MODE = {IDENTITY: DIRECT, SPARSIFIED_K: DIRECT, TOP_K: ERROR_FEEDBACK}


@dataclass(frozen=True)
class ExperimentConfig:
    """All hyperparameters of one federated run, including the payload accounting's bits per value."""

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
    fpp: int = 32  # floating-point precision assumed on the wire, in bits per value

    def __post_init__(self) -> None:
        if self.n_agents < 1 or self.local_epochs < 1 or self.rounds < 1 or self.fpp < 1:
            raise ParamOutOfRangeError("n_agents, local_epochs, rounds and fpp must be >= 1")
        if max(self.n_agents, self.rounds, self.local_epochs + 1) >= ID_LIMIT:
            raise ParamOutOfRangeError(
                "n_agents, rounds and local_epochs + 1 must be < 2**32: they index stream paths"
            )
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
        if not abs(self.q0) <= q0_bound:
            raise ParamOutOfRangeError(
                f"|q0| must be <= r_max/(1-gamma) = {q0_bound}, got {self.q0}"
            )
        if self.compressor.kind != IDENTITY:
            _check_budget(self.compressor.k, mdp.table_size)


@dataclass(frozen=True)
class RoundMetrics:
    """One trace row; its fields, in order, are the trace CSV columns.

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


def _stream_words(seed: int, n_agents: int, rounds: int, n_streams: int) -> np.ndarray:
    """Seed words of every stream of a run, shape (rounds, n_streams, n_agents, 4).

    Entry ``[t, k, i]`` seeds the stream of path ``(i, t, k)``: agent i's
    epoch k of round t for k < K, its compressor draw for k = K.
    """
    t, k, i = np.indices((rounds, n_streams, n_agents)).reshape(3, -1)
    words = seed_words(seed, np.stack([i, t, k], axis=1))
    return words.reshape(rounds, n_streams, n_agents, 4)


def _local_phases(q_bar: np.ndarray, mdp: TabularMDP, eta: float, words: np.ndarray) -> np.ndarray:
    """One round's local phases of all agents from one broadcast: shape (I, S, A).

    ``words`` is that round's (K, I, 4) slice of :func:`_stream_words`;
    epoch k of agent i draws from the stream seeded by ``words[k, i]``.
    """
    q = np.broadcast_to(q_bar, (words.shape[1],) + q_bar.shape)
    for epoch_words in words:
        q = _epoch(q, mdp, eta, generators(epoch_words))
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
) -> RunResult:
    """Run the full compressed federated loop and trace per-round metrics.

    ``q_star`` is the oracle fixed point used for the error columns.  The
    bit columns count each upload with :func:`~fedq.bounds.payload_bits`
    at ``config.fpp`` bits per value.
    The trace has rounds + 1 rows: row 0 scores the initial table with
    zero communication, row t >= 1 the table after the t-th aggregation.
    """
    if q_star.shape != (mdp.n_states, mdp.n_actions):
        raise ShapeMismatchError("q_star shape does not match the MDP")
    config.check_against(mdp)

    spec = config.compressor
    mode = config.resolved_mode()
    n_agents = config.n_agents
    d = mdp.table_size
    n_epochs = config.local_epochs
    # only random compressors consume a stream; its path is pinned to (agent, round, K)
    n_streams = n_epochs + 1 if spec.kind == SPARSIFIED_K else n_epochs
    words = _stream_words(config.master_seed, n_agents, config.rounds, n_streams)

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
        q_local = _local_phases(q_bar, mdp, config.eta, words[t, :n_epochs])
        pending = (q_local - q_bar).reshape(n_agents, d)
        if residual is not None:
            pending += residual
        comp_rngs = generators(words[t, n_epochs]) if spec.kind == SPARSIFIED_K else None
        payload = compress_batch(pending, spec, comp_rngs)
        if residual is not None:
            residual = payload.residual(pending)
        if payload.alpha is not None:
            alpha_min = _running_min(alpha_min, payload.alpha)
        if payload.p is not None:
            p_support_min = _running_min(p_support_min, payload.p[payload.p > 0])

        indices = np.nonzero(payload.kept)[1]  # row-major: ascending agent, then index
        q_bar = _server_step(q_bar, indices, payload.values, config.beta, n_agents)

        sizes, n_uploads = np.unique(payload.kept.sum(axis=1), return_counts=True)
        bits_round = float(sum(
            payload_bits(spec.kind, d, size, config.fpp) * n
            for size, n in zip(sizes.tolist(), n_uploads.tolist())
        )) / n_agents
        cumulative_bits += bits_round
        metrics.append(
            RoundMetrics(
                round=t + 1,
                rmse=rmse(q_bar, q_star),
                linf_error=linf_error(q_bar, q_star),
                bits_round=bits_round,
                bits_cumulative=cumulative_bits,
                payload_entries=int(sizes @ n_uploads),
            )
        )

    return RunResult(
        metrics=metrics,
        q_final=q_bar,
        alpha_min=alpha_min,
        p_support_min=p_support_min,
    )
