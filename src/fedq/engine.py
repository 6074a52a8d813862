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
error-feedback residuals are (I, d) arrays compressed in one call into an
(I, d) table of compressed vectors (+0.0 where nothing is sent); the
error-feedback residual is the pending table minus it, and the server adds
its rows onto the global table.

Everything is deterministic given the master seed: sampling streams are
derived per (agent, round, epoch), the compressor stream per
(agent, round, K), and the server adds payloads in ascending agent
order, so the result is the same bits as running the agents one by one,
in any order, and summing their densified payloads.  The seed words of
the streams are computed by :func:`~fedq.rng.seed_words` for a block of
rounds at a time, at most ``SEED_BLOCK`` streams per call unless one
round alone has more, so seeding memory does not grow with the number of
rounds; each epoch builds only its own I generators from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bellman import empirical_bellman, linf_error, rmse
from .bounds import payload_bits
from .compression import IDENTITY, SPARSIFIED_K, TOP_K, CompressorSpec, compress_batch
from .errors import ParamOutOfRangeError, ShapeMismatchError, check_budget, check_count, check_interval
from .mdp import TabularMDP, synchronous_sample_batch
from .rng import ID_LIMIT, generators, seed_words

DIRECT = "direct"
ERROR_FEEDBACK = "error_feedback"
MODES = (DIRECT, ERROR_FEEDBACK)

# Default operator/mode pairing: the unbiased operators upload directly,
# the biased one goes through error feedback.  Any pairing can be forced
# explicitly for ablations.
_DEFAULT_MODE = {IDENTITY: DIRECT, SPARSIFIED_K: DIRECT, TOP_K: ERROR_FEEDBACK}

SEED_BLOCK = 2**16  # most stream paths derived in one seed_words call


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
        # n_agents, rounds and local_epochs + 1 index stream paths, whose ids are uint32
        for name, low, high in (("n_agents", 1, ID_LIMIT), ("local_epochs", 1, ID_LIMIT - 1),
                                ("rounds", 1, ID_LIMIT), ("fpp", 1, math.inf), ("master_seed", 0, math.inf)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), low, high))
        check_interval("eta", self.eta, 0, 1, "(]")
        check_interval("beta", self.beta, 0, 1, "(]")
        check_interval("gamma", self.gamma, 0, 1)
        check_interval("q0", self.q0, -math.inf, math.inf)  # finite; check_against bounds |q0|
        if self.mode is not None and self.mode not in MODES:
            raise ParamOutOfRangeError(f"mode must be one of {MODES}, got {self.mode!r}")

    def resolved_mode(self) -> str:
        return self.mode if self.mode is not None else _DEFAULT_MODE[self.compressor.kind]

    def check_against(self, mdp: TabularMDP) -> None:
        """Check the ranges that depend on the MDP: gamma, |q0| and the budget k."""
        if self.gamma != mdp.gamma:
            raise ParamOutOfRangeError(
                f"config gamma {self.gamma} differs from MDP gamma {mdp.gamma}"
            )
        check_interval("|q0|", abs(self.q0), 0, mdp.r_max / (1.0 - self.gamma), "[]")
        if self.compressor.kind != IDENTITY:
            check_budget(self.compressor.k, mdp.table_size)


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


def _round_words(seed: int, n_agents: int, rounds: int, n_streams: int):
    """Seed words of each round's streams, one (n_streams, n_agents, 4) array per round.

    Entry ``[k, i]`` of round t seeds the stream of path ``(i, t, k)``:
    agent i's epoch k of round t for k < K, its compressor draw for k = K.
    The words are derived a block of rounds at a time, at most
    ``SEED_BLOCK`` paths per :func:`~fedq.rng.seed_words` call (one round
    per call if a round alone has more).
    """
    block = max(1, SEED_BLOCK // (n_streams * n_agents))
    for start in range(0, rounds, block):
        n = min(block, rounds - start)
        t, k, i = np.indices((n, n_streams, n_agents)).reshape(3, -1)
        words = seed_words(seed, np.stack([i, start + t, k], axis=1))
        yield from words.reshape(n, n_streams, n_agents, 4)


def _local_phases(q_bar: np.ndarray, mdp: TabularMDP, eta: float, words: np.ndarray) -> np.ndarray:
    """One round's local phases of all agents from one broadcast: shape (I, S, A).

    ``words`` is that round's (K, I, 4) slice of :func:`_round_words`;
    epoch k of agent i draws from the stream seeded by ``words[k, i]``.
    """
    q = np.broadcast_to(q_bar, (words.shape[1],) + q_bar.shape)
    for epoch_words in words:
        q = _epoch(q, mdp, eta, generators(epoch_words))
    return q


def _server_step(q_bar: np.ndarray, sent: np.ndarray, beta: float) -> np.ndarray:
    """Add ``beta / I`` times the sum of the I rows of ``sent`` onto the table.

    The sum starts from +0.0 and adds the rows one by one in ascending
    agent order, so it gives the same bits as adding the densified
    payloads agent by agent: a +0.0 sum can never become -0.0, so adding
    +0.0 for an untransmitted coordinate changes nothing.  It is not
    ``sent.sum(axis=0)``: numpy reduces a one-column table (d = 1)
    pairwise, in another order than row by row.
    """
    acc = np.zeros(sent.shape[1])
    for row in sent:
        acc += row
    return q_bar + (beta / len(sent)) * acc.reshape(q_bar.shape)


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

    for t, words in enumerate(_round_words(config.master_seed, n_agents, config.rounds, n_streams)):
        q_local = _local_phases(q_bar, mdp, config.eta, words[:n_epochs])
        pending = (q_local - q_bar).reshape(n_agents, d)
        if residual is not None:
            pending += residual
        comp_rngs = generators(words[n_epochs]) if spec.kind == SPARSIFIED_K else None
        payload = compress_batch(pending, spec, comp_rngs)
        if residual is not None:
            residual = pending - payload.sent
        if payload.alpha is not None:
            alpha_min = _running_min(alpha_min, payload.alpha)
        if payload.p is not None:
            p_support_min = _running_min(p_support_min, payload.p[payload.p > 0])

        q_bar = _server_step(q_bar, payload.sent, config.beta)

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
