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

Seeds are a second batch axis.  :func:`run_federated_batch` runs R
configs that differ only in their master seed as one computation of
R·I rows, run r's agents in rows r·I to r·I + I - 1: one sampling, one
Bellman update and one compression per round for the whole batch, and a
server step that keeps R tables.  The trace metrics, bits and realized
compressor constants are then taken per run.  :func:`run_federated` is
the batch of one.  A batch runs in groups of at most ``BATCH_CELLS``
table entries per (R·I, d) array, so its memory does not grow with R.

Everything is deterministic given the master seed: sampling streams are
derived per (agent, round, epoch), the compressor stream per
(agent, round, K), and the server adds payloads in ascending agent
order, so the result is the same bits as running the agents one by one,
in any order, and summing their densified payloads, and a run batched
with others is the same bits as the run alone.  The seed words of the
streams are computed by :func:`~fedq.rng.seed_words` for a block of
rounds at a time, at most ``SEED_BLOCK`` streams over all rows of the
batch unless one round alone has more, so seeding memory does not grow
with the number of rounds; each epoch builds only its own R·I generators
from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

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

# The operator/mode pairing: the unbiased operators upload directly, the
# biased one goes through error feedback.  A config without a mode takes its
# kind's; any pairing can be forced explicitly for ablations, but the overlay
# draws a bound only for these pairings and for the identity in either mode.
DEFAULT_MODE = {IDENTITY: DIRECT, SPARSIFIED_K: DIRECT, TOP_K: ERROR_FEEDBACK}

SEED_BLOCK = 2**16  # most stream paths derived in one seed_words call
BATCH_CELLS = 2**20  # most entries (R·I rows times d) of one batch's (R·I, d) arrays


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
    mode: str | None = None  # None = DEFAULT_MODE of the compressor kind, set at construction
    master_seed: int = 0
    q0: float = 0.0  # constant initial Q value; 0.0 = zero table
    fpp: int = 32  # floating-point precision assumed on the wire, in bits per value

    def __post_init__(self) -> None:
        if not isinstance(self.compressor, CompressorSpec):
            raise ParamOutOfRangeError(f"compressor must be a CompressorSpec, got {self.compressor!r}")
        # n_agents, rounds and local_epochs + 1 index stream paths, whose ids are uint32
        for name, low, high in (("n_agents", 1, ID_LIMIT), ("local_epochs", 1, ID_LIMIT - 1),
                                ("rounds", 1, ID_LIMIT), ("fpp", 1, math.inf), ("master_seed", 0, math.inf)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), low, high))
        check_interval("eta", self.eta, 0, 1, "(]")
        check_interval("beta", self.beta, 0, 1, "(]")
        check_interval("gamma", self.gamma, 0, 1)
        check_interval("q0", self.q0, -math.inf, math.inf)  # finite; check_against bounds |q0|
        if self.mode is None:
            object.__setattr__(self, "mode", DEFAULT_MODE[self.compressor.kind])
        elif self.mode not in MODES:
            raise ParamOutOfRangeError(f"mode must be one of {MODES}, got {self.mode!r}")

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


def _round_words(seeds, n_agents: int, rounds: int, n_streams: int):
    """Seed words of each round's streams for R runs, one (n_streams, R·I, 4) array per round.

    Entry ``[k, r·I + i]`` of round t seeds the stream of path ``(i, t, k)``
    under ``seeds[r]``: agent i's epoch k of round t for k < K, its
    compressor draw for k = K.  The words are derived a block of rounds at
    a time, one :func:`~fedq.rng.seed_words` call per seed, at most
    ``SEED_BLOCK`` paths over all R·I rows per block (one round per block
    if a round alone has more).
    """
    rows = len(seeds) * n_agents
    block = max(1, SEED_BLOCK // (n_streams * rows))
    for start in range(0, rounds, block):
        n = min(block, rounds - start)
        t, k, i = np.indices((n, n_streams, n_agents)).reshape(3, -1)
        paths = np.stack([i, start + t, k], axis=1)
        words = [seed_words(seed, paths).reshape(n, n_streams, n_agents, 4) for seed in seeds]
        yield from np.stack(words, axis=2).reshape(n, n_streams, rows, 4)


def _local_phases(q_bar: np.ndarray, mdp: TabularMDP, eta: float, words: np.ndarray) -> np.ndarray:
    """One round's local phases of every agent of R runs: shape (R·I, S, A).

    ``q_bar`` holds the R broadcast tables and ``words`` that round's
    (K, R·I, 4) slice of :func:`_round_words`; row r·I + i starts from
    ``q_bar[r]``, and its epoch k draws from the stream seeded by
    ``words[k, r·I + i]``.
    """
    q = np.repeat(q_bar, words.shape[1] // len(q_bar), axis=0)
    for epoch_words in words:
        q = _epoch(q, mdp, eta, generators(epoch_words))
    return q


def _server_step(q_bar: np.ndarray, sent: np.ndarray, beta: float) -> np.ndarray:
    """Add ``beta / I`` times the sum of each run's I rows of ``sent`` onto its table.

    ``q_bar`` holds R tables and ``sent`` their (R·I, d) uploads, run r's
    in rows r·I to r·I + I - 1.  Each run's sum starts from +0.0 and adds
    its rows one by one in ascending agent order, so it gives the same
    bits as adding the densified payloads agent by agent: a +0.0 sum can
    never become -0.0, so adding +0.0 for an untransmitted coordinate
    changes nothing.  It is not a numpy sum over the agent axis: numpy
    reduces a one-column table (d = 1) pairwise, in another order than
    row by row.
    """
    per_run = sent.reshape(len(q_bar), -1, sent.shape[1])
    acc = np.zeros((len(q_bar), sent.shape[1]))
    for agent_rows in per_run.swapaxes(0, 1):
        acc += agent_rows
    return q_bar + (beta / per_run.shape[1]) * acc.reshape(q_bar.shape)


def _running_min(current: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fold row r of an (R, n) array into ``current[r]``; NaN stands for no value and is skipped."""
    return np.fmin(current, np.fmin.reduce(values, axis=1))


def run_federated(
    config: ExperimentConfig,
    mdp: TabularMDP,
    q_star: np.ndarray,
) -> RunResult:
    """Run the full compressed federated loop and trace per-round metrics: the batch of one.

    ``q_star`` is the oracle fixed point used for the error columns.  The
    bit columns count each upload with :func:`~fedq.bounds.payload_bits`
    at ``config.fpp`` bits per value.
    The trace has rounds + 1 rows: row 0 scores the initial table with
    zero communication, row t >= 1 the table after the t-th aggregation.
    """
    return run_federated_batch([config], mdp, q_star)[0]


def run_federated_batch(
    configs: list[ExperimentConfig],
    mdp: TabularMDP,
    q_star: np.ndarray,
) -> list[RunResult]:
    """Run R configs that differ only in ``master_seed``; one result per config, in order.

    The runs are computed together: each round samples, updates and
    compresses all R·I agents as one batch, and the server keeps R
    tables.  Result r is the same bits as :func:`run_federated` on
    ``configs[r]`` alone.  The configs run in groups of at most
    ``BATCH_CELLS // (I·d)``, so the batch's memory does not grow with R.
    """
    configs = list(configs)
    if not configs:
        raise ParamOutOfRangeError("run_federated_batch needs at least one config")
    config = configs[0]
    for other in configs[1:]:
        differ = [f.name for f in fields(config)
                  if f.name != "master_seed" and getattr(other, f.name) != getattr(config, f.name)]
        if differ:
            raise ParamOutOfRangeError(f"batched configs may differ only in master_seed, not in {differ}")
    if q_star.shape != (mdp.n_states, mdp.n_actions):
        raise ShapeMismatchError("q_star shape does not match the MDP")
    config.check_against(mdp)

    seeds = [c.master_seed for c in configs]
    group = max(1, BATCH_CELLS // (config.n_agents * mdp.table_size))
    return [result for start in range(0, len(seeds), group)
            for result in _run_group(config, seeds[start:start + group], mdp, q_star)]


def _run_group(config: ExperimentConfig, seeds: list[int], mdp: TabularMDP,
               q_star: np.ndarray) -> list[RunResult]:
    """The federated loop of one run per seed in ``seeds``, all other settings from ``config``."""
    spec = config.compressor
    n_runs, n_agents, d = len(seeds), config.n_agents, mdp.table_size
    n_epochs = config.local_epochs
    # only random compressors consume a stream; its path is pinned to (agent, round, K)
    n_streams = n_epochs + 1 if spec.kind == SPARSIFIED_K else n_epochs

    q_bar = np.full((n_runs, mdp.n_states, mdp.n_actions), float(config.q0))
    residual = np.zeros((n_runs * n_agents, d)) if config.mode == ERROR_FEEDBACK else None

    alpha_min = p_support_min = np.full(n_runs, np.nan)
    traces = [[RoundMetrics(0, rmse(q, q_star), linf_error(q, q_star), 0.0, 0.0, 0)] for q in q_bar]

    for t, words in enumerate(_round_words(seeds, n_agents, config.rounds, n_streams)):
        q_local = _local_phases(q_bar, mdp, config.eta, words[:n_epochs])
        pending = (q_local.reshape(n_runs, n_agents, d) - q_bar.reshape(n_runs, 1, d)).reshape(-1, d)
        if residual is not None:
            pending += residual
        comp_rngs = generators(words[n_epochs]) if spec.kind == SPARSIFIED_K else None
        payload = compress_batch(pending, spec, comp_rngs)
        if residual is not None:
            residual = pending - payload.sent
        if payload.alpha is not None:
            alpha_min = _running_min(alpha_min, payload.alpha.reshape(n_runs, -1))
        if payload.p is not None:
            support = np.where(payload.p > 0, payload.p, np.nan)
            p_support_min = _running_min(p_support_min, support.reshape(n_runs, -1))

        q_bar = _server_step(q_bar, payload.sent, config.beta)

        # price each distinct upload size once; counts[r, j] is run r's number of uploads of sizes[j]
        uploads = payload.kept.sum(axis=1)
        sizes, size_index = np.unique(uploads, return_inverse=True)
        prices = [payload_bits(spec.kind, d, size, config.fpp) for size in sizes.tolist()]
        run_offset = np.arange(n_runs).repeat(n_agents) * len(sizes)
        counts = np.bincount(size_index + run_offset, minlength=n_runs * len(sizes)).reshape(n_runs, -1)
        entries = uploads.reshape(n_runs, n_agents).sum(axis=1)
        for q, trace, run_counts, run_entries in zip(q_bar, traces, counts.tolist(), entries.tolist()):
            bits_round = float(sum(price * n for price, n in zip(prices, run_counts))) / n_agents
            trace.append(
                RoundMetrics(
                    round=t + 1,
                    rmse=rmse(q, q_star),
                    linf_error=linf_error(q, q_star),
                    bits_round=bits_round,
                    bits_cumulative=trace[-1].bits_cumulative + bits_round,
                    payload_entries=run_entries,
                )
            )

    return [
        RunResult(metrics=trace, q_final=q, alpha_min=_or_none(alpha), p_support_min=_or_none(p))
        for trace, q, alpha, p in zip(traces, q_bar, alpha_min, p_support_min)
    ]


def _or_none(value: np.floating) -> float | None:
    return None if np.isnan(value) else float(value)
