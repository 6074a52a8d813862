"""The federated synchronous Q-learning loop with compressed uploads.

One communication round: the server broadcasts the global table; every
agent runs K local epochs of damped empirical-Bellman updates on its own
sample streams; each agent uploads a compressed version of its progress
(its final local table minus the broadcast), either directly or through
an error-feedback residual; the server adds ``beta / I`` times the summed
payloads back onto the global table.

Runs and agents are batch axes.  :func:`run_federated_batch` takes any
list of configs and runs those that agree on the loop's shape (agents,
local epochs and rounds) as batches of R runs, whatever their master
seeds, compressors, modes, bits per value, eta, beta and q0: a
:class:`_Batch` computes a batch's plan once (which stream row each of
the R·I agent rows reads, the compression arms, the eta blocks, the
server step sizes, the gather index of a table with one successor per
row), and its :meth:`_Batch.round` steps all R·I rows through one round:
K local epochs of one Bellman update over the batch each, one
compression per arm, the error-feedback residual and one server step.
:func:`_run_group` loops over the rounds and records only each run's
kept entries and realized compressor constants, and scores its tables a
block of rounds at a time; the bits and trace columns are built per run
once the rounds are done.
:func:`run_federated` is the batch of one.

Everything is deterministic given the master seed: sampling streams are
derived per (agent, round, epoch), the compressor stream per
(agent, round, K), and the server adds payloads in ascending agent
order, so the result is the same bits as running the agents one by one,
in any order, and summing their densified payloads, and a run batched
with others is the same bits as the run alone.
"""
from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bellman import errors_batch, state_values
from .bounds import payload_bits
from .compression import IDENTITY, SPARSIFIED_K, TOP_K, CompressorSpec, compress_batch
from .errors import (InvalidGammaError, NonFiniteError, ParamOutOfRangeError, check_array, check_budget,
                     check_count, check_interval)
from .mdp import TabularMDP, rewards_from_normals, synchronous_sample_batch
# the engine derives every stream's words itself, so no epoch checks them again
from .rng import ID_LIMIT, seed_words, skip_words
from .rng import unchecked_generators as generators

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
_SCORE_CELLS = 2**13  # most entries (trace rows times R times d) scored in one errors_batch call
# the loop's shape: the configs that agree on it share a batch, wherever they stand in the list
_SHARED = operator.attrgetter("n_agents", "local_epochs", "rounds")


def _arm(config: ExperimentConfig) -> tuple:
    """A compression arm's key; only sparsified_k reads, and so splits by, the probability rule."""
    spec = config.compressor
    return spec.kind, spec.probability_rule if spec.kind == SPARSIFIED_K else None, config.mode


@dataclass(frozen=True)
class ExperimentConfig:
    """All hyperparameters of one federated run, including the payload accounting's bits per value;
    each count is kept as a Python int and each real as a Python float, whatever numeric type was passed."""

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
        for name, closed in (("eta", "(]"), ("beta", "(]")):
            object.__setattr__(self, name, check_interval(name, getattr(self, name), 0, 1, closed))
        object.__setattr__(self, "gamma", check_interval("gamma", self.gamma, 0, 1, error=InvalidGammaError))
        # finite; check_against bounds |q0|
        object.__setattr__(self, "q0", check_interval("q0", self.q0, -math.inf, math.inf))
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


class RoundMetrics(NamedTuple):
    """The trace's layout: its fields, in order, are the trace CSV columns.

    It holds one value, column or list of cells per field: a trace row, a
    run's trace (:attr:`RunResult.columns`) or the harness's cells.  Each
    annotation is the row type that parses its column's cells back.
    ``bits_round`` and ``bits_cumulative`` are per-agent payload bits,
    averaged over agents (agents differ only under random sparsification).
    ``payload_entries`` counts stored (index, value) pairs summed over
    agents.  Row 0 describes the initial table before any communication.
    """

    round: int
    rmse: float
    linf_error: float
    bits_round: float
    bits_cumulative: float
    payload_entries: int


@dataclass(eq=False)
class RunResult:
    """A run's trace, its final global table, its realized compressor constants and its wall time.

    ``columns`` holds the trace as a :class:`RoundMetrics` of columns,
    each with one value per trace row; the harness formats each column
    once.  ``metrics`` is a read-only view that builds the
    :class:`RoundMetrics` rows from the columns on each access.
    """

    columns: RoundMetrics
    q_final: np.ndarray
    alpha_min: float | None = None  # smallest realized top_k contraction factor
    p_support_min: float | None = None  # smallest realized selection probability
    seconds: float = 0.0  # wall time of the batch that computed the run, divided by its number of runs

    @property
    def metrics(self) -> list[RoundMetrics]:
        """The trace rows, built from ``columns``."""
        return list(map(RoundMetrics, *self.columns))


def _damped(q: np.ndarray, target: np.ndarray, etas: list[tuple[float, slice]]) -> np.ndarray:
    """``(1 - eta) q + eta target`` in place of ``target``, once per block of rows with one eta.

    Each block's update runs with a scalar eta, which gives every row the
    bits of its lone update.
    """
    for eta, block in etas:
        out = target[block]
        np.add((1.0 - eta) * q[block], np.multiply(eta, out, out=out), out=out)
    return target


def _gather_index(next_states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Where each row's next states sit in an (N, S) batch of state values: (N, S, A) int64.

    Entry ``[i, s, a]`` is ``i·S + next_states[rows[i], s, a]``, the flat
    index :func:`~fedq.bellman.empirical_bellman` builds when ``rows`` is
    the identity, here for a (U, S, A) next-state table N rows share.  A
    table with one successor per row (w = 1) knows its next states before
    any draw, so its index is built once per batch from ``succ``; for
    w > 1 each epoch builds it from the next states it drew.
    """
    index = next_states.take(rows, axis=0)
    index += np.arange(0, len(rows) * next_states.shape[1], next_states.shape[1]).reshape(-1, 1, 1)
    return index


def _server_step(q_bar: np.ndarray, sent: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Add ``betas[r] / I`` times the sum of run r's I rows of ``sent`` onto its table.

    ``q_bar`` holds R tables, ``betas`` their R server step sizes and
    ``sent`` their (R·I, d) uploads, run r's in rows r·I to r·I + I - 1.
    Each run's sum starts from +0.0 and adds its rows one by one in
    ascending agent order, so it gives the same bits as adding the
    densified payloads agent by agent: a +0.0 sum can never become -0.0,
    so adding +0.0 for an untransmitted coordinate changes nothing.  For
    d > 1 that is one ``np.add.reduce`` over the agent axis: the reduced
    axis is not the innermost one of the C-ordered (R, I, d) rows, so
    numpy adds whole agent rows into the sum in ascending order.  A
    one-column table (d = 1) would be reduced pairwise, in another order,
    so it adds its rows in a loop.
    """
    per_run = sent.reshape(len(q_bar), -1, sent.shape[1])
    if sent.shape[1] > 1:
        acc = np.add.reduce(per_run, axis=1, initial=0.0)
    else:
        acc = np.zeros((len(q_bar), 1))
        for agent_rows in per_run.swapaxes(0, 1):
            acc += agent_rows
    return q_bar + (betas / per_run.shape[1]).reshape(-1, 1, 1) * acc.reshape(q_bar.shape)


def _blocks(configs: list[ExperimentConfig], key, n_agents: int) -> list[tuple[object, slice, slice]]:
    """Each contiguous block of configs with one value of ``key``: (value, runs, rows).

    ``runs`` slices the block's runs out of the batch and ``rows`` their agents' rows.
    """
    blocks, start = [], 0
    for value, block in itertools.groupby(configs, key=key):
        stop = start + len(list(block))
        blocks.append((value, slice(start, stop), slice(start * n_agents, stop * n_agents)))
        start = stop
    return blocks


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
    q_star,
) -> list[RunResult]:
    """Run every config; one result per config, in input order.

    Every config is checked against the MDP, and ``q_star`` (any
    array-like) for shape (S, A) and finite entries, before anything is
    computed: a non-config entry raises ``ParamOutOfRangeError``, a
    malformed ``q_star`` ``ShapeMismatchError`` and a NaN or infinite one
    ``NonFiniteError``.  All configs that agree on agents, local epochs and rounds (the loop's
    shape) are computed together, wherever they stand in the list and
    whatever their master seeds, compressors, modes, bits per value, eta,
    beta and q0: each epoch draws the sample tables of each distinct seed
    once and every run with that seed updates from them, one Bellman
    update covers all R·I agents, the configs that share an arm (kind,
    mode and sparsified_k's rule) are compressed in one call with one
    budget per row (the identity's arm in none), and the server keeps R
    tables.  The configs of one shape are stably sorted by (kind, rule,
    mode, eta), so that each such arm is one contiguous block, and run in
    batches of at most ``BATCH_CELLS // (I·d)`` configs in that order, so
    their memory does not grow with R, and each result's ``seconds`` is
    its batch's wall time divided by the batch's number of runs.  Result r
    is the same bits as :func:`run_federated` on ``configs[r]`` alone.
    """
    configs = list(configs)
    if not configs:
        raise ParamOutOfRangeError("run_federated_batch needs at least one config")
    for config in configs:
        if not isinstance(config, ExperimentConfig):
            raise ParamOutOfRangeError(f"run_federated_batch needs ExperimentConfigs, got {config!r}")
        config.check_against(mdp)
    q_star = check_array("q_star", q_star, shape=(mdp.n_states, mdp.n_actions))
    if not all(map(math.isfinite, (q_star.min(), q_star.max()))):  # NaN propagates to both
        raise NonFiniteError("q_star holds NaN or infinite entries")

    shapes: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        shapes.setdefault(_SHARED(config), []).append(index)
    results = [None] * len(configs)
    for (n_agents, _, _), indices in shapes.items():
        # each arm, and each eta within it, becomes one contiguous block of the batch
        indices.sort(key=lambda i: (_arm(configs[i]), configs[i].eta))
        size = max(1, BATCH_CELLS // (n_agents * mdp.table_size))
        for start in range(0, len(indices), size):
            batch = indices[start:start + size]
            for index, result in zip(batch, _run_group([configs[i] for i in batch], mdp, q_star)):
                results[index] = result
    return results


class _Batch:
    """The plan of one batch of R runs that agree on the loop's shape, ``_SHARED``, and its round step.

    Each run starts from its own q0 and keeps its own eta and beta: the
    damped update runs once per contiguous block of runs with one eta
    (``etas``: (eta, rows) pairs), and the server step scales each run's
    sum by its own beta / I (``betas``).  Each contiguous block of runs
    with one :func:`_arm` key is one arm (``arms``: (spec, budget, mode,
    runs, rows)), compressed in one call under its rows' budgets: one int
    when its runs agree on k, else one budget per row.  Streams are shared
    by seed: a stream is a pure function of (master seed, path), so the U
    distinct ``seeds`` fill U·I stream rows, and ``rows[r·I + i]`` is the
    stream row run r's agent i reads (``shared`` when some row reads
    another than its own).  Only sparsified_k consumes a compressor stream
    (``sparsified``), on path (agent, round, K).  On a table with one
    successor per row (w = 1) the next states are known before any draw,
    so the gather ``index`` of the R·I rows is built once, here, from
    ``succ``, and with ``noisy`` rewards each epoch stream is seeded
    ``skip`` = S·A draws on, past its uniform block; on w > 1 ``index``
    is None and each epoch builds its own from its draw.
    """

    def __init__(self, configs: list[ExperimentConfig], mdp: TabularMDP) -> None:
        self.mdp, self.n_agents, self.n_epochs = mdp, configs[0].n_agents, configs[0].local_epochs
        self.seeds = list(dict.fromkeys(c.master_seed for c in configs))
        slot = {seed: u for u, seed in enumerate(self.seeds)}
        self.rows = (np.array([slot[c.master_seed] for c in configs])[:, None] * self.n_agents
                     + np.arange(self.n_agents)).ravel()
        self.shared = not np.array_equal(self.rows, np.arange(len(self.rows)))
        self.arms = []
        for (_, _, mode), runs, rows in _blocks(configs, _arm, self.n_agents):
            ks = [c.compressor.k for c in configs[runs]]
            budget = ks[0] if len(set(ks)) == 1 else np.repeat(ks, self.n_agents)
            self.arms.append((configs[runs.start].compressor, budget, mode, runs, rows))
        self.etas = [(eta, rows) for eta, _, rows in _blocks(configs, operator.attrgetter("eta"), self.n_agents)]
        self.betas = np.array([c.beta for c in configs], dtype=np.float64)
        self.sparsified = any(spec.kind == SPARSIFIED_K for spec, *_ in self.arms)
        self.index = _gather_index(mdp.succ.reshape(1, mdp.n_states, mdp.n_actions),
                                   np.zeros(len(self.rows), dtype=np.int64)) if mdp.succ.shape[1] == 1 else None
        self.noisy = mdp.noise.std > 0.0
        self.skip = mdp.table_size if self.index is not None and self.noisy else 0

    def words(self, rounds: int):
        """Seed words of each round's streams, one (n_streams, U·I, 4) array per round.

        Entry ``[k, u·I + i]`` of round t seeds the stream of path ``(i, t, k)``
        under ``seeds[u]``: agent i's epoch k of round t for k < K, its
        compressor draw for k = K (the last of the n_streams = K + 1 a
        sparsified batch has).  The words are derived a block of rounds at
        a time, one :func:`~fedq.rng.seed_words` call per seed, at most
        ``SEED_BLOCK`` paths over all U·I rows per block (one round per
        block if a round alone has more), so seeding memory does not grow
        with the number of rounds.  With ``skip`` > 0, one
        :func:`~fedq.rng.skip_words` call per block moves the epoch streams
        (never the compressor's) ``skip`` draws on.
        """
        n_streams, n_rows = self.n_epochs + 1 if self.sparsified else self.n_epochs, len(self.seeds) * self.n_agents
        block = max(1, SEED_BLOCK // (n_streams * n_rows))
        for start in range(0, rounds, block):
            n = min(block, rounds - start)
            t, k, i = np.indices((n, n_streams, self.n_agents)).reshape(3, -1)
            paths = np.stack([i, start + t, k], axis=1)
            words = [seed_words(seed, paths).reshape(n, n_streams, self.n_agents, 4) for seed in self.seeds]
            words = np.stack(words, axis=2).reshape(n, n_streams, n_rows, 4)
            if self.skip:
                epochs = words[:, :self.n_epochs]
                epochs[...] = skip_words(epochs.reshape(-1, 4), self.skip).reshape(epochs.shape)
            yield from words

    def local_phases(self, q_bar: np.ndarray, words: np.ndarray) -> np.ndarray:
        """One round's local phases of every agent of the R runs: shape (R·I, S, A).

        ``q_bar`` holds the R broadcast tables and ``words`` one round of
        :meth:`words`; row r·I + i starts from ``q_bar[r]``, and its epoch
        k updates from the sample table of the stream seeded by
        ``words[k, rows[r·I + i]]``, damped by its block's eta.  Each
        stream's table is drawn once, however many rows read it, and each
        epoch builds only its own generators, I per distinct seed.

        Every epoch reads the rows' next states from one :func:`_gather_index`
        and makes the operations :func:`~fedq.bellman.empirical_bellman` makes
        on the drawn table, without checking it: the gather, times gamma,
        plus the rewards.  With an ``index``, an epoch draws only the
        rewards, with :func:`~fedq.mdp.rewards_from_normals`, and with
        noiseless rewards it builds no generator and adds the mean
        rewards; with None, each epoch draws its next-state tables and
        builds its own index.
        """
        q = np.repeat(q_bar, len(self.rows) // len(q_bar), axis=0)
        rewards, index = self.mdp.reward_mean, self.index
        for epoch_words in words[:self.n_epochs]:
            if self.index is None:
                next_states, drawn = synchronous_sample_batch(self.mdp, generators(epoch_words))
                index = _gather_index(next_states, self.rows)
            elif self.noisy:
                drawn = rewards_from_normals(self.mdp, generators(epoch_words))
            if self.noisy:
                rewards = drawn.take(self.rows, axis=0) if self.shared else drawn
            target = state_values(q).take(index)
            target *= self.mdp.gamma
            target += rewards
            q = _damped(q, target, self.etas)
        return q

    def round(self, q_bar: np.ndarray, residual: np.ndarray | None, words: np.ndarray) -> tuple:
        """One round from the R broadcast tables ``q_bar``, on one round of :meth:`words`.

        Returns the R new tables and, shape (R,) each, every run's kept
        entries, smallest realized top_k alpha and smallest selection
        probability on the support (NaN where the round realized none).
        Deltas and error-feedback residuals are (R·I, d) arrays: the
        pending table, each arm's rows compressed in one call into the
        uploads that overwrite them (the identity's are the pending rows
        themselves), and the server step adds every run's rows onto its
        table.  ``residual`` is the (R·I, d) error-feedback memory, updated
        in place; only the rows of error-feedback arms are read or
        written.  A sparsified_k arm reads its uniforms from one (U·I, d)
        block, drawn once per distinct compressor stream.
        """
        n_runs, n_agents, d = len(q_bar), self.n_agents, self.mdp.table_size
        q_local = self.local_phases(q_bar, words)
        pending = (q_local.reshape(n_runs, n_agents, d) - q_bar.reshape(n_runs, 1, d)).reshape(-1, d)
        if self.sparsified:
            uniforms = np.empty((len(words[self.n_epochs]), d))
            for rng, row in zip(generators(words[self.n_epochs]), uniforms):
                rng.random(out=row)
        entries = np.empty(n_runs, dtype=np.int64)
        alpha, p_support = np.full(n_runs, np.nan), np.full(n_runs, np.nan)
        for spec, budget, mode, runs, rows in self.arms:
            arm_pending = pending[rows]
            if mode == ERROR_FEEDBACK:
                arm_pending += residual[rows]
            if spec.kind == IDENTITY:  # the upload is pending itself, every entry of it
                sent, entries[runs] = arm_pending, n_agents * d
            else:
                payload = compress_batch(arm_pending, spec,
                                         uniforms[self.rows[rows]] if spec.kind == SPARSIFIED_K else None, budget)
                sent, n_arm = payload.sent, runs.stop - runs.start
                if payload.alpha is not None:
                    alpha[runs] = np.fmin.reduce(payload.alpha.reshape(n_arm, -1), axis=1)
                if payload.p is not None:
                    support = np.where(payload.p > 0, payload.p, np.nan)
                    p_support[runs] = np.fmin.reduce(support.reshape(n_arm, -1), axis=1)
                entries[runs] = payload.kept.reshape(n_arm, -1).sum(axis=1)
            if mode == ERROR_FEEDBACK:
                np.subtract(arm_pending, sent, out=residual[rows])
            if sent is not arm_pending:
                arm_pending[...] = sent  # pending's rows become the uploads
        return _server_step(q_bar, pending, self.betas), entries, alpha, p_support


def _run_group(configs: list[ExperimentConfig], mdp: TabularMDP, q_star: np.ndarray) -> list[RunResult]:
    """The federated loop of one run per config, the rounds of one :class:`_Batch`.

    Records each run's kept entries and realized compressor constants per
    round in (T, R) arrays, and its two errors in (T+1, R) arrays; the
    bits and trace columns are built from them once the loop ends.  The
    tables of a block of trace rows, at most ``_SCORE_CELLS`` entries over
    all R runs (one row if a row alone has more), are scored in one
    :func:`~fedq.bellman.errors_batch` call, which gives each table the
    bits of scoring it alone, and each constant's minimum over the rounds
    is one ``np.fmin.reduce``.  Each result's ``seconds`` is the call's
    wall time divided by R.
    """
    started = time.perf_counter()
    batch, n_runs, n_rounds, d = _Batch(configs, mdp), len(configs), configs[0].rounds, mdp.table_size
    q_bar = np.repeat(np.array([c.q0 for c in configs], dtype=np.float64), d).reshape(n_runs, *q_star.shape)
    # error-feedback memory; only the rows of error-feedback arms are read or written
    residual = np.zeros((len(batch.rows), d)) if any(arm[2] == ERROR_FEEDBACK for arm in batch.arms) else None
    entries = np.empty((n_rounds, n_runs), dtype=np.int64)
    alphas, p_supports = np.empty((n_rounds, n_runs)), np.empty((n_rounds, n_runs))
    rmses, linfs = np.empty((n_rounds + 1, n_runs)), np.empty((n_rounds + 1, n_runs))
    block = max(1, _SCORE_CELLS // (n_runs * d))  # trace rows per errors_batch call
    tables = np.empty((min(block, n_rounds + 1), n_runs, *q_star.shape))
    tables[0] = q_bar
    words = batch.words(n_rounds)
    for start in range(0, n_rounds + 1, block):
        stop = min(start + block, n_rounds + 1)
        for t in range(max(start, 1), stop):  # trace row t is the table after round t
            q_bar, entries[t - 1], alphas[t - 1], p_supports[t - 1] = batch.round(q_bar, residual, next(words))
            tables[t - start] = q_bar
        scored = errors_batch(tables[:stop - start].reshape(-1, *q_star.shape), q_star)
        rmses[start:stop], linfs[start:stop] = (e.reshape(-1, n_runs) for e in scored)
    traces = list(map(_trace, configs, itertools.repeat(d), entries.T.tolist(), rmses.T.tolist(),
                      linfs.T.tolist()))
    seconds = (time.perf_counter() - started) / n_runs
    return [RunResult(trace, q, alpha_min=_or_none(alpha), p_support_min=_or_none(p), seconds=seconds)
            for trace, q, alpha, p in zip(traces, q_bar, np.fmin.reduce(alphas, axis=0),
                                          np.fmin.reduce(p_supports, axis=0))]


def _trace(config: ExperimentConfig, d: int, entries: list[int], rmses: list[float],
           linfs: list[float]) -> RoundMetrics:
    """A run's :class:`RoundMetrics` of columns from its kept entries per round and its errors per trace row.

    Each round's uploads are priced as one total: the exact integer
    :func:`~fedq.bounds.payload_bits` of the round's I uploads, turned to
    float and divided by I, which gives the same bits as summing the
    agents' exact prices.  A run repeats few totals (every round of the
    identity, and most rounds of top_k, keep the same number of entries),
    so each distinct total is priced once.
    """
    n_agents = config.n_agents
    price = {n: float(payload_bits(config.compressor.kind, d, n, config.fpp, n_agents)) / n_agents
             for n in set(entries)}
    bits = [0.0] + [price[n] for n in entries]
    return RoundMetrics(round=range(len(rmses)), rmse=rmses, linf_error=linfs, bits_round=bits,
                        bits_cumulative=list(itertools.accumulate(bits)), payload_entries=[0] + entries)


def _or_none(value: np.floating) -> float | None:
    return None if np.isnan(value) else float(value)
