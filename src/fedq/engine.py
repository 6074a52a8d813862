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
a batch, and the Bellman update runs once on the whole batch.  Whatever
the successor width w, an epoch reads the next states from one gather
index and makes the operations of :func:`~fedq.bellman.empirical_bellman`,
the same bits, without checking the tables it drew: a table with one
successor per row (w = 1, every grid world) knows its next states before
any draw, so its index is built once per batch from the successor table
and an epoch draws only the rewards, from streams seeded past their
uniform block, so that each draws its normals and nothing else; a w > 1
epoch builds its index from the next-state tables it draws.  Deltas and
error-feedback residuals are (I, d) arrays compressed in one call into
an (I, d) table of compressed vectors (+0.0 where nothing is sent; the
identity's is the pending table itself); the error-feedback residual is
the pending table minus it, and the server adds its rows onto the global
table in one reduction over the agent axis, row by row.

Runs are a batch axis too.  :func:`run_federated_batch` takes any list
of configs and alone decides which of them share a batch: all configs
that agree on the loop's shape (agents, local epochs and rounds, which
fix the (R·I, S, A) arrays, the epoch loop and the round loop), wherever
they stand in the list, run as one computation of R·I rows, run r's
agents in rows r·I to r·I + I - 1, whatever their master seeds,
compressors, modes, bits per value, eta, beta and q0, stably sorted by
compressor kind, probability rule (sparsified_k's alone), mode and eta,
so that each (kind, rule, mode) arm, and each eta within it, is one
contiguous block of runs.  Streams are shared by seed: a stream is a
pure function of (master seed, path), so each epoch draws the sample
tables of the U distinct seeds once, into U·I stream rows, and an index
array names the stream row each of the R·I rows reads (the identity when
every seed is distinct).  Each round then makes one Bellman update per
epoch over all rows, one damped update per block of runs with the same
eta, one compression per arm but the identity's, each row under its
run's budget k (one integer when the arm's runs agree on k, else one
budget per row, built once per batch), which writes its uploads into its
rows of the pending table, and one server step over the pending table
that keeps R tables, each run's sum scaled by its own beta / I.  The
round records only each run's kept entries, errors and realized
compressor constants; the bits and trace rows are built per run once the
rounds are done, each round's uploads priced as one exact
:func:`~fedq.bounds.payload_bits` total.  :func:`run_federated` is the
batch of one.  The configs of one shape run in batches of at most
``BATCH_CELLS`` table entries per (R·I, d) array, so their memory does
not grow with R.

Everything is deterministic given the master seed: sampling streams are
derived per (agent, round, epoch), the compressor stream per
(agent, round, K), and the server adds payloads in ascending agent
order, so the result is the same bits as running the agents one by one,
in any order, and summing their densified payloads, and a run batched
with others is the same bits as the run alone.  The seed words of the
streams are computed by :func:`~fedq.rng.seed_words` for a block of
rounds at a time, at most ``SEED_BLOCK`` streams over the distinct seeds'
rows unless one round alone has more, so seeding memory does not grow
with the number of rounds.  On a table with one successor per row and
noisy rewards, one :func:`~fedq.rng.skip_words` call per block moves the
epoch streams' words S·A draws on, where drawing the S·A uniforms would
leave each generator, so no epoch moves a stream on one by one; the
compressor streams, and every stream of a w > 1 table, which draws its
uniforms, start where they are seeded.  Each epoch builds only its own
generators from the words, I per distinct seed, and none on a table
with one successor per row and noiseless rewards, whose every epoch adds
the mean rewards.  So does a round's compressor draw: when any run uses
sparsified_k, the round draws d uniforms from each of the U·I compressor
streams once, and every sparsified_k run reads its rows of that block,
as the runs share sample tables.
"""
from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass

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
# the loop's shape: the configs that agree on it share a batch, wherever they stand in the list
_SHARED = operator.attrgetter("n_agents", "local_epochs", "rounds")


def _arm(config: ExperimentConfig) -> tuple:
    """A compression arm's key; only sparsified_k reads, and so splits by, the probability rule."""
    spec = config.compressor
    return spec.kind, spec.probability_rule if spec.kind == SPARSIFIED_K else None, config.mode


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
        check_interval("gamma", self.gamma, 0, 1, error=InvalidGammaError)
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
    """A run's trace rows, its final global table, its realized compressor constants and its wall time."""

    metrics: list[RoundMetrics]
    q_final: np.ndarray
    alpha_min: float | None = None  # smallest realized top_k contraction factor
    p_support_min: float | None = None  # smallest realized selection probability
    seconds: float = 0.0  # wall time of the batch that computed the run, divided by its number of runs


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


def _round_words(seeds, n_agents: int, rounds: int, n_streams: int, n_epochs: int, skip: int):
    """Seed words of each round's streams for U seeds, one (n_streams, U·I, 4) array per round.

    Entry ``[k, u·I + i]`` of round t seeds the stream of path ``(i, t, k)``
    under ``seeds[u]``: agent i's epoch k of round t for k < K = ``n_epochs``,
    its compressor draw for k = K.  The words are derived a block of rounds
    at a time, one :func:`~fedq.rng.seed_words` call per seed, at most
    ``SEED_BLOCK`` paths over all U·I rows per block (one round per block
    if a round alone has more).  With ``skip`` > 0, one
    :func:`~fedq.rng.skip_words` call per block moves the epoch streams
    (k < K, never the compressor's) ``skip`` draws on.
    """
    rows = len(seeds) * n_agents
    block = max(1, SEED_BLOCK // (n_streams * rows))
    for start in range(0, rounds, block):
        n = min(block, rounds - start)
        t, k, i = np.indices((n, n_streams, n_agents)).reshape(3, -1)
        paths = np.stack([i, start + t, k], axis=1)
        words = [seed_words(seed, paths).reshape(n, n_streams, n_agents, 4) for seed in seeds]
        words = np.stack(words, axis=2).reshape(n, n_streams, rows, 4)
        if skip:
            epochs = words[:, :n_epochs]
            epochs[...] = skip_words(epochs.reshape(-1, 4), skip).reshape(epochs.shape)
        yield from words


def _local_phases(q_bar: np.ndarray, mdp: TabularMDP, etas: list[tuple[float, slice]], words: np.ndarray,
                  rows: np.ndarray, shared: bool, noisy: bool, index: np.ndarray | None = None) -> np.ndarray:
    """One round's local phases of every agent of R runs: shape (R·I, S, A).

    ``q_bar`` holds the R broadcast tables and ``words`` that round's
    (K, U·I, 4) slice of :func:`_round_words`; row r·I + i starts from
    ``q_bar[r]``, and its epoch k updates from the sample table of the
    stream seeded by ``words[k, rows[r·I + i]]``, damped by the eta that
    ``etas`` gives its block of rows.  Each stream's table is drawn once,
    however many rows read it; ``shared`` says whether some row reads a
    stream row other than its own, ``noisy`` whether the rewards are.

    Every epoch reads the rows' next states from one :func:`_gather_index`
    and makes the operations :func:`~fedq.bellman.empirical_bellman` makes
    on the drawn table: the gather, times gamma, plus the rewards.  A
    given ``index`` (w = 1: the next states are known before any draw)
    serves every epoch, which then draws only the rewards, from streams
    seeded past their uniform block (:func:`_round_words`' skip), with
    :func:`~fedq.mdp.rewards_from_normals`; with None, each epoch draws
    its next-state tables and builds its own.  With noiseless rewards
    every stream's rewards are the mean rewards, so an epoch with an
    index builds no generator.
    """
    q = np.repeat(q_bar, len(rows) // len(q_bar), axis=0)
    rewards, epoch_index = mdp.reward_mean, index
    for epoch_words in words:
        if index is None:
            next_states, drawn = synchronous_sample_batch(mdp, generators(epoch_words))
            epoch_index = _gather_index(next_states, rows)
        elif noisy:
            drawn = rewards_from_normals(mdp, generators(epoch_words))
        if noisy:
            rewards = drawn.take(rows, axis=0) if shared else drawn
        target = state_values(q).take(epoch_index)
        target *= mdp.gamma
        target += rewards
        q = _damped(q, target, etas)
    return q


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


def _running_min(current: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fold run r's row of ``values`` into ``current[r]``; NaN stands for no value and is skipped."""
    return np.fmin(current, np.fmin.reduce(values.reshape(len(current), -1), axis=1))


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
            started = time.perf_counter()
            batch_results = _run_group([configs[i] for i in batch], mdp, q_star)
            seconds = (time.perf_counter() - started) / len(batch)
            for index, result in zip(batch, batch_results):
                result.seconds = seconds
                results[index] = result
    return results


def _run_group(configs: list[ExperimentConfig], mdp: TabularMDP, q_star: np.ndarray) -> list[RunResult]:
    """The federated loop of one run per config; the configs agree on the loop's shape, ``_SHARED``.

    Each run starts from its own q0 and keeps its own eta and beta: the
    damped update runs once per contiguous block of configs with one eta,
    and the server step scales each run's sum by its own beta / I.  Each
    contiguous block of configs with one :func:`_arm` key is one arm,
    compressed in one call under its runs' budgets; the identity's arm
    uploads its pending rows as they are.  On a table with one successor
    per row (w = 1), the gather index of the R·I rows is built once, here,
    from ``succ``; on w > 1 each epoch builds its own from its draw.
    The round loop does only what the next round needs: local phases,
    compression, residual, server step and errors.  It records each run's
    kept entries per round in a (T, R) array and its two errors in
    (T+1, R) arrays; the bits and trace rows are built from them once the
    loop ends.  A sparsified_k arm reads its uniforms from one (U·I, d)
    block per round, drawn once per distinct compressor stream.
    """
    config = configs[0]
    n_runs, n_agents, d = len(configs), config.n_agents, mdp.table_size
    n_epochs, n_rounds = config.local_epochs, config.rounds
    # Each distinct seed's streams fill I of the U·I stream rows; stream_rows[r·I + i] is the
    # stream row of run r's agent i
    seeds = list(dict.fromkeys(c.master_seed for c in configs))
    slot = {seed: u for u, seed in enumerate(seeds)}
    stream_rows = (np.array([slot[c.master_seed] for c in configs])[:, None] * n_agents
                   + np.arange(n_agents)).ravel()
    # one arm per contiguous block of runs with one (kind, rule, mode), each compressed in one call
    # under its rows' budgets: one int when its runs agree on k, else one budget per row
    arms = []
    for (_, _, mode), runs, rows in _blocks(configs, _arm, n_agents):
        ks = [c.compressor.k for c in configs[runs]]
        budget = ks[0] if len(set(ks)) == 1 else np.repeat(ks, n_agents)
        arms.append((configs[runs.start].compressor, budget, mode, runs, rows))
    etas = [(eta, rows) for eta, _, rows in _blocks(configs, operator.attrgetter("eta"), n_agents)]
    betas = np.array([c.beta for c in configs], dtype=np.float64)
    # only random compressors consume a stream; its path is pinned to (agent, round, K)
    sparsified = any(spec.kind == SPARSIFIED_K for spec, *_ in arms)
    n_streams = n_epochs + 1 if sparsified else n_epochs

    q0 = np.array([c.q0 for c in configs], dtype=np.float64)
    q_bar = np.repeat(q0, d).reshape(n_runs, mdp.n_states, mdp.n_actions)
    # error-feedback memory; only the rows of error-feedback arms are read or written
    has_ef = any(mode == ERROR_FEEDBACK for _, _, mode, _, _ in arms)
    residual = np.zeros((n_runs * n_agents, d)) if has_ef else None
    alpha_min, p_support_min = np.full(n_runs, np.nan), np.full(n_runs, np.nan)
    entries = np.zeros((n_rounds, n_runs), dtype=np.int64)
    rmses, linfs = np.empty((n_rounds + 1, n_runs)), np.empty((n_rounds + 1, n_runs))
    rmses[0], linfs[0] = errors_batch(q_bar, q_star)

    index = _gather_index(mdp.succ.reshape(1, mdp.n_states, mdp.n_actions),
                          np.zeros(n_runs * n_agents, dtype=np.int64)) if mdp.succ.shape[1] == 1 else None
    noisy = mdp.noise.std > 0.0
    shared = not np.array_equal(stream_rows, np.arange(len(stream_rows)))  # row i does not read stream row i
    # a w = 1 epoch reads only its normals: its streams are seeded past their S·A uniforms
    skip = d if index is not None and noisy else 0
    for t, words in enumerate(_round_words(seeds, n_agents, n_rounds, n_streams, n_epochs, skip)):
        q_local = _local_phases(q_bar, mdp, etas, words[:n_epochs], stream_rows, shared, noisy, index)
        pending = (q_local.reshape(n_runs, n_agents, d) - q_bar.reshape(n_runs, 1, d)).reshape(-1, d)
        if sparsified:
            uniforms = np.empty((len(words[n_epochs]), d))
            for rng, row in zip(generators(words[n_epochs]), uniforms):
                rng.random(out=row)
        for spec, budget, mode, runs, rows in arms:
            arm_pending = pending[rows]
            if mode == ERROR_FEEDBACK:
                arm_pending += residual[rows]
            if spec.kind == IDENTITY:  # the upload is pending itself, every entry of it
                sent, entries[t, runs] = arm_pending, n_agents * d
            else:
                payload = compress_batch(arm_pending, spec,
                                         uniforms[stream_rows[rows]] if spec.kind == SPARSIFIED_K else None,
                                         budget)
                sent = payload.sent
                if payload.alpha is not None:
                    alpha_min[runs] = _running_min(alpha_min[runs], payload.alpha)
                if payload.p is not None:
                    support = np.where(payload.p > 0, payload.p, np.nan)
                    p_support_min[runs] = _running_min(p_support_min[runs], support)
                entries[t, runs] = payload.kept.reshape(-1, n_agents * d).sum(axis=1)
            if mode == ERROR_FEEDBACK:
                np.subtract(arm_pending, sent, out=residual[rows])
            if sent is not arm_pending:
                arm_pending[...] = sent  # pending's rows become the uploads

        q_bar = _server_step(q_bar, pending, betas)
        rmses[t + 1], linfs[t + 1] = errors_batch(q_bar, q_star)

    return [
        RunResult(metrics=_trace(c, d, run_entries, e2, e_inf), q_final=q,
                  alpha_min=_or_none(alpha), p_support_min=_or_none(p))
        for c, run_entries, e2, e_inf, q, alpha, p in zip(
            configs, entries.T.tolist(), rmses.T.tolist(), linfs.T.tolist(), q_bar, alpha_min, p_support_min)
    ]


def _trace(config: ExperimentConfig, d: int, entries: list[int], rmses: list[float],
           linfs: list[float]) -> list[RoundMetrics]:
    """A run's trace rows from its kept entries per round and its errors per trace row.

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
    return list(map(RoundMetrics, range(len(rmses)), rmses, linfs, bits, itertools.accumulate(bits),
                    [0] + entries))


def _or_none(value: np.floating) -> float | None:
    return None if np.isnan(value) else float(value)
