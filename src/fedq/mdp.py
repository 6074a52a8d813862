"""Finite MDPs with generative-model (synchronous) sampling.

A :class:`TabularMDP` stores its transition kernel as a padded successor
table, plus a mean-reward table.  Sampling follows the generative-model
access pattern: one next state is drawn for *every* (state, action) pair
at once, rather than along a trajectory.  Observed rewards are the mean
reward plus clipped Gaussian noise; transitions themselves are sampled
from the kernel.  :func:`rewards_from_normals` draws the rewards alone,
for a caller whose streams already stand at their normal block (seeded
there by :func:`~fedq.rng.skip_words`), as on a table with one successor
per row.

The successor table lists, for each of the S * A rows, the w states the
row can move to, where w is the largest out-degree (w = 1 on every grid
world).  Memory, validation, sampling and the exact Bellman operator
therefore all cost O(S * A * w), not O(S^2 * A).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGammaError, ParamOutOfRangeError, check_array, check_ids, check_interval

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class NoiseSpec:
    """Additive reward noise: ``clip(N(0, std^2), -clip, +clip)``.

    ``std == 0`` means noiseless rewards; the draw is skipped entirely.
    Both are kept as Python floats, whatever numeric type was passed.
    """

    std: float = 0.0
    clip: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "std", check_interval("noise std", self.std, closed="[)"))
        object.__setattr__(self, "clip", check_interval("noise clip", self.clip, closed="[)"))


class TabularMDP:
    """Immutable finite MDP.

    Parameters
    ----------
    succ, succ_p:
        The successor table: arrays of shape (S * A, w), w >= 1.  Row
        ``s * A + a`` is the distribution of the next state after action
        a in state s: it moves to ``succ[row, j]`` with probability
        ``succ_p[row, j]``.  ``succ`` holds integer states in [0, S);
        ``succ_p`` is non-negative and every row sums to 1 within 1e-12.
        Rows with fewer than w successors are padded with probability 0.
    reward_mean:
        Array of shape (S, A) with ``|reward_mean| <= r_max`` everywhere.
    gamma:
        Discount factor in (0, 1), kept as a Python float, as is ``r_max``.
    noise:
        Reward noise specification, a :class:`NoiseSpec`.
    r_max:
        Bound on the mean reward magnitude, carried through the
        convergence-bound formulas.

    Attributes
    ----------
    succ, succ_p, succ_cum:
        Read-only copies of the table, ``succ`` as int64, plus
        ``succ_cum``, the running sums of ``succ_p`` along each row.
        From each row's last positive slot onward ``succ_cum`` is 1.0, so
        a uniform in [0, 1) always lands on a successor with positive
        probability, never on padding.
    """

    def __init__(
        self,
        succ: np.ndarray,
        succ_p: np.ndarray,
        reward_mean: np.ndarray,
        gamma: float,
        noise: NoiseSpec = NoiseSpec(),
        r_max: float = 1.0,
    ) -> None:
        reward_mean = check_array("reward_mean", reward_mean, ndim=2, error=ParamOutOfRangeError)
        n_states, n_actions = reward_mean.shape
        succ = check_ids("succ's integer states", succ, n_states)
        succ_p = check_array("succ_p", succ_p, error=ParamOutOfRangeError)
        if succ.ndim != 2 or succ.shape != succ_p.shape or len(succ) != reward_mean.size or succ.size == 0:
            raise ParamOutOfRangeError(
                f"succ and succ_p must both have shape (S * A, w) with S * A = {reward_mean.size} >= 1 "
                f"and w >= 1; got {succ.shape} and {succ_p.shape}"
            )
        gamma, r_max = check_interval("gamma", gamma, 0, 1, error=InvalidGammaError), check_interval("r_max", r_max)
        if not isinstance(noise, NoiseSpec):
            raise ParamOutOfRangeError(f"noise must be a NoiseSpec, got {noise!r}")
        if not np.all(succ_p >= 0):
            raise ParamOutOfRangeError("succ_p must be non-negative")
        if not np.all(np.abs(succ_p.sum(axis=1) - 1.0) <= _ROW_SUM_TOL):
            raise ParamOutOfRangeError("every succ_p row must sum to 1 within 1e-12")
        if not np.all(np.abs(reward_mean) <= r_max):
            raise ParamOutOfRangeError("|reward_mean| must not exceed r_max")

        self.n_states, self.n_actions = n_states, n_actions
        self.reward_mean = reward_mean.copy()
        self.gamma = gamma
        self.noise = noise
        self.r_max = r_max

        width = succ.shape[1]
        self.succ = succ.copy()
        self.succ_p = succ_p.copy()
        self.succ_cum = np.cumsum(succ_p, axis=1)
        last = width - 1 - np.argmax(succ_p[:, ::-1] > 0, axis=1)  # each row's last positive slot
        self.succ_cum[np.arange(width) >= last[:, None]] = 1.0
        self._row_start = np.arange(0, self.succ.size, width)  # flat index of each row's slot 0

        for arr in (self.reward_mean, self.succ, self.succ_p, self.succ_cum, self._row_start):
            arr.setflags(write=False)

    @property
    def table_size(self) -> int:
        """Flat dimension of a Q-table on this MDP: S * A."""
        return self.n_states * self.n_actions

    @property
    def transition(self) -> np.ndarray:
        """Dense (S, A, S) kernel, built from the successor table on each access.

        A read-only view for inspection and reports; it costs S^2 * A
        floats, so no sampling or Bellman path reads it.
        """
        dense = np.zeros((self.table_size, self.n_states))
        # add, not assign: a row may list a column twice (padding repeats one at probability 0)
        np.add.at(dense, (np.arange(self.table_size)[:, None], self.succ), self.succ_p)
        dense.setflags(write=False)
        return dense.reshape(self.n_states, self.n_actions, self.n_states)


def synchronous_sample(mdp: TabularMDP, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample one next state and one noisy reward for every (s, a) pair.

    Consumes an (S, A) block of uniforms for the next states followed by
    an (S, A) block of Gaussians for the rewards (the Gaussian block is
    skipped when the noise std is zero).  Entries are mutually
    independent given the stream, and identical stream state reproduces
    identical tables bit for bit.

    ``rng`` is a ``numpy.random.Generator`` or anything with the two
    members sampling calls: ``random(out=)`` and ``standard_normal(out=)``
    (noisy rewards).  Each standard normal z becomes ``0.0 + std * z``,
    the operations ``rng.normal(0.0, std)`` performs, so the rewards keep
    its bits.  Every table draws its uniform block, whatever its number
    of successors per row: on a table with one (every grid world) each
    uniform picks slot 0.
    """
    next_states, rewards = synchronous_sample_batch(mdp, [rng])
    return next_states[0], rewards[0]


def synchronous_sample_batch(mdp: TabularMDP, rngs) -> tuple[np.ndarray, np.ndarray]:
    """One :func:`synchronous_sample` table per generator, stacked: shape (I, S, A).

    Generator i draws its uniform block into row i with ``random(out=)``,
    then :func:`rewards_from_normals` draws every generator's standard
    normals, so each stream makes the draws :func:`synchronous_sample`
    makes (a generator listed twice draws both its uniform blocks before
    its normals).  The inverse-CDF lookup runs once on the whole batch.
    The next-state table is a fresh, writable array on every call.
    """
    shape = (len(rngs), mdp.n_states, mdp.n_actions)
    u = np.empty(shape)
    for gen, row in zip(rngs, u):
        gen.random(out=row)
    # Running sums below 1.0 are non-decreasing and u < 1.0, so the count of
    # sums <= u is the first slot with u < sum: the inverse-CDF pick.
    slot = (u.reshape(len(rngs), -1, 1) >= mdp.succ_cum).sum(axis=-1)
    return mdp.succ.take(mdp._row_start + slot).reshape(shape), rewards_from_normals(mdp, rngs)


def rewards_from_normals(mdp: TabularMDP, rngs) -> np.ndarray:
    """The rewards of generators that stand at their normal block: shape (I, S, A).

    Generator i draws its (S, A) standard normals into row i with
    ``standard_normal(out=)``; the whole batch is then scaled as
    ``0.0 + std * z``, the operations ``Generator.normal(0.0, std)``
    performs, so a -0.0 draw becomes +0.0, clipped to the noise band and
    added to the mean rewards.  Noiseless rewards are the mean rewards,
    and no generator draws.
    """
    if mdp.noise.std == 0.0:
        return np.repeat(mdp.reward_mean[None], len(rngs), axis=0)
    g = np.empty((len(rngs), mdp.n_states, mdp.n_actions))
    for gen, row in zip(rngs, g):
        gen.standard_normal(out=row)
    g *= mdp.noise.std
    g += 0.0  # Generator.normal's loc + scale * z with loc 0.0: a -0.0 draw becomes +0.0
    np.clip(g, -mdp.noise.clip, mdp.noise.clip, out=g)
    return np.add(mdp.reward_mean, g, out=g)
