"""Finite MDPs with generative-model (synchronous) sampling.

A :class:`TabularMDP` stores its transition kernel as a padded successor
table, plus a mean-reward table.  Sampling follows the generative-model
access pattern: one next state is drawn for *every* (state, action) pair
at once, rather than along a trajectory.  Observed rewards are the mean
reward plus clipped Gaussian noise; transitions themselves are sampled
from the kernel.

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
    """

    std: float = 0.0
    clip: float = 0.0

    def __post_init__(self) -> None:
        check_interval("noise std", self.std, closed="[)")
        check_interval("noise clip", self.clip, closed="[)")


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
        Discount factor in (0, 1).
    noise:
        Reward noise specification.
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
        check_interval("gamma", gamma, 0, 1, error=InvalidGammaError)
        check_interval("r_max", r_max)
        if not np.all(succ_p >= 0):
            raise ParamOutOfRangeError("succ_p must be non-negative")
        if not np.all(np.abs(succ_p.sum(axis=1) - 1.0) <= _ROW_SUM_TOL):
            raise ParamOutOfRangeError("every succ_p row must sum to 1 within 1e-12")
        if not np.all(np.abs(reward_mean) <= r_max):
            raise ParamOutOfRangeError("|reward_mean| must not exceed r_max")

        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.reward_mean = reward_mean.copy()
        self.gamma = float(gamma)
        self.noise = noise
        self.r_max = float(r_max)

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

    ``rng`` is a ``numpy.random.Generator`` or anything with the four
    members sampling calls: ``bit_generator``, ``random(out=)`` (w > 1),
    ``random(size)`` (w = 1 on a bit generator other than PCG64 or
    PCG64DXSM) and ``standard_normal(out=)`` (noisy rewards).  Each
    standard normal z becomes ``0.0 + std * z``, the operations
    ``rng.normal(0.0, std)`` performs, so the rewards keep its bits.

    A table with one successor per row (w = 1, every grid world) knows
    its next states before any draw.  On a PCG64 or PCG64DXSM stream
    (every :class:`~fedq.rng.RngStream` and ``default_rng`` generator) it
    skips its uniform block with ``rng.bit_generator.advance(S * A)``,
    which leaves the stream where drawing the block would; numpy drops a
    buffered 32-bit half on ``advance``, so the next double, normal or
    64-bit draw is unchanged.  Any other bit generator lacks ``advance``
    or counts it differently, so it draws the block and drops it.
    """
    next_states, rewards = synchronous_sample_batch(mdp, [rng])
    return next_states[0], rewards[0]


def synchronous_sample_batch(mdp: TabularMDP, rngs) -> tuple[np.ndarray, np.ndarray]:
    """One :func:`synchronous_sample` table per generator, stacked: shape (I, S, A).

    Generator i draws its uniform block into row i with ``random(out=)``
    (or, when w = 1, skips it by ``advance`` on PCG64 or PCG64DXSM, or
    draws it with ``random(size)`` and drops it), then draws its standard
    normals into row i with ``standard_normal(out=)``, exactly as
    :func:`synchronous_sample` would.  The scale ``0.0 + std * z``, the
    inverse-CDF lookup and the reward clip then run once on the whole batch.
    """
    shape = (len(rngs), mdp.n_states, mdp.n_actions)
    noisy = mdp.noise.std > 0.0
    certain = mdp.succ.shape[1] == 1  # w = 1: no uniform decides anything
    u = None if certain else np.empty(shape)
    g = np.empty(shape) if noisy else None
    if certain:  # looked up here, where generators exist: importing fedq must not load numpy.random
        from numpy.random import PCG64, PCG64DXSM
    for i, gen in enumerate(rngs):
        if not certain:
            gen.random(out=u[i])
        elif isinstance(bits := gen.bit_generator, (PCG64, PCG64DXSM)):
            bits.advance(mdp.table_size)
        else:  # no advance, or one that counts otherwise: draw the block and drop it
            gen.random(shape[1:])
        if noisy:
            gen.standard_normal(out=g[i])
    if certain:
        next_states = np.repeat(mdp.succ.reshape(1, *shape[1:]), len(rngs), axis=0)  # fresh and writable
    else:
        # Running sums below 1.0 are non-decreasing and u < 1.0, so the count of
        # sums <= u is the first slot with u < sum: the inverse-CDF pick.
        slot = (u.reshape(len(rngs), -1, 1) >= mdp.succ_cum).sum(axis=-1)
        next_states = mdp.succ.take(mdp._row_start + slot).reshape(shape)
    if noisy:
        g *= mdp.noise.std
        g += 0.0  # Generator.normal's loc + scale * z with loc 0.0: a -0.0 draw becomes +0.0
        np.clip(g, -mdp.noise.clip, mdp.noise.clip, out=g)
        rewards = np.add(mdp.reward_mean, g, out=g)
    else:
        rewards = np.repeat(mdp.reward_mean[None], len(rngs), axis=0)
    return next_states, rewards
