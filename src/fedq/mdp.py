"""Finite MDPs with generative-model (synchronous) sampling.

A :class:`TabularMDP` stores a transition kernel and mean-reward table.
Sampling follows the generative-model access pattern: one next state is
drawn for *every* (state, action) pair at once, rather than along a
trajectory.  Observed rewards are the mean reward plus clipped Gaussian
noise; transitions themselves are sampled from the kernel.

Sampling and the exact Bellman operator read the kernel through a padded
successor table: for each of the S * A rows, the w columns with non-zero
probability, where w is the largest out-degree (w = 1 on every grid
world).  Both therefore cost O(S * A * w), not O(S^2 * A).  The dense
(S, A, S) kernel is still kept as the public ``transition`` attribute,
because callers index it and the benchmark reports its size; it is what
limits the map size today (about 3 GB at 100x100).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGammaError, ParamOutOfRangeError
from .rng import as_generator

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class NoiseSpec:
    """Additive reward noise: ``clip(N(0, std^2), -clip, +clip)``.

    ``std == 0`` means noiseless rewards; the draw is skipped entirely.
    """

    std: float = 0.0
    clip: float = 0.0

    def __post_init__(self) -> None:
        if self.std < 0 or self.clip < 0:
            raise ParamOutOfRangeError("noise std and clip must be non-negative")


class TabularMDP:
    """Immutable finite MDP.

    Parameters
    ----------
    transition:
        Array of shape (S, A, S); ``transition[s, a]`` is the distribution
        of the next state.  Every row must be non-negative and sum to 1
        within 1e-12.  It is kept, read-only, as the ``transition``
        attribute; the sampler and the exact Bellman operator do not read
        it.
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
        The successor table: read-only arrays of shape (S * A, w), row
        ``s * A + a`` describing ``transition[s, a]``.  ``succ`` holds the
        columns with non-zero probability in ascending order, ``succ_p``
        their probabilities and ``succ_cum`` the running sums of
        ``succ_p``.  Rows with fewer than w successors are padded with
        their last column at probability 0.  The last real running sum
        and all padding are 1.0, so a uniform in [0, 1) always lands on
        a successor, never on a zero-probability state.
    """

    def __init__(
        self,
        transition: np.ndarray,
        reward_mean: np.ndarray,
        gamma: float,
        noise: NoiseSpec = NoiseSpec(),
        r_max: float = 1.0,
    ) -> None:
        transition = np.asarray(transition, dtype=np.float64)
        reward_mean = np.asarray(reward_mean, dtype=np.float64)
        if transition.ndim != 3 or transition.shape[0] != transition.shape[2]:
            raise ParamOutOfRangeError("transition must have shape (S, A, S)")
        n_states, n_actions = transition.shape[:2]
        if reward_mean.shape != (n_states, n_actions):
            raise ParamOutOfRangeError("reward_mean must have shape (S, A)")
        if not 0.0 < gamma < 1.0:
            raise InvalidGammaError(f"gamma must lie in (0, 1), got {gamma}")
        if r_max <= 0:
            raise ParamOutOfRangeError("r_max must be positive")
        if np.any(transition < 0):
            raise ParamOutOfRangeError("transition probabilities must be non-negative")
        row_sums = transition.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > _ROW_SUM_TOL:
            raise ParamOutOfRangeError("every transition row must sum to 1 within 1e-12")
        if np.max(np.abs(reward_mean)) > r_max:
            raise ParamOutOfRangeError("|reward_mean| must not exceed r_max")

        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.transition = transition
        self.reward_mean = reward_mean
        self.gamma = float(gamma)
        self.noise = noise
        self.r_max = float(r_max)

        # np.nonzero lists each row's columns in ascending order.  Skipped
        # columns have probability exactly 0, so the running sums at the
        # successors equal the dense cumsum there bit for bit.
        flat = transition.reshape(-1, n_states)
        rows, cols = np.nonzero(flat)
        counts = np.bincount(rows, minlength=flat.shape[0])
        ends = np.cumsum(counts)
        slot = np.arange(rows.size) - (ends - counts)[rows]
        width = int(counts.max())
        self.succ = np.repeat(cols[ends - 1, None], width, axis=1)
        self.succ[rows, slot] = cols
        self.succ_p = np.zeros(self.succ.shape)
        self.succ_p[rows, slot] = flat[rows, cols]
        self.succ_cum = np.cumsum(self.succ_p, axis=1)
        self.succ_cum[np.arange(width) >= (counts - 1)[:, None]] = 1.0
        self._row_start = np.arange(0, self.succ.size, width)  # flat index of each row's slot 0

        for arr in (self.transition, self.reward_mean, self.succ, self.succ_p, self.succ_cum,
                    self._row_start):
            arr.setflags(write=False)

    @property
    def table_size(self) -> int:
        """Flat dimension of a Q-table on this MDP: S * A."""
        return self.n_states * self.n_actions


def synchronous_sample(mdp: TabularMDP, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sample one next state and one noisy reward for every (s, a) pair.

    Consumes an (S, A) block of uniforms for the next states followed by
    an (S, A) block of Gaussians for the rewards (the Gaussian block is
    skipped when the noise std is zero).  Entries are mutually
    independent given the stream, and identical stream state reproduces
    identical tables bit for bit.
    """
    gen = as_generator(rng)
    shape = (mdp.n_states, mdp.n_actions)
    u = gen.random(shape)
    # Running sums below 1.0 are non-decreasing and u < 1.0, so the count of
    # sums <= u is the first slot with u < sum: the inverse-CDF pick.
    slot = (u.reshape(-1, 1) >= mdp.succ_cum).sum(axis=1)
    next_states = mdp.succ.take(mdp._row_start + slot).reshape(shape)
    if mdp.noise.std > 0.0:
        g = gen.normal(0.0, mdp.noise.std, shape)
        np.clip(g, -mdp.noise.clip, mdp.noise.clip, out=g)
        rewards = mdp.reward_mean + g
    else:
        rewards = mdp.reward_mean.copy()
    return next_states, rewards
