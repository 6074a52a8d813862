"""Finite MDPs with generative-model (synchronous) sampling.

A :class:`TabularMDP` stores a full transition kernel and mean-reward
table.  Sampling follows the generative-model access pattern: one next
state is drawn for *every* (state, action) pair at once, rather than
along a trajectory.  Observed rewards are the mean reward plus clipped
Gaussian noise; transitions themselves are sampled from the kernel.
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
        within 1e-12.
    reward_mean:
        Array of shape (S, A) with ``|reward_mean| <= r_max`` everywhere.
    gamma:
        Discount factor in (0, 1).
    noise:
        Reward noise specification.
    r_max:
        Bound on the mean reward magnitude, carried through the
        convergence-bound formulas.
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

        # Inverse-CDF table; the final column is forced to exactly 1.0 so a
        # uniform draw in [0, 1) can never fall off the end.
        cum = np.cumsum(transition, axis=2)
        cum[:, :, -1] = 1.0
        self._cum = cum

        for arr in (self.transition, self.reward_mean, self._cum):
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
    next_states = np.argmax(u[:, :, None] < mdp._cum, axis=2)
    if mdp.noise.std > 0.0:
        g = gen.normal(0.0, mdp.noise.std, shape)
        np.clip(g, -mdp.noise.clip, mdp.noise.clip, out=g)
        rewards = mdp.reward_mean + g
    else:
        rewards = mdp.reward_mean.copy()
    return next_states, rewards
