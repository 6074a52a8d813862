import numpy as np
import pytest

import fedq


@pytest.fixture(scope="session")
def map5x5_grid():
    return fedq.load_map("map5x5")


@pytest.fixture(scope="session")
def map5x5_mdp(map5x5_grid):
    """Noiseless 5x5 open room, gamma 0.8."""
    return fedq.build_gridworld(map5x5_grid, gamma=0.8)


@pytest.fixture(scope="session")
def map5x5_noisy(map5x5_grid):
    return fedq.build_gridworld(map5x5_grid, noise=fedq.NoiseSpec(std=0.5, clip=0.5), gamma=0.8)


@pytest.fixture(scope="session")
def map5x5_qstar(map5x5_mdp):
    return fedq.value_iteration(map5x5_mdp, tol=1e-10)


def random_mdp(rng: np.random.Generator, n_states=4, n_actions=3, gamma=0.8, noise=None) -> fedq.TabularMDP:
    """Small random stochastic MDP for property tests."""
    raw = rng.random((n_states, n_actions, n_states)) + 0.05
    transition = raw / raw.sum(axis=2, keepdims=True)
    reward_mean = rng.uniform(-1.0, 1.0, (n_states, n_actions))
    return fedq.TabularMDP(
        transition=transition,
        reward_mean=reward_mean,
        gamma=gamma,
        noise=noise or fedq.NoiseSpec(),
        r_max=1.0 + (noise.clip if noise else 0.0),
    )


def sparse_random_mdp(rng: np.random.Generator, n_states=7, n_actions=3, zero_frac=0.6) -> fedq.TabularMDP:
    """Random kernel with about ``zero_frac`` zero entries and rows of varying out-degree."""
    shape = (n_states, n_actions, n_states)
    raw = rng.random(shape) * (rng.random(shape) >= zero_frac)
    empty = raw.sum(axis=2) == 0
    raw[empty, rng.integers(n_states, size=int(empty.sum()))] = 1.0
    transition = raw / raw.sum(axis=2, keepdims=True)
    return fedq.TabularMDP(transition, rng.uniform(-1.0, 1.0, (n_states, n_actions)), gamma=0.8)
