"""Exact and empirical Bellman operators, the fixed-point solver, and the
error metrics used to score learned Q-tables.

A Q-table is a plain float64 array of shape (S, A).  The exact operator
takes the expectation over the MDP's successor table; the empirical operator
plugs in one sampled next state and one sampled reward per (s, a) and is
an unbiased single-sample estimate of the exact one.
"""
from __future__ import annotations

import numpy as np

from .errors import NotConvergedError, ShapeMismatchError, check_count, check_interval
from .mdp import TabularMDP


def _check_shape(q: np.ndarray, mdp: TabularMDP) -> None:
    if q.shape != (mdp.n_states, mdp.n_actions):
        raise ShapeMismatchError(
            f"Q-table shape {q.shape} does not match MDP ({mdp.n_states}, {mdp.n_actions})"
        )


def state_values(q: np.ndarray) -> np.ndarray:
    """``max_a q[..., a]``: the state values of a table, or of a batch of tables.

    A left-to-right ``np.maximum`` fold over the action axis.  It visits
    the actions in the same order as ``q.max(axis=-1)`` and so returns the
    same bits (signed zeros and infinities included), but it runs as A - 1
    whole-array calls instead of one tiny reduction per state.
    """
    v = q[..., 0]
    for a in range(1, q.shape[-1]):
        v = np.maximum(v, q[..., a])
    return v


def exact_bellman(mdp: TabularMDP, q: np.ndarray) -> np.ndarray:
    """Apply the population Bellman optimality operator.

    ``out[s, a] = reward_mean[s, a] + gamma * sum_s' P(s'|s,a) * max_a' q[s', a']``
    """
    q = np.asarray(q, dtype=np.float64)
    _check_shape(q, mdp)
    v = state_values(q)
    expected = (mdp.succ_p * v[mdp.succ]).sum(axis=1).reshape(q.shape)
    return mdp.reward_mean + mdp.gamma * expected


def empirical_bellman(
    q: np.ndarray, next_states: np.ndarray, rewards: np.ndarray, gamma: float
) -> np.ndarray:
    """Single-sample Bellman estimate from one synchronous sample table.

    ``out[s, a] = rewards[s, a] + gamma * max_a' q[next_states[s, a], a']``

    Leading axes are a batch: with arrays of shape (I, S, A), table i reads
    its next states and rewards from row i.
    """
    q = np.asarray(q, dtype=np.float64)
    next_states = np.asarray(next_states)
    rewards = np.asarray(rewards, dtype=np.float64)
    if q.shape != next_states.shape or q.shape != rewards.shape:
        raise ShapeMismatchError(
            f"shapes differ: q {q.shape}, next_states {next_states.shape}, rewards {rewards.shape}"
        )
    v = state_values(q)
    # offset each table's next states into the flattened batch of state values
    n_states = q.shape[-2]
    offsets = np.arange(0, v.size, n_states).reshape(q.shape[:-2] + (1, 1))
    return rewards + gamma * v.take(next_states + offsets)


def value_iteration(mdp: TabularMDP, tol: float = 1e-10, max_iter: int = 100_000) -> np.ndarray:
    """Iterate the exact operator from Q = 0 until the residual is small.

    Returns a table Q with ``||T(Q) - Q||_inf <= tol``; by the gamma
    contraction the true fixed-point error is at most
    ``tol * gamma / (1 - gamma)``.
    """
    check_interval("tol", tol)
    max_iter = check_count("max_iter", max_iter, 1)
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(max_iter):
        q_next = exact_bellman(mdp, q)
        if np.max(np.abs(q_next - q)) <= tol:
            return q_next
        q = q_next
    raise NotConvergedError(f"value iteration did not reach tol={tol} in {max_iter} iterations")


def greedy_policy(q: np.ndarray) -> np.ndarray:
    """Greedy action per state; ties break toward the lowest action index."""
    return np.asarray(q).argmax(axis=1)


def rmse(q: np.ndarray, q_ref: np.ndarray) -> float:
    """Root mean square error between two Q-tables, averaged over all entries."""
    q = np.asarray(q, dtype=np.float64)
    q_ref = np.asarray(q_ref, dtype=np.float64)
    if q.shape != q_ref.shape:
        raise ShapeMismatchError(f"shapes differ: {q.shape} vs {q_ref.shape}")
    return float(np.sqrt(np.mean((q - q_ref) ** 2)))


def linf_error(q: np.ndarray, q_ref: np.ndarray) -> float:
    """Sup-norm distance between two Q-tables."""
    q = np.asarray(q, dtype=np.float64)
    q_ref = np.asarray(q_ref, dtype=np.float64)
    if q.shape != q_ref.shape:
        raise ShapeMismatchError(f"shapes differ: {q.shape} vs {q_ref.shape}")
    return float(np.max(np.abs(q - q_ref)))

