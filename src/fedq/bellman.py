"""Exact and empirical Bellman operators, the fixed-point solver, and the
error metrics used to score learned Q-tables.

A Q-table is a plain float64 array of shape (S, A).  The exact operator
takes the expectation over the MDP's successor table; the empirical operator
plugs in one sampled next state and one sampled reward per (s, a) and is
an unbiased single-sample estimate of the exact one.
"""
from __future__ import annotations

import numpy as np

from .errors import (InvalidGammaError, NotConvergedError, ShapeMismatchError, check_array, check_count, check_ids,
                     check_interval)
from .mdp import TabularMDP


def state_values(q: np.ndarray) -> np.ndarray:
    """``max_a q[..., a]``: the state values of a table, or of a batch of tables.

    A left-to-right ``np.maximum`` fold over the action axis, in A - 1 whole-array
    calls.  The fold is the contract: each entry has the bits of folding its row's
    scalars in order with ``np.maximum``, signed zeros and infinities included, which
    ``q.max(axis=-1)`` need not give: it settles ties by the kernel the CPU dispatches.
    """
    v = q[..., 0]
    for a in range(1, q.shape[-1]):
        v = np.maximum(v, q[..., a])
    return v


def exact_bellman(mdp: TabularMDP, q: np.ndarray) -> np.ndarray:
    """Apply the population Bellman optimality operator.

    ``out[s, a] = reward_mean[s, a] + gamma * sum_s' P(s'|s,a) * max_a' q[s', a']``
    """
    q = check_array("Q-table", q, shape=(mdp.n_states, mdp.n_actions))
    v = state_values(q)
    expected = (mdp.succ_p * v[mdp.succ]).sum(axis=1).reshape(q.shape)
    return mdp.reward_mean + mdp.gamma * expected


def empirical_bellman(q: np.ndarray, next_states: np.ndarray, rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Single-sample Bellman estimate from one synchronous sample table.

    ``out[s, a] = rewards[s, a] + gamma * max_a' q[next_states[s, a], a']``

    Leading axes are a batch: with arrays of shape (I, S, A), table i reads
    its next states and rewards from row i.  Every next state must be an
    integer in [0, S), else ``ParamOutOfRangeError``; a ``q`` of fewer than
    two axes, or samples of another shape than ``q``, raises
    ``ShapeMismatchError``, as does a table with no state or no action, and
    a ``gamma`` outside (0, 1) ``InvalidGammaError``.
    """
    q, rewards = check_array("q", q), check_array("rewards", rewards)
    if q.ndim < 2 or not all(q.shape[-2:]):
        raise ShapeMismatchError(f"q must be an (S, A) table with S, A >= 1 or a batch of them, got shape {q.shape}")
    table = q.shape[-2:]
    next_states = check_ids("next states", next_states, table[0])
    if next_states.shape != q.shape or rewards.shape != q.shape:
        raise ShapeMismatchError(
            f"shapes differ: q {q.shape}, next_states {next_states.shape}, rewards {rewards.shape}"
        )
    gamma = check_interval("gamma", gamma, 0, 1, error=InvalidGammaError)
    v = state_values(q)
    # offset each table's next states into the flattened batch of state values
    index = next_states.reshape((-1,) + table) + np.arange(0, v.size, table[0]).reshape(-1, 1, 1)
    out = v.take(index)
    out *= gamma
    out += rewards.reshape((-1,) + table)
    return out.reshape(q.shape)


def value_iteration(mdp: TabularMDP, tol: float = 1e-10, max_iter: int = 100_000) -> np.ndarray:
    """Iterate the exact operator from Q = 0 until the residual is small.

    Returns a table Q with ``||T(Q) - Q||_inf <= tol``; by the gamma
    contraction the true fixed-point error is at most
    ``tol * gamma / (1 - gamma)``.
    """
    tol = check_interval("tol", tol)
    max_iter = check_count("max_iter", max_iter, 1)
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(max_iter):
        q_next = exact_bellman(mdp, q)
        if np.max(np.abs(q_next - q)) <= tol:
            return q_next
        q = q_next
    raise NotConvergedError(f"value iteration did not reach tol={tol} in {max_iter} iterations")


def greedy_policy(q: np.ndarray) -> np.ndarray:
    """Greedy action per state; ties break toward the lowest action index.

    ``q`` is an (S, A) table with A >= 1, else ``ShapeMismatchError``.
    """
    q = check_array("Q-table", q, ndim=2)
    if q.shape[1] == 0:
        raise ShapeMismatchError(f"Q-table must have at least one action, got shape {q.shape}")
    return q.argmax(axis=1)


def errors_batch(q: np.ndarray, q_ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`rmse` and :func:`linf_error` of each table of ``q``, shape (N,) + ``q_ref.shape``,
    against ``q_ref``: one ufunc reduction per metric over the (N, d) differences, the ones
    ``np.mean`` and ``np.max`` call, without their Python wrappers and with the same bits.  An empty
    batch (N = 0) gives two empty arrays; a table with no entry raises ``ShapeMismatchError``."""
    q = check_array("q", q)
    if q.ndim == 0:
        raise ShapeMismatchError("q must be a batch of tables, got a scalar")
    q_ref = check_array("q_ref", q_ref, shape=q.shape[1:])
    if not q_ref.size:
        raise ShapeMismatchError(f"tables must have at least one entry, got shape {q_ref.shape}")
    diff = q.reshape(len(q), q_ref.size) - q_ref.reshape(1, -1)
    rms = np.sqrt(np.add.reduce(diff * diff, axis=1) / diff.shape[1])
    return rms, np.maximum.reduce(np.abs(diff), axis=1)


def rmse(q: np.ndarray, q_ref: np.ndarray) -> float:
    """Root mean square error between two Q-tables, averaged over all entries: a batch of one."""
    return float(errors_batch(check_array("q", q)[None], q_ref)[0][0])


def linf_error(q: np.ndarray, q_ref: np.ndarray) -> float:
    """Sup-norm distance between two Q-tables: a batch of one."""
    return float(errors_batch(check_array("q", q)[None], q_ref)[1][0])
