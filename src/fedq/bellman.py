"""Exact and empirical Bellman operators, the fixed-point solver, and the
error metrics used to score learned Q-tables.

A Q-table is a plain float64 array of shape (S, A).  The exact operator
takes the expectation over the MDP's successor table; the empirical operator
plugs in one sampled next state and one sampled reward per (s, a) and is
an unbiased single-sample estimate of the exact one.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import NotConvergedError, ParamOutOfRangeError, ShapeMismatchError
from .mdp import TabularMDP


def _check_shape(q: np.ndarray, mdp: TabularMDP) -> None:
    if q.shape != (mdp.n_states, mdp.n_actions):
        raise ShapeMismatchError(
            f"Q-table shape {q.shape} does not match MDP ({mdp.n_states}, {mdp.n_actions})"
        )


def exact_bellman(mdp: TabularMDP, q: np.ndarray) -> np.ndarray:
    """Apply the population Bellman optimality operator.

    ``out[s, a] = reward_mean[s, a] + gamma * sum_s' P(s'|s,a) * max_a' q[s', a']``
    """
    q = np.asarray(q, dtype=np.float64)
    _check_shape(q, mdp)
    v = q.max(axis=1)
    expected = (mdp.succ_p * v[mdp.succ]).sum(axis=1).reshape(q.shape)
    return mdp.reward_mean + mdp.gamma * expected


def empirical_bellman(
    q: np.ndarray, next_states: np.ndarray, rewards: np.ndarray, gamma: float
) -> np.ndarray:
    """Single-sample Bellman estimate from one synchronous sample table.

    ``out[s, a] = rewards[s, a] + gamma * max_a' q[next_states[s, a], a']``
    """
    q = np.asarray(q, dtype=np.float64)
    next_states = np.asarray(next_states)
    rewards = np.asarray(rewards, dtype=np.float64)
    if q.shape != next_states.shape or q.shape != rewards.shape:
        raise ShapeMismatchError(
            f"shapes differ: q {q.shape}, next_states {next_states.shape}, rewards {rewards.shape}"
        )
    v = q.max(axis=1)
    return rewards + gamma * v[next_states]


def value_iteration(mdp: TabularMDP, tol: float = 1e-10, max_iter: int = 100_000) -> np.ndarray:
    """Iterate the exact operator from Q = 0 until the residual is small.

    Returns a table Q with ``||T(Q) - Q||_inf <= tol``; by the gamma
    contraction the true fixed-point error is at most
    ``tol * gamma / (1 - gamma)``.
    """
    if tol <= 0:
        raise ParamOutOfRangeError("tol must be positive")
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


def write_qtable_csv(path: str | Path, q: np.ndarray) -> None:
    """Write a Q-table as CSV with header ``state,action,q``."""
    q = np.asarray(q)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "action", "q"])
        for s in range(q.shape[0]):
            for a in range(q.shape[1]):
                writer.writerow([s, a, repr(float(q[s, a]))])


def read_qtable_csv(path: str | Path) -> np.ndarray:
    """Read a Q-table written by :func:`write_qtable_csv`."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append((int(row["state"]), int(row["action"]), float(row["q"])))
    n_states = 1 + max(r[0] for r in rows)
    n_actions = 1 + max(r[1] for r in rows)
    q = np.zeros((n_states, n_actions))
    for s, a, val in rows:
        q[s, a] = val
    return q


def write_policy_csv(path: str | Path, policy: np.ndarray) -> None:
    """Write a deterministic policy as CSV with header ``state,action``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "action"])
        for s, a in enumerate(np.asarray(policy)):
            writer.writerow([s, int(a)])
