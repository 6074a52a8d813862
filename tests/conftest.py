import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedq

ROOT = Path(__file__).resolve().parent.parent


def run_python(args: list[str], work_dir, **env) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter working in ``work_dir``, its output captured as text.

    The child has the repository root and ``src`` on ``PYTHONPATH``,
    bytecode writing off, ``TMPDIR`` and ``FEDQ_OUTPUT_ROOT`` under
    ``work_dir``, and the variables of ``env`` on top; a None value unsets one.
    """
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "TMPDIR": str(work_dir),
           "FEDQ_OUTPUT_ROOT": str(Path(work_dir) / "runs"), **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT), str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=work_dir, capture_output=True, text=True, timeout=600,
                          env={name: value for name, value in env.items() if value is not None})


def load_workloads():
    """``bench/workloads.py`` as module ``bench_workloads``, loaded from its path in a :func:`run_python`
    child, which writes no bytecode, so the benchmark's directory is only read."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


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


@pytest.fixture
def server_tables(monkeypatch):
    """Every global table a ``run_federated`` call produces, in round order.

    Wraps the engine's server step, which the engine looks up at call
    time, so the list holds a copy of each (S, A) table after each
    aggregation: ``rounds`` tables per lone run, not counting the initial
    one (a batch of R runs records its R tables of a round in run order).
    """
    tables = []
    step = fedq.engine._server_step

    def recording_step(*args):
        q_bar = step(*args)
        tables.extend(q.copy() for q in q_bar)
        return q_bar

    monkeypatch.setattr(fedq.engine, "_server_step", recording_step)
    return tables


@pytest.fixture
def run_groups(monkeypatch):
    """The master seeds of each batch the engine computes, one list per ``_run_group`` call, in order."""
    groups = []
    run_group = fedq.engine._run_group

    def recording_group(configs, *args):
        groups.append([c.master_seed for c in configs])
        return run_group(configs, *args)

    monkeypatch.setattr(fedq.engine, "_run_group", recording_group)
    return groups


def sparse_from_dense(v) -> fedq.SparseVector:
    """Sparse view of a dense vector, dropping exact zeros."""
    v = np.asarray(v, dtype=np.float64)
    idx = np.nonzero(v)[0]
    return fedq.SparseVector(v.size, idx, v[idx])


def read_qtable_csv(path) -> np.ndarray:
    """Read a Q-table from the ``<map>_qstar.csv`` file :func:`fedq.compute_qstar` writes."""
    with open(path, newline="") as fh:
        rows = [(int(r["state"]), int(r["action"]), float(r["q"])) for r in csv.DictReader(fh)]
    q = np.zeros((1 + max(r[0] for r in rows), 1 + max(r[1] for r in rows)))
    for s, a, val in rows:
        q[s, a] = val
    return q


def dense_mdp(transition, reward_mean, gamma, noise=fedq.NoiseSpec(), r_max=1.0) -> fedq.TabularMDP:
    """TabularMDP from a dense (S, A, S) kernel.

    Row ``s * A + a`` of the successor table lists the non-zero columns of
    ``transition[s, a]`` in ascending order, padded with the row's last
    column at probability 0.
    """
    flat = np.asarray(transition, dtype=np.float64)
    flat = flat.reshape(-1, flat.shape[-1])
    rows, cols = np.nonzero(flat)
    counts = np.bincount(rows, minlength=flat.shape[0])
    ends = np.cumsum(counts)
    slot = np.arange(rows.size) - (ends - counts)[rows]
    succ = np.repeat(cols[ends - 1, None], counts.max(), axis=1)
    succ[rows, slot] = cols
    succ_p = np.zeros(succ.shape)
    succ_p[rows, slot] = flat[rows, cols]
    return fedq.TabularMDP(succ, succ_p, reward_mean, gamma, noise=noise, r_max=r_max)


def padded_twin(mdp: fedq.TabularMDP) -> fedq.TabularMDP:
    """The w = 2 twin of a w = 1 table: each row lists its successor twice, the copy at probability 0."""
    return fedq.TabularMDP(np.repeat(mdp.succ, 2, axis=1),
                           np.column_stack([np.ones(mdp.table_size), np.zeros(mdp.table_size)]),
                           mdp.reward_mean, mdp.gamma, mdp.noise, mdp.r_max)


def random_mdp(rng: np.random.Generator, n_states=4, n_actions=3, gamma=0.8, noise=None) -> fedq.TabularMDP:
    """Small random stochastic MDP for property tests."""
    raw = rng.random((n_states, n_actions, n_states)) + 0.05
    transition = raw / raw.sum(axis=2, keepdims=True)
    reward_mean = rng.uniform(-1.0, 1.0, (n_states, n_actions))
    return dense_mdp(
        transition,
        reward_mean,
        gamma,
        noise=noise or fedq.NoiseSpec(),
        r_max=1.0 + (noise.clip if noise else 0.0),
    )


def sparse_random_kernel(rng: np.random.Generator, n_states=7, n_actions=3, zero_frac=0.6) -> np.ndarray:
    """Random (S, A, S) kernel with about ``zero_frac`` zero entries and rows of varying out-degree."""
    shape = (n_states, n_actions, n_states)
    raw = rng.random(shape) * (rng.random(shape) >= zero_frac)
    empty = raw.sum(axis=2) == 0
    raw[empty, rng.integers(n_states, size=int(empty.sum()))] = 1.0
    return raw / raw.sum(axis=2, keepdims=True)


def sparse_random_mdp(rng: np.random.Generator, n_states=7, n_actions=3, zero_frac=0.6) -> fedq.TabularMDP:
    """MDP on a :func:`sparse_random_kernel`, with uniform rewards in [-1, 1]."""
    transition = sparse_random_kernel(rng, n_states, n_actions, zero_frac)
    return dense_mdp(transition, rng.uniform(-1.0, 1.0, (n_states, n_actions)), gamma=0.8)
