"""Numeric evaluation of the high-probability convergence bounds and the
communication payload accounting.

The two bound evaluators keep every term in its original displayed form,
including the logarithmic arguments, with no algebraic simplification,
so each factor can be audited line by line.  Both bound the sup-norm
distance of the aggregated table from the fixed point after T
communication rounds, with probability at least 1 - delta: one covers
direct uploads through an unbiased sparsifier, the other error-feedback
uploads through a sup-norm-contractive one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .compression import IDENTITY, KINDS
from .errors import ParamOutOfRangeError, check_count, check_interval


@dataclass(frozen=True)
class BoundParams:
    """Inputs shared by the bound evaluators.

    ``q2``/``q_inf`` characterize an unbiased compressor (zero for the
    identity), ``alpha`` a biased one (one for the identity).
    ``q0_gap`` is the sup-norm distance of the initial table from the
    fixed point, computed exactly from the oracle.
    """

    beta: float
    eta: float
    gamma: float
    local_epochs: int
    rounds: int
    n_agents: int
    delta: float
    n_states: int
    n_actions: int
    q2: float = 0.0
    q_inf: float = 0.0
    alpha: float = 1.0
    q0_gap: float = 0.0

    def __post_init__(self) -> None:
        for name, closed in (("beta", "(]"), ("eta", "(]"), ("alpha", "(]"), ("gamma", "()"), ("delta", "()")):
            check_interval(name, getattr(self, name), 0, 1, closed)
        for name in ("local_epochs", "rounds", "n_agents", "n_states", "n_actions"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 1))
        for name in ("q2", "q_inf", "q0_gap"):
            check_interval(name, getattr(self, name), closed="[)")


def decay_factor(beta: float, eta: float, local_epochs: int) -> float:
    """Per-round linear contraction factor ``1 - beta + beta (1-eta)^K``."""
    check_interval("beta", beta, 0, 1, "(]")
    check_interval("eta", eta, 0, 1, "(]")
    local_epochs = check_count("local_epochs", local_epochs, 1)
    return 1.0 - beta + beta * (1.0 - eta) ** local_epochs


def _shrink(eta: float, local_epochs: int) -> float:
    """1 - (1-eta)^K, the per-phase damping accumulated over K epochs."""
    return 1.0 - (1.0 - eta) ** local_epochs


def direct_bound(p: BoundParams) -> float:
    """Bound for direct (unbiased-compressor) uploads.

    ``decay_factor^T q0_gap + sqrt(eta/I) e1 + 2 gamma / C + e2 / sqrt(I)`` with

    * ``C  = (1-gamma)(1-(1-eta)^K)``
    * ``e1 = (4 gamma / C) sqrt(L1) (1 + sqrt(L1 / (eta I)))``,
      ``L1 = log(4 S A T K / delta)``
    * ``e2 = (sqrt(16 * 4 q2 S A / (1-gamma)^2 * L2)
      + (4/3) * 2 q_inf sqrt(I) / (1-gamma) * L2) / (1-(1-eta)^K)``,
      ``L2 = log(4 T / delta)``
    """
    r = decay_factor(p.beta, p.eta, p.local_epochs)
    shrink = _shrink(p.eta, p.local_epochs)
    c = (1.0 - p.gamma) * shrink
    sa = p.n_states * p.n_actions
    l1 = math.log(4.0 * sa * p.rounds * p.local_epochs / p.delta)
    l2 = math.log(4.0 * p.rounds / p.delta)
    e1 = (4.0 * p.gamma / c) * math.sqrt(l1) * (1.0 + math.sqrt(l1 / (p.eta * p.n_agents)))
    e2 = (
        math.sqrt(16.0 * (4.0 * p.q2 * sa / (1.0 - p.gamma) ** 2) * l2)
        + (4.0 / 3.0) * (2.0 * p.q_inf * math.sqrt(p.n_agents) / (1.0 - p.gamma)) * l2
    ) / shrink
    return (
        r**p.rounds * p.q0_gap
        + math.sqrt(p.eta / p.n_agents) * e1
        + 2.0 * p.gamma / c
        + e2 / math.sqrt(p.n_agents)
    )


def error_feedback_bound(p: BoundParams) -> float:
    """Bound for error-feedback (biased-compressor) uploads.

    ``decay_factor^T q0_gap + (4/C) sqrt(eta/I * M) e1 + 2 gamma / C
    + 2 beta (1-alpha) / (alpha (1-gamma)) * D`` with

    * ``C  = (1-gamma)(1-(1-eta)^K)``
    * ``M  = log(2 S A T K / delta)``
    * ``e1 = 1 + sqrt(M / (eta I))``
    * ``D  = 1 + (1+(1-eta)^K) / (1-(1-eta)^K)``
    """
    r = decay_factor(p.beta, p.eta, p.local_epochs)
    shrink = _shrink(p.eta, p.local_epochs)
    decay = (1.0 - p.eta) ** p.local_epochs
    c = (1.0 - p.gamma) * shrink
    sa = p.n_states * p.n_actions
    m = math.log(2.0 * sa * p.rounds * p.local_epochs / p.delta)
    e1 = 1.0 + math.sqrt(m / (p.eta * p.n_agents))
    dd = 1.0 + (1.0 + decay) / (1.0 - decay)
    return (
        r**p.rounds * p.q0_gap
        + (4.0 / c) * math.sqrt(p.eta / p.n_agents * m) * e1
        + 2.0 * p.gamma / c
        + (2.0 * p.beta * (1.0 - p.alpha) / (p.alpha * (1.0 - p.gamma))) * dd
    )


def payload_bits(kind: str, dimension: int, entries: int, fpp: int = 32) -> int:
    """Bits one upload of a d-vector costs on the wire, at ``fpp`` bits per value.

    Uncompressed payloads ship every value and no indices:
    ``d * fpp``.  Sparse payloads ship ``entries`` (index, value) pairs,
    naming each index in ceil(log2 d) bits: ``entries * (ceil(log2 d) + fpp)``.
    """
    if kind not in KINDS:
        raise ParamOutOfRangeError(f"unknown compressor kind {kind!r}")
    fpp = check_count("fpp", fpp, 1)
    dimension = check_count("dimension", dimension, 1)
    entries = check_count("entries", entries, 0, dimension + 1)
    if kind == IDENTITY:
        return dimension * fpp
    return entries * ((dimension - 1).bit_length() + fpp)
