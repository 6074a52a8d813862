"""Numeric evaluation of the high-probability convergence bounds and the
communication payload accounting.

The two bound evaluators keep every term in its original displayed form,
including the logarithmic arguments, with no algebraic simplification,
so each factor can be audited line by line.  Both bound the sup-norm
distance of the aggregated table from the fixed point after T
communication rounds, with probability at least 1 - delta: one covers
direct uploads through an unbiased sparsifier, the other error-feedback
uploads through a sup-norm-contractive one.  Each formula is written once
and also evaluated as a curve, the bound after every round 1..T, which
computes its T-free terms once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .compression import IDENTITY, KINDS
from .errors import InvalidGammaError, ParamOutOfRangeError, check_count, check_interval


@dataclass(frozen=True)
class BoundParams:
    """Inputs shared by the bound evaluators.

    ``q2``/``q_inf`` characterize an unbiased compressor (zero for the
    identity), ``alpha`` a biased one (one for the identity).
    ``q0_gap`` is the sup-norm distance of the initial table from the
    fixed point, computed exactly from the oracle.  Each count is kept as a
    Python int and each real as a Python float, whatever numeric type was passed.
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
        for name, closed in (("beta", "(]"), ("eta", "(]"), ("alpha", "(]"), ("delta", "()")):
            object.__setattr__(self, name, check_interval(name, getattr(self, name), 0, 1, closed))
        object.__setattr__(self, "gamma", check_interval("gamma", self.gamma, 0, 1, error=InvalidGammaError))
        for name in ("local_epochs", "rounds", "n_agents", "n_states", "n_actions"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 1))
        for name in ("q2", "q_inf", "q0_gap"):
            object.__setattr__(self, name, check_interval(name, getattr(self, name), closed="[)"))


def decay_factor(beta: float, eta: float, local_epochs: int) -> float:
    """Per-round linear contraction factor ``1 - beta + beta (1-eta)^K``."""
    beta, eta = check_interval("beta", beta, 0, 1, "(]"), check_interval("eta", eta, 0, 1, "(]")
    return 1.0 - beta + beta * (1.0 - eta) ** check_count("local_epochs", local_epochs, 1)


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
    return _direct(p, (p.rounds,))[0]


def direct_bound_curve(p: BoundParams) -> list[float]:
    """:func:`direct_bound` after each of the rounds 1 to ``p.rounds``, bit for bit."""
    return _direct(p, range(1, p.rounds + 1))


def _direct(p: BoundParams, rounds) -> list[float]:
    """The direct bound after each round count in ``rounds``: the T-free terms once, then per round
    the logs, e1, e2 and r^T, in the displayed formula's order, so each value keeps its bits."""
    r = decay_factor(p.beta, p.eta, p.local_epochs)
    shrink = 1.0 - (1.0 - p.eta) ** p.local_epochs
    c = (1.0 - p.gamma) * shrink
    sa, sqrt_i = p.n_states * p.n_actions, math.sqrt(p.n_agents)
    e2_sqrt = 16.0 * (4.0 * p.q2 * sa / (1.0 - p.gamma) ** 2)
    e2_lin = (4.0 / 3.0) * (2.0 * p.q_inf * sqrt_i / (1.0 - p.gamma))
    l1_scale, e1_scale, eta_i = 4.0 * sa, 4.0 * p.gamma / c, p.eta * p.n_agents
    weight, bias = math.sqrt(p.eta / p.n_agents), 2.0 * p.gamma / c
    curve = []
    for t in rounds:
        l1 = math.log(l1_scale * t * p.local_epochs / p.delta)
        l2 = math.log(4.0 * t / p.delta)
        e1 = e1_scale * math.sqrt(l1) * (1.0 + math.sqrt(l1 / eta_i))
        e2 = (math.sqrt(e2_sqrt * l2) + e2_lin * l2) / shrink
        curve.append(r**t * p.q0_gap + weight * e1 + bias + e2 / sqrt_i)
    return curve


def error_feedback_bound(p: BoundParams) -> float:
    """Bound for error-feedback (biased-compressor) uploads.

    ``decay_factor^T q0_gap + (4/C) sqrt(eta/I * M) e1 + 2 gamma / C
    + 2 beta (1-alpha) / (alpha (1-gamma)) * D`` with

    * ``C  = (1-gamma)(1-(1-eta)^K)``
    * ``M  = log(2 S A T K / delta)``
    * ``e1 = 1 + sqrt(M / (eta I))``
    * ``D  = 1 + (1+(1-eta)^K) / (1-(1-eta)^K)``
    """
    return _error_feedback(p, (p.rounds,))[0]


def error_feedback_bound_curve(p: BoundParams) -> list[float]:
    """:func:`error_feedback_bound` after each of the rounds 1 to ``p.rounds``, bit for bit."""
    return _error_feedback(p, range(1, p.rounds + 1))


def _error_feedback(p: BoundParams, rounds) -> list[float]:
    """The error-feedback bound after each round count in ``rounds``, split as :func:`_direct` is."""
    r = decay_factor(p.beta, p.eta, p.local_epochs)
    decay = (1.0 - p.eta) ** p.local_epochs
    c = (1.0 - p.gamma) * (1.0 - decay)
    dd = 1.0 + (1.0 + decay) / (1.0 - decay)
    tail = (2.0 * p.beta * (1.0 - p.alpha) / (p.alpha * (1.0 - p.gamma))) * dd
    m_scale, scale, bias = 2.0 * (p.n_states * p.n_actions), 4.0 / c, 2.0 * p.gamma / c
    eta_i, eta_per_i = p.eta * p.n_agents, p.eta / p.n_agents
    curve = []
    for t in rounds:
        m = math.log(m_scale * t * p.local_epochs / p.delta)
        e1 = 1.0 + math.sqrt(m / eta_i)
        curve.append(r**t * p.q0_gap + scale * math.sqrt(eta_per_i * m) * e1 + bias + tail)
    return curve


def payload_bits(kind: str, dimension: int, entries: int, fpp: int = 32, uploads: int = 1) -> int:
    """Bits that ``uploads`` uploads of a d-vector cost on the wire, at ``fpp`` bits per value.

    ``entries`` counts the stored values of all the uploads together.
    Uncompressed payloads ship every value and no indices:
    ``uploads * d * fpp``.  Sparse payloads ship ``entries`` (index, value)
    pairs, naming each index in ceil(log2 d) bits:
    ``entries * (ceil(log2 d) + fpp)``.  The result is an exact integer.
    """
    if kind not in KINDS:
        raise ParamOutOfRangeError(f"unknown compressor kind {kind!r}")
    fpp = check_count("fpp", fpp, 1)
    dimension = check_count("dimension", dimension, 1)
    uploads = check_count("uploads", uploads, 1)
    entries = check_count("entries", entries, 0, uploads * dimension + 1)
    if kind == IDENTITY:
        return uploads * dimension * fpp
    return entries * ((dimension - 1).bit_length() + fpp)
