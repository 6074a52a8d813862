"""Sparsifying compression operators and per-agent error feedback.

Two operator families act on a flat vector of dimension d (a flattened
Q-table delta):

* ``top_k`` keeps the k entries of largest magnitude.  It is biased but
  contracts in the sup norm: ``||C(v) - v||_inf = (1 - alpha) ||v||_inf``
  where alpha depends on the input (see :func:`contraction_alpha`).
* ``sparsified_k`` keeps entry j with probability p_j and rescales the
  survivors by 1/p_j, which makes it unbiased: ``E[C(v)] = v`` exactly.
  The probabilities satisfy ``sum_j p_j <= k``, so k is the expected
  payload budget.

``identity`` is the no-compression baseline (and is both unbiased and a
contraction with alpha = 1).

Error feedback wraps a biased operator with a running residual e: each
round compresses ``delta + e`` and stores what was not transmitted back
into e, so no information is permanently dropped.

:func:`compress_batch` runs an operator on every row of an (I, d) array
at once; the one-vector functions are its batch of one, so a row
compressed in a batch gives the same bits as the vector compressed alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetOutOfRangeError,
    DimensionMismatchError,
    NonFiniteError,
    ParamOutOfRangeError,
    ShapeMismatchError,
    ZeroVectorError,
    check_array,
    check_budget,
    check_count,
    check_ids,
)

IDENTITY = "identity"
TOP_K = "top_k"
SPARSIFIED_K = "sparsified_k"
KINDS = (IDENTITY, TOP_K, SPARSIFIED_K)

# Selection-probability families for sparsified_k.
RULE_L1 = "l1"  # p_j proportional to |v_j| / ||v||_1
RULE_UNIFORM = "uniform"  # p_j = k / d on the support
RULES = (RULE_L1, RULE_UNIFORM)


@dataclass(frozen=True)
class CompressorSpec:
    """Which operator to run and with what budget.

    ``k`` is ignored for the identity operator.  ``probability_rule``
    only affects sparsified_k.
    """

    kind: str = IDENTITY
    k: int = 0
    probability_rule: str = RULE_L1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ParamOutOfRangeError(f"unknown compressor kind {self.kind!r}")
        if self.probability_rule not in RULES:
            raise ParamOutOfRangeError(f"unknown probability rule {self.probability_rule!r}")
        low = 0 if self.kind == IDENTITY else 1  # the identity ignores k
        object.__setattr__(self, "k", check_count("budget k", self.k, low, error=BudgetOutOfRangeError))


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Sparse payload: (index, value) pairs over a vector of dimension d.

    Indices are strictly increasing integers in [0, d), else
    ``DimensionMismatchError``; coordinates not listed are implicitly zero.
    """

    dimension: int
    indices: np.ndarray  # int64, strictly increasing
    values: np.ndarray  # float64, same length

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimension", check_count("dimension", self.dimension, 1))
        idx = check_ids("indices", self.indices, self.dimension, error=DimensionMismatchError)
        vals = check_array("values", self.values, error=DimensionMismatchError)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)
        if idx.shape != vals.shape or idx.ndim != 1:
            raise DimensionMismatchError("indices and values must be 1-D and equally long")
        if np.any(np.diff(idx) <= 0):
            raise DimensionMismatchError("indices must be strictly increasing")

    def __len__(self) -> int:
        return int(self.indices.size)

    def densify(self) -> np.ndarray:
        out = np.zeros(self.dimension)
        out[self.indices] = self.values
        return out


@dataclass(eq=False)
class EfState:
    """Per-agent error-feedback memory; starts at zero."""

    e: np.ndarray

    def __post_init__(self) -> None:
        self.e = check_array("EfState e", self.e, ndim=1)

    @staticmethod
    def zeros(dimension: int) -> "EfState":
        return EfState(np.zeros(check_count("dimension", dimension, 1)))


@dataclass(frozen=True, eq=False)
class BatchPayload:
    """The payloads of a batch of agents, one row of an (I, d) input each.

    ``kept[i, j]`` says whether row i transmits coordinate j, and
    ``sent[i]`` is row i's compressed vector C(v): the transmitted value
    where ``kept`` is True, +0.0 elsewhere.  What was not transmitted is
    ``pending - sent``.  The realized constants are by-products of the
    compression itself: ``alpha`` holds the top_k contraction factor of
    each row (see :func:`contraction_alpha`), NaN for an all-zero row,
    and ``p`` the sparsified_k selection probabilities.
    """

    kept: np.ndarray  # (I, d) bool
    sent: np.ndarray  # (I, d) float64, +0.0 where kept is False
    alpha: np.ndarray | None = None
    p: np.ndarray | None = None


def compress_batch(
    pending: np.ndarray, spec: CompressorSpec, uniforms: np.ndarray | None = None, k=None
) -> BatchPayload:
    """Compress every row of an (I, d) array at once; draws no random numbers.

    Row i is compressed exactly as :func:`direct_compress` would compress
    it alone, into row i of ``sent``, under ``spec``'s kind and probability
    rule and a budget of ``k``: one integer for every row, or an (I,)
    integer array of per-row budgets, each in [1, d] (``spec.k`` when
    ``k`` is None; the identity reads none).  A row's bits do not depend on
    whether its budget came as an integer or as an entry of an array.
    sparsified_k keeps entry j of row i where ``uniforms[i, j]`` falls
    below its selection probability, so it needs an (I, d) array of
    uniforms in [0, 1), the other operators none.  top_k needs only each
    row's k-th and (k+1)-th largest magnitudes, which one sort of each row
    finds: it keeps every entry at or above the k-th, and only on a row
    where that is more than k entries (the k-th is tied past the budget)
    does it run the tie-break, which keeps the entries above the k-th and
    then the lowest-index entries equal to it.  The (k+1)-th gives the
    realized contraction factor, 1 on a row with k = d.  The result is that
    of a stable sort of ``-|v|``: ties keep the lower index, and NaN ranks
    below every number and is never kept.
    """
    pending = check_array("pending table", pending, ndim=2)
    if spec.kind == IDENTITY:
        return BatchPayload(np.ones(pending.shape, dtype=bool), pending)
    n_rows, d = pending.shape
    k = check_budget(spec.k if k is None else k, d, n_rows)
    if spec.kind == TOP_K:
        # |v| with NaN as -1.0: it ranks below every magnitude and is never kept,
        # as it does at the end of a stable sort of -|v|
        key = np.abs(pending)
        np.fmax(key, -1.0, out=key)
        # the largest, k-th and (k+1)-th largest keys; ties at the k-th go to the lowest indices.
        # key holds no NaN and no -0.0, so a plain sort puts the same values there as a partition
        ordered = np.sort(key, axis=1)
        top, kth, nxt = ordered[:, -1], _column(ordered, d - k)[:, None], _column(ordered, d - k - 1)
        kept = key >= kth
        # only a row whose k-th key is tied past the budget keeps more than k: there the (k+1)-th
        # key equals the k-th (a row with k = d has none; its read wrapped round).  The tie-break
        # keeps the lowest-index ties
        over = np.flatnonzero((nxt == kth[:, 0]) & (k < d))
        if over.size:
            above, tied = key[over] > kth[over], key[over] == kth[over]
            room = (k if isinstance(k, int) else k[over, None]) - above.sum(axis=1, keepdims=True)
            kept[over] = above | (tied & (tied.cumsum(axis=1) <= room))
        kept &= key > 0
        excluded = np.where(nxt < 0, np.nan, nxt)
        # a row with k = d excludes nothing; its (k+1)-th key wrapped round to the last column
        np.copyto(excluded, 0.0, where=k == d)
        # a row that keeps and drops infinities divides inf by inf: its alpha is NaN, as a zero
        # row's is, with no warning
        with np.errstate(invalid="ignore"):
            alpha = 1.0 - np.divide(excluded, top, out=np.full(n_rows, np.nan), where=top > 0)
        return BatchPayload(kept, np.where(kept, pending, 0.0), alpha=alpha)
    uniforms = check_array("sparsified_k's uniforms", uniforms, shape=pending.shape)
    p = _probabilities(pending, k if isinstance(k, int) else k[:, None], spec.probability_rule)
    kept = uniforms < p
    return BatchPayload(kept, np.divide(pending, p, out=np.zeros(pending.shape), where=kept), p=p)


def _column(table: np.ndarray, col) -> np.ndarray:
    """Entry ``col[i]`` of each row i of a 2-D table, or column ``col`` when it is one int."""
    return table[:, col] if isinstance(col, int) else table[np.arange(len(table)), col]


def _apply(v: np.ndarray, spec: CompressorSpec, rng: np.random.Generator | None) -> BatchPayload:
    """Compress one vector: the batch of one, drawing sparsified_k's d uniforms from ``rng``."""
    v = check_array("v", v, ndim=1)
    if spec.kind == SPARSIFIED_K and rng is None:
        raise ParamOutOfRangeError("sparsified_k draws its uniforms from a generator, got rng=None")
    uniforms = rng.random((1, v.size)) if spec.kind == SPARSIFIED_K else None
    return compress_batch(v[None], spec, uniforms)


def _as_sparse(payload: BatchPayload) -> SparseVector:
    """The one row of a single-row payload, as a validated SparseVector."""
    idx = np.nonzero(payload.kept[0])[0]
    return SparseVector(payload.kept.shape[-1], idx, payload.sent[0, idx])


def top_k(v: np.ndarray, k: int) -> SparseVector:
    """Keep the k entries of largest magnitude.

    Ties break toward the lower index; exact zeros are never stored, so
    the payload has min(k, nnz) entries.  Deterministic.
    """
    return _as_sparse(_apply(v, CompressorSpec(TOP_K, k), None))


def contraction_alpha(v: np.ndarray, k: int) -> float:
    """Sup-norm contraction factor of top_k on this input.

    ``alpha = 1 - max(excluded |v_j|) / ||v||_inf``; 1 when everything
    outside the kept set is zero (including k = d), 0 when a dropped
    entry ties the largest magnitude (the contraction hypothesis fails).
    It is undefined, and raises, for the zero vector (``ZeroVectorError``)
    and for any input with a NaN or infinite entry (``NonFiniteError``,
    naming those entries): the law ``||C(v) - v||_inf = (1 - alpha)
    ||v||_inf`` means nothing there.
    """
    v = check_array("v", v, ndim=1)
    alpha = float(_apply(v, CompressorSpec(TOP_K, k), None).alpha[0])
    bad = v[~np.isfinite(v)]
    if bad.size:
        raise NonFiniteError(f"contraction factor undefined for non-finite input {bad.tolist()}")
    if np.isnan(alpha):
        raise ZeroVectorError("contraction factor undefined for the zero vector")
    return alpha


def selection_probabilities(v: np.ndarray, k: int, rule: str = RULE_L1) -> np.ndarray:
    """Per-coordinate keep probabilities used by sparsified_k.

    Zero coordinates always get p = 0 (they carry no information and are
    never transmitted).  Under the ``l1`` rule ``p_j = min(1, k |v_j| /
    ||v||_1)``; under ``uniform`` every support coordinate gets
    ``min(1, k / d)``.  Either way ``sum_j p_j <= k``.  Leading axes are
    a batch: each vector along the last axis gets its own probabilities.
    """
    v = check_array("v", v)
    if v.ndim < 1:
        raise ShapeMismatchError("selection probabilities need at least one axis, got a scalar")
    check_budget(k, v.shape[-1])
    if rule not in RULES:
        raise ParamOutOfRangeError(f"unknown probability rule {rule!r}")
    return _probabilities(v, k, rule)


def _probabilities(v: np.ndarray, k, rule: str) -> np.ndarray:
    """:func:`selection_probabilities` of a valid budget ``k``: an int, or an array that
    broadcasts against ``v``'s leading axes with a last axis of 1, one budget per vector.
    ``k * |v_j|`` and ``k / d`` are the same IEEE operations either way."""
    mags = np.abs(v)
    support = mags > 0
    if rule == RULE_L1:
        total = mags.sum(axis=-1, keepdims=True)
        p = np.divide(k * mags, total, out=np.zeros(v.shape), where=support)
        return np.minimum(1.0, p, out=p)
    return np.where(support, np.minimum(1.0, k / v.shape[-1]), 0.0)


def unbiased_constants(p: np.ndarray) -> tuple[float, float]:
    """Variance and sup-norm deviation constants of sparsified_k.

    Computed from the minimum selection probability over the support:
    ``q2 = 1/p_min - 1`` and ``q_inf = max(q2, 1)``.  For an empty
    support (zero vector) the operator is exact and both are 0.  Every
    p must lie in [0, 1].
    """
    p = check_array("selection probabilities", p, error=ParamOutOfRangeError)
    outside = ~((p >= 0) & (p <= 1))  # NaN lies outside too
    if outside.any():
        raise ParamOutOfRangeError(f"selection probabilities must lie in [0, 1], got {p[outside]}")
    support = p > 0
    if not np.any(support):
        return 0.0, 0.0
    p_min = float(p[support].min())
    q2 = 1.0 / p_min - 1.0
    return q2, max(q2, 1.0)


def sparsified_k(v: np.ndarray, k: int, rng: np.random.Generator, rule: str = RULE_L1) -> SparseVector:
    """Unbiased random sparsification with expected budget k.

    Coordinate j survives with probability p_j (see
    :func:`selection_probabilities`) and is rescaled to ``v_j / p_j``, so
    ``E[C(v)_j] = v_j`` exactly for every j.  The zero vector compresses
    to the empty payload.  Consumes one block of d uniforms.
    """
    return _as_sparse(_apply(v, CompressorSpec(SPARSIFIED_K, k, rule), rng))


def direct_compress(
    delta: np.ndarray, spec: CompressorSpec, rng: np.random.Generator | None = None
) -> SparseVector:
    """Compress a progress vector with no memory."""
    return _as_sparse(_apply(delta, spec, rng))


def ef_compress(
    state: EfState, delta: np.ndarray, spec: CompressorSpec, rng: np.random.Generator | None = None
) -> tuple[SparseVector, EfState]:
    """Compress ``delta + e`` and bank the untransmitted remainder.

    Returns the payload and the successor state
    ``e' = delta + e - densify(h)`` (subtracting +0.0 at an untransmitted
    coordinate changes no bit); for entry-copying operators (identity,
    top_k) the banked entries are bit-exact copies, so
    transmitted-plus-banked always telescopes to the sum of the deltas.
    """
    delta = check_array("delta", delta, shape=state.e.shape)
    pending = delta + state.e
    payload = _apply(pending, spec, rng)
    return _as_sparse(payload), EfState(pending - payload.sent[0])
