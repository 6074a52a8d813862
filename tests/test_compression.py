import warnings

import numpy as np
import pytest

import fedq
from fedq.compression import RULE_UNIFORM, BatchPayload, compress_batch
from fedq.errors import (
    BudgetOutOfRangeError,
    DimensionMismatchError,
    NonFiniteError,
    ParamOutOfRangeError,
    ShapeMismatchError,
    ZeroVectorError,
)
from tests.conftest import sparse_from_dense


class TestSparseVector:
    def test_densify_round_trip(self):
        v = np.array([0.0, 2.5, 0.0, -1.0])
        sv = fedq.SparseVector(4, np.array([1, 3]), np.array([2.5, -1.0]))
        assert len(sv) == 2
        assert np.array_equal(sv.densify(), v)
        again = sparse_from_dense(sv.densify())
        assert np.array_equal(again.indices, sv.indices)
        assert np.array_equal(again.values, sv.values)

    def test_rejects_unsorted_indices(self):
        with pytest.raises(DimensionMismatchError):
            fedq.SparseVector(4, np.array([2, 1]), np.array([1.0, 2.0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            fedq.SparseVector(2, np.array([2]), np.array([1.0]))

    @pytest.mark.parametrize("indices", [[0.5], ["3"], [True], np.array([1.0])])
    def test_rejects_non_integer_indices(self, indices):
        # these were truncated to 0, parsed as 3 and read as 1
        with pytest.raises(DimensionMismatchError, match="indices must be integers"):
            fedq.SparseVector(4, indices, [1.0])

    @pytest.mark.parametrize("indices, values", [([0, 1], [1.0]), ([1], [1.0, 2.0]), ([[0, 1]], [[1.0, 2.0]])])
    def test_rejects_unequal_or_multi_axis_pairs(self, indices, values):
        with pytest.raises(DimensionMismatchError, match="1-D and equally long"):
            fedq.SparseVector(4, indices, values)

    @pytest.mark.parametrize("dimension, indices, values", [
        (2.5, [0, 2], [1.0, 2.0]),
        (-1, [], []),
        (True, [0], [1.0]),
    ])
    def test_dimension_must_be_a_positive_integer(self, dimension, indices, values):
        with pytest.raises(ParamOutOfRangeError, match="dimension"):
            fedq.SparseVector(dimension, indices, values)


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        sv = fedq.top_k(np.array([1.0, -4.0, 2.0, 0.0]), 2)
        assert list(sv.indices) == [1, 2]
        assert list(sv.values) == [-4.0, 2.0]

    def test_full_budget_is_identity_in_value(self):
        v = np.array([1.0, -4.0, 2.0, 0.5])
        assert np.array_equal(fedq.top_k(v, 4).densify(), v)

    def test_tie_breaks_toward_low_index(self):
        sv = fedq.top_k(np.array([1.0, 1.0]), 1)
        assert list(sv.indices) == [0]

    def test_zeros_never_stored(self):
        sv = fedq.top_k(np.array([1.0, 0.0, 0.0]), 3)
        assert list(sv.indices) == [0]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=12)
            once = fedq.top_k(v, 4)
            twice = fedq.top_k(once.densify(), 4)
            assert np.array_equal(once.densify(), twice.densify())

    def test_budget_range(self):
        with pytest.raises(BudgetOutOfRangeError):
            fedq.top_k(np.ones(3), 0)
        with pytest.raises(BudgetOutOfRangeError):
            fedq.top_k(np.ones(3), 4)


    @pytest.mark.parametrize("v", [np.ones((2, 3)), np.array(3.0)])
    def test_input_must_be_one_vector(self, v):
        for compress in (lambda: fedq.top_k(v, 1), lambda: fedq.contraction_alpha(v, 1),
                         lambda: fedq.direct_compress(v, fedq.CompressorSpec("identity"))):
            with pytest.raises(ShapeMismatchError, match="1-D"):
                compress()


class TestContractionAlpha:
    def test_direct_value(self):
        assert fedq.contraction_alpha(np.array([3.0, -5.0, 2.0]), 1) == pytest.approx(0.4, abs=1e-15)

    def test_full_budget_gives_one(self):
        assert fedq.contraction_alpha(np.array([3.0, -5.0]), 2) == 1.0

    def test_tied_maxima_hit_zero(self):
        assert fedq.contraction_alpha(np.array([5.0, 5.0]), 1) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            fedq.contraction_alpha(np.zeros(3), 1)

    @pytest.mark.parametrize("v, named", [
        ([np.nan, 1.0], r"\[nan\]"),  # the excluded entry is NaN
        ([np.inf, np.inf], r"\[inf, inf\]"),  # inf / inf
        ([np.nan, 0.0, -0.0], r"\[nan\]"),  # no number but zeros
        # a ratio exists, but ||v||_inf is infinite or undefined, so the law has no meaning
        ([np.inf, 1.0], r"\[inf\]"),
        ([-np.inf, np.nan, 2.0], r"\[-inf, nan\]"),
        ([np.nan, 4.0, -2.0], r"\[nan\]"),
    ])
    def test_non_finite_input_rejected_by_name(self, v, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no RuntimeWarning on the way
            with pytest.raises(NonFiniteError, match=f"non-finite input {named}"):
                fedq.contraction_alpha(np.array(v), 1)
        assert not issubclass(NonFiniteError, ZeroVectorError)

    def test_infinite_row_gets_nan_alpha_without_warning(self):
        rows = np.array([[np.inf, -np.inf, 1.0], [3.0, -5.0, 2.0], [0.0, -0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha = compress_batch(rows, fedq.CompressorSpec("top_k", k=1)).alpha
        assert np.isnan(alpha[0]) and np.isnan(alpha[2])
        assert alpha[1] == fedq.contraction_alpha(rows[1], 1)

    def test_batch_gives_one_alpha_per_row_nan_for_zero_rows(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(5, 6))
        rows[[1, 4]] = 0.0
        rows[2, 3] = -0.0
        alpha = compress_batch(rows, fedq.CompressorSpec("top_k", k=2)).alpha
        assert alpha.shape == (5,)
        for row, a in zip(rows, alpha):
            if np.any(row):
                assert a == fedq.contraction_alpha(row, 2)
            else:
                assert np.isnan(a)

    def test_sup_error_equals_largest_excluded_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            d = int(rng.integers(2, 20))
            k = int(rng.integers(1, d + 1))
            v = rng.normal(size=d)
            err = np.max(np.abs(fedq.top_k(v, k).densify() - v))
            mags = np.sort(np.abs(v))[::-1]
            excluded_max = mags[k] if k < d else 0.0
            assert err == excluded_max  # bit-exact: dropped entries are copies


def stable_sort_top_k(pending, k):
    """Reference top_k of every row: ``kept``, ``sent`` and ``alpha`` from a stable sort of -|v|.

    The sort puts ties in index order and NaN after every number, so the
    first k positions are the kept set (less its zeros and NaNs), the first
    is the largest magnitude and the (k+1)-th is the largest excluded one.
    """
    n_rows, d = pending.shape
    mags = np.abs(pending)
    order = np.argsort(-mags, axis=-1, kind="stable")
    kept = np.zeros(pending.shape, dtype=bool)
    np.put_along_axis(kept, order[:, :k], True, axis=-1)
    kept &= mags > 0
    ranked = np.take_along_axis(mags, order[:, : k + 1], axis=-1)
    top = ranked[:, 0]
    excluded = ranked[:, k] if k < d else np.zeros(n_rows)
    alpha = 1.0 - np.divide(excluded, top, out=np.full(n_rows, np.nan), where=top > 0)
    return kept, np.where(kept, pending, 0.0), alpha


# ties, signed zeros, infinities and NaN, drawn with replacement
_SPECIAL = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan])


def random_batch(rng, n_rows, d, values):
    if values == "special":
        batch = rng.choice(_SPECIAL, size=(n_rows, d))
    else:  # normals rounded to one decimal: frequent ties, and ±0.0
        batch = rng.normal(size=(n_rows, d)).round(1)
    batch[rng.random(n_rows) < 0.2] = 0.0  # some all-zero rows
    return batch


class TestTopKMatchesStableSort:
    def assert_matches(self, batch, k):
        with np.errstate(invalid="ignore"):  # inf / inf in alpha
            payload = compress_batch(batch, fedq.CompressorSpec("top_k", k))
            kept, sent, alpha = stable_sort_top_k(batch, k)
        assert np.array_equal(payload.kept, kept)
        assert payload.sent.tobytes() == sent.tobytes()
        assert payload.alpha.tobytes() == alpha.tobytes()

    @pytest.mark.parametrize("values", ["special", "rounded"])
    @pytest.mark.parametrize("seed", range(20))
    def test_random_batches(self, seed, values):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            d = int(rng.integers(1, 13))
            batch = random_batch(rng, int(rng.integers(1, 6)), d, values)
            for k in {1, max(d - 1, 1), d, int(rng.integers(1, d + 1))}:
                self.assert_matches(batch, k)

    def test_batches_hold_every_special_value(self):
        batch = random_batch(np.random.default_rng(0), 20, 12, "special")
        assert np.isnan(batch).any() and np.isposinf(batch).any() and np.isneginf(batch).any()
        assert np.signbit(batch[batch == 0]).any() and (~batch.any(axis=1)).any()

    def test_nan_ranks_below_zero(self):
        row = np.array([[np.nan, 0.0, 3.0, np.nan, -1.0]])
        for k, kept, alpha in ((1, [2], 1 - 1 / 3), (2, [2, 4], 1.0), (3, [2, 4], np.nan)):
            payload = compress_batch(row, fedq.CompressorSpec("top_k", k))
            assert np.flatnonzero(payload.kept).tolist() == kept
            np.testing.assert_equal(payload.alpha[0], alpha)
            self.assert_matches(row, k)

    def test_one_batch_mixes_rows_with_and_without_ties_past_the_budget(self):
        # k = 2: rows 0, 2 and 6 tie past the budget at the k-th and take the tie-break; the
        # others keep every entry at or above their k-th
        batch = np.array([
            [1.0, 1.0, 1.0, 1.0],
            [3.0, -2.0, 1.0, 0.5],
            [0.5, -2.0, 0.5, 0.5],
            [0.0, -0.0, 0.0, 0.0],
            [np.nan, 2.0, np.nan, -1.0],
            [np.nan, np.nan, np.nan, np.nan],
            [-0.0, 4.0, 0.0, 0.0],
            [2.0, -2.0, 1.0, 1.0],
        ])
        payload = compress_batch(batch, fedq.CompressorSpec("top_k", 2))
        assert [np.flatnonzero(row).tolist() for row in payload.kept] == [
            [0, 1], [0, 1], [0, 1], [], [1, 3], [], [1], [0, 1]]
        self.assert_matches(batch, 2)

    def test_one_coordinate(self):
        for v in (0.0, -0.0, 1.5, -np.inf, np.nan):
            self.assert_matches(np.array([[v], [0.0]]), 1)

    def test_large_rows(self):
        rng = np.random.default_rng(7)
        batch = rng.normal(size=(4, 3616))
        batch[1, ::3] = 0.0
        batch[2] = batch[2].round(1)
        batch[3, rng.integers(0, 3616, 40)] = np.nan
        self.assert_matches(batch, 180)


class TestSelectionProbabilities:
    def test_l1_rule(self):
        p = fedq.selection_probabilities(np.array([2.0, -1.0, 1.0]), 2)
        assert np.allclose(p, [1.0, 0.5, 0.5])
        assert p.sum() <= 2.0 + 1e-12

    def test_zero_coordinates_never_selected(self):
        p = fedq.selection_probabilities(np.array([2.0, 0.0, 1.0]), 2)
        assert p[1] == 0.0

    def test_uniform_rule(self):
        p = fedq.selection_probabilities(np.array([2.0, 0.0, 1.0]), 2, rule=RULE_UNIFORM)
        assert np.allclose(p, [2 / 3, 0.0, 2 / 3])

    def test_budget_saturates_at_one(self):
        p = fedq.selection_probabilities(np.array([1.0, 1.0]), 2)
        assert np.array_equal(p, [1.0, 1.0])

    def test_scalar_rejected(self):
        with pytest.raises(ShapeMismatchError):
            fedq.selection_probabilities(np.array(3.0), 1)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ParamOutOfRangeError, match="unknown probability rule 'l2'"):
            fedq.selection_probabilities(np.ones(3), 1, rule="l2")


class TestSparsifiedK:
    def test_zero_vector_maps_to_empty(self):
        sv = fedq.sparsified_k(np.zeros(5), 2, fedq.RngStream(0).generator())
        assert len(sv) == 0
        assert np.array_equal(sv.densify(), np.zeros(5))

    def test_degenerate_probabilities_reproduce_input(self):
        v = np.array([1.0, -1.0, 1.0])
        sv = fedq.sparsified_k(v, 3, fedq.RngStream(0).generator())
        assert np.array_equal(sv.densify(), v)

    def test_kept_values_are_rescaled_inputs(self):
        v = np.array([2.0, -1.0, 1.0])
        p = fedq.selection_probabilities(v, 2)
        gen = fedq.RngStream(5).generator()
        for _ in range(200):
            sv = fedq.sparsified_k(v, 2, gen)
            for idx, val in zip(sv.indices, sv.values):
                assert val == v[idx] / p[idx]

    def test_monte_carlo_unbiased(self):
        # per-coordinate mean within 3 sigma of v, sigma from the variance constant
        v = np.array([2.0, -1.0, 1.0])
        k, n = 2, 100_000
        p = fedq.selection_probabilities(v, k)
        gen = fedq.RngStream(7).generator()
        acc = np.zeros(3)
        for _ in range(n):
            acc += fedq.sparsified_k(v, k, gen).densify()
        mean = acc / n
        sigma = np.abs(v) * np.sqrt((1.0 / p - 1.0) / n)
        assert np.all(np.abs(mean - v) <= 3 * sigma + 1e-13 * np.abs(v))

    def test_every_realization_obeys_sup_deviation_bound(self):
        # ||out - v||_inf <= max(1/p_min - 1, 1) * ||v||_inf, p_min over the support
        rng = np.random.default_rng(6)
        gen = fedq.RngStream(11).generator()
        for trial in range(200):
            d = int(rng.integers(2, 15))
            v = rng.normal(size=d)
            k = int(rng.integers(1, d + 1))
            p = fedq.selection_probabilities(v, k)
            _, q_inf = fedq.unbiased_constants(p)
            out = fedq.sparsified_k(v, k, gen).densify()
            deviation = np.max(np.abs(out - v))
            assert deviation <= q_inf * np.max(np.abs(v)) * (1 + 1e-12)

    def test_batch_rows_read_their_uniforms(self):
        # compress_batch draws nothing: row i keeps where uniforms[i] falls below p, as sparsified_k
        # does with a generator whose next d uniforms are uniforms[i]; sparsified_k draws exactly d
        batch = np.random.default_rng(8).normal(size=(3, 6))
        uniforms = np.stack([fedq.RngStream(8, (i,)).generator().random(6) for i in range(3)])
        payload = compress_batch(batch, fedq.CompressorSpec("sparsified_k", 2), uniforms)
        for i in range(3):
            gen = fedq.RngStream(8, (i,)).generator()
            alone = fedq.sparsified_k(batch[i], 2, gen)
            assert payload.sent[i].tobytes() == alone.densify().tobytes()
            assert gen.random() == fedq.RngStream(8, (i,)).generator().random(7)[6]

    @pytest.mark.parametrize("uniforms", [None, np.zeros(6), np.zeros((3, 6))])
    def test_batch_needs_one_uniform_per_entry(self, uniforms):
        with pytest.raises(ShapeMismatchError):
            compress_batch(np.ones((2, 6)), fedq.CompressorSpec("sparsified_k", 2), uniforms)

    def test_budget_range(self):
        with pytest.raises(BudgetOutOfRangeError):
            fedq.sparsified_k(np.ones(3), 0, fedq.RngStream(0).generator())
        for k in (0, 4, 2.5, True):
            with pytest.raises(BudgetOutOfRangeError):
                fedq.selection_probabilities(np.ones(3), k)


class TestUnbiasedConstants:
    def test_support_restricted(self):
        p = fedq.selection_probabilities(np.array([4.0, 0.0, 1.0]), 1)
        q2, q_inf = fedq.unbiased_constants(p)
        p_min = 1.0 / 5.0  # smallest support probability: 1*1/5
        assert q2 == pytest.approx(1.0 / p_min - 1.0)
        assert q_inf == max(q2, 1.0)

    def test_zero_vector(self):
        assert fedq.unbiased_constants(np.zeros(4)) == (0.0, 0.0)

    @pytest.mark.parametrize("p", [[1.5], [-0.25, 0.5], [np.nan], [0.5, np.nan], np.inf])
    def test_probabilities_must_lie_in_unit_interval(self, p):
        with pytest.raises(ParamOutOfRangeError, match=r"\[0, 1\]"):
            fedq.unbiased_constants(p)


class TestErrorFeedback:
    def test_identity_error_stays_zero(self):
        state = fedq.EfState.zeros(3)
        delta = np.array([0.5, -2.0, 0.0])
        h, state = fedq.ef_compress(state, delta, fedq.CompressorSpec("identity"))
        assert np.array_equal(h.densify(), delta)
        assert np.array_equal(state.e, np.zeros(3))

    def test_top1_banks_the_remainder(self):
        state = fedq.EfState.zeros(4)
        delta = np.array([1.0, -4.0, 2.0, 0.0])
        h, state = fedq.ef_compress(state, delta, fedq.CompressorSpec("top_k", k=1))
        assert list(h.indices) == [1]
        assert list(h.values) == [-4.0]
        assert np.array_equal(state.e, np.array([1.0, 0.0, 2.0, 0.0]))

    def test_two_round_telescoping_exact(self):
        spec = fedq.CompressorSpec("top_k", k=1)
        state = fedq.EfState.zeros(3)
        d1 = np.array([0.25, -1.0, 0.5])
        d2 = np.array([0.125, 0.25, -0.75])
        h1, state = fedq.ef_compress(state, d1, spec)
        h2, state = fedq.ef_compress(state, d2, spec)
        lhs = h1.densify() + h2.densify() + state.e
        assert np.array_equal(lhs, d1 + d2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            fedq.ef_compress(fedq.EfState.zeros(3), np.zeros(4), fedq.CompressorSpec("identity"))

    @pytest.mark.parametrize("dimension", [-1, 0, 2.5, True, "3"])
    def test_zeros_dimension_checked(self, dimension):
        with pytest.raises(ParamOutOfRangeError):
            fedq.EfState.zeros(dimension)

    def test_long_run_conservation_and_bounded_memory(self):
        # transmitted + banked equals the exact delta sum; memory obeys the
        # steady-state ceiling from the per-round contraction factors
        rng = np.random.default_rng(3)
        spec = fedq.CompressorSpec("top_k", k=1)
        d = 10
        state = fedq.EfState.zeros(d)
        sent = np.zeros(d)
        total = np.zeros(d)
        alpha_min = 1.0
        bound = 0.0
        for _ in range(500):
            delta = rng.uniform(-1, 1, d)
            total += delta
            alpha_min = min(alpha_min, fedq.contraction_alpha(delta + state.e, 1))
            h, state = fedq.ef_compress(state, delta, spec)
            sent += h.densify()
            bound = 2 * (1 - alpha_min) * 1.0 / alpha_min
            assert np.max(np.abs(state.e)) <= bound
        drift = np.max(np.abs(sent + state.e - total))
        assert drift <= 1e-9 * max(1.0, np.max(np.abs(total)))


class TestDirectCompress:
    def test_identity_passthrough(self):
        delta = np.array([1.5, 0.0, -0.5])
        h = fedq.direct_compress(delta, fedq.CompressorSpec("identity"))
        assert len(h) == 3  # identity ships every coordinate
        assert np.array_equal(h.densify(), delta)

    def test_sparsified_zero_is_empty(self):
        h = fedq.direct_compress(np.zeros(4), fedq.CompressorSpec("sparsified_k", k=2),
                                 fedq.RngStream(0).generator())
        assert len(h) == 0

    def test_top_k_selection(self):
        h = fedq.direct_compress(np.array([1.0, -4.0, 2.0, 0.0]), fedq.CompressorSpec("top_k", k=2))
        assert list(h.indices) == [1, 2]
        assert list(h.values) == [-4.0, 2.0]


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ParamOutOfRangeError):
            fedq.CompressorSpec("quantize", k=2)

    def test_missing_budget(self):
        with pytest.raises(BudgetOutOfRangeError):
            fedq.CompressorSpec("top_k", k=0)

    def test_unknown_probability_rule(self):
        with pytest.raises(ParamOutOfRangeError, match="unknown probability rule 'l2'"):
            fedq.CompressorSpec("sparsified_k", k=2, probability_rule="l2")


@pytest.mark.parametrize("make", [
    lambda: fedq.SparseVector(4, [1, 3], [2.5, -1.0]),
    lambda: fedq.EfState([0.0, 1.0]),
    lambda: BatchPayload(np.ones((2, 2), dtype=bool), np.ones((2, 2))),
    lambda: fedq.RunResult([], np.zeros((2, 2))),
], ids=["SparseVector", "EfState", "BatchPayload", "RunResult"])
def test_array_records_compare_without_raising(make):
    # a generated __eq__ compared the array fields, whose truth value numpy refuses to take
    first, second = make(), make()
    assert first == first and first != second


@pytest.mark.parametrize("kind", ["identity", "top_k", "sparsified_k"])
@pytest.mark.parametrize("shape", [(5,), (2, 3, 5)])
def test_batch_input_must_be_a_table(kind, shape):
    # uniforms of the same shape, so the only fault is that pending is not (I, d)
    spec = fedq.CompressorSpec(kind, k=0 if kind == "identity" else 2)
    with pytest.raises(ShapeMismatchError, match="table"):
        compress_batch(np.ones(shape), spec, np.zeros(shape))


_TIED_ROWS = np.array([
    [1.0, 1.0, 1.0, 1.0],
    [3.0, -2.0, 1.0, 0.5],
    [0.5, -2.0, 0.5, 0.5],
    [0.0, -0.0, 0.0, 0.0],
    [np.nan, 2.0, np.nan, -1.0],
    [np.nan, np.nan, np.nan, np.nan],
    [-0.0, 4.0, 0.0, 0.0],
    [2.0, -np.inf, np.inf, 1.0],
])


class TestPerRowBudgets:
    """A row compressed under its own budget in a mixed batch gives the bits of the row alone."""

    def assert_rows_match_scalar_calls(self, batch, spec, budgets, uniforms=None):
        with np.errstate(invalid="ignore"):  # inf / inf in alpha
            payload = compress_batch(batch, spec, uniforms, np.asarray(budgets, dtype=np.int64))
            for i, k in enumerate(budgets):
                row_uniforms = None if uniforms is None else uniforms[i:i + 1]
                alone = compress_batch(batch[i:i + 1], fedq.CompressorSpec(spec.kind, int(k),
                                                                           spec.probability_rule), row_uniforms)
                assert np.array_equal(payload.kept[i], alone.kept[0])
                assert payload.sent[i].tobytes() == alone.sent[0].tobytes()
                for field in ("alpha", "p"):
                    if getattr(alone, field) is not None:
                        assert getattr(payload, field)[i].tobytes() == getattr(alone, field)[0].tobytes()
                if spec.kind == "top_k":
                    kept, _, alpha = stable_sort_top_k(batch[i:i + 1], int(k))
                    assert np.array_equal(payload.kept[i], kept[0])
                    assert payload.alpha[i:i + 1].tobytes() == alpha.tobytes()

    @pytest.mark.parametrize("spec", [fedq.CompressorSpec("top_k", 1), fedq.CompressorSpec("sparsified_k", 1),
                                      fedq.CompressorSpec("sparsified_k", 1, RULE_UNIFORM)])
    @pytest.mark.parametrize("values", ["special", "rounded"])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_batches(self, spec, values, seed):
        # budgets drawn per row over [1, d], so rows with k = 1 and k = d share batches
        rng = np.random.default_rng(seed)
        for _ in range(20):
            d = int(rng.integers(1, 13))
            batch = random_batch(rng, int(rng.integers(1, 8)), d, values)
            budgets = rng.integers(1, d + 1, len(batch))
            budgets[rng.random(len(batch)) < 0.3] = d
            self.assert_rows_match_scalar_calls(batch, spec, budgets, rng.random(batch.shape))

    @pytest.mark.parametrize("spec", [fedq.CompressorSpec("top_k", 1), fedq.CompressorSpec("sparsified_k", 1),
                                      fedq.CompressorSpec("sparsified_k", 1, RULE_UNIFORM)])
    def test_ties_at_the_kth_and_special_rows(self, spec):
        # rows 0 and 2 tie past budget 2 at the k-th, and the k = d rows keep every non-zero entry
        uniforms = np.random.default_rng(4).random(_TIED_ROWS.shape)
        for budgets in ([2, 2, 2, 2, 2, 2, 2, 2], [2, 1, 2, 4, 3, 4, 1, 4], [4, 3, 1, 1, 4, 2, 2, 3]):
            self.assert_rows_match_scalar_calls(_TIED_ROWS, spec, budgets, uniforms)

    def test_full_budget_rows_exclude_nothing(self):
        payload = compress_batch(_TIED_ROWS, fedq.CompressorSpec("top_k", 1), k=np.full(8, 4))
        assert np.array_equal(payload.kept, np.fmax(np.abs(_TIED_ROWS), -1.0) > 0)
        np.testing.assert_equal(payload.alpha, [1, 1, 1, np.nan, 1, np.nan, 1, 1])

    def test_one_budget_as_int_or_array_gives_the_same_bits(self):
        batch = random_batch(np.random.default_rng(2), 6, 9, "rounded")
        uniforms = np.random.default_rng(3).random(batch.shape)
        for kind in ("top_k", "sparsified_k"):
            spec = fedq.CompressorSpec(kind, 9)
            for k in range(1, 10):
                a = compress_batch(batch, spec, uniforms, k)
                b = compress_batch(batch, spec, uniforms, np.full(6, k))
                assert a.sent.tobytes() == b.sent.tobytes() and np.array_equal(a.kept, b.kept)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
                                       np.uint64])
    def test_budgets_of_every_integer_dtype_give_the_int_budgets_bits(self, dtype):
        # top_k computes d - k and d - k - 1 from the budgets: in a dtype narrower than d, or unsigned,
        # they would overflow or wrap round to another column
        batch = random_batch(np.random.default_rng(5), 3, 300, "rounded")
        uniforms = np.random.default_rng(6).random(batch.shape)
        for kind in ("top_k", "sparsified_k"):
            spec = fedq.CompressorSpec(kind, 1)
            for k in (k for k in (1, 5, 200, 300) if k <= np.iinfo(dtype).max):
                want = compress_batch(batch, spec, uniforms, k)
                for budgets in (np.full(3, k, dtype=dtype), np.array(k, dtype=dtype)):  # per row, and one 0-d
                    got = compress_batch(batch, spec, uniforms, budgets)
                    assert got.sent.tobytes() == want.sent.tobytes() and np.array_equal(got.kept, want.kept)
                    for field in ("alpha", "p"):
                        if getattr(want, field) is not None:
                            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    @pytest.mark.parametrize("kind", ["top_k", "sparsified_k"])
    @pytest.mark.parametrize("k", [0, 5, 2.5, True, np.array([1, 0, 2]), np.array([1, 5, 2]),
                                   np.array([1, 2]), np.array([1.0, 2.0, 3.0]), np.array([[1, 2, 3]]),
                                   np.array([True, True, True])])
    def test_budgets_outside_the_rule_rejected(self, kind, k):
        with pytest.raises(BudgetOutOfRangeError):
            compress_batch(np.ones((3, 4)), fedq.CompressorSpec(kind, 1), np.zeros((3, 4)), k)
