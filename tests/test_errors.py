"""The range rules of ``fedq.errors`` raise one typed error at every boundary that applies them."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import fedq
from fedq.compression import compress_batch
from fedq.errors import (DimensionMismatchError, FedqError, InvalidGammaError, ParamOutOfRangeError,
                         ShapeMismatchError, check_array, check_budget, check_ids, check_interval)
from fedq.rng import generators, seed_words, skip_words
from tests.conftest import dense_mdp


def config(**overrides):
    base = dict(n_agents=1, local_epochs=1, rounds=1, eta=0.5, beta=0.5, gamma=0.8)
    return fedq.ExperimentConfig(**{**base, **overrides})


def bound_params(**overrides):
    base = dict(beta=0.8, eta=0.1, gamma=0.8, local_epochs=2, rounds=100, n_agents=10, delta=0.05,
                n_states=25, n_actions=4)
    return fedq.BoundParams(**{**base, **overrides})


# a boundary of each module that applies the interval rule to a real parameter
INTERVALS = {
    "ExperimentConfig eta": lambda mdp, value: config(eta=value),
    "value_iteration tol": lambda mdp, value: fedq.value_iteration(mdp, tol=value),
    "NoiseSpec std": lambda mdp, value: fedq.NoiseSpec(std=value),
    "empirical_bellman gamma": lambda mdp, value: fedq.empirical_bellman(
        np.zeros((25, 4)), np.zeros((25, 4), dtype=int), np.zeros((25, 4)), value),
}


@pytest.mark.parametrize("boundary", INTERVALS)
@pytest.mark.parametrize("value", [True, np.True_, np.array([0.5, 0.2]), np.array(0.5)],
                         ids=["bool", "numpy bool", "array", "0-d array"])
def test_interval_rule_rejects_bools_and_arrays(boundary, value, map5x5_mdp):
    # a bool would run as 1 and an array would escape as numpy's own "truth value" ValueError
    with pytest.raises(ParamOutOfRangeError, match="must be a real number"):
        INTERVALS[boundary](map5x5_mdp, value)


@pytest.mark.parametrize("build", [
    lambda gamma: dense_mdp(np.ones((1, 1, 1)), np.array([[0.0]]), gamma=gamma),
    lambda gamma: config(gamma=gamma),
    lambda gamma: bound_params(gamma=gamma),
    lambda gamma: fedq.empirical_bellman(np.zeros((1, 1)), np.zeros((1, 1), dtype=int), np.zeros((1, 1)), gamma),
], ids=["TabularMDP", "ExperimentConfig", "BoundParams", "empirical_bellman"])
@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.3, 1.7, math.nan])
def test_gamma_rule_raises_one_error(build, gamma):
    with pytest.raises(InvalidGammaError, match="gamma"):
        build(gamma)
    build(0.8)


# exact binary fractions, so each cast below holds the same real
REALS = dict(eta=0.5, beta=1.0, alpha=0.25, delta=0.125, gamma=0.75, q2=3.0, q_inf=3.0, q0_gap=2.5, q0=-2.0,
             std=0.5, clip=1.0, r_max=1.5)
CASTS = {"float16": np.float16, "float32": np.float32, "float64": np.float64, "Fraction": Fraction,
         "int": lambda value: int(value) if value.is_integer() else Fraction(value)}


@pytest.mark.parametrize("cast", CASTS.values(), ids=CASTS)
def test_records_keep_each_real_as_a_python_float(cast):
    # the record computes with what check_interval returns, whatever numeric type was passed
    reals = {name: cast(value) for name, value in REALS.items()}
    records = {
        "eta beta gamma q0": config(**{name: reals[name] for name in ("eta", "beta", "gamma", "q0")}),
        "eta beta alpha delta gamma q2 q_inf q0_gap": bound_params(
            **{name: reals[name] for name in ("eta", "beta", "alpha", "delta", "gamma", "q2", "q_inf", "q0_gap")}),
        "std clip": fedq.NoiseSpec(std=reals["std"], clip=reals["clip"]),
        "gamma r_max": dense_mdp(np.ones((1, 1, 1)), np.array([[0.0]]), gamma=reals["gamma"], r_max=reals["r_max"]),
    }
    kept = {(type(record).__name__, name): getattr(record, name)
            for names, record in records.items() for name in names.split()}
    assert {key: (type(value), value) for key, value in kept.items()} == {
        (record, name): (float, REALS[name]) for record, name in kept}


@pytest.mark.parametrize("build", [
    lambda value: config(q0=value),
    lambda value: bound_params(q0_gap=value),
    lambda value: fedq.NoiseSpec(clip=value),
    lambda value: dense_mdp(np.ones((1, 1, 1)), np.array([[0.0]]), gamma=0.8, r_max=value),
    lambda value: fedq.value_iteration(fedq.build_gridworld(fedq.parse_map("G."), gamma=0.8), tol=value),
], ids=["ExperimentConfig q0", "BoundParams q0_gap", "NoiseSpec clip", "TabularMDP r_max", "value_iteration tol"])
@pytest.mark.parametrize("value", [10**400, -10**400, Fraction(10**400, 3)], ids=["int", "negative int", "Fraction"])
def test_interval_rule_rejects_reals_past_the_float_range(build, value):
    # each was compared exactly and accepted, then overflowed in the first float operation
    with pytest.raises(ParamOutOfRangeError, match=re.escape(f"a float can hold, got {value!r}")):
        build(value)


@pytest.mark.parametrize("value, message", [
    (np.float32(1.5), "eta must lie in (0, 1], got np.float32(1.5)"),
    (Fraction(3, 2), "eta must lie in (0, 1], got Fraction(3, 2)"),
    (np.float64("nan"), "eta must lie in (0, 1], got np.float64(nan)"),
])
def test_interval_messages_show_the_value_as_passed(value, message):
    with pytest.raises(ParamOutOfRangeError) as exc:
        check_interval("eta", value, 0, 1, "(]")
    assert str(exc.value) == message


def test_interval_rule_compares_the_float():
    # a Fraction just below 1 is the float 1.0, which the open interval does not hold
    with pytest.raises(InvalidGammaError):
        config(gamma=Fraction(10**20 - 1, 10**20))
    assert check_interval("gamma", Fraction(4, 5), 0, 1) == 0.8


def top1(kind="top_k"):
    return fedq.CompressorSpec(kind, 1)


# each public function that takes an array, called with one argument replaced by bad(shape), an
# array of that argument's shape whose content numpy cannot turn into numbers
ARRAY_ARGUMENTS = {
    "top_k": lambda mdp, bad: fedq.top_k(bad((4,)), 1),
    "sparsified_k": lambda mdp, bad: fedq.sparsified_k(bad((4,)), 1, fedq.RngStream(0).generator()),
    "contraction_alpha": lambda mdp, bad: fedq.contraction_alpha(bad((4,)), 1),
    "selection_probabilities": lambda mdp, bad: fedq.selection_probabilities(bad((4,)), 1),
    "unbiased_constants": lambda mdp, bad: fedq.unbiased_constants(bad((4,))),
    "direct_compress": lambda mdp, bad: fedq.direct_compress(bad((4,)), top1()),
    "ef_compress": lambda mdp, bad: fedq.ef_compress(fedq.EfState.zeros(4), bad((4,)), top1()),
    "EfState e": lambda mdp, bad: fedq.EfState(bad((4,))),
    "compress_batch pending": lambda mdp, bad: compress_batch(bad((2, 4)), top1()),
    "compress_batch uniforms": lambda mdp, bad: compress_batch(np.ones((2, 4)), top1("sparsified_k"),
                                                               bad((2, 4))),
    "SparseVector indices": lambda mdp, bad: fedq.SparseVector(4, bad((1,)), [1.0]),
    "SparseVector values": lambda mdp, bad: fedq.SparseVector(4, [0], bad((1,))),
    "exact_bellman": lambda mdp, bad: fedq.exact_bellman(mdp, bad((25, 4))),
    "empirical_bellman q": lambda mdp, bad: fedq.empirical_bellman(
        bad((25, 4)), np.zeros((25, 4), dtype=int), np.zeros((25, 4)), 0.8),
    "empirical_bellman next_states": lambda mdp, bad: fedq.empirical_bellman(
        np.zeros((25, 4)), bad((25, 4)), np.zeros((25, 4)), 0.8),
    "empirical_bellman rewards": lambda mdp, bad: fedq.empirical_bellman(
        np.zeros((25, 4)), np.zeros((25, 4), dtype=int), bad((25, 4)), 0.8),
    "greedy_policy": lambda mdp, bad: fedq.greedy_policy(bad((25, 4))),
    "rmse": lambda mdp, bad: fedq.rmse(bad((25, 4)), np.zeros((25, 4))),
    "linf_error q_ref": lambda mdp, bad: fedq.linf_error(np.zeros((25, 4)), bad((25, 4))),
    "TabularMDP succ": lambda mdp, bad: fedq.TabularMDP(bad((1, 1)), [[1.0]], [[0.0]], 0.8),
    "TabularMDP succ_p": lambda mdp, bad: fedq.TabularMDP([[0]], bad((1, 1)), [[0.0]], 0.8),
    "TabularMDP reward_mean": lambda mdp, bad: fedq.TabularMDP([[0]], [[1.0]], bad((1, 1)), 0.8),
    "run_federated q_star": lambda mdp, bad: fedq.run_federated(
        fedq.ExperimentConfig(1, 1, 1, 0.5, 0.5, mdp.gamma), mdp, bad((25, 4))),
    "seed_words": lambda mdp, bad: seed_words(0, bad((1, 2))),
    "generators": lambda mdp, bad: generators(bad((1, 4))),
    "skip_words": lambda mdp, bad: skip_words(bad((1, 4)), 1),
}


@pytest.mark.parametrize("argument", ARRAY_ARGUMENTS)
@pytest.mark.parametrize("bad", [lambda shape: np.full(shape, "a"),
                                 lambda shape: np.full(shape, object(), dtype=object)],
                         ids=["string", "object"])
def test_array_arguments_raise_a_typed_error(argument, bad, map5x5_mdp):
    # numpy's own ValueError, TypeError or UFuncTypeError would escape without the array rules
    with pytest.raises(FedqError) as raised:
        ARRAY_ARGUMENTS[argument](map5x5_mdp, bad)
    assert isinstance(raised.value, ValueError)


def test_ef_state_takes_a_list_residual():
    h, state = fedq.ef_compress(fedq.EfState([0.0, 1.0]), np.array([2.0, 0.5]), top1())
    assert (h.indices.tolist(), state.e.dtype, state.e.tolist()) == ([0], np.float64, [0.0, 1.5])
    with pytest.raises(ShapeMismatchError, match="EfState e must have shape of a 1-D array"):
        fedq.EfState([[0.0, 1.0]])


@pytest.mark.parametrize("compress", [
    lambda v: fedq.direct_compress(v, top1("sparsified_k")),
    lambda v: fedq.ef_compress(fedq.EfState.zeros(4), v, top1("sparsified_k")),
    lambda v: fedq.sparsified_k(v, 1, None),
], ids=["direct_compress", "ef_compress", "sparsified_k"])
def test_sparsified_k_needs_a_generator(compress):
    # a raw AttributeError on None.random used to escape
    with pytest.raises(ParamOutOfRangeError, match="sparsified_k draws its uniforms from a generator"):
        compress(np.arange(4.0))


@pytest.mark.parametrize("value", [[[1.0, 2.0], [3.0]], "table", [None, object()]])
def test_check_array_wraps_what_numpy_cannot_convert(value):
    with pytest.raises(ShapeMismatchError, match="q must be a numeric array"):
        check_array("q", value)


def test_check_array_shapes_and_copies():
    table = np.zeros((2, 3))
    assert check_array("q", table, ndim=2, shape=(2, 3)) is table  # a float64 array passes uncopied
    assert check_array("q", [[1, 2]]).dtype == np.float64
    with pytest.raises(ShapeMismatchError, match=r"q must have shape of a 1-D array, got \(2, 3\)"):
        check_array("q", table, ndim=1)
    with pytest.raises(ParamOutOfRangeError, match=r"q must have shape \(3, 2\), got \(2, 3\)"):
        check_array("q", table, shape=(3, 2), error=ParamOutOfRangeError)


@pytest.mark.parametrize("values, high", [
    (np.array([-1], dtype=np.int8), 2**32),  # as uint8 it would read 255, below the limit
    (np.array([-(2**31)], dtype=np.int32), 5),
    (np.array([2**63 + 5], dtype=np.uint64), 5),
    (np.array([5, 4], dtype=np.int64), 5),
    (np.array([0, -1], dtype=">i8"), 5),  # big-endian: read in its own byte order
    (np.array([[0, 1], [2, 9]], dtype=np.uint16)[:, ::-1], 5),  # a strided view
])
def test_check_ids_rejects_every_entry_outside_the_range(values, high):
    with pytest.raises(ParamOutOfRangeError, match=rf"ids must be integers in \[0, {high}\), got entries from"):
        check_ids("ids", values, high)


@pytest.mark.parametrize("values", [[0.0], [True], ["3"], np.array([1], dtype=object), [2.5, 1]])
def test_check_ids_rejects_non_integer_dtypes(values):
    with pytest.raises(DimensionMismatchError, match="got dtype"):
        check_ids("ids", values, 5, error=DimensionMismatchError)


@pytest.mark.parametrize("values, high", [
    (np.array([0, 4], dtype=np.int8), 5), (np.array([2**32 - 1], dtype=np.uint32), 2**32),
    (np.array([127], dtype=np.int8), 2**32), (np.array([3, 0], dtype=">i4"), 4), ([], 1), ([()], 1),
])
def test_check_ids_returns_int64_ids(values, high):
    ids = check_ids("ids", values, high)
    assert ids.dtype == np.int64 and ids.tolist() == np.asarray(values).tolist()


def test_check_ids_passes_int64_uncopied():
    ids = np.arange(4)
    assert check_ids("ids", ids, 4) is ids


@pytest.mark.parametrize("k", [np.array([1, 4, 2]), np.array([1, 1, 1], dtype=np.uint8)])
def test_check_budget_returns_per_row_budgets_as_int64(k):
    budgets = check_budget(k, 4, 3)
    assert budgets.dtype == np.int64 and budgets.tolist() == k.tolist()
    assert (budgets is k) == (k.dtype == np.int64)  # int64 budgets pass uncopied
    # with rows, one int, or a 0-d integer array, still names every row's budget
    assert check_budget(3, 4, 3) == 3 and type(check_budget(np.array(3, dtype=np.uint8), 4, 3)) is int


# a boundary of each module that applies the count rule to an integer parameter
COUNTS = {
    "top_k k": lambda value: fedq.top_k(np.ones(3), value),
    "RngStream seed": lambda value: fedq.RngStream(value),
    "ExperimentConfig n_agents": lambda value: config(n_agents=value),
    "CompressorSpec k": lambda value: fedq.CompressorSpec("top_k", k=value),
    "seed_words seeds": lambda value: seed_words(value, [[0]]),
}


@pytest.mark.parametrize("boundary", COUNTS)
@pytest.mark.parametrize("value", [np.array([1, 2]), np.array(2.0), np.zeros(0)],
                         ids=["int array", "0-d float array", "empty array"])
def test_count_rule_rejects_arrays_that_are_not_one_integer(boundary, value):
    # operator.index raised numpy's raw TypeError on these
    with pytest.raises(ParamOutOfRangeError, match="must be an integer"):
        COUNTS[boundary](value)


@pytest.mark.parametrize("boundary", COUNTS)
@pytest.mark.parametrize("value", [np.array(2), np.int64(2), np.uint8(2)])
def test_count_rule_passes_numpy_integer_scalars(boundary, value):
    COUNTS[boundary](value)
