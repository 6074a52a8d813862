import numpy as np
import pytest

import fedq
from fedq.errors import NotConvergedError, ParamOutOfRangeError, ShapeMismatchError
from tests.conftest import dense_mdp, random_mdp, read_qtable_csv, sparse_random_mdp


def single_state_mdp(reward=1.0, gamma=0.8):
    return dense_mdp(np.ones((1, 1, 1)), np.array([[reward]]), gamma=gamma)


def chain_mdp():
    # s0 -> s1 deterministically, s1 absorbing; r(s0)=0, r(s1)=1, gamma 0.5
    transition = np.array([[[0.0, 1.0]], [[0.0, 1.0]]])
    reward_mean = np.array([[0.0], [1.0]])
    return dense_mdp(transition, reward_mean, gamma=0.5)


def folded_state_values(q: np.ndarray) -> np.ndarray:
    """Each row's left-to-right ``np.maximum`` fold over scalars, the contract of ``state_values``.

    Not ``q.max(axis=-1)``: numpy's max reduction settles a +0.0/-0.0 tie
    by whichever SIMD kernel it dispatches on the CPU it runs on.
    """
    rows = []
    for row in q.reshape(-1, q.shape[-1]):
        v = row[0]
        for x in row[1:]:
            v = np.maximum(v, x)
        rows.append(v)
    return np.array(rows, dtype=np.float64).reshape(q.shape[:-1])


class TestStateValues:
    @pytest.mark.parametrize("shape", [(1, 1), (904, 4), (25, 4), (7, 3), (3, 25, 4), (2, 5, 1)])
    @pytest.mark.parametrize("seed", range(5))
    def test_same_bytes_as_scalar_fold(self, shape, seed):
        # draws from a small set of values, so rows tie, mix signed zeros
        # and reach both infinities
        rng = np.random.default_rng(seed)
        values = np.array([0.0, -0.0, np.inf, -np.inf, 1.5, -1.5, 2.0])
        for q in (rng.choice(values, size=shape), rng.normal(size=shape)):
            assert fedq.bellman.state_values(q).tobytes() == folded_state_values(q).tobytes()

    def test_signed_zero_ties_keep_fold_order(self):
        q = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
        assert fedq.bellman.state_values(q).tobytes() == folded_state_values(q).tobytes()


class TestExactBellman:
    def test_zero_table_single_state(self):
        mdp = single_state_mdp()
        out = fedq.exact_bellman(mdp, np.zeros((1, 1)))
        assert out[0, 0] == 1.0

    def test_chain_hand_values(self):
        mdp = chain_mdp()
        first = fedq.exact_bellman(mdp, np.zeros((2, 1)))
        assert np.allclose(first.ravel(), [0.0, 1.0])
        second = fedq.exact_bellman(mdp, first)
        assert np.allclose(second.ravel(), [0.5, 1.5])

    def test_fixed_point(self, map5x5_mdp, map5x5_qstar):
        out = fedq.exact_bellman(map5x5_mdp, map5x5_qstar)
        assert np.max(np.abs(out - map5x5_qstar)) <= 1e-10

    def test_shape_mismatch(self, map5x5_mdp):
        with pytest.raises(ShapeMismatchError):
            fedq.exact_bellman(map5x5_mdp, np.zeros((3, 4)))

    @pytest.mark.parametrize("name", fedq.BUNDLED_MAPS)
    def test_bit_identical_to_dense_kernel_on_maps(self, name):
        mdp = fedq.build_gridworld(fedq.load_map(name), gamma=0.8)
        q = np.random.default_rng(3).normal(size=(mdp.n_states, mdp.n_actions))
        dense = mdp.reward_mean + mdp.gamma * (mdp.transition @ q.max(axis=1))
        assert np.array_equal(fedq.exact_bellman(mdp, q), dense)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_kernel_on_random_sparse_kernel(self, seed):
        rng = np.random.default_rng(seed)
        mdp = sparse_random_mdp(rng)
        q = rng.normal(size=(mdp.n_states, mdp.n_actions))
        dense = mdp.reward_mean + mdp.gamma * (mdp.transition @ q.max(axis=1))
        assert np.allclose(fedq.exact_bellman(mdp, q), dense, rtol=0, atol=1e-14)

    def test_contraction_on_random_pairs(self, map5x5_mdp):
        rng = np.random.default_rng(0)
        gamma = map5x5_mdp.gamma
        for _ in range(100):
            q1 = rng.uniform(-5, 5, (25, 4))
            q2 = rng.uniform(-5, 5, (25, 4))
            lhs = np.max(np.abs(fedq.exact_bellman(map5x5_mdp, q1) - fedq.exact_bellman(map5x5_mdp, q2)))
            rhs = gamma * np.max(np.abs(q1 - q2))
            assert lhs <= rhs * (1 + 1e-12) + 1e-12

    def test_monotonicity(self):
        rng = np.random.default_rng(1)
        mdp = random_mdp(rng)
        for _ in range(50):
            q1 = rng.uniform(-3, 3, (4, 3))
            q2 = q1 + rng.uniform(0, 2, (4, 3))
            t1 = fedq.exact_bellman(mdp, q1)
            t2 = fedq.exact_bellman(mdp, q2)
            assert np.all(t1 <= t2 + 1e-12)


class TestEmpiricalBellman:
    def test_equals_exact_for_deterministic_noiseless(self, map5x5_mdp):
        rng = np.random.default_rng(3)
        q = rng.uniform(-2, 2, (25, 4))
        ns, rw = fedq.synchronous_sample(map5x5_mdp, fedq.RngStream(0).generator())
        emp = fedq.empirical_bellman(q, ns, rw, map5x5_mdp.gamma)
        exact = fedq.exact_bellman(map5x5_mdp, q)
        assert np.allclose(emp, exact, rtol=0, atol=1e-12)

    def test_zero_table_returns_rewards(self):
        ns = np.zeros((2, 2), dtype=int)
        rw = np.array([[0.5, -0.25], [1.0, 0.0]])
        out = fedq.empirical_bellman(np.zeros((2, 2)), ns, rw, 0.8)
        assert np.array_equal(out, rw)

    def test_unbiased_estimate_of_exact(self):
        # mean of many single-sample estimates matches the expectation operator
        rng = np.random.default_rng(4)
        mdp = random_mdp(rng, n_states=3, n_actions=2, noise=fedq.NoiseSpec(std=0.3, clip=0.6))
        q = rng.uniform(-1, 1, (3, 2))
        exact = fedq.exact_bellman(mdp, q)
        n = 100_000
        gen = fedq.RngStream(99).generator()
        acc = np.zeros((3, 2))
        acc_sq = np.zeros((3, 2))
        for _ in range(n):
            ns, rw = fedq.synchronous_sample(mdp, gen)
            emp = fedq.empirical_bellman(q, ns, rw, mdp.gamma)
            acc += emp
            acc_sq += emp**2
        mean = acc / n
        var = acc_sq / n - mean**2
        se = np.sqrt(np.maximum(var, 0) / n)
        assert np.all(np.abs(mean - exact) <= 3 * se + 1e-9)

    def test_batch_rows_match_single_tables(self, map5x5_noisy):
        rng = np.random.default_rng(4)
        q = rng.uniform(-2, 2, (3, 25, 4))
        gens = [fedq.RngStream(4, (i,)).generator() for i in range(3)]
        samples = [fedq.synchronous_sample(map5x5_noisy, gen) for gen in gens]
        next_states = np.stack([ns for ns, _ in samples])
        rewards = np.stack([r for _, r in samples])
        batch = fedq.empirical_bellman(q, next_states, rewards, 0.8)
        for i in range(3):
            single = fedq.empirical_bellman(q[i], next_states[i], rewards[i], 0.8)
            assert batch[i].tobytes() == single.tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            fedq.empirical_bellman(np.zeros((2, 2)), np.zeros((2, 3), dtype=int), np.zeros((2, 2)), 0.8)
        with pytest.raises(ShapeMismatchError):  # sample tables of another size than q's
            fedq.empirical_bellman(np.zeros((2, 3, 2)), np.zeros((2, 2, 2), dtype=int), np.zeros((2, 2, 2)), 0.8)
        # no (S, A) table, or one with no action or no state: numpy's IndexError and ValueError used to escape
        for shape in ((), (3,), (3, 1, 0), (0, 2)):
            with pytest.raises(ShapeMismatchError, match="q must be an"):
                fedq.empirical_bellman(np.zeros(shape), np.zeros(shape, dtype=int), np.zeros(shape), 0.8)

    @pytest.mark.parametrize("state, got", [(3, "entries from 0 to 3"), (-1, "entries from -1 to 0"),
                                            (0.0, "dtype float64"), (False, "dtype bool")])
    def test_next_states_outside_the_table_rejected(self, state, got):
        # two tables of S = 3 states: state 3 in table 0 used to read table 1's state 0 (7.0),
        # and -1 table 1's last state (11.0), with no error
        q = np.arange(12.0).reshape(2, 3, 2)
        next_states = np.zeros((2, 3, 2), dtype=type(state))
        next_states[0, 0, 0] = state
        with pytest.raises(ParamOutOfRangeError, match=rf"next states must be integers in \[0, 3\), got {got}"):
            fedq.empirical_bellman(q, next_states, np.zeros((2, 3, 2)), 0.8)


class TestValueIteration:
    def test_single_absorbing_state_geometric_series(self):
        mdp = single_state_mdp(reward=1.0, gamma=0.8)
        q = fedq.value_iteration(mdp, tol=1e-12)
        assert abs(q[0, 0] - 5.0) < 1e-10

    def test_two_cell_hand_fixed_point(self):
        mdp = fedq.build_gridworld(fedq.parse_map("G."), gamma=0.8)
        q = fedq.value_iteration(mdp, tol=1e-12)
        up, down, left, right = range(4)
        assert abs(q[1, left] - 1.0) <= 1e-9
        assert abs(q[1, right] - (-0.2)) <= 1e-9
        assert np.allclose(q[0], 0.0)

    def test_residual_below_tol_on_all_bundled_maps(self):
        for name in fedq.BUNDLED_MAPS:
            mdp = fedq.build_gridworld(fedq.load_map(name), gamma=0.8)
            q = fedq.value_iteration(mdp, tol=1e-10)
            residual = np.max(np.abs(fedq.exact_bellman(mdp, q) - q))
            assert residual <= 1e-10, name

    def test_geometric_error_decay(self, map5x5_mdp, map5x5_qstar):
        gamma = map5x5_mdp.gamma
        q = np.zeros((25, 4))
        err0 = np.max(np.abs(q - map5x5_qstar))
        for n in range(1, 30):
            q = fedq.exact_bellman(map5x5_mdp, q)
            err = np.max(np.abs(q - map5x5_qstar))
            assert err <= gamma**n * err0 + 1e-9

    def test_bad_tol(self, map5x5_mdp):
        with pytest.raises(ParamOutOfRangeError):
            fedq.value_iteration(map5x5_mdp, tol=0.0)
        with pytest.raises(ParamOutOfRangeError):
            fedq.value_iteration(map5x5_mdp, tol=float("nan"))
        with pytest.raises(ParamOutOfRangeError, match="finite"):
            fedq.value_iteration(map5x5_mdp, tol=float("inf"))
        for max_iter in (0, 2.5, True, "3"):
            with pytest.raises(ParamOutOfRangeError, match="max_iter"):
                fedq.value_iteration(map5x5_mdp, max_iter=max_iter)

    def test_iteration_cap_surfaces(self, map5x5_mdp):
        with pytest.raises(NotConvergedError):
            fedq.value_iteration(map5x5_mdp, tol=1e-12, max_iter=3)


class TestGreedyPolicy:
    def test_argmax(self):
        assert fedq.greedy_policy(np.array([[0.0, 1.0, 0.0, 0.0]]))[0] == 1

    def test_tie_breaks_low(self):
        assert fedq.greedy_policy(np.array([[1.0, 1.0, 0.0, 0.0]]))[0] == 0

    def test_two_cell_policy_walks_to_goal(self):
        mdp = fedq.build_gridworld(fedq.parse_map("G."), gamma=0.8)
        q = fedq.value_iteration(mdp, tol=1e-12)
        assert fedq.greedy_policy(q)[1] == 2  # left

    @pytest.mark.parametrize("shape", [(3,), (3, 0)])
    def test_shape_mismatch(self, shape):
        # an (S, 0) table has no action to pick: numpy's argmax raised its own ValueError
        with pytest.raises(ShapeMismatchError):
            fedq.greedy_policy(np.zeros(shape))


class TestRmse:
    def test_zero_when_equal(self, map5x5_qstar):
        assert fedq.rmse(map5x5_qstar, map5x5_qstar) == 0.0

    def test_constant_offset(self, map5x5_qstar):
        assert abs(fedq.rmse(map5x5_qstar + 0.75, map5x5_qstar) - 0.75) < 1e-12

    def test_direct_formula(self):
        a = np.array([[3.0, 4.0], [0.0, 0.0]])
        b = np.zeros((2, 2))
        assert abs(fedq.rmse(a, b) - 2.5) < 1e-15

    def test_metric_properties(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            x, y, z = (rng.uniform(-4, 4, (3, 3)) for _ in range(3))
            dxy, dyx = fedq.rmse(x, y), fedq.rmse(y, x)
            assert dxy == dyx
            assert fedq.rmse(x, x) == 0.0
            assert (dxy == 0.0) == bool(np.array_equal(x, y))
            assert fedq.rmse(x, z) <= dxy + fedq.rmse(y, z) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            fedq.rmse(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ShapeMismatchError, match="got a scalar"):  # len() of a 0-d q raised TypeError
            fedq.bellman.errors_batch(np.float64(1.0), np.float64(1.0))
        # tables with no entry: numpy's ValueError for a zero-size maximum used to escape
        for score, q, q_ref in ((fedq.rmse, np.zeros((2, 0)), np.zeros((2, 0))), (fedq.linf_error, [], []),
                                (fedq.bellman.errors_batch, np.zeros((3, 0, 2)), np.zeros((0, 2)))):
            with pytest.raises(ShapeMismatchError, match="at least one entry"):
                score(q, q_ref)
        # an empty batch scores as two empty arrays (its reshape raised ValueError)
        rmses, linfs = fedq.bellman.errors_batch(np.zeros((0, 3, 2)), np.zeros((3, 2)))
        assert rmses.shape == linfs.shape == (0,)


class TestCsvExports:
    def test_qtable_round_trip(self, tmp_path, map5x5_qstar):
        path, _ = fedq.compute_qstar("map5x5", 0.8, 1e-10, tmp_path)
        header = path.read_text().splitlines()[0]
        assert header == "state,action,q"
        back = read_qtable_csv(path)
        assert np.array_equal(back, map5x5_qstar)

    def test_policy_header(self, tmp_path):
        _, path = fedq.compute_qstar("map5x5", 0.8, 1e-10, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "state,action"
        assert len(lines) == 26
