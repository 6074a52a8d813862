import numpy as np
import pytest
from scipy import stats

import fedq
from fedq.errors import ParamOutOfRangeError
from fedq.rng import generators, seed_words
from tests.conftest import dense_mdp, padded_twin, random_mdp, sparse_random_kernel, sparse_random_mdp


def two_state_mdp(p=(0.3, 0.7), noise=None):
    transition = np.array([[[p[0], p[1]]], [[0.0, 1.0]]])
    reward_mean = np.zeros((2, 1))
    return dense_mdp(transition, reward_mean, gamma=0.8, noise=noise or fedq.NoiseSpec())


class TestValidation:
    def test_noise_spec_rejects_negative(self):
        with pytest.raises(ParamOutOfRangeError):
            fedq.NoiseSpec(std=-0.1)
        with pytest.raises(ParamOutOfRangeError):
            fedq.NoiseSpec(clip=-0.1)
        with pytest.raises(ParamOutOfRangeError):
            fedq.NoiseSpec(std=float("nan"))
        with pytest.raises(ParamOutOfRangeError):
            fedq.NoiseSpec(clip=float("nan"))
        with pytest.raises(ParamOutOfRangeError, match="noise clip"):
            fedq.NoiseSpec(0.5, float("inf"))
        with pytest.raises(ParamOutOfRangeError, match="noise std"):
            fedq.NoiseSpec(float("inf"), 0.5)

    def test_rows_must_sum_to_one(self):
        bad = np.array([[[0.5, 0.4]], [[0.0, 1.0]]])
        with pytest.raises(ParamOutOfRangeError):
            dense_mdp(bad, np.zeros((2, 1)), gamma=0.8)

    def test_rows_must_be_nonnegative(self):
        bad = np.array([[[1.2, -0.2]], [[0.0, 1.0]]])
        with pytest.raises(ParamOutOfRangeError):
            dense_mdp(bad, np.zeros((2, 1)), gamma=0.8)

    def test_reward_bounded_by_r_max(self):
        tr = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        with pytest.raises(ParamOutOfRangeError):
            dense_mdp(tr, np.full((2, 1), 1.5), gamma=0.8, r_max=1.0)

    def test_tables_immutable(self):
        mdp = two_state_mdp()
        with pytest.raises(ValueError):
            mdp.transition[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            mdp.reward_mean[0, 0] = 2.0


def table_args(succ=((0, 1), (1, 1)), succ_p=((0.3, 0.7), (1.0, 0.0)), reward_mean=((0.0,), (0.0,))):
    """A well-formed 2-state, 1-action successor table, with any part replaced."""
    return np.asarray(succ), np.asarray(succ_p, dtype=float), np.asarray(reward_mean, dtype=float)


class TestTableValidation:
    def test_well_formed_table_accepted(self):
        mdp = fedq.TabularMDP(*table_args(), gamma=0.8)
        assert (mdp.n_states, mdp.n_actions, mdp.succ.dtype) == (2, 1, np.int64)

    @pytest.mark.parametrize("parts, message", [
        (dict(succ=((0, 2), (1, 1))), "integer states"),
        (dict(succ=((0, -1), (1, 1))), "integer states"),
        (dict(succ=((0.0, 1.0), (1.0, 1.0))), "integer states"),
        (dict(succ_p=((1.2, -0.2), (1.0, 0.0))), "non-negative"),
        (dict(succ_p=((np.nan, 1.0), (1.0, 0.0))), "non-negative"),
        (dict(succ_p=((0.3, 0.7 + 1e-9), (1.0, 0.0))), "sum to 1"),
        (dict(succ_p=((0.3, 0.7, 0.0), (1.0, 0.0, 0.0))), "succ and succ_p"),
        (dict(succ=((0,), (1,)), succ_p=((1.0,), (1.0,), (1.0,))), "succ and succ_p"),
        (dict(succ=np.zeros((2, 0), dtype=int), succ_p=np.zeros((2, 0))), "succ and succ_p"),
        (dict(succ=(0, 1), succ_p=(1.0, 1.0)), "succ and succ_p"),
        (dict(reward_mean=((0.0,), (0.0,), (0.0,))), "succ and succ_p"),
        (dict(reward_mean=(0.0, 0.0)), "reward_mean must have shape"),
        (dict(reward_mean=np.zeros((2, 1, 1))), "reward_mean must have shape"),
        (dict(reward_mean=((0.0,), (1.5,))), "r_max"),
    ])
    def test_malformed_table_rejected(self, parts, message):
        with pytest.raises(ParamOutOfRangeError, match=message):
            fedq.TabularMDP(*table_args(**parts), gamma=0.8)

    @pytest.mark.parametrize("r_max", [0.0, -1.0, float("nan"), float("inf")])
    def test_r_max_must_be_positive(self, r_max):
        with pytest.raises(ParamOutOfRangeError, match="r_max must be positive"):
            fedq.TabularMDP(*table_args(), gamma=0.8, r_max=r_max)


class TestDenseView:
    @pytest.mark.parametrize("seed", range(20))
    def test_round_trips_kernel_bit_for_bit(self, seed):
        transition = sparse_random_kernel(np.random.default_rng(seed))
        mdp = dense_mdp(transition, np.zeros(transition.shape[:2]), gamma=0.8)
        assert np.any(mdp.succ_p == 0)  # some rows are padded: out-degree < w
        view = mdp.transition
        assert view.shape == transition.shape
        assert view.tobytes() == transition.tobytes()
        assert not view.flags.writeable

    def test_repeated_successor_adds_up(self):
        mdp = fedq.TabularMDP(*table_args(succ=((1, 1), (1, 1)), succ_p=((0.5, 0.5), (1.0, 0.0))), gamma=0.8)
        assert np.array_equal(mdp.transition, [[[0.0, 1.0]], [[0.0, 1.0]]])


class TestSampleNextState:
    """The next-state half of synchronous_sample."""

    def test_deterministic_kernel(self):
        mdp = fedq.build_gridworld(fedq.parse_map("G."), gamma=0.8)
        rng = fedq.RngStream(7).generator()
        for _ in range(20):
            next_states, _ = fedq.synchronous_sample(mdp, rng)
            assert next_states[1, 2] == 0  # left into the goal

    def test_consumes_exactly_one_draw(self):
        # one uniform per (s, a) pair and, without noise, nothing else
        mdp = two_state_mdp()
        stream = fedq.RngStream(3, (1, 2))
        raw = stream.generator().random(3)
        gen = stream.generator()
        fedq.synchronous_sample(mdp, gen)
        assert gen.random() == raw[2]

    @pytest.mark.parametrize("noisy", [False, True])
    def test_grid_world_skips_uniforms_to_the_same_stream_position(self, noisy):
        noise = fedq.NoiseSpec(std=0.5, clip=0.5) if noisy else fedq.NoiseSpec()
        mdp = fedq.build_gridworld(fedq.load_map("map6x6w"), noise=noise, gamma=0.8)
        shape = (mdp.n_states, mdp.n_actions)
        stream = fedq.RngStream(4, (2, 7))
        gen, ref = stream.generator(), stream.generator()
        next_states, rewards = fedq.synchronous_sample(mdp, gen)
        ref.random(mdp.table_size)  # the uniform block a w = 1 table skips
        if noisy:
            clipped = np.clip(ref.normal(0.0, noise.std, shape), -noise.clip, noise.clip)
            assert rewards.tobytes() == (mdp.reward_mean + clipped).tobytes()
        assert gen.random() == ref.random()
        assert np.array_equal(next_states, mdp.succ.reshape(shape))
        assert next_states.dtype == np.int64 and next_states.flags.writeable
        assert not np.shares_memory(next_states, mdp.succ)

    @pytest.mark.parametrize("draw", ["random", "standard_normal", "uint64"])
    @pytest.mark.parametrize("bit_generator", ["PCG64", "PCG64DXSM"])
    def test_advance_drops_only_a_buffered_32_bit_half(self, bit_generator, draw):
        mdp = fedq.build_gridworld(fedq.load_map("map5x5"), gamma=0.8)
        gen, ref = (np.random.Generator(getattr(np.random, bit_generator)(6)) for _ in range(2))
        for g in (gen, ref):
            g.integers(2**32, dtype=np.uint32)  # buffers the other 32-bit half of a 64-bit draw
        fedq.synchronous_sample(mdp, gen)
        ref.random(mdp.table_size)
        assert ref.bit_generator.state["has_uint32"] == 1
        assert gen.bit_generator.state["has_uint32"] == 0
        take = {"random": lambda g: g.random(), "standard_normal": lambda g: g.standard_normal(),
                "uint64": lambda g: g.bit_generator.random_raw()}[draw]
        assert take(gen) == take(ref)

    @pytest.mark.parametrize("bit_generator", ["MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64"])
    def test_every_bit_generator_ends_where_drawing_the_block_leaves_it(self, bit_generator):
        # only PCG64 and PCG64DXSM skip by advance; the others draw the uniform block and drop it
        noise = fedq.NoiseSpec(std=0.5, clip=0.5)
        mdp = fedq.build_gridworld(fedq.load_map("map5x5"), noise=noise, gamma=0.8)
        shape = (mdp.n_states, mdp.n_actions)
        gen, ref = (np.random.Generator(getattr(np.random, bit_generator)(9)) for _ in range(2))
        next_states, rewards = fedq.synchronous_sample(mdp, gen)
        ref.random(shape)
        clipped = np.clip(ref.normal(0.0, noise.std, shape), -noise.clip, noise.clip)
        assert np.array_equal(next_states, mdp.succ.reshape(shape))
        assert rewards.tobytes() == (mdp.reward_mean + clipped).tobytes()
        assert gen.random() == ref.random()

    @pytest.mark.parametrize("noisy", [False, True])
    def test_padded_grid_world_takes_general_path_to_same_bytes(self, noisy):
        noise = fedq.NoiseSpec(std=0.5, clip=0.5) if noisy else fedq.NoiseSpec()
        grid = fedq.build_gridworld(fedq.load_map("map6x6w"), noise=noise, gamma=0.8)
        padded = fedq.TabularMDP(np.repeat(grid.succ, 2, axis=1),
                                 np.column_stack([np.ones(grid.table_size), np.zeros(grid.table_size)]),
                                 grid.reward_mean, grid.gamma, grid.noise, grid.r_max)
        assert (grid.succ.shape[1], padded.succ.shape[1]) == (1, 2)
        streams = [fedq.RngStream(12, (i, 3)) for i in range(4)]
        gens, ref_gens = [s.generator() for s in streams], [s.generator() for s in streams]
        out = fedq.mdp.synchronous_sample_batch(grid, gens)
        ref = fedq.mdp.synchronous_sample_batch(padded, ref_gens)
        for a, b in zip(out, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for gen, ref_gen in zip(gens, ref_gens):
            assert gen.random() == ref_gen.random()

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("padded", [False, True])
    def test_rewards_alone_are_the_sample_rewards(self, noisy, padded):
        # the rewards-only draw skips the uniform block on any w: the same reward bits as the whole
        # sample, and every stream left where the whole sample leaves it
        noise = fedq.NoiseSpec(std=0.5, clip=0.5) if noisy else fedq.NoiseSpec()
        mdp = fedq.build_gridworld(fedq.load_map("map6x6w"), noise=noise, gamma=0.8)
        if padded:
            mdp = padded_twin(mdp)
        streams = [fedq.RngStream(3, (i, 1)) for i in range(3)]
        gens, ref_gens = [s.generator() for s in streams], [s.generator() for s in streams]
        rewards = fedq.mdp.synchronous_rewards_batch(mdp, gens)
        _, ref = fedq.mdp.synchronous_sample_batch(mdp, ref_gens)
        assert rewards.dtype == ref.dtype and rewards.tobytes() == ref.tobytes()
        for gen, ref_gen in zip(gens, ref_gens):
            assert gen.random() == ref_gen.random()

    def test_monte_carlo_frequency_matches_kernel(self):
        # empirical frequency of s'=1 under P = [0.3, 0.7]
        mdp = two_state_mdp()
        gen = fedq.RngStream(42).generator()
        n = 100_000
        hits = sum(int(fedq.synchronous_sample(mdp, gen)[0][0, 0]) for _ in range(n))
        freq = hits / n
        assert abs(freq - 0.7) <= 3.0 * np.sqrt(0.21 / n)


class _StubRng:
    """Deterministic stand-in exposing the generator methods sampling uses; records its uniform draws."""

    def __init__(self, normal_value=0.0, uniform_value=0.0):
        self._normal = normal_value
        self._uniform = uniform_value
        self.bit_generator = None  # neither PCG64 nor PCG64DXSM, so nothing is skipped by advance
        self.drawn = []

    def standard_normal(self, out):
        out[...] = self._normal
        return out

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        self.drawn.append(out.shape)
        out[...] = self._uniform
        return out


class TestSampleReward:
    """The reward half of synchronous_sample."""

    def test_zero_std_is_exact(self):
        mdp = fedq.build_gridworld(fedq.parse_map("G."), gamma=0.8)
        _, rewards = fedq.synchronous_sample(mdp, fedq.RngStream(0).generator())
        assert rewards[1, 2] == 1.0

    def test_large_draw_clips_at_threshold(self):
        grid = fedq.parse_map("G.")
        mdp = fedq.build_gridworld(grid, noise=fedq.NoiseSpec(std=0.5, clip=0.5), gamma=0.8)
        for z, clipped in ((1.8, 1.0 + 0.5), (-6.0, 1.0 - 0.5)):  # standard units: 0.9 and -3.0 at std 0.5
            stub = _StubRng(z)
            assert fedq.synchronous_sample(mdp, stub)[1][1, 2] == clipped
            assert stub.drawn == [(mdp.n_states, mdp.n_actions)]  # the uniform block, drawn and dropped

    def test_negative_zero_draw_gives_positive_zero_noise(self):
        # Generator.normal returns 0.0 + std * z, so z = -0.0 gives +0.0 noise, and a -0.0 mean
        # reward plus +0.0 noise is +0.0; without the 0.0 + it would stay -0.0
        mdp = fedq.TabularMDP([[0], [0]], [[1.0], [1.0]], np.array([[-0.0, 0.5]]), gamma=0.8,
                              noise=fedq.NoiseSpec(std=0.5, clip=0.5))
        assert np.signbit(mdp.reward_mean[0, 0])
        rewards = fedq.synchronous_sample(mdp, _StubRng(-0.0))[1]
        assert rewards.tobytes() == np.array([[0.0, 0.5]]).tobytes()

    def test_samples_stay_in_clip_band_and_mean_is_unbiased(self):
        noise = fedq.NoiseSpec(std=0.5, clip=0.5)
        mdp = fedq.build_gridworld(fedq.parse_map("G."), noise=noise, gamma=0.8)
        gen = fedq.RngStream(11).generator()
        n = 100_000
        draws = np.array([fedq.synchronous_sample(mdp, gen)[1][1, 2] for _ in range(n)])
        assert np.all(np.abs(draws - 1.0) <= noise.clip)
        # clipping is symmetric about 0 so the clipped noise has mean 0
        assert abs(draws.mean() - 1.0) <= 3.0 * noise.std / np.sqrt(n)


class TestSuccessorTable:
    def test_layout_pads_with_last_column(self):
        transition = np.array([
            [[0.25, 0.0, 0.75], [0.0, 1.0, 0.0]],
            [[0.0, 0.0, 1.0], [0.5, 0.25, 0.25]],
            [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]],
        ])
        mdp = dense_mdp(transition, np.zeros((3, 2)), gamma=0.8)
        assert np.array_equal(mdp.succ, [[0, 2, 2], [1, 1, 1], [2, 2, 2],
                                         [0, 1, 2], [0, 0, 0], [1, 2, 2]])
        assert np.array_equal(mdp.succ_p, [[0.25, 0.75, 0], [1, 0, 0], [1, 0, 0],
                                           [0.5, 0.25, 0.25], [1, 0, 0], [0.5, 0.5, 0]])
        assert np.array_equal(mdp.succ_cum, [[0.25, 1, 1], [1, 1, 1], [1, 1, 1],
                                             [0.5, 0.75, 1], [1, 1, 1], [0.5, 1, 1]])
        for arr in (mdp.succ, mdp.succ_p, mdp.succ_cum):
            with pytest.raises(ValueError):
                arr[0, 0] = 0

    def test_grid_world_holds_one_successor_per_pair(self):
        mdp = fedq.build_gridworld(fedq.load_map("map17x17w"), gamma=0.8)
        assert mdp.succ.shape == (mdp.table_size, 1)
        assert np.array_equal(mdp.succ[:, 0], np.argmax(mdp.transition, axis=2).ravel())
        arrays = [v for v in vars(mdp).values() if isinstance(v, np.ndarray)]
        assert all(a.size <= mdp.table_size for a in arrays)

    def test_zero_probability_state_never_sampled(self):
        # the row sums to 1 - 4e-13; a uniform above that sum must still
        # land on a successor, not on the zero-probability state 2
        transition = np.array([[[0.5, 0.5 - 4e-13, 0.0]], [[0.25, 0.5, 0.25]], [[0.0, 0.0, 1.0]]])
        mdp = dense_mdp(transition, np.zeros((3, 1)), gamma=0.8)
        next_states, _ = fedq.synchronous_sample(mdp, _StubRng(uniform_value=1.0 - 1e-13))
        assert next_states[0, 0] == 1
        assert np.array_equal(mdp.succ_cum[0], [0.5, 1.0, 1.0])

    @pytest.mark.parametrize("u", [0.5, 1.0 - 1e-13])
    def test_zero_slot_inside_row_never_sampled(self, u):
        # slot 1 lists state 2 at probability 0 between two positive slots
        succ = [[0, 2, 1], [1, 1, 1], [2, 2, 2]]
        succ_p = [[0.5, 0.0, 0.5 - 4e-13], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        mdp = fedq.TabularMDP(succ, succ_p, np.zeros((3, 1)), gamma=0.8)
        assert np.array_equal(mdp.succ_cum[0], [0.5, 0.5, 1.0])
        next_states, _ = fedq.synchronous_sample(mdp, _StubRng(uniform_value=u))
        assert next_states[0, 0] == 1

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_dense_inverse_cdf(self, seed):
        mdp = sparse_random_mdp(np.random.default_rng(seed))
        cum = np.cumsum(mdp.transition, axis=2)
        cum[:, :, -1] = 1.0
        gen = fedq.RngStream(seed).generator()
        ref_gen = fedq.RngStream(seed).generator()
        next_states, _ = fedq.synchronous_sample(mdp, gen)
        u = ref_gen.random((mdp.n_states, mdp.n_actions))
        assert np.array_equal(next_states, np.argmax(u[:, :, None] < cum, axis=2))
        assert gen.random() == ref_gen.random()


class TestSynchronousSample:
    @pytest.mark.parametrize("noisy", [False, True])
    def test_batch_rows_match_single_draws(self, noisy):
        noise = fedq.NoiseSpec(std=0.5, clip=0.5) if noisy else fedq.NoiseSpec()
        base = sparse_random_mdp(np.random.default_rng(3))
        mdp = fedq.TabularMDP(base.succ, base.succ_p, base.reward_mean, gamma=0.8, noise=noise, r_max=1.5)
        assert mdp.succ.shape[1] > 1
        streams = [fedq.RngStream(8, (i,)) for i in range(3)]
        gens = [s.generator() for s in streams]
        next_states, rewards = fedq.mdp.synchronous_sample_batch(mdp, gens)
        assert next_states.shape == rewards.shape == (3, mdp.n_states, mdp.n_actions)
        for i, stream in enumerate(streams):
            ref_gen = stream.generator()
            ns, rw = fedq.synchronous_sample(mdp, ref_gen)
            assert np.array_equal(next_states[i], ns)
            assert rewards[i].tobytes() == rw.tobytes()
            assert gens[i].random() == ref_gen.random()

    def test_batch_rows_match_direct_generator_draws(self):
        # the oracle draws with Generator.random and Generator.normal themselves, not the sampler
        noise = fedq.NoiseSpec(std=0.5, clip=0.5)
        base = sparse_random_mdp(np.random.default_rng(5))
        mdp = fedq.TabularMDP(base.succ, base.succ_p, base.reward_mean, gamma=0.8, noise=noise, r_max=1.5)
        assert mdp.succ.shape[1] > 1
        shape = (mdp.n_states, mdp.n_actions)
        cum = np.cumsum(mdp.transition, axis=2)
        cum[:, :, -1] = 1.0
        streams = [fedq.RngStream(21, (i,)) for i in range(3)]
        gens = [s.generator() for s in streams]
        next_states, rewards = fedq.mdp.synchronous_sample_batch(mdp, gens)
        for i, stream in enumerate(streams):
            ref = stream.generator()
            u = ref.random(shape)
            clipped = np.clip(ref.normal(0.0, noise.std, shape), -noise.clip, noise.clip)
            assert np.array_equal(next_states[i], np.argmax(u[:, :, None] < cum, axis=2))
            assert rewards[i].tobytes() == (mdp.reward_mean + clipped).tobytes()
            assert gens[i].random() == ref.random()

    def test_shapes_and_dtype(self, map5x5_noisy):
        ns, rw = fedq.synchronous_sample(map5x5_noisy, fedq.RngStream(0).generator())
        assert ns.shape == rw.shape == (25, 4)
        assert np.issubdtype(ns.dtype, np.integer)

    def test_degenerate_randomness(self, map5x5_mdp):
        ns, rw = fedq.synchronous_sample(map5x5_mdp, fedq.RngStream(5).generator())
        assert np.array_equal(ns, np.argmax(map5x5_mdp.transition, axis=2))
        assert np.array_equal(rw, map5x5_mdp.reward_mean)

    def test_identical_stream_identical_tables(self, map5x5_noisy):
        stream = fedq.RngStream(9, (4, 4, 4))
        ns1, rw1 = fedq.synchronous_sample(map5x5_noisy, stream.generator())
        ns2, rw2 = fedq.synchronous_sample(map5x5_noisy, stream.generator())
        assert np.array_equal(ns1, ns2)
        assert np.array_equal(rw1, rw2)

    def test_rewards_in_band(self):
        rng = np.random.default_rng(1)
        noise = fedq.NoiseSpec(std=1.0, clip=0.25)
        mdp = random_mdp(rng, noise=noise)
        for trial in range(50):
            _, rw = fedq.synchronous_sample(mdp, fedq.RngStream(1, (trial,)).generator())
            assert np.all(np.abs(rw - mdp.reward_mean) <= noise.clip)

    def test_stochastic_rows_follow_kernel(self):
        rng = np.random.default_rng(2)
        mdp = random_mdp(rng, n_states=3, n_actions=2)
        gen = fedq.RngStream(8).generator()
        counts = np.zeros((3, 2, 3))
        n = 20_000
        for _ in range(n):
            ns, _ = fedq.synchronous_sample(mdp, gen)
            for s in range(3):
                for a in range(2):
                    counts[s, a, ns[s, a]] += 1
        freq = counts / n
        se = np.sqrt(mdp.transition * (1 - mdp.transition) / n)
        assert np.all(np.abs(freq - mdp.transition) <= 4 * se + 1e-12)


class TestStreamIndependence:
    def test_chi_square_across_agent_streams(self):
        # joint next-state outcomes for two agents on a 2-state coin MDP
        mdp = two_state_mdp(p=(0.5, 0.5))
        n = 10_000
        cells = np.zeros((2, 2))
        # the streams of paths (0, t) and (1, t), seeded in one batch
        paths = [(agent, t) for t in range(n) for agent in (0, 1)]
        for words in seed_words(123, paths).reshape(n, 2, 4):
            g0, g1 = generators(words)
            a0 = fedq.synchronous_sample(mdp, g0)[0][0, 0]
            a1 = fedq.synchronous_sample(mdp, g1)[0][0, 0]
            cells[a0, a1] += 1
        statistic = float(((cells - n / 4) ** 2 / (n / 4)).sum())
        critical = stats.chi2.ppf(0.99, df=3)
        assert statistic < critical

    def test_distinct_paths_differ(self):
        a = fedq.RngStream(5, (0, 1)).generator().random(8)
        b = fedq.RngStream(5, (0, 2)).generator().random(8)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParamOutOfRangeError, match="-1"):
            fedq.RngStream(-1)

    def test_child_extends_path(self):
        root = fedq.RngStream(17)
        assert root.child(2, 3).path == (2, 3)
        assert root.child(2).child(3).path == (2, 3)
        direct = root.child(2, 3).generator().random(4)
        chained = root.child(2).child(3).generator().random(4)
        assert np.array_equal(direct, chained)
