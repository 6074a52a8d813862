import functools
import hashlib
import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest

import fedq
from fedq.compression import RULE_UNIFORM, EfState
from fedq.engine import (
    DIRECT,
    ERROR_FEEDBACK,
    MODES,
    SEED_BLOCK,
    _arm,
    _Batch,
    _server_step,
)
from fedq.errors import BudgetOutOfRangeError, NonFiniteError, ParamOutOfRangeError, ShapeMismatchError
from fedq.rng import seed_words
from tests.conftest import dense_mdp, padded_twin, random_mdp, sparse_from_dense


def make_config(**overrides):
    base = dict(
        n_agents=2,
        local_epochs=1,
        rounds=5,
        eta=0.2,
        beta=0.8,
        gamma=0.8,
        compressor=fedq.CompressorSpec("identity"),
        master_seed=0,
    )
    base.update(overrides)
    return fedq.ExperimentConfig(**base)


def epoch(q, mdp, eta, streams, rows):
    """The engine's epoch at one eta: a batch's local phase of one epoch on the streams' sample tables.

    Row i of the (N, S, A) batch ``q`` updates from the table of ``streams[rows[i]]``, on the path
    that draws each stream's next states, whatever the table's w.
    """
    batch = _Batch([make_config(n_agents=len(rows), eta=eta, gamma=mdp.gamma)], mdp)
    batch.rows, batch.shared, batch.index = rows, True, None
    words = np.concatenate([seed_words(stream.seed, [stream.path]) for stream in streams])
    return batch.local_phases(q, words[None])


@functools.cache
def stochastic_table(noisy):
    """A small random MDP with w = S successors per row, noisy or not, and its fixed point."""
    noise = fedq.NoiseSpec(std=0.5, clip=0.5) if noisy else None
    mdp = random_mdp(np.random.default_rng(11), n_states=5, n_actions=3, noise=noise)
    return mdp, fedq.value_iteration(mdp, tol=1e-12)


def local_phase_reference(q_bar, mdp, eta, n_epochs, root, t, agent):
    """Agent ``agent``'s round-t local phase from the public sampler and operator."""
    q = q_bar
    for k in range(n_epochs):
        next_states, rewards = fedq.synchronous_sample(mdp, root.child(agent, t, k).generator())
        q = (1.0 - eta) * q + eta * fedq.empirical_bellman(q, next_states, rewards, mdp.gamma)
    return q


class TestLocalEpoch:
    def test_full_step_equals_exact_operator_when_deterministic(self, map5x5_mdp):
        rng = np.random.default_rng(0)
        q = rng.uniform(-2, 2, (25, 4))
        out = epoch(q[None], map5x5_mdp, 1.0, [fedq.RngStream(0)], np.arange(1))[0]
        assert np.allclose(out, fedq.exact_bellman(map5x5_mdp, q), rtol=0, atol=1e-12)

    def test_half_step_arithmetic(self):
        # one state, reward 1: the damped update moves half way to the target
        mdp = dense_mdp(np.ones((1, 1, 1)), np.array([[1.0]]), gamma=0.5)
        cfg = make_config(n_agents=1, rounds=1, eta=0.5, beta=1.0, gamma=0.5)
        result = fedq.run_federated(cfg, mdp, np.array([[2.0]]))
        assert result.q_final[0, 0] == 0.5

    def test_stability_bound(self, map5x5_noisy):
        rng = np.random.default_rng(1)
        gamma = map5x5_noisy.gamma
        reward_cap = map5x5_noisy.r_max  # mean capped at 1, noise at 0.5
        q = rng.uniform(-6, 6, (20, 25, 4))
        streams = [fedq.RngStream(2, (trial,)) for trial in range(20)]
        out = epoch(q, map5x5_noisy, 0.3, streams, np.arange(20))
        for q_i, out_i in zip(q, out):
            cap = max(np.max(np.abs(q_i)), reward_cap + gamma * np.max(np.abs(q_i)))
            assert np.max(np.abs(out_i)) <= cap + 1e-12

    @pytest.mark.parametrize("table", ["map5x5", "stochastic"])
    def test_row_reads_the_stream_its_index_names(self, table, map5x5_noisy):
        # rows [1, 0, 1] over two streams: row i gets exactly stream rows[i]'s update alone, on a
        # w = 1 map and on a w = S table whose next states each stream draws
        mdp = map5x5_noisy if table == "map5x5" else stochastic_table(True)[0]
        q = np.random.default_rng(3).uniform(-2, 2, (3, mdp.n_states, mdp.n_actions))
        streams = [fedq.RngStream(4, (j,)) for j in range(2)]
        rows = np.array([1, 0, 1])
        out = epoch(q, mdp, 0.3, streams, rows)
        for i, j in enumerate(rows):
            alone = epoch(q[i][None], mdp, 0.3, [streams[j]], np.arange(1))
            assert out[i].tobytes() == alone[0].tobytes()
        # and the streams differ, so reading the other one would show
        other = epoch(q[:1], mdp, 0.3, [streams[0]], np.arange(1))
        assert not np.array_equal(out[0], other[0])


class TestLocalPhase:
    def test_single_epoch_reduces_to_local_epoch(self, map5x5_noisy):
        q0 = np.zeros((25, 4))
        root = fedq.RngStream(5)
        batch = _Batch([make_config(n_agents=1, rounds=1, eta=0.3, master_seed=5)], map5x5_noisy)
        phase = batch.local_phases(q0[None], next(batch.words(1)))
        single = epoch(q0[None], map5x5_noisy, 0.3, [root.child(0, 0, 0)], np.arange(1))
        assert np.array_equal(phase, single)

    def test_full_steps_compose_exact_operator(self, map5x5_mdp, map5x5_qstar, server_tables):
        cfg = make_config(n_agents=1, local_epochs=3, rounds=3, eta=1.0, beta=1.0, q0=1.5)
        fedq.run_federated(cfg, map5x5_mdp, map5x5_qstar)
        assert len(server_tables) == 3
        tables = [np.full((25, 4), 1.5)] + server_tables
        for before, after in zip(tables, tables[1:]):
            expected = before
            for _ in range(3):
                expected = fedq.exact_bellman(map5x5_mdp, expected)
            assert np.allclose(after, expected, rtol=0, atol=1e-12)

    def test_identical_streams_identical_phases(self, map5x5_noisy):
        q0 = np.zeros((25, 4))
        cfg = make_config(n_agents=3, local_epochs=4, rounds=8, eta=0.3, master_seed=9)
        a, b = (batch.local_phases(q0[None], list(batch.words(8))[7])
                for batch in (_Batch([cfg], map5x5_noisy), _Batch([cfg], map5x5_noisy)))
        assert np.array_equal(a, b)


def dense_rows(payloads):
    """The (I, d) table of a payload list's densified vectors, in list order."""
    return np.stack([h.densify() for h in payloads])


class TestAggregate:
    def test_identity_telescopes(self):
        q_bar = np.array([[1.0]])
        q_local = np.array([[3.0]])
        out = _server_step(q_bar[None], (q_local - q_bar).reshape(1, -1), np.array([1.0]))[0]
        assert np.array_equal(out, q_local)

    def test_two_agent_average(self):
        # agent 0 ships 2.0, agent 1 ships nothing
        out = _server_step(np.zeros((1, 1, 1)), np.array([[2.0], [0.0]]), np.array([1.0]))[0]
        assert out[0, 0] == 1.0

    def test_server_step_scaling(self):
        out = _server_step(np.array([[[1.0]]]), np.array([[2.0]]), np.array([0.5]))[0]
        assert out[0, 0] == 2.0

    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_scatter_add_matches_densify_and_add(self, beta):
        d = 6
        payloads = [
            fedq.SparseVector(d, np.arange(d), np.array([-0.0, 0.0, 1.5, -0.0, -2.0, 0.0])),
            fedq.SparseVector(d, np.array([], dtype=np.int64), np.array([])),
            fedq.SparseVector(d, np.array([0, 3, 5]), np.array([-0.0, 0.25, -1e-300])),
            fedq.SparseVector(d, np.array([1, 2]), np.array([1e16, -0.1])),
        ]
        q_bar = np.array([[-0.0, 0.0, 3.0], [1.0, -0.0, 0.0]])
        for h_list in (payloads, payloads[1:2], payloads[:1], payloads[::-1]):
            acc = np.zeros(d)
            for h in h_list:
                acc += h.densify()
            expected = q_bar + (beta / len(h_list)) * acc.reshape(q_bar.shape)
            out = _server_step(q_bar[None], dense_rows(h_list), np.array([beta]))[0]
            assert out.tobytes() == expected.tobytes()

    def test_gather_order_not_schedule_dependent(self, map5x5_noisy):
        # compute agent payloads in two processing orders; aggregation by
        # ascending id gives bit-identical servers either way, and equals
        # the engine's batched local phases
        q_bar = np.zeros((25, 4))
        root = fedq.RngStream(21)

        def payload(agent):
            q = local_phase_reference(q_bar, map5x5_noisy, 0.2, 2, root, 0, agent)
            return sparse_from_dense((q - q_bar).ravel())

        forward = [payload(i) for i in (0, 1, 2)]
        backward = list(reversed([payload(i) for i in (2, 1, 0)]))
        out_f = _server_step(q_bar[None], dense_rows(forward), np.array([0.7]))[0]
        out_b = _server_step(q_bar[None], dense_rows(backward), np.array([0.7]))[0]
        assert np.array_equal(out_f, out_b)
        batch = _Batch([make_config(n_agents=3, local_epochs=2, rounds=1, eta=0.2, master_seed=21)], map5x5_noisy)
        batched = [sparse_from_dense((q - q_bar).ravel())
                   for q in batch.local_phases(q_bar[None], next(batch.words(1)))]
        assert _server_step(q_bar[None], dense_rows(batched), np.array([0.7]))[0].tobytes() == out_f.tobytes()


class TestConfigValidation:
    def test_ranges(self):
        for bad in (dict(eta=0.0), dict(eta=1.5), dict(beta=0.0), dict(gamma=1.0),
                    dict(n_agents=0), dict(rounds=0), dict(local_epochs=0),
                    dict(mode="broadcast"), dict(master_seed=-1), dict(fpp=0),
                    dict(n_agents=2**32), dict(rounds=2**32), dict(local_epochs=2**32 - 1),
                    dict(n_agents=2.5), dict(rounds=2.5), dict(local_epochs=1.5),
                    dict(master_seed=1.5), dict(fpp=16.5), dict(n_agents=True), dict(rounds="3"),
                    dict(eta="0.5"), dict(beta=None), dict(gamma=float("nan")),
                    dict(q0="a"), dict(q0=None), dict(q0=float("nan")), dict(q0=float("inf"))):
            with pytest.raises(ParamOutOfRangeError):
                make_config(**bad)
        for k in (2.5, 3.0, "3", None):
            with pytest.raises(BudgetOutOfRangeError):
                fedq.CompressorSpec("top_k", k)
        with pytest.raises(BudgetOutOfRangeError):
            fedq.CompressorSpec("identity", -1)

    @pytest.mark.parametrize("compressor", ["top_k", None, {"kind": "top_k", "k": 5}])
    def test_compressor_must_be_a_spec(self, compressor):
        with pytest.raises(ParamOutOfRangeError, match="compressor must be a CompressorSpec"):
            make_config(compressor=compressor)

    def test_numpy_scalars_accepted(self, map5x5_noisy, map5x5_qstar):
        # numpy integers run as their ints, and numpy floats as their floats, not in float32 or float16
        counts = dict(n_agents=3, local_epochs=2, rounds=4, master_seed=11, fpp=16)
        reals = dict(eta=np.float32(0.1), beta=np.float16(0.7), q0=np.float32(0.3))
        spec = fedq.CompressorSpec("sparsified_k", 5)
        as_python = make_config(compressor=spec, **counts, **{name: float(v) for name, v in reals.items()})
        as_numpy = make_config(compressor=fedq.CompressorSpec("sparsified_k", np.int64(5)),
                               **{name: np.uint32(v) for name, v in counts.items()}, **reals)
        assert as_numpy == as_python
        assert all(type(getattr(as_numpy, name)) is float for name in reals)
        a = fedq.run_federated(as_numpy, map5x5_noisy, map5x5_qstar)
        b = fedq.run_federated(as_python, map5x5_noisy, map5x5_qstar)
        assert a.metrics == b.metrics
        assert a.q_final.tobytes() == b.q_final.tobytes()

    @pytest.mark.parametrize("eta", [np.float32(0.1), np.float16(0.1), Fraction(1, 10)],
                             ids=["float32", "float16", "Fraction"])
    def test_eta_of_any_real_type_runs_as_its_float(self, eta, map5x5_noisy, map5x5_qstar):
        # a numpy eta took 1 - eta in its own precision, and a Fraction raised numpy's UFuncTypeError
        base = dict(n_agents=3, local_epochs=2, rounds=5, beta=0.8, compressor=fedq.CompressorSpec("top_k", 5))
        a = fedq.run_federated(make_config(eta=eta, **base), map5x5_noisy, map5x5_qstar)
        b = fedq.run_federated(make_config(eta=float(eta), **base), map5x5_noisy, map5x5_qstar)
        assert a.metrics == b.metrics
        assert a.q_final.tobytes() == b.q_final.tobytes()

    def test_stream_ids_up_to_uint32_accepted(self):
        # ids i < n_agents, t < rounds and k <= local_epochs name stream paths
        make_config(n_agents=2**32 - 1, rounds=2**32 - 1, local_epochs=2**32 - 2)

    def test_default_mode_pairing(self):
        assert make_config().mode == DIRECT
        assert make_config(compressor=fedq.CompressorSpec("sparsified_k", k=3)).mode == DIRECT
        assert make_config(compressor=fedq.CompressorSpec("top_k", k=3)).mode == ERROR_FEEDBACK
        assert all(make_config(compressor=spec).mode in MODES for spec in COMPRESSORS.values())

    def test_explicit_mode_overrides(self):
        cfg = make_config(compressor=fedq.CompressorSpec("top_k", k=3), mode=DIRECT)
        assert cfg.mode == DIRECT

    def test_q0_bound_enforced(self, map5x5_mdp, map5x5_qstar):
        for q0 in (5.5, float("nan")):  # r_max/(1-gamma) = 5 for the noiseless map
            with pytest.raises(ParamOutOfRangeError):
                fedq.run_federated(make_config(q0=q0), map5x5_mdp, map5x5_qstar)

    def test_gamma_must_match_mdp(self, map5x5_mdp, map5x5_qstar):
        cfg = make_config(gamma=0.9)
        with pytest.raises(ParamOutOfRangeError):
            fedq.run_federated(cfg, map5x5_mdp, map5x5_qstar)

    def test_budget_above_table_size_rejected(self, map5x5_mdp, map5x5_qstar):
        cfg = make_config(compressor=fedq.CompressorSpec("top_k", k=101))
        with pytest.raises(BudgetOutOfRangeError, match=r"k=101 .* d=100"):
            fedq.run_federated(cfg, map5x5_mdp, map5x5_qstar)
        make_config(compressor=fedq.CompressorSpec("top_k", k=100)).check_against(map5x5_mdp)


class TestRunFederated:
    def test_seeding_in_bounded_blocks(self, map5x5_noisy, map5x5_qstar, monkeypatch):
        # I*(K+1)*T = 140 000 sampling and compressor streams: three seed_words
        # calls, none over SEED_BLOCK paths, and the same q_final as seeding the
        # whole run in one call
        calls = []
        seed_words = fedq.engine.seed_words

        def spy(seed, paths):
            calls.append(len(paths))
            return seed_words(seed, paths)

        monkeypatch.setattr(fedq.engine, "seed_words", spy)
        cfg = make_config(n_agents=50, local_epochs=1, rounds=1400, eta=0.3, master_seed=7,
                          compressor=fedq.CompressorSpec("sparsified_k", k=5))
        result = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
        assert sum(calls) == 50 * 2 * 1400
        assert len(calls) == 3 and max(calls) <= SEED_BLOCK
        assert hashlib.sha256(result.q_final.tobytes()).hexdigest() == (
            "ad1af96833f6ec7f6ada5af8804c301c109b5fda84e786349f80921055587301"
        )

    def test_trace_shape_and_round_zero(self, map5x5_noisy, map5x5_qstar):
        cfg = make_config(rounds=7)
        result = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
        assert len(result.metrics) == 8
        first = result.metrics[0]
        assert first.round == 0 and first.bits_cumulative == 0.0
        assert first.rmse == fedq.rmse(np.zeros((25, 4)), map5x5_qstar)

    def test_columns_are_named_by_the_trace_layout(self, map5x5_noisy, map5x5_qstar):
        # RoundMetrics states the column order once: a run's columns are one, read by field name
        result = fedq.run_federated(make_config(rounds=3), map5x5_noisy, map5x5_qstar)
        assert type(result.columns) is fedq.RoundMetrics
        assert list(result.columns.round) == [m.round for m in result.metrics] == [0, 1, 2, 3]

    def test_deterministic_given_seed(self, map5x5_noisy, map5x5_qstar):
        cfg = make_config(rounds=6, compressor=fedq.CompressorSpec("sparsified_k", k=5))
        a = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
        b = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
        assert a.metrics == b.metrics
        assert np.array_equal(a.q_final, b.q_final)

    def test_uncompressed_federated_baseline_equivalence(self, map5x5_noisy, map5x5_qstar,
                                                         server_tables):
        # identity payloads with beta=1 follow the plain periodic-averaging
        # recursion driven by the same sample streams, bit for bit
        I, K, T = 3, 2, 12
        cfg = make_config(n_agents=I, local_epochs=K, rounds=T, beta=1.0, eta=0.3)
        fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
        assert len(server_tables) == T

        root = fedq.RngStream(0)
        q_bar = np.zeros((25, 4))
        for t in range(T):
            acc = np.zeros(100)
            for i in range(I):
                q_i = local_phase_reference(q_bar, map5x5_noisy, 0.3, K, root, t, i)
                acc += (q_i - q_bar).ravel()
            q_bar = q_bar + (1.0 / I) * acc.reshape(25, 4)
            assert np.array_equal(server_tables[t], q_bar)

    def test_full_budget_top_k_matches_identity_run(self, map5x5_noisy, map5x5_qstar,
                                                    server_tables):
        base = make_config(rounds=15, n_agents=2, eta=0.3)
        fedq.run_federated(base, map5x5_noisy, map5x5_qstar)
        assert len(server_tables) == 15
        ident_tables = server_tables.copy()
        server_tables.clear()
        topk = fedq.run_federated(
            make_config(rounds=15, n_agents=2, eta=0.3,
                        compressor=fedq.CompressorSpec("top_k", k=100)),
            map5x5_noisy, map5x5_qstar,
        )
        assert len(server_tables) == 15
        for qa, qb in zip(ident_tables, server_tables):
            assert np.array_equal(qa, qb)
        assert topk.alpha_min == 1.0

    def test_monotone_bits(self, map5x5_noisy, map5x5_qstar):
        cfg = make_config(rounds=10, compressor=fedq.CompressorSpec("sparsified_k", k=5))
        result = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
        for prev, cur in zip(result.metrics, result.metrics[1:]):
            assert cur.bits_cumulative >= prev.bits_cumulative
            if cur.payload_entries > 0:
                assert cur.bits_cumulative > prev.bits_cumulative

    def test_table_boundedness(self, map5x5_noisy, map5x5_qstar, server_tables):
        cap = (map5x5_noisy.r_max + map5x5_noisy.noise.clip) / (1 - map5x5_noisy.gamma)
        cfg = make_config(rounds=60, n_agents=3, eta=0.5,
                          compressor=fedq.CompressorSpec("top_k", k=10))
        fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
        assert len(server_tables) == 60
        for q in server_tables:
            assert np.max(np.abs(q)) <= cap + 1e-9

    def test_bits_accounting_identity_vs_topk(self, map5x5_noisy, map5x5_qstar):
        ident = fedq.run_federated(make_config(rounds=2), map5x5_noisy, map5x5_qstar)
        assert ident.metrics[1].bits_round == 100 * 32
        topk = fedq.run_federated(
            make_config(rounds=2, compressor=fedq.CompressorSpec("top_k", k=5)),
            map5x5_noisy, map5x5_qstar,
        )
        assert topk.metrics[1].bits_round == 5 * (7 + 32)  # ceil(log2 100) = 7

    def test_sparsified_tracks_support_p_min(self, map5x5_noisy, map5x5_qstar):
        cfg = make_config(rounds=4, compressor=fedq.CompressorSpec("sparsified_k", k=5))
        result = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
        assert result.p_support_min is not None
        assert 0.0 < result.p_support_min <= 1.0


class TestPayloadEntries:
    def test_empty(self):
        assert len(fedq.SparseVector(4, np.array([], dtype=np.int64), np.array([]))) == 0

    def test_topk_exact_budget(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=30)
        assert len(fedq.top_k(v, 6)) == 6

    def test_sparsified_expected_count(self):
        v = np.array([4.0, -2.0, 1.0, 0.5, 0.25])
        k, n = 2, 10_000
        p = fedq.selection_probabilities(v, k)
        gen = fedq.RngStream(3).generator()
        counts = [len(fedq.sparsified_k(v, k, gen)) for _ in range(n)]
        expected = p.sum()
        sigma = np.sqrt(np.sum(p * (1 - p)) / n)
        assert expected <= k
        assert abs(np.mean(counts) - expected) <= 3 * sigma


def per_agent_reference(config, mdp, q_star):
    """The federated loop one agent at a time, summing densified payloads."""
    spec, mode, d = config.compressor, config.mode, mdp.table_size
    root = fedq.RngStream(config.master_seed)
    q_bar = np.full((mdp.n_states, mdp.n_actions), float(config.q0))
    ef_states = [EfState.zeros(d) for _ in range(config.n_agents)]
    alpha_min = p_support_min = None
    rows, cumulative = [(fedq.rmse(q_bar, q_star), fedq.linf_error(q_bar, q_star), 0.0, 0.0, 0)], 0.0
    for t in range(config.rounds):
        h_list = []
        for i in range(config.n_agents):
            q_local = local_phase_reference(q_bar, mdp, config.eta, config.local_epochs, root, t, i)
            delta = (q_local - q_bar).ravel()
            comp_rng = (root.child(i, t, config.local_epochs).generator()
                        if spec.kind == "sparsified_k" else None)
            pending = delta + ef_states[i].e if mode == ERROR_FEEDBACK else delta
            if spec.kind == "top_k" and np.any(pending):
                a = fedq.contraction_alpha(pending, spec.k)
                alpha_min = a if alpha_min is None else min(alpha_min, a)
            elif spec.kind == "sparsified_k":
                p = fedq.selection_probabilities(pending, spec.k, spec.probability_rule)
                if np.any(p > 0):
                    pm = float(p[p > 0].min())
                    p_support_min = pm if p_support_min is None else min(p_support_min, pm)
            if mode == ERROR_FEEDBACK:
                h, ef_states[i] = fedq.ef_compress(ef_states[i], delta, spec, comp_rng)
            else:
                h = fedq.direct_compress(delta, spec, comp_rng)
            h_list.append(h)
        acc = np.zeros(d)
        for h in h_list:
            acc += h.densify()
        q_bar = q_bar + (config.beta / config.n_agents) * acc.reshape(q_bar.shape)
        bits = float(sum(fedq.payload_bits(spec.kind, d, len(h)) for h in h_list)) / config.n_agents
        cumulative += bits
        rows.append((fedq.rmse(q_bar, q_star), fedq.linf_error(q_bar, q_star), bits, cumulative,
                     sum(len(h) for h in h_list)))
    return q_bar, rows, alpha_min, p_support_min


def assert_matches_reference(config, mdp, q_star):
    """``run_federated`` gives :func:`per_agent_reference`'s table, trace rows and constants, bit for bit."""
    result = fedq.run_federated(config, mdp, q_star)
    q_final, rows, alpha_min, p_support_min = per_agent_reference(config, mdp, q_star)
    assert result.q_final.tobytes() == q_final.tobytes()
    assert [(m.rmse, m.linf_error, m.bits_round, m.bits_cumulative, m.payload_entries)
            for m in result.metrics] == rows
    assert result.alpha_min == alpha_min
    assert result.p_support_min == p_support_min


COMPRESSORS = {
    "identity": fedq.CompressorSpec("identity"),
    "top_k": fedq.CompressorSpec("top_k", k=5),
    "sparsified_l1": fedq.CompressorSpec("sparsified_k", k=5),
    "sparsified_uniform": fedq.CompressorSpec("sparsified_k", k=5, probability_rule=RULE_UNIFORM),
}


@pytest.mark.parametrize(
    "compressor, mode, n_agents, epochs, noisy, q0",
    list(itertools.product(COMPRESSORS, (DIRECT, ERROR_FEEDBACK), (1, 3), (1, 3),
                           (False, True), (0.0, 1.5))),
)
def test_batched_round_matches_per_agent_reference(
    compressor, mode, n_agents, epochs, noisy, q0, map5x5_mdp, map5x5_noisy, map5x5_qstar
):
    cfg = make_config(n_agents=n_agents, local_epochs=epochs, rounds=4, eta=0.3, q0=q0,
                      compressor=COMPRESSORS[compressor], mode=mode, master_seed=7)
    assert_matches_reference(cfg, map5x5_noisy if noisy else map5x5_mdp, map5x5_qstar)


@pytest.mark.parametrize(
    "compressor, mode, n_agents, epochs, noisy",
    list(itertools.product(COMPRESSORS, (DIRECT, ERROR_FEEDBACK), (1, 3), (1, 3), (False, True))),
)
def test_stochastic_table_matches_per_agent_reference(compressor, mode, n_agents, epochs, noisy):
    # a w > 1 table: every epoch draws its next states, and the engine's gather of them gives the
    # bits of the public sampler and empirical_bellman, agent by agent
    cfg = make_config(n_agents=n_agents, local_epochs=epochs, rounds=4, eta=0.3,
                      compressor=COMPRESSORS[compressor], mode=mode, master_seed=7)
    assert_matches_reference(cfg, *stochastic_table(noisy))


def test_checks_do_not_grow_with_local_epochs(monkeypatch):
    # the engine checks its arguments once per run and its round loop's kernels per round, never
    # the sample tables it draws itself: a w > 1 run makes as many check_* calls at K = 5 as at K = 1
    # (top_k, whose every round keeps k entries: the trace prices each distinct total once)
    mdp, q_star = stochastic_table(True)
    configs = {epochs: make_config(n_agents=2, local_epochs=epochs, rounds=4, eta=0.3,
                                   compressor=COMPRESSORS["top_k"]) for epochs in (1, 5)}
    calls = []

    def counted(check):
        def spy(*args, **kwargs):
            calls.append(check.__name__)
            return check(*args, **kwargs)
        return spy

    for name, module in list(sys.modules.items()):
        if name == "fedq" or name.startswith("fedq."):
            for attr, value in list(vars(module).items()):
                if attr.startswith("check_") and getattr(value, "__module__", None) == "fedq.errors":
                    monkeypatch.setattr(module, attr, counted(value))
    counts = {}
    for epochs, cfg in configs.items():
        calls.clear()
        fedq.run_federated(cfg, mdp, q_star)
        counts[epochs] = len(calls)
    assert counts[1] > 0
    assert counts[5] == counts[1]


@pytest.mark.parametrize("n_agents", [9, 16, 32, 64])
def test_one_entry_table_matches_per_agent_reference(n_agents):
    # d = 1: numpy sums an (I, 1) column pairwise once I > 8, in another order
    # than the reference's agent-by-agent sum; the server's row-by-row sum
    # keeps the bytes equal (a pairwise server step fails every case here)
    mdp = dense_mdp(np.ones((1, 1, 1)), np.array([[0.25]]), gamma=0.8,
                    noise=fedq.NoiseSpec(std=0.5, clip=0.5), r_max=0.75)
    q_star = fedq.value_iteration(mdp, tol=1e-12)
    for seed in range(3):
        cfg = make_config(n_agents=n_agents, rounds=10, eta=0.3, beta=0.5, master_seed=seed)
        result = fedq.run_federated(cfg, mdp, q_star)
        q_final, rows, _, _ = per_agent_reference(cfg, mdp, q_star)
        assert result.q_final.tobytes() == q_final.tobytes()
        assert [(m.rmse, m.linf_error, m.bits_round, m.bits_cumulative, m.payload_entries)
                for m in result.metrics] == rows


@pytest.mark.parametrize("n_states, n_actions", [(1, 1), (7, 1), (25, 4), (904, 4), (16512, 4)])
def test_batched_errors_equal_one_table_metrics(n_states, n_actions):
    # one numpy reduction per metric over (R, d) gives, bit for bit, what the one-table formulas
    # written out here give, up to the d = 66 048 of a 128 x 128 map; rmse and linf_error are its batch of one
    rng = np.random.default_rng(n_states)
    q_star = rng.normal(size=(n_states, n_actions))
    scales = np.array([1e-12, 1e-3, 1.0, 1e3, 1e12])[:, None, None]
    q_bar = q_star + rng.normal(size=(5, n_states, n_actions)) * scales
    q_bar[0] = q_star  # an exact match
    rmses, linfs = fedq.bellman.errors_batch(q_bar, q_star)
    assert rmses.tolist() == [float(np.sqrt(np.mean((q - q_star) ** 2))) for q in q_bar]
    assert linfs.tolist() == [float(np.max(np.abs(q - q_star))) for q in q_bar]
    assert [fedq.rmse(q, q_star) for q in q_bar] == rmses.tolist()
    assert [fedq.linf_error(q, q_star) for q in q_bar] == linfs.tolist()


def test_batched_errors_keep_nan_inf_and_signed_zero_bits():
    # a NaN entry makes both metrics NaN, an infinite one makes both inf, and -0.0 differences
    # give +0.0; each row matches np.mean and np.max bit for bit
    q_star = np.array([[0.0, 1.0, -2.0], [0.5, 0.0, 3.0]])
    q = np.repeat(q_star[None], 5, axis=0)
    q[1, 0, 1] = np.nan
    q[2, 1, 2] = np.inf
    q[3, 0, 0], q[3, 1, 0] = -np.inf, 1.5
    q[4, 0, 0] = q[4, 1, 1] = -0.0  # -0.0 - 0.0 is -0.0
    diff = q.reshape(len(q), -1) - q_star.reshape(1, -1)
    assert np.signbit(diff[4]).sum() == 2
    rmses, linfs = fedq.bellman.errors_batch(q, q_star)
    assert rmses.tobytes() == np.sqrt(np.mean(diff**2, axis=1)).tobytes()
    assert linfs.tobytes() == np.max(np.abs(diff), axis=1).tobytes()
    assert rmses.tobytes() == np.array([0.0, np.nan, np.inf, np.inf, 0.0]).tobytes()
    assert linfs.tobytes() == np.array([0.0, np.nan, np.inf, np.inf, 0.0]).tobytes()


def assert_same_run(batched, lone):
    assert batched.metrics == lone.metrics
    assert batched.q_final.tobytes() == lone.q_final.tobytes()
    assert batched.alpha_min == lone.alpha_min
    assert batched.p_support_min == lone.p_support_min


# a repeated seed, and seeds of two and five uint32 words
BATCH_SEEDS = [0, 3, 3, 2**40 + 1, 2**130 + 7]
# a seed repeated apart from itself, and a seed of two uint32 words
MIXED_SEEDS = [3, 0, 3, 2**40 + 1]
# per-run values: eta changes from one entry to the next and recurs apart, and q0 takes both zeros
PER_RUN = [dict(eta=0.3, beta=0.8, q0=0.0), dict(eta=0.1, beta=0.5, q0=-0.0), dict(eta=0.3, beta=1.0, q0=1.5)]


class TestRunFederatedBatch:
    @pytest.mark.parametrize(
        "compressor, mode, epochs, q0",
        list(itertools.product(COMPRESSORS, (DIRECT, ERROR_FEEDBACK), (1, 3), (0.0, 1.5))),
    )
    def test_batch_matches_lone_runs(self, compressor, mode, epochs, q0, map5x5_noisy, map5x5_qstar):
        configs = [make_config(n_agents=3, local_epochs=epochs, rounds=4, eta=0.3, q0=q0,
                               compressor=COMPRESSORS[compressor], mode=mode, master_seed=seed)
                   for seed in BATCH_SEEDS]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        assert len(results) == len(configs)
        for cfg, batched in zip(configs, results):
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    @pytest.mark.parametrize("compressor, default", [("top_k", ERROR_FEEDBACK), ("sparsified_l1", DIRECT)])
    def test_unset_and_default_mode_batch_together(self, compressor, default, map5x5_noisy, map5x5_qstar):
        # mode=None is resolved at construction, so it batches with its explicit spelling
        configs = [make_config(n_agents=3, rounds=4, compressor=COMPRESSORS[compressor], master_seed=seed,
                               mode=mode) for seed, mode in ((0, None), (1, default), (2, None))]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        for cfg, batched in zip(configs, results):
            assert cfg.mode == default
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    def test_unset_mode_equals_default_mode(self):
        spec = fedq.CompressorSpec("top_k", k=5)
        assert make_config(compressor=spec) == make_config(compressor=spec, mode=ERROR_FEEDBACK)
        assert make_config(compressor=spec) != make_config(compressor=spec, mode=DIRECT)

    def test_batch_of_one(self, map5x5_noisy, map5x5_qstar):
        cfg = make_config(n_agents=4, rounds=6, master_seed=9,
                          compressor=fedq.CompressorSpec("sparsified_k", k=5))
        [batched] = fedq.run_federated_batch([cfg], map5x5_noisy, map5x5_qstar)
        assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    def test_all_zero_uploads_leave_alpha_unset(self):
        # zero rewards from a zero table: every upload of every seed is the zero vector
        mdp = dense_mdp(np.ones((1, 1, 1)), np.array([[0.0]]), gamma=0.8)
        configs = [make_config(n_agents=2, rounds=3, compressor=fedq.CompressorSpec("top_k", k=1),
                               master_seed=seed) for seed in (1, 2)]
        results = fedq.run_federated_batch(configs, mdp, np.zeros((1, 1)))
        for cfg, batched in zip(configs, results):
            assert batched.alpha_min is None
            assert_same_run(batched, fedq.run_federated(cfg, mdp, np.zeros((1, 1))))

    def test_groups_bound_the_batch(self, map5x5_noisy, map5x5_qstar, monkeypatch, run_groups):
        # room for two runs of 2 agents x 100 entries per group: 5 seeds run as 2 + 2 + 1
        monkeypatch.setattr(fedq.engine, "BATCH_CELLS", 2 * 2 * 100 + 1)
        configs = [make_config(rounds=5, compressor=fedq.CompressorSpec("top_k", k=5), master_seed=seed)
                   for seed in BATCH_SEEDS]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        assert [len(group) for group in run_groups] == [2, 2, 1]
        for cfg, batched in zip(configs, results):
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    @pytest.mark.parametrize("rows_per_call, calls", [(1, [1] * 8), (3, [3, 3, 2])])
    def test_block_scoring_gives_the_bits_of_one_block(self, map5x5_noisy, map5x5_qstar, monkeypatch, tmp_path,
                                                        rows_per_call, calls):
        # 3 runs x d = 100 entries per trace row and 8 trace rows: scored one row per errors_batch call
        # (each round alone) or in blocks of 3, 3 and 2 rows, the same bits as all 8 rows in one call;
        # the identity run realizes no compressor constant, so both its minima stay None
        configs = [make_config(rounds=7, compressor=fedq.CompressorSpec(kind, k=5), master_seed=seed)
                   for seed, kind in enumerate(["identity", "top_k", "sparsified_k"])]
        scored = []
        errors_batch = fedq.engine.errors_batch

        def spy(q, q_ref):
            scored.append(len(q) // len(configs))
            return errors_batch(q, q_ref)

        monkeypatch.setattr(fedq.engine, "errors_batch", spy)
        monkeypatch.setattr(fedq.engine, "_SCORE_CELLS", 8 * len(configs) * 100)
        whole = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        monkeypatch.setattr(fedq.engine, "_SCORE_CELLS", rows_per_call * len(configs) * 100)
        blocks = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        assert scored == [8] + calls
        assert whole[0].alpha_min is None and whole[0].p_support_min is None
        assert whole[1].alpha_min is not None and whole[2].p_support_min is not None
        for one, split in zip(whole, blocks):
            fedq.harness.write_trace_csv(tmp_path / "one.csv", one.metrics)
            fedq.harness.write_trace_csv(tmp_path / "split.csv", split.metrics)
            assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "split.csv").read_bytes()
            assert one.q_final.tobytes() == split.q_final.tobytes()
            assert (one.alpha_min, one.p_support_min) == (split.alpha_min, split.p_support_min)

    def test_seed_blocks_count_every_row(self, map5x5_noisy, map5x5_qstar, monkeypatch):
        # 3 seeds x 2 agents x 2 streams = 12 paths a round: 8 rounds per block of at most
        # 100 paths, one seed_words call per seed and block
        calls = []
        seed_words = fedq.engine.seed_words

        def spy(seed, paths):
            calls.append(len(paths))
            return seed_words(seed, paths)

        monkeypatch.setattr(fedq.engine, "SEED_BLOCK", 100)
        monkeypatch.setattr(fedq.engine, "seed_words", spy)
        configs = [make_config(rounds=20, compressor=fedq.CompressorSpec("sparsified_k", k=5),
                               master_seed=seed) for seed in (4, 5, 6)]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        assert calls == [32] * 6 + [16] * 3
        monkeypatch.setattr(fedq.engine, "seed_words", seed_words)
        for cfg, batched in zip(configs, results):
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    @pytest.mark.parametrize("change", [dict(n_agents=3), dict(local_epochs=2), dict(rounds=4)])
    def test_shared_field_change_starts_a_new_batch(self, change, map5x5_noisy, map5x5_qstar, run_groups):
        configs = [make_config(master_seed=0), make_config(master_seed=1, **change)]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        assert run_groups == [[0], [1]]
        for cfg, batched in zip(configs, results):
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    @pytest.mark.parametrize("change", [dict(compressor=fedq.CompressorSpec("top_k", k=5)),
                                        dict(mode=ERROR_FEEDBACK), dict(fpp=16), dict(eta=0.3),
                                        dict(beta=0.5), dict(q0=1.0), dict(q0=-0.0)])
    def test_per_run_values_may_differ(self, change, map5x5_noisy, map5x5_qstar, run_groups):
        configs = [make_config(master_seed=0), make_config(master_seed=1, **change)]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        assert run_groups == [[0, 1]]
        assert results[0].seconds == results[1].seconds > 0  # the batch's wall time, split evenly
        for cfg, batched in zip(configs, results):
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    def test_equal_etas_of_two_types_keep_their_lone_bits(self, map5x5_noisy, map5x5_qstar, run_groups):
        # the two etas compare equal and share one eta block, which damped both runs in float32
        base = dict(n_agents=3, local_epochs=2, rounds=5, beta=0.8, compressor=fedq.CompressorSpec("top_k", 5))
        configs = [make_config(eta=np.float32(0.1), master_seed=1, **base),
                   make_config(eta=float(np.float32(0.1)), master_seed=2, **base)]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        assert run_groups == [[1, 2]]
        assert_same_run(results[1], fedq.run_federated(configs[1], map5x5_noisy, map5x5_qstar))

    def test_configs_of_one_shape_batch_in_any_order(self, map5x5_noisy, map5x5_qstar, run_groups):
        # I = 2, 3, 2: the two I = 2 runs share a batch across the I = 3 run between them
        configs = [make_config(n_agents=n_agents, master_seed=seed)
                   for seed, n_agents in enumerate((2, 3, 2))]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        assert run_groups == [[0, 2], [1]]
        assert results[0].seconds == results[2].seconds
        for cfg, batched in zip(configs, results):
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    @pytest.mark.parametrize("epochs, interleaved", list(itertools.product((1, 3), (False, True))))
    def test_mixed_batch_matches_lone_runs(self, epochs, interleaved, map5x5_noisy, map5x5_qstar, run_groups):
        # every compressor in both modes under each PER_RUN entry, with a repeated seed, as one
        # batch: blocked, each (compressor, mode) is one block of twelve runs, cut by eta blocks;
        # interleaved, every run is an arm block of its own and each eta block spans eight or
        # sixteen of them; either way equal pairings and etas recur apart
        arms = list(itertools.product(COMPRESSORS.values(), (DIRECT, ERROR_FEEDBACK)))
        order = ([(seed, values, arm) for seed in MIXED_SEEDS for values in PER_RUN for arm in arms] if interleaved
                 else [(seed, values, arm) for arm in arms for values in PER_RUN for seed in MIXED_SEEDS])
        configs = [make_config(n_agents=3, local_epochs=epochs, rounds=4, compressor=spec, mode=mode,
                               master_seed=seed, **values)
                   for seed, values, (spec, mode) in order]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        assert len(run_groups) == 1
        assert len(results) == len(configs) == 96
        for cfg, batched in zip(configs, results):
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    def test_streams_built_once_per_distinct_seed(self, map5x5_noisy, map5x5_qstar, monkeypatch):
        # seeds [3, 0, 3, 2**40 + 1] hold 3 distinct seeds: each epoch builds 3 x I generators, and
        # so does each round's compressor draw, which the sparsified_k runs of a seed share
        calls = []
        build = fedq.engine.generators

        def spy(words):
            calls.append(len(words))
            return build(words)

        monkeypatch.setattr(fedq.engine, "generators", spy)
        n_agents, epochs, rounds = 3, 2, 4
        specs = (COMPRESSORS["top_k"], COMPRESSORS["identity"], COMPRESSORS["sparsified_l1"])
        configs = [make_config(n_agents=n_agents, local_epochs=epochs, rounds=rounds, compressor=spec,
                               master_seed=seed, **values)
                   for spec, values in zip(specs, PER_RUN) for seed in MIXED_SEEDS]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        assert calls == ([3 * n_agents] * epochs + [3 * n_agents]) * rounds
        monkeypatch.setattr(fedq.engine, "generators", build)
        for cfg, batched in zip(configs, results):
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    def test_one_compression_per_kind_rule_and_mode(self, map5x5_noisy, map5x5_qstar, monkeypatch, run_groups):
        # a sweep grid in k x compressor product order, two seeds a point: identity, top_k4,
        # sparsified4, top_k16, sparsified16 alternate kinds, yet each compressing kind is one call a
        # round; the identity's upload is pending itself, so it makes none
        calls = []
        compress = fedq.engine.compress_batch

        def spy(pending, spec, uniforms, k):
            calls.append((spec.kind, np.broadcast_to(k, len(pending)).tolist()))
            return compress(pending, spec, uniforms, k)

        monkeypatch.setattr(fedq.engine, "compress_batch", spy)
        points = [fedq.CompressorSpec("identity")] + [fedq.CompressorSpec(kind, k) for k in (4, 16)
                                                     for kind in ("top_k", "sparsified_k")]
        configs = [make_config(rounds=4, compressor=spec, master_seed=seed) for spec in points for seed in (3, 4)]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        assert len(run_groups) == 1
        assert len(calls) == 2 * 4
        budgets = {"top_k": [4] * 4 + [16] * 4, "sparsified_k": [4] * 4 + [16] * 4}
        assert sorted(calls[:2]) == sorted(budgets.items())
        monkeypatch.setattr(fedq.engine, "compress_batch", compress)
        for cfg, batched in zip(configs, results):
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    def test_probability_rule_splits_only_sparsified_arms(self, map5x5_noisy, map5x5_qstar, monkeypatch,
                                                          run_groups):
        # top_k and the identity never read the rule: configs that differ only in it share an arm
        # (the identity's arm compresses nothing)
        calls = []
        compress = fedq.engine.compress_batch

        def spy(pending, spec, uniforms, k):
            calls.append(spec.kind)
            return compress(pending, spec, uniforms, k)

        monkeypatch.setattr(fedq.engine, "compress_batch", spy)
        configs = [make_config(rounds=4, compressor=fedq.CompressorSpec(kind, k, rule), master_seed=seed)
                   for kind, k in (("top_k", 5), ("identity", 0)) for rule in (RULE_UNIFORM, "l1")
                   for seed in (3, 4)]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        assert len(run_groups) == 1
        assert calls == ["top_k"] * 4
        assert len({_arm(c) for c in configs}) == 2
        monkeypatch.setattr(fedq.engine, "compress_batch", compress)
        for cfg, batched in zip(configs, results):
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    def test_arms_sort_into_blocks_and_results_keep_input_order(self, map5x5_noisy, map5x5_qstar, run_groups):
        # mixed kinds, rules, modes and etas, interleaved: the batch runs them sorted by
        # (kind, rule, mode, eta), stably, and hands results back in input order
        specs = [fedq.CompressorSpec("sparsified_k", 7, RULE_UNIFORM), fedq.CompressorSpec("top_k", 3),
                 fedq.CompressorSpec("sparsified_k", 2), fedq.CompressorSpec("identity"),
                 fedq.CompressorSpec("top_k", 9)]
        configs = [make_config(n_agents=3, rounds=3, compressor=spec, mode=mode, eta=eta, master_seed=seed)
                   for seed, (spec, mode, eta) in enumerate(itertools.product(specs, MODES, (0.3, 0.1)))]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        order = sorted(range(len(configs)), key=lambda i: (configs[i].compressor.kind,
                                                           configs[i].compressor.probability_rule,
                                                           configs[i].mode, configs[i].eta))
        assert run_groups == [order]  # master_seed i is config i
        for cfg, batched in zip(configs, results):
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    @pytest.mark.parametrize("specs, per_round", [((COMPRESSORS["identity"], COMPRESSORS["top_k"]), []),
                                                  ((COMPRESSORS["top_k"], COMPRESSORS["sparsified_l1"]), [6])])
    def test_noiseless_one_successor_map_builds_no_sample_streams(self, specs, per_round, map5x5_mdp,
                                                                  map5x5_qstar, monkeypatch):
        # map5x5 without noise has w = 1: no sample-stream draw is read, so only sparsified_k's
        # compressor draw builds generators, one per (seed, agent), once a round
        calls = []
        build = fedq.engine.generators

        def spy(words):
            calls.append(len(words))
            return build(words)

        monkeypatch.setattr(fedq.engine, "generators", spy)
        configs = [make_config(n_agents=3, local_epochs=2, rounds=4, compressor=spec, master_seed=seed)
                   for spec in specs for seed in (0, 1)]
        results = fedq.run_federated_batch(configs, map5x5_mdp, map5x5_qstar)
        assert calls == per_round * 4
        monkeypatch.setattr(fedq.engine, "generators", build)
        for cfg, batched in zip(configs, results):
            q_final, rows, _, _ = per_agent_reference(cfg, map5x5_mdp, map5x5_qstar)
            assert batched.q_final.tobytes() == q_final.tobytes()
            assert [(m.rmse, m.linf_error, m.bits_round, m.bits_cumulative, m.payload_entries)
                    for m in batched.metrics] == rows

    def test_q_star_as_a_nested_list(self, map5x5_noisy, map5x5_qstar):
        cfg = make_config(rounds=3, compressor=COMPRESSORS["top_k"])
        [from_list] = fedq.run_federated_batch([cfg], map5x5_noisy, map5x5_qstar.tolist())
        assert_same_run(from_list, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))

    @pytest.mark.parametrize("q_star, error", [
        (np.zeros((25, 3)), ShapeMismatchError), ([[0.0] * 4] * 24, ShapeMismatchError),
        ([[0.0, 1.0], [2.0]], ShapeMismatchError), ("table", ShapeMismatchError), (None, ShapeMismatchError),
        (np.full((25, 4), np.nan), NonFiniteError), (np.where(np.eye(25, 4) > 0, np.inf, 0.0), NonFiniteError),
    ])
    def test_bad_q_star_rejected_before_any_work(self, q_star, error, map5x5_noisy, run_groups):
        with pytest.raises(error):
            fedq.run_federated_batch([make_config()], map5x5_noisy, q_star)
        assert run_groups == []

    @pytest.mark.parametrize("entry", [None, "config", dict(n_agents=2)])
    def test_entries_must_be_configs(self, entry, map5x5_noisy, map5x5_qstar, run_groups):
        with pytest.raises(ParamOutOfRangeError, match="ExperimentConfig"):
            fedq.run_federated_batch([make_config(), entry], map5x5_noisy, map5x5_qstar)
        assert run_groups == []

    def test_bits_exact_at_large_fpp(self, map5x5_noisy, map5x5_qstar):
        # a run's upload prices summed past 2**63 (and past float64's 2**53) are still the exact
        # integer, rounded to float once: d = 100, so identity costs I * 100 * fpp per round
        n_agents, fpp = 3, 2**56 + 1
        configs = [make_config(n_agents=n_agents, rounds=3, fpp=fpp, compressor=spec, master_seed=seed)
                   for spec in COMPRESSORS.values() for seed in (0, 1)]
        results = fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar)
        for cfg, batched in zip(configs, results):
            assert_same_run(batched, fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar))
            cumulative = 0.0
            for m in batched.metrics[1:]:
                if cfg.compressor.kind == "identity":
                    total = n_agents * 100 * fpp
                else:
                    total = m.payload_entries * (7 + fpp)
                cumulative += float(total) / n_agents
                assert m.bits_round == float(total) / n_agents > 0
                assert m.bits_cumulative == cumulative

    def test_trace_fields_are_python_numbers(self, map5x5_noisy, map5x5_qstar):
        # the trace CSV writes each field's repr: a numpy scalar would print as np.float64(...)
        configs = [make_config(rounds=3, compressor=spec, master_seed=seed)
                   for spec in COMPRESSORS.values() for seed in (0, 1)]
        for result in fedq.run_federated_batch(configs, map5x5_noisy, map5x5_qstar):
            for m in result.metrics:
                assert [type(v) for v in m] == [int, float, float, float, float, int]

    def test_empty_batch_rejected(self, map5x5_noisy, map5x5_qstar):
        with pytest.raises(ParamOutOfRangeError):
            fedq.run_federated_batch([], map5x5_noisy, map5x5_qstar)


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("noisy", [False, True])
def test_one_successor_gather_matches_the_general_path(noisy, shared, monkeypatch):
    # a w = 1 table reads its next states from one gather index built once per batch and never
    # reaches the sampler's next-state table; its zero-padded w = 2 twin draws its next states and
    # builds its index every epoch, and every run gives the same bytes either way, whether each
    # run has a seed of its own or runs share seeds' streams
    noise = fedq.NoiseSpec(std=0.5, clip=0.5) if noisy else fedq.NoiseSpec()
    grid = fedq.build_gridworld(fedq.load_map("map6x6w"), noise=noise, gamma=0.8)
    padded = padded_twin(grid)
    q_star = fedq.value_iteration(grid)
    specs = [(COMPRESSORS["identity"], DIRECT), (COMPRESSORS["top_k"], ERROR_FEEDBACK),
             (COMPRESSORS["sparsified_l1"], DIRECT), (COMPRESSORS["sparsified_uniform"], DIRECT)]
    configs = [make_config(n_agents=3, local_epochs=2, rounds=4, eta=0.3, compressor=spec, mode=mode,
                           master_seed=seed if shared else 3 * j + seed)
               for j, (spec, mode) in enumerate(specs) for seed in ((5, 4, 5) if shared else (0, 1, 2))]
    general = fedq.run_federated_batch(configs, padded, q_star)

    def refuse(*args):
        raise AssertionError("a w = 1 epoch reached the general path")

    monkeypatch.setattr(fedq.engine, "synchronous_sample_batch", refuse)
    with pytest.raises(AssertionError, match="general path"):  # the spy bites on the general path
        fedq.run_federated_batch(configs[:1], padded, q_star)
    gathered = fedq.run_federated_batch(configs, grid, q_star)
    for a, b in zip(gathered, general):
        assert a.q_final.tobytes() == b.q_final.tobytes()
        assert list(map(repr, a.metrics)) == list(map(repr, b.metrics))
        assert (repr(a.alpha_min), repr(a.p_support_min)) == (repr(b.alpha_min), repr(b.p_support_min))


def test_only_error_feedback_rows_keep_a_residual_and_they_conserve_mass(map5x5_noisy, monkeypatch):
    # a batch of identity-direct, sparsified_k-direct and top_k error-feedback runs, stepped round by
    # round: the residual rows of the direct arms stay +0.0, and on each error-feedback row the uploads
    # the server step receives plus the final residual add up to the local deltas (criterion 03's tolerance)
    specs = [(COMPRESSORS["identity"], DIRECT), (COMPRESSORS["sparsified_l1"], DIRECT),
             (COMPRESSORS["top_k"], ERROR_FEEDBACK)]
    configs = [make_config(n_agents=3, rounds=20, eta=0.3, compressor=spec, mode=mode, master_seed=seed)
               for spec, mode in specs for seed in (0, 1)]
    batch, d = _Batch(configs, map5x5_noisy), map5x5_noisy.table_size
    assert [(spec.kind, mode, rows) for spec, _, mode, _, rows in batch.arms] == [
        ("identity", DIRECT, slice(0, 6)), ("sparsified_k", DIRECT, slice(6, 12)),
        ("top_k", ERROR_FEEDBACK, slice(12, 18))]
    uploads, deltas = [], []
    step, phases = fedq.engine._server_step, batch.local_phases

    def recording_step(q_bar, pending, betas):
        uploads.append(pending.copy())
        return step(q_bar, pending, betas)

    def recording_phases(q_bar, words):
        q_local = phases(q_bar, words)
        deltas.append((q_local.reshape(len(q_bar), 3, d) - q_bar.reshape(len(q_bar), 1, d)).reshape(-1, d))
        return q_local

    monkeypatch.setattr(fedq.engine, "_server_step", recording_step)
    batch.local_phases = recording_phases
    q_bar, residual = np.zeros((len(configs), 25, 4)), np.zeros((18, d))
    for words in batch.words(20):
        q_bar, *_ = batch.round(q_bar, residual, words)
    assert len(uploads) == len(deltas) == 20
    assert residual[:12].tobytes() == np.zeros((12, d)).tobytes()
    ef = slice(12, 18)
    total = np.sum(deltas, axis=0)[ef]
    drift = np.max(np.abs(np.sum(uploads, axis=0)[ef] + residual[ef] - total), axis=1)
    assert np.all(drift <= 1e-9 * np.maximum(1.0, np.max(np.abs(total), axis=1)))
    assert np.all(np.any(residual[ef], axis=1))  # top_k left some of every row's mass behind


@pytest.mark.parametrize("compressor", ["top_k", "sparsified_l1"])
def test_one_successor_noisy_run_skips_by_seed_words(compressor, map5x5_noisy, map5x5_qstar, monkeypatch):
    # a noisy w = 1 epoch seeds its streams past their uniform block, so it draws no uniforms: no
    # fedq module's synchronous_sample_batch runs, and the run keeps the bits of the per-agent
    # reference, whose public sampler draws each stream's uniforms
    def refuse(*args):
        raise AssertionError("an epoch drew its uniforms")

    for name, module in list(sys.modules.items()):
        if (name == "fedq" or name.startswith("fedq.")) and hasattr(module, "synchronous_sample_batch"):
            monkeypatch.setattr(module, "synchronous_sample_batch", refuse)
    cfg = make_config(n_agents=3, local_epochs=2, rounds=4, eta=0.3, compressor=COMPRESSORS[compressor],
                      master_seed=11)
    with pytest.raises(AssertionError, match="drew its uniforms"):  # the spy bites on the padded w = 2 twin
        fedq.run_federated(cfg, padded_twin(map5x5_noisy), map5x5_qstar)
    result = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
    monkeypatch.undo()
    q_final, rows, _, _ = per_agent_reference(cfg, map5x5_noisy, map5x5_qstar)
    assert result.q_final.tobytes() == q_final.tobytes()
    assert [(m.rmse, m.linf_error, m.bits_round, m.bits_cumulative, m.payload_entries)
            for m in result.metrics] == rows


@pytest.mark.parametrize("n_runs, n_agents, d", [(1, 50, 100), (1, 4, 3616), (10, 2, 112), (3, 64, 2), (2, 9, 3),
                                                 (2, 64, 1)])
def test_server_step_adds_agent_rows_in_ascending_order(n_runs, n_agents, d):
    # the agents' rows are added one by one from +0.0, as the per-agent reference adds them: terms
    # that span 32 orders of magnitude make any other order (such as numpy's pairwise sum of a
    # one-column table) show in the bits, and -0.0 uploads must leave a +0.0 sum
    rng = np.random.default_rng(d)
    sent = rng.normal(size=(n_runs * n_agents, d)) * 10.0 ** rng.integers(-16, 17, (n_runs * n_agents, d))
    sent[rng.random(sent.shape) < 0.3] = -0.0
    q_bar, betas = rng.normal(size=(n_runs, d, 1)), rng.uniform(0.1, 1.0, n_runs)
    q_bar[rng.random(q_bar.shape) < 0.3] = -0.0  # where every agent sends -0.0, only a +0.0 sum keeps it
    acc = np.zeros((n_runs, d))
    for agent_rows in sent.reshape(n_runs, n_agents, d).swapaxes(0, 1):
        acc += agent_rows
    expected = q_bar + (betas / n_agents).reshape(-1, 1, 1) * acc.reshape(q_bar.shape)
    assert _server_step(q_bar, sent, betas).tobytes() == expected.tobytes()
