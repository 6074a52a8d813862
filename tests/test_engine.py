import numpy as np
import pytest

import fedq
from fedq.engine import DIRECT, ERROR_FEEDBACK
from fedq.errors import (
    DimensionMismatchError,
    EmptyAgentListError,
    ParamOutOfRangeError,
    ShapeMismatchError,
)


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


class TestLocalEpoch:
    def test_full_step_equals_exact_operator_when_deterministic(self, map5x5_mdp):
        rng = np.random.default_rng(0)
        q = rng.uniform(-2, 2, (25, 4))
        out = fedq.local_epoch(q, map5x5_mdp, eta=1.0, rng=fedq.RngStream(0).generator())
        assert np.allclose(out, fedq.exact_bellman(map5x5_mdp, q), rtol=0, atol=1e-12)

    def test_half_step_arithmetic(self):
        # one state, reward 1: the damped update moves half way to the target
        mdp = fedq.TabularMDP(np.ones((1, 1, 1)), np.array([[1.0]]), gamma=0.5)
        out = fedq.local_epoch(np.zeros((1, 1)), mdp, eta=0.5, rng=fedq.RngStream(0).generator())
        assert out[0, 0] == 0.5

    def test_stability_bound(self, map5x5_noisy):
        rng = np.random.default_rng(1)
        gamma = map5x5_noisy.gamma
        reward_cap = map5x5_noisy.r_max  # mean capped at 1, noise at 0.5
        for trial in range(20):
            q = rng.uniform(-6, 6, (25, 4))
            out = fedq.local_epoch(q, map5x5_noisy, 0.3, fedq.RngStream(2, (trial,)).generator())
            cap = max(np.max(np.abs(q)), reward_cap + gamma * np.max(np.abs(q)))
            assert np.max(np.abs(out)) <= cap + 1e-12

    def test_eta_range(self, map5x5_mdp):
        with pytest.raises(ParamOutOfRangeError):
            fedq.local_epoch(np.zeros((25, 4)), map5x5_mdp, 0.0, fedq.RngStream(0).generator())

    def test_shape_check(self, map5x5_mdp):
        with pytest.raises(ShapeMismatchError):
            fedq.local_epoch(np.zeros((4, 25)), map5x5_mdp, 0.5, fedq.RngStream(0).generator())


class TestLocalPhase:
    def test_single_epoch_reduces_to_local_epoch(self, map5x5_noisy):
        q0 = np.zeros((25, 4))
        stream = fedq.RngStream(5, (0, 0))
        phase = fedq.run_local_phase(q0, map5x5_noisy, 0.3, 1, stream)
        single = fedq.local_epoch(q0, map5x5_noisy, 0.3, stream.child(0).generator())
        assert np.array_equal(phase, single)

    def test_full_steps_compose_exact_operator(self, map5x5_mdp):
        q0 = np.zeros((25, 4))
        out = fedq.run_local_phase(q0, map5x5_mdp, 1.0, 3, fedq.RngStream(1, (0, 0)))
        expected = q0
        for _ in range(3):
            expected = fedq.exact_bellman(map5x5_mdp, expected)
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_identical_streams_identical_phases(self, map5x5_noisy):
        q0 = np.zeros((25, 4))
        a = fedq.run_local_phase(q0, map5x5_noisy, 0.3, 4, fedq.RngStream(9, (3, 7)))
        b = fedq.run_local_phase(q0, map5x5_noisy, 0.3, 4, fedq.RngStream(9, (3, 7)))
        assert np.array_equal(a, b)


class TestAggregate:
    def test_identity_telescopes(self):
        q_bar = np.array([[1.0]])
        q_local = np.array([[3.0]])
        h = fedq.SparseVector.from_dense((q_local - q_bar).ravel())
        out = fedq.aggregate(q_bar, [h], beta=1.0)
        assert np.array_equal(out, q_local)

    def test_two_agent_average(self):
        h1 = fedq.SparseVector.from_dense(np.array([2.0]))
        h2 = fedq.SparseVector(1, np.array([], dtype=np.int64), np.array([]))
        out = fedq.aggregate(np.zeros((1, 1)), [h1, h2], beta=1.0)
        assert out[0, 0] == 1.0

    def test_server_step_scaling(self):
        h = fedq.SparseVector.from_dense(np.array([2.0]))
        out = fedq.aggregate(np.array([[1.0]]), [h], beta=0.5)
        assert out[0, 0] == 2.0

    def test_empty_list(self):
        with pytest.raises(EmptyAgentListError):
            fedq.aggregate(np.zeros((1, 1)), [], beta=1.0)

    def test_dimension_mismatch(self):
        h = fedq.SparseVector.from_dense(np.array([1.0, 2.0]))
        with pytest.raises(DimensionMismatchError):
            fedq.aggregate(np.zeros((1, 1)), [h], beta=1.0)

    def test_gather_order_not_schedule_dependent(self, map5x5_noisy, map5x5_qstar):
        # compute agent payloads in two processing orders; aggregation by
        # ascending id gives bit-identical servers either way
        q_bar = np.zeros((25, 4))
        root = fedq.RngStream(21)

        def payload(agent):
            q = fedq.run_local_phase(q_bar, map5x5_noisy, 0.2, 2, root.child(agent, 0))
            return fedq.SparseVector.from_dense((q - q_bar).ravel())

        forward = [payload(i) for i in (0, 1, 2)]
        backward = list(reversed([payload(i) for i in (2, 1, 0)]))
        out_f = fedq.aggregate(q_bar, forward, beta=0.7)
        out_b = fedq.aggregate(q_bar, backward, beta=0.7)
        assert np.array_equal(out_f, out_b)


class TestConfigValidation:
    def test_ranges(self):
        for bad in (dict(eta=0.0), dict(eta=1.5), dict(beta=0.0), dict(gamma=1.0),
                    dict(n_agents=0), dict(rounds=0), dict(local_epochs=0),
                    dict(mode="broadcast"), dict(master_seed=-1)):
            with pytest.raises(ParamOutOfRangeError):
                make_config(**bad)

    def test_default_mode_pairing(self):
        assert make_config().resolved_mode() == DIRECT
        assert make_config(compressor=fedq.CompressorSpec("sparsified_k", k=3)).resolved_mode() == DIRECT
        assert make_config(compressor=fedq.CompressorSpec("top_k", k=3)).resolved_mode() == ERROR_FEEDBACK

    def test_explicit_mode_overrides(self):
        cfg = make_config(compressor=fedq.CompressorSpec("top_k", k=3), mode=DIRECT)
        assert cfg.resolved_mode() == DIRECT

    def test_q0_bound_enforced(self, map5x5_mdp, map5x5_qstar):
        cfg = make_config(q0=5.5)  # r_max/(1-gamma) = 5 for the noiseless map
        with pytest.raises(ParamOutOfRangeError):
            fedq.run_federated(cfg, map5x5_mdp, map5x5_qstar)

    def test_gamma_must_match_mdp(self, map5x5_mdp, map5x5_qstar):
        cfg = make_config(gamma=0.9)
        with pytest.raises(ParamOutOfRangeError):
            fedq.run_federated(cfg, map5x5_mdp, map5x5_qstar)

    def test_budget_above_table_size_rejected(self, map5x5_mdp, map5x5_qstar):
        cfg = make_config(compressor=fedq.CompressorSpec("top_k", k=101))
        with pytest.raises(ParamOutOfRangeError, match=r"k=101 .* d=100"):
            fedq.run_federated(cfg, map5x5_mdp, map5x5_qstar)
        make_config(compressor=fedq.CompressorSpec("top_k", k=100)).check_against(map5x5_mdp)


class TestRunFederated:
    def test_trace_shape_and_round_zero(self, map5x5_noisy, map5x5_qstar):
        cfg = make_config(rounds=7)
        result = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
        assert len(result.metrics) == 8
        first = result.metrics[0]
        assert first.round == 0 and first.bits_cumulative == 0.0
        assert first.rmse == fedq.rmse(np.zeros((25, 4)), map5x5_qstar)

    def test_deterministic_given_seed(self, map5x5_noisy, map5x5_qstar):
        cfg = make_config(rounds=6, compressor=fedq.CompressorSpec("sparsified_k", k=5))
        a = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
        b = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
        assert a.metrics == b.metrics
        assert np.array_equal(a.q_final, b.q_final)

    def test_uncompressed_federated_baseline_equivalence(self, map5x5_noisy, map5x5_qstar):
        # identity payloads with beta=1 follow the plain periodic-averaging
        # recursion driven by the same sample streams, bit for bit
        I, K, T = 3, 2, 12
        cfg = make_config(n_agents=I, local_epochs=K, rounds=T, beta=1.0, eta=0.3)
        result = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar, record_tables=True)

        root = fedq.RngStream(0)
        q_bar = np.zeros((25, 4))
        for t in range(T):
            acc = np.zeros(100)
            for i in range(I):
                q_i = fedq.run_local_phase(q_bar, map5x5_noisy, 0.3, K, root.child(i, t))
                acc += (q_i - q_bar).ravel()
            q_bar = q_bar + (1.0 / I) * acc.reshape(25, 4)
            assert np.array_equal(result.q_tables[t + 1], q_bar)

    def test_full_budget_top_k_matches_identity_run(self, map5x5_noisy, map5x5_qstar):
        base = make_config(rounds=15, n_agents=2, eta=0.3)
        ident = fedq.run_federated(base, map5x5_noisy, map5x5_qstar, record_tables=True)
        topk = fedq.run_federated(
            make_config(rounds=15, n_agents=2, eta=0.3,
                        compressor=fedq.CompressorSpec("top_k", k=100)),
            map5x5_noisy, map5x5_qstar, record_tables=True,
        )
        for qa, qb in zip(ident.q_tables, topk.q_tables):
            assert np.array_equal(qa, qb)
        assert topk.alpha_min == 1.0

    def test_monotone_bits(self, map5x5_noisy, map5x5_qstar):
        cfg = make_config(rounds=10, compressor=fedq.CompressorSpec("sparsified_k", k=5))
        result = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
        for prev, cur in zip(result.metrics, result.metrics[1:]):
            assert cur.bits_cumulative >= prev.bits_cumulative
            if cur.payload_entries > 0:
                assert cur.bits_cumulative > prev.bits_cumulative

    def test_table_boundedness(self, map5x5_noisy, map5x5_qstar):
        cap = (map5x5_noisy.r_max + map5x5_noisy.noise.clip) / (1 - map5x5_noisy.gamma)
        cfg = make_config(rounds=60, n_agents=3, eta=0.5,
                          compressor=fedq.CompressorSpec("top_k", k=10))
        result = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar, record_tables=True)
        for q in result.q_tables:
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
