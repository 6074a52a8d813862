import dataclasses
import math

import numpy as np
import pytest

import fedq
from fedq.errors import ParamOutOfRangeError
from tests.conftest import dense_mdp


def params(**overrides):
    base = dict(
        beta=0.8,
        eta=0.1,
        gamma=0.8,
        local_epochs=2,
        rounds=100,
        n_agents=10,
        delta=0.05,
        n_states=25,
        n_actions=4,
        q2=0.5,
        q_inf=1.0,
        alpha=0.3,
        q0_gap=3.0,
    )
    base.update(overrides)
    return fedq.BoundParams(**base)


class TestDecayFactor:
    def test_single_epoch(self):
        assert fedq.decay_factor(1.0, 0.25, 1) == 1 - 0.25

    def test_full_learning_rate(self):
        for k in (1, 3, 10):
            assert fedq.decay_factor(0.6, 1.0, k) == 1 - 0.6

    def test_direct_evaluation(self):
        # 1 - 0.8 * (1 - 0.99^10), recomputed independently below
        expected = 1.0 - 0.8 * (1.0 - 0.99**10)
        got = fedq.decay_factor(0.8, 0.01, 10)
        assert got == expected
        assert abs(got - 0.9235056600070435) < 1e-12

    def test_strictly_decreasing_in_each_argument(self):
        assert fedq.decay_factor(0.9, 0.1, 2) < fedq.decay_factor(0.8, 0.1, 2)
        assert fedq.decay_factor(0.8, 0.2, 2) < fedq.decay_factor(0.8, 0.1, 2)
        assert fedq.decay_factor(0.8, 0.1, 3) < fedq.decay_factor(0.8, 0.1, 2)

    def test_range(self):
        with pytest.raises(ParamOutOfRangeError):
            fedq.decay_factor(0.0, 0.5, 1)
        with pytest.raises(ParamOutOfRangeError):
            fedq.decay_factor(0.5, 1.5, 1)
        for local_epochs in (1.5, True, "2"):
            with pytest.raises(ParamOutOfRangeError, match="local_epochs"):
                fedq.decay_factor(0.5, 0.5, local_epochs)


class TestDirectBound:
    def test_lossless_constants_drop_the_compression_term(self):
        p = params(q2=0.0, q_inf=0.0)
        # full-precision right-hand side assembled independently
        shrink = 1 - (1 - p.eta) ** p.local_epochs
        c = (1 - p.gamma) * shrink
        l1 = math.log(4 * p.n_states * p.n_actions * p.rounds * p.local_epochs / p.delta)
        e1 = (4 * p.gamma / c) * math.sqrt(l1) * (1 + math.sqrt(l1 / (p.eta * p.n_agents)))
        manual = (
            fedq.decay_factor(p.beta, p.eta, p.local_epochs) ** p.rounds * p.q0_gap
            + math.sqrt(p.eta / p.n_agents) * e1
            + 2 * p.gamma / c
        )
        assert fedq.direct_bound(p) == manual

    def test_initial_gap_washes_out(self):
        p_far = params(rounds=10**6, q0_gap=5.0)
        p_zero = params(rounds=10**6, q0_gap=0.0)
        assert math.isclose(fedq.direct_bound(p_far), fedq.direct_bound(p_zero), rel_tol=1e-12)

    def test_more_agents_tightens(self):
        for n in (1, 2, 8, 32):
            assert fedq.direct_bound(params(n_agents=2 * n)) < fedq.direct_bound(params(n_agents=n))

    def test_larger_gamma_loosens(self):
        for g in (0.2, 0.5, 0.8):
            assert fedq.direct_bound(params(gamma=g)) < fedq.direct_bound(params(gamma=g + 0.1))


class TestErrorFeedbackBound:
    def test_alpha_one_drops_the_compression_term(self):
        p = params(alpha=1.0)
        shrink = 1 - (1 - p.eta) ** p.local_epochs
        c = (1 - p.gamma) * shrink
        m = math.log(2 * p.n_states * p.n_actions * p.rounds * p.local_epochs / p.delta)
        e1 = 1 + math.sqrt(m / (p.eta * p.n_agents))
        manual = (
            fedq.decay_factor(p.beta, p.eta, p.local_epochs) ** p.rounds * p.q0_gap
            + (4 / c) * math.sqrt(p.eta / p.n_agents * m) * e1
            + 2 * p.gamma / c
        )
        assert fedq.error_feedback_bound(p) == manual

    def test_compression_term_is_linear_in_beta(self):
        extra = {}
        for beta in (0.2, 0.4):
            p = params(beta=beta, rounds=10**6, q0_gap=0.0)  # kill the beta-dependent decay term
            extra[beta] = fedq.error_feedback_bound(p) - fedq.error_feedback_bound(dataclasses.replace(p, alpha=1.0))
        assert math.isclose(extra[0.4], 2 * extra[0.2], rel_tol=1e-9)

    def test_single_epoch_full_rate_form(self):
        # K=1, eta=1, alpha=1 collapses to the simplest federated bound
        p = params(local_epochs=1, eta=1.0, alpha=1.0)
        m = math.log(2 * p.n_states * p.n_actions * p.rounds / p.delta)
        e1 = 1 + math.sqrt(m / p.n_agents)
        manual = (
            (1 - p.beta) ** p.rounds * p.q0_gap
            + (4 / (1 - p.gamma)) * math.sqrt(m / p.n_agents) * e1
            + 2 * p.gamma / (1 - p.gamma)
        )
        assert math.isclose(fedq.error_feedback_bound(p), manual, rel_tol=1e-12)

    def test_more_agents_tightens(self):
        for n in (1, 4, 16):
            assert fedq.error_feedback_bound(params(n_agents=2 * n)) < fedq.error_feedback_bound(params(n_agents=n))

    def test_larger_gamma_loosens(self):
        for g in (0.2, 0.5, 0.8):
            assert fedq.error_feedback_bound(params(gamma=g)) < fedq.error_feedback_bound(params(gamma=g + 0.1))

    def test_alpha_validation(self):
        with pytest.raises(ParamOutOfRangeError):
            params(alpha=0.0)

    @pytest.mark.parametrize("name", ["q2", "q_inf", "q0_gap", "local_epochs", "rounds", "n_agents",
                                      "n_states", "n_actions"])
    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_nonnegative_inputs_validated(self, name, value):
        with pytest.raises(ParamOutOfRangeError, match=name):
            params(**{name: value})

    @pytest.mark.parametrize("name", ["local_epochs", "rounds", "n_agents", "n_states", "n_actions"])
    @pytest.mark.parametrize("value", [1.5, 10.0, True, "3"])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ParamOutOfRangeError, match=name):
            params(**{name: value})


class TestBoundCurve:
    @pytest.mark.parametrize("curve, evaluator", [
        (fedq.direct_bound_curve, fedq.direct_bound),
        (fedq.error_feedback_bound_curve, fedq.error_feedback_bound),
    ])
    def test_every_round_same_bits_as_evaluator(self, curve, evaluator):
        rng = np.random.default_rng(17)
        for _ in range(40):
            p = params(beta=float(rng.uniform(0.05, 1.0)), eta=float(rng.uniform(0.05, 1.0)),
                       gamma=float(rng.uniform(0.05, 0.95)), local_epochs=int(rng.integers(1, 6)),
                       rounds=int(rng.integers(1, 300)), n_agents=int(rng.integers(1, 100)),
                       n_states=int(rng.integers(1, 1000)), q2=float(rng.uniform(0, 20)),
                       q_inf=float(rng.uniform(0, 20)), alpha=float(rng.uniform(0.05, 1.0)),
                       q0_gap=float(rng.uniform(0, 5)))
            values = curve(p)
            assert len(values) == p.rounds
            assert values[-1] == evaluator(p)
            for t, value in enumerate(values, start=1):
                assert value == evaluator(dataclasses.replace(p, rounds=t))

    def test_shortest_curve_has_one_round(self):
        assert fedq.direct_bound_curve(params(rounds=1)) == [fedq.direct_bound(params(rounds=1))]
        with pytest.raises(ParamOutOfRangeError, match="rounds"):
            params(rounds=0)


class TestPayloadBits:
    def test_uncompressed_map11x11(self):
        assert fedq.payload_bits("identity", 484, 484) == 15488

    def test_identity_ignores_entries(self):
        assert fedq.payload_bits("identity", 484, 3) == 15488

    def test_top50_map11x11(self):
        assert fedq.payload_bits("top_k", 484, 50) == 2050  # 50 * (9 + 32)

    def test_empty_payload(self):
        assert fedq.payload_bits("sparsified_k", 484, 0) == 0

    def test_entries_cannot_exceed_dimension(self):
        with pytest.raises(ParamOutOfRangeError):
            fedq.payload_bits("top_k", 4, 5)

    def test_several_uploads_price_as_their_sum(self):
        # exact integers past 2**63: a total over uploads is the sum of the single-upload prices
        fpp = 2**56 + 1
        for kind in ("identity", "top_k", "sparsified_k"):
            sizes = [0, 7, 100, 3]
            total = fedq.payload_bits(kind, 100, sum(sizes), fpp, uploads=len(sizes))
            assert total == sum(fedq.payload_bits(kind, 100, n, fpp) for n in sizes)
        assert fedq.payload_bits("identity", 100, 0, fpp, uploads=3) == 3 * 100 * fpp
        total = fedq.payload_bits("top_k", 100, 250, fpp, uploads=3)
        assert total == 250 * 7 + 250 * fpp > 2**63
        assert total != int(250 * float(7 + fpp))  # float64 arithmetic would round it

    @pytest.mark.parametrize("uploads, entries", [(0, 0), (1.5, 2), (True, 2), (2, 201), (-1, 0)])
    def test_uploads_validated_and_bound_entries(self, uploads, entries):
        with pytest.raises(ParamOutOfRangeError):
            fedq.payload_bits("top_k", 100, entries, uploads=uploads)

    def test_index_bits(self):
        # one entry at one bit per value: the rest is the ceil(log2 d) index
        for d, bits in ((1, 0), (2, 1), (484, 9), (512, 9), (513, 10)):
            assert fedq.payload_bits("top_k", d, 1, fpp=1) - 1 == bits

    @pytest.mark.parametrize("args", [("identity", 484, 484, 0), ("top_k", 0, 0, 32),
                                      ("top_k", 100, -1, 32), ("bogus", 100, 3, 32),
                                      ("top_k", 100, 2.5, 32), ("top_k", 100.0, 2, 32),
                                      ("identity", 100, 2, 16.5), ("top_k", 100, True, 32),
                                      ("top_k", "100", 2, 32)])
    def test_fpp_and_dimension_validated(self, args):
        with pytest.raises(ParamOutOfRangeError):
            fedq.payload_bits(*args)


def test_numpy_integers_count_as_python_ints():
    assert fedq.payload_bits("top_k", np.int64(484), np.int32(50), np.uint8(32)) == 2050
    assert fedq.decay_factor(0.8, 0.01, np.int64(10)) == fedq.decay_factor(0.8, 0.01, 10)
    counts = dict(local_epochs=2, rounds=100, n_agents=10, n_states=25, n_actions=4)
    p_numpy = params(**{name: np.int64(v) for name, v in counts.items()})
    assert p_numpy == params(**counts)
    assert fedq.direct_bound(p_numpy) == fedq.direct_bound(params(**counts))
    assert fedq.error_feedback_bound(p_numpy) == fedq.error_feedback_bound(params(**counts))


class TestAlphaTrace:
    """The run's alpha_min, the top_k constant the error-feedback bound is fed."""

    @staticmethod
    def top_k_run(mdp, k, rounds=3):
        cfg = fedq.ExperimentConfig(
            n_agents=1, local_epochs=1, rounds=rounds, eta=0.5, beta=1.0, gamma=mdp.gamma,
            compressor=fedq.CompressorSpec("top_k", k=k), master_seed=0,
        )
        return fedq.run_federated(cfg, mdp, fedq.value_iteration(mdp, tol=1e-12))

    def test_full_budget_everywhere(self):
        mdp = fedq.build_gridworld(fedq.parse_map("G."), gamma=0.8)
        assert self.top_k_run(mdp, k=mdp.table_size).alpha_min == 1.0

    def test_tied_vector_flags_zero(self):
        # the first upload is eta * rewards: three wall bumps tie at -eta
        mdp = fedq.build_gridworld(fedq.parse_map("G."), gamma=0.8)
        assert self.top_k_run(mdp, k=1).alpha_min == 0.0

    def test_synthetic_value(self):
        # one self-looping state; the first upload is eta * [0.6, -1.0, 0.4]
        mdp = dense_mdp(np.ones((1, 3, 1)), np.array([[0.6, -1.0, 0.4]]), gamma=0.8)
        assert self.top_k_run(mdp, k=1, rounds=1).alpha_min == pytest.approx(0.4, abs=1e-15)

    def test_zero_rounds_skipped_and_reported(self):
        # zero rewards from the zero table: every upload is the zero vector,
        # alpha is undefined in every round, and the run reports None
        mdp = dense_mdp(np.ones((1, 2, 1)), np.zeros((1, 2)), gamma=0.8)
        result = self.top_k_run(mdp, k=1)
        assert result.alpha_min is None
        assert all(m.payload_entries == 0 for m in result.metrics)


class TestBoundCeilingOnRuns:
    def test_empirical_error_below_bound_in_40_seeded_runs(self, map5x5_noisy, map5x5_qstar):
        # high-probability ceiling at delta = 0.05; generous, never tight
        hits = 0
        reps = 40
        for seed in range(reps):
            cfg = fedq.ExperimentConfig(
                n_agents=4, local_epochs=1, rounds=50, eta=0.2, beta=0.8, gamma=0.8,
                compressor=fedq.CompressorSpec("identity"), master_seed=seed,
            )
            result = fedq.run_federated(cfg, map5x5_noisy, map5x5_qstar)
            p = fedq.BoundParams(
                beta=0.8, eta=0.2, gamma=0.8, local_epochs=1, rounds=50, n_agents=4,
                delta=0.05, n_states=25, n_actions=4, q2=0.0, q_inf=0.0,
                q0_gap=fedq.linf_error(np.zeros((25, 4)), map5x5_qstar),
            )
            if result.metrics[-1].linf_error <= fedq.direct_bound(p):
                hits += 1
        assert hits >= 0.95 * reps
