import dataclasses
import hashlib
import itertools
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fedq
from fedq.cli import main as cli_main
from fedq.errors import FileFormatError, MapFormatError, NotConvergedError, ParamOutOfRangeError
from fedq.harness import RunManifest, expand_grid, grid_slug, read_trace_csv, run_experiment
from tests.conftest import read_qtable_csv


def small_manifest(tmp_path, **overrides):
    base = dict(
        map="map5x5",
        rounds=6,
        agents=2,
        eta=0.2,
        beta=0.8,
        noise_std=0.5,
        noise_clip=0.5,
        compressor="top_k",
        k=5,
        n_seeds=2,
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return RunManifest.from_mapping(base)


class TestManifest:
    def test_unknown_key_rejected(self):
        with pytest.raises(ParamOutOfRangeError):
            RunManifest.from_mapping({"map": "map5x5", "rounds": 3, "typo_key": 1})

    def test_required_keys(self):
        with pytest.raises(ParamOutOfRangeError):
            RunManifest.from_mapping({"rounds": 3})

    def test_unknown_sweep_axis(self):
        with pytest.raises(ParamOutOfRangeError):
            RunManifest.from_mapping({"map": "map5x5", "rounds": 3, "sweep": {"zeta": [1]}})

    @pytest.mark.parametrize("overrides", [
        {"agents": True},
        {"eta": "0.1"},
        {"rounds": 10.0},
        {"mode": 1},
        {"sweep": {"eta": 0.1}},
        {"sweep": {"eta": []}},
        {"sweep": {"k": [4, "16"]}},
        {"sweep": {"mode": [None, False]}},
    ])
    def test_field_types_checked(self, overrides):
        with pytest.raises(ParamOutOfRangeError, match=next(iter(overrides))):
            RunManifest.from_mapping({"map": "map5x5", "rounds": 3, **overrides})

    def test_top_level_must_be_object(self):
        with pytest.raises(ParamOutOfRangeError):
            RunManifest.from_mapping(["map5x5", 3])

    @pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
    def test_qstar_tol_must_be_positive(self, tol):
        with pytest.raises(ParamOutOfRangeError, match="qstar_tol"):
            RunManifest.from_mapping({"map": "map5x5", "rounds": 3, "qstar_tol": tol})

    @pytest.mark.parametrize("cap", [0, -3, 2.5])
    def test_max_runs_must_be_a_positive_count(self, cap):
        with pytest.raises(ParamOutOfRangeError, match="max_runs"):
            RunManifest.from_mapping({"map": "map5x5", "rounds": 3, "max_runs": cap})

    def test_grid_expansion(self, tmp_path):
        manifest = small_manifest(tmp_path, sweep={"eta": [0.1, 0.2], "k": [5, 10, 20]})
        points = expand_grid(manifest)
        assert len(points) == 6
        assert {p.eta for p in points} == {0.1, 0.2}

    def test_identity_points_collapse_over_k(self, tmp_path):
        manifest = small_manifest(
            tmp_path, sweep={"compressor": ["identity", "top_k"], "k": [5, 10]}
        )
        points = expand_grid(manifest)
        # identity ignores the budget, so only one identity point survives
        assert len(points) == 3
        assert sum(p.compressor == "identity" for p in points) == 1

    def test_safety_cap(self, tmp_path):
        etas = [round(0.01 * i, 4) for i in range(1, 41)]
        manifest = small_manifest(tmp_path, sweep={"eta": etas}, max_runs=10)
        with pytest.raises(ParamOutOfRangeError):
            run_experiment(manifest)

    @pytest.mark.parametrize("n_seeds", [1, 2])
    def test_safety_cap_stops_before_enumerating_the_grid(self, tmp_path, monkeypatch, n_seeds):
        # a 30 x 30 x 30 grid over a cap of 10 runs: expansion stops at the first point past the cap
        drawn, product = [], itertools.product
        counting = SimpleNamespace(product=lambda *axes: (drawn.append(p) or p for p in product(*axes)))
        monkeypatch.setattr(fedq.harness, "itertools", counting)
        values = [round(0.01 * i, 4) for i in range(1, 31)]
        manifest = small_manifest(tmp_path, n_seeds=n_seeds, max_runs=10,
                                  sweep={"eta": values, "beta": values, "agents": list(range(1, 31))})
        with pytest.raises(ParamOutOfRangeError, match="more than 10 runs"):
            expand_grid(manifest)
        assert len(drawn) == 10 // n_seeds + 1


class TestRunExperiment:
    def test_outputs_and_schema(self, tmp_path):
        manifest = small_manifest(tmp_path)
        written = run_experiment(manifest)
        traces = [p for p in written if p.name.endswith(".csv") and "_agg" not in p.name]
        assert len(traces) == 2
        rows = read_trace_csv(traces[0])
        assert len(rows) == manifest.rounds + 1
        header = traces[0].read_text().splitlines()[0]
        assert header == "round,rmse,linf_error,bits_round,bits_cumulative,payload_entries"
        for prev, cur in zip(rows, rows[1:]):
            assert cur.bits_cumulative >= prev.bits_cumulative
            assert cur.rmse >= 0.0

    def test_round_zero_identical_across_seeds(self, tmp_path):
        manifest = small_manifest(tmp_path, n_seeds=3)
        written = run_experiment(manifest)
        traces = sorted(p for p in written if p.name.endswith(".csv") and "_agg" not in p.name)
        first_rows = [read_trace_csv(p)[0] for p in traces]
        assert len({r.rmse for r in first_rows}) == 1

    def test_summary_matches_last_row(self, tmp_path):
        manifest = small_manifest(tmp_path, n_seeds=1)
        written = run_experiment(manifest)
        trace = next(p for p in written if p.name.endswith(".csv") and "_agg" not in p.name)
        summary = json.loads(trace.with_name(trace.stem + "_summary.json").read_text())
        last = read_trace_csv(trace)[-1]
        assert summary["final_rmse"] == last.rmse
        assert summary["final_linf_error"] == last.linf_error
        assert summary["total_bits_per_agent"] == last.bits_cumulative

    def test_rerun_is_byte_identical(self, tmp_path):
        manifest = small_manifest(tmp_path)
        first = {p: p.read_bytes() for p in run_experiment(manifest) if p.suffix == ".csv"}
        second = {p: p.read_bytes() for p in run_experiment(manifest) if p.suffix == ".csv"}
        assert first == second

    @pytest.mark.parametrize("sweep, expected", [
        # points that differ only in k (a compressor field) share one batch
        ({"k": [5, 10]}, [[4, 5, 6, 4, 5, 6]]),
        # so do points that differ in eta or beta, values each run of a batch keeps for itself
        ({"eta": [0.2, 0.3]}, [[4, 5, 6, 4, 5, 6]]),
        ({"beta": [0.5, 0.8]}, [[4, 5, 6, 4, 5, 6]]),
        # the number of agents fixes the loop's shape: one batch per value
        ({"agents": [1, 2]}, [[4, 5, 6], [4, 5, 6]]),
    ])
    def test_seeds_of_a_point_run_as_one_batch(self, tmp_path, run_groups, sweep, expected):
        manifest = small_manifest(tmp_path, n_seeds=3, master_seed=4, sweep=sweep)
        written = run_experiment(manifest)
        assert run_groups == expected
        # each seed's trace is the bytes of its lone run
        mdp = fedq.harness.load_environment(manifest)
        q_star = fedq.value_iteration(mdp, tol=manifest.qstar_tol)
        runtimes = []
        for point in expand_grid(manifest):
            for seed in (4, 5, 6):
                lone = fedq.run_federated(fedq.harness._config_for(point, seed), mdp, q_star)
                lone_path = tmp_path / "lone.csv"
                fedq.harness.write_trace_csv(lone_path, lone.metrics)
                trace = next(p for p in written if p.name == f"{fedq.harness.grid_slug(point, seed)}.csv")
                assert trace.read_bytes() == lone_path.read_bytes()
                summary = json.loads(trace.with_name(trace.stem + "_summary.json").read_text())
                runtimes.append(summary["runtime_seconds"])
        # the runs of one batch record one wall time, the batch's divided by its number of runs
        runtimes = iter(runtimes)
        for batch in expected:
            times = {next(runtimes) for _ in batch}
            assert len(times) == 1 and times.pop() > 0

    def test_agg_band_contains_mean(self, tmp_path):
        manifest = small_manifest(tmp_path, n_seeds=3)
        written = run_experiment(manifest)
        agg = next(p for p in written if p.name.endswith("_agg.csv"))
        for line in agg.read_text().splitlines()[1:]:
            _, mean, lo, hi, _ = line.split(",")
            assert float(lo) <= float(mean) <= float(hi)

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_agg_band_is_pythons_sum_min_and_max(self, tmp_path, order):
        # per trace row, the RMSEs of 3 seeds: a sum that math.fsum rounds otherwise, a NaN that
        # Python's min and max keep only when it comes first, signed zeros that they pick by order,
        # and infinities whose sum is NaN (math.fsum raises); np.min and np.max differ on these too
        rmses = [[1e16, 1.0, -1e16], [math.nan, 1.0, 2.0], [-0.0, 0.0, 0.0], [math.inf, -math.inf, 1.0],
                 [0.1, 0.2, 0.3]]
        bits = [[0.0] * 3, [0.1, 0.2, 0.3], [1e16, 1.0, -1e16], [1.5, 2.5, 3.5], [7.0, 8.0, 9.0]]
        rmses, bits = ([row[::order] for row in rows] for rows in (rmses, bits))
        seeds = [(range(5), list(r), [0.0] * 5, [0.0] * 5, list(b), [0] * 5) for r, b in zip(zip(*rmses), zip(*bits))]
        fedq.harness.write_agg_csv(tmp_path / "agg.csv", [fedq.RunResult(c, np.zeros((1, 1))) for c in seeds],
                                   [fedq.harness._cells(c) for c in seeds])
        expected = [",".join(map(repr, (t, sum(r) / 3, min(r), max(r), sum(b) / 3)))
                    for t, (r, b) in enumerate(zip(rmses, bits))]
        lines = (tmp_path / "agg.csv").read_text().splitlines()
        assert lines == ["round,rmse_mean,rmse_min,rmse_max,bits_cumulative_mean"] + expected
        assert lines[2].split(",")[2:4] == (["nan", "nan"] if order == 1 else ["1.0", "2.0"])

    def test_sweep_never_builds_trace_rows(self, tmp_path, monkeypatch):
        # the harness writes every file from the runs' columns; RunResult.metrics is a view for callers
        def built(result):
            raise AssertionError("run_experiment built a run's RoundMetrics rows")

        monkeypatch.setattr(fedq.RunResult, "metrics", property(built))
        written = run_experiment(small_manifest(tmp_path, n_seeds=2, sweep={"compressor": ["top_k", "sparsified_k"]}))
        assert len(written) == 6

    @pytest.mark.parametrize("compressor, k, mode", [
        ("identity", 0, "direct"), ("identity", 0, "error_feedback"), ("top_k", 5, "error_feedback"),
        ("sparsified_k", 5, "direct"), ("identity", 0, None), ("top_k", 5, None), ("sparsified_k", 5, None),
    ])
    def test_overlay_written_with_finite_bound(self, tmp_path, compressor, k, mode):
        # the analyzed pairings: the identity in either mode, every other kind in its default mode;
        # a wide clip keeps rewards atom-free, so top-k uploads never tie and alpha stays positive
        manifest = small_manifest(tmp_path, n_seeds=1, compressor=compressor, k=k, mode=mode, noise_clip=5.0)
        written = run_experiment(manifest)
        trace = next(p for p in written if p.suffix == ".csv" and "_agg" not in p.name)
        overlay = trace.with_name(trace.stem + "_overlay.csv")
        lines = overlay.read_text().splitlines()
        assert lines[0] == "round,empirical_linf,theory_bound"
        assert all(np.isfinite(float(line.split(",")[2])) for line in lines[1:])
        last = lines[-1].split(",")
        assert float(last[2]) > float(last[1])

    @pytest.mark.parametrize("compressor, mode", [("top_k", "direct"), ("sparsified_k", "error_feedback")])
    def test_overlay_nan_for_unanalyzed_pairing(self, tmp_path, compressor, mode):
        manifest = small_manifest(tmp_path, n_seeds=1, compressor=compressor, k=5, mode=mode)
        written = run_experiment(manifest)
        trace = next(p for p in written if p.suffix == ".csv" and "_agg" not in p.name)
        overlay = trace.with_name(trace.stem + "_overlay.csv")
        assert [line.split(",")[2] for line in overlay.read_text().splitlines()[1:]] == ["nan"] * manifest.rounds

    def test_overlay_nan_when_sparsified_k_realizes_no_probability(self, tmp_path):
        # a lone goal state pays 0 and q0 = 0 is its fixed point: every upload is zero, so
        # sparsified_k selects nothing and the run has no p_min to draw a bound from
        map_file = tmp_path / "goal.txt"
        map_file.write_text("G\n")
        manifest = small_manifest(tmp_path, n_seeds=1, map=str(map_file), noise_std=0.0, compressor="sparsified_k",
                                  k=2)
        trace = run_experiment(manifest)[0]
        overlay = trace.with_name(trace.stem + "_overlay.csv")
        assert [line.split(",")[2] for line in overlay.read_text().splitlines()[1:]] == ["nan"] * manifest.rounds

    def test_failed_write_removes_the_runs_files(self, tmp_path, monkeypatch):
        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(fedq.harness, "write_overlay_csv", fail)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(small_manifest(tmp_path, n_seeds=1))
        assert list((tmp_path / "out").iterdir()) == []  # the trace, written first, is gone too

    @pytest.mark.parametrize("q0", [0.0, 1.5, -2.25])
    def test_overlay_bound_uses_initial_gap(self, tmp_path, q0):
        manifest = small_manifest(
            tmp_path, n_seeds=1, compressor="identity", k=0, mode="error_feedback", q0=q0)
        written = run_experiment(manifest)
        trace = next(p for p in written if p.suffix == ".csv" and "_agg" not in p.name)
        mdp = fedq.build_gridworld(fedq.load_map("map5x5"), gamma=manifest.gamma)
        q_star = fedq.bellman.value_iteration(mdp, tol=manifest.qstar_tol)
        gap = fedq.linf_error(np.full(q_star.shape, q0), q_star)
        assert read_trace_csv(trace)[0].linf_error == gap
        params = fedq.BoundParams(
            beta=manifest.beta, eta=manifest.eta, gamma=manifest.gamma,
            local_epochs=manifest.local_epochs, rounds=manifest.rounds,
            n_agents=manifest.agents, delta=manifest.delta,
            n_states=mdp.n_states, n_actions=mdp.n_actions, alpha=1.0, q0_gap=gap,
        )
        overlay = trace.with_name(trace.stem + "_overlay.csv")
        for line in overlay.read_text().splitlines()[1:]:
            t, _, bound = line.split(",")
            expected = fedq.bounds.error_feedback_bound(dataclasses.replace(params, rounds=int(t)))
            assert float(bound) == expected

    def test_oracle_solved_before_output_dir(self, tmp_path, monkeypatch):
        def fail(mdp, tol):
            raise RuntimeError("oracle did not converge")

        monkeypatch.setattr(fedq.harness, "value_iteration", fail)
        with pytest.raises(RuntimeError, match="oracle"):
            run_experiment(small_manifest(tmp_path))
        assert not (tmp_path / "out").exists()

    def test_output_root_holds_only_files(self, tmp_path):
        manifest = small_manifest(tmp_path)
        written = run_experiment(manifest)
        out = tmp_path / "out"
        assert all(p.is_file() for p in out.iterdir())
        assert set(written) <= set(out.iterdir())

    def test_stale_qstar_cache_ignored(self, tmp_path):
        # an older fedq cached the oracle under <output>/qstar_cache/; a
        # garbage file at the name it would have read must not matter now
        manifest = small_manifest(tmp_path, q0=1.5)
        run_experiment(manifest)
        clean = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
        stale = tmp_path / "stale"
        digest = hashlib.sha256(fedq.grids.read_map_text("map5x5").encode()).hexdigest()[:16]
        garbage = stale / "qstar_cache" / f"qstar_v1_{digest}_g0.8_t1e-10.npy"
        garbage.parent.mkdir(parents=True)
        garbage.write_bytes(b"not an array")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**dataclasses.asdict(manifest), "output_dir": str(stale)}))
        assert cli_main(["sweep", str(path)]) == 0
        rerun = {p.name: p.read_bytes() for p in stale.glob("*.csv")}
        assert rerun == clean
        assert garbage.read_bytes() == b"not an array"

    def test_sweep_bytes_pinned(self, tmp_path):
        # sha256 prefixes of every output of a fixed sweep, with the wall
        # time stripped from the summaries; a change to any output byte,
        # file name or the set of files written shows up here
        manifest = small_manifest(
            tmp_path, map="map6x6w", rounds=30, agents=2, eta=0.1, beta=1.0, q0=1.5,
            compressor="identity", k=0, n_seeds=2,
            sweep={"compressor": ["identity", "top_k", "sparsified_k"],
                   "mode": [None, "direct", "error_feedback"], "k": [4]},
        )
        run_experiment(manifest)
        expected = {
            "identity_auto_agg.csv": "b72f2d58a4f146e5",
            "identity_auto_seed0.csv": "f013889823f13fdb",
            "identity_auto_seed0_overlay.csv": "ed5e7a88c351083d",
            "identity_auto_seed0_summary.json": "1b18a75eb23a8453",
            "identity_auto_seed1.csv": "51f5796ad92e9518",
            "identity_auto_seed1_overlay.csv": "a7a444c1d62bd3c4",
            "identity_auto_seed1_summary.json": "8e409cc812c1a44b",
            "identity_direct_agg.csv": "b72f2d58a4f146e5",
            "identity_direct_seed0.csv": "f013889823f13fdb",
            "identity_direct_seed0_overlay.csv": "ed5e7a88c351083d",
            "identity_direct_seed0_summary.json": "42270091bd1d8e8a",
            "identity_direct_seed1.csv": "51f5796ad92e9518",
            "identity_direct_seed1_overlay.csv": "a7a444c1d62bd3c4",
            "identity_direct_seed1_summary.json": "4799976baa58b8ce",
            "identity_error_feedback_agg.csv": "b72f2d58a4f146e5",
            "identity_error_feedback_seed0.csv": "f013889823f13fdb",
            "identity_error_feedback_seed0_overlay.csv": "6f4b7717a00374d2",
            "identity_error_feedback_seed0_summary.json": "7f89dd7da613d57b",
            "identity_error_feedback_seed1.csv": "51f5796ad92e9518",
            "identity_error_feedback_seed1_overlay.csv": "4083ee6d0264c2f3",
            "identity_error_feedback_seed1_summary.json": "1fbf45ff449e766f",
            "sparsified_k4_auto_agg.csv": "35ececec29e5a5a4",
            "sparsified_k4_auto_seed0.csv": "66b2300e40b61279",
            "sparsified_k4_auto_seed0_overlay.csv": "8796b78446d6ce34",
            "sparsified_k4_auto_seed0_summary.json": "e6805b2f5851a71d",
            "sparsified_k4_auto_seed1.csv": "81287a62a806ff45",
            "sparsified_k4_auto_seed1_overlay.csv": "2bc1c1819a8e5b53",
            "sparsified_k4_auto_seed1_summary.json": "da7b3779a4ee063c",
            "sparsified_k4_direct_agg.csv": "35ececec29e5a5a4",
            "sparsified_k4_direct_seed0.csv": "66b2300e40b61279",
            "sparsified_k4_direct_seed0_overlay.csv": "8796b78446d6ce34",
            "sparsified_k4_direct_seed0_summary.json": "c7612ce80a6b4d36",
            "sparsified_k4_direct_seed1.csv": "81287a62a806ff45",
            "sparsified_k4_direct_seed1_overlay.csv": "2bc1c1819a8e5b53",
            "sparsified_k4_direct_seed1_summary.json": "3174f1a29471aeae",
            "sparsified_k4_error_feedback_agg.csv": "6a041281e8a17c0c",
            "sparsified_k4_error_feedback_seed0.csv": "a83ce5cc4a2b5155",
            "sparsified_k4_error_feedback_seed0_overlay.csv": "d53c01f2a936b687",
            "sparsified_k4_error_feedback_seed0_summary.json": "a52d714ed5f5171d",
            "sparsified_k4_error_feedback_seed1.csv": "54c6f914ed6de4f0",
            "sparsified_k4_error_feedback_seed1_overlay.csv": "f7f38cbcd35dd64a",
            "sparsified_k4_error_feedback_seed1_summary.json": "6e8b6b3aa2252a83",
            "top_k4_auto_agg.csv": "9a2daa2746cddd4e",
            "top_k4_auto_seed0.csv": "c25002e4d307a3db",
            "top_k4_auto_seed0_overlay.csv": "535f801b699306cb",
            "top_k4_auto_seed0_summary.json": "9427ce3b10c55b10",
            "top_k4_auto_seed1.csv": "874261c052ad9b21",
            "top_k4_auto_seed1_overlay.csv": "b42724ba92ff8acc",
            "top_k4_auto_seed1_summary.json": "c7382b5e0f90661f",
            "top_k4_direct_agg.csv": "4331066174af6433",
            "top_k4_direct_seed0.csv": "3c9d778a7c1c4794",
            "top_k4_direct_seed0_overlay.csv": "27be9df69ff34b98",
            "top_k4_direct_seed0_summary.json": "a8500abd828afbbb",
            "top_k4_direct_seed1.csv": "b7b8a46125ebe86e",
            "top_k4_direct_seed1_overlay.csv": "4cba9430d15fb072",
            "top_k4_direct_seed1_summary.json": "818b25195747a0bb",
            "top_k4_error_feedback_agg.csv": "9a2daa2746cddd4e",
            "top_k4_error_feedback_seed0.csv": "c25002e4d307a3db",
            "top_k4_error_feedback_seed0_overlay.csv": "535f801b699306cb",
            "top_k4_error_feedback_seed0_summary.json": "f77bf5c4a1bbaef4",
            "top_k4_error_feedback_seed1.csv": "874261c052ad9b21",
            "top_k4_error_feedback_seed1_overlay.csv": "b42724ba92ff8acc",
            "top_k4_error_feedback_seed1_summary.json": "9b1e9214236776fa",
        }
        runtime = re.compile(rb'^\s*"runtime_seconds": [^\n]*\n', re.MULTILINE)
        digests = {}
        for p in (tmp_path / "out").iterdir():
            name = p.name.removeprefix("map6x6w_I2_K1_T30_eta0.1_beta1.0_")
            digests[name] = hashlib.sha256(runtime.sub(b"", p.read_bytes())).hexdigest()[:16]
        assert digests == expected

    def test_fpp_sets_the_bit_columns(self, tmp_path):
        # map5x5: d = 100, so an index takes ceil(log2 100) = 7 bits
        manifest = small_manifest(tmp_path, n_seeds=1, fpp=16,
                                  sweep={"compressor": ["identity", "top_k"]})
        written = run_experiment(manifest)
        assert ["_identity_" in p.name for p in written] == [True, False]
        identity, top_k = (read_trace_csv(p)[1:] for p in written)
        assert all(m.bits_round == 100 * 16 for m in identity)
        assert all(m.payload_entries > 0 for m in top_k)
        # bits_round is per agent; payload_entries sums over agents
        assert all(m.bits_round * manifest.agents == m.payload_entries * (7 + 16) for m in top_k)

    def test_numpy_float_slug(self, tmp_path):
        manifest = small_manifest(tmp_path, rounds=3, n_seeds=1, eta=np.float64(0.1))
        written = run_experiment(manifest)
        assert [p.name for p in written] == ["map5x5_I2_K1_T3_eta0.1_beta0.8_top_k5_auto_seed0.csv"]

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDQ_OUTPUT_ROOT", str(tmp_path / "envroot"))
        manifest = small_manifest(tmp_path, output_dir=None, n_seeds=1)
        written = run_experiment(manifest)
        assert all(str(p).startswith(str(tmp_path / "envroot")) for p in written)


class TestReadTrace:
    def test_directory_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match=re.escape(str(tmp_path))):
            read_trace_csv(tmp_path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(fedq.harness.TRACE_HEADER.encode() + b"\n0,\xff\n")
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            read_trace_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("round,rmse\n0,1.0\n")
        with pytest.raises(FileFormatError, match="header"):
            read_trace_csv(path)

    @pytest.mark.parametrize("row", ["0,1.0,1.0,0.0,0.0", "0,1.0,1.0,0.0,0.0,0,7"])
    def test_row_needs_six_fields(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(fedq.harness.TRACE_HEADER + "\n" + row + "\n")
        with pytest.raises(FileFormatError, match=":2:"):
            read_trace_csv(path)

    @pytest.mark.parametrize("row", ["x,1,2,3,4,5", "0,1.0,1.0,0.0,0.0,1.5"])
    def test_non_numeric_cell(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(fedq.harness.TRACE_HEADER + "\n0,1.0,1.0,0.0,0.0,0\n" + row + "\n")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}:3: trace row is not numeric")):
            read_trace_csv(path)


# Each input file's reader and the typed error a bad file raises.
INPUT_READERS = [
    (fedq.load_map, MapFormatError),
    (RunManifest.from_file, ParamOutOfRangeError),
    (read_trace_csv, FileFormatError),
]


class TestInputFiles:
    @pytest.mark.parametrize("read, error", INPUT_READERS)
    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_bad_file_raises_typed_error_naming_path(self, tmp_path, read, error, case):
        path = tmp_path / "input"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(b"G\xff\n")
        with pytest.raises(error, match=re.escape(str(path))):
            read(path)

    def test_malformed_manifest_json_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ParamOutOfRangeError, match=re.escape(str(path)) + ".*not valid JSON"):
            RunManifest.from_file(path)

    def test_trace_line_numbers_count_blank_and_crlf_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        row = "0,0.5,0.5,0.0,0.0,0"
        path.write_bytes(f"{fedq.harness.TRACE_HEADER}\r\n{row}\r\n\r\n{row}\n".encode())
        with pytest.raises(FileFormatError, match=re.escape(f"{path}:3:")):
            read_trace_csv(path)
        path.write_text(f"{fedq.harness.TRACE_HEADER}\n{row}\n{row}")
        assert len(read_trace_csv(path)) == 2


class TestQstar:
    def test_compute_writes_oracle_and_policy(self, tmp_path):
        q_path, p_path = fedq.compute_qstar("map5x5", 0.8, 1e-10, tmp_path)
        q = read_qtable_csv(q_path)
        mdp = fedq.build_gridworld(fedq.load_map("map5x5"), gamma=0.8)
        assert np.max(np.abs(fedq.exact_bellman(mdp, q) - q)) <= 1e-10
        assert p_path.read_text().splitlines()[0] == "state,action"

    def test_two_cell_oracle_value(self, tmp_path):
        map_file = tmp_path / "tiny.txt"
        map_file.write_text("G.\n")
        q_path, _ = fedq.compute_qstar(str(map_file), 0.8, 1e-12, tmp_path)
        q = read_qtable_csv(q_path)
        assert abs(q[1, 2] - 1.0) < 1e-9  # left into the goal

    def test_qstar_bytes_pinned(self, tmp_path):
        q_path, p_path = fedq.compute_qstar("map5x5", 0.8, 1e-10, tmp_path)
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (q_path, p_path)]
        assert digests == [
            "da5762789b0290009d4a5d4c0d2d0c580e48652f8d613dd8720a91749031a97a",
            "37da0f1da07ac28bb433f9c2d249ead126977e482cf63905575f33922b3321fc",
        ]

    def test_writes_only_the_two_csvs(self, tmp_path):
        fedq.compute_qstar("map5x5", 0.8, 1e-10, tmp_path / "out")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "map5x5_policy.csv", "map5x5_qstar.csv"]

    def test_bad_tol_writes_nothing(self, tmp_path):
        with pytest.raises(ParamOutOfRangeError):
            fedq.compute_qstar("map5x5", 0.8, 0.0, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_bad_tol_rejected(self, tmp_path):
        with pytest.raises(ParamOutOfRangeError):
            fedq.compute_qstar("map5x5", 0.8, 0.0, tmp_path)
        with pytest.raises(ParamOutOfRangeError):
            fedq.compute_qstar("map5x5", 0.8, float("nan"), tmp_path)


class TestCli:
    def _write_manifest(self, tmp_path, **overrides):
        body = dict(map="map5x5", rounds=3, agents=1, eta=0.5, beta=1.0,
                    compressor="identity", output_dir=str(tmp_path / "out"))
        body.update(overrides)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(body))
        return path

    def test_run_succeeds(self, tmp_path, capsys):
        path = self._write_manifest(tmp_path)
        assert cli_main(["run", str(path)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed and all((tmp_path / "out") in __import__("pathlib").Path(p).parents for p in printed)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_output_dir_option_overrides_the_manifest(self, tmp_path, capsys, command):
        path = self._write_manifest(tmp_path)
        assert cli_main([command, str(path), "--output-dir", str(tmp_path / "other")]) == 0
        printed = capsys.readouterr().out.split()
        assert printed and all(Path(p).parent == tmp_path / "other" for p in printed)
        assert not (tmp_path / "out").exists()

    def test_shared_parser_keeps_no_option_between_calls(self, tmp_path, capsys):
        # one parser serves every call in the process: the first call's --output-dir must not
        # reach the second, which writes to its manifest's own output_dir
        sweep = self._write_manifest(tmp_path, sweep={"eta": [0.1, 0.2]})
        assert cli_main(["sweep", str(sweep), "--output-dir", str(tmp_path / "other")]) == 0
        single = tmp_path / "single.json"
        single.write_text(json.dumps({"map": "map5x5", "rounds": 3, "output_dir": str(tmp_path / "own")}))
        assert cli_main(["run", str(single)]) == 0
        printed = capsys.readouterr().out.split()
        assert [Path(p).parent.name for p in printed] == ["other", "other", "own"]
        assert fedq.cli.build_parser() is fedq.cli.build_parser()

    def test_runtime_error_exits_1(self, tmp_path, monkeypatch, capsys):
        def broken(manifest):
            raise NotConvergedError("value iteration did not converge")

        monkeypatch.setattr(fedq.cli, "run_experiment", broken)
        assert cli_main(["run", str(self._write_manifest(tmp_path))]) == 1
        assert capsys.readouterr().err == "fedq: value iteration did not converge\n"

    def test_run_refuses_sweeps(self, tmp_path):
        path = self._write_manifest(tmp_path, sweep={"eta": [0.1, 0.2]})
        assert cli_main(["run", str(path)]) == 2

    def test_sweep_runs_grid(self, tmp_path):
        path = self._write_manifest(tmp_path, sweep={"eta": [0.1, 0.2]})
        assert cli_main(["sweep", str(path)]) == 0
        out = tmp_path / "out"
        assert len(list(out.glob("*_summary.json"))) == 2

    def test_unknown_option_rejected(self, tmp_path):
        path = self._write_manifest(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", str(path), "--threads", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_missing_map_exits_2_without_outputs(self, tmp_path):
        path = self._write_manifest(tmp_path, map=str(tmp_path / "nope.txt"))
        assert cli_main(["run", str(path)]) == 2
        out = tmp_path / "out"
        assert not out.exists() or not any(out.glob("*.csv"))

    def test_bad_manifest_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert cli_main(["run", str(path)]) == 2

    @pytest.mark.parametrize("overrides", [
        {"agents": True},
        {"eta": "0.1"},
        {"sweep": {"eta": 0.1}},
    ])
    def test_mistyped_manifest_exits_2_without_outputs(self, tmp_path, overrides):
        path = self._write_manifest(tmp_path, **overrides)
        assert cli_main(["sweep", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        {"eta": 5.0},
        {"mode": "bogus"},
        {"compressor": "top_k", "k": 500},
        {"compressor": "top_k", "k": 0},
        {"gamma": 1.5},
        {"q0": 100.0},
        {"fpp": 0},
        {"delta": 1.5},
        {"sweep": {"k": [5, 500]}, "compressor": "sparsified_k"},
        {"q0": float("nan")},
        {"noise_std": float("nan")},
        {"qstar_tol": float("nan")},
        {"qstar_tol": float("inf")},
        {"noise_clip": float("nan")},
        {"noise_clip": float("inf")},
        {"noise_std": float("inf")},
        {"n_seeds": 0},
        {"rounds": 2**32},
        {"max_runs": 0},
    ])
    def test_out_of_range_manifest_exits_2_without_outputs(self, tmp_path, overrides):
        path = self._write_manifest(tmp_path, **overrides)
        assert cli_main(["sweep", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_budget_error_names_k_and_d(self, tmp_path, capsys):
        path = self._write_manifest(tmp_path, compressor="top_k", k=500)
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "k=500" in err and "d=100" in err

    def test_map_is_directory_exits_2(self, tmp_path):
        (tmp_path / "maps").mkdir()
        path = self._write_manifest(tmp_path, map=str(tmp_path / "maps"))
        assert cli_main(["run", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_manifest_is_directory_exits_2(self, tmp_path):
        assert cli_main(["run", str(tmp_path), "--output-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["G.\n...\n", b"G\xff\n"])
    def test_malformed_map_exits_2(self, tmp_path, text):
        map_file = tmp_path / "bad.txt"
        if isinstance(text, bytes):
            map_file.write_bytes(text)
        else:
            map_file.write_text(text)
        path = self._write_manifest(tmp_path, map=str(map_file))
        assert cli_main(["run", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_top_level_array_exits_2(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[]")
        assert cli_main(["sweep", str(path)]) == 2

    def test_internal_type_error_propagates(self, tmp_path, monkeypatch):
        def broken(manifest):
            raise TypeError("internal bug")

        monkeypatch.setattr(fedq.cli, "run_experiment", broken)
        path = self._write_manifest(tmp_path)
        with pytest.raises(TypeError, match="internal bug"):
            cli_main(["run", str(path)])

    def test_internal_file_not_found_propagates(self, tmp_path, monkeypatch):
        def broken(manifest):
            raise FileNotFoundError("internal bug")

        monkeypatch.setattr(fedq.cli, "run_experiment", broken)
        path = self._write_manifest(tmp_path)
        with pytest.raises(FileNotFoundError, match="internal bug"):
            cli_main(["run", str(path)])

    def test_qstar_subcommand(self, tmp_path):
        code = cli_main(["qstar", "map5x5", "--gamma", "0.8", "--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "map5x5_qstar.csv").exists()
        assert (tmp_path / "map5x5_policy.csv").exists()

    def test_qstar_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("FEDQ_OUTPUT_ROOT", str(tmp_path / "envroot"))
        assert cli_main(["qstar", "map5x5", "--gamma", "0.8"]) == 0
        assert sorted(p.name for p in (tmp_path / "envroot").iterdir()) == [
            "map5x5_policy.csv", "map5x5_qstar.csv"]
        assert not (tmp_path / "runs").exists()

    def test_qstar_unreadable_map_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["qstar", str(tmp_path), "--gamma", "0.8", "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_qstar_bad_tol(self, tmp_path):
        assert cli_main(["qstar", "map5x5", "--gamma", "0.8", "--tol", "0",
                         "--output-dir", str(tmp_path)]) == 2

    def test_qstar_infinite_tol_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["qstar", "map5x5", "--gamma", "0.8", "--tol", "inf",
                         "--output-dir", str(out)]) == 2
        assert not out.exists()


# The overlay audit grid: every analyzed pairing on map5x5, each cell over ten seeds.
AUDIT_SWEEP = dict(compressor=["identity", "top_k", "sparsified_k"], k=[5, 20], agents=[1, 2, 5], beta=[0.8, 0.2])
DIVERGENT_CELL = ("sparsified_k", 5, 1, 0.8)


def _audit_cell(compressor, k, agents, beta):
    if (compressor, k, agents, beta) != DIVERGENT_CELL:
        return pytest.param(compressor, k, agents, beta)
    return pytest.param(compressor, k, agents, beta, marks=pytest.mark.xfail(strict=True, reason=(
        "direct sparsified_k at I=1, k=5, beta=0.8 diverges: seed 0 exceeds its bound in 46 of 300 rounds"
        " and seed 5 in 7, while the realized p_min falls and the plug-in q2 = 1/p_min - 1 keeps raising"
        " the bound behind the blow-up; every other cell of the grid stays under its bound")))


@pytest.fixture(scope="module")
def audit_sweep(tmp_path_factory):
    manifest = RunManifest.from_mapping(dict(
        map="map5x5", rounds=300, local_epochs=2, eta=0.1, gamma=0.8, noise_std=0.5, noise_clip=0.5,
        delta=0.05, n_seeds=10, sweep=AUDIT_SWEEP, output_dir=str(tmp_path_factory.mktemp("audit")),
    ))
    run_experiment(manifest)
    return manifest


@pytest.mark.slow
@pytest.mark.parametrize("compressor, k, agents, beta", [_audit_cell(*cell) for cell in dict.fromkeys(
    # the identity ignores k, so its points collapse to k = 0 as expand_grid's do
    (compressor, 0 if compressor == "identity" else k, agents, beta)
    for compressor, k, agents, beta in itertools.product(*AUDIT_SWEEP.values()))])
def test_overlay_bound_holds_on_every_round(audit_sweep, compressor, k, agents, beta):
    # the overlay claims empirical_linf <= theory_bound with probability at least 1 - delta per run;
    # audit it on every row of every seed's overlay, and that each analyzed cell's bound is finite
    point = dataclasses.replace(audit_sweep, sweep={}, compressor=compressor, k=k, agents=agents, beta=beta)
    exceeded = {}
    for seed in range(audit_sweep.n_seeds):
        overlay = Path(audit_sweep.output_dir) / f"{grid_slug(point, seed)}_overlay.csv"
        t, empirical, bound = np.loadtxt(overlay, delimiter=",", skiprows=1, ndmin=2).T
        assert t.tolist() == list(range(1, point.rounds + 1))
        assert np.isfinite(bound).all(), f"seed {seed} has a non-finite bound"
        if np.any(empirical > bound):
            exceeded[seed] = int(np.sum(empirical > bound))
    assert not exceeded, f"rounds above the bound, by seed: {exceeded}"
