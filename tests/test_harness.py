import json

import numpy as np
import pytest

import fedq
from fedq.cli import main as cli_main
from fedq.errors import FileFormatError, ParamOutOfRangeError
from fedq.harness import RunManifest, expand_grid, read_trace_csv, run_experiment


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

    def test_grid_expansion(self, tmp_path):
        manifest = small_manifest(tmp_path, sweep={"eta": [0.1, 0.2], "k": [5, 10, 20]})
        points = expand_grid(manifest)
        assert len(points) == 6
        assert {p["eta"] for p in points} == {0.1, 0.2}

    def test_identity_points_collapse_over_k(self, tmp_path):
        manifest = small_manifest(
            tmp_path, sweep={"compressor": ["identity", "top_k"], "k": [5, 10]}
        )
        points = expand_grid(manifest)
        # identity ignores the budget, so only one identity point survives
        assert len(points) == 3
        assert sum(p["compressor"] == "identity" for p in points) == 1

    def test_safety_cap(self, tmp_path):
        etas = [round(0.01 * i, 4) for i in range(1, 41)]
        manifest = small_manifest(tmp_path, sweep={"eta": etas}, max_runs=10)
        with pytest.raises(ParamOutOfRangeError):
            run_experiment(manifest)


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

    def test_thread_count_never_changes_bytes(self, tmp_path):
        m1 = small_manifest(tmp_path, output_dir=str(tmp_path / "a"),
                            sweep={"eta": [0.1, 0.2], "k": [5, 10]})
        m4 = small_manifest(tmp_path, output_dir=str(tmp_path / "b"),
                            sweep={"eta": [0.1, 0.2], "k": [5, 10]})
        out1 = sorted(p for p in run_experiment(m1, threads=1) if p.suffix == ".csv")
        out4 = sorted(p for p in run_experiment(m4, threads=4) if p.suffix == ".csv")
        assert [p.name for p in out1] == [p.name for p in out4]
        for a, b in zip(out1, out4):
            assert a.read_bytes() == b.read_bytes()

    def test_agg_band_contains_mean(self, tmp_path):
        manifest = small_manifest(tmp_path, n_seeds=3)
        written = run_experiment(manifest)
        agg = next(p for p in written if p.name.endswith("_agg.csv"))
        for line in agg.read_text().splitlines()[1:]:
            _, mean, lo, hi, _ = line.split(",")
            assert float(lo) <= float(mean) <= float(hi)

    def test_overlay_written_with_finite_bound(self, tmp_path):
        manifest = small_manifest(tmp_path, n_seeds=1, compressor="identity", k=0)
        written = run_experiment(manifest)
        trace = next(p for p in written if p.suffix == ".csv" and "_agg" not in p.name)
        overlay = trace.with_name(trace.stem + "_overlay.csv")
        lines = overlay.read_text().splitlines()
        assert lines[0] == "round,empirical_linf,theory_bound"
        last = lines[-1].split(",")
        assert float(last[2]) > float(last[1])

    def test_overlay_nan_for_unanalyzed_pairing(self, tmp_path):
        manifest = small_manifest(tmp_path, n_seeds=1, compressor="top_k", k=5, mode="direct")
        written = run_experiment(manifest)
        trace = next(p for p in written if p.suffix == ".csv" and "_agg" not in p.name)
        overlay = trace.with_name(trace.stem + "_overlay.csv")
        bound = overlay.read_text().splitlines()[1].split(",")[2]
        assert bound == "nan"

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDQ_OUTPUT_ROOT", str(tmp_path / "envroot"))
        manifest = small_manifest(tmp_path, output_dir=None, n_seeds=1)
        written = run_experiment(manifest)
        assert all(str(p).startswith(str(tmp_path / "envroot")) for p in written)


class TestReadTrace:
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


class TestQstar:
    def test_compute_writes_oracle_and_policy(self, tmp_path):
        q_path, p_path = fedq.compute_qstar("map5x5", 0.8, 1e-10, tmp_path)
        q = fedq.bellman.read_qtable_csv(q_path)
        mdp = fedq.build_gridworld(fedq.load_map("map5x5"), gamma=0.8)
        assert np.max(np.abs(fedq.exact_bellman(mdp, q) - q)) <= 1e-10
        assert p_path.read_text().splitlines()[0] == "state,action"

    def test_two_cell_oracle_value(self, tmp_path):
        map_file = tmp_path / "tiny.txt"
        map_file.write_text("G.\n")
        q_path, _ = fedq.compute_qstar(str(map_file), 0.8, 1e-12, tmp_path)
        q = fedq.bellman.read_qtable_csv(q_path)
        assert abs(q[1, 2] - 1.0) < 1e-9  # left into the goal

    def test_cache_reused(self, tmp_path):
        fedq.compute_qstar("map5x5", 0.8, 1e-10, tmp_path)
        cache = list((tmp_path / "qstar_cache").glob("*.npy"))
        assert len(cache) == 1
        stamp = cache[0].stat().st_mtime_ns
        fedq.compute_qstar("map5x5", 0.8, 1e-10, tmp_path)
        assert cache[0].stat().st_mtime_ns == stamp

    @pytest.mark.parametrize("bad", [np.zeros((3, 4)), np.zeros((25, 4), dtype=np.float32)])
    def test_cached_array_checked_against_map(self, tmp_path, bad):
        fedq.compute_qstar("map5x5", 0.8, 1e-10, tmp_path)
        (cache,) = (tmp_path / "qstar_cache").glob("*.npy")
        assert cache.name.startswith(fedq.harness.QSTAR_CACHE_FORMAT + "_")
        np.save(cache, bad)
        with pytest.raises(FileFormatError, match=cache.name):
            fedq.compute_qstar("map5x5", 0.8, 1e-10, tmp_path)

    def test_unreadable_cache_file(self, tmp_path):
        fedq.compute_qstar("map5x5", 0.8, 1e-10, tmp_path)
        (cache,) = (tmp_path / "qstar_cache").glob("*.npy")
        cache.write_bytes(b"not an array")
        with pytest.raises(FileFormatError, match=cache.name):
            fedq.compute_qstar("map5x5", 0.8, 1e-10, tmp_path)

    def test_bad_tol_rejected(self, tmp_path):
        with pytest.raises(ParamOutOfRangeError):
            fedq.compute_qstar("map5x5", 0.8, 0.0, tmp_path)


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

    def test_run_refuses_sweeps(self, tmp_path):
        path = self._write_manifest(tmp_path, sweep={"eta": [0.1, 0.2]})
        assert cli_main(["run", str(path)]) == 2

    def test_sweep_runs_grid(self, tmp_path):
        path = self._write_manifest(tmp_path, sweep={"eta": [0.1, 0.2]})
        assert cli_main(["sweep", str(path), "--threads", "2"]) == 0
        out = tmp_path / "out"
        assert len(list(out.glob("*_summary.json"))) == 2

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
        def broken(manifest, threads=1):
            raise TypeError("internal bug")

        monkeypatch.setattr(fedq.cli, "run_experiment", broken)
        path = self._write_manifest(tmp_path)
        with pytest.raises(TypeError, match="internal bug"):
            cli_main(["run", str(path)])

    def test_qstar_subcommand(self, tmp_path):
        code = cli_main(["qstar", "map5x5", "--gamma", "0.8", "--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "map5x5_qstar.csv").exists()
        assert (tmp_path / "map5x5_policy.csv").exists()

    def test_qstar_unreadable_map_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["qstar", str(tmp_path), "--gamma", "0.8", "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_qstar_bad_tol(self, tmp_path):
        assert cli_main(["qstar", "map5x5", "--gamma", "0.8", "--tol", "0",
                         "--output-dir", str(tmp_path)]) == 2
