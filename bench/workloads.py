"""The benchmark's workloads: inputs generated from a seed, one timed unit each.

A workload's ``prepare`` is its set-up (map load or generation, the MDP,
the oracle; for the sweep, the manifest), ``unit`` is the timed call
into fedq, and ``digest`` fingerprints the unit's output bytes for the
byte-identity gate.  Inputs depend only on the seed, which is also the
run's ``master_seed``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

import fedq
import fedq.cli

GAMMA = 0.8
NOISE = fedq.NoiseSpec(std=0.5, clip=0.5)
_RUNTIME_LINE = re.compile(rb'^\s*"runtime_seconds": [^\n]*\n', re.MULTILINE)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def four_rooms_text(seed: int, size: int = 33) -> str:
    """A size x size four-rooms maze: outer wall, one cross wall, a door in
    each of its four arms, and the goal in a random open cell."""
    rng = random.Random(seed)
    mid = size // 2
    cells = [["#" if r in (0, size - 1) or c in (0, size - 1) or mid in (r, c) else "."
              for c in range(size)] for r in range(size)]
    for lo, hi in ((1, mid - 1), (mid + 1, size - 2)):
        cells[mid][rng.randint(lo, hi)] = "."
        cells[rng.randint(lo, hi)][mid] = "."
    open_cells = [(r, c) for r in range(size) for c in range(size) if cells[r][c] == "."]
    r, c = rng.choice(open_cells)
    cells[r][c] = "G"
    return "\n".join("".join(row) for row in cells) + "\n"


@dataclass
class Prepared:
    """What set-up hands to the timed units."""

    mdp: fedq.TabularMDP | None = None
    q_star: object = None
    config: fedq.ExperimentConfig | None = None
    manifest_path: Path | None = None
    out_dir: Path | None = None


class RunWorkload:
    """One `run_federated` call per unit on a map built in set-up."""

    def __init__(self, name: str, why: str, map_ref, make_config, memory_bound: bool) -> None:
        self.name, self.why = name, why
        self.memory_bound = memory_bound  # which speed probe normalizes its unit times
        self._map_ref = map_ref  # bundled name, or a function seed -> map text
        self._make_config = make_config  # (seed, d) -> ExperimentConfig

    def prepare(self, seed: int, work_dir: Path) -> Prepared:
        ref = self._map_ref
        if callable(ref):
            path = work_dir / f"{self.name}.txt"
            path.write_text(ref(seed))
            ref = str(path)
        mdp = fedq.grids.build_gridworld(fedq.grids.load_map(ref), noise=NOISE, gamma=GAMMA)
        q_star = fedq.bellman.value_iteration(mdp, tol=1e-10)
        return Prepared(mdp=mdp, q_star=q_star, config=self._make_config(seed, mdp.table_size))

    def before_unit(self, prep: Prepared) -> None:
        pass

    def unit(self, prep: Prepared):
        return fedq.engine.run_federated(prep.config, prep.mdp, prep.q_star)

    def digest(self, prep: Prepared, result, work_dir: Path) -> dict:
        trace = work_dir / "trace.csv"
        fedq.harness.write_trace_csv(trace, result.metrics)
        return {"trace": _sha(trace.read_bytes()), "q_final": _sha(result.q_final.tobytes())}

    def files_written(self, result) -> list[Path]:
        return []

    def agent_rounds(self, prep: Prepared) -> int:
        return prep.config.n_agents * prep.config.rounds

    def kept_frac(self, prep: Prepared, result) -> float:
        cfg = prep.config
        shipped = sum(m.payload_entries for m in result.metrics)
        return shipped / (cfg.n_agents * prep.mdp.table_size * cfg.rounds)

    def sizes(self, prep: Prepared) -> dict:
        cfg, mdp = prep.config, prep.mdp
        return {"S": mdp.n_states, "A": mdp.n_actions, "d": mdp.table_size,
                "I": cfg.n_agents, "K": cfg.local_epochs, "T": cfg.rounds,
                "k": cfg.compressor.k, "kernel_bytes": mdp.transition.nbytes}


SWEEP_MAP = "map6x6w"
SWEEP_ROUNDS = 100


def sweep_manifest(seed: int, out_dir: Path) -> dict:
    return {
        "map": SWEEP_MAP, "rounds": SWEEP_ROUNDS, "agents": 2, "eta": 0.1, "beta": 0.8,
        "gamma": GAMMA, "compressor": "identity", "n_seeds": 2, "master_seed": seed,
        "sweep": {"compressor": ["identity", "top_k", "sparsified_k"], "k": [4, 16]},
        "output_dir": str(out_dir),
    }


class SweepWorkload:
    """One `fedq sweep <manifest>` per unit, through `fedq.cli.main`.

    All units of a process write into one output directory, so the first
    (warm-up) sweep fills the q* cache and the timed sweeps hit it; every
    other output is deleted before each sweep so the digest sees only the
    files that sweep wrote.
    """

    name = "sweep-cli"
    memory_bound = False
    why = ("fedq sweep: map6x6w S=28 d=112 I=2 K=1 T=100 kernel 25 KB, 3 compressors x k 4,16 x "
           "2 seeds = 10 runs; the only workload that writes files, evaluates bounds, uses the q* cache")

    def prepare(self, seed: int, work_dir: Path) -> Prepared:
        out_dir = work_dir / "sweep"
        path = work_dir / "manifest.json"
        path.write_text(json.dumps(sweep_manifest(seed, out_dir), indent=2))
        fedq.harness.RunManifest.from_file(path)
        return Prepared(manifest_path=path, out_dir=out_dir)

    def _outputs(self, prep: Prepared) -> list[Path]:
        if not prep.out_dir.exists():
            return []
        return sorted(p for p in prep.out_dir.iterdir() if p.is_file())

    def before_unit(self, prep: Prepared) -> None:
        for path in self._outputs(prep):
            path.unlink()

    def unit(self, prep: Prepared):
        with contextlib.redirect_stdout(io.StringIO()):
            code = fedq.cli.main(["sweep", str(prep.manifest_path)])
        if code != 0:
            raise RuntimeError(f"fedq sweep exited with code {code}")
        return self._outputs(prep)

    def digest(self, prep: Prepared, outputs: list[Path], work_dir: Path) -> dict:
        parts = []
        for path in outputs:
            data = path.read_bytes()
            if path.name.endswith("_summary.json"):
                data = _RUNTIME_LINE.sub(b"", data)  # the only field that varies between reruns
            parts.append(f"{path.name} {_sha(data)}")
        return {"files": len(outputs), "outputs": _sha("\n".join(parts).encode())}

    def files_written(self, outputs: list[Path]) -> list[Path]:
        return outputs

    def agent_rounds(self, prep: Prepared) -> int:
        return sum(s["config"]["agents"] * s["config"]["rounds"] for s in self._summaries(prep))

    def _summaries(self, prep: Prepared) -> list[dict]:
        return [json.loads(p.read_text()) for p in self._outputs(prep)
                if p.name.endswith("_summary.json")]

    def kept_frac(self, prep: Prepared, outputs) -> float:
        d = self.table_size()
        shipped = offered = 0
        for s in self._summaries(prep):
            shipped += s["payload_entries_total"]
            offered += s["config"]["agents"] * d * s["config"]["rounds"]
        return shipped / offered

    def table_size(self) -> int:
        return fedq.grids.load_map(SWEEP_MAP).n_states * fedq.grids.N_ACTIONS

    def sizes(self, prep: Prepared) -> dict:
        d = self.table_size()
        s = d // fedq.grids.N_ACTIONS
        return {"S": s, "A": fedq.grids.N_ACTIONS, "d": d, "I": 2, "K": 1, "T": SWEEP_ROUNDS,
                "runs": 10, "kernel_bytes": s * fedq.grids.N_ACTIONS * s * 8}


def _small_config(seed: int, d: int) -> fedq.ExperimentConfig:
    return fedq.ExperimentConfig(
        n_agents=50, local_epochs=1, rounds=20, eta=0.1, beta=0.8, gamma=GAMMA,
        compressor=fedq.CompressorSpec("top_k", k=5), mode=fedq.ERROR_FEEDBACK,
        master_seed=seed,
    )


def _rooms_config(seed: int, d: int) -> fedq.ExperimentConfig:
    return fedq.ExperimentConfig(
        n_agents=4, local_epochs=5, rounds=4, eta=0.1, beta=0.8, gamma=GAMMA,
        compressor=fedq.CompressorSpec("sparsified_k", k=d // 20), mode=fedq.DIRECT,
        master_seed=seed,
    )


WORKLOADS = {
    w.name: w
    for w in (
        RunWorkload(
            "small-ef-topk",
            "map5x5 S=25 d=100 I=50 K=1 T=20 kernel 20 KB, top-5 with error feedback: tiny table, "
            "so per-agent fixed costs (stream setup, top-k/EF/alpha, aggregation) dominate",
            "map5x5", _small_config, memory_bound=False),
        RunWorkload(
            "rooms-direct-sparse",
            "generated 33x33 four-rooms S=904 d=3616 I=4 K=5 T=4 kernel 26 MB, direct sparsified_k "
            "k=d/20: the dense SxAxS sampler and the oracle dominate",
            four_rooms_text, _rooms_config, memory_bound=True),
        SweepWorkload(),
    )
}
