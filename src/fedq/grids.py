"""Grid-world maps and the deterministic maze MDP built from them.

Map file format: UTF-8 text, one row per line, equal-length rows over the
alphabet ``.`` (empty), ``#`` (wall), ``G`` (goal, exactly one).  State
indices are assigned row-major over the non-wall cells, so walls are not
states.

Reward rules for the built MDP:

* moving into the goal cell yields mean reward +1;
* moving into a wall or off the grid leaves the state unchanged and
  yields mean reward -1;
* every other valid move yields mean reward 0;
* the goal state is absorbing: all of its actions self-loop with mean
  reward 0.

Transitions are deterministic; the only stochasticity of a noisy
grid-world is the clipped Gaussian reward noise.

Bundled maps (``fedq.grids.BUNDLED_MAPS``): map5x5 and map11x11 are open
rooms with a centered goal; map17x17w is a four-rooms maze; map5x5w and
map6x6w are small walled layouts.  The walled 5x5/6x6 layouts are
plausible hand-drawn mazes, not reproductions of any particular figure.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    EmptyMapError,
    GoalCountError,
    MapFormatError,
    ParamOutOfRangeError,
    RaggedRowsError,
    UnknownCharError,
    read_text,
)
from .mdp import NoiseSpec, TabularMDP

EMPTY, WALL, GOAL = ".", "#", "G"

# Action order: up, down, left, right.
ACTION_DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1))
N_ACTIONS = 4

BUNDLED_MAPS = ("map5x5", "map5x5w", "map6x6w", "map11x11", "map17x17w")


@dataclass(frozen=True)
class GridSpec:
    """Parsed grid: cell layout plus the row-major non-wall state indexing."""

    rows: int
    cols: int
    cells: tuple[str, ...]  # row-major, length rows * cols
    goal_index: int  # state index of the goal

    @property
    def n_states(self) -> int:
        return sum(1 for c in self.cells if c != WALL)

    def cell(self, r: int, c: int) -> str:
        return self.cells[r * self.cols + c]

    def state_positions(self) -> list[tuple[int, int]]:
        """(row, col) of each state, in state-index order."""
        return [
            (i // self.cols, i % self.cols)
            for i, ch in enumerate(self.cells)
            if ch != WALL
        ]


def parse_map(text: str) -> GridSpec:
    """Parse map text into a GridSpec.

    Raises EmptyMapError, RaggedRowsError, UnknownCharError or
    GoalCountError on malformed input.
    """
    lines = text.splitlines()
    if not lines or all(len(line) == 0 for line in lines):
        raise EmptyMapError("map has no rows")
    cols = len(lines[0])
    if any(len(line) != cols for line in lines):
        raise RaggedRowsError("map rows have unequal lengths")
    cells = "".join(lines)
    bad = sorted(set(cells) - {EMPTY, WALL, GOAL})
    if bad:
        raise UnknownCharError(f"unknown map characters: {bad}")
    n_goals = cells.count(GOAL)
    if n_goals != 1:
        raise GoalCountError(f"map must contain exactly one 'G', found {n_goals}")

    goal_state = 0
    for ch in cells:
        if ch == GOAL:
            break
        if ch != WALL:
            goal_state += 1
    return GridSpec(rows=len(lines), cols=cols, cells=tuple(cells), goal_index=goal_state)


def build_gridworld(grid: GridSpec, noise: NoiseSpec = NoiseSpec(), gamma: float = 0.8) -> TabularMDP:
    """Build the deterministic maze MDP for a parsed grid.

    Every move has exactly one successor, so the MDP is written directly
    as an (S * A, 1) successor table with probability 1; memory and time
    grow with S * A.  r_max is 1 + noise.clip so that every sampled reward
    magnitude is within the bound carried by the convergence analysis.
    A ``grid`` or ``noise`` of another type (a map name, say) raises ``ParamOutOfRangeError``.
    """
    if not isinstance(grid, GridSpec):
        raise ParamOutOfRangeError(f"grid must be a GridSpec, such as load_map returns, got {grid!r}")
    if not isinstance(noise, NoiseSpec):
        raise ParamOutOfRangeError(f"noise must be a NoiseSpec, got {noise!r}")
    open_cells = np.array(grid.cells).reshape(grid.rows, grid.cols) != WALL
    rows, cols = np.nonzero(open_cells)  # row-major: state order
    states = np.arange(rows.size)
    # state index per cell, with a border of -1 so off-grid moves read as walls
    index = np.full((grid.rows + 2, grid.cols + 2), -1)
    index[1:-1, 1:-1][open_cells] = states
    dest = np.stack([index[rows + 1 + dr, cols + 1 + dc] for dr, dc in ACTION_DELTAS], axis=1)

    blocked = dest < 0  # wall or off-grid: stay, pay the penalty
    succ = np.where(blocked, states[:, None], dest)
    reward_mean = np.where(blocked, -1.0, np.where(dest == grid.goal_index, 1.0, 0.0))
    succ[grid.goal_index] = grid.goal_index  # the goal absorbs, reward 0
    reward_mean[grid.goal_index] = 0.0

    return TabularMDP(
        succ=succ.reshape(-1, 1),
        succ_p=np.ones((succ.size, 1)),
        reward_mean=reward_mean,
        gamma=gamma,
        noise=noise,
        r_max=1.0 + noise.clip,
    )


def map_path(name: str) -> Path:
    """Filesystem path of a bundled map."""
    if not isinstance(name, str) or name not in BUNDLED_MAPS:
        raise KeyError(f"unknown bundled map {name!r}; choose from {BUNDLED_MAPS}")
    with resources.as_file(resources.files("fedq").joinpath(f"maps/{name}.txt")) as p:
        return Path(p)


def read_map_text(name_or_path: str | Path) -> str:
    """Text of a map given by bundled name (e.g. 'map5x5') or by file path.

    A file that is missing, unreadable (a directory, no permission) or not
    UTF-8 text raises MapFormatError naming the path.
    """
    bundled = isinstance(name_or_path, str) and name_or_path in BUNDLED_MAPS
    return read_text(map_path(name_or_path) if bundled else name_or_path, "map", MapFormatError)


def load_map(name_or_path: str | Path) -> GridSpec:
    """Load a map by bundled name (e.g. 'map5x5') or by file path."""
    return parse_map(read_map_text(name_or_path))
