import tracemalloc

import numpy as np
import pytest

import fedq
from fedq.errors import (
    EmptyMapError,
    GoalCountError,
    InvalidGammaError,
    ParamOutOfRangeError,
    RaggedRowsError,
    UnknownCharError,
)
from fedq.grids import ACTION_DELTAS, N_ACTIONS

UP, DOWN, LEFT, RIGHT = range(4)


def state_at(grid, r, c):
    """State index of cell (r, c) by counting open cells, or None for walls/off-grid."""
    if not (0 <= r < grid.rows and 0 <= c < grid.cols) or grid.cell(r, c) == "#":
        return None
    return sum(1 for ch in grid.cells[: r * grid.cols + c] if ch != "#")


def test_action_order():
    # (row, col) steps for up, down, left, right
    assert ACTION_DELTAS == ((-1, 0), (1, 0), (0, -1), (0, 1))


def test_parse_minimal_map():
    grid = fedq.parse_map("G.")
    assert (grid.rows, grid.cols) == (1, 2)
    assert grid.n_states == 2
    assert grid.goal_index == 0


def test_parse_excludes_walls_from_states():
    grid = fedq.parse_map("G#\n..")
    assert grid.n_states == 3
    assert grid.goal_index == 0
    # row-major over non-wall cells
    assert state_at(grid, 0, 0) == 0
    assert state_at(grid, 0, 1) is None
    assert state_at(grid, 1, 0) == 1
    assert state_at(grid, 1, 1) == 2


def test_parse_missing_goal():
    with pytest.raises(GoalCountError):
        fedq.parse_map("..\n..")


def test_parse_two_goals():
    with pytest.raises(GoalCountError):
        fedq.parse_map("GG")


def test_parse_ragged_rows():
    with pytest.raises(RaggedRowsError):
        fedq.parse_map("G.\n...")


def test_parse_unknown_char():
    with pytest.raises(UnknownCharError):
        fedq.parse_map("G.\n.x")


def test_parse_empty():
    with pytest.raises(EmptyMapError):
        fedq.parse_map("")


def test_build_two_cell_corridor():
    mdp = fedq.build_gridworld(fedq.parse_map("G."), gamma=0.8)
    # state 1, moving left reaches the goal and pays +1
    assert mdp.transition[1, LEFT, 0] == 1.0
    assert mdp.reward_mean[1, LEFT] == 1.0
    # moving right walks off the grid: stay, -1
    assert mdp.transition[1, RIGHT, 1] == 1.0
    assert mdp.reward_mean[1, RIGHT] == -1.0
    # the goal state is absorbing with zero reward
    for a in range(4):
        assert mdp.transition[0, a, 0] == 1.0
        assert mdp.reward_mean[0, a] == 0.0


def test_build_wall_behaves_like_boundary():
    mdp = fedq.build_gridworld(fedq.parse_map("G#\n.."), gamma=0.8)
    # state 0 is the goal; state 1 = (1,0), state 2 = (1,1)
    # moving up from (1,1) hits the wall: stay with -1
    assert mdp.transition[2, UP, 2] == 1.0
    assert mdp.reward_mean[2, UP] == -1.0
    # moving up from (1,0) reaches the goal
    assert mdp.transition[1, UP, 0] == 1.0
    assert mdp.reward_mean[1, UP] == 1.0


def test_build_invalid_gamma():
    grid = fedq.parse_map("G.")
    for gamma in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(InvalidGammaError):
            fedq.build_gridworld(grid, gamma=gamma)


def test_build_needs_a_grid_spec():
    # a map name is read by load_map, not built
    with pytest.raises(ParamOutOfRangeError, match="grid must be a GridSpec"):
        fedq.build_gridworld("map5x5")


def test_build_needs_a_noise_spec():
    with pytest.raises(ParamOutOfRangeError, match="noise must be a NoiseSpec"):
        fedq.build_gridworld(fedq.parse_map("G."), noise=None, gamma=0.8)


def test_r_max_includes_noise_clip():
    grid = fedq.parse_map("G.")
    mdp = fedq.build_gridworld(grid, noise=fedq.NoiseSpec(std=0.5, clip=0.5), gamma=0.8)
    assert mdp.r_max == 1.5


def test_bundled_maps_parse_and_build():
    expected_states = {
        "map5x5": 25,
        "map5x5w": 21,
        "map6x6w": 28,
        "map11x11": 121,
        "map17x17w": 200,
    }
    for name in fedq.BUNDLED_MAPS:
        grid = fedq.load_map(name)
        assert grid.n_states == expected_states[name]
        mdp = fedq.build_gridworld(grid, gamma=0.8)  # validates row-stochasticity
        assert mdp.n_states == expected_states[name]
        assert mdp.n_actions == 4


def test_open_maps_have_centered_goal():
    for name, center in (("map5x5", (2, 2)), ("map11x11", (5, 5))):
        grid = fedq.load_map(name)
        assert grid.cell(*center) == "G"


def test_state_positions_row_major(map5x5_grid):
    positions = map5x5_grid.state_positions()
    assert positions == sorted(positions)
    assert len(positions) == 25


def test_every_deterministic_successor_is_reachable(map5x5_grid, map5x5_mdp):
    # each one-hot row points at a cell the move actually lands on
    positions = map5x5_grid.state_positions()
    for s, (r, c) in enumerate(positions):
        for a, (dr, dc) in enumerate(((-1, 0), (1, 0), (0, -1), (0, 1))):
            dest = np.argmax(map5x5_mdp.transition[s, a])
            if s == map5x5_grid.goal_index:
                assert dest == s
            else:
                target = state_at(map5x5_grid, r + dr, c + dc)
                assert dest == (s if target is None else target)


@pytest.mark.parametrize("name", ["map99x99", np.zeros(3)], ids=["unknown name", "array"])
def test_unknown_bundled_name(name):
    # an array name raised numpy's ambiguous-truth ValueError
    with pytest.raises(KeyError, match="unknown bundled map"):
        fedq.map_path(name)


def test_build_memory_grows_with_table_not_kernel():
    # an open 40x40 room: the dense S x A x S kernel would take 82 MB
    size = 40
    rows = ["." * size] * size
    rows[size // 2] = "." * (size // 2) + "G" + "." * (size // 2 - 1)
    grid = fedq.parse_map("\n".join(rows))
    dense_bytes = grid.n_states * N_ACTIONS * grid.n_states * 8
    tracemalloc.start()
    try:
        fedq.build_gridworld(grid, gamma=0.8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 10
