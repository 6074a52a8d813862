"""The range rules of ``fedq.errors`` raise one typed error at every boundary that applies them."""
import math

import numpy as np
import pytest

import fedq
from fedq.errors import InvalidGammaError, ParamOutOfRangeError
from tests.conftest import dense_mdp


def config(**overrides):
    base = dict(n_agents=1, local_epochs=1, rounds=1, eta=0.5, beta=0.5, gamma=0.8)
    return fedq.ExperimentConfig(**{**base, **overrides})


def bound_params(**overrides):
    base = dict(beta=0.8, eta=0.1, gamma=0.8, local_epochs=2, rounds=100, n_agents=10, delta=0.05,
                n_states=25, n_actions=4)
    return fedq.BoundParams(**{**base, **overrides})


# a boundary of each module that applies the interval rule to a real parameter
INTERVALS = {
    "ExperimentConfig eta": lambda mdp, value: config(eta=value),
    "value_iteration tol": lambda mdp, value: fedq.value_iteration(mdp, tol=value),
    "NoiseSpec std": lambda mdp, value: fedq.NoiseSpec(std=value),
}


@pytest.mark.parametrize("boundary", INTERVALS)
@pytest.mark.parametrize("value", [True, np.True_, np.array([0.5, 0.2]), np.array(0.5)],
                         ids=["bool", "numpy bool", "array", "0-d array"])
def test_interval_rule_rejects_bools_and_arrays(boundary, value, map5x5_mdp):
    # a bool would run as 1 and an array would escape as numpy's own "truth value" ValueError
    with pytest.raises(ParamOutOfRangeError, match="must be a real number"):
        INTERVALS[boundary](map5x5_mdp, value)


@pytest.mark.parametrize("build", [
    lambda gamma: dense_mdp(np.ones((1, 1, 1)), np.array([[0.0]]), gamma=gamma),
    lambda gamma: config(gamma=gamma),
    lambda gamma: bound_params(gamma=gamma),
], ids=["TabularMDP", "ExperimentConfig", "BoundParams"])
@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.3, 1.7, math.nan])
def test_gamma_rule_raises_one_error(build, gamma):
    with pytest.raises(InvalidGammaError, match="gamma"):
        build(gamma)
    build(0.8)
