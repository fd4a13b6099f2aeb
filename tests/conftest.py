"""Fixtures shared by the test modules."""

import warnings

import pytest

from fdisim.lti import SystemModel, derive_steady_state
from fdisim.mdp import (
    TruncationWarning,
    build_grid,
    build_transition_model,
    uniform_actions,
    value_iteration,
)


@pytest.fixture(scope="session")
def small_policy():
    """4-stage policy of the abstract benchmark system (A = C = Q = 1,
    R = 10, eta = 10) on a coarse 25-point grid over [-12, 12] with 21
    actions in [-20, 20]; lattice index 12 is e = 0."""
    model = SystemModel(A=1.0, B=1.0, C=1.0, Q=1.0, R=10.0)
    ss = derive_steady_state(model)
    grid = build_grid(-12.0, 12.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)  # tiny test grid
        tm = build_transition_model(model, ss, eta=10.0, grid=grid,
                                    actions=uniform_actions(20.0, 21))
    return value_iteration(tm, horizon=4)
