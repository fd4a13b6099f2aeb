"""Discrete-time LTI plant with a steady-state Kalman filter.

The plant is x[t+1] = A x[t] + B u[t] + w[t], y[t] = C x[t] + v[t] with
w ~ N(0, Q) and v ~ N(0, R). The filter runs at its steady-state gain K,
and the estimation error e = x - x_hat obeys

    e[t+1] = A_K e[t] + W_K w[t] - K (a[t+1] - i[t+1] d[t+1]) - K v[t+1]

with A_K = A - K C A and W_K = 1 - K C, where a is the sensor injection, i
the alarm indicator and d the mitigation correction applied to the
measurement. The control input cancels from this recursion, which is what
lets the attack problem be posed on the error alone.

This module holds the model, the steady-state filter and the setpoint
law, all scalar like every command: the model is five floats, and it is
the one place that refuses a model of any other shape. The filter's
floats are computed in the order of operations of the matrix products
they once were, so every output keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError, solve_dare


class ModelError(ValueError):
    """Raised when a system description violates its structural contract."""


def _scalar(name: str, value) -> float:
    """A model entry as a float: a number, or the config's [[v]] form."""
    entry = np.asarray(value, dtype=float)
    if entry.shape not in ((), (1, 1)):
        raise ModelError(f"the model is scalar: {name} must be a number or "
                         f"[[v]], got shape {entry.shape}")
    x = entry.item()
    if not math.isfinite(x):
        raise ModelError(f"{name} must be finite, got {x}")
    return x


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Scalar plant and noise variances, each a float (given as a number
    or as [[v]]). Entries must be finite, Q >= 0 and R > 0, and B and C
    nonzero: (A, B) controllable and (C, A) observable."""

    A: float
    B: float
    C: float
    Q: float
    R: float

    def __post_init__(self):
        for name in "ABCQR":
            object.__setattr__(self, name, _scalar(name, getattr(self, name)))
        if self.Q < 0.0:
            raise ModelError(f"Q must be positive semidefinite, got {self.Q}")
        if self.R <= 0.0:
            raise ModelError(f"R must be positive definite, got {self.R}")
        if self.B == 0.0:
            raise ModelError("(A, B) is not controllable: B = 0")
        if self.C == 0.0:
            raise ModelError("(C, A) is not observable: C = 0")


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Steady-state filter quantities derived from a SystemModel, floats.

    P_inf: prediction error variance (Riccati fixed point)
    K:     filter gain P_inf C / (C P_inf C + R)
    P_r:   innovation variance C P_inf C + R, with its inverse
    A_K:   closed-loop error coefficient A - K C A
    W_K:   1 - K C
    P_e:   filtered error variance (1 - K C) P_inf
    """

    P_inf: float
    K: float
    P_r: float
    P_r_inv: float
    A_K: float
    W_K: float
    P_e: float


def derive_steady_state(model: SystemModel) -> SteadyState:
    try:
        P_inf = solve_dare(model.A, model.C, model.Q, model.R)
    except NumericsError as err:
        raise ModelError(f"steady-state filter does not exist: {err}") from err
    # each in the order of operations of its n-dimensional matrix product
    C = model.C
    P_r = C * P_inf * C + model.R
    P_r_inv = 1.0 / P_r
    K = P_inf * C * P_r_inv
    W_K = 1.0 - K * C
    return SteadyState(P_inf=P_inf, K=K, P_r=P_r, P_r_inv=P_r_inv,
                       A_K=model.A - K * C * model.A, W_K=W_K,
                       P_e=W_K * P_inf)


# ---------------------------------------------------------------------------
# Controllers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SetpointController:
    """u = alpha (x0 - x_hat) / B, alpha in (0, 1), drives the estimate
    from init (x0 if None) to x0 when A = 1. x0 and init are float arrays
    of shape (1,), the config's one-entry lists."""

    x0: np.ndarray
    alpha: float
    init: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ModelError(f"alpha must lie in (0, 1), got {self.alpha}")
        init = self.x0 if self.init is None else self.init
        for name, value in (("x0", self.x0), ("init", init)):
            value = np.asarray(value, dtype=float)
            if value.shape != (1,):
                raise ModelError(f"controller.{name} must have shape (1,), "
                                 f"got {value.shape}")
            object.__setattr__(self, name, value)


def setpoint_control(model: SystemModel, controller: SetpointController,
                     x_hat) -> np.ndarray:
    """Control inputs alpha (x0 - x_hat) / B for a float estimate or an
    array of them. This is the public control law and the tests' oracle:
    rollout_batch adds B u = alpha (x0 - x_hat) directly, without solving
    for u."""
    return controller.alpha * (controller.x0[0] - np.asarray(x_hat, float)) \
        / model.B
