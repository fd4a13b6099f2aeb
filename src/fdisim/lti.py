"""Discrete-time LTI plant with a steady-state Kalman filter.

The plant is x[t+1] = A x[t] + B u[t] + w[t], y[t] = C x[t] + v[t] with
w ~ N(0, Q) and v ~ N(0, R). The filter runs at its steady-state gain K,
and the estimation error e = x - x_hat obeys

    e[t+1] = A_K e[t] + W_K w[t] - K (a[t+1] - i[t+1] d[t+1]) - K v[t+1]

with A_K = A - K C A and W_K = I - K C, where a is the sensor injection, i
the alarm indicator and d the mitigation correction applied to the
measurement. The control input cancels from this recursion, which is what
lets the attack problem be posed on the error alone.

This module holds the model, the steady-state filter and the setpoint
law. The model and the filter take any dimension; the setpoint law runs
on the scalar loop (n = m = 1) that evaluation.rollout_batch simulates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError, check_covariance, solve_dare


class ModelError(ValueError):
    """Raised when a system description violates its structural contract."""


def _matrix(name: str, value, rows: int | None = None, cols: int | None = None):
    mat = np.atleast_2d(np.asarray(value, dtype=float))
    if mat.ndim != 2:
        raise ModelError(f"{name} must be a matrix, got ndim {mat.ndim}")
    if not np.all(np.isfinite(mat)):
        raise ModelError(f"{name} must have finite entries, got {mat.tolist()}")
    if rows is not None and mat.shape[0] != rows:
        raise ModelError(f"{name} has {mat.shape[0]} rows, expected {rows}")
    if cols is not None and mat.shape[1] != cols:
        raise ModelError(f"{name} has {mat.shape[1]} columns, expected {cols}")
    return mat


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Plant matrices and noise covariances; dimensions n states, p inputs,
    m measurements. Entries must be finite, Q and R must pass
    numerics.check_covariance (R positive definite; both checks are
    unit-free), and (A, B) controllable, (C, A) observable."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A = _matrix("A", self.A)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ModelError(f"A must be square, got {A.shape}")
        B = _matrix("B", self.B, rows=n)
        C = _matrix("C", self.C, cols=n)
        m = C.shape[0]
        Q = _matrix("Q", self.Q, rows=n, cols=n)
        R = _matrix("R", self.R, rows=m, cols=m)
        check_covariance("Q", Q, ModelError)
        check_covariance("R", R, ModelError, definite=True)

        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        if np.linalg.matrix_rank(ctrb) < n:
            raise ModelError(f"(A, B) is not controllable (rank "
                             f"{np.linalg.matrix_rank(ctrb)} < {n})")
        obsv = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])
        if np.linalg.matrix_rank(obsv) < n:
            raise ModelError(f"(C, A) is not observable (rank "
                             f"{np.linalg.matrix_rank(obsv)} < {n})")

        for name, val in (("A", A), ("B", B), ("C", C), ("Q", Q), ("R", R)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def m(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Steady-state filter quantities derived from a SystemModel.

    P_inf: prediction error covariance (Riccati fixed point)
    K:     filter gain P_inf C' (C P_inf C' + R)^-1
    P_r:   innovation covariance C P_inf C' + R, with cached inverse
    A_K:   closed-loop error matrix A - K C A
    W_K:   I - K C
    P_e:   filtered error covariance (I - K C) P_inf
    """

    P_inf: np.ndarray
    K: np.ndarray
    P_r: np.ndarray
    P_r_inv: np.ndarray
    A_K: np.ndarray
    W_K: np.ndarray
    P_e: np.ndarray


def derive_steady_state(model: SystemModel) -> SteadyState:
    try:
        P_inf = solve_dare(model.A, model.C, model.Q, model.R)
    except NumericsError as err:
        raise ModelError(f"steady-state filter does not exist: {err}") from err
    P_r = model.C @ P_inf @ model.C.T + model.R
    P_r_inv = np.linalg.inv(P_r)
    K = P_inf @ model.C.T @ P_r_inv
    W_K = np.eye(model.n) - K @ model.C
    A_K = model.A - K @ model.C @ model.A
    P_e = W_K @ P_inf
    P_e = 0.5 * (P_e + P_e.T)
    return SteadyState(P_inf=P_inf, K=K, P_r=P_r, P_r_inv=P_r_inv,
                       A_K=A_K, W_K=W_K, P_e=P_e)


# ---------------------------------------------------------------------------
# Controllers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SetpointController:
    """u = alpha * B^-1 (x0 - x_hat), alpha in (0, 1), drives the estimate
    from init (x0 if None; both float arrays) to x0 when A = I."""

    x0: np.ndarray
    alpha: float
    init: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ModelError(f"alpha must lie in (0, 1), got {self.alpha}")
        init = self.x0 if self.init is None else self.init
        for name, value in (("x0", self.x0), ("init", init)):
            object.__setattr__(self, name, np.asarray(value, dtype=float))


def check_setpoint(B: np.ndarray, controller: SetpointController,
                   error: type[Exception]) -> None:
    """Raise `error` unless the setpoint law runs on the scalar loop that
    the rollouts simulate: B of shape (1, 1) and nonzero, x0 and init of
    shape (1,)."""
    if B.shape != (1, 1):
        raise error(f"the setpoint controller runs on the scalar loop and "
                    f"needs a 1x1 model.B, got {B.shape}")
    if B[0, 0] == 0.0:
        raise error("model.B is singular; the setpoint controller cannot "
                    "invert it")
    for name in ("x0", "init"):
        if getattr(controller, name).shape != (1,):
            raise error(f"controller.{name} must have shape (1,), got "
                        f"{getattr(controller, name).shape}")


def setpoint_control(model: SystemModel, controller: SetpointController,
                     x_hat) -> np.ndarray:
    """Control inputs alpha (x0 - x_hat) / B for a float estimate or an
    array of them, on a model and controller that pass check_setpoint.
    This is the public control law and the tests' oracle: rollout_batch
    adds B u = alpha (x0 - x_hat) directly, without solving for u."""
    check_setpoint(model.B, controller, ModelError)
    return controller.alpha * (controller.x0[0] - np.asarray(x_hat, float)) \
        / model.B[0, 0]
