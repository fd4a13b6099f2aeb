"""Plant/filter core tests.

What is proven here:
  * derive_steady_state reproduces the scalar benchmark closed forms
    (P_inf = (1+sqrt(41))/2, K, P_r, P_e, A_K = W_K) and satisfies the
    stationary filtered-error identity P_e = A_K P_e A_K' + W_K Q W_K' +
    K R K' in 1-D and 2-D.
  * error_step matches its frozen scalar examples, is affine in
    (e, w, v, a, delta) at fixed alarm, and agrees to 1e-10 with the error
    implied by one full plant/attack/mitigation/filter step, for random
    systems and random controls (the control input cancels).
  * setpoint control contracts |x - x0| geometrically at rate (1 - alpha)
    in the noise-free loop and acts row by row on a batch of estimates;
    a controller refuses alpha outside (0, 1), and rollout_batch refuses
    a controller over a non-square or a singular B before its first step.
  * rollout_batch's logged process and measurement noises have the
    model's covariances Q and R.
  * SystemModel rejects non-square A, uncontrollable (A, B), unobservable
    (C, A), indefinite covariances, mismatched shapes, and non-finite
    entries (a NaN Q would otherwise spin the Riccati iteration).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdisim.attack import AttackPlan
from fdisim.defense import DetectorConfig, MitigationStrategy
from fdisim.evaluation import EvaluationError, rollout_batch
from fdisim.lti import (
    ModelError,
    SetpointController,
    SystemModel,
    derive_steady_state,
    error_step,
    setpoint_control,
)
from fdisim.numerics import RngStream

P_INF = (1.0 + math.sqrt(41.0)) / 2.0
K_GAIN = P_INF / (P_INF + 10.0)


def scalar_benchmark() -> SystemModel:
    return SystemModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[10.0]])


def two_dim_model() -> SystemModel:
    return SystemModel(A=[[0.9, 0.2], [0.0, 0.8]], B=[[1.0], [0.5]],
                       C=[[1.0, 0.5]], Q=[[0.3, 0.1], [0.1, 0.4]], R=[[2.0]])


def test_steady_state_scalar_closed_forms():
    ss = derive_steady_state(scalar_benchmark())
    assert ss.P_inf[0, 0] == pytest.approx(P_INF, abs=1e-9)
    assert ss.K[0, 0] == pytest.approx(K_GAIN, abs=1e-10)
    assert ss.P_r[0, 0] == pytest.approx(P_INF + 10.0, abs=1e-9)
    assert ss.P_r_inv[0, 0] == pytest.approx(1.0 / (P_INF + 10.0), abs=1e-12)
    assert ss.A_K[0, 0] == pytest.approx(1.0 - K_GAIN, abs=1e-10)
    assert ss.W_K[0, 0] == pytest.approx(1.0 - K_GAIN, abs=1e-10)
    assert ss.P_e[0, 0] == pytest.approx((1.0 - K_GAIN) * P_INF, abs=1e-9)


@pytest.mark.parametrize("model_fn", [scalar_benchmark, two_dim_model])
def test_stationary_filtered_error_identity(model_fn):
    model = model_fn()
    ss = derive_steady_state(model)
    # P_e is the stationary covariance of e' = A_K e + W_K w - K v
    rhs = (ss.A_K @ ss.P_e @ ss.A_K.T + ss.W_K @ model.Q @ ss.W_K.T
           + ss.K @ model.R @ ss.K.T)
    assert np.max(np.abs(ss.P_e - rhs)) < 1e-9
    assert np.max(np.abs(np.linalg.eigvals(ss.A_K))) < 1.0


def test_error_step_frozen_examples():
    model = scalar_benchmark()
    ss = derive_steady_state(model)
    # missed detection: full injection enters through the gain
    e = error_step(model, ss, e=[1.0], w=[0.0], v=[0.0], a=[10.0], alarm=0,
                   delta=[0.0])
    assert e[0] == pytest.approx((1.0 - K_GAIN) - K_GAIN * 10.0, abs=1e-10)
    # perfect mitigation on alarm: injection cancels entirely
    e = error_step(model, ss, e=[1.0], w=[0.0], v=[0.0], a=[10.0], alarm=1,
                   delta=[10.0])
    assert e[0] == pytest.approx(1.0 - K_GAIN, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(-3.0, 3.0), alarm=st.integers(0, 1))
def test_error_step_is_affine(scale, alarm):
    model = two_dim_model()
    ss = derive_steady_state(model)
    rng = np.random.default_rng(3)
    e1, w1 = rng.normal(size=2), rng.normal(size=2)
    e2, w2 = rng.normal(size=2), rng.normal(size=2)
    v1, a1, d1 = rng.normal(size=1), rng.normal(size=1), rng.normal(size=1)
    v2, a2, d2 = rng.normal(size=1), rng.normal(size=1), rng.normal(size=1)
    lhs = error_step(model, ss, e1 + scale * e2, w1 + scale * w2,
                     v1 + scale * v2, a1 + scale * a2, alarm, d1 + scale * d2)
    rhs = (error_step(model, ss, e1, w1, v1, a1, alarm, d1)
           + scale * error_step(model, ss, e2, w2, v2, a2, alarm, d2))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("alarm", [0, 1])
def test_error_step_consistent_with_full_loop(alarm):
    """The error recursion must equal x' - x_hat' from the explicit loop,
    for any control input: run both routes and compare to 1e-10."""
    rng = np.random.default_rng(42)
    model = two_dim_model()
    ss = derive_steady_state(model)
    for _ in range(20):
        x = rng.normal(size=2)
        x_hat = rng.normal(size=2)
        u = rng.normal(size=1)
        w = rng.normal(size=2)
        v = rng.normal(size=1)
        a = rng.normal(size=1) * 5.0
        delta = rng.normal(size=1) * 5.0
        x_next = model.A @ x + model.B @ u.ravel() + w
        y_attacked = model.C @ x_next + v + a
        y_f = y_attacked - alarm * delta
        pred = model.A @ x_hat + model.B @ u
        x_hat_next = pred + ss.K @ (y_f - model.C @ pred)
        direct = x_next - x_hat_next
        via_recursion = error_step(model, ss, x - x_hat, w, v, a, alarm, delta)
        assert np.max(np.abs(direct - via_recursion)) < 1e-10


def test_setpoint_control_contracts_geometrically():
    model = SystemModel(A=np.eye(2), B=[[2.0, 0.0], [0.0, 4.0]], C=np.eye(2),
                        Q=np.zeros((2, 2)), R=np.eye(2))
    x0 = np.array([0.835, 0.9])
    alpha = 0.5
    ctrl = SetpointController(x0=x0, alpha=alpha)
    x = np.array([1.0, 1.0])
    for _ in range(12):
        u = setpoint_control(model, ctrl, x)  # exact state knowledge
        x_next = model.A @ x + model.B @ u
        assert np.max(np.abs(x_next - x0)) == pytest.approx(
            (1.0 - alpha) * np.max(np.abs(x - x0)), rel=1e-9)
        x = x_next
    assert np.max(np.abs(x - x0)) < 1e-3


def test_setpoint_control_contracts_enforced():
    for alpha in (0.0, 1.0, float("nan")):
        with pytest.raises(ModelError, match="alpha"):
            SetpointController([1.0], alpha)
    rect = two_dim_model()  # B is 2x1, not square
    with pytest.raises(EvaluationError, match="square B"):
        rollout_batch(rect, derive_steady_state(rect), AttackPlan.none(),
                      DetectorConfig(1.0), MitigationStrategy.off(), T=2,
                      stream=RngStream(1), runs=2,
                      controller=SetpointController([1.0, 1.0], 0.5))


def test_rollout_refuses_a_controller_over_a_singular_B():
    # (A, B) is controllable, so the model is valid; only u = alpha B^-1
    # (x0 - x_hat) cannot be formed
    model = SystemModel(A=[[1.0, 1.0], [0.0, 1.0]], B=[[0.0, 0.0], [0.0, 1.0]],
                        C=np.eye(2), Q=np.eye(2), R=np.eye(2))
    with pytest.raises(EvaluationError, match="singular"):
        rollout_batch(model, derive_steady_state(model),
                      AttackPlan.none(dim=2), DetectorConfig(1.0),
                      MitigationStrategy.off(), T=2, stream=RngStream(1),
                      runs=2, controller=SetpointController([1.0, 1.0], 0.5))


def test_setpoint_control_acts_row_by_row():
    square = SystemModel(A=np.eye(2), B=[[2.0, 0.0], [0.0, 4.0]],
                         C=np.eye(2), Q=np.eye(2), R=np.eye(2))
    ctrl = SetpointController(x0=[0.5, -1.0], alpha=0.3)
    x_hat = np.array([[1.0, 1.0], [0.5, -1.0], [-2.0, 3.0]])
    batch = setpoint_control(square, ctrl, x_hat)
    assert batch.shape == (3, 2)
    for row in range(3):
        assert np.allclose(batch[row], setpoint_control(square, ctrl,
                                                         x_hat[row]),
                           rtol=0, atol=1e-15)


def test_model_validation():
    with pytest.raises(ModelError):
        SystemModel(A=[[1.0, 0.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]])
    with pytest.raises(ModelError, match="controllable"):
        SystemModel(A=np.eye(2), B=[[1.0], [0.0]], C=np.eye(2),
                    Q=np.eye(2), R=np.eye(2))
    with pytest.raises(ModelError, match="observable"):
        SystemModel(A=np.diag([0.9, 0.8]), B=np.eye(2), C=[[1.0, 0.0]],
                    Q=np.eye(2), R=[[1.0]])
    with pytest.raises(ModelError):
        SystemModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[0.0]])
    with pytest.raises(ModelError, match="shape|rows|columns"):
        SystemModel(A=[[1.0]], B=[[1.0], [1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]])
    with pytest.raises(ModelError, match="Q must have finite entries"):
        SystemModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], Q=[[np.nan]], R=[[1.0]])
    model = scalar_benchmark()
    assert (model.n, model.p, model.m) == (1, 1, 1)


def test_noise_covariances_respected():
    model = two_dim_model()
    ss = derive_steady_state(model)
    batch = rollout_batch(model, ss, AttackPlan.none(), DetectorConfig(1.0),
                          MitigationStrategy.off(), T=4,
                          stream=RngStream(5), runs=10_000)
    w = batch.w[:, 1:].reshape(-1, 2)  # 40,000 draws; t = 0 carries none
    assert np.max(np.abs(np.cov(w.T) - model.Q)) < 0.02
    v = batch.v[:, 1:].ravel()
    assert abs(np.var(v, ddof=1) - model.R[0, 0]) < 0.05
    assert np.all(batch.w[:, 0] == 0.0) and np.all(batch.v[:, 0] == 0.0)
