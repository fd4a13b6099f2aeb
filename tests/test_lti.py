"""Plant/filter core tests.

What is proven here:
  * derive_steady_state reproduces the scalar benchmark closed forms
    (P_inf = (1+sqrt(41))/2, K, P_r, P_e, A_K = W_K) and satisfies the
    stationary filtered-error identity P_e = A_K P_e A_K' + W_K Q W_K' +
    K R K' in 1-D and 2-D.
  * The tests' scalar reference step (reference.error_step) matches its
    frozen examples, is affine in (e, w, v, a, delta) at fixed alarm, and
    agrees to 1e-10 with the error implied by one full
    plant/attack/mitigation/filter step, for random scalar systems and
    random controls (the control input cancels).
  * setpoint control contracts |x - x0| geometrically at rate (1 - alpha)
    in the noise-free loop and acts entry by entry on an array of
    estimates; a controller refuses alpha outside (0, 1), and
    rollout_batch refuses a controller over a B that is not 1x1 before
    its first step; a zero B is refused by the model as uncontrollable
    and by the setpoint check.
  * rollout_batch's logged process and measurement noises have the
    model's variances Q and R.
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
    check_setpoint,
    derive_steady_state,
    setpoint_control,
)
from fdisim.numerics import RngStream
from reference import error_step

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
    e, _ = error_step(model, ss, e=1.0, w=0.0, v=0.0, a=10.0, alarm=0,
                      delta=0.0)
    assert e == pytest.approx((1.0 - K_GAIN) - K_GAIN * 10.0, abs=1e-10)
    # perfect mitigation on alarm: injection cancels entirely
    e, _ = error_step(model, ss, e=1.0, w=0.0, v=0.0, a=10.0, alarm=1,
                      delta=10.0)
    assert e == pytest.approx(1.0 - K_GAIN, abs=1e-10)


def scalar_model(rng) -> SystemModel:
    return SystemModel(A=[[rng.uniform(0.5, 1.2)]], B=[[rng.uniform(0.5, 2)]],
                       C=[[rng.uniform(0.5, 2.0)]], Q=[[rng.uniform(0.1, 2)]],
                       R=[[rng.uniform(0.5, 5.0)]])


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(-3.0, 3.0), alarm=st.integers(0, 1))
def test_error_step_is_affine(scale, alarm):
    rng = np.random.default_rng(3)
    model = scalar_model(rng)
    ss = derive_steady_state(model)
    one, two = rng.normal(size=5), rng.normal(size=5)  # (e, w, v, a, delta)
    lhs, _ = error_step(model, ss, *(one + scale * two)[:4], alarm,
                        (one + scale * two)[4])
    rhs = (error_step(model, ss, *one[:4], alarm, one[4])[0]
           + scale * error_step(model, ss, *two[:4], alarm, two[4])[0])
    assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("alarm", [0, 1])
def test_error_step_consistent_with_full_loop(alarm):
    """The error recursion must equal x' - x_hat' from the explicit loop,
    for any control input: run both routes and compare to 1e-10."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        model = scalar_model(rng)
        ss = derive_steady_state(model)
        A, B, C, K = (float(M[0, 0]) for M in (model.A, model.B, model.C,
                                               ss.K))
        x, x_hat, u, w, v = rng.normal(size=5)
        a, delta = rng.normal(size=2) * 5.0
        x_next = A * x + B * u + w
        y_f = C * x_next + v + a - alarm * delta
        pred = A * x_hat + B * u
        direct = x_next - (pred + K * (y_f - C * pred))
        via_recursion, _ = error_step(model, ss, x - x_hat, w, v, a, alarm,
                                      delta)
        assert abs(direct - via_recursion) < 1e-10


def test_setpoint_control_contracts_geometrically():
    model = SystemModel(A=[[1.0]], B=[[2.0]], C=[[1.0]], Q=[[0.0]],
                        R=[[1.0]])
    x0, alpha = 0.835, 0.5
    ctrl = SetpointController(x0=[x0], alpha=alpha)
    x = 1.0
    for _ in range(12):
        u = setpoint_control(model, ctrl, x)  # exact state knowledge
        x_next = x + 2.0 * u
        assert abs(x_next - x0) == pytest.approx((1.0 - alpha) * abs(x - x0),
                                                 rel=1e-9)
        x = x_next
    assert abs(x - x0) < 1e-3


def test_setpoint_control_contracts_enforced():
    for alpha in (0.0, 1.0, float("nan")):
        with pytest.raises(ModelError, match="alpha"):
            SetpointController([1.0], alpha)
    wide = SystemModel(A=[[1.0]], B=[[0.0, 1.0]], C=[[1.0]], Q=[[1.0]],
                       R=[[1.0]])  # two inputs drive the one state
    ctrl = SetpointController([1.0], 0.5)
    with pytest.raises(EvaluationError, match=r"1x1 model.B, got \(1, 2\)"):
        rollout_batch(wide, derive_steady_state(wide), AttackPlan.none(),
                      DetectorConfig(1.0), MitigationStrategy.off(), T=2,
                      stream=RngStream(1), runs=2, controller=ctrl)
    with pytest.raises(ModelError, match=r"1x1 model.B, got \(1, 2\)"):
        setpoint_control(wide, ctrl, 0.0)


def test_rollout_refuses_a_controller_over_a_singular_B():
    # a scalar model with B = 0 is uncontrollable, so no rollout gets one;
    # the setpoint check refuses it for the configs it runs on at load
    with pytest.raises(ModelError, match="controllable"):
        SystemModel(A=[[1.0]], B=[[0.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]])
    with pytest.raises(EvaluationError, match="model.B is singular"):
        check_setpoint(np.zeros((1, 1)), SetpointController([1.0], 0.5),
                       EvaluationError)


def test_setpoint_control_acts_row_by_row():
    model = SystemModel(A=[[1.0]], B=[[4.0]], C=[[1.0]], Q=[[1.0]],
                        R=[[1.0]])
    ctrl = SetpointController(x0=[0.5], alpha=0.3)
    x_hat = np.array([1.0, 0.5, -2.0])
    batch = setpoint_control(model, ctrl, x_hat)
    assert batch.shape == (3,)
    for row in range(3):
        assert batch[row] == setpoint_control(model, ctrl, x_hat[row])
        assert batch[row] == pytest.approx(0.3 * (0.5 - x_hat[row]) / 4.0,
                                           rel=1e-15)


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
    model = SystemModel(A=[[0.9]], B=[[1.0]], C=[[0.5]], Q=[[0.3]],
                        R=[[2.0]])
    ss = derive_steady_state(model)
    batch = rollout_batch(model, ss, AttackPlan.none(), DetectorConfig(1.0),
                          MitigationStrategy.off(), T=4,
                          stream=RngStream(5), runs=10_000)
    w = batch.w[:, 1:].ravel()  # 40,000 draws; t = 0 carries none
    assert abs(np.var(w, ddof=1) - model.Q[0, 0]) < 0.01
    v = batch.v[:, 1:].ravel()
    assert abs(np.var(v, ddof=1) - model.R[0, 0]) < 0.05
    assert abs(np.corrcoef(w, v)[0, 1]) < 0.02  # drawn independently
    e0 = batch.e[:, 0]
    assert abs(np.var(e0, ddof=1) - ss.P_e[0, 0]) < 0.05 * ss.P_e[0, 0]
    assert np.all(batch.w[:, 0] == 0.0) and np.all(batch.v[:, 0] == 0.0)
