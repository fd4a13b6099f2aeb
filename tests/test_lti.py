"""Plant/filter core tests.

What is proven here:
  * derive_steady_state reproduces the scalar benchmark closed forms
    (P_inf = (1+sqrt(41))/2, K, P_r, P_e, A_K = W_K) and satisfies the
    stationary filtered-error identity P_e = A_K^2 P_e + W_K^2 Q + K^2 R.
  * Its floats equal, bit for bit, the matrix route it replaced (the
    fixed-point Riccati loop and the filter's products on 1x1 matrices,
    tests/reference.py) on both presets and on 1,000 seeded scalar
    systems.
  * The tests' scalar reference step (reference.error_step) matches its
    frozen examples, is affine in (e, w, v, a, delta) at fixed alarm, and
    agrees to 1e-10 with the error implied by one full
    plant/attack/mitigation/filter step, for random scalar systems and
    random controls (the control input cancels).
  * setpoint control contracts |x - x0| geometrically at rate (1 - alpha)
    in the noise-free loop and acts entry by entry on an array of
    estimates; a controller refuses alpha outside (0, 1) and starts the
    estimate at x0 without an init; a zero B, which the law divides by,
    is refused by the model as uncontrollable.
  * draw_noise's process and measurement blocks have the model's
    variances Q and R.
  * SystemModel is five floats; it refuses B = 0 (uncontrollable),
    C = 0 (unobservable), Q < 0, R <= 0 and non-finite entries (a NaN Q
    would otherwise spin the Riccati iteration). The config refuses any
    entry but a number or a one-entry list (tests/test_cli.py).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdisim.attack import AttackPlan
from fdisim.defense import DetectorConfig, MitigationStrategy
from fdisim.evaluation import draw_noise, rollout_batch
from fdisim.config import resolve_config
from fdisim.lti import (
    ModelError,
    SetpointController,
    SystemModel,
    derive_steady_state,
    setpoint_control,
)
from fdisim.numerics import RngStream
from reference import error_step, steady_state

P_INF = (1.0 + math.sqrt(41.0)) / 2.0
K_GAIN = P_INF / (P_INF + 10.0)


def scalar_benchmark() -> SystemModel:
    return SystemModel(A=1.0, B=1.0, C=1.0, Q=1.0, R=10.0)


def stable_model() -> SystemModel:
    return SystemModel(A=0.9, B=1.0, C=0.5, Q=0.3, R=2.0)


def test_steady_state_scalar_closed_forms():
    ss = derive_steady_state(scalar_benchmark())
    assert ss.P_inf == pytest.approx(P_INF, abs=1e-9)
    assert ss.K == pytest.approx(K_GAIN, abs=1e-10)
    assert ss.P_r == pytest.approx(P_INF + 10.0, abs=1e-9)
    assert ss.P_r_inv == pytest.approx(1.0 / (P_INF + 10.0), abs=1e-12)
    assert ss.A_K == pytest.approx(1.0 - K_GAIN, abs=1e-10)
    assert ss.W_K == pytest.approx(1.0 - K_GAIN, abs=1e-10)
    assert ss.P_e == pytest.approx((1.0 - K_GAIN) * P_INF, abs=1e-9)


@pytest.mark.parametrize("model_fn", [scalar_benchmark, stable_model])
def test_stationary_filtered_error_identity(model_fn):
    model = model_fn()
    ss = derive_steady_state(model)
    # P_e is the stationary variance of e' = A_K e + W_K w - K v
    rhs = (ss.A_K * ss.P_e * ss.A_K + ss.W_K * model.Q * ss.W_K
           + ss.K * model.R * ss.K)
    assert abs(ss.P_e - rhs) < 1e-9
    assert abs(ss.A_K) < 1.0


def _fields(ss):
    return (ss.P_inf, ss.K, ss.P_r, ss.P_r_inv, ss.A_K, ss.W_K, ss.P_e)


def test_steady_state_matches_the_matrix_route_bitwise():
    # every transition row and rollout is built from these floats, so they
    # must keep the bits of the matrix products they replaced
    models = [resolve_config(name).system_model()
              for name in ("benchmark", "voltage")]
    rng = np.random.default_rng(27)
    for _ in range(1000):
        A = rng.uniform(-1.5, 1.5)
        C = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 1.0)
        Q, R = 10.0 ** rng.uniform(-6.0, 4.0, size=2)
        models.append(SystemModel(A=A, B=1.0, C=C, Q=Q, R=R))
    for model in models:
        ss = derive_steady_state(model)
        key = (model.A, model.C, model.Q, model.R)
        assert _fields(ss) == steady_state(*key), key


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
    return SystemModel(A=rng.uniform(0.5, 1.2), B=rng.uniform(0.5, 2),
                       C=rng.uniform(0.5, 2.0), Q=rng.uniform(0.1, 2),
                       R=rng.uniform(0.5, 5.0))


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
        A, B, C, K = model.A, model.B, model.C, ss.K
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
    model = SystemModel(A=1.0, B=2.0, C=1.0, Q=0.0, R=1.0)
    x0, alpha = 0.835, 0.5
    ctrl = SetpointController(x0=x0, alpha=alpha)
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
            SetpointController(1.0, alpha)
    # without an init the estimate starts at the setpoint
    assert SetpointController(0.835, 0.5).init == 0.835
    assert SetpointController(0.835, 0.5, 1.0).init == 1.0


def test_rollout_refuses_a_controller_over_a_singular_B():
    # a scalar model with B = 0 is uncontrollable, so no rollout or
    # setpoint law, which divides by B, gets one
    for B in (0, 0.0, -0.0):
        with pytest.raises(ModelError, match="not controllable: B = 0"):
            SystemModel(A=1.0, B=B, C=1.0, Q=1.0, R=1.0)


def test_setpoint_control_acts_row_by_row():
    model = SystemModel(A=1.0, B=4.0, C=1.0, Q=1.0, R=1.0)
    ctrl = SetpointController(x0=0.5, alpha=0.3)
    x_hat = np.array([1.0, 0.5, -2.0])
    batch = setpoint_control(model, ctrl, x_hat)
    assert batch.shape == (3,)
    for row in range(3):
        assert batch[row] == setpoint_control(model, ctrl, x_hat[row])
        assert batch[row] == pytest.approx(0.3 * (0.5 - x_hat[row]) / 4.0,
                                           rel=1e-15)


def test_model_validation():
    good = dict(A=1.0, B=1.0, C=1.0, Q=1.0, R=1.0)
    for key, value, message in (
            ("C", 0.0, "not observable: C = 0"),
            ("R", 0.0, "R must be positive definite, got 0.0"),
            ("Q", -1e-300, "Q must be positive semidefinite, got -1e-300"),
            ("Q", np.nan, "Q must be finite, got nan"),
            ("A", np.inf, "A must be finite, got inf")):
        with pytest.raises(ModelError, match=message):
            SystemModel(**{**good, key: value})
    # ints and numpy floats become the same five floats
    model = SystemModel(A=0.9, B=np.float64(2.0), C=0.5, Q=0, R=3)
    assert (model.A, model.B, model.C, model.Q, model.R) == (
        0.9, 2.0, 0.5, 0.0, 3.0)
    assert all(type(getattr(model, key)) is float for key in "ABCQR")


def test_noise_covariances_respected():
    model = SystemModel(A=0.9, B=1.0, C=0.5, Q=0.3, R=2.0)
    ss = derive_steady_state(model)
    noise = draw_noise(model, ss, 4, 10_000, RngStream(5), False)
    batch = rollout_batch(model, ss, AttackPlan.none(), DetectorConfig(1.0),
                          MitigationStrategy.off(), T=4, noise=noise,
                          runs=10_000)
    w = noise.w[1:].ravel()  # 40,000 draws; t = 0 carries none
    assert abs(np.var(w, ddof=1) - model.Q) < 0.01
    v = noise.v[1:].ravel()
    assert abs(np.var(v, ddof=1) - model.R) < 0.05
    assert abs(np.corrcoef(w, v)[0, 1]) < 0.02  # drawn independently
    e0 = batch.e[:, 0]
    assert abs(np.var(e0, ddof=1) - ss.P_e) < 0.05 * ss.P_e
    assert np.all(noise.w[0] == 0.0) and np.all(noise.v[0] == 0.0)
