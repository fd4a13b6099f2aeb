"""Detector and mitigation tests.

What is proven here:
  * g_statistic implements r' P_r^-1 r (frozen scalar example
    g(r=10) = 100/13.7015...), and rollout_batch logs it on the innovation
    r = y_a - C(A x_hat + B u) against the one-step prediction.
  * detect alarms strictly above eta (boundary silent), handles eta = 0 and
    eta = inf, and vectorizes.
  * The no-attack alarm rate matches the closed form 2 Phi(-sqrt(eta))
    within 3 binomial std-errors at 1e5 steady-state draws.
  * mitigate: perfect returns the injection exactly, off returns zero,
    noisy adds sigma times the pre-drawn noise block and reduces to perfect
    at sigma = 0; the noisy correction is formed whether or not an alarm
    fires, and is subtracted from the measurement only on alarm.
  * oracle_detect alarms exactly on nonzero injections.
  * Configuration contracts (negative eta, unknown kinds, stray sigma)
    raise.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from fdisim.attack import AttackPlan
from fdisim.defense import (
    DefenseError,
    DetectorConfig,
    MitigationStrategy,
    detect,
    g_statistic,
    mitigate,
    oracle_detect,
)
from fdisim.evaluation import rollout_batch
from fdisim.lti import SetpointController, SystemModel, derive_steady_state
from fdisim.numerics import RngStream

P_INF = (1.0 + math.sqrt(41.0)) / 2.0


@pytest.fixture(scope="module")
def bench():
    model = SystemModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[10.0]])
    return model, derive_steady_state(model)


def test_residual_formula(bench):
    # the logged statistic is r^2 / P_r with r = y_a - (x_hat + u) here
    # (A = B = C = 1), the innovation against the one-step prediction
    model, ss = bench
    batch = rollout_batch(model, ss, AttackPlan.constant([4.0], a_max=20.0),
                          DetectorConfig(10.0), MitigationStrategy.perfect(),
                          T=5, stream=RngStream(9), runs=3,
                          controller=SetpointController([0.5], 0.5),
                          x_hat0=[2.0])
    r = batch.y_a[:, 1:, 0] - (batch.x_hat[:, :-1, 0] + batch.u[:, :-1, 0])
    assert np.allclose(batch.g[:, 1:], r ** 2 / (P_INF + 10.0),
                       rtol=1e-12, atol=0)
    assert np.any(batch.u[:, :-1] != 0.0)  # the control term is exercised


def test_g_statistic_frozen_example(bench):
    _, ss = bench
    g = g_statistic(ss, np.array([10.0]))
    assert g == pytest.approx(100.0 / (P_INF + 10.0), abs=1e-9)
    # vectorized over a batch of residuals
    gs = g_statistic(ss, np.array([[10.0], [0.0], [-10.0]]))
    assert gs.shape == (3,)
    assert gs[0] == gs[2] and gs[1] == 0.0


def test_detect_boundary_and_extremes():
    det = DetectorConfig(eta=7.2984)
    assert detect(det, 7.2984) == 0  # boundary is silent
    assert detect(det, 7.2984 + 1e-9) == 1
    assert detect(DetectorConfig(eta=0.0), 1e-300) == 1
    assert detect(DetectorConfig(eta=np.inf), 1e300) == 0
    out = detect(det, np.array([0.0, 7.2984, 8.0]))
    assert out.tolist() == [0, 0, 1]


def test_no_attack_alarm_rate_matches_closed_form(bench):
    # steady-state innovation is N(0, P_r): P(g > eta) = 2 Phi(-sqrt(eta))
    model, ss = bench
    rng = np.random.default_rng(314)
    n = 100_000
    e = rng.normal(0.0, math.sqrt(ss.P_e[0, 0]), size=n)
    w = rng.normal(0.0, 1.0, size=n)
    v = rng.normal(0.0, math.sqrt(10.0), size=n)
    r = (e + w + v)[:, None]  # C A e + C w + v with A = C = 1
    g = g_statistic(ss, r)
    for eta in (1.0, 2.5):
        rate = float(np.mean(detect(DetectorConfig(eta), g)))
        exact = float(2.0 * ndtr(-math.sqrt(eta)))
        se = math.sqrt(exact * (1.0 - exact) / n)
        assert abs(rate - exact) < 3.0 * se, (eta, rate, exact)


def test_mitigation_signal_kinds():
    a = np.array([3.0, -4.0])
    y_a = np.array([5.0, 6.0])
    b = np.array([0.7, -1.3])  # a pre-drawn standard normal block
    for alarm in (0, 1):
        delta, _ = mitigate(MitigationStrategy.perfect(), y_a, a, alarm, b)
        assert np.array_equal(delta, a)
        delta, _ = mitigate(MitigationStrategy.off(), y_a, a, alarm, b)
        assert np.array_equal(delta, np.zeros(2))
        delta, _ = mitigate(MitigationStrategy.noisy(0.0), y_a, a, alarm, b)
        assert np.array_equal(delta, a)
        # the noisy correction draws on its block whether or not the alarm
        # fires, so paired systems stay on common random numbers
        delta, _ = mitigate(MitigationStrategy.noisy(15.0), y_a, a, alarm, b)
        assert np.array_equal(delta, a + 15.0 * b)
    perfect, _ = mitigate(MitigationStrategy.perfect(), y_a, a, 1, b)
    assert perfect is not a  # the logged correction is not an alias


def test_apply_mitigation():
    y = np.array([5.0, 6.0])
    d = np.array([1.0, 2.0])
    b = np.zeros(2)
    perfect = MitigationStrategy.perfect()
    assert np.array_equal(mitigate(perfect, y, d, 0, b)[1], y)
    assert np.array_equal(mitigate(perfect, y, d, 1, b)[1],
                          np.array([4.0, 4.0]))
    # batched alarms broadcast rowwise
    ys = np.tile(y, (3, 1))
    alarms = np.array([0, 1, 0])
    _, out = mitigate(perfect, ys, np.tile(d, (3, 1)), alarms,
                      np.zeros((3, 2)))
    assert np.array_equal(out[0], y) and np.array_equal(out[2], y)
    assert np.array_equal(out[1], np.array([4.0, 4.0]))


def test_oracle_detect():
    assert oracle_detect(np.zeros(2)) == 0
    assert oracle_detect(np.array([0.0, 1e-300])) == 1
    assert oracle_detect(np.array([[0.0], [2.0]])).tolist() == [0, 1]


def test_configuration_contracts():
    with pytest.raises(DefenseError):
        DetectorConfig(eta=-1.0)
    with pytest.raises(DefenseError):
        MitigationStrategy("adaptive")
    with pytest.raises(DefenseError):
        MitigationStrategy("perfect", sigma_mit=5.0)
    with pytest.raises(DefenseError):
        MitigationStrategy.noisy(-1.0)
    assert DetectorConfig(eta=np.inf).eta == np.inf
