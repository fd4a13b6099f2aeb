"""Detector and mitigation tests.

What is proven here:
  * g_statistic implements r P_r^-1 r (frozen scalar example
    g(r=10) = 100/13.7015...) with the bits of the quadratic form
    r' P_r^-1 r of one-entry vectors, and rollout_batch's alarms are the
    detector on it: the statistic of the innovation the loop forms from
    the error, CA e + C w + v + a, equals that of r = y_a - C(A x_hat +
    B u) against the one-step prediction.
  * detect alarms strictly above eta (boundary silent), handles eta = 0 and
    eta = inf, and vectorizes.
  * The no-attack alarm rate matches the closed form 2 Phi(-sqrt(eta))
    within 3 binomial std-errors at 1e5 steady-state draws.
  * mitigate, read through the defended signal y_f: on alarm, perfect
    subtracts the injection exactly, off nothing, and noisy the injection
    plus sigma times the pre-drawn noise block (perfect at sigma = 0);
    without an alarm every kind leaves the measurement as it is.  Arrays
    of alarms pair with the measurements entry by entry.
  * oracle_detect alarms exactly on nonzero injections, subnormal ones
    included.
  * Configuration contracts (negative eta, unknown kinds, stray sigma)
    raise.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from fdisim.attack import AttackPlan, attack_at
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
from fdisim.lti import (SetpointController, SystemModel, derive_steady_state,
                        setpoint_control)
from fdisim.numerics import RngStream

P_INF = (1.0 + math.sqrt(41.0)) / 2.0


@pytest.fixture(scope="module")
def bench():
    model = SystemModel(A=1.0, B=1.0, C=1.0, Q=1.0, R=10.0)
    return model, derive_steady_state(model)


def test_residual_formula(bench):
    # the tested statistic is r^2 / P_r with r = y_a - (x_hat + u) here
    # (A = B = C = 1), the innovation against the one-step prediction; the
    # attacked measurement is y_a = x + v + a, with the plant x = x_hat + e.
    # The loop forms r from the error as e[t-1] + w[t] + v[t] + a[t]; a and
    # u are rebuilt from the kept e and x_hat.
    model, ss = bench
    plan = AttackPlan.constant(4.0, a_max=20.0)
    ctrl = SetpointController(0.5, 0.5, init=2.0)
    batch = rollout_batch(model, ss, plan, DetectorConfig(10.0),
                          MitigationStrategy.perfect(), T=5,
                          stream=RngStream(9), runs=3, controller=ctrl)
    for t in range(1, 6):
        a = attack_at(plan, t, batch.e[:, t - 1])
        u = setpoint_control(model, ctrl, batch.x_hat[:, t - 1])
        g = g_statistic(ss, batch.e[:, t - 1] + batch.w[:, t]
                        + batch.v[:, t] + a)
        assert np.array_equal(batch.i[:, t], detect(DetectorConfig(10.0), g))
        y_a = batch.x[:, t] + batch.v[:, t] + a
        r = y_a - (batch.x_hat[:, t - 1] + u)
        assert np.allclose(g, r ** 2 / (P_INF + 10.0), rtol=1e-12, atol=0)
        assert np.any(u != 0.0)  # the control term is exercised


def test_g_statistic_frozen_example(bench):
    _, ss = bench
    g = g_statistic(ss, 10.0)
    assert g == pytest.approx(100.0 / (P_INF + 10.0), abs=1e-9)
    # vectorized over a batch of residuals
    gs = g_statistic(ss, np.array([10.0, 0.0, -10.0]))
    assert gs.shape == (3,)
    assert gs[0] == gs[2] and gs[1] == 0.0
    # the bits of the quadratic form of one-entry vectors
    r = np.random.default_rng(5).standard_normal(10_000) * 7.0
    form = np.einsum("...i,ij,...j->...", r[:, None], [[ss.P_r_inv]],
                     r[:, None])
    assert np.array_equal(g_statistic(ss, r), form)


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
    e = rng.normal(0.0, math.sqrt(ss.P_e), size=n)
    w = rng.normal(0.0, 1.0, size=n)
    v = rng.normal(0.0, math.sqrt(10.0), size=n)
    r = e + w + v  # C A e + C w + v with A = C = 1
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
    zero = np.zeros(2)  # on alarm y_f = 0 - delta = -delta exactly
    deltas = {MitigationStrategy.perfect(): a,
              MitigationStrategy.off(): zero,
              MitigationStrategy.noisy(0.0): a,
              MitigationStrategy.noisy(15.0): a + 15.0 * b}
    for strategy, delta in deltas.items():
        assert np.array_equal(mitigate(strategy, zero, a, 1, b), -delta)
        assert np.array_equal(mitigate(strategy, y_a, a, 0, b), y_a)


def test_apply_mitigation():
    y = np.array([5.0, 6.0])
    d = np.array([1.0, 2.0])
    b = np.zeros(2)
    perfect = MitigationStrategy.perfect()
    assert np.array_equal(mitigate(perfect, y, d, 0, b), y)
    assert np.array_equal(mitigate(perfect, y, d, 1, b),
                          np.array([4.0, 4.0]))
    # an array of alarms pairs with the measurements entry by entry
    alarms = np.array([False, True])
    assert np.array_equal(mitigate(perfect, y, d, alarms, b), [5.0, 4.0])
    assert np.array_equal(mitigate(perfect, y, 2.0, alarms, b), [5.0, 4.0])


def test_oracle_detect():
    assert not oracle_detect(0.0)
    assert oracle_detect(1e-300)
    out = oracle_detect(np.array([0.0, 2.0, -5e-324, -0.0]))
    assert out.tolist() == [False, True, True, False]


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
