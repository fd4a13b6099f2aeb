"""Rollout and cost-report tests.

What is proven here:
  * Rollouts are bit-identical when replayed on a new draw of the same
    stream and differ on another stream.
  * Rollout invariants: x = x_hat + e exactly, and x and x_hat are None
    without a controller; each logged e[t] is reproduced by the tests'
    scalar reference step (reference.error_step) from the kept inputs,
    with the injection rebuilt by attack_at from e[t-1] and delta from it
    and the pre-drawn mitigation block (the loop really implements the
    stated error recursion).
  * Bitwise oracle: a small batch equals the reference step run by run
    and step by step with ==, in e, the alarms, the cost sums, x_hat and
    x, under perfect, noisy and off mitigation, the oracle detector, a
    policy plan and a controller; e[0], w, v and the mitigation block are
    the stream's (W, T) draws in their [run, t] order, scaled by the
    standard deviations, so the run and time axes cannot be mixed up.
  * The alarms are the detector on the rebuilt innovation's statistic,
    and the plant follows x[t] = A x[t-1] + B u + w[t] with u rebuilt by
    setpoint_control from x_hat[t-1].
  * With no attack and the detector disabled, the cost curve grows at
    slope ~ trace(P_e) = P_inf (1 - K) ~= 2.70 (5% at W=10000).
  * empirical_cost is the plain arithmetic of per-run cumulative sums,
    W=1 gives zero standard errors, zero error gives a zero curve.
  * Comparing a plan with itself under common random numbers gives
    bit-identical reports.
  * Noisy mitigation draws its N(0, sigma^2) corrections on every step,
    alarm or not, so detector settings share every random input.
  * Perfect mitigation at eta=0 cancels a constant attack: the attacked
    error and estimate paths equal the unattacked ones to rounding.
  * fp_cost is exactly zero under perfect mitigation and at eta=inf;
    md_cost is exactly zero at eta=0 under an always-injecting plan (a
    constant or a policy's nominal sequence) and rejects the no-attack plan.
  * A policy plan shorter than the horizon is rejected; so is a sequence
    plan.  The config refuses an x0 or init of more than one entry
    before any controller is built, and a controller without an init
    starts the estimate at its setpoint x0.
  * empirical_cost adds the runs in order: at 257 runs it equals the
    reductions taken on C-ordered copies of the batch, bit for bit, and
    the batch's cost sums are C-ordered themselves.
  * The batch's cost sums equal the cumsum over t of the squared errors
    bit for bit (with and without a controller, tested and oracle
    batches, 257 runs), and the bool alarms give the same detection
    frequency as int64 ones.
  * A batch allocates no full history beyond what it keeps: one
    W = 10,000, T = 10 batch peaks (tracemalloc) within the kept bytes
    plus 16 W-vectors.
  * draw_noise takes the noise variances' square roots once: one draw
    takes three (P_e, Q, R), and the batches run on it take none.  A P_e
    that rounds to a tiny negative (R negligible against C^2 P_inf)
    scales e[0] by 0.
  * A Noise is read-only and shared by value: writing to any of its
    arrays raises, and batches of several plans and strategies handed one
    Noise leave it unchanged and equal the same batches each run on its
    own draw of the stream.  A perfect and a noisy draw of one stream
    give equal e0, w and v; only the noisy one has b, the stream's fourth
    block.  draw_noise refuses a horizon or run count below 1, and
    rollout_batch refuses a noise of another (T, runs) and a noisy
    strategy on a noise without b, each with one EvaluationError.
"""

import math
import tracemalloc
import types

import numpy as np
import pytest

from fdisim import evaluation
from fdisim.attack import AttackPlan, attack_at
from fdisim.config import ConfigError, from_mapping
from fdisim.defense import (DetectorConfig, MitigationStrategy, detect,
                            g_statistic)
from fdisim.evaluation import (
    EvaluationError,
    Noise,
    compare_attacks,
    draw_noise,
    empirical_cost,
    fp_cost,
    md_cost,
    rollout_batch,
)
from fdisim.lti import (SetpointController, SystemModel,
                        derive_steady_state, setpoint_control)
from fdisim.numerics import RngStream
from reference import error_step, estimate_step

P_INF = (1.0 + math.sqrt(41.0)) / 2.0
K_GAIN = P_INF / (P_INF + 10.0)
TRACE_P_E = P_INF * (1.0 - K_GAIN)  # = 2.7015621187164243
FIELDS = ("e", "i", "cost_sums", "x", "x_hat")


@pytest.fixture(scope="module")
def bench():
    model = SystemModel(A=1.0, B=1.0, C=1.0, Q=1.0, R=10.0)
    return model, derive_steady_state(model)


def _draw(bench, T, runs, stream, noisy=True):
    """The stream's noise for `runs` loops of length T on bench's model;
    its w, v and b read [run, t] as .w.T, .v.T and .b.T, and a noisy
    correction is delta = a + sigma_mit * b."""
    return draw_noise(*bench, T, runs, stream, noisy)


def _replay(batch, noise, model, ss, plan):
    """The injections a and test statistics g the loop used, as [run, t]
    arrays that are zero at t = 0, rebuilt from the kept e and the noise's
    w and v."""
    W, T = batch.runs, batch.horizon
    a = np.zeros((W, T + 1))
    g = np.zeros((W, T + 1))
    C, CA = model.C, model.C * model.A
    for t in range(1, T + 1):
        a[:, t] = attack_at(plan, t, batch.e[:, t - 1],
                            stage_remaining=T - t + 1)
        r = batch.e[:, t - 1] * CA + noise.w[t] * C + noise.v[t] + a[:, t]
        g[:, t] = g_statistic(ss, r)
    return a, g


def test_rollout_reproducible_and_matches_batch(bench):
    model, ss = bench
    args = (model, ss, AttackPlan.constant(4.0, a_max=20.0),
            DetectorConfig(10.0), MitigationStrategy.noisy(5.0), 8)
    noises = [_draw(bench, 8, 1, RngStream(7, 3)) for _ in range(2)]
    for name, first, second in zip(Noise._fields, *noises):
        assert np.array_equal(first, second), name
    tr1 = rollout_batch(*args, noises[0], runs=1)
    tr2 = rollout_batch(*args, noises[1], runs=1)
    for name in FIELDS:
        assert np.array_equal(getattr(tr1, name), getattr(tr2, name)), name
    tr3 = rollout_batch(*args, _draw(bench, 8, 1, RngStream(8, 3)), runs=1)
    assert not np.array_equal(tr1.e, tr3.e)


def test_trajectory_invariants_and_error_recursion(bench):
    model, ss = bench
    plan = AttackPlan.ramp(1.0, a_max=20.0)
    noise = _draw(bench, 12, 1, RngStream(42))
    batch = rollout_batch(model, ss, plan, DetectorConfig(2.0),
                          MitigationStrategy.noisy(3.0), 12, noise, runs=1)
    assert batch.runs == 1 and batch.horizon == 12
    assert batch.x is None and batch.x_hat is None
    a, g = _replay(batch, noise, model, ss, plan)
    assert np.array_equal(batch.i[:, 1:], detect(DetectorConfig(2.0), g[:, 1:]))
    delta = a + 3.0 * noise.b.T
    tr = {"i": batch.i[0], "e": batch.e[0], "w": noise.w[:, 0],
          "v": noise.v[:, 0]}
    tr["a"], tr["delta"] = a[0], delta[0]
    assert tr["i"][0] == 0
    assert 0 < tr["i"][1:].sum() < 12  # both recursion branches run
    for t in range(1, 13):
        e_step, _ = error_step(model, ss, tr["e"][t - 1], tr["w"][t],
                               tr["v"][t], tr["a"][t], int(tr["i"][t]),
                               tr["delta"][t])
        assert e_step == tr["e"][t], t


def test_no_attack_cost_slope_matches_stationary_error(bench):
    model, ss = bench
    batch = rollout_batch(model, ss, AttackPlan.none(),
                          DetectorConfig(np.inf), MitigationStrategy.off(),
                          T=10, noise=_draw(bench, 10, 10_000, RngStream(11),
                                            noisy=False), runs=10_000)
    report = empirical_cost(batch)
    assert report.runs == 10_000
    slope = report.cost_per_t[-1] / 10.0
    assert abs(slope - TRACE_P_E) / TRACE_P_E < 0.05
    increments = np.diff(report.cost_per_t)
    assert np.all(increments > 0.0)
    assert np.all(report.cost_per_t >= 0.0)


def test_empirical_cost_arithmetic(bench):
    model, ss = bench
    batch = rollout_batch(*(*bench, AttackPlan.constant(6.0, a_max=20.0),
                            DetectorConfig(5.0), MitigationStrategy.perfect()),
                          T=5, noise=_draw(bench, 5, 4, RngStream(3)), runs=4)
    report = empirical_cost(batch)
    sums = np.cumsum(batch.e[:, 1:] ** 2, axis=1)
    assert np.allclose(report.cost_per_t, sums.mean(axis=0), rtol=0, atol=0)
    assert np.allclose(report.std_err_per_t,
                       sums.std(axis=0, ddof=1) / 2.0, rtol=0, atol=0)
    assert report.horizon == 5
    assert report.terminal_cost == report.cost_per_t[-1]

    one = rollout_batch(*(*bench, AttackPlan.constant(6.0, a_max=20.0),
                          DetectorConfig(5.0), MitigationStrategy.perfect()),
                        T=5, noise=_draw(bench, 5, 1, RngStream(3)), runs=1)
    single = empirical_cost(one)
    assert np.array_equal(single.cost_per_t,
                          np.cumsum(one.e[0, 1:] ** 2))
    assert single.runs == 1 and np.all(single.std_err_per_t == 0.0)


def test_empirical_cost_adds_runs_in_order(bench):
    # numpy sums a contiguous axis pairwise, which from 8 runs up can differ
    # in the last bits from adding the runs one after another
    runs = 257
    batch = rollout_batch(*bench, AttackPlan.ramp(1.0, a_max=20.0),
                          DetectorConfig(5.0), MitigationStrategy.noisy(3.0),
                          T=12, noise=_draw(bench, 12, runs, RngStream(13)),
                          runs=runs)
    assert batch.cost_sums.flags.c_contiguous
    report = empirical_cost(batch)
    e = np.ascontiguousarray(batch.e)
    sums = np.cumsum(e[:, 1:] ** 2, axis=1)
    assert sums.flags.c_contiguous
    assert np.array_equal(report.cost_per_t, sums.mean(axis=0))
    assert np.array_equal(report.std_err_per_t,
                          sums.std(axis=0, ddof=1) / np.sqrt(runs))


def test_compare_attacks_common_random_numbers(bench):
    model, ss = bench
    plans = [AttackPlan.none(), AttackPlan.none()]
    r1, r2 = compare_attacks(model, ss, plans, DetectorConfig(5.0),
                             MitigationStrategy.perfect(), T=6, runs=50,
                             noise=_draw(bench, 6, 50, RngStream(19)))
    assert np.array_equal(r1.cost_per_t, r2.cost_per_t)
    assert np.array_equal(r1.std_err_per_t, r2.std_err_per_t)
    with pytest.raises(EvaluationError):
        compare_attacks(model, ss, [], DetectorConfig(5.0),
                        MitigationStrategy.perfect(), T=6, runs=10,
                        noise=_draw(bench, 6, 10, RngStream(19)))


def test_perfect_mitigation_at_eta_zero_cancels_attack(bench):
    # eta=0 alarms on every step; delta = a subtracts the injection before
    # the filter sees it, so the attacked run matches the clean run up to
    # the rounding of (r + a) - a.
    model, ss = bench
    kwargs = dict(T=10, noise=_draw(bench, 10, 20, RngStream(23)), runs=20,
                  controller=SetpointController(0.5, 0.5, init=2.0))
    attacked = rollout_batch(model, ss,
                             AttackPlan.constant(10.0, a_max=20.0),
                             DetectorConfig(0.0),
                             MitigationStrategy.perfect(), **kwargs)
    clean = rollout_batch(model, ss, AttackPlan.none(), DetectorConfig(0.0),
                          MitigationStrategy.perfect(), **kwargs)
    assert np.max(np.abs(attacked.e - clean.e)) < 1e-12
    assert np.max(np.abs(attacked.x_hat - clean.x_hat)) < 1e-12
    assert np.all(attacked.i[:, 1:] == 1)


def test_noisy_mitigation_draws_consumed_every_step(bench):
    # the mitigation block is pre-drawn whether or not alarms fire, so one
    # noise serves every detector setting
    model, ss = bench
    plan = AttackPlan.constant(10.0, a_max=20.0)
    noise = _draw(bench, 6, 8, RngStream(31))
    kwargs = dict(T=6, noise=noise, runs=8)
    loose = rollout_batch(model, ss, plan, DetectorConfig(np.inf),
                          MitigationStrategy.noisy(15.0), **kwargs)
    tight = rollout_batch(model, ss, plan, DetectorConfig(0.0),
                          MitigationStrategy.noisy(15.0), **kwargs)
    assert np.array_equal(loose.e[:, 0], tight.e[:, 0])
    assert np.all(loose.i[:, 1:] == 0) and np.all(tight.i[:, 1:] == 1)
    # every alarmed step of the tight run subtracts delta = a + sigma * b
    # with b the block's own entry for that run and step
    a, _ = _replay(tight, noise, model, ss, plan)
    delta = a + 15.0 * noise.b.T
    for run in range(8):
        for t in range(1, 7):
            e_step, _ = error_step(model, ss, tight.e[run, t - 1],
                                   noise.w[t, run], noise.v[t, run],
                                   a[run, t], 1, delta[run, t])
            assert e_step == tight.e[run, t], (run, t)
    # the corrections are the injection plus N(0, sigma^2) noise: with
    # A = C = 1 and every step alarmed, e[t] = e[t-1] + w - K (r - delta)
    # and r = e[t-1] + w + v + a give delta back from the logged signals
    noise = _draw(bench, 5, 4_000, RngStream(7))
    wide = rollout_batch(model, ss, plan, DetectorConfig(0.0),
                         MitigationStrategy.noisy(15.0), T=5, runs=4_000,
                         noise=noise)
    a, _ = _replay(wide, noise, model, ss, plan)
    e, w, v = wide.e, noise.w.T, noise.v.T
    r = e[:, :-1] + w[:, 1:] + v[:, 1:] + a[:, 1:]
    delta = r + (e[:, 1:] - e[:, :-1] - w[:, 1:]) / ss.K
    noise = (delta - a[:, 1:]).ravel()  # 20,000 draws
    assert abs(noise.mean()) < 0.35
    assert abs(noise.std(ddof=1) - 15.0) < 0.3


def test_fp_cost_zero_cases(bench):
    model, ss = bench
    noise = _draw(bench, 8, 200, RngStream(41))
    pc = fp_cost(model, ss, eta=1.0, strategy=MitigationStrategy.perfect(),
                 T=8, runs=200, noise=noise)
    assert pc.value == 0.0 and pc.std_error == 0.0
    pc_inf = fp_cost(model, ss, eta=np.inf,
                     strategy=MitigationStrategy.noisy(15.0), T=8, runs=200,
                     noise=noise)
    assert pc_inf.value == 0.0
    pc_noisy = fp_cost(model, ss, eta=0.0,
                       strategy=MitigationStrategy.noisy(15.0), T=8,
                       runs=500, noise=_draw(bench, 8, 500, RngStream(41)))
    assert pc_noisy.value > 0.0  # constant false alarms inject noise


def test_md_cost_zero_at_eta_zero(bench, small_policy):
    model, ss = bench
    plan = AttackPlan.constant(10.0, a_max=20.0)
    pc = md_cost(model, ss, eta=0.0, strategy=MitigationStrategy.noisy(15.0),
                 plan=plan, T=8, runs=200,
                 noise=_draw(bench, 8, 200, RngStream(43)))
    # both systems alarm on every (always-injecting) step and share noise
    assert pc.value == 0.0 and pc.std_error == 0.0
    pc_high = md_cost(model, ss, eta=20.0,
                      strategy=MitigationStrategy.perfect(), plan=plan, T=8,
                      runs=500, noise=_draw(bench, 8, 500, RngStream(43)))
    assert pc_high.value > 0.0  # missed detections leave injections active
    nominal = AttackPlan.nominal(small_policy, 4)
    assert np.all(nominal.values != 0.0)  # injects at every step
    pc_seq = md_cost(model, ss, eta=0.0,
                     strategy=MitigationStrategy.noisy(15.0), plan=nominal,
                     T=4, runs=200, noise=_draw(bench, 4, 200, RngStream(43)))
    assert pc_seq.value == 0.0 and pc_seq.std_error == 0.0
    with pytest.raises(EvaluationError):
        md_cost(model, ss, eta=1.0, strategy=MitigationStrategy.perfect(),
                plan=AttackPlan.none(), T=8, runs=10,
                noise=_draw(bench, 8, 10, RngStream(43)))


def test_rollout_contract_checks(bench):
    with pytest.raises(EvaluationError, match="horizon must be >= 1"):
        _draw(bench, 0, 5, RngStream(1))
    with pytest.raises(EvaluationError, match="runs must be >= 1"):
        _draw(bench, 5, 0, RngStream(1))


def test_noise_of_another_shape_or_without_b_is_refused(bench):
    model, ss = bench
    plan, detector = AttackPlan.constant(4.0), DetectorConfig(1.0)
    noise = _draw(bench, 5, 4, RngStream(1), noisy=False)
    for T, runs in ((4, 4), (6, 4), (5, 3), (5, 5)):
        with pytest.raises(EvaluationError) as info:
            rollout_batch(model, ss, plan, detector,
                          MitigationStrategy.off(), T, noise, runs)
        assert str(info.value) == (
            f"the noise was drawn for T = 5 and 4 runs, but the batch has "
            f"T = {T} and {runs} runs")
    with pytest.raises(EvaluationError) as info:
        rollout_batch(model, ss, plan, detector,
                      MitigationStrategy.noisy(5.0), 5, noise, 4)
    assert "\n" not in str(info.value)
    assert str(info.value).startswith("noisy mitigation needs a noise drawn")
    for strategy in (MitigationStrategy.perfect(), MitigationStrategy.off()):
        rollout_batch(model, ss, plan, detector, strategy, 5, noise, 4)


def test_rollout_refuses_a_setpoint_of_another_shape(bench):
    # one setpoint entry for the one state: a longer one would broadcast
    # silently, so the config refuses it before any controller or rollout
    # is built
    model, ss = bench
    good = (DetectorConfig(1.0), MitigationStrategy.off())
    for controller, path in (({"x0": [0.5, 0.5]}, r"controller\.x0"),
                             ({"x0": 0.5, "init": [[0.5, 0.5]]},
                              r"controller\.init\[0\]"),
                             ({"x0": 0.5, "init": [1.0, 2.0]},
                              r"controller\.init")):
        with pytest.raises(ConfigError, match=rf"{path} must be a scalar"):
            from_mapping({"controller": controller})
    batch = rollout_batch(model, ss, AttackPlan.none(), *good, T=3,
                          noise=_draw(bench, 3, 4, RngStream(1)), runs=4,
                          controller=SetpointController(0.5, 0.5))
    assert batch.x.shape == (4, 4)


def test_short_policy_plan_rejected(bench, small_policy):
    model, ss = bench
    plan = AttackPlan.from_policy(small_policy)  # 4 stages
    noise = _draw(bench, 5, 3, RngStream(2))
    with pytest.raises(EvaluationError):
        rollout_batch(model, ss, plan, DetectorConfig(10.0),
                      MitigationStrategy.perfect(), T=5, noise=noise, runs=3)
    with pytest.raises(EvaluationError):
        rollout_batch(model, ss, AttackPlan.nominal(small_policy, 4),
                      DetectorConfig(10.0), MitigationStrategy.perfect(),
                      T=5, noise=noise, runs=3)
    batch = rollout_batch(model, ss, plan, DetectorConfig(10.0),
                          MitigationStrategy.perfect(), T=4,
                          noise=_draw(bench, 4, 3, RngStream(2)), runs=3)
    assert batch.horizon == 4


def test_controller_without_init_starts_the_estimate_at_x0(bench):
    model, ss = bench
    batch = rollout_batch(model, ss, AttackPlan.none(), DetectorConfig(5.0),
                          MitigationStrategy.perfect(), T=3,
                          noise=_draw(bench, 3, 4, RngStream(78)), runs=4,
                          controller=SetpointController(0.835, 0.5))
    assert np.array_equal(batch.x_hat[:, 0], np.full(4, 0.835))
    assert np.array_equal(batch.x[:, 0], batch.x_hat[:, 0] + batch.e[:, 0])


def test_controller_batch_matches_scalar_path(bench):
    model, ss = bench
    ctrl = SetpointController(x0=0.835, alpha=0.5, init=1.0)
    noise = _draw(bench, 4, 6, RngStream(77))
    batch = rollout_batch(model, ss, AttackPlan.none(), DetectorConfig(5.0),
                          MitigationStrategy.perfect(), T=4, noise=noise,
                          runs=6, controller=ctrl)
    # u = alpha (x0 - x_hat) / B at every t = 0..T, the control law on
    # the (W,) row of estimates equal to the scalar formula
    for t in range(5):
        u = setpoint_control(model, ctrl, batch.x_hat[:, t])
        for run in range(6):
            u_ref = 0.5 * (0.835 - batch.x_hat[run, t]) / model.B
            assert u[run] == pytest.approx(u_ref, rel=0, abs=1e-14)
            if t < 4:  # and the plant moved under it
                x_step = batch.x[run, t] + u_ref + noise.w[t + 1, run]
                assert batch.x[run, t + 1] == pytest.approx(x_step, rel=0,
                                                            abs=1e-14)
    # the mean estimate contracts towards the setpoint
    d0 = abs(batch.x_hat[:, 0].mean() - 0.835)
    dT = abs(batch.x_hat[:, 4].mean() - 0.835)
    assert dT < d0


def test_batches_handed_one_noise_share_it_read_only(bench, small_policy):
    model, ss = bench
    noise = _draw(bench, 4, 5, RngStream(61))
    for name, block in zip(Noise._fields, noise):
        assert not block.flags.writeable, name
        with pytest.raises(ValueError):
            block[-1] = 0.0
    kept = [block.copy() for block in noise]
    cases = [(AttackPlan.constant(4.0, a_max=20.0),
              MitigationStrategy.perfect(), False),
             (AttackPlan.ramp(0.4, a_max=20.0),
              MitigationStrategy.noisy(5.0), False),
             (AttackPlan.from_policy(small_policy),
              MitigationStrategy.noisy(5.0), True),
             (AttackPlan.none(), MitigationStrategy.off(), False)]
    shared = [rollout_batch(model, ss, plan, DetectorConfig(3.0), strategy,
                            4, noise, 5, oracle=oracle)
              for plan, strategy, oracle in cases]
    for block, copy in zip(noise, kept):
        assert np.array_equal(block, copy)
    for batch, (plan, strategy, oracle) in zip(shared, cases):
        alone = rollout_batch(model, ss, plan, DetectorConfig(3.0), strategy,
                              4, _draw(bench, 4, 5, RngStream(61)), 5,
                              oracle=oracle)
        assert np.array_equal(batch.e[:, 0], noise.e0)
        for name in FIELDS:
            assert np.array_equal(getattr(batch, name),
                                  getattr(alone, name)), (plan.kind, name)


def test_draw_noise_takes_each_square_root_once(bench, monkeypatch):
    calls = []

    def counting(var):
        calls.append(var)
        return math.sqrt(var)

    monkeypatch.setattr(evaluation, "math", types.SimpleNamespace(
        sqrt=counting))
    model, ss = bench
    noise = _draw(bench, 6, 5, RngStream(73))
    assert calls == [ss.P_e, 1.0, 10.0]
    for plan, strategy in ((AttackPlan.none(), MitigationStrategy.perfect()),
                           (AttackPlan.none(), MitigationStrategy.noisy(5.0)),
                           (AttackPlan.constant(4.0),
                            MitigationStrategy.perfect()),
                           (AttackPlan.ramp(1.0),
                            MitigationStrategy.noisy(5.0))):
        rollout_batch(model, ss, plan, DetectorConfig(3.0), strategy, 6,
                      noise, runs=5)
    assert calls == [ss.P_e, 1.0, 10.0]  # none when the batches run


def test_a_variance_rounded_below_zero_scales_its_draws_by_zero():
    # 1 - K C rounds to -2.2e-16 when R is negligible against C^2 P_inf
    model = SystemModel(A=0.013455862214657888, B=1.0,
                        C=-0.41687160372402976, Q=1.1616003181141884e-06,
                        R=7.212405731063394e-205)
    ss = derive_steady_state(model)
    assert ss.P_e < 0.0
    batch = rollout_batch(model, ss, AttackPlan.none(), DetectorConfig(1.0),
                          MitigationStrategy.off(), 3,
                          draw_noise(model, ss, 3, 4, RngStream(5), False),
                          runs=4)
    assert np.all(batch.e[:, 0] == 0.0) and np.all(np.isfinite(batch.e))


def test_perfect_and_noisy_draws_share_the_leading_blocks(bench):
    perfect = _draw(bench, 6, 5, RngStream(67), noisy=False)
    noisy = _draw(bench, 6, 5, RngStream(67), noisy=True)
    for name in ("e0", "w", "v"):
        assert np.array_equal(getattr(perfect, name), getattr(noisy, name))
    assert perfect.b is None
    # b is the stream's fourth block, unscaled
    gen = RngStream(67).generator()
    gen.standard_normal(5), gen.standard_normal((2, 5, 6))
    assert np.array_equal(noisy.b[1:], gen.standard_normal((5, 6)).T)
    assert np.all(noisy.b[0] == 0.0)


def test_cost_sums_are_the_cumsum_and_bool_alarms_count_alike(bench):
    runs = 257
    model, ss = bench
    plan = AttackPlan.ramp(1.0, a_max=20.0)
    for ctrl in (None, SetpointController(x0=0.5, alpha=0.5)):
        for oracle in (False, True):
            batch = rollout_batch(model, ss, plan, DetectorConfig(3.0),
                                  MitigationStrategy.noisy(2.0), 12,
                                  _draw(bench, 12, runs, RngStream(17)), runs,
                                  controller=ctrl, oracle=oracle)
            sums = np.cumsum(batch.e[:, 1:] ** 2, axis=1)
            assert batch.cost_sums.flags.c_contiguous
            assert np.array_equal(batch.cost_sums, sums), (ctrl, oracle)
            assert np.array_equal(batch.sums, sums.T), (ctrl, oracle)
            assert batch.i.dtype == bool
            assert np.array_equal(batch.detection_frequency(),
                                  batch.i.astype(np.int64).mean(axis=0))


def test_batch_memory_is_the_kept_fields(bench):
    # e, the bool alarms and the cost sums are all a batch keeps; a full
    # (T + 1, W) history of anything else is 11 W-vectors, past the slack
    model, ss = bench
    W, T = 10_000, 10
    args = (model, ss, AttackPlan.constant(10.0, a_max=20.0),
            DetectorConfig(5.0), MitigationStrategy.noisy(5.0), T,
            _draw(bench, T, W, RngStream(3)), W)
    tracemalloc.start()
    try:
        batch = rollout_batch(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = (T + 1) * W * (8 + 1) + W * T * 8
    assert batch.e.nbytes + batch.i.nbytes + batch.sums.nbytes == kept
    assert peak <= kept + 16 * W * 8, (peak - kept) / (8 * W)


@pytest.mark.parametrize("kind, oracle, policy, controlled", [
    ("perfect", False, False, False),
    ("noisy", False, False, False),
    ("off", False, False, False),
    ("noisy", True, False, False),
    ("perfect", False, True, False),
    ("noisy", False, True, True),
    ("off", True, False, True),
])
def test_rollout_matches_the_scalar_reference_step_bitwise(
        bench, small_policy, kind, oracle, policy, controlled):
    model, ss = bench
    W, T, sigma = 5, 4, 3.0
    plan = (AttackPlan.from_policy(small_policy) if policy
            else AttackPlan.sequence([7.0, 0.0, -25.0, 3.0], a_max=20.0))
    strategy = MitigationStrategy(kind, sigma * (kind == "noisy"))
    detector = DetectorConfig(2.0)
    ctrl = SetpointController(0.835, 0.5, init=1.0) if controlled \
        else None
    noise = _draw(bench, T, W, RngStream(83))
    batch = rollout_batch(model, ss, plan, detector, strategy, T, noise, W,
                          controller=ctrl, oracle=oracle)
    # the stream's blocks are (W, T) draws in [run, t] order
    gen = RngStream(83).generator()
    assert np.array_equal(batch.e[:, 0], gen.standard_normal(W)
                          * math.sqrt(ss.P_e))
    w, v, b = noise.w.T, noise.v.T, noise.b.T
    assert np.array_equal(w[:, 1:], gen.standard_normal((W, T)))
    assert np.array_equal(v[:, 1:], gen.standard_normal((W, T))
                          * math.sqrt(10.0))
    assert np.array_equal(b[:, 1:], gen.standard_normal((W, T)))
    C, CA, p_inv = model.C, model.C * model.A, ss.P_r_inv
    alarms = 0
    for run in range(W):
        e, total = float(batch.e[run, 0]), 0.0
        x_hat = 1.0
        for t in range(1, T + 1):
            wt, vt = float(w[run, t]), float(v[run, t])
            a = float(attack_at(plan, t, e, stage_remaining=T - t + 1))
            r = e * CA + wt * C + vt + a
            alarm = a != 0.0 if oracle else r * p_inv * r > 2.0
            delta = {"perfect": a, "noisy": a + sigma * float(b[run, t]),
                     "off": 0.0}[kind]
            e, corr = error_step(model, ss, e, wt, vt, a, alarm, delta)
            total += e * e
            assert batch.i[run, t] == alarm, (run, t)
            assert batch.e[run, t] == e, (run, t)
            assert batch.cost_sums[run, t - 1] == total, (run, t)
            alarms += alarm
            if controlled:
                x_hat = estimate_step(model, ctrl, x_hat, corr)
                assert batch.x_hat[run, t] == x_hat, (run, t)
                assert batch.x[run, t] == x_hat + e, (run, t)
    assert 0 < alarms < W * T  # both branches of the recursion run
