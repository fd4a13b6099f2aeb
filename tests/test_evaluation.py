"""Rollout and cost-report tests.

What is proven here:
  * Rollouts are bit-identical when replayed on the same stream and differ
    on another stream.
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
  * The noise variances' square roots are taken once per stream: four
    batches on one stream take three (P_e, Q, R).  A P_e that rounds to a
    tiny negative (R negligible against C^2 P_inf) scales e[0] by 0.
  * A stream's noise is drawn once and shared read-only: two batches on
    one stream share their w and v memory, writing to them raises, and
    the blocks of an earlier stream are freed once another is drawn.  A
    perfect and a noisy batch share e[0], w and v.  Batches run in an
    interleaved order over streams, run counts, horizons, models and
    strategies equal the same batches run each on a cleared cache.
"""

import gc
import math
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from fdisim import evaluation
from fdisim.attack import AttackPlan, attack_at
from fdisim.config import ConfigError, from_mapping
from fdisim.defense import (DetectorConfig, MitigationStrategy, detect,
                            g_statistic)
from fdisim.evaluation import (
    EvaluationError,
    compare_attacks,
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
FIELDS = ("e", "i", "w", "v", "cost_sums", "x", "x_hat")


@pytest.fixture(scope="module")
def bench():
    model = SystemModel(A=1.0, B=1.0, C=1.0, Q=1.0, R=10.0)
    return model, derive_steady_state(model)


def _mitigation_noise(model, ss, stream, runs, T):
    """The stream's pre-drawn mitigation block b as a [run, t] view; a
    noisy correction is delta = a + sigma_mit * b."""
    *_, b = evaluation._noise(stream, runs, T, ss.P_e, model.Q, model.R,
                              True)
    return b.T


def _replay(batch, model, ss, plan):
    """The injections a and test statistics g the loop used, as [run, t]
    arrays that are zero at t = 0, rebuilt from the kept e, w and v."""
    W, T = batch.runs, batch.horizon
    a = np.zeros((W, T + 1))
    g = np.zeros((W, T + 1))
    C, CA = model.C, model.C * model.A
    for t in range(1, T + 1):
        a[:, t] = attack_at(plan, t, batch.e[:, t - 1],
                            stage_remaining=T - t + 1)
        r = (batch.e[:, t - 1] * CA + batch.w[:, t] * C + batch.v[:, t]
             + a[:, t])
        g[:, t] = g_statistic(ss, r)
    return a, g


def test_rollout_reproducible_and_matches_batch(bench):
    model, ss = bench
    args = (model, ss, AttackPlan.constant(4.0, a_max=20.0),
            DetectorConfig(10.0), MitigationStrategy.noisy(5.0), 8)
    tr1 = rollout_batch(*args, RngStream(7, 3), runs=1)
    tr2 = rollout_batch(*args, RngStream(7, 3), runs=1)
    for name in FIELDS:
        assert np.array_equal(getattr(tr1, name), getattr(tr2, name)), name
    tr3 = rollout_batch(*args, RngStream(8, 3), runs=1)
    assert not np.array_equal(tr1.e, tr3.e)


def test_trajectory_invariants_and_error_recursion(bench):
    model, ss = bench
    plan = AttackPlan.ramp(1.0, a_max=20.0)
    batch = rollout_batch(model, ss, plan, DetectorConfig(2.0),
                          MitigationStrategy.noisy(3.0), 12, RngStream(42),
                          runs=1)
    assert batch.runs == 1 and batch.horizon == 12
    assert batch.x is None and batch.x_hat is None
    a, g = _replay(batch, model, ss, plan)
    assert np.array_equal(batch.i[:, 1:], detect(DetectorConfig(2.0), g[:, 1:]))
    delta = a + 3.0 * _mitigation_noise(model, ss, RngStream(42), 1, 12)
    tr = {name: getattr(batch, name)[0] for name in ("i", "e", "w", "v")}
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
                          T=10, stream=RngStream(11), runs=10_000)
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
                          T=5, stream=RngStream(3), runs=4)
    report = empirical_cost(batch)
    sums = np.cumsum(batch.e[:, 1:] ** 2, axis=1)
    assert np.allclose(report.cost_per_t, sums.mean(axis=0), rtol=0, atol=0)
    assert np.allclose(report.std_err_per_t,
                       sums.std(axis=0, ddof=1) / 2.0, rtol=0, atol=0)
    assert report.horizon == 5
    assert report.terminal_cost == report.cost_per_t[-1]

    one = rollout_batch(*(*bench, AttackPlan.constant(6.0, a_max=20.0),
                          DetectorConfig(5.0), MitigationStrategy.perfect()),
                        T=5, stream=RngStream(3), runs=1)
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
                          T=12, stream=RngStream(13), runs=runs)
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
                             stream=RngStream(19))
    assert np.array_equal(r1.cost_per_t, r2.cost_per_t)
    assert np.array_equal(r1.std_err_per_t, r2.std_err_per_t)
    with pytest.raises(EvaluationError):
        compare_attacks(model, ss, [], DetectorConfig(5.0),
                        MitigationStrategy.perfect(), T=6, runs=10,
                        stream=RngStream(19))


def test_perfect_mitigation_at_eta_zero_cancels_attack(bench):
    # eta=0 alarms on every step; delta = a subtracts the injection before
    # the filter sees it, so the attacked run matches the clean run up to
    # the rounding of (r + a) - a.
    model, ss = bench
    kwargs = dict(T=10, stream=RngStream(23), runs=20,
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
    # the mitigation block is pre-drawn whether or not alarms fire, so the
    # plant/measurement noise is identical across detector settings
    model, ss = bench
    plan = AttackPlan.constant(10.0, a_max=20.0)
    kwargs = dict(T=6, runs=8)
    loose = rollout_batch(model, ss, plan, DetectorConfig(np.inf),
                          MitigationStrategy.noisy(15.0),
                          stream=RngStream(31), **kwargs)
    tight = rollout_batch(model, ss, plan, DetectorConfig(0.0),
                          MitigationStrategy.noisy(15.0),
                          stream=RngStream(31), **kwargs)
    assert np.array_equal(loose.w, tight.w)
    assert np.array_equal(loose.v, tight.v)
    assert np.array_equal(loose.e[:, 0], tight.e[:, 0])
    assert np.all(loose.i[:, 1:] == 0) and np.all(tight.i[:, 1:] == 1)
    # every alarmed step of the tight run subtracts delta = a + sigma * b
    # with b the block's own entry for that run and step
    a, _ = _replay(tight, model, ss, plan)
    delta = a + 15.0 * _mitigation_noise(model, ss, RngStream(31), 8, 6)
    for run in range(8):
        for t in range(1, 7):
            e_step, _ = error_step(model, ss, tight.e[run, t - 1],
                                   tight.w[run, t], tight.v[run, t],
                                   a[run, t], 1, delta[run, t])
            assert e_step == tight.e[run, t], (run, t)
    # the corrections are the injection plus N(0, sigma^2) noise: with
    # A = C = 1 and every step alarmed, e[t] = e[t-1] + w - K (r - delta)
    # and r = e[t-1] + w + v + a give delta back from the logged signals
    wide = rollout_batch(model, ss, plan, DetectorConfig(0.0),
                         MitigationStrategy.noisy(15.0), T=5, runs=4_000,
                         stream=RngStream(7))
    a, _ = _replay(wide, model, ss, plan)
    e, w, v = wide.e, wide.w, wide.v
    r = e[:, :-1] + w[:, 1:] + v[:, 1:] + a[:, 1:]
    delta = r + (e[:, 1:] - e[:, :-1] - w[:, 1:]) / ss.K
    noise = (delta - a[:, 1:]).ravel()  # 20,000 draws
    assert abs(noise.mean()) < 0.35
    assert abs(noise.std(ddof=1) - 15.0) < 0.3


def test_fp_cost_zero_cases(bench):
    model, ss = bench
    pc = fp_cost(model, ss, eta=1.0, strategy=MitigationStrategy.perfect(),
                 T=8, runs=200, stream=RngStream(41))
    assert pc.value == 0.0 and pc.std_error == 0.0
    pc_inf = fp_cost(model, ss, eta=np.inf,
                     strategy=MitigationStrategy.noisy(15.0), T=8, runs=200,
                     stream=RngStream(41))
    assert pc_inf.value == 0.0
    pc_noisy = fp_cost(model, ss, eta=0.0,
                       strategy=MitigationStrategy.noisy(15.0), T=8,
                       runs=500, stream=RngStream(41))
    assert pc_noisy.value > 0.0  # constant false alarms inject noise


def test_md_cost_zero_at_eta_zero(bench, small_policy):
    model, ss = bench
    plan = AttackPlan.constant(10.0, a_max=20.0)
    pc = md_cost(model, ss, eta=0.0, strategy=MitigationStrategy.noisy(15.0),
                 plan=plan, T=8, runs=200, stream=RngStream(43))
    # both systems alarm on every (always-injecting) step and share noise
    assert pc.value == 0.0 and pc.std_error == 0.0
    pc_high = md_cost(model, ss, eta=20.0,
                      strategy=MitigationStrategy.perfect(), plan=plan, T=8,
                      runs=500, stream=RngStream(43))
    assert pc_high.value > 0.0  # missed detections leave injections active
    nominal = AttackPlan.nominal(small_policy, 4)
    assert np.all(nominal.values != 0.0)  # injects at every step
    pc_seq = md_cost(model, ss, eta=0.0,
                     strategy=MitigationStrategy.noisy(15.0), plan=nominal,
                     T=4, runs=200, stream=RngStream(43))
    assert pc_seq.value == 0.0 and pc_seq.std_error == 0.0
    with pytest.raises(EvaluationError):
        md_cost(model, ss, eta=1.0, strategy=MitigationStrategy.perfect(),
                plan=AttackPlan.none(), T=8, runs=10, stream=RngStream(43))


def test_rollout_contract_checks(bench):
    model, ss = bench
    good = (AttackPlan.none(), DetectorConfig(1.0), MitigationStrategy.off())
    with pytest.raises(EvaluationError):
        rollout_batch(model, ss, *good, T=0, stream=RngStream(1), runs=5)
    with pytest.raises(EvaluationError):
        rollout_batch(model, ss, *good, T=5, stream=RngStream(1), runs=0)


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
                          stream=RngStream(1), runs=4,
                          controller=SetpointController(0.5, 0.5))
    assert batch.x.shape == (4, 4)


def test_short_policy_plan_rejected(bench, small_policy):
    model, ss = bench
    plan = AttackPlan.from_policy(small_policy)  # 4 stages
    with pytest.raises(EvaluationError):
        rollout_batch(model, ss, plan, DetectorConfig(10.0),
                      MitigationStrategy.perfect(), T=5,
                      stream=RngStream(2), runs=3)
    with pytest.raises(EvaluationError):
        rollout_batch(model, ss, AttackPlan.nominal(small_policy, 4),
                      DetectorConfig(10.0), MitigationStrategy.perfect(),
                      T=5, stream=RngStream(2), runs=3)
    batch = rollout_batch(model, ss, plan, DetectorConfig(10.0),
                          MitigationStrategy.perfect(), T=4,
                          stream=RngStream(2), runs=3)
    assert batch.horizon == 4


def test_controller_without_init_starts_the_estimate_at_x0(bench):
    model, ss = bench
    batch = rollout_batch(model, ss, AttackPlan.none(), DetectorConfig(5.0),
                          MitigationStrategy.perfect(), T=3,
                          stream=RngStream(78), runs=4,
                          controller=SetpointController(0.835, 0.5))
    assert np.array_equal(batch.x_hat[:, 0], np.full(4, 0.835))
    assert np.array_equal(batch.x[:, 0], batch.x_hat[:, 0] + batch.e[:, 0])


def test_controller_batch_matches_scalar_path(bench):
    model, ss = bench
    ctrl = SetpointController(x0=0.835, alpha=0.5, init=1.0)
    batch = rollout_batch(model, ss, AttackPlan.none(), DetectorConfig(5.0),
                          MitigationStrategy.perfect(), T=4,
                          stream=RngStream(77), runs=6, controller=ctrl)
    # u = alpha (x0 - x_hat) / B at every t = 0..T, the control law on
    # the (W,) row of estimates equal to the scalar formula
    for t in range(5):
        u = setpoint_control(model, ctrl, batch.x_hat[:, t])
        for run in range(6):
            u_ref = 0.5 * (0.835 - batch.x_hat[run, t]) / model.B
            assert u[run] == pytest.approx(u_ref, rel=0, abs=1e-14)
            if t < 4:  # and the plant moved under it
                x_step = batch.x[run, t] + u_ref + batch.w[run, t + 1]
                assert batch.x[run, t + 1] == pytest.approx(x_step, rel=0,
                                                            abs=1e-14)
    # the mean estimate contracts towards the setpoint
    d0 = abs(batch.x_hat[:, 0].mean() - 0.835)
    dT = abs(batch.x_hat[:, 4].mean() - 0.835)
    assert dT < d0


def test_stream_noise_is_drawn_once_and_shared_read_only(bench):
    model, ss = bench
    args = (model, ss, AttackPlan.constant(4.0, a_max=20.0),
            DetectorConfig(3.0), MitigationStrategy.perfect(), 6)
    first = rollout_batch(*args, RngStream(61), runs=5)
    second = rollout_batch(*args, RngStream(61), runs=5)
    assert np.shares_memory(first.w, second.w)
    assert np.shares_memory(first.v, second.v)
    with pytest.raises(ValueError):
        first.w[0, 1] = 0.0
    with pytest.raises(ValueError):
        second.v[0, 1] = 0.0
    # drawing another stream frees the blocks no batch still holds
    buffers = [weakref.ref(first.w.base), weakref.ref(first.v.base)]
    del first, second
    rollout_batch(*args, RngStream(62), runs=5)
    gc.collect()
    assert [ref() for ref in buffers] == [None, None]


def test_noise_factors_are_taken_once_per_stream(bench, monkeypatch):
    calls = []

    def counting(var):
        calls.append(var)
        return math.sqrt(var)

    monkeypatch.setattr(evaluation, "math", types.SimpleNamespace(
        sqrt=counting))
    evaluation._noise_cache.clear()
    model, ss = bench
    for plan, strategy in ((AttackPlan.none(), MitigationStrategy.perfect()),
                           (AttackPlan.none(), MitigationStrategy.noisy(5.0)),
                           (AttackPlan.constant(4.0),
                            MitigationStrategy.perfect()),
                           (AttackPlan.ramp(1.0),
                            MitigationStrategy.noisy(5.0))):
        rollout_batch(model, ss, plan, DetectorConfig(3.0), strategy, 6,
                      RngStream(73), runs=5)
    assert calls == [ss.P_e, 1.0, 10.0]  # when the stream is drawn


def test_a_variance_rounded_below_zero_scales_its_draws_by_zero():
    # 1 - K C rounds to -2.2e-16 when R is negligible against C^2 P_inf
    model = SystemModel(A=0.013455862214657888, B=1.0,
                        C=-0.41687160372402976, Q=1.1616003181141884e-06,
                        R=7.212405731063394e-205)
    ss = derive_steady_state(model)
    assert ss.P_e < 0.0
    batch = rollout_batch(model, ss, AttackPlan.none(), DetectorConfig(1.0),
                          MitigationStrategy.off(), 3, RngStream(5), runs=4)
    assert np.all(batch.e[:, 0] == 0.0) and np.all(np.isfinite(batch.e))


def test_perfect_and_noisy_batches_share_the_leading_blocks(bench):
    model, ss = bench
    plan = AttackPlan.constant(4.0, a_max=20.0)
    for order in (("perfect", "noisy"), ("noisy", "perfect")):
        evaluation._noise_cache.clear()
        batches = [rollout_batch(model, ss, plan, DetectorConfig(3.0),
                                 MitigationStrategy(kind, 5.0 * (
                                     kind == "noisy")),
                                 6, RngStream(67), runs=5)
                   for kind in order]
        for name in ("w", "v"):
            assert np.shares_memory(getattr(batches[0], name),
                                    getattr(batches[1], name)), name
        assert np.array_equal(batches[0].e[:, 0], batches[1].e[:, 0])


def test_interleaved_batches_equal_batches_on_a_cleared_cache(bench):
    model, ss = bench
    # each of these differs from bench in one noise factor only: the
    # steady state is passed as is, so P_e moves alone in the first
    other_ss = derive_steady_state(SystemModel(A=0.5, B=1.0, C=1.0, Q=1.0,
                                               R=10.0))
    other_q = SystemModel(A=1.0, B=1.0, C=1.0, Q=2.0, R=10.0)
    other_r = SystemModel(A=1.0, B=1.0, C=1.0, Q=1.0, R=20.0)
    other_c = SystemModel(A=1.0, B=1.0, C=2.0, Q=1.0, R=10.0)
    one = AttackPlan.constant(4.0, a_max=20.0)
    ramp = AttackPlan.ramp(0.4, a_max=20.0)
    perfect, noisy = MitigationStrategy.perfect(), MitigationStrategy.noisy(5.0)
    cases = [  # (model, steady state, plan, strategy, T, stream, runs)
        (model, ss, one, perfect, 6, RngStream(71), 5),
        (model, ss, one, noisy, 6, RngStream(71), 5),
        (model, ss, one, noisy, 6, RngStream(71), 7),
        (model, ss, one, perfect, 4, RngStream(71), 5),
        (model, ss, one, noisy, 6, RngStream(71, 1), 5),
        (model, other_ss, one, noisy, 6, RngStream(71), 5),
        (other_q, ss, one, perfect, 6, RngStream(71), 5),
        (other_r, ss, one, noisy, 6, RngStream(71), 5),
        (other_c, derive_steady_state(other_c), ramp, noisy, 6,
         RngStream(71), 5),
    ]

    def run(case):
        m, s, plan, strategy, T, stream, runs = case
        return rollout_batch(m, s, plan, DetectorConfig(3.0), strategy, T,
                             stream, runs)

    order = [0, 1, 2, 0, 3, 1, 4, 0, 5, 0, 6, 0, 7, 0, 8, 1, 8, 3]
    interleaved = [run(cases[k]) for k in order]
    for k, batch in zip(order, interleaved):
        evaluation._noise_cache.clear()
        alone = run(cases[k])
        for name in FIELDS:
            assert np.array_equal(getattr(batch, name),
                                  getattr(alone, name)), (k, name)


def test_cost_sums_are_the_cumsum_and_bool_alarms_count_alike(bench):
    runs = 257
    model, ss = bench
    plan = AttackPlan.ramp(1.0, a_max=20.0)
    for ctrl in (None, SetpointController(x0=0.5, alpha=0.5)):
        for oracle in (False, True):
            batch = rollout_batch(model, ss, plan, DetectorConfig(3.0),
                                  MitigationStrategy.noisy(2.0), 12,
                                  RngStream(17), runs, controller=ctrl,
                                  oracle=oracle)
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
            RngStream(3), W)
    rollout_batch(*args)  # draws and keeps the stream's noise
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
    evaluation._noise_cache.clear()
    batch = rollout_batch(model, ss, plan, detector, strategy, T,
                          RngStream(83), W, controller=ctrl, oracle=oracle)
    # the stream's blocks are (W, T) draws in [run, t] order
    gen = RngStream(83).generator()
    assert np.array_equal(batch.e[:, 0], gen.standard_normal(W)
                          * math.sqrt(ss.P_e))
    assert np.array_equal(batch.w[:, 1:], gen.standard_normal((W, T)))
    assert np.array_equal(batch.v[:, 1:], gen.standard_normal((W, T))
                          * math.sqrt(10.0))
    b = _mitigation_noise(model, ss, RngStream(83), W, T)
    assert np.array_equal(b[:, 1:], gen.standard_normal((W, T)))
    C, CA, p_inv = model.C, model.C * model.A, ss.P_r_inv
    alarms = 0
    for run in range(W):
        e, total = float(batch.e[run, 0]), 0.0
        x_hat = 1.0
        for t in range(1, T + 1):
            w, v = float(batch.w[run, t]), float(batch.v[run, t])
            a = float(attack_at(plan, t, e, stage_remaining=T - t + 1))
            r = e * CA + w * C + v + a
            alarm = a != 0.0 if oracle else r * p_inv * r > 2.0
            delta = {"perfect": a, "noisy": a + sigma * float(b[run, t]),
                     "off": 0.0}[kind]
            e, corr = error_step(model, ss, e, w, v, a, alarm, delta)
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
