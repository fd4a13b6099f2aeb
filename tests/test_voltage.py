"""Voltage-case tests.

What is proven here:
  * The voltage preset's setpoint controller drives a noiseless scalar
    plant from 1.0 pu to 0.835 pu geometrically at rate (1 - alpha), and
    holds the setpoint once there.
  * A controller section is refused with a ConfigError when controller.x0
    or controller.init has the wrong length; over a zero model.B it loads,
    and the model it builds is refused as uncontrollable.
  * A trace is one bus and one input: TraceSet takes (N,) arrays and
    refuses a (N, 2) block, and a trace file with a multi-bus header is
    refused at its line 1.
  * estimate_B recovers a known scalar gain exactly from noiseless traces,
    to < 1% relative error from 10^4 noisy samples, with error shrinking
    as the sample count grows; zero excitation raises a rank error.
  * Trace CSVs round-trip exactly; malformed files are rejected with line
    numbers; a trace too short to identify the gain, a header-only file
    included, is refused by TraceSet's 2-sample rule with the file's path.
  * The estimation-error process does not depend on the controller:
    rollouts with the controller on and off from the same stream produce
    bit-identical error paths, alarms and cost sums; x and x_hat exist
    only with the controller, x = x_hat + e, and the control rebuilt from
    x_hat is nonzero.
  * Nor does it depend on the units' origin: shifting controller.x0 and
    controller.init (where x_hat starts) by 1e6 pu leaves e, the alarms
    and every cost curve bit-identical under each plan, and moves x and
    x_hat by the offset to within its rounding.
  * With no attack the mean voltage settles at the setpoint within two
    standard errors, and a ramp attack's detection frequency grows over
    the horizon.
  * Under the policy attack the estimate hugs the setpoint while the
    plant deviates (mean |x_hat[T] - x0| < mean |x[T] - x0|).
  * The experiment's curves add the runs in order: at 257 runs they equal
    the reductions taken on C-ordered copies of the batch, bit for bit,
    and the deviation |x - x0| keeps the bits of the norm of one-entry
    vectors.
"""

import re

import numpy as np
import pytest

from fdisim.attack import AttackPlan
from fdisim.config import ConfigError, from_mapping, resolve_config
from fdisim.defense import DetectorConfig, MitigationStrategy
from fdisim.evaluation import rollout_batch
from fdisim.lti import ModelError, derive_steady_state, setpoint_control
from fdisim.mdp import (
    build_grid,
    build_transition_model,
    uniform_actions,
    value_iteration,
)
from fdisim.numerics import RngStream
from fdisim.voltage import (
    TraceSet,
    VoltageError,
    estimate_B,
    load_traces,
    save_traces,
    synthesize_traces,
    voltage_attack_experiment,
)


@pytest.fixture(scope="module")
def loop():
    """The voltage preset's model, steady state and controller (initial
    estimate 1.0 pu)."""
    cfg = resolve_config("voltage")
    model = cfg.system_model()
    return model, derive_steady_state(model), cfg.controller()


@pytest.fixture(scope="module")
def voltage_policy(loop):
    """Policy solved on the per-unit error lattice of the voltage preset."""
    model, ss, _ = loop
    grid = build_grid(-0.3, 0.3, 0.0025)
    tm = build_transition_model(model, ss, eta=5.0, grid=grid,
                                actions=uniform_actions(0.2, 81))
    return value_iteration(tm, horizon=30)


# ---------------------------------------------------------------------------
# Controller binding
# ---------------------------------------------------------------------------


def test_noiseless_convergence_to_setpoint(loop):
    model, _, controller = loop
    x = np.array([1.0])
    gaps = []
    for _ in range(60):
        u = setpoint_control(model, controller, x)
        x = model.A * x + model.B * u
        gaps.append(abs(x[0] - 0.835))
    assert gaps[-1] < 1e-9
    ratios = np.array(gaps[1:10]) / np.array(gaps[:9])
    assert np.allclose(ratios, 0.5, atol=1e-12)  # contraction rate 1 - alpha
    # equilibrium: starting at the setpoint stays there
    x = np.array([0.835])
    u = setpoint_control(model, controller, x)
    assert np.allclose(model.A * x + model.B * u, x, atol=1e-15)


def test_voltage_config_validation():
    model = {"Q": [[1e-4]], "R": [[1e-3]]}
    cfg = from_mapping({"model": {**model, "B": [[0.0]]},
                        "controller": {"x0": [0.8], "alpha": 0.5}})
    with pytest.raises(ModelError, match="not controllable: B = 0"):
        cfg.system_model()
    with pytest.raises(ConfigError, match="controller.x0"):
        from_mapping({"model": model,
                      "controller": {"x0": [0.8, 0.9], "alpha": 0.5}})
    with pytest.raises(ConfigError, match="controller.init"):
        from_mapping({"model": model, "controller": {
            "x0": [0.8], "alpha": 0.5, "init": [1.0, 1.0]}})


# ---------------------------------------------------------------------------
# Gain estimation
# ---------------------------------------------------------------------------


def test_estimate_b_exact_on_noiseless_traces():
    for B_true in (0.8, -0.2, 1.3):
        traces = synthesize_traces(B_true, 400, RngStream(5))
        est = estimate_B(traces)
        assert isinstance(est.B, float) and isinstance(est.residual_var, float)
        assert abs(est.B - B_true) < 1e-8
        assert abs(est.residual_var) < 1e-16


def test_estimate_b_noisy_within_one_percent():
    B_true = 1.2
    traces = synthesize_traces(B_true, 10_000, RngStream(6), noise_var=1e-4)
    est = estimate_B(traces)
    assert abs(est.B - B_true) / abs(B_true) < 0.01
    # the residual variance estimates the process noise
    assert est.residual_var == pytest.approx(1e-4, rel=0.1)


def test_estimate_b_error_shrinks_with_samples():
    B_true = 0.9
    errs = []
    for length in (200, 20_000):
        traces = synthesize_traces(B_true, length, RngStream(7),
                                   noise_var=1e-4)
        errs.append(abs(estimate_B(traces).B - B_true))
    assert errs[1] < errs[0]


def test_estimate_b_rank_error_on_zero_input():
    traces = TraceSet(x=np.random.default_rng(0).normal(size=50),
                      u=np.zeros(50))
    with pytest.raises(VoltageError, match="unidentifiable"):
        estimate_B(traces)


def test_trace_set_is_one_bus_and_one_input():
    # (N,) arrays are N samples, not one sample of N buses
    traces = TraceSet(x=np.arange(50.0), u=np.ones(50))
    assert len(traces) == 50
    assert traces.x.shape == traces.u.shape == (50,)
    for x, u in ((np.zeros((50, 2)), np.ones(50)),
                 (np.zeros(50), np.ones((50, 2)))):
        with pytest.raises(VoltageError, match=re.escape("(N,) arrays")):
            TraceSet(x=x, u=u)


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------


def test_trace_round_trip(tmp_path):
    traces = synthesize_traces(1.1, 37, RngStream(8), noise_var=1e-5)
    path = tmp_path / "traces.csv"
    save_traces(path, traces)
    loaded = load_traces(path)
    assert np.array_equal(loaded.x, traces.x)
    assert np.array_equal(loaded.u, traces.u)


def test_trace_minimal_and_malformed(tmp_path):
    ok = tmp_path / "ok.csv"
    ok.write_text("t,x_1,u_1\n0,1.0,0.5\n1,1.5,0.0\n", encoding="utf-8")
    traces = load_traces(ok)
    assert len(traces) == 2

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("time,x_1,u_1\n0,1.0,0.5\n", encoding="utf-8")
    with pytest.raises(VoltageError, match=":1"):
        load_traces(bad_header)

    drift = tmp_path / "drift.csv"
    drift.write_text("t,x_1,u_1\n0,1.0,0.5\n1,1.5\n", encoding="utf-8")
    with pytest.raises(VoltageError, match=":3"):
        load_traces(drift)

    nonnum = tmp_path / "nonnum.csv"
    nonnum.write_text("t,x_1,u_1\n0,1.0,0.5\n1,oops,0.0\n", encoding="utf-8")
    with pytest.raises(VoltageError, match=":3"):
        load_traces(nonnum)

    short = tmp_path / "short.csv"
    short.write_text("t,x_1,u_1\n0,1.0,0.5\n", encoding="utf-8")
    with pytest.raises(VoltageError):
        load_traces(short)

    # the model is scalar: a second bus or input is refused at the header
    for header in ("t,x_1,x_2,u_1,u_2", "t,x_1,u_1,u_2", "t,u_1,x_1"):
        wide = tmp_path / "wide.csv"
        wide.write_text(header + "\n0,1.0,0.5,0.0,0.0\n1,1.5,0.0,0.0,0.0\n",
                        encoding="utf-8")
        with pytest.raises(VoltageError, match=":1: .*scalar"):
            load_traces(wide)


def test_short_trace_is_refused_with_its_path(tmp_path):
    for count, rows in enumerate(("", "0,1.0,0.5\n")):
        short = tmp_path / "short.csv"
        short.write_text("t,x_1,u_1\n" + rows, encoding="utf-8")
        message = (f"{short}: need at least 2 samples to identify the gain, "
                   f"got {count}")
        with pytest.raises(VoltageError, match="^" + re.escape(message)):
            load_traces(short)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def test_error_process_is_controller_independent(loop):
    model, ss, controller = loop
    plan = AttackPlan.constant(0.1, a_max=0.2)
    kwargs = dict(T=15, runs=64)
    on = rollout_batch(model, ss, plan, DetectorConfig(5.0),
                       MitigationStrategy.perfect(), stream=RngStream(90),
                       controller=controller, **kwargs)
    off = rollout_batch(model, ss, plan, DetectorConfig(5.0),
                        MitigationStrategy.perfect(), stream=RngStream(90),
                        controller=None, **kwargs)
    assert np.array_equal(on.e, off.e)
    assert np.array_equal(on.i, off.i)
    assert np.array_equal(on.cost_sums, off.cost_sums)
    assert off.x is None and off.x_hat is None
    assert np.array_equal(on.x, on.x_hat + on.e)
    u = [setpoint_control(model, controller, on.x_hat[:, t])
         for t in range(kwargs["T"])]
    assert np.any(np.array(u) != 0.0)  # the control term is exercised


def test_curves_add_runs_in_order(loop):
    # numpy sums a contiguous axis pairwise, which from 8 runs up can differ
    # in the last bits from adding the runs one after another
    model, ss, controller = loop
    plan = AttackPlan.ramp(0.01, a_max=0.2)
    strategy = MitigationStrategy.noisy(0.05)
    runs, T = 257, 12
    run = voltage_attack_experiment(*loop, plan, eta=5.0, strategy=strategy,
                                    T=T, runs=runs, stream=RngStream(94))
    batch = rollout_batch(model, ss, plan, DetectorConfig(5.0), strategy, T,
                          RngStream(94), runs, controller=controller)
    x = np.ascontiguousarray(batch.x)
    # |x - x0| with the bits of the norm of one-entry vectors
    dev = np.linalg.norm((x - controller.x0)[..., None], axis=2)
    expected = {
        "mean_voltage": x.mean(axis=0),
        "voltage_std_err": x.std(axis=0, ddof=1) / np.sqrt(runs),
        "mean_abs_deviation": dev.mean(axis=0),
        "abs_deviation_std_err": dev.std(axis=0, ddof=1) / np.sqrt(runs),
        "detect_frequency": np.ascontiguousarray(batch.i).mean(axis=0),
    }
    for name, curve in expected.items():
        assert np.array_equal(getattr(run, name), curve), name


def test_setpoint_offset_leaves_error_and_costs_bitwise(loop, voltage_policy,
                                                        tmp_path):
    offset = 1e6
    config = tmp_path / "shifted.yaml"
    config.write_text(f"controller: {{x0: [{0.835 + offset!r}], "
                      f"init: [{1.0 + offset!r}]}}\n", encoding="utf-8")
    cfg = resolve_config("voltage", path=config)
    model, ss, controller = loop
    shifted = (model, ss, cfg.controller())
    assert np.array_equal(shifted[2].x0, controller.x0 + offset)
    assert np.array_equal(shifted[2].init, controller.init + offset)
    # rounding of the shifted x_hat: one ulp of the offset per step, with
    # the control law contracting the sum
    tol = 8 * np.spacing(offset)
    plans = (AttackPlan.none(), AttackPlan.constant(0.1, a_max=0.2),
             AttackPlan.ramp(0.01, a_max=0.2),
             AttackPlan.from_policy(voltage_policy))
    for plan, strategy in zip(plans, (MitigationStrategy.perfect(),
                                      MitigationStrategy.noisy(0.05),
                                      MitigationStrategy.perfect(),
                                      MitigationStrategy.perfect())):
        kwargs = dict(eta=5.0, strategy=strategy, T=30, runs=500,
                      stream=RngStream(95))
        runs = [voltage_attack_experiment(*loop, plan, **kwargs),
                voltage_attack_experiment(*shifted, plan, **kwargs)]
        assert np.array_equal(runs[0].detect_frequency,
                              runs[1].detect_frequency), plan
        base, moved = (rollout_batch(m, s, plan, DetectorConfig(5.0),
                                     strategy, 30, RngStream(95), 500,
                                     controller=c)
                       for m, s, c in (loop, shifted))
        assert np.array_equal(base.e, moved.e), plan
        assert np.array_equal(base.i, moved.i), plan
        assert np.array_equal(base.cost_sums, moved.cost_sums), plan
        assert np.array_equal(moved.x, moved.x_hat + moved.e)
        for name in ("x", "x_hat"):
            gap = getattr(moved, name) - offset - getattr(base, name)
            assert np.max(np.abs(gap)) <= tol, (plan, name)


def test_no_attack_settles_at_setpoint(loop):
    run = voltage_attack_experiment(*loop, AttackPlan.none(), eta=5.0,
                                    strategy=MitigationStrategy.perfect(),
                                    T=30, runs=2_000, stream=RngStream(91))
    final = run.mean_voltage[-1]
    se = run.voltage_std_err[-1]
    assert abs(final - 0.835) < 2.0 * se
    assert run.mean_voltage[0] > 0.9  # starts near 1.0 pu


def test_ramp_detection_frequency_increases(loop):
    run = voltage_attack_experiment(*loop, AttackPlan.ramp(0.01, a_max=0.2),
                                    eta=5.0,
                                    strategy=MitigationStrategy.perfect(),
                                    T=30, runs=2_000, stream=RngStream(92))
    freq = run.detect_frequency[1:]
    thirds = freq[:10].mean(), freq[10:20].mean(), freq[20:].mean()
    assert thirds[0] + 0.1 < thirds[1] < thirds[2] - 0.1
    # the plateau near 0.6 is the closed-loop equilibrium: undetected steps
    # drift e against the injection, partially re-hiding it
    assert freq[-1] > 0.5


def test_policy_attack_hides_in_the_estimate(loop, voltage_policy):
    model, ss, controller = loop
    plan = AttackPlan.from_policy(voltage_policy)
    run = voltage_attack_experiment(*loop, plan, eta=5.0,
                                    strategy=MitigationStrategy.perfect(),
                                    T=30, runs=2_000, stream=RngStream(93))
    batch = rollout_batch(model, ss, plan, DetectorConfig(5.0),
                          MitigationStrategy.perfect(), 30, RngStream(93),
                          2_000, controller=controller)
    est_dev = np.abs(batch.x_hat[:, -1] - controller.x0)
    assert est_dev.mean() < run.mean_abs_deviation[-1]
    # the attack moved the plant: deviation well above the no-attack level
    clean = voltage_attack_experiment(*loop, AttackPlan.none(), eta=5.0,
                                      strategy=MitigationStrategy.perfect(),
                                      T=30, runs=2_000, stream=RngStream(93))
    assert run.mean_abs_deviation[-1] > 3.0 * clean.mean_abs_deviation[-1]
