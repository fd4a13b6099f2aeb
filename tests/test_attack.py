"""Attack plan tests.

What is proven here:
  * none/constant/ramp plans produce their schedules, clipped to
    [-a_max, a_max] (ramp slope 1 at t = 25 clips to a_max = 20), also
    past the range where a squared norm overflows (1e200 clips to a_max,
    not to 0).
  * The bound |a| <= a_max holds for every plan, time and error (property
    test).
  * Policy plans replay the stage table, demand stage_remaining, and
    batch over (W,) errors.
  * Sequence plans inject their step's value whatever the error, reject a
    step outside the sequence, and the nominal sequence replays a policy's
    stage actions at e = 0 in one sign orientation, so it does not depend
    on which of a tied +-a pair the argmax kept.
  * A non-policy plan's injections over an array of steps equal its
    per-step injections bit for bit, and the clip keeps the radial
    arithmetic of a one-entry vector, a * (a_max / ||a||): for over-long
    and inner constant, ramp and sequence values the result equals that
    formula exactly.  The plan's own values are never written.
  * Malformed plans raise: an unknown kind, a constant or ramp plan
    without its value, a negative a_max, and an empty or 2-D sequence.
    A constant or ramp value is one float; the config refuses a list of
    two (tests/test_cli.py).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdisim.attack import AttackError, AttackPlan, attack_at, clip_to_norm


def test_none_and_constant():
    assert attack_at(AttackPlan.none(), 3) == 0.0
    plan = AttackPlan.constant(10.0, a_max=20.0)
    assert attack_at(plan, 1, 0.0) == 10.0
    clipped = AttackPlan.constant(-25.0, a_max=20.0)
    assert clipped.constant_value == -25.0
    assert attack_at(clipped, 1, 0.0) == -20.0
    # past ~1.3e154 a squared norm overflows; |a| does not, so the clip
    # still lands on the bound
    assert attack_at(AttackPlan.constant(-1e200, a_max=20.0), 1) == -20.0
    assert attack_at(AttackPlan.ramp(1e160, a_max=20.0), 3) == 20.0


def test_ramp_schedule_and_clip():
    plan = AttackPlan.ramp(1.0, a_max=20.0)
    assert attack_at(plan, 3, 0.0) == 3.0
    assert attack_at(plan, 25, 0.0) == 20.0  # clipped


def test_clip_to_norm_noop_inside_ball():
    a = np.array([1.0, -2.0])
    assert np.array_equal(clip_to_norm(a, 20.0), a)


@settings(max_examples=80, deadline=None)
@given(t=st.integers(0, 60), e=st.floats(-50.0, 50.0),
       kind=st.sampled_from(["none", "constant", "ramp"]),
       a_max=st.floats(0.5, 30.0))
def test_norm_bound_always_holds(t, e, kind, a_max):
    if kind == "none":
        plan = AttackPlan.none(a_max=a_max)
    elif kind == "constant":
        plan = AttackPlan.constant(17.0, a_max=a_max)
    else:
        plan = AttackPlan.ramp(2.0, a_max=a_max)
    a = attack_at(plan, t, e)
    assert abs(a) <= a_max + 1e-9


def test_policy_plan_stage_handling(small_policy):
    plan = AttackPlan.from_policy(small_policy)
    a = attack_at(plan, 1, 0.0, stage_remaining=4)
    assert a == small_policy.action_table[3, 12]
    with pytest.raises(AttackError):
        attack_at(plan, 1, 0.0)  # stage missing


def test_policy_plan_batches(small_policy):
    plan = AttackPlan.from_policy(small_policy)
    errs = np.array([0.0, 5.0, -5.0])
    out = attack_at(plan, 2, errs, stage_remaining=2)
    assert out.shape == (3,)
    for i, e in enumerate(errs):
        assert out[i] == attack_at(plan, 2, e, stage_remaining=2)


def test_sequence_plan_ignores_error():
    plan = AttackPlan.sequence([-3.0, 25.0, 4.0], a_max=20.0)
    for e in (0.0, 7.5, -40.0):
        assert attack_at(plan, 1, e) == -3.0
        assert attack_at(plan, 2, e) == 20.0  # clipped
    assert np.array_equal(attack_at(plan, np.arange(1, 4)), [-3.0, 20.0, 4.0])
    for t in (0, 4):
        with pytest.raises(AttackError):
            attack_at(plan, t, 0.0)


@pytest.mark.parametrize("row", [[23.7], [-0.3], [-11.3], [5.3]])
def test_run_invariant_rows_clip_once(row):
    # a batch takes a non-policy plan's T injections in one call
    a_max, value = 5.3, row[0]
    plans = {"constant": (AttackPlan.constant(value, a_max=a_max),
                          lambda t: value),
             "ramp": (AttackPlan.ramp(value, a_max=a_max),
                      lambda t: float(t) * value),
             "sequence": (AttackPlan.sequence([0.5 * value, value, -value],
                                              a_max=a_max),
                          lambda t: (0.5 * value, value, -value)[t - 1])}
    steps = np.arange(1, 4)
    for kind, (plan, raw) in plans.items():
        got = attack_at(plan, steps)
        assert got.shape == (3,), kind
        for t in steps:
            one = np.array([raw(t)])
            norm = np.linalg.norm(one)
            want = one[0] * (a_max / norm) if norm > a_max else one[0]
            assert got[t - 1] == want, (kind, t)
            assert attack_at(plan, int(t), 9.0) == want, (kind, t)
    assert plans["constant"][0].constant_value == value
    assert plans["sequence"][0].values[1] == value
    with pytest.raises(AttackError, match=r"ramp needs t >= 0, got -1"):
        attack_at(plans["ramp"][0], -1)
    for t in (0, 4):
        with pytest.raises(AttackError, match=rf"sequence covers steps "
                                              rf"1\.\.3, got t = {t}"):
            attack_at(plans["sequence"][0], t)
    with pytest.raises(AttackError, match=r"sequence covers steps"):
        attack_at(plans["sequence"][0], np.arange(1, 5))


def test_nominal_sequence(small_policy):
    nominal = AttackPlan.nominal(small_policy, 3)
    assert nominal.a_max == small_policy.a_max
    for t in (1, 2, 3):  # scalar: the e = 0 stage action, made positive
        assert attack_at(nominal, t, 9.0) == abs(
            small_policy.action_table[3 - t, 12])
    with pytest.raises(AttackError):
        AttackPlan.nominal(small_policy, 5)  # policy has 4 stages
    # at e = 0 an action and its negative have equal value, so the argmax
    # may keep either; the nominal sequence must not depend on which
    base = AttackPlan.nominal(small_policy, 4).values
    assert np.all(base > 0.0)
    for flip in ([1, 1, 1, 1], [1, 0, 1, 0], [0, 0, 0, 1]):
        table = small_policy.action_table.copy()
        table[np.array(flip, dtype=bool), 12] *= -1.0
        flipped = dataclasses.replace(small_policy, action_table=table)
        assert np.array_equal(AttackPlan.nominal(flipped, 4).values, base)


def test_malformed_plans_raise():
    with pytest.raises(AttackError):
        AttackPlan(kind="sinusoid", a_max=20.0)
    with pytest.raises(AttackError, match="constant plan needs a "
                                          "constant_value"):
        AttackPlan(kind="constant", a_max=20.0)
    with pytest.raises(AttackError, match="ramp plan needs a slope"):
        AttackPlan(kind="ramp", a_max=20.0)
    with pytest.raises(AttackError):
        AttackPlan.constant(1.0, a_max=-1.0)
    with pytest.raises(AttackError):
        AttackPlan.sequence(np.zeros(0))  # empty sequence
    with pytest.raises(AttackError, match=r"\(T,\) array"):
        AttackPlan.sequence(np.zeros((3, 2)))
