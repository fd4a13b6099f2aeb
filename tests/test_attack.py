"""Attack plan tests.

What is proven here:
  * none/constant/ramp plans produce their schedules, with radial clipping
    to the norm ball (ramp slope 1 at t = 25 clips to a_max = 20; vector
    slopes keep their direction).
  * The norm bound ||a|| <= a_max holds for every plan, time and error
    (property test).
  * Policy plans replay the stage table, demand stage_remaining, and
    batch over error vectors.
  * Sequence plans inject their step's value whatever the error, reject a
    step outside the sequence, and the nominal sequence replays a policy's
    stage actions at e = 0 in one sign orientation, so it does not depend
    on which of a tied +-a pair the argmax kept.
  * Non-policy plans clip their one row before tiling it, with the bits
    of clipping every tiled row: for over-long constant, ramp and sequence
    rows in one and two dimensions, single and batched, attack_at equals
    clip_to_norm of the tiled rows exactly, and the result never aliases
    the plan's own arrays.
  * Malformed plans raise.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdisim.attack import AttackError, AttackPlan, attack_at, clip_to_norm


def test_none_and_constant():
    plan = AttackPlan.none(dim=2)
    assert np.array_equal(attack_at(plan, 3, np.zeros(2)), np.zeros(2))
    plan = AttackPlan.constant([10.0], a_max=20.0)
    assert attack_at(plan, 1, np.zeros(1))[0] == 10.0
    clipped = AttackPlan.constant([25.0], a_max=20.0)
    assert attack_at(clipped, 1, np.zeros(1))[0] == 20.0


def test_ramp_schedule_and_clip():
    plan = AttackPlan.ramp([1.0], a_max=20.0)
    assert attack_at(plan, 3, np.zeros(1))[0] == 3.0
    assert attack_at(plan, 25, np.zeros(1))[0] == 20.0  # clipped
    vec = AttackPlan.ramp([3.0, 4.0], a_max=20.0)  # slope norm 5
    a = attack_at(vec, 10, np.zeros(2))  # raw norm 50 -> radial clip
    assert np.linalg.norm(a) == pytest.approx(20.0, abs=1e-12)
    assert a[1] / a[0] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_clip_to_norm_noop_inside_ball():
    a = np.array([1.0, 2.0])
    assert np.array_equal(clip_to_norm(a, 20.0), a)


@settings(max_examples=80, deadline=None)
@given(t=st.integers(0, 60), e=st.floats(-50.0, 50.0),
       kind=st.sampled_from(["none", "constant", "ramp"]),
       a_max=st.floats(0.5, 30.0))
def test_norm_bound_always_holds(t, e, kind, a_max):
    if kind == "none":
        plan = AttackPlan.none(dim=1, a_max=a_max)
    elif kind == "constant":
        plan = AttackPlan.constant([17.0], a_max=a_max)
    else:
        plan = AttackPlan.ramp([2.0], a_max=a_max)
    a = attack_at(plan, t, np.array([e]))
    assert np.linalg.norm(a) <= a_max + 1e-9


def test_policy_plan_stage_handling(small_policy):
    plan = AttackPlan.from_policy(small_policy)
    a = attack_at(plan, 1, np.array([0.0]), stage_remaining=4)
    assert np.array_equal(a, small_policy.action_table[3, 12])
    with pytest.raises(AttackError):
        attack_at(plan, 1, np.array([0.0]))  # stage missing


def test_policy_plan_batches(small_policy):
    plan = AttackPlan.from_policy(small_policy)
    errs = np.array([[0.0], [5.0], [-5.0]])
    out = attack_at(plan, 2, errs, stage_remaining=2)
    assert out.shape == (3, 1)
    for i, e in enumerate(errs):
        assert np.array_equal(out[i], attack_at(plan, 2, e, stage_remaining=2))


def test_sequence_plan_ignores_error():
    plan = AttackPlan.sequence([[-3.0], [25.0], [4.0]], a_max=20.0)
    for e in (0.0, 7.5, -40.0):
        assert attack_at(plan, 1, np.array([e]))[0] == -3.0
        assert attack_at(plan, 2, np.array([e]))[0] == 20.0  # clipped
    errs = np.array([[0.0], [5.0], [-5.0]])
    assert np.array_equal(attack_at(plan, 3, errs), np.full((3, 1), 4.0))
    for t in (0, 4):
        with pytest.raises(AttackError):
            attack_at(plan, t, np.zeros(1))


@pytest.mark.parametrize("row", [[23.7], [-0.3], [3.7, -11.3], [0.1, 0.2]])
def test_run_invariant_rows_clip_once(row):
    a_max = 5.3
    row = np.array(row)
    plans = {"constant": (AttackPlan.constant(row, a_max=a_max), 1, row),
             "ramp": (AttackPlan.ramp(row, a_max=a_max), 7, 7.0 * row),
             "sequence": (AttackPlan.sequence([0.5 * row, row, -row],
                                              a_max=a_max), 3, -row)}
    for kind, (plan, t, raw) in plans.items():
        for runs in (1, 4, 257):
            errs = np.linspace(-9.0, 9.0, runs * row.size).reshape(runs, -1)
            got = attack_at(plan, t, errs)
            want = clip_to_norm(np.tile(raw, (runs, 1)), a_max)
            assert got.shape == (runs, row.size), kind
            assert np.array_equal(got, want), (kind, runs)
        single = attack_at(plan, t, np.zeros(row.size))
        assert np.array_equal(single, clip_to_norm(raw[None], a_max)[0]), kind
        single += 1.0  # a fresh array, not a view of the plan
    assert np.array_equal(plans["constant"][0].constant_value, row)
    assert np.array_equal(plans["sequence"][0].values[1], row)
    with pytest.raises(AttackError, match=r"ramp needs t >= 0, got -1"):
        attack_at(plans["ramp"][0], -1, np.zeros((3, row.size)))
    for t in (0, 4):
        with pytest.raises(AttackError, match=rf"sequence covers steps "
                                              rf"1\.\.3, got t = {t}"):
            attack_at(plans["sequence"][0], t, np.zeros((3, row.size)))


def test_nominal_sequence(small_policy):
    nominal = AttackPlan.nominal(small_policy, 3)
    assert nominal.a_max == small_policy.a_max
    for t in (1, 2, 3):  # scalar: the e = 0 stage action, made positive
        assert np.array_equal(attack_at(nominal, t, np.array([9.0])),
                              np.abs(small_policy.action_table[3 - t, 12]))
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
        AttackPlan(kind="sinusoid", dim=1, a_max=20.0)
    with pytest.raises(AttackError):
        AttackPlan(kind="constant", dim=1, a_max=20.0)  # value missing
    with pytest.raises(AttackError):
        AttackPlan.constant([1.0], a_max=-1.0)
    with pytest.raises(AttackError):
        AttackPlan.sequence(np.zeros((0, 1)))  # empty sequence
    with pytest.raises(AttackError):
        AttackPlan(kind="sequence", dim=2, a_max=20.0,
                   values=np.zeros((3, 1)))  # wrong dimension
