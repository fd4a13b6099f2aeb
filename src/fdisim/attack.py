"""Injection plans: what the attacker adds to the measurements.

A plan maps (time step, observed error, stages remaining) to a scalar
injection a with |a| <= a_max. Baselines are the constant and ramp
schedules; the solved plan replays a stage-indexed MDP policy by stages
remaining. A sequence plan injects a fixed per-step schedule whatever the
error; its nominal form is a policy's stage actions at e = 0, made
nonnegative, the attack the policy commits to before seeing any error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Policy, policy_lookup


class AttackError(ValueError):
    """Raised for malformed attack plans or lookups."""


def clip_to_norm(a, a_max: float) -> np.ndarray:
    """Clip scalar injections to [-a_max, a_max]: an entry past the bound is
    scaled by a_max / |a|, the radial clip of a one-entry vector."""
    a = np.asarray(a, dtype=float)
    size = np.abs(a)
    excess = size > a_max
    if not np.any(excess):
        return a
    scale = np.ones_like(size)
    scale[excess] = a_max / size[excess]
    return a * scale


@dataclass(frozen=True, eq=False)
class AttackPlan:
    """Injection schedule; build via the none/constant/ramp/sequence/
    from_policy/nominal constructors. Injections are scalars, like the
    measurements of the loop they attack: a constant or ramp plan takes
    one float, a sequence a (T,) array."""

    kind: str
    a_max: float
    constant_value: float | None = None
    slope: float | None = None
    policy: Policy | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("none", "constant", "ramp", "sequence", "policy"):
            raise AttackError(f"unknown attack kind {self.kind!r}")
        if self.a_max < 0.0:
            raise AttackError(f"a_max must be >= 0, got {self.a_max}")
        name = {"constant": "constant_value", "ramp": "slope"}.get(self.kind)
        if name is not None and getattr(self, name) is None:
            raise AttackError(f"{self.kind} plan needs a {name}")
        if self.kind == "sequence" and (
                self.values is None or self.values.ndim != 1
                or self.values.shape[0] < 1):
            raise AttackError("sequence plan needs a (T,) array of "
                              "injections, T >= 1")
        if self.kind == "policy" and self.policy is None:
            raise AttackError("policy plan needs a solved Policy")

    @classmethod
    def none(cls, a_max: float = 20.0) -> "AttackPlan":
        return cls(kind="none", a_max=a_max)

    @classmethod
    def constant(cls, value, a_max: float = 20.0) -> "AttackPlan":
        return cls(kind="constant", a_max=a_max, constant_value=value)

    @classmethod
    def ramp(cls, slope, a_max: float = 20.0) -> "AttackPlan":
        return cls(kind="ramp", a_max=a_max, slope=slope)

    @classmethod
    def sequence(cls, values, a_max: float = 20.0) -> "AttackPlan":
        """Entry t-1 of the (T,) `values` is injected at step t."""
        return cls(kind="sequence", a_max=a_max,
                   values=np.asarray(values, dtype=float))

    @classmethod
    def from_policy(cls, policy: Policy) -> "AttackPlan":
        return cls(kind="policy", a_max=policy.a_max, policy=policy)

    @classmethod
    def nominal(cls, policy: Policy, horizon: int) -> "AttackPlan":
        """Sequence plan of the policy's stage actions at e = 0: step t of
        `horizon` injects |policy_lookup(policy, horizon - t + 1, 0)|.

        With zero-mean noise and a quadratic detector the problem is
        symmetric under (e, a) -> (-e, -a), so at e = 0 an action and its
        negative have equal value and the policy picks between them by
        rounding. One orientation for every stage makes the sequence
        independent of those ties; off e = 0 the policy keeps pushing the
        error the way it already moved, so it does not reverse either.
        """
        if horizon > policy.horizon:
            raise AttackError(f"policy covers {policy.horizon} stages, too "
                              f"few for a nominal sequence of {horizon} steps")
        values = [policy_lookup(policy, horizon - t + 1, 0.0)
                  for t in range(1, horizon + 1)]
        return cls.sequence(np.abs(values), a_max=policy.a_max)


def attack_at(plan: AttackPlan, t, e_attacker=None,
              stage_remaining: int | None = None) -> np.ndarray:
    """Injection applied to the measurement at step t (t >= 1), clipped by
    clip_to_norm so that |a| <= a_max.

    A policy plan looks its action up at the error the attacker observed
    before the step, a float or a (W,) batch of them, and needs
    stage_remaining. Every other plan injects what its schedule gives at
    t whatever the error, so t may be an array of steps: rollout_batch
    takes such a plan's T injections in one call. Sequence plans need
    1 <= t <= their length.
    """
    if plan.kind == "policy":
        if stage_remaining is None:
            raise AttackError("policy plan needs stage_remaining")
        return clip_to_norm(policy_lookup(plan.policy, stage_remaining,
                                          e_attacker), plan.a_max)
    t = np.asarray(t)
    if plan.kind == "none":
        raw = np.zeros(t.shape)
    elif plan.kind == "constant":
        raw = np.full(t.shape, plan.constant_value)
    elif plan.kind == "ramp":
        if np.any(t < 0):
            raise AttackError(f"ramp needs t >= 0, got {t}")
        raw = t * plan.slope
    else:
        if np.any((t < 1) | (t > plan.values.shape[0])):
            raise AttackError(f"sequence covers steps 1..{plan.values.shape[0]},"
                              f" got t = {t}")
        raw = plan.values[t - 1]
    return clip_to_norm(raw, plan.a_max)
