"""Injection plans: what the attacker adds to the measurements.

A plan maps (time step, observed error, stages remaining) to an injection
with norm at most a_max. Baselines are the constant and ramp schedules; the
solved plan replays a stage-indexed MDP policy by stages remaining. A
sequence plan injects a fixed per-step schedule whatever the error; its
nominal form is a policy's stage actions at e = 0, made nonnegative, the
attack the policy commits to before seeing any error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Policy, policy_lookup


class AttackError(ValueError):
    """Raised for malformed attack plans or lookups."""


def clip_to_norm(a: np.ndarray, a_max: float) -> np.ndarray:
    """Radially clip rows of a to the closed ball of radius a_max."""
    a = np.asarray(a, dtype=float)
    norms = np.linalg.norm(np.atleast_2d(a), axis=1)
    excess = norms > a_max
    if not np.any(excess):
        return a
    scale = np.ones_like(norms)
    scale[excess] = a_max / norms[excess]
    return a * (scale[:, None] if a.ndim == 2 else scale[0])


@dataclass(frozen=True, eq=False)
class AttackPlan:
    """Injection schedule; build via the none/constant/ramp/sequence/
    from_policy/nominal constructors. `dim` is the measurement dimension."""

    kind: str
    dim: int
    a_max: float
    constant_value: np.ndarray | None = None
    slope: np.ndarray | None = None
    policy: Policy | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("none", "constant", "ramp", "sequence", "policy"):
            raise AttackError(f"unknown attack kind {self.kind!r}")
        if self.a_max < 0.0:
            raise AttackError(f"a_max must be >= 0, got {self.a_max}")
        if self.kind == "constant" and (self.constant_value is None
                                        or self.constant_value.size != self.dim):
            raise AttackError("constant plan needs an m-vector value")
        if self.kind == "ramp" and (self.slope is None
                                    or self.slope.size != self.dim):
            raise AttackError("ramp plan needs an m-vector slope")
        if self.kind == "sequence" and (
                self.values is None or self.values.ndim != 2
                or self.values.shape[0] < 1 or self.values.shape[1] != self.dim):
            raise AttackError("sequence plan needs a (T, m) array of "
                              "injections, T >= 1")
        if self.kind == "policy" and self.policy is None:
            raise AttackError("policy plan needs a solved Policy")

    @classmethod
    def none(cls, dim: int = 1, a_max: float = 20.0) -> "AttackPlan":
        return cls(kind="none", dim=dim, a_max=a_max)

    @classmethod
    def constant(cls, value, a_max: float = 20.0) -> "AttackPlan":
        value = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(kind="constant", dim=value.size, a_max=a_max,
                   constant_value=value)

    @classmethod
    def ramp(cls, slope, a_max: float = 20.0) -> "AttackPlan":
        slope = np.atleast_1d(np.asarray(slope, dtype=float))
        return cls(kind="ramp", dim=slope.size, a_max=a_max, slope=slope)

    @classmethod
    def sequence(cls, values, a_max: float = 20.0) -> "AttackPlan":
        """Row t-1 of the (T, m) `values` is injected at step t."""
        values = np.asarray(values, dtype=float)
        return cls(kind="sequence", dim=values.shape[-1], a_max=a_max,
                   values=values)

    @classmethod
    def from_policy(cls, policy: Policy) -> "AttackPlan":
        return cls(kind="policy", dim=policy.actions.shape[1],
                   a_max=policy.a_max, policy=policy)

    @classmethod
    def nominal(cls, policy: Policy, horizon: int) -> "AttackPlan":
        """Sequence plan of the policy's stage actions at e = 0: step t of
        `horizon` injects |policy_lookup(policy, horizon - t + 1, 0)|, a
        one-column (horizon, 1) sequence.

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
        values = np.array([policy_lookup(policy, horizon - t + 1, [0.0])
                           for t in range(1, horizon + 1)])
        return cls.sequence(np.abs(values), a_max=policy.a_max)


def attack_at(plan: AttackPlan, t: int, e_attacker,
              stage_remaining: int | None = None) -> np.ndarray:
    """Injection applied to the measurement at step t (t >= 1).

    e_attacker is the error the attacker observed before the step, a single
    (n,) vector or a batch (B, n); the result has matching leading shape.
    Sequence plans need 1 <= t <= their length; policy plans need
    stage_remaining. The returned injection always satisfies
    ||a|| <= a_max. Every plan but a policy gives all rows the same
    injection, so that one row is clipped, then tiled.
    """
    e_attacker = np.asarray(e_attacker, dtype=float)
    if plan.kind == "policy":
        if stage_remaining is None:
            raise AttackError("policy plan needs stage_remaining")
        return clip_to_norm(policy_lookup(plan.policy, stage_remaining,
                                          e_attacker), plan.a_max)
    if plan.kind == "none":
        row = np.zeros(plan.dim)
    elif plan.kind == "constant":
        row = plan.constant_value
    elif plan.kind == "ramp":
        if t < 0:
            raise AttackError(f"ramp needs t >= 0, got {t}")
        row = float(t) * plan.slope
    else:
        if not 1 <= t <= plan.values.shape[0]:
            raise AttackError(f"sequence covers steps 1..{plan.values.shape[0]},"
                              f" got t = {t}")
        row = plan.values[t - 1]
    row = clip_to_norm(row, plan.a_max)
    if e_attacker.ndim == 2:
        return np.tile(row, (e_attacker.shape[0], 1))
    return row.copy()
