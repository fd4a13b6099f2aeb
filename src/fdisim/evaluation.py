"""Seeded Monte-Carlo rollouts of the detection-mitigation loop.

The rollouts are scalar, like the model (lti.SystemModel, five floats)
and the decision problem that `solve` poses.  A rollout starts with the
filter at its steady state: e[0] ~ N(0, P_e).  For t = 1..T the loop
advances the estimation error e, which the control input does not enter:
the attacker injects a[t] computed from e[t-1] (the state of the error
decision process before the step), the chi-square test runs on the
innovation r = CA e[t-1] + C w[t] + v[t] + a[t], and
e[t] = A e[t-1] + w[t] - K (r - i[t] delta[t]) takes the mitigation's
correction on alarms.  e never passes through x - x_hat, so no setpoint
offset costs it digits.  With a controller the loop also advances the
estimate, x_hat[t] = A x_hat[t-1] + alpha (x0 - x_hat[t-1])
+ K (r - i[t] delta[t]), since the setpoint law makes B u = alpha (x0 -
x_hat) and so no control is solved for; it then forms x = x_hat + e.  The
injection and the test statistic are per-step temporaries.  A rollout
command draws its noise once (draw_noise: one stream, read-only blocks)
and hands that Noise to every batch it runs, so they share every random
input whatever their plan, detector or mitigation: cost comparisons and
the paired false-positive / misdetection differences are
common-random-number estimates, not differences of independent ones.

The misdetection and false-positive costs compare the chi-square system
against a reference system whose detector is an oracle: it alarms exactly
when an injection is present.  Both systems run the same plan on the same
pre-drawn noise.  A non-adaptive plan (constant, ramp, sequence) injects
the same values in both; a policy plan reacts to each system's own error
trajectory, so the two systems then face different injections.  The fpmd
command replays the policy's nominal sequence (its stage actions at e = 0
in one sign orientation, see AttackPlan.nominal), so every
detector/mitigation cell of the sweep faces one fixed attack.

Cost[t] averages the cumulative squared error over runs:
Cost[t] = (1/W) sum_w sum_{tau=1..t} e_w[tau]^2.  The costs and the
paired differences read only these per-run sums, which no control input or
initial estimate enters, so compare_attacks, fp_cost and md_cost run the
loop without a controller; the voltage experiment is what reads x and x_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .attack import AttackPlan, attack_at
from .defense import (DetectorConfig, MitigationStrategy, detect, g_statistic,
                      mitigate, oracle_detect)
from .lti import SetpointController, SteadyState, SystemModel
from .numerics import RngStream

__all__ = [
    "BatchRollout",
    "CostReport",
    "EvaluationError",
    "Noise",
    "PairedCost",
    "compare_attacks",
    "draw_noise",
    "empirical_cost",
    "fp_cost",
    "md_cost",
    "rollout_batch",
    "std_err_over_runs",
]


class EvaluationError(ValueError):
    """Raised on rollout or cost-report contract violations."""


@dataclass(frozen=True, eq=False)
class BatchRollout:
    """W simulated runs; e, i and x_hat are (W, T + 1) [run, t] views of
    step-major (T + 1, W) buffers for t = 0..T, so runs are their
    contiguous axis: reduce over runs on a C-ordered copy where the result
    must add the runs in order.  sums is the step-major (T, W) buffer of
    the per-run cost sums, sums[t-1] = sum_{tau=1..t} e[:, tau]^2 added
    step by step; cost_sums is its C-ordered (W, T) copy.

    The alarms i (bool) are zero at t = 0, where the filter starts at its
    steady state.  x_hat, and the plant x = x_hat + e formed on each
    access, are None without a controller.  Not kept: the noises (the
    batch's Noise holds them), and the injection, statistic and control of
    step t: a = attack_at(plan, t, e[:, t-1], stage_remaining=T-t+1),
    g = g_statistic of CA e[:, t-1] + C w[t] + v[t] + a, and
    u = setpoint_control of x_hat[:, t-1], which the loop does not call:
    it adds B u = alpha (x0 - x_hat[:, t-1]) directly.
    """

    e: np.ndarray
    i: np.ndarray
    sums: np.ndarray
    x_hat: np.ndarray | None = None

    @property
    def runs(self) -> int:
        return self.e.shape[0]

    @property
    def horizon(self) -> int:
        return self.e.shape[1] - 1

    @property
    def x(self) -> np.ndarray | None:
        """The plant x = x_hat + e, or None without a controller."""
        return None if self.x_hat is None else self.x_hat + self.e

    @property
    def cost_sums(self) -> np.ndarray:
        """The per-run cost sums as a C-ordered (W, T) copy, so reductions
        over runs add them in order."""
        return np.ascontiguousarray(self.sums.T)

    def detection_frequency(self) -> np.ndarray:
        """Fraction of runs alarming at each t (zero at t = 0)."""
        return self.i.mean(axis=0)


@dataclass(frozen=True, eq=False)
class CostReport:
    """Empirical cumulative cost curve; index k holds Cost[k+1]."""

    cost_per_t: np.ndarray
    std_err_per_t: np.ndarray
    runs: int

    @property
    def horizon(self) -> int:
        return self.cost_per_t.shape[0]

    @property
    def terminal_cost(self) -> float:
        return float(self.cost_per_t[-1])


class PairedCost(NamedTuple):
    """Common-random-number cost difference and its standard error."""

    value: float
    std_error: float


def _check_plan_horizon(plan: AttackPlan, horizon: int) -> None:
    if plan.kind == "policy" and plan.policy.horizon < horizon:
        raise EvaluationError(
            f"policy covers {plan.policy.horizon} stages but the rollout "
            f"horizon is {horizon}; solve with horizon >= T")
    if plan.kind == "sequence" and plan.values.shape[0] < horizon:
        raise EvaluationError(
            f"sequence covers {plan.values.shape[0]} steps but the rollout "
            f"horizon is {horizon}")


class Noise(NamedTuple):
    """The pre-drawn noise of W runs of T steps: e0 is (W,), and w, v and
    b are step-major (T + 1, W) buffers that are zero at t = 0.  All are
    read-only, so every batch handed one Noise shares them.  b is the
    unscaled mitigation block, None unless drawn for noisy mitigation."""

    e0: np.ndarray
    w: np.ndarray
    v: np.ndarray
    b: np.ndarray | None


def _step_major(gen: np.random.Generator, W: int, T: int,
                scale: float = 1.0) -> np.ndarray:
    """A (W, T) draw times `scale` as a read-only (T + 1, W) buffer that is
    zero at t = 0.  The buffer is allocated before the draw, so freeing
    the draw leaves no hole below it."""
    buf = np.zeros((T + 1, W))
    block = gen.standard_normal((W, T))
    block *= scale
    buf[1:] = block.T
    buf.flags.writeable = False
    return buf


def draw_noise(model: SystemModel, ss: SteadyState, T: int, runs: int,
               stream: RngStream, noisy: bool) -> Noise:
    """The stream's blocks for `runs` loops of length T, drawn in a fixed
    order (e0 block, process block, measurement block, mitigation block):
    e0, w and v scaled by sqrt(P_e), sqrt(Q) and sqrt(R), and the
    mitigation block b unscaled, drawn last and only when `noisy`, so e0,
    w and v do not depend on the strategy.
    """
    if T < 1:
        raise EvaluationError(f"horizon must be >= 1, got {T}")
    if runs < 1:
        raise EvaluationError(f"runs must be >= 1, got {runs}")
    gen = stream.generator()
    # P_e rounds to a tiny negative when R is negligible against
    # C^2 P_inf; it scales by 0 then
    l_e, l_q, l_r = (math.sqrt(max(var, 0.0))
                     for var in (ss.P_e, model.Q, model.R))
    e0 = gen.standard_normal(runs) * l_e
    e0.flags.writeable = False
    w = _step_major(gen, runs, T, l_q)
    v = _step_major(gen, runs, T, l_r)
    return Noise(e0, w, v, _step_major(gen, runs, T) if noisy else None)


def rollout_batch(model: SystemModel, ss: SteadyState, plan: AttackPlan,
                  detector: DetectorConfig, strategy: MitigationStrategy,
                  T: int, noise: Noise, runs: int,
                  controller: SetpointController | None = None,
                  oracle: bool = False) -> BatchRollout:
    """Simulate `runs` independent loops of length T on `noise`, which
    must have been drawn for that T and run count (and with its
    mitigation block, for a noisy strategy).

    The loop advances e and the cost sums; with a controller it also
    advances x_hat from the controller's init (None without one).  With
    `oracle=True` the detector is replaced by the reference oracle (alarm
    exactly when a[t] != 0), and the test statistic is not computed.
    """
    e0, w, v, b = noise
    if w.shape != (T + 1, runs):
        raise EvaluationError(
            f"the noise was drawn for T = {w.shape[0] - 1} and "
            f"{w.shape[1]} runs, but the batch has T = {T} and {runs} runs")
    if strategy.kind == "noisy" and b is None:
        raise EvaluationError("noisy mitigation needs a noise drawn with "
                              "its mitigation block (noisy=True)")
    _check_plan_horizon(plan, T)

    # buffers are step-major, (T + 1, W), so each step reads and writes
    # contiguous (W,) rows; the cost sums too, as (T, W)
    e = np.empty((T + 1, runs))
    i = np.zeros((T + 1, runs), dtype=bool)
    sums = np.empty((T, runs))
    e[0] = e0
    if controller is not None:
        alpha, x0 = controller.alpha, controller.x0
        x_hat = np.empty((T + 1, runs))
        x_hat[0] = controller.init
    A, C, K = model.A, model.C, ss.K
    CA = C * A
    # every plan but a policy injects the same value in every run, so its
    # T injections are taken at once
    if plan.kind != "policy":
        injections = attack_at(plan, np.arange(1, T + 1))
    prev = 0.0
    for t in range(1, T + 1):
        a = (attack_at(plan, t, e[t - 1], stage_remaining=T - t + 1)
             if plan.kind == "policy" else injections[t - 1])
        r = e[t - 1] * CA + w[t] * C + v[t] + a
        i[t] = oracle_detect(a) if oracle \
            else detect(detector, g_statistic(ss, r))
        corr = mitigate(strategy, r, a, i[t], None if b is None else b[t]) * K
        e[t] = e[t - 1] * A + w[t] - corr
        prev = np.add(prev, e[t] * e[t], out=sums[t - 1])
        if controller is not None:
            # B u = alpha (x0 - x_hat) by the setpoint law, so the control
            # enters without solving for u
            x_hat[t] = x_hat[t - 1] * A + alpha * (x0 - x_hat[t - 1]) + corr

    return BatchRollout(e=e.T, i=i.T, sums=sums,
                        x_hat=None if controller is None else x_hat.T)


def std_err_over_runs(values: np.ndarray) -> np.ndarray:
    """Standard error of the mean over the leading (run) axis; zero for a
    single run."""
    W = values.shape[0]
    if W > 1:
        return values.std(axis=0, ddof=1) / np.sqrt(W)
    return np.zeros_like(values[0])


def empirical_cost(batch: BatchRollout) -> CostReport:
    """Average cumulative cost curve with across-run standard errors."""
    sums = batch.cost_sums
    return CostReport(cost_per_t=sums.mean(axis=0),
                      std_err_per_t=std_err_over_runs(sums),
                      runs=sums.shape[0])


def compare_attacks(model: SystemModel, ss: SteadyState,
                    plans: Sequence[AttackPlan], detector: DetectorConfig,
                    strategy: MitigationStrategy, T: int, runs: int,
                    noise: Noise) -> list[CostReport]:
    """One CostReport per plan, all plans run on the same noise."""
    if len(plans) == 0:
        raise EvaluationError("need at least one plan to compare")
    return [empirical_cost(rollout_batch(model, ss, plan, detector, strategy,
                                         T, noise, runs))
            for plan in plans]


def _paired_terminal_difference(model: SystemModel, ss: SteadyState,
                                plan: AttackPlan, detector: DetectorConfig,
                                strategy: MitigationStrategy, T: int,
                                runs: int, noise: Noise) -> PairedCost:
    """Cost[T] difference: chi-square system minus oracle reference, with
    common random numbers, so the difference is computed run by run."""
    tested = rollout_batch(model, ss, plan, detector, strategy, T, noise,
                           runs)
    reference = rollout_batch(model, ss, plan, detector, strategy, T, noise,
                              runs, oracle=True)
    diff = tested.sums[-1] - reference.sums[-1]
    return PairedCost(float(diff.mean()), float(std_err_over_runs(diff)))


def fp_cost(model: SystemModel, ss: SteadyState, eta: float,
            strategy: MitigationStrategy, T: int, runs: int,
            noise: Noise) -> PairedCost:
    """Extra cost from false alarms: no attack is injected, so every
    chi-square alarm triggers mitigation against nothing while the oracle
    reference never fires."""
    plan = AttackPlan.none()
    return _paired_terminal_difference(model, ss, plan, DetectorConfig(eta),
                                       strategy, T, runs, noise)


def md_cost(model: SystemModel, ss: SteadyState, eta: float,
            strategy: MitigationStrategy, plan: AttackPlan, T: int,
            runs: int, noise: Noise) -> PairedCost:
    """Extra cost from missed detections under an attack plan: the oracle
    reference alarms on every injected step, so only the injections the
    chi-square detector misses separate the two systems.  A non-adaptive
    plan (constant, ramp, sequence) gives the same injection in both
    systems; a policy plan adapts to each system's own trajectory."""
    if plan.kind == "none":
        raise EvaluationError("misdetection cost needs an attacking plan")
    return _paired_terminal_difference(model, ss, plan, DetectorConfig(eta),
                                       strategy, T, runs, noise)
