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
injection and the test statistic are per-step temporaries; r and the
correction go into two rows taken once per batch, and each step writes
them and e[t], i[t] and x_hat[t] in place with the operations of the
expressions above in their order, so the bits are the expressions'.  An
oracle batch of a non-adaptive plan alarms alike in every run, so only
its alarmed steps call the mitigation.  A rollout
command draws its noise once (draw_noise: one stream, read-only blocks)
and hands that Noise to every batch it runs, so they share every random
input whatever their plan, detector or mitigation: cost comparisons and
the paired false-positive / misdetection differences are
common-random-number estimates, not differences of independent ones.
It also takes one set of Buffers and runs every batch on it, so no batch
faults in fresh pages for its histories.

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
The paired differences read only the terminal sums, added into one (W,)
accumulator.  The curves over runs (cost, voltage) come from
mean_and_std_err, numpy's own steps for mean and std on a held scratch.
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
    "Buffers",
    "CostReport",
    "EvaluationError",
    "Noise",
    "PairedCost",
    "compare_attacks",
    "draw_noise",
    "empirical_cost",
    "fp_cost",
    "md_cost",
    "mean_and_std_err",
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
    must add the runs in order.  A batch run on a command's Buffers views
    them, so the next batch run on them overwrites it: read what it needs
    first.  sums is the step-major (T, W) cumsum over t of e[:, 1:]^2,
    sums[t-1] = sum_{tau=1..t} e[:, tau]^2 added in order of tau, formed
    on each access; cost_sums is its C-ordered (W, T) copy, and
    terminal_sums() its last row alone.

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
    def sums(self) -> np.ndarray:
        """The per-run cost sums, step-major (T, W), added row by row: in
        order of t at any W, where a reduce over the step axis sums a
        single run pairwise and np.add.accumulate walks it run by run."""
        sums = np.square(self.e.T[1:])
        for t in range(1, sums.shape[0]):
            sums[t] += sums[t - 1]
        return sums

    @property
    def cost_sums(self) -> np.ndarray:
        """The per-run cost sums as a C-ordered (W, T) copy, so reductions
        over runs add them in order."""
        return np.ascontiguousarray(self.sums.T)

    def terminal_sums(self) -> np.ndarray:
        """sums[-1], the (W,) per-run sum_{t=1..T} e[:, t]^2, added in
        order of t into one accumulator without forming the (T, W)
        cumsum: the same additions, so the same bits."""
        e = self.e.T
        total = np.square(e[1])
        square = np.empty_like(total)
        for t in range(2, e.shape[0]):
            total += np.square(e[t], out=square)
        return total

    def detection_frequency(self) -> np.ndarray:
        """Fraction of runs alarming at each t (zero at t = 0): each step
        row's alarm count over W, the bits of i.mean(axis=0), which adds
        the same exact integers as floats."""
        return np.array([np.count_nonzero(row) for row in self.i.T]) \
            / self.runs


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


class Buffers(NamedTuple):
    """The buffers that batches write into: e, the bool alarms i and,
    for a controlled loop, x_hat, all step-major (T + 1, W), and the
    controlled loop's C-ordered (W, T + 1) plant x, which
    voltage_attack_experiment forms, and scratch, of x's shape, on which
    it aggregates the curves over runs (see mean_and_std_err).  A rollout
    command takes them once and runs every batch on them, so no batch
    faults in fresh pages for its histories or its aggregation; each
    batch overwrites the one before."""

    e: np.ndarray
    i: np.ndarray
    x_hat: np.ndarray | None
    x: np.ndarray | None
    scratch: np.ndarray | None

    @classmethod
    def allocate(cls, T: int, runs: int, controlled: bool = False) -> Buffers:
        """Buffers for batches of `runs` loops of length T."""
        e = np.empty((T + 1, runs))
        i = np.empty((T + 1, runs), dtype=bool)
        if not controlled:
            return cls(e, i, None, None, None)
        return cls(e, i, np.empty((T + 1, runs)), np.empty((runs, T + 1)),
                   np.empty((runs, T + 1)))


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
                  oracle: bool = False,
                  buffers: Buffers | None = None) -> BatchRollout:
    """Simulate `runs` independent loops of length T on `noise`, which
    must have been drawn for that T and run count (and with its
    mitigation block, for a noisy strategy).

    The loop advances e; with a controller it also advances x_hat from
    the controller's init (None without one).  With `oracle=True` the
    detector is replaced by the reference oracle (alarm exactly when
    a[t] != 0), and the test statistic is not computed.  The batch is
    written into `buffers` (taken for that T and run count, and
    controlled if the batch is), or into fresh ones.
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
    if buffers is None:
        buffers = Buffers.allocate(T, runs, controller is not None)
    elif buffers.e.shape != (T + 1, runs) or (
            controller is not None and buffers.x_hat is None):
        raise EvaluationError(
            f"the buffers were taken for T = {buffers.e.shape[0] - 1} and "
            f"{buffers.e.shape[1]} runs"
            f"{'' if buffers.x_hat is None else ' with a controller'}, but "
            f"the batch has T = {T} and {runs} runs"
            f"{'' if controller is None else ' with a controller'}")

    # buffers are step-major, (T + 1, W), so each step reads and writes
    # contiguous (W,) rows
    e, i = buffers.e, buffers.i
    e[0] = e0
    i[0] = False
    if controller is not None:
        alpha, x0 = controller.alpha, controller.x0
        x_hat = buffers.x_hat
        x_hat[0] = controller.init
    A, C, K = model.A, model.C, ss.K
    CA = C * A
    # every plan but a policy injects the same value in every run, so its
    # T injections are taken at once, and an oracle's alarm on one is a
    # single bool
    if plan.kind != "policy":
        injections = attack_at(plan, np.arange(1, T + 1))
    # r = CA e[t-1] + C w[t] + v[t] + a and the correction
    # K mitigate(r) go into two rows taken once per batch, in the
    # expressions' order of operations, so their bits
    r, corr = np.empty(runs), np.empty(runs)
    for t in range(1, T + 1):
        a = (attack_at(plan, t, e[t - 1], stage_remaining=T - t + 1)
             if plan.kind == "policy" else injections[t - 1])
        np.multiply(e[t - 1], CA, out=r)
        r += np.multiply(w[t], C, out=corr)
        r += v[t]
        r += a
        if oracle:
            i[t] = alarm = oracle_detect(a)
        else:
            alarm = detect(detector, g_statistic(ss, r), out=i[t])
        if np.ndim(alarm) == 0 and not alarm:
            # no run alarms, so the mitigation subtracts nothing: r - 0 delta
            # is r
            np.multiply(r, K, out=corr)
        else:
            mitigate(strategy, r, a, alarm, None if b is None else b[t],
                     out=corr)
            corr *= K
        np.multiply(e[t - 1], A, out=e[t])
        e[t] += w[t]
        e[t] -= corr
        if controller is not None:
            # B u = alpha (x0 - x_hat) by the setpoint law, so the control
            # enters without solving for u; r is free again
            np.subtract(x0, x_hat[t - 1], out=r)
            r *= alpha
            np.multiply(x_hat[t - 1], A, out=x_hat[t])
            x_hat[t] += r
            x_hat[t] += corr

    return BatchRollout(e=e.T, i=i.T,
                        x_hat=None if controller is None else x_hat.T)


def std_err_over_runs(values: np.ndarray) -> np.ndarray:
    """Standard error of the mean over the leading (run) axis; zero for a
    single run."""
    W = values.shape[0]
    if W > 1:
        return values.std(axis=0, ddof=1) / np.sqrt(W)
    return np.zeros_like(values[0])


def mean_and_std_err(values: np.ndarray, scratch: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """values.mean(axis=0) and std_err_over_runs(values) of a C-ordered
    (W, k) array, bit for bit: numpy's own steps for mean and
    std(ddof=1) (sum over runs, divide by W, subtract, square, sum,
    divide by W - 1, square root), then a divide by sqrt(W), with the
    mean taken once for both.  The squared deviations are written into
    `scratch`, a C-ordered array of values' shape, if given, in place of
    a fresh (W, k) array."""
    W = values.shape[0]
    mean = np.add.reduce(values, axis=0)
    mean /= W
    if W == 1:
        return mean, np.zeros_like(mean)
    dev = np.subtract(values, mean, out=scratch)
    np.square(dev, out=dev)
    std_err = np.add.reduce(dev, axis=0)
    std_err /= W - 1
    np.sqrt(std_err, out=std_err)
    std_err /= math.sqrt(W)
    return mean, std_err


def empirical_cost(batch: BatchRollout,
                   scratch: np.ndarray | None = None) -> CostReport:
    """Average cumulative cost curve with across-run standard errors,
    aggregated on `scratch` (see mean_and_std_err) if given."""
    sums = batch.cost_sums
    mean, std_err = mean_and_std_err(sums, scratch)
    return CostReport(cost_per_t=mean, std_err_per_t=std_err,
                      runs=sums.shape[0])


def compare_attacks(model: SystemModel, ss: SteadyState,
                    plans: Sequence[AttackPlan], detector: DetectorConfig,
                    strategy: MitigationStrategy, T: int, runs: int,
                    noise: Noise) -> list[CostReport]:
    """One CostReport per plan, all plans run on the same noise and the
    same buffers, and aggregated on one scratch."""
    if len(plans) == 0:
        raise EvaluationError("need at least one plan to compare")
    buffers, scratch = Buffers.allocate(T, runs), np.empty((runs, T))
    return [empirical_cost(rollout_batch(model, ss, plan, detector, strategy,
                                         T, noise, runs, buffers=buffers),
                           scratch)
            for plan in plans]


def _paired_terminal_difference(model: SystemModel, ss: SteadyState,
                                plan: AttackPlan, detector: DetectorConfig,
                                strategy: MitigationStrategy, T: int,
                                runs: int, noise: Noise,
                                buffers: Buffers | None) -> PairedCost:
    """Cost[T] difference: chi-square system minus oracle reference, with
    common random numbers, so the difference is computed run by run."""
    diff = rollout_batch(model, ss, plan, detector, strategy, T, noise,
                         runs, buffers=buffers).terminal_sums()
    diff -= rollout_batch(model, ss, plan, detector, strategy, T, noise,
                          runs, oracle=True, buffers=buffers).terminal_sums()
    return PairedCost(float(diff.mean()), float(std_err_over_runs(diff)))


def fp_cost(model: SystemModel, ss: SteadyState, eta: float,
            strategy: MitigationStrategy, T: int, runs: int,
            noise: Noise, buffers: Buffers | None = None) -> PairedCost:
    """Extra cost from false alarms: no attack is injected, so every
    chi-square alarm triggers mitigation against nothing while the oracle
    reference never fires.  Both batches run on `buffers` if given."""
    plan = AttackPlan.none()
    return _paired_terminal_difference(model, ss, plan, DetectorConfig(eta),
                                       strategy, T, runs, noise, buffers)


def md_cost(model: SystemModel, ss: SteadyState, eta: float,
            strategy: MitigationStrategy, plan: AttackPlan, T: int,
            runs: int, noise: Noise,
            buffers: Buffers | None = None) -> PairedCost:
    """Extra cost from missed detections under an attack plan: the oracle
    reference alarms on every injected step, so only the injections the
    chi-square detector misses separate the two systems.  A non-adaptive
    plan (constant, ramp, sequence) gives the same injection in both
    systems; a policy plan adapts to each system's own trajectory.  Both
    batches run on `buffers` if given."""
    if plan.kind == "none":
        raise EvaluationError("misdetection cost needs an attacking plan")
    return _paired_terminal_difference(model, ss, plan, DetectorConfig(eta),
                                       strategy, T, runs, noise, buffers)
