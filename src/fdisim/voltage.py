"""Voltage-control instantiation: A = 1, C = 1, setpoint regulation.

The plant state is one pilot-bus voltage in per-unit; the control input
is one generator setpoint increment.  The voltage responds through an
unknown gain B which is estimated from recorded traces of voltage
increments x[t+1] - x[t] against the applied inputs by least squares.
The experiment runs the scalar loop of evaluation.rollout_batch and
aggregates its curves over runs with evaluation.mean_and_std_err on the
command's Buffers (the plant x and a scratch of its shape).  The
`voltage` configuration preset regulates one bus from 1.0 pu to a
setpoint of 0.835 pu; its noise covariances reuse the abstract benchmark
values scaled into per-unit (0.01 pu per abstract unit), which keeps the
chi-square detector's operating point identical because the g statistic
is scale-invariant.

Trace files are CSV with header ``t,x_1,u_1``, one row per time step.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .attack import AttackPlan
from .defense import DetectorConfig, MitigationStrategy
from .evaluation import Buffers, Noise, mean_and_std_err, rollout_batch
from .lti import SetpointController, SteadyState, SystemModel
from .numerics import RngStream

__all__ = [
    "BEstimate",
    "TraceSet",
    "VoltageError",
    "VoltageRun",
    "estimate_B",
    "load_traces",
    "save_traces",
    "synthesize_traces",
    "voltage_attack_experiment",
]

class VoltageError(ValueError):
    """Raised on malformed traces or unidentifiable gains."""


@dataclass(frozen=True, eq=False)
class TraceSet:
    """Recorded (x[t], u[t]) pairs of one bus and one input, as (N,)
    arrays of voltages x and inputs u."""

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if x.ndim != 1 or u.ndim != 1:
            raise VoltageError(
                f"traces must be (N,) arrays of one bus and one input, got "
                f"shapes {x.shape} and {u.shape}")
        if x.size != u.size:
            raise VoltageError(
                f"trace lengths disagree: {x.size} voltage rows vs "
                f"{u.size} input rows")
        if x.size < 2:
            raise VoltageError(
                f"need at least 2 samples to identify the gain, got {x.size}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
            raise VoltageError("traces contain non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    def __len__(self) -> int:
        return self.x.size


class BEstimate(NamedTuple):
    """Least-squares gain estimate with residual variance."""

    B: float
    residual_var: float


def estimate_B(traces: TraceSet) -> BEstimate:
    """Least-squares fit of x[t+1] - x[t] = B u[t].

    The residual variance doubles as a process-noise estimate for
    configuring the simulated plant.
    """
    d = traces.x[1:] - traces.x[:-1]
    u = traces.u[:-1]
    coef, _, rank, _ = np.linalg.lstsq(u[:, None], d, rcond=None)
    if rank == 0:
        raise VoltageError("the input is zero throughout; the gain is "
                           "unidentifiable from this trace")
    B = float(coef[0])
    r = d - u * B
    return BEstimate(B=B, residual_var=float(r @ r / max(len(traces) - 2, 1)))


def synthesize_traces(B: float, length: int, stream: RngStream,
                      noise_var=None, u_scale: float = 0.05) -> TraceSet:
    """Generate an excitation trace from the incremental plant model.

    Inputs are i.i.d. N(0, u_scale^2), which keeps the regressor nonzero;
    noise_var=None gives a noiseless trace. TraceSet refuses a length
    below 2.
    """
    gen = stream.generator()
    u = u_scale * gen.standard_normal(length)
    w = np.zeros(length)
    if noise_var is not None:
        w = math.sqrt(noise_var) * gen.standard_normal(length)
    x = np.zeros(length)
    for t in range(length - 1):
        x[t + 1] = x[t] + B * u[t] + w[t]
    return TraceSet(x=x, u=u)


_TRACE_HEADER = ["t", "x_1", "u_1"]


def load_traces(path) -> TraceSet:
    """Parse a trace CSV; every complaint about a line carries its 1-based
    line number. TraceSet checks the whole trace (its length against the
    2 samples a gain needs), and its refusals carry the path."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise VoltageError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise VoltageError(f"{path}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise VoltageError(f"{path}: empty file") from None
    header = [col.strip() for col in header]
    if header != _TRACE_HEADER:
        raise VoltageError(
            f"{path}:1: header must be {','.join(_TRACE_HEADER)}, as the "
            f"model is scalar (one bus, one input), got {','.join(header)}")
    xs, us = [], []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != 3:
            raise VoltageError(
                f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        try:
            x, u = float(row[1]), float(row[2])
        except ValueError as exc:
            raise VoltageError(f"{path}:{lineno}: {exc}") from None
        xs.append(x)
        us.append(u)
    try:
        return TraceSet(x=xs, u=us)
    except VoltageError as exc:
        raise VoltageError(f"{path}: {exc}") from None


def save_traces(path, traces: TraceSet) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_TRACE_HEADER) + "\n")
        for t, (x, u) in enumerate(zip(traces.x, traces.u)):
            fh.write("%d,%.17g,%.17g\n" % (t, x, u))


@dataclass(frozen=True, eq=False)
class VoltageRun:
    """Rollout aggregate for one attack plan on the scalar voltage loop.

    Curves are indexed by t = 0..T.  mean_abs_deviation tracks the
    across-run mean of |x[t] - x0|; the policy rides the sign of the
    initial estimation error, so the plain mean voltage can sit at the
    setpoint while every single run deviates.
    """

    mean_voltage: np.ndarray
    voltage_std_err: np.ndarray
    mean_abs_deviation: np.ndarray
    abs_deviation_std_err: np.ndarray
    detect_frequency: np.ndarray


def voltage_attack_experiment(model: SystemModel, ss: SteadyState,
                              controller: SetpointController,
                              plan: AttackPlan, eta: float,
                              strategy: MitigationStrategy, T: int, runs: int,
                              noise: Noise,
                              buffers: Buffers | None = None) -> VoltageRun:
    """Roll out the voltage loop from the controller's init under one plan
    and aggregate the curves; deviations are measured from its x0.  The
    batch, its plant and the aggregation's scratch are `buffers`
    (controlled ones) if given."""
    if buffers is None:
        buffers = Buffers.allocate(T, runs, controlled=True)
    batch = rollout_batch(model, ss, plan, DetectorConfig(eta), strategy, T,
                          noise, runs, controller=controller, buffers=buffers)
    # the plant x = x_hat + e formed C-ordered, so the reductions over runs
    # add them in order (see BatchRollout), shifted by x0 in place for the
    # deviations
    x = np.add(batch.x_hat, batch.e, out=buffers.x)
    mean_voltage, voltage_std_err = mean_and_std_err(x, buffers.scratch)
    x -= controller.x0
    dev = np.abs(x, out=x)
    mean_dev, dev_std_err = mean_and_std_err(dev, buffers.scratch)
    return VoltageRun(
        mean_voltage=mean_voltage,
        voltage_std_err=voltage_std_err,
        mean_abs_deviation=mean_dev,
        abs_deviation_std_err=dev_std_err,
        detect_frequency=batch.detection_frequency(),
    )
