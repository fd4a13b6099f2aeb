"""Voltage-control instantiation: A = I, C = I, setpoint regulation.

The plant state is the vector of pilot-bus voltages in per-unit; the
control input is the vector of generator setpoint increments.  Voltages
respond through an unknown gain matrix B which is estimated from recorded
traces of voltage increments x[t+1] - x[t] against the applied inputs by
least squares.  The `voltage` configuration preset regulates one bus from
1.0 pu to a setpoint of 0.835 pu; its noise covariances reuse the abstract
benchmark values scaled into per-unit (0.01 pu per abstract unit), which
keeps the chi-square detector's operating point identical because the g
statistic is scale-invariant.

Trace files are CSV with header ``t,x_1..x_n,u_1..u_p``, one row per time
step; dimensions are inferred from the header.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .attack import AttackPlan
from .defense import DetectorConfig, MitigationStrategy
from .evaluation import rollout_batch, std_err_over_runs
from .lti import SetpointController, SteadyState, SystemModel
from .numerics import RngStream, psd_factor

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
    """Recorded (x[t], u[t]) pairs; x (N, n) voltages, u (N, p) inputs."""

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        if x.shape[0] != u.shape[0]:
            raise VoltageError(
                f"trace lengths disagree: {x.shape[0]} voltage rows vs "
                f"{u.shape[0]} input rows")
        n, p = x.shape[1], u.shape[1]
        if x.shape[0] < n * p + 1:
            raise VoltageError(
                f"need at least n*p + 1 = {n * p + 1} samples to identify "
                f"an {n}x{p} gain, got {x.shape[0]}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
            raise VoltageError("traces contain non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    def __len__(self) -> int:
        return self.x.shape[0]


class BEstimate(NamedTuple):
    """Least-squares gain estimate with residual covariance."""

    B: np.ndarray
    residual_cov: np.ndarray


def estimate_B(traces: TraceSet) -> BEstimate:
    """Least-squares fit of x[t+1] - x[t] = B u[t].

    The residual covariance doubles as a process-noise estimate for
    configuring the simulated plant.
    """
    d = traces.x[1:] - traces.x[:-1]
    regressors = traces.u[:-1]
    p = regressors.shape[1]
    rank = np.linalg.matrix_rank(regressors)
    if rank < p:
        raise VoltageError(
            f"input samples span only {rank} of {p} directions; the gain "
            f"is unidentifiable from this trace")
    coef, *_ = np.linalg.lstsq(regressors, d, rcond=None)
    residuals = d - regressors @ coef
    dof = max(residuals.shape[0] - p, 1)
    residual_cov = residuals.T @ residuals / dof
    return BEstimate(B=coef.T, residual_cov=residual_cov)


def synthesize_traces(B, length: int, stream: RngStream,
                      noise_cov=None, u_scale: float = 0.05) -> TraceSet:
    """Generate an excitation trace from the incremental plant model.

    Inputs are i.i.d. N(0, u_scale^2) per channel, which keeps the
    regressor block full rank; noise_cov=None gives a noiseless trace.
    TraceSet refuses a length below n*p + 1.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, p = B.shape
    gen = stream.generator()
    u = u_scale * gen.standard_normal((length, p))
    w = np.zeros((length, n))
    if noise_cov is not None:
        noise_cov = np.atleast_2d(np.asarray(noise_cov, dtype=float))
        w = gen.standard_normal((length, n)) @ psd_factor(noise_cov).T
    x = np.zeros((length, n))
    for t in range(length - 1):
        x[t + 1] = x[t] + B @ u[t] + w[t]
    return TraceSet(x=x, u=u)


def _trace_header(n: int, p: int) -> list[str]:
    return (["t"] + [f"x_{j}" for j in range(1, n + 1)]
            + [f"u_{j}" for j in range(1, p + 1)])


def load_traces(path) -> TraceSet:
    """Parse a trace CSV; every complaint about a line carries its 1-based
    line number. TraceSet checks the whole trace (its length against the
    n*p + 1 samples a gain needs), and its refusals carry the path."""
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
    if not header or header[0] != "t":
        raise VoltageError(
            f"{path}:1: header must start with 't', got {header[:1]}")
    n = sum(1 for col in header if col.startswith("x_"))
    p = sum(1 for col in header if col.startswith("u_"))
    if n == 0 or p == 0 or header != _trace_header(n, p):
        raise VoltageError(
            f"{path}:1: header must be t,x_1..x_n,u_1..u_p, "
            f"got {','.join(header)}")
    xs, us = [], []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != 1 + n + p:
            raise VoltageError(
                f"{path}:{lineno}: expected {1 + n + p} fields, "
                f"got {len(row)}")
        try:
            values = [float(field) for field in row[1:]]
        except ValueError as exc:
            raise VoltageError(f"{path}:{lineno}: {exc}") from None
        xs.append(values[:n])
        us.append(values[n:])
    try:
        return TraceSet(x=np.reshape(xs, (-1, n)), u=np.reshape(us, (-1, p)))
    except VoltageError as exc:
        raise VoltageError(f"{path}: {exc}") from None


def save_traces(path, traces: TraceSet) -> None:
    n, p = traces.x.shape[1], traces.u.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_trace_header(n, p)) + "\n")
        for t in range(len(traces)):
            fields = [str(t)] + ["%.17g" % val for val in traces.x[t]] \
                + ["%.17g" % val for val in traces.u[t]]
            fh.write(",".join(fields) + "\n")


@dataclass(frozen=True, eq=False)
class VoltageRun:
    """Rollout aggregate for one attack plan on the voltage loop.

    Curves are indexed by t = 0..T.  mean_abs_deviation tracks the
    across-run mean of ||x[t] - x0||; the policy rides the sign of the
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
                              stream: RngStream) -> VoltageRun:
    """Roll out the voltage loop from the controller's init under one plan
    and aggregate the curves; deviations are measured from its x0."""
    batch = rollout_batch(model, ss, plan, DetectorConfig(eta), strategy, T,
                          stream, runs, controller=controller)
    # reduce over runs on a C-ordered copy so the runs add in order (see
    # BatchRollout), shifted by x0 in place for the deviations
    x = np.ascontiguousarray(batch.x)
    mean_voltage, voltage_std_err = x.mean(axis=0), std_err_over_runs(x)
    x -= controller.x0
    # the norm's own arithmetic, without np.linalg.norm's overhead;
    # einsum is faster but rounds differently from n = 3 up
    dev = np.sqrt((x * x).sum(axis=2))
    return VoltageRun(
        mean_voltage=mean_voltage,
        voltage_std_err=voltage_std_err,
        mean_abs_deviation=dev.mean(axis=0),
        abs_deviation_std_err=std_err_over_runs(dev),
        detect_frequency=batch.detection_frequency(),
    )
