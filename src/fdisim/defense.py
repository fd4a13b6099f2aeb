"""Residual-based attack detection and reactive mitigation.

The detector computes g = r P_r^-1 r from the scalar innovation r (the
rollouts are scalar, see evaluation) and alarms when g exceeds a threshold
eta (strictly; g == eta does not alarm). On alarm the mitigation subtracts
a correction delta from the attacked measurement before it reaches the
filter. A perfect correction removes the injection exactly; a noisy one
adds zero-mean Gaussian error on top; "off" leaves the measurement
untouched. The oracle detector alarms exactly when an injection is present
and is the reference point for false-positive and missed-detection
costing. Every function here works elementwise on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lti import SteadyState


class DefenseError(ValueError):
    """Raised for invalid detector or mitigation configuration."""


@dataclass(frozen=True)
class DetectorConfig:
    """Chi-square residual detector with alarm threshold eta >= 0.

    eta = 0 alarms on any nonzero statistic; eta = inf never alarms.
    """

    eta: float

    def __post_init__(self):
        eta = float(self.eta)
        if math.isnan(eta) or eta < 0.0:
            raise DefenseError(f"eta must be >= 0, got {eta}")
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True)
class MitigationStrategy:
    """Reactive correction policy: 'perfect' (delta = a), 'noisy'
    (delta = a + b with b ~ N(0, sigma_mit^2 I)), or 'off' (delta = 0)."""

    kind: str
    sigma_mit: float = 0.0

    def __post_init__(self):
        if self.kind not in ("perfect", "noisy", "off"):
            raise DefenseError(f"unknown mitigation kind {self.kind!r}")
        if self.sigma_mit < 0.0 or math.isnan(self.sigma_mit):
            raise DefenseError(f"sigma_mit must be >= 0, got {self.sigma_mit}")
        if self.kind != "noisy" and self.sigma_mit != 0.0:
            raise DefenseError(f"sigma_mit only applies to 'noisy', got "
                               f"{self.kind!r} with sigma_mit={self.sigma_mit}")

    @classmethod
    def perfect(cls) -> "MitigationStrategy":
        return cls("perfect")

    @classmethod
    def noisy(cls, sigma_mit: float) -> "MitigationStrategy":
        return cls("noisy", float(sigma_mit))

    @classmethod
    def off(cls) -> "MitigationStrategy":
        return cls("off")


def g_statistic(ss: SteadyState, r) -> np.ndarray:
    """Quadratic detection statistic r P_r^-1 r of scalar innovations,
    elementwise over an array of them."""
    r = np.asarray(r, dtype=float)
    return r * ss.P_r_inv * r


def detect(detector: DetectorConfig, g) -> np.ndarray:
    """Alarm indicator: True where g > eta (boundary does not alarm)."""
    return np.asarray(g) > detector.eta


def oracle_detect(a_true) -> np.ndarray:
    """Reference detector: alarms exactly when an injection is present."""
    return np.asarray(a_true, dtype=float) != 0.0


def mitigate(strategy: MitigationStrategy, y_a, a, alarm, b) -> np.ndarray:
    """Defended signal y_f = y_a - alarm * delta, elementwise.

    The correction delta is computed from the true injection a: a itself
    ('perfect'), zero ('off'), or a + sigma_mit * b ('noisy') with b a
    pre-drawn standard normal draw shaped like y_a. The noise block is an
    input, so it is consumed whether or not an alarm fires, which keeps
    paired experiments aligned on common random numbers.
    """
    if strategy.kind == "perfect":
        delta = a
    elif strategy.kind == "noisy":
        delta = a + strategy.sigma_mit * b
    else:
        delta = 0.0
    return y_a - alarm * delta
