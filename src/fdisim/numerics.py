"""Shared numerical kernels.

Seeded RNG streams, the saturating bivariate-normal orthant kernel behind
the exact scalar transition rows, and the scalar fixed-point Riccati
solver behind the steady-state filter, on floats.
Everything is deterministic given its inputs; routines that need
randomness take an explicit :class:`RngStream` and never touch global RNG
state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class NumericsError(ValueError):
    """Raised for invalid numerical domains or a failed convergence contract."""


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible source of randomness.

    Two streams with the same (seed, stream) produce identical draw
    sequences; distinct ids give statistically independent generators.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream,)))


# ---------------------------------------------------------------------------
# Bivariate rectangle kernel
# ---------------------------------------------------------------------------


@functools.cache
def _special():
    # imported on first use: the rollout commands never evaluate a normal
    # CDF, so they start without scipy
    import scipy.special

    return scipy.special


def ndtr(x):
    """Standard normal CDF, elementwise (scipy.special.ndtr)."""
    return _special().ndtr(x)


# Gauss-Legendre rules on [0, 2], mirrored from their half-rules: 12 nodes
# for |rho| < 0.75, 20 above, as the integrand peaks more sharply with |rho|
# (Drezner & Wesolowsky 1989, Genz's hybrid).
_GL12, _GL20 = ((np.concatenate([w, w]), np.concatenate([1.0 - x, 1.0 + x]))
                for w, x in (
    (np.array([0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
               0.2031674267230659, 0.2334925365383547, 0.2491470458134029]),
     np.array([0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
               0.5873179542866171, 0.3678314989981802, 0.1252334085114692])),
    (np.array([0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
               0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
               0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
               0.1527533871307259]),
     np.array([0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
               0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
               0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
               0.07652652113349733]))))

# Past |h| or |k| = _SAT, bvn_upper returns the one-dimensional limit.
_SAT = 10.0


def _bvn_upper_finite(h: np.ndarray, k: np.ndarray, rho: float,
                      phi_h: np.ndarray, phi_k=None) -> np.ndarray:
    """P(X > h, Y > k) for standard bivariate normal, finite h, k arrays;
    phi_h is Phi(-h) and phi_k, if given, Phi(-k), both for |rho| < 0.925."""
    w, x = _GL12 if abs(rho) < 0.75 else _GL20
    tp = 2.0 * math.pi
    if abs(rho) < 0.925:
        hk = h * k
        hs = 0.5 * (h * h + k * k)
        asr = 0.5 * math.asin(rho)
        acc, t = np.zeros_like(h), np.empty_like(h)
        for wi, xi in zip(w, x):  # acc += wi * exp((sn*hk - hs) / (1 - sn^2))
            sn = math.sin(asr * xi)
            np.subtract(np.multiply(sn, hk, out=t), hs, out=t)
            t /= 1.0 - sn * sn
            acc += np.multiply(wi, np.exp(t, out=t), out=t)
        phi_k = ndtr(-k) if phi_k is None else phi_k
        return acc * asr / tp + phi_h * phi_k

    # |rho| close to 1: Genz's tail expansion around the singular direction.
    if rho < 0.0:
        k = -k
    hk = h * k
    bvn = np.zeros_like(h)
    if abs(rho) < 1.0:
        ass = (1.0 - rho) * (1.0 + rho)
        a = math.sqrt(ass)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 80.0
        asr0 = -0.5 * (bs / ass + hk)
        with np.errstate(over="ignore", invalid="ignore"):
            term = a * np.exp(asr0) * (1.0 - c * (bs - ass) * (1.0 - d * bs) / 3.0
                                       + c * d * ass * ass)
            bvn = np.where(asr0 > -100.0, term, 0.0)
            b = np.sqrt(bs)
            sp = math.sqrt(tp) * ndtr(-b / a)
            corr = np.exp(-0.5 * hk) * sp * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0)
            bvn = bvn - np.where(hk > -100.0, corr, 0.0)
            a2 = 0.5 * a
            acc = np.zeros_like(h)
            for wi, xi in zip(w, x):
                xs = (a2 * xi) ** 2
                rs = math.sqrt(1.0 - xs)
                asr1 = -0.5 * (bs / xs + hk)
                spi = 1.0 + c * xs * (1.0 + 5.0 * d * xs)
                ep = np.exp(-0.5 * hk * xs / (1.0 + rs) ** 2) / rs
                acc += np.where(asr1 > -100.0, wi * np.exp(asr1) * (spi - ep), 0.0)
            bvn = (a2 * acc - bvn) / tp
    if rho > 0.0:
        return bvn + ndtr(-np.maximum(h, k))
    # rho < 0, k already negated: remaining mass is a one-dimensional band.
    band = np.where(h < 0.0, ndtr(k) - ndtr(h), ndtr(-h) - ndtr(-k))
    return np.where(h >= k, 0.0, band) - bvn


def bvn_upper(h, k, rho: float, out=None, phi_k=None) -> np.ndarray:
    """P(X > h, Y > k) for a standard bivariate normal with correlation rho.

    h and k broadcast against each other; entries may be +-inf. rho is a
    scalar in [-1, 1]. Past the cutoff _SAT = 10 the result is the
    one-dimensional limit, exactly: 0 if h >= 10 or k >= 10, else Phi(-k)
    if h <= -10, else Phi(-h) if k <= -10. That is within Phi(-10) =
    7.6e-24 absolute of the orthant probability, and exact at +-inf.
    Saturation is decided on h and k before broadcasting. Phi(-h) is taken
    once per entry of h as passed (once per row for an (R, 1) h), for the
    k <= -10 limits and the quadrature alike; Phi(-k) only on the h <= -10
    entries and in the quadrature. The rest runs in one pass, its
    temporaries as large as the call (the row build passes one tile), by
    Gauss-Legendre quadrature (12 nodes below |rho| = 0.75, 20 to 0.925)
    or Genz's tail expansion. None of this changes a bit of the result or
    the error above, nor do `out`, an array of the broadcast shape that
    takes the result (h or k itself: all input is read first), and `phi_k`,
    Phi(-k) broadcastable to it, which stands in for every ndtr on k.
    """
    if not -1.0 <= rho <= 1.0:
        raise NumericsError(f"correlation {rho} outside [-1, 1]")
    h, k = np.asarray(h, dtype=float), np.asarray(k, dtype=float)
    live = ~((h >= _SAT) | (k >= _SAT))
    shape = live.shape
    # Phi(-h) once per entry of h as passed, for the k <= -10 limits and the
    # quadrature's Phi(-h)Phi(-k) term; Phi(-k), unless given, is taken on
    # the h <= -10 entries here and on the live ones in the quadrature.
    nh = np.broadcast_to(ndtr(-h), shape)
    nk = None if phi_k is None else np.broadcast_to(phi_k, shape)
    limits = []
    for x, nx, low in ((k, nk, h <= -_SAT), (h, nh, k <= -_SAT)):
        where = low & live
        limits.append((where, ndtr(-np.broadcast_to(x, shape)[where])
                       if nx is None else nx[where]))
        live &= ~low
    hb, kb, nhb = (np.broadcast_to(x, shape)[live] for x in (h, k, nh))
    vals = _bvn_upper_finite(hb, kb, rho, nhb, None if nk is None else nk[live])
    out = np.empty(shape) if out is None else out
    out[...] = 0.0
    for where, limit in limits:
        out[where] = limit
    out[live] = vals
    np.clip(out, 0.0, 1.0, out=out)
    return out if out.ndim else float(out)


def bvn_cdf(h, k, rho: float, out=None, phi_k=None):
    """P(X <= h, Y <= k), vectorized; saturates past +-10 like bvn_upper.
    `out` as there, with -k written into it first; `phi_k` is Phi(k)."""
    return bvn_upper(np.negative(h), np.negative(k, out=out), rho, out, phi_k)


def bvn_rect(xl, xu, yl, yu, rho: float):
    """P(xl <= X <= xu, yl <= Y <= yu), standardized margins, vectorized."""
    p = (bvn_upper(xl, yl, rho) - bvn_upper(xu, yl, rho)
         - bvn_upper(xl, yu, rho) + bvn_upper(xu, yu, rho))
    return np.clip(p, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Riccati fixed point
# ---------------------------------------------------------------------------


def _riccati_map(A: float, C: float, Q: float, R: float, P: float) -> float:
    # the n-dimensional map A P A' + Q - APC S^-1 APC' at n = 1, in its
    # order of operations; APC / S, not APC * (1 / S), keeps its bits
    S = C * P * C + R
    APC = A * P * C
    return A * P * A + Q - APC * (APC / S)


_RTOL = 1e-12
_MAX_ITER = 1_000_000


def solve_dare(A: float, C: float, Q: float, R: float) -> float:
    """Steady-state prediction variance of the scalar Kalman filter.

    The entries must be finite with Q >= 0 and R > 0, as a SystemModel's
    are. It iterates P <- A P A + Q - (A P C)^2 / (C P C + R) from P0 = Q
    until the step size falls below _RTOL * max(1, |P|), at most
    _MAX_ITER times, and verifies the fixed-point residual against
    1e-10 * max(1, |P|).
    """
    if not (all(map(math.isfinite, (A, C, Q, R))) and Q >= 0.0 and R > 0.0):
        raise NumericsError(f"need finite entries with Q >= 0 and R > 0, "
                            f"got A = {A}, C = {C}, Q = {Q}, R = {R}")
    P = Q
    step = math.inf
    for iteration in range(1, _MAX_ITER + 1):
        P_next = _riccati_map(A, C, Q, R, P)
        step = abs(P_next - P)
        P = P_next
        if step <= _RTOL * max(1.0, abs(P)):
            break
    else:
        raise NumericsError(f"Riccati iteration hit the cap ({_MAX_ITER}); "
                            f"last step {step:.3e}")
    residual = abs(P - _riccati_map(A, C, Q, R, P))
    bound = 1e-10 * max(1.0, abs(P))
    if residual > bound:
        raise NumericsError(f"Riccati residual {residual:.3e} exceeds bound "
                            f"{bound:.3e} after {iteration} iterations")
    return P
