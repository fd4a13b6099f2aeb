"""Shared numerical kernels.

Seeded RNG streams, the saturating bivariate-normal orthant kernel behind
the exact scalar transition rows, a PSD factor for sampling correlated
noise, and the fixed-point Riccati solver used to derive the steady-state
filter. Everything is deterministic given its inputs; routines that need
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
# Covariances and rectangles
# ---------------------------------------------------------------------------


def _check_symmetric(name: str, mat: np.ndarray) -> None:
    scale = 1.0 + float(np.max(np.abs(mat), initial=0.0))
    if np.max(np.abs(mat - mat.T), initial=0.0) > 1e-8 * scale:
        raise NumericsError(f"{name} must be symmetric; max asymmetry "
                            f"{np.max(np.abs(mat - mat.T)):.3e}")


def _check_psd(name: str, mat: np.ndarray) -> None:
    eigs = np.linalg.eigvalsh(mat)
    scale = 1.0 + float(max(eigs[-1], 0.0))
    if eigs[0] < -1e-8 * scale:
        raise NumericsError(f"{name} must be positive semidefinite; "
                            f"min eigenvalue {eigs[0]:.3e}")


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric-eigendecomposition factor L with L L' = cov (PSD safe)."""
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


@dataclass(frozen=True, eq=False)
class Rect:
    """Axis-aligned box with possibly infinite faces, lower <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise NumericsError(f"rect bounds must be equal-length vectors, "
                                f"got {lower.shape} and {upper.shape}")
        if np.any(lower > upper):
            raise NumericsError("rect has lower > upper in some dimension")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.size


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


# Gauss-Legendre half-rules; the node count trades against how sharply the
# integrand peaks as |rho| grows (Drezner & Wesolowsky 1989, Genz's hybrid).
_GL_RULES = {
    6: (np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904]),
        np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970])),
    12: (np.array([0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
                   0.2031674267230659, 0.2334925365383547, 0.2491470458134029]),
         np.array([0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
                   0.5873179542866171, 0.3678314989981802, 0.1252334085114692])),
    20: (np.array([0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
                   0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
                   0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
                   0.1527533871307259]),
         np.array([0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
                   0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
                   0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
                   0.07652652113349733])),
}

# Past |h| or |k| = _SAT, bvn_upper returns the one-dimensional limit.
_SAT = 10.0
_BLOCK = 32768  # entries per quadrature block; its temporaries fit in cache


def _gl_rule(rho: float):
    ar = abs(rho)
    n = 6 if ar < 0.3 else (12 if ar < 0.75 else 20)
    w, x = _GL_RULES[n]
    return np.concatenate([w, w]), np.concatenate([1.0 - x, 1.0 + x])


def _bvn_upper_finite(h: np.ndarray, k: np.ndarray, rho: float,
                      phi_h: np.ndarray | None = None) -> np.ndarray:
    """P(X > h, Y > k) for standard bivariate normal, finite h, k arrays;
    phi_h, if given, is Phi(-h) for the |rho| < 0.925 branch."""
    w, x = _gl_rule(rho)
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
        phi_h = ndtr(-h) if phi_h is None else phi_h
        return acc * asr / tp + phi_h * ndtr(-k)

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


def _phi_neg(x: np.ndarray, where: np.ndarray, shape) -> np.ndarray:
    """Phi(-x) at where in x broadcast to shape; ndtr on x if that is less."""
    if x.size < np.count_nonzero(where):
        return np.broadcast_to(ndtr(-x), shape)[where]
    return ndtr(-np.broadcast_to(x, shape)[where])


def bvn_upper(h, k, rho: float) -> np.ndarray:
    """P(X > h, Y > k) for a standard bivariate normal with correlation rho.

    h and k broadcast against each other; entries may be +-inf. rho is a
    scalar in [-1, 1]. Past the cutoff _SAT = 10 the result is the
    one-dimensional limit, exactly: 0 if h >= 10 or k >= 10, else Phi(-k)
    if h <= -10, else Phi(-h) if k <= -10. That is within Phi(-10) =
    7.6e-24 absolute of the orthant probability, and exact at +-inf.
    Saturation is decided, and a limit taken, on h and k before broadcasting;
    a broadcast h has Phi(-h) taken once per entry (once per row for an
    (R, 1) h), for its limits and for the quadrature alike. The rest runs
    in blocks of _BLOCK. Neither changes a bit of the result or the error
    above.
    """
    if not -1.0 <= rho <= 1.0:
        raise NumericsError(f"correlation {rho} outside [-1, 1]")
    h, k = np.asarray(h, dtype=float), np.asarray(k, dtype=float)
    shape = np.broadcast_shapes(h.shape, k.shape)
    out = np.zeros(shape)
    live = ~((h >= _SAT) | (k >= _SAT))
    # Phi(-h) once per entry of a broadcast h, for the k <= -10 limits and
    # the quadrature's Phi(-h)Phi(-k) term; same-shape calls gather first.
    nh = np.broadcast_to(ndtr(-h), shape) if h.size < out.size else None
    for x, low in ((k, h <= -_SAT), (h, k <= -_SAT)):
        where = low & live
        out[where] = (nh[where] if x is h and nh is not None
                      else _phi_neg(x, where, shape))
        live &= ~low
    hb, kb = (np.broadcast_to(x, shape)[live] for x in (h, k))
    nhb = nh[live] if nh is not None and abs(rho) < 0.925 else None
    vals = np.empty(hb.shape)
    for s in range(0, vals.size, _BLOCK):
        b = slice(s, s + _BLOCK)
        vals[b] = _bvn_upper_finite(hb[b], kb[b], rho,
                                    None if nhb is None else nhb[b])
    out[live] = vals
    np.clip(out, 0.0, 1.0, out=out)
    return out if out.ndim else float(out)


def bvn_cdf(h, k, rho: float):
    """P(X <= h, Y <= k), vectorized; saturates past +-10 like bvn_upper."""
    return bvn_upper(np.negative(h), np.negative(k), rho)


def bvn_rect(xl, xu, yl, yu, rho: float):
    """P(xl <= X <= xu, yl <= Y <= yu), standardized margins, vectorized."""
    p = (bvn_upper(xl, yl, rho) - bvn_upper(xu, yl, rho)
         - bvn_upper(xl, yu, rho) + bvn_upper(xu, yu, rho))
    return np.clip(p, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Riccati fixed point
# ---------------------------------------------------------------------------


def _riccati_map(A, C, Q, R, P):
    S = C @ P @ C.T + R
    APC = A @ P @ C.T
    P_next = A @ P @ A.T + Q - APC @ np.linalg.solve(S, APC.T)
    return 0.5 * (P_next + P_next.T)


def solve_dare(A: np.ndarray, C: np.ndarray, Q: np.ndarray, R: np.ndarray,
               rtol: float = 1e-12, max_iter: int = 1_000_000) -> np.ndarray:
    """Steady-state prediction covariance of the Kalman filter.

    Iterates P <- A P A' + Q - A P C'(C P C' + R)^-1 C P A' from P0 = Q until
    the step size falls below rtol * max(1, ||P||_inf), then verifies the
    fixed-point residual against 1e-10 * max(1, ||P||_inf).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    m = C.shape[0]
    if A.shape != (n, n) or C.shape != (m, n) or Q.shape != (n, n) or R.shape != (m, m):
        raise NumericsError(f"inconsistent shapes: A{A.shape} C{C.shape} "
                            f"Q{Q.shape} R{R.shape}")
    _check_symmetric("Q", Q)
    _check_psd("Q", Q)
    _check_symmetric("R", R)
    if np.linalg.eigvalsh(R)[0] <= 0.0:
        raise NumericsError("R must be positive definite")

    P = Q.copy()
    step = math.inf
    for iteration in range(1, max_iter + 1):
        P_next = _riccati_map(A, C, Q, R, P)
        step = float(np.max(np.abs(P_next - P)))
        P = P_next
        if step <= rtol * max(1.0, float(np.max(np.abs(P)))):
            break
    else:
        raise NumericsError(f"Riccati iteration hit the cap ({max_iter}); "
                            f"last step {step:.3e}")
    residual = float(np.max(np.abs(P - _riccati_map(A, C, Q, R, P))))
    bound = 1e-10 * max(1.0, float(np.max(np.abs(P))))
    if residual > bound:
        raise NumericsError(f"Riccati residual {residual:.3e} exceeds bound "
                            f"{bound:.3e} after {iteration} iterations")
    return P

