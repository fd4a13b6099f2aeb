"""Numerical kernel tests.

What is proven here:
  * The standard normal CDF every kernel calls (scipy.special.ndtr) matches
    adaptive quadrature of the normal density to 1e-12 and handles infinite
    arguments.
  * The bivariate rectangle kernel reproduces dblquad oracles (frozen values
    computed at epsabs 1e-13) on both quadrature branches, satisfies the
    closed-form orthant identity 1/4 + asin(rho)/(2*pi), and its cell
    probabilities over any rectangular partition of the plane sum to 1.
  * Past |h| or |k| = 10 the kernel returns the one-dimensional limit
    exactly; on a [-40, 40]^2 mesh at nine correlations it stays within
    Phi(-10) = 7.6e-24 of the unsaturated kernel (one ulp, 1.1e-16, on the
    rho <= -0.925 branch), saturated values match 40-digit mpmath
    integrals to within ndtr's few ulp, and +-inf entries and scalar
    inputs give exact limits and plain floats.
  * At small |rho| the 12-node Gauss-Legendre rule matches 40-digit mpmath
    integrals to within 8 ulp on live points away from the deep tails.
  * The kernel's result does not depend on the layout of its operands: a
    broadcast (R, 1) column, the same column made contiguous, row-by-row
    calls and scalar calls agree bit for bit, and size-0 operands give
    empty results. `out` and `phi_k` change no
    bit on any of the three branches (12-node, 20-node, Genz), and with
    `phi_k` given the kernel's only ndtr is one Phi(-h) on h as passed.
  * solve_dare hits the scalar closed form (1+sqrt(41))/2 to 1e-9, agrees
    with an independent QZ solver in 2-D, and enforces its input contracts.
  * The covariance check is unit-free: scaled by 2^-7, 0.01, 1e-4 or 100,
    a valid (Q, R), a Q asymmetric by 5e-5 relative and a Q indefinite by
    2e-5 relative are accepted or refused by SystemModel and solve_dare
    exactly as at scale 1.
  * RngStream reproduces sequences per (seed, stream) id, and its
    generator is keyed by spawn_key (stream,).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, linalg
from scipy.special import ndtr

from fdisim import numerics
from fdisim.lti import ModelError, SystemModel
from fdisim.numerics import (
    NumericsError,
    RngStream,
    bvn_cdf,
    bvn_rect,
    bvn_upper,
    solve_dare,
)

# Scalar benchmark steady state, closed form: P^2 = Q*P + Q*R at A=C=Q=1, R=10.
P_INF = (1.0 + math.sqrt(41.0)) / 2.0


def test_std_normal_cdf_against_quadrature():
    pts = np.linspace(-8.0, 8.0, 33)
    for x in pts:
        ref, err = integrate.quad(
            lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
            -40.0, x, epsabs=1e-14, limit=200)
        assert abs(ndtr(x) - ref) < 1e-12, x


def test_std_normal_cdf_limits_and_monotonicity():
    assert ndtr(-np.inf) == 0.0
    assert ndtr(np.inf) == 1.0
    assert ndtr(0.0) == pytest.approx(0.5, abs=1e-15)
    xs = np.linspace(-10, 10, 101)
    vals = ndtr(xs)
    assert np.all(np.diff(vals) >= 0.0)


# dblquad oracles frozen at epsabs=epsrel=1e-13; covers both kernel branches
# (|rho| < 0.925 quadrature and the near-singular expansion).
BVN_RECT_ORACLES = [
    ((-1.0, 2.0, -0.5, 1.5), -0.5291, 0.506582798619018),
    ((0.0, 3.0, 0.0, 3.0), 0.5, 0.330797316593738),
    ((-2.0, -0.5, 0.5, 2.5), 0.95, 0.000027161656372),
    ((-0.3, 0.3, -0.3, 0.3), -0.99, 0.192755404690287),
    ((1.0, 4.0, -4.0, -1.0), 0.8, 0.000056244433712),
]


@pytest.mark.parametrize("rect,rho,expected", BVN_RECT_ORACLES)
def test_bvn_rect_against_dblquad_oracle(rect, rho, expected):
    xl, xu, yl, yu = rect
    assert bvn_rect(xl, xu, yl, yu, rho) == pytest.approx(expected, abs=1e-10)


def test_bvn_orthant_closed_form():
    for rho in (-0.99, -0.5291, -0.3, 0.0, 0.5, 0.925, 0.99):
        exact = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert bvn_cdf(0.0, 0.0, rho) == pytest.approx(exact, abs=1e-13), rho


def test_bvn_infinite_faces_reduce_to_univariate():
    assert bvn_upper(np.inf, 0.0, 0.5) == 0.0
    assert bvn_upper(0.0, np.inf, 0.5) == 0.0
    assert bvn_upper(-np.inf, -np.inf, 0.5) == 1.0
    assert bvn_upper(-np.inf, 1.2, -0.7) == float(ndtr(-1.2))
    assert bvn_upper(0.4, -np.inf, 0.99) == float(ndtr(-0.4))
    assert bvn_cdf(np.inf, -0.4, -1.0) == float(ndtr(-0.4))
    for h, k in [(np.inf, 0.0), (-np.inf, 1.2), (3.0, -11.0), (0.1, 0.2)]:
        assert type(bvn_upper(h, k, 0.3)) is float
    assert bvn_rect(-np.inf, np.inf, -1.0, 1.0, 0.8) == pytest.approx(
        float(ndtr(1.0) - ndtr(-1.0)), abs=1e-12)


# h, k on [-40, 40] plus the cutoff itself, just inside it, and +-inf
SAT_AXIS = np.concatenate([np.linspace(-40.0, 40.0, 801),
                           [10.0, -10.0, 10.0 - 1e-6, -(10.0 - 1e-6),
                            np.inf, -np.inf]])
PHI_M10 = float(ndtr(-10.0))  # 7.6e-24


@pytest.mark.parametrize("rho", [-1.0, -0.99, -0.93, -0.53, 0.0, 0.5, 0.93,
                                 0.99, 1.0])
def test_bvn_saturation_matches_unsaturated_kernel(monkeypatch, rho):
    h, k = np.meshgrid(SAT_AXIS, SAT_AXIS, indexing="ij")
    sat = bvn_upper(h, k, rho)
    monkeypatch.setattr(numerics, "_SAT", math.inf)
    full = bvn_upper(h, k, rho)
    # off the rho <= -0.925 branch the gap is the neglected tail, at most
    # Phi(-10); on it the unsaturated kernel forms a band as a difference of
    # two ndtr values, which costs it one ulp
    tol = 2.3e-16 if rho <= -0.925 else PHI_M10 * (1.0 + 1e-9)
    assert np.max(np.abs(sat - full)) <= tol
    zero = (h >= 10.0) | (k >= 10.0)
    h_low = (h <= -10.0) & ~zero
    k_low = (k <= -10.0) & ~zero & ~h_low
    inside = ~(zero | h_low | k_low)
    assert np.all(sat[zero] == 0.0)
    assert np.array_equal(sat[h_low], ndtr(-k[h_low]))
    assert np.array_equal(sat[k_low], ndtr(-h[k_low]))
    # the mesh holds 10 - 1e-6: entries inside the cutoff run the kernel
    assert inside.sum() > 0 and np.array_equal(sat[inside], full[inside])


def _mpmath_upper(h, k, rho):
    """P(X > h, Y > k) as a 40-digit mpmath integral."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s = mpmath.sqrt(1 - mpmath.mpf(rho) ** 2)
        # P(X > h, Y > k) = int_h^inf phi(x) P(Y > k | X = x) dx
        return float(mpmath.quad(
            lambda x: mpmath.npdf(x) * mpmath.ncdf((rho * x - k) / s),
            [h, 0, 10, mpmath.inf]))


@pytest.mark.parametrize("h,k,rho", [(-0.1, -40.0, -0.99), (-0.1, -40.0, 0.5),
                                     (3.0, -10.0, -0.53), (-12.0, 1.5, 0.93)])
def test_bvn_saturated_values_against_mpmath(h, k, rho):
    ref = _mpmath_upper(h, k, rho)
    # the limit is an ndtr value, good to a few ulp (6 at -3, 1 at 0.1)
    assert abs(bvn_upper(h, k, rho) - ref) <= 8 * math.ulp(ref)


# live points at small |rho|, which the 12-node rule serves; a 6-node rule
# is 41 ulp off at (4, 3, 0.2). Deeper in the tails any rule loses relative
# digits to exp of a large argument and to the cancellation of
# Phi(-h)Phi(-k) against the quadrature term: (2.5, 3.5, -0.1) reads 18 ulp
# and (6, 0.5, 0.05) 25 ulp, about 1e-21 absolute or less.
@pytest.mark.parametrize("h,k,rho", [
    (4.0, 3.0, 0.2), (-1.0, 0.5, 0.05), (0.3, -2.0, 0.1), (2.0, 2.5, 0.25),
    (-3.0, -0.5, -0.1), (1.5, -1.0, -0.2), (-0.7, 1.2, -0.2), (3.0, 1.0, 0.1)])
def test_bvn_small_rho_quadrature_against_mpmath(h, k, rho):
    ref = _mpmath_upper(h, k, rho)
    assert abs(bvn_upper(h, k, rho) - ref) <= 8 * math.ulp(ref)


def _row_build_pair():
    """An (R, 1) x (R, M) pair as the row build passes it, with +-inf, the
    cutoff and entries just inside it mixed among live entries."""
    rng = np.random.default_rng(11)
    special = [np.inf, -np.inf, 10.0, -10.0, 10.0 - 1e-6, -(10.0 - 1e-6)]
    h = rng.normal(scale=6.0, size=(24, 1))
    k = rng.normal(scale=6.0, size=(24, 19))
    h[:6, 0] = special
    k[::3, :6] = special
    k[1::5, 7:] = -11.0
    return h, k


@pytest.mark.parametrize("rho", [-1.0, -0.99, -0.53, 0.0, 0.5, 0.99, 1.0])
def test_bvn_layout_leaves_every_bit(rho):
    h, k = _row_build_pair()
    default = bvn_upper(h, k, rho)
    h_full = np.ascontiguousarray(np.broadcast_to(h, k.shape))
    assert np.array_equal(bvn_upper(h_full, k, rho), default)
    assert np.array_equal(
        np.stack([bvn_upper(h[i], k[i], rho) for i in range(h.shape[0])]),
        default)
    for i, j in [(0, 0), (2, 5), (6, 6), (7, 3), (23, 18)]:
        value = bvn_upper(h[i, 0], k[i, j], rho)
        assert type(value) is float and value == default[i, j]
    assert bvn_upper(np.empty((0, 1)), np.empty((0, 19)), rho).shape == (0, 19)
    assert bvn_upper(h, np.empty((24, 0)), rho).shape == (24, 0)


@pytest.mark.parametrize("rho", [-0.53, 0.1, 0.8, 0.95])  # the three kernel branches
def test_bvn_out_and_phi_k_leave_every_bit(rho):
    h, k = _row_build_pair()
    upper, cdf = bvn_upper(h, k, rho), bvn_cdf(h, k, rho)
    out = np.full(k.shape, np.nan)
    assert bvn_upper(h, k, rho, out=out) is out
    assert np.array_equal(out, upper)
    aliased = k.copy()  # out may be k itself: every input is read first
    assert np.array_equal(bvn_upper(h, aliased, rho, out=aliased), upper)
    assert np.array_equal(bvn_upper(h, k, rho, phi_k=ndtr(-k)), upper)
    kept = k.copy()  # bvn_cdf writes -k into out, never into k
    assert bvn_cdf(h, k, rho, out=out) is out
    assert np.array_equal(out, cdf) and np.array_equal(k, kept)
    out[...] = np.nan
    bvn_cdf(h, k, rho, out=out, phi_k=ndtr(k))
    assert np.array_equal(out, cdf)
    assert np.array_equal(bvn_cdf(h, k, rho, phi_k=ndtr(k)), cdf)
    for i, j in [(0, 0), (3, 4), (7, 3)]:
        value = bvn_upper(h[i, 0], k[i, j], rho, phi_k=ndtr(-k[i, j]))
        assert type(value) is float and value == upper[i, j]
        value = bvn_cdf(h[i, 0], k[i, j], rho, phi_k=ndtr(k[i, j]))
        assert type(value) is float and value == cdf[i, j]


@pytest.mark.parametrize("rho", [-0.53, 0.1])
def test_bvn_phi_k_takes_ndtr_off_k(monkeypatch, rho):
    # with Phi(-k) given, the only ndtr left is Phi(-h) on h as passed, the
    # (R, 1) column or its full-shape copy, shared by the k <= -10 limits
    # and the quadrature
    h, k = _row_build_pair()
    sizes = []

    def counting_ndtr(x):
        sizes.append(np.size(x))
        return ndtr(x)

    expected = bvn_upper(h, k, rho)
    monkeypatch.setattr(numerics, "ndtr", counting_ndtr)
    for hx in (h, np.ascontiguousarray(np.broadcast_to(h, k.shape))):
        sizes.clear()
        assert np.array_equal(bvn_upper(hx, k, rho, phi_k=ndtr(-k)), expected)
        assert sizes == [hx.size]


def test_bvn_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    h = rng.normal(size=40)
    k = rng.normal(size=40)
    for rho in (-0.95, -0.4, 0.0, 0.6, 0.97):
        vec = bvn_upper(h, k, rho)
        for i in range(h.size):
            assert vec[i] == pytest.approx(float(bvn_upper(h[i], k[i], rho)),
                                           abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(rho=st.floats(-0.999, 0.999),
       cuts_x=st.lists(st.floats(-6, 6), min_size=1, max_size=4),
       cuts_y=st.lists(st.floats(-6, 6), min_size=1, max_size=4))
def test_bvn_partition_sums_to_one(rho, cuts_x, cuts_y):
    ex = np.concatenate([[-np.inf], np.sort(cuts_x), [np.inf]])
    ey = np.concatenate([[-np.inf], np.sort(cuts_y), [np.inf]])
    total = 0.0
    for i in range(ex.size - 1):
        for j in range(ey.size - 1):
            total += float(bvn_rect(ex[i], ex[i + 1], ey[j], ey[j + 1], rho))
    assert total == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(rho=st.floats(-0.999, 0.999),
       xl=st.floats(-4, 3.5), yl=st.floats(-4, 3.5),
       grow=st.floats(0.01, 4.0))
def test_bvn_rect_monotone_in_enlargement(rho, xl, yl, grow):
    xu, yu = xl + 1.0, yl + 1.0
    base = float(bvn_rect(xl, xu, yl, yu, rho))
    bigger = float(bvn_rect(xl - grow, xu + grow, yl - grow, yu + grow, rho))
    assert bigger >= base - 1e-12


def test_solve_dare_scalar_closed_form():
    P = solve_dare([[1.0]], [[1.0]], [[1.0]], [[10.0]])
    assert abs(P[0, 0] - P_INF) < 1e-9


def test_solve_dare_matches_qz_route():
    A = np.array([[0.9, 0.2], [0.0, 0.8]])
    C = np.array([[1.0, 0.5]])
    Q = np.array([[0.3, 0.1], [0.1, 0.4]])
    R = np.array([[2.0]])
    P = solve_dare(A, C, Q, R)
    P_qz = linalg.solve_discrete_are(A.T, C.T, Q, R)
    assert np.max(np.abs(P - P_qz)) < 1e-9
    # fixed point is symmetric PSD
    assert np.max(np.abs(P - P.T)) == 0.0
    assert np.linalg.eigvalsh(P)[0] > 0.0


def test_solve_dare_input_contracts():
    with pytest.raises(NumericsError):
        solve_dare([[1.0]], [[1.0]], [[1.0]], [[0.0]])  # R not PD
    with pytest.raises(NumericsError):
        solve_dare([[1.0, 0.0]], [[1.0]], [[1.0]], [[1.0]])  # A not square
    with pytest.raises(NumericsError):
        solve_dare([[1.0]], [[1.0]], [[-1.0]], [[1.0]])  # Q not PSD


def _covariance_verdicts(Q, R):
    """(SystemModel accepts, solve_dare accepts) for a 2-D plant A = B = C = I."""
    verdicts = []
    for build, error in ((lambda: SystemModel(A=np.eye(2), B=np.eye(2),
                                              C=np.eye(2), Q=Q, R=R),
                          ModelError),
                         (lambda: solve_dare(np.eye(2), np.eye(2), Q, R),
                          NumericsError)):
        try:
            build()
            verdicts.append(True)
        except error:
            verdicts.append(False)
    return tuple(verdicts)


@pytest.mark.parametrize("c", [2.0 ** -7, 0.01, 1e-4, 100.0])
def test_covariance_checks_are_unit_free(c):
    Q = np.array([[1.0, 0.2], [0.2, 0.5]])
    R = np.array([[2.0, 0.1], [0.1, 1.0]])
    cases = {
        "valid": ((Q, R), (True, True)),
        "asymmetric Q": ((Q + [[0.0, 5e-5], [0.0, 0.0]], R), (False, False)),
        "indefinite Q": ((np.diag([1.0, -2e-5]), R), (False, False)),
    }
    for name, ((Qc, Rc), expected) in cases.items():
        assert _covariance_verdicts(Qc, Rc) == expected, name
        assert _covariance_verdicts(c * Qc, c * Rc) == expected, name


def test_rng_stream_reproducible_and_children_independent():
    a = RngStream(123, 4).generator().standard_normal(8)
    b = RngStream(123, 4).generator().standard_normal(8)
    assert np.array_equal(a, b)
    c = RngStream(123, 5).generator().standard_normal(8)
    assert not np.array_equal(a, c)
    # the key every stored --seed output was drawn with
    keyed = np.random.default_rng(np.random.SeedSequence(123, spawn_key=(4,)))
    assert np.array_equal(a, keyed.standard_normal(8))

