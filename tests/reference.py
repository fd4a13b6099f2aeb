"""Scalar references for the tests, kept apart from the package they check.

evaluation.rollout_batch advances all runs of a batch at once on numpy
rows; error_step advances one run by one step with the same operations in
the same order, so a batch must match it run by run bit for bit.

steady_state is the n-dimensional route to the steady-state filter: the
fixed-point Riccati loop and the filter's products on matrices, as the
package computed them before its model became five floats.  At n = 1 the
package's float arithmetic must give its bits exactly.

Both are the tests' oracles, not second paths of the package.
"""

import numpy as np


def error_step(model, ss, e, w, v, a, alarm, delta):
    """(e', corr) of one run of the scalar loop: the innovation
    r = CA e + C w + v + a, the filter's correction corr =
    (r - alarm delta) K, and the next estimation error e' = A e + w - corr.

    Affine in (e, w, v, a, delta) at a fixed alarm; the control input does
    not appear.  An estimate moves by the same correction,
    x_hat' = A x_hat + alpha (x0 - x_hat) + corr (see estimate_step).
    """
    A, C, K = model.A, model.C, ss.K
    r = e * (C * A) + w * C + v + a
    corr = (r - alarm * delta) * K
    return e * A + w - corr, corr


def estimate_step(model, controller, x_hat, corr):
    """Next estimate of one run under the setpoint law, which makes
    B u = alpha (x0 - x_hat)."""
    return (x_hat * model.A + controller.alpha * (controller.x0 - x_hat)
            + corr)


def _riccati_map(A, C, Q, R, P):
    S = C @ P @ C.T + R
    APC = A @ P @ C.T
    P_next = A @ P @ A.T + Q - APC @ np.linalg.solve(S, APC.T)
    return 0.5 * (P_next + P_next.T)


def solve_dare(A, C, Q, R):
    """P_inf of the matrix fixed-point loop: P <- A P A' + Q - A P C'
    (C P C' + R)^-1 C P A' from P0 = Q, stopped when the step falls to
    1e-12 max(1, ||P||_inf)."""
    P = Q.copy()
    while True:
        P_next = _riccati_map(A, C, Q, R, P)
        step = float(np.max(np.abs(P_next - P)))
        P = P_next
        if step <= 1e-12 * max(1.0, float(np.max(np.abs(P)))):
            return P


def steady_state(A, C, Q, R):
    """(P_inf, K, P_r, P_r_inv, A_K, W_K, P_e) of the matrix route, each as
    a float, from the entries of a scalar model."""
    A, C, Q, R = (np.array([[x]], dtype=float) for x in (A, C, Q, R))
    P_inf = solve_dare(A, C, Q, R)
    P_r = C @ P_inf @ C.T + R
    P_r_inv = np.linalg.inv(P_r)
    K = P_inf @ C.T @ P_r_inv
    W_K = np.eye(1) - K @ C
    A_K = A - K @ C @ A
    P_e = W_K @ P_inf
    P_e = 0.5 * (P_e + P_e.T)
    return tuple(M.item() for M in (P_inf, K, P_r, P_r_inv, A_K, W_K, P_e))
