"""A scalar reference step of the rollout loop, in plain Python floats.

evaluation.rollout_batch advances all runs of a batch at once on numpy
rows; error_step advances one run by one step with the same operations in
the same order, so a batch must match it run by run bit for bit.  It is
the tests' oracle for the loop, not a second path of the package.
"""


def error_step(model, ss, e, w, v, a, alarm, delta):
    """(e', corr) of one run of the scalar loop: the innovation
    r = CA e + C w + v + a, the filter's correction corr =
    (r - alarm delta) K, and the next estimation error e' = A e + w - corr.

    Affine in (e, w, v, a, delta) at a fixed alarm; the control input does
    not appear.  An estimate moves by the same correction,
    x_hat' = A x_hat + alpha (x0 - x_hat) + corr (see estimate_step).
    """
    A, C, K = (float(M[0, 0]) for M in (model.A, model.C, ss.K))
    r = e * (C * A) + w * C + v + a
    corr = (r - alarm * delta) * K
    return e * A + w - corr, corr


def estimate_step(model, controller, x_hat, corr):
    """Next estimate of one run under the setpoint law, which makes
    B u = alpha (x0 - x_hat)."""
    x0 = float(controller.x0[0])
    return (x_hat * float(model.A[0, 0])
            + controller.alpha * (x0 - x_hat) + corr)
