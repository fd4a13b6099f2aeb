"""Finite-horizon decision problem for the optimal sensor injection.

The attacker observes the estimation error e[t] and injects a with
|a| <= a_max. Conditioned on e[t] = e and injection a, the alarm and the
next error are coupled through the Gaussian pair

    X1 = C w + v        (the random part of the residual)
    X2 = W_K w - K v    (the random part of the next error)

with joint covariance [[C^2 Q + R, C Q W_K - R K], [., W_K^2 Q +
K^2 R]]: the residual is X1 + (C A e + a), the alarm fires when its
quadratic statistic exceeds eta, and the next error is

    X2 + A_K e - K a              without an alarm
    X2 + A_K e - K (a - delta)    with one,

where delta is the mitigation applied on alarm. The decision problem is
scalar, like the model, and assumes perfect mitigation, delta = a: the
error is discretized on a regular lattice and each transition row is
computed exactly from bivariate-normal rectangles (the no-alarm band
plus the two alarm tails, the tails shifted by K a). Value iteration
maximizes the expected cumulative squared error over the horizon.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .defense import DetectorConfig
from .lti import ModelError, SteadyState, SystemModel
from .numerics import BvnWorkspace, NumericsError, bvn_cdf, bvn_rect, ndtr

# rows keeping less pre-fold mass than this inside the grid span warn
_MASS_WARNING = 0.99
# entries per row tile, so per kernel call: floor(_TILE / (N + 1)) rows of
# N + 1 edges, at least one
_TILE = 32768


class TruncationWarning(UserWarning):
    """A transition row leaks noticeable probability mass past the grid."""


# ---------------------------------------------------------------------------
# State lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Grid:
    """Regular lattice of the scalar estimation error over [lo, hi]. points
    is (N,), ascending in steps of `step`; cells are the nearest-neighbor
    intervals, with the two outermost extended to infinity."""

    lo: float
    hi: float
    step: float
    points: np.ndarray

    @property
    def n_states(self) -> int:
        return self.points.shape[0]


def build_grid(lo: float, hi: float, h: float) -> Grid:
    """Lattice covering [lo, hi] at spacing h.

    (hi - lo) must be an integer multiple of the spacing (to 1e-9 relative)
    so the lattice lands exactly on the bounds.
    """
    lo, hi, h = float(lo), float(hi), float(h)
    if h <= 0.0 or lo > hi:
        raise ModelError("need step > 0 and lo <= hi")
    # lo == hi gives a single-point lattice (the degenerate one)
    count = int(math.floor((hi - lo) / h + 0.5)) + 1
    if abs(lo + (count - 1) * h - hi) > 1e-9 * h:
        raise ModelError(f"span [{lo}, {hi}] is not a multiple of step {h}")
    return Grid(lo=lo, hi=hi, step=h, points=np.linspace(lo, hi, count))


def nearest_index(grid: Grid, e) -> np.ndarray:
    """Index of the nearest lattice point to each error; distance ties
    resolve toward the lower index. A float gives an int, an array of
    errors an index array of its shape."""
    e = np.asarray(e, dtype=float)
    k = np.ceil((e - grid.lo) / grid.step - 0.5).astype(np.int64)
    idx = np.clip(k, 0, grid.n_states - 1)
    return int(idx) if e.ndim == 0 else idx


def cell(grid: Grid, index: int) -> tuple[float, float]:
    """(lower, upper) interval of one lattice point; the outermost cells
    reach to infinity."""
    x, half = float(grid.points[index]), 0.5 * grid.step
    lower = -math.inf if index == 0 else x - half
    upper = math.inf if index == grid.n_states - 1 else x + half
    return lower, upper


def uniform_actions(a_max: float, count: int) -> np.ndarray:
    """`count` evenly spaced scalar injections over [-a_max, a_max]."""
    if a_max < 0.0 or count < 1:
        raise ModelError(f"need a_max >= 0 and count >= 1, got {a_max}, {count}")
    return np.linspace(-a_max, a_max, count) if count > 1 else np.zeros(1)


# ---------------------------------------------------------------------------
# Joint noise statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ScalarLaw:
    """The scalar alarm/next-error pair at threshold eta.

    Given (e, a) the residual is N(CA e + a, s1^2) and alarms outside
    [-theta, theta]; the next error is N(error_mean, s2^2) before the
    mitigation shift K delta on alarm; rho correlates the two.
    """

    CA: float
    K: float
    A_K: float
    s1: float
    s2: float
    rho: float
    theta: float

    def alarm_band(self, e, a):
        """Standardized no-alarm band (lower, upper) of the residual."""
        y1 = self.CA * e + a
        return (-self.theta - y1) / self.s1, (self.theta - y1) / self.s1

    def error_mean(self, e, a):
        return self.A_K * e - self.K * a


def _scalar_law(model: SystemModel, ss: SteadyState, eta: float) -> _ScalarLaw:
    """The law at threshold eta, and the two checks of the decision
    problem's own input: eta through DetectorConfig (NaN or negative raise
    DefenseError; inf never alarms), and a next error of nonzero variance
    (Q = 0 with K = 0 leaves a point mass, which the rows cannot take)."""
    eta = DetectorConfig(eta).eta
    # the joint covariance of (C w + v, W_K w - K v) in the module
    # docstring, each entry in its matrix products' order of operations
    C, Q, R, K, W_K = model.C, model.Q, model.R, ss.K, ss.W_K
    s1 = math.sqrt(C * Q * C + R)
    s2 = math.sqrt(W_K * Q * W_K + K * R * K)
    if s2 == 0.0:
        raise ModelError(f"the decision problem needs a random next error, "
                         f"but its variance W_K^2 Q + K^2 R is 0 (Q = {Q}, "
                         f"K = {K}); add process noise")
    rho = min(1.0, max(-1.0, (C * Q * W_K - R * K) / (s1 * s2)))
    return _ScalarLaw(CA=C * model.A, K=K, A_K=ss.A_K, s1=s1, s2=s2,
                      rho=rho, theta=math.sqrt(eta * ss.P_r))


# ---------------------------------------------------------------------------
# Detection probability
# ---------------------------------------------------------------------------


def detection_prob(model: SystemModel, ss: SteadyState, eta: float,
                   e: float, a: float) -> float:
    """P(alarm | e, a) one step ahead, in closed form."""
    lo, hi = _scalar_law(model, ss, eta).alarm_band(e, a)
    return float(ndtr(lo) + 1.0 - ndtr(hi))


# ---------------------------------------------------------------------------
# Exact scalar transition rows
# ---------------------------------------------------------------------------


def _cells_from_cum(cum: np.ndarray, total: np.ndarray, out: np.ndarray):
    """Cell masses into out from a cumulative evaluated at the N+1 finite
    edges; the outermost cells absorb everything beyond the edges (they
    extend to +-inf), so rows lose no mass to truncation."""
    n_cells = cum.shape[1] - 1
    if n_cells == 1:
        out[:, 0] = total
        return
    out[:, 0] = cum[:, 1]
    np.subtract(cum[:, 2:n_cells], cum[:, 1:n_cells - 1],
                out=out[:, 1:n_cells - 1])
    out[:, n_cells - 1] = total - cum[:, n_cells - 1]


def _scalar_rows(law: _ScalarLaw, grid: Grid, e_arr: np.ndarray,
                 a_arr: np.ndarray):
    """Exact transition rows for paired (e, a) scalars, delta = a.

    Returns (rows, detection, interior_mass); rows are renormalized to sum
    exactly 1, interior_mass is the pre-fold probability inside the finite
    grid span.
    """
    s2, rho = law.s2, law.rho

    pts = grid.points
    half = 0.5 * grid.step
    edges = np.concatenate([[pts[0] - half], pts + half])  # N+1 finite edges

    y2 = law.error_mean(e_arr, a_arr)
    tail_mean = y2 + law.K * a_arr  # not A_K e: ulps apart on some rows
    l1, u1 = law.alarm_band(e_arr, a_arr)
    band = ndtr(u1) - ndtr(l1)
    det = 1.0 - band

    n_rows = e_arr.size
    n_cells = pts.size
    rows = np.empty((n_rows, n_cells))
    interior = np.empty(n_rows)
    # At most _TILE entries per tile. Every stage writes into four
    # buffers taken once (views for a ragged last tile), and every kernel
    # call into one workspace: fresh temporaries, freed each tile, would
    # fault their pages in again every tile. A tail
    # row's c2 and Phi(c2) depend on its tail mean alone, which repeats
    # across the actions of a state, so they are taken once per distinct
    # mean and gathered into the tile's rows. Equal means give equal c2
    # bits, +0 and -0 too, since no edge is -0.
    tile = max(1, min(_TILE // edges.size, n_rows))
    buffers = np.empty((4, tile, edges.size))
    work = BvnWorkspace(buffers[0].size)
    for start in range(0, n_rows, tile):
        sl = slice(start, min(start + tile, n_rows))
        c1, c2, cum, spare = buffers[:, :sl.stop - start]
        l1c, u1c = l1[sl, None], u1[sl, None]
        np.divide(np.subtract(edges, y2[sl, None], out=c1), s2, out=c1)
        means, which = np.unique(tail_mean[sl], return_inverse=True)
        c2_means = (edges - means[:, None]) / s2
        # mode="clip" (indices are in range) writes out unbuffered
        np.take(c2_means, which, axis=0, out=c2, mode="clip")
        # the no-alarm band into its cells first, so the tails reuse cum
        np.subtract(bvn_cdf(u1c, c1, rho, out=cum, work=work),
                    bvn_cdf(l1c, c1, rho, out=spare, work=work), out=cum)
        chunk = rows[sl]
        _cells_from_cum(cum, band[sl], chunk)
        interior[sl] = cum[:, -1] - cum[:, 0]
        phi_c2 = c1  # c1 is spent; both c2 calls read Phi(c2) from it
        np.take(ndtr(c2_means), which, axis=0, out=phi_c2, mode="clip")
        np.add(bvn_cdf(l1c, c2, rho, out=cum, phi_k=phi_c2, work=work),
               phi_c2, out=cum)
        cum -= bvn_cdf(u1c, c2, rho, out=spare, phi_k=phi_c2, work=work)
        tail = c2[:, :n_cells]  # c2 is spent too
        _cells_from_cum(cum, det[sl], tail)
        interior[sl] += cum[:, -1] - cum[:, 0]
        chunk += tail
        np.clip(chunk, 0.0, None, out=chunk)
        sums = chunk.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise NumericsError(f"transition row mass off by {worst:.3e} "
                                f"before renormalization")
        chunk /= sums[:, None]
    return rows, det, interior


def cell_transition_prob(model: SystemModel, ss: SteadyState, eta: float,
                         e: float, a: float, delta: float, target) -> float:
    """P(e' in target | e, a) with mitigation delta applied on alarm, by
    exact bivariate-rectangle evaluation; target is a (lower, upper) pair."""
    law = _scalar_law(model, ss, eta)
    y2 = law.error_mean(e, a)
    l1, u1 = law.alarm_band(e, a)
    lo, hi = target
    p_band = bvn_rect(l1, u1, (lo - y2) / law.s2, (hi - y2) / law.s2, law.rho)
    return float(p_band + alarm_cell_mass(model, ss, eta, e, a, delta, target))


def alarm_cell_mass(model: SystemModel, ss: SteadyState, eta: float,
                    e: float, a: float, delta: float, target) -> float:
    """Alarm-branch part of cell_transition_prob: the probability that the
    alarm fires and e' lands in the target cell. Summed over a partition of
    the state space this recovers detection_prob."""
    law = _scalar_law(model, ss, eta)
    y2d = law.error_mean(e, a) + law.K * delta
    l1, u1 = law.alarm_band(e, a)
    lo, hi = ((x - y2d) / law.s2 for x in target)
    return float(bvn_rect(-np.inf, l1, lo, hi, law.rho)
                 + bvn_rect(u1, np.inf, lo, hi, law.rho))


# ---------------------------------------------------------------------------
# Full transition model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransitionModel:
    """Transition law and alarm probabilities on the lattice.

    rows[i, k, j] = P(e' in cell j | e = point i, a = action k);
    detection[i, k] = P(alarm | e = point i, a = action k);
    interior_mass[i, k] = pre-fold mass inside the finite grid span.
    """

    grid: Grid
    actions: np.ndarray
    rows: np.ndarray
    detection: np.ndarray
    interior_mass: np.ndarray


def build_transition_model(model: SystemModel, ss: SteadyState, eta: float,
                           grid: Grid, actions: np.ndarray) -> TransitionModel:
    """Exact transition law for every (lattice point, action) pair of a
    scalar system, with perfect mitigation on alarm.

    Mass escaping the finite grid span folds into the boundary cells; rows
    whose pre-fold interior mass drops below 0.99 trigger a
    TruncationWarning suggesting wider bounds.
    """
    law = _scalar_law(model, ss, eta)
    actions = np.asarray(actions, dtype=float)

    n_states = grid.n_states
    n_actions = actions.shape[0]
    rows, det, interior = _scalar_rows(
        law, grid, np.repeat(grid.points, n_actions),
        np.tile(actions, n_states))

    low = interior < _MASS_WARNING
    if np.any(low):
        warnings.warn(
            f"{int(low.sum())} of {interior.size} transition rows keep less "
            f"than {_MASS_WARNING:.2f} probability inside the grid span "
            f"(worst {float(interior.min()):.4f}); consider wider bounds",
            TruncationWarning, stacklevel=2)

    shape = (n_states, n_actions)
    return TransitionModel(grid=grid, actions=actions,
                           rows=rows.reshape(shape + (n_states,)),
                           detection=det.reshape(shape),
                           interior_mass=interior.reshape(shape))


def expected_reward(tm: TransitionModel, state_index: int,
                    action_index: int) -> float:
    """Expected squared error after one step from the given pair."""
    sq = tm.grid.points ** 2
    return float(tm.rows[state_index, action_index] @ sq)


def immediate_reward_curve(model: SystemModel, ss: SteadyState, eta: float,
                           grid: Grid, magnitudes):
    """Magnitude/stealthiness tradeoff at e = 0 for a scalar system.

    Returns (detection, reward) arrays over the given injection magnitudes:
    the alarm probability and the expected one-step squared error on the
    lattice. Only the e = 0 rows are built, so this is cheap enough for
    interactive sweeps.
    """
    law = _scalar_law(model, ss, eta)
    a_arr = np.atleast_1d(np.asarray(magnitudes, dtype=float))
    e_arr = np.zeros_like(a_arr)
    rows, det, _ = _scalar_rows(law, grid, e_arr, a_arr)
    sq = grid.points ** 2
    return det, rows @ sq


# ---------------------------------------------------------------------------
# Value iteration and policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Policy:
    """Stage-indexed attack policy.

    action_table[s - 1, i] is the injection at lattice point i with s stages
    remaining; values[s, i] the corresponding optimal expected cumulative
    squared error (values[0] = 0). Actions satisfy |a| <= a_max.
    """

    grid: Grid
    actions: np.ndarray
    action_table: np.ndarray
    values: np.ndarray
    gamma: float
    a_max: float

    @property
    def horizon(self) -> int:
        return self.action_table.shape[0]


def value_iteration(tm: TransitionModel, horizon: int,
                    gamma: float = 1.0) -> Policy:
    """Backward induction over the transition model.

    Maximizes E[sum of e^2 over the horizon] (discounted by gamma per
    stage) over the lattice actions; argmax ties resolve to the smallest
    action index.
    """
    if horizon < 1:
        raise ModelError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < gamma <= 1.0:
        raise ModelError(f"gamma must lie in (0, 1], got {gamma}")
    n_states, n_actions, _ = tm.rows.shape
    sq = tm.grid.points ** 2
    flat = tm.rows.reshape(n_states * n_actions, n_states)
    r_imm = (flat @ sq).reshape(n_states, n_actions)
    a_max = float(np.max(np.abs(tm.actions)))

    values = np.zeros((horizon + 1, n_states))
    table = np.zeros((horizon, n_states))
    for s in range(1, horizon + 1):
        q = r_imm + gamma * (flat @ values[s - 1]).reshape(n_states, n_actions)
        best_idx = np.argmax(q, axis=1)
        values[s] = q[np.arange(n_states), best_idx]
        table[s - 1] = tm.actions[best_idx]
    return Policy(grid=tm.grid, actions=tm.actions, action_table=table,
                  values=values, gamma=float(gamma), a_max=a_max)


def policy_lookup(policy: Policy, stage_remaining: int, e) -> np.ndarray:
    """Injection at error e with the given number of stages to go.

    e snaps to the nearest lattice point (ties to the lower index). A
    float error gives a float injection, a (W,) batch a (W,) array.
    """
    if not 1 <= stage_remaining <= policy.horizon:
        raise ModelError(f"stage_remaining {stage_remaining} outside "
                         f"[1, {policy.horizon}]")
    idx = nearest_index(policy.grid, e)
    return policy.action_table[stage_remaining - 1, idx]
