"""Finite-horizon decision problem for the optimal sensor injection.

The attacker observes the estimation error e[t] and injects a with
||a|| <= a_max. Conditioned on e[t] = e and injection a, the alarm and the
next error are coupled through the Gaussian pair

    X1 = C w + v        (the random part of the residual)
    X2 = W_K w - K v    (the random part of the next error)

with joint covariance [[C Q C' + R, C Q W_K' - R K'], [., W_K Q W_K' +
K R K']]: the residual is X1 + (C A e + a), the alarm fires when its
quadratic statistic exceeds eta, and the next error is

    X2 + A_K e - K a              without an alarm
    X2 + A_K e - K (a - delta)    with one,

where delta is the mitigation the attacker assumes (delta = a by default).
The error is discretized on a regular lattice; in the scalar case each
transition row is computed exactly from bivariate-normal rectangles (the
no-alarm band plus the two alarm tails, the tails shifted by K delta), and
otherwise by seeded sampling. Value iteration maximizes the expected
cumulative squared error norm over the horizon.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .lti import ModelError, SteadyState, SystemModel
from .numerics import (NumericsError, Rect, RngStream, bvn_cdf, bvn_rect,
                       psd_factor)

_ROW_CHUNK = 4096
_DELTA_RULES = ("perfect", "off")


class TruncationWarning(UserWarning):
    """A transition row leaks noticeable probability mass past the grid."""


# ---------------------------------------------------------------------------
# State lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Grid:
    """Regular lattice over a box. points is (N, n) in C order (last axis
    fastest); cells are the nearest-neighbor boxes, with the outermost cells
    extended to infinity."""

    axes: tuple
    step: np.ndarray
    bounds: np.ndarray
    points: np.ndarray
    shape: tuple

    @property
    def n_states(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def build_grid(bounds, step) -> Grid:
    """Lattice covering each [lo, hi] with the given per-dimension spacing.

    (hi - lo) must be an integer multiple of the spacing (to 1e-9 relative)
    so the lattice lands exactly on the bounds.
    """
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    step = np.atleast_1d(np.asarray(step, dtype=float))
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ModelError(f"bounds must be (n, 2), got {bounds.shape}")
    if step.shape != (bounds.shape[0],):
        raise ModelError(f"step must have one entry per dimension, got "
                         f"{step.shape} for {bounds.shape[0]} dims")
    if np.any(step <= 0.0) or np.any(bounds[:, 0] > bounds[:, 1]):
        raise ModelError("need step > 0 and lo <= hi in every dimension")
    axes = []
    for (lo, hi), h in zip(bounds, step):
        # lo == hi gives a single-point axis (the degenerate lattice)
        count = int(math.floor((hi - lo) / h + 0.5)) + 1
        if abs(lo + (count - 1) * h - hi) > 1e-9 * h:
            raise ModelError(f"span [{lo}, {hi}] is not a multiple of step {h}")
        axes.append(np.linspace(lo, hi, count))
    shape = tuple(ax.size for ax in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    return Grid(axes=tuple(axes), step=step, bounds=bounds, points=points,
                shape=shape)


def nearest_index(grid: Grid, e) -> np.ndarray:
    """Flat index of the nearest lattice point; distance ties resolve toward
    the lower index. Accepts a single point (n,) or a batch (B, n)."""
    e = np.asarray(e, dtype=float)
    single = e.ndim == 1
    pts = np.atleast_2d(e)
    if pts.shape[1] != grid.dim:
        raise ModelError(f"points have dimension {pts.shape[1]}, grid has "
                         f"{grid.dim}")
    idx = []
    for d in range(grid.dim):
        rel = (pts[:, d] - grid.bounds[d, 0]) / grid.step[d]
        k = np.ceil(rel - 0.5).astype(np.int64)
        idx.append(np.clip(k, 0, grid.shape[d] - 1))
    flat = np.ravel_multi_index(tuple(idx), grid.shape)
    return int(flat[0]) if single else flat


def cell(grid: Grid, index: int) -> Rect:
    """Voronoi cell of a lattice point; outermost cells reach to infinity."""
    multi = np.unravel_index(int(index), grid.shape)
    lower = np.empty(grid.dim)
    upper = np.empty(grid.dim)
    for d, k in enumerate(multi):
        half = 0.5 * grid.step[d]
        lower[d] = -np.inf if k == 0 else grid.axes[d][k] - half
        upper[d] = np.inf if k == grid.shape[d] - 1 else grid.axes[d][k] + half
    return Rect(lower, upper)


def uniform_actions(a_max: float, count: int, m: int = 1) -> np.ndarray:
    """Per-axis lattice of `count` injections over [-a_max, a_max], filtered
    to the closed norm ball (so every action is admissible for m >= 2)."""
    if a_max < 0.0 or count < 1:
        raise ModelError(f"need a_max >= 0 and count >= 1, got {a_max}, {count}")
    axis = np.linspace(-a_max, a_max, count) if count > 1 else np.zeros(1)
    mesh = np.meshgrid(*([axis] * m), indexing="ij")
    acts = np.stack([g.ravel() for g in mesh], axis=1)
    keep = np.linalg.norm(acts, axis=1) <= a_max + 1e-12
    return acts[keep]


# ---------------------------------------------------------------------------
# Joint noise statistics
# ---------------------------------------------------------------------------


def _joint_noise_cov(model: SystemModel, ss: SteadyState):
    """Covariance blocks of (C w + v, W_K w - K v)."""
    S11 = model.C @ model.Q @ model.C.T + model.R
    S12 = model.C @ model.Q @ ss.W_K.T - model.R @ ss.K.T
    S22 = ss.W_K @ model.Q @ ss.W_K.T + ss.K @ model.R @ ss.K.T
    return S11, S12, S22


def _delta_of(delta_rule: str, a: np.ndarray) -> np.ndarray:
    if delta_rule == "perfect":
        return a
    if delta_rule == "off":
        return np.zeros_like(a)
    raise ModelError(f"unknown delta rule {delta_rule!r}; expected one of "
                     f"{_DELTA_RULES}")


def _is_scalar(model: SystemModel) -> bool:
    return model.n == 1 and model.m == 1


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
    S11, S12, S22 = _joint_noise_cov(model, ss)
    s1 = math.sqrt(S11[0, 0])
    s2 = math.sqrt(S22[0, 0])
    return _ScalarLaw(
        CA=model.C[0, 0] * model.A[0, 0], K=ss.K[0, 0], A_K=ss.A_K[0, 0],
        s1=s1, s2=s2, rho=min(1.0, max(-1.0, S12[0, 0] / (s1 * s2))),
        theta=math.sqrt(eta * ss.P_r[0, 0]) if math.isfinite(eta)
        else math.inf)


# ---------------------------------------------------------------------------
# Detection probability
# ---------------------------------------------------------------------------


def detection_prob(model: SystemModel, ss: SteadyState, eta: float, e, a,
                   stream: RngStream | None = None,
                   samples: int = 100_000) -> float:
    """P(alarm | e, a) one step ahead.

    Exact in the scalar case; otherwise the alarm rate of the seeded
    one-step sampler (stream required).
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if eta < 0.0:
        raise ModelError(f"eta must be >= 0, got {eta}")
    if _is_scalar(model):
        law = _scalar_law(model, ss, eta)
        lo, hi = law.alarm_band(e[0], a[0])
        return float(ndtr(lo) + 1.0 - ndtr(hi))
    if stream is None:
        raise NumericsError("detection_prob needs an RngStream for "
                            "non-scalar systems")
    # delta (here a) moves only e', never the alarm
    alarm, _ = _sample_one_step(model, ss, eta, e, a, a, stream, samples)
    return float(alarm.mean())


# ---------------------------------------------------------------------------
# Exact scalar transition rows
# ---------------------------------------------------------------------------


def _cells_from_cum(cum: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Cell masses from a cumulative evaluated at the N+1 finite edges; the
    outermost cells absorb everything beyond the edges (they extend to
    +-inf), so rows lose no mass to truncation."""
    n_cells = cum.shape[1] - 1
    out = np.empty((cum.shape[0], n_cells))
    if n_cells == 1:
        out[:, 0] = total
        return out
    out[:, 0] = cum[:, 1]
    if n_cells > 2:
        out[:, 1:n_cells - 1] = np.diff(cum[:, 1:n_cells], axis=1)
    out[:, n_cells - 1] = total - cum[:, n_cells - 1]
    return out


def _scalar_rows(model: SystemModel, ss: SteadyState, eta: float, grid: Grid,
                 e_arr: np.ndarray, a_arr: np.ndarray, delta_arr: np.ndarray):
    """Exact transition rows for paired (e, a, delta) scalars.

    Returns (rows, detection, interior_mass); rows are renormalized to sum
    exactly 1, interior_mass is the pre-fold probability inside the finite
    grid span.
    """
    law = _scalar_law(model, ss, eta)
    s2, rho = law.s2, law.rho

    ax = grid.axes[0]
    half = 0.5 * grid.step[0]
    edges = np.concatenate([[ax[0] - half], ax + half])  # N+1 finite edges

    y2 = law.error_mean(e_arr, a_arr)
    shift = law.K * delta_arr
    l1, u1 = law.alarm_band(e_arr, a_arr)
    band = ndtr(u1) - ndtr(l1)
    det = 1.0 - band

    n_rows = e_arr.size
    n_cells = ax.size
    rows = np.empty((n_rows, n_cells))
    interior = np.empty(n_rows)
    for start in range(0, n_rows, _ROW_CHUNK):
        sl = slice(start, min(start + _ROW_CHUNK, n_rows))
        c1 = (edges[None, :] - y2[sl, None]) / s2
        c2 = (edges[None, :] - (y2[sl, None] + shift[sl, None])) / s2
        l1c = l1[sl, None]
        u1c = u1[sl, None]
        cum_band = bvn_cdf(u1c, c1, rho) - bvn_cdf(l1c, c1, rho)
        cum_tail = bvn_cdf(l1c, c2, rho) + ndtr(c2) - bvn_cdf(u1c, c2, rho)
        chunk = (_cells_from_cum(cum_band, band[sl])
                 + _cells_from_cum(cum_tail, det[sl]))
        np.clip(chunk, 0.0, None, out=chunk)
        sums = chunk.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise NumericsError(f"transition row mass off by {worst:.3e} "
                                f"before renormalization")
        rows[sl] = chunk / sums[:, None]
        interior[sl] = ((cum_band[:, -1] - cum_band[:, 0])
                        + (cum_tail[:, -1] - cum_tail[:, 0]))
    return rows, det, interior


def cell_transition_prob(model: SystemModel, ss: SteadyState, eta: float,
                         e, a, delta, target: Rect,
                         stream: RngStream | None = None,
                         samples: int = 100_000) -> float:
    """P(e' in target | e, a) with mitigation delta applied on alarm.

    Exact bivariate-rectangle evaluation in the scalar case; seeded
    sampling of the one-step recursion otherwise (stream required).
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if eta < 0.0:
        raise ModelError(f"eta must be >= 0, got {eta}")
    if target.dim != model.n:
        raise ModelError(f"target cell has dimension {target.dim}, state has "
                         f"{model.n}")
    if _is_scalar(model):
        law = _scalar_law(model, ss, eta)
        y2 = law.error_mean(e[0], a[0])
        l1, u1 = law.alarm_band(e[0], a[0])
        lo, hi = target.lower[0], target.upper[0]
        p_band = bvn_rect(l1, u1, (lo - y2) / law.s2, (hi - y2) / law.s2,
                          law.rho)
        return float(p_band + alarm_cell_mass(model, ss, eta, e, a, delta,
                                              target))
    if stream is None:
        raise NumericsError("cell_transition_prob needs an RngStream for "
                            "non-scalar systems")
    _, e_next = _sample_one_step(model, ss, eta, e, a, delta, stream, samples)
    inside = np.all((e_next >= target.lower) & (e_next <= target.upper), axis=1)
    return float(inside.mean())


def alarm_cell_mass(model: SystemModel, ss: SteadyState, eta: float, e, a,
                    delta, target: Rect) -> float:
    """Alarm-branch part of cell_transition_prob (scalar exact path): the
    probability that the alarm fires and e' lands in the target cell. Summed
    over a partition of the state space this recovers detection_prob."""
    if not _is_scalar(model):
        raise ModelError("alarm_cell_mass is defined for scalar systems")
    e = np.atleast_1d(np.asarray(e, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    law = _scalar_law(model, ss, eta)
    y2d = law.error_mean(e[0], a[0]) + law.K * delta[0]
    l1, u1 = law.alarm_band(e[0], a[0])
    lo = (target.lower[0] - y2d) / law.s2
    hi = (target.upper[0] - y2d) / law.s2
    return float(bvn_rect(-np.inf, l1, lo, hi, law.rho)
                 + bvn_rect(u1, np.inf, lo, hi, law.rho))


def _sample_one_step(model, ss, eta, e, a, delta, stream, samples):
    """Seeded draws of (alarm, e') from (e, a), mitigation delta on alarm.

    The only non-scalar sampler: draws the w block, then the v block."""
    gen = stream.generator()
    w = gen.standard_normal((samples, model.n)) @ psd_factor(model.Q).T
    v = gen.standard_normal((samples, model.m)) @ psd_factor(model.R).T
    r = v + w @ model.C.T + (model.C @ model.A @ e + a)
    alarm = np.einsum("ij,jk,ik->i", r, ss.P_r_inv, r) > eta
    e_next = (e @ ss.A_K.T + w @ ss.W_K.T - v @ ss.K.T
              - (a - alarm[:, None] * delta) @ ss.K.T)
    return alarm, e_next


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
    eta: float
    delta_rule: str


def _sampled_rows_block(args):
    (model, ss, eta, grid, actions, delta_rule, stream, samples, row_ids) = args
    n_cells = grid.n_states
    rows = np.empty((len(row_ids), n_cells))
    det = np.empty(len(row_ids))
    interior = np.empty(len(row_ids))
    n_actions = actions.shape[0]
    lo_edge = grid.bounds[:, 0] - 0.5 * grid.step
    hi_edge = grid.bounds[:, 1] + 0.5 * grid.step
    for out_pos, rid in enumerate(row_ids):
        i, k = divmod(rid, n_actions)
        e = grid.points[i]
        a = actions[k]
        alarm, e_next = _sample_one_step(model, ss, eta, e, a,
                                         _delta_of(delta_rule, a),
                                         stream.child(rid), samples)
        flat = nearest_index(grid, e_next)
        rows[out_pos] = np.bincount(flat, minlength=n_cells) / samples
        det[out_pos] = alarm.mean()
        interior[out_pos] = np.all((e_next >= lo_edge) & (e_next <= hi_edge),
                                   axis=1).mean()
    return rows, det, interior


def build_transition_model(model: SystemModel, ss: SteadyState, eta: float,
                           grid: Grid, actions: np.ndarray,
                           delta_rule: str = "perfect", method: str = "auto",
                           stream: RngStream | None = None,
                           samples: int = 100_000, workers: int = 1,
                           mass_warning: float = 0.99) -> TransitionModel:
    """Transition law for every (lattice point, action) pair.

    method 'exact' uses the scalar bivariate-rectangle path (n = m = 1
    only), 'sample' the seeded one-step simulation, 'auto' picks exact when
    available. Mass escaping the finite grid span folds into the boundary
    cells; rows whose pre-fold interior mass drops below `mass_warning`
    trigger a TruncationWarning suggesting wider bounds.
    """
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    if actions.shape[1] != model.m:
        raise ModelError(f"actions have dimension {actions.shape[1]}, "
                         f"measurements have {model.m}")
    if grid.dim != model.n:
        raise ModelError(f"grid dimension {grid.dim} does not match state "
                         f"dimension {model.n}")
    if eta < 0.0:
        raise ModelError(f"eta must be >= 0, got {eta}")
    if delta_rule not in _DELTA_RULES:
        raise ModelError(f"unknown delta rule {delta_rule!r}")
    if method not in ("auto", "exact", "sample"):
        raise ModelError(f"unknown method {method!r}")
    if method == "exact" and not _is_scalar(model):
        raise ModelError("exact transition rows exist only for scalar systems")
    use_exact = method == "exact" or (method == "auto" and _is_scalar(model))

    n_states = grid.n_states
    n_actions = actions.shape[0]
    if use_exact:
        e_mesh = np.repeat(grid.points[:, 0], n_actions)
        a_mesh = np.tile(actions[:, 0], n_states)
        d_mesh = _delta_of(delta_rule, a_mesh)
        rows, det, interior = _scalar_rows(model, ss, eta, grid,
                                           e_mesh, a_mesh, d_mesh)
    else:
        if stream is None:
            raise NumericsError("sampled transition rows need an RngStream")
        row_ids = list(range(n_states * n_actions))
        blocks = [row_ids[i:i + 256] for i in range(0, len(row_ids), 256)]
        args = [(model, ss, eta, grid, actions, delta_rule, stream, samples, b)
                for b in blocks]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(_sampled_rows_block, args))
        else:
            parts = [_sampled_rows_block(arg) for arg in args]
        rows = np.concatenate([p[0] for p in parts])
        det = np.concatenate([p[1] for p in parts])
        interior = np.concatenate([p[2] for p in parts])

    low = interior < mass_warning
    if np.any(low):
        warnings.warn(
            f"{int(low.sum())} of {interior.size} transition rows keep less "
            f"than {mass_warning:.2f} probability inside the grid span "
            f"(worst {float(interior.min()):.4f}); consider wider bounds",
            TruncationWarning, stacklevel=2)

    shape = (n_states, n_actions)
    return TransitionModel(grid=grid, actions=actions,
                           rows=rows.reshape(shape + (n_states,)),
                           detection=det.reshape(shape),
                           interior_mass=interior.reshape(shape),
                           eta=float(eta), delta_rule=delta_rule)


def expected_reward(tm: TransitionModel, state_index: int,
                    action_index: int) -> float:
    """Expected squared error norm after one step from the given pair."""
    sq = np.einsum("ij,ij->i", tm.grid.points, tm.grid.points)
    return float(tm.rows[state_index, action_index] @ sq)


def immediate_reward_curve(model: SystemModel, ss: SteadyState, eta: float,
                           grid: Grid, magnitudes,
                           delta_rule: str = "perfect"):
    """Magnitude/stealthiness tradeoff at e = 0 for a scalar system.

    Returns (detection, reward) arrays over the given injection magnitudes:
    the alarm probability and the expected one-step squared error on the
    lattice. Only the e = 0 rows are built, so this is cheap enough for
    interactive sweeps.
    """
    if not _is_scalar(model):
        raise ModelError("the closed-form sweep needs a scalar system")
    if grid.dim != 1:
        raise ModelError(f"grid dimension {grid.dim} does not match a "
                         f"scalar state")
    a_arr = np.atleast_1d(np.asarray(magnitudes, dtype=float))
    e_arr = np.zeros_like(a_arr)
    rows, det, _ = _scalar_rows(model, ss, eta, grid, e_arr, a_arr,
                                _delta_of(delta_rule, a_arr))
    sq = grid.points[:, 0] ** 2
    return det, rows @ sq


# ---------------------------------------------------------------------------
# Value iteration and policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Policy:
    """Stage-indexed attack policy.

    action_table[s - 1, i] is the injection at lattice point i with s stages
    remaining; values[s, i] the corresponding optimal expected cumulative
    squared error norm (values[0] = 0). Actions satisfy ||a|| <= a_max.
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


def value_iteration(tm: TransitionModel, horizon: int, gamma: float = 1.0,
                    refine: bool = False, model: SystemModel | None = None,
                    ss: SteadyState | None = None) -> Policy:
    """Backward induction over the transition model.

    Maximizes E[sum of ||e||^2 over the horizon] (discounted by gamma per
    stage); argmax ties resolve to the smallest action index. With
    refine=True (scalar exact path only; requires model and ss) each sweep
    locally improves the incumbent action by a 3-point bracket halved over
    4 rounds, recovering continuous-action quality between lattice points.
    """
    if horizon < 1:
        raise ModelError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < gamma <= 1.0:
        raise ModelError(f"gamma must lie in (0, 1], got {gamma}")
    n_states, n_actions, _ = tm.rows.shape
    sq = np.einsum("ij,ij->i", tm.grid.points, tm.grid.points)
    flat = tm.rows.reshape(n_states * n_actions, n_states)
    r_imm = (flat @ sq).reshape(n_states, n_actions)
    a_max = float(np.max(np.linalg.norm(tm.actions, axis=1)))
    if refine and (model is None or ss is None or not _is_scalar(model)):
        raise ModelError("refine needs the scalar model and steady state")

    values = np.zeros((horizon + 1, n_states))
    table = np.zeros((horizon, n_states, tm.actions.shape[1]))
    spacing = float(np.min(np.diff(np.unique(tm.actions[:, 0])))) \
        if refine else 0.0
    for s in range(1, horizon + 1):
        q = r_imm + gamma * (flat @ values[s - 1]).reshape(n_states, n_actions)
        best_idx = np.argmax(q, axis=1)
        best_q = q[np.arange(n_states), best_idx]
        best_a = tm.actions[best_idx].copy()
        if refine:
            target = sq + gamma * values[s - 1]
            cur_a = best_a[:, 0]
            for level in range(1, 5):
                d = spacing / 2.0 ** level
                for side in (-1.0, 1.0):
                    cand = np.clip(cur_a + side * d, -a_max, a_max)
                    rows_c, _, _ = _scalar_rows(
                        model, ss, tm.eta, tm.grid, tm.grid.points[:, 0],
                        cand, _delta_of(tm.delta_rule, cand))
                    q_c = rows_c @ target
                    better = q_c > best_q
                    best_q = np.where(better, q_c, best_q)
                    cur_a = np.where(better, cand, cur_a)
            best_a = cur_a[:, None]
        values[s] = best_q
        table[s - 1] = best_a
    return Policy(grid=tm.grid, actions=tm.actions, action_table=table,
                  values=values, gamma=float(gamma), a_max=a_max)


def policy_lookup(policy: Policy, stage_remaining: int, e) -> np.ndarray:
    """Injection at error e with the given number of stages to go.

    e snaps to the nearest lattice point (ties to the lower index). Accepts
    a single error vector or a batch (B, n).
    """
    if not 1 <= stage_remaining <= policy.horizon:
        raise ModelError(f"stage_remaining {stage_remaining} outside "
                         f"[1, {policy.horizon}]")
    idx = nearest_index(policy.grid, e)
    return policy.action_table[stage_remaining - 1, idx]
