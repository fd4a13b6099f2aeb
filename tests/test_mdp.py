"""Decision-problem tests: lattice, transition law, value iteration.

What is proven here:
  * build_grid reproduces the 241-point benchmark lattice, rejects spans
    that are not step multiples, and nearest_index snaps with ties to the
    lower index, a float to an int and an array of errors entry by entry.
    The lattice is scalar: build_grid takes lo, hi and the step as
    floats and gives (N,) points, uniform_actions a (K,) lattice, and
    cells are the nearest-neighbor intervals as (lower, upper) float
    pairs. The config and the artifact refuse a lattice of any other
    shape (tests/test_cli.py).
  * The scalar law's CA, s1, s2 and rho equal, bit for bit, their route
    through the joint covariance blocks C Q C' + R, C Q W_K' - R K' and
    W_K Q W_K' + K R K' on 200 seeded scalar models.
  * detection_prob matches its frozen closed-form value 0.30356... at
    (e=0, a=10, eta=10), is 1 at eta=0 and 0 at eta=inf, is symmetric under
    (e, a) -> (-e, -a), and agrees with direct Monte-Carlo simulation of the
    one-step recursion within 4 std-errors.
  * detection_prob, cell_transition_prob, alarm_cell_mass,
    build_transition_model and immediate_reward_curve raise DefenseError
    for a NaN or negative threshold, as DetectorConfig does on the rollout
    side; eta = inf still never alarms.  (A model of any shape but scalar
    cannot be built, see test_lti.)
  * cell_transition_prob agrees with the same Monte-Carlo oracle cell-wise,
    reduces to a univariate normal when eta = inf, and its band + alarm
    decomposition (alarm_cell_mass) is consistent; alarm masses over a
    partition sum to the detection probability.
  * build_transition_model rows sum to one, match detection_prob exactly,
    keep >= 0.99 mass inside the benchmark grid, warn on a grid that
    truncates, and the zero-injection row reproduces the stationary
    next-error variance W_K^2 Q + K^2 R.
  * The bivariate kernel's saturation past 10 sigma moves the benchmark
    rows by at most 1e-15 and leaves detection, interior mass and the
    solved policy (actions and values) bit-identical.
  * The exact rows, detection and interior mass are bit-identical whatever
    the row-tile size and whatever the order of the (e, a) pairs; the
    tails take Phi(c2) on one row per distinct tail mean; and the
    benchmark-shaped row build allocates at most 16 MiB beyond its
    outputs.
  * Whole exact rows and detection on a small lattice agree, within
    Monte-Carlo error, with the independent one-step oracle's draws of e'
    histogrammed into the lattice cells.
  * value_iteration: values nonnegative, even in the state, nondecreasing
    in stage; argmax ties break to the smallest action index; stage-1
    values equal the best immediate reward.
  * policy_lookup validates the stage range and snaps states.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from fdisim import mdp, numerics
from fdisim.defense import DefenseError
from fdisim.lti import ModelError, SystemModel, derive_steady_state
from fdisim.mdp import (
    Grid,
    TruncationWarning,
    alarm_cell_mass,
    build_grid,
    build_transition_model,
    cell,
    cell_transition_prob,
    detection_prob,
    expected_reward,
    immediate_reward_curve,
    nearest_index,
    policy_lookup,
    uniform_actions,
    value_iteration,
)

P_INF = (1.0 + math.sqrt(41.0)) / 2.0
K_GAIN = P_INF / (P_INF + 10.0)
DET_AT_10 = 0.3035604335294764  # closed form at e=0, a=10, eta=10


@pytest.fixture(scope="module")
def bench():
    model = SystemModel(A=1.0, B=1.0, C=1.0, Q=1.0, R=10.0)
    return model, derive_steady_state(model)


@pytest.fixture(scope="module")
def bench_tm(bench):
    model, ss = bench
    grid = build_grid(-30.0, 30.0, 0.25)
    return build_transition_model(model, ss, eta=10.0, grid=grid,
                                  actions=uniform_actions(20.0, 81))


def mc_one_step(model, ss, eta, e, a, delta, n, seed):
    """Independent oracle: simulate the one-step recursion directly."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, math.sqrt(model.Q), size=n)
    v = rng.normal(0.0, math.sqrt(model.R), size=n)
    r = model.C * (model.A * e + w) + v + a
    alarm = r * r / ss.P_r > eta
    e_next = (ss.A_K * e + ss.W_K * w - ss.K * v
              - ss.K * (a - alarm * delta))
    return alarm, e_next


# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------


def test_benchmark_grid_has_241_states():
    grid = build_grid(-30.0, 30.0, 0.25)
    assert grid.n_states == 241
    assert grid.points[0] == -30.0 and grid.points[-1] == 30.0
    assert np.allclose(np.diff(grid.points), 0.25)


def test_grid_rejects_non_multiple_span():
    with pytest.raises(ModelError):
        build_grid(-1.0, 1.0, 0.3)
    with pytest.raises(ModelError):
        build_grid(1.0, -1.0, 0.25)


def test_nearest_index_snapping_and_ties():
    grid = build_grid(-2.0, 2.0, 1.0)  # points -2..2
    assert nearest_index(grid, 0.4) == 2
    assert nearest_index(grid, 0.6) == 3
    assert nearest_index(grid, 0.5) == 2  # midpoint ties to lower index
    assert nearest_index(grid, -0.5) == 1
    assert nearest_index(grid, 99.0) == 4  # clipped to the boundary
    assert nearest_index(grid, -99.0) == 0
    assert type(nearest_index(grid, 0.4)) is int
    batch = nearest_index(grid, [0.4, 0.5, 99.0])
    assert batch.tolist() == [2, 2, 4]


def test_lattice_is_scalar():
    grid = build_grid(-2.0, 2.0, 1.0)
    assert (grid.lo, grid.hi, grid.step) == (-2.0, 2.0, 1.0)
    assert grid.points.shape == (5,)
    # nearest-neighbor intervals; the outermost reach to infinity
    for index, (lower, upper) in ((0, (-np.inf, -1.5)), (2, (-0.5, 0.5)),
                                  (4, (1.5, np.inf))):
        c = cell(grid, index)
        assert c == (lower, upper)
        assert [type(x) for x in c] == [float, float]


def test_uniform_actions_lattice():
    acts = uniform_actions(20.0, 81)
    assert acts.shape == (81,)
    assert 10.0 in acts and -10.0 in acts and 0.0 in acts


# ---------------------------------------------------------------------------
# Scalar law and detection probability
# ---------------------------------------------------------------------------


def test_scalar_law_matches_joint_covariance_blocks():
    # the oracle is the matrix route through the covariance blocks of
    # (C w + v, W_K w - K v); the law's float arithmetic must give the same
    # bits, as every transition row is built from them
    rng = np.random.default_rng(24)
    for _ in range(200):
        A = rng.uniform(-1.5, 1.5)
        C = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
        Q, R = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        model = SystemModel(A=A, B=1.0, C=C, Q=Q, R=R)
        ss = derive_steady_state(model)
        Am, Cm, Qm, Rm, W_K, K = (np.array([[x]]) for x in (
            model.A, model.C, model.Q, model.R, ss.W_K, ss.K))
        S11 = Cm @ Qm @ Cm.T + Rm
        S12 = Cm @ Qm @ W_K.T - Rm @ K.T
        S22 = W_K @ Qm @ W_K.T + K @ Rm @ K.T
        s1, s2 = math.sqrt(S11[0, 0]), math.sqrt(S22[0, 0])
        law = mdp._scalar_law(model, ss, 10.0)
        assert (law.CA, law.s1, law.s2, law.rho) == (
            (Cm @ Am)[0, 0], s1, s2,
            min(1.0, max(-1.0, S12[0, 0] / (s1 * s2)))), (A, C, Q, R)


def test_detection_prob_frozen_value(bench):
    model, ss = bench
    p = detection_prob(model, ss, 10.0, 0.0, 10.0)
    assert p == pytest.approx(DET_AT_10, abs=1e-12)
    # explicit closed form route
    theta = math.sqrt(10.0 * ss.P_r)
    s1 = math.sqrt(11.0)
    exact = float(ndtr((-theta - 10.0) / s1)
                  + 1.0 - ndtr((theta - 10.0) / s1))
    assert p == pytest.approx(exact, abs=1e-15)


def test_detection_prob_extremes_and_symmetry(bench):
    model, ss = bench
    assert detection_prob(model, ss, 0.0, 3.0, 2.0) == pytest.approx(1.0)
    assert detection_prob(model, ss, np.inf, 3.0, 2.0) == 0.0
    p1 = detection_prob(model, ss, 10.0, 4.0, -7.0)
    p2 = detection_prob(model, ss, 10.0, -4.0, 7.0)
    assert p1 == pytest.approx(p2, abs=1e-14)


def test_detection_prob_against_mc_oracle(bench):
    model, ss = bench
    n = 200_000
    for i, (e, a) in enumerate([(0.0, 10.0), (5.0, -8.0), (-12.0, 3.0)]):
        alarm, _ = mc_one_step(model, ss, 10.0, e, a, a, n, seed=100 + i)
        p_hat = alarm.mean()
        p = detection_prob(model, ss, 10.0, e, a)
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(p - p_hat) < 4.0 * se + 1e-4, (e, a, p, p_hat)


@pytest.mark.parametrize("eta", [math.nan, -1.0])
def test_bad_threshold_raises_defense_error(bench, eta):
    model, ss = bench
    grid = build_grid(-2.0, 2.0, 1.0)
    target = cell(grid, 2)
    calls = [
        lambda: detection_prob(model, ss, eta, 0.0, 1.0),
        lambda: cell_transition_prob(model, ss, eta, 0.0, 1.0, 1.0,
                                     target),
        lambda: alarm_cell_mass(model, ss, eta, 0.0, 1.0, 1.0, target),
        lambda: build_transition_model(model, ss, eta, grid,
                                       uniform_actions(3.0, 3)),
        lambda: immediate_reward_curve(model, ss, eta, grid, [0.0, 1.0]),
    ]
    for call in calls:
        with pytest.raises(DefenseError, match="eta must be >= 0"):
            call()
    # an infinite threshold is a detector that never alarms
    assert detection_prob(model, ss, math.inf, 0.0, 10.0) == 0.0
    det, _ = immediate_reward_curve(model, ss, math.inf, grid, [0.0, 10.0])
    assert det.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# Cell transitions
# ---------------------------------------------------------------------------


def test_cell_transition_prob_against_mc_oracle(bench):
    model, ss = bench
    n = 200_000
    cells = [(-5.0, -2.0), (-1.0, 1.0), (2.0, 8.0)]
    for i, (e, a) in enumerate([(0.0, 10.0), (3.0, -6.0), (-8.0, 15.0)]):
        alarm, e_next = mc_one_step(model, ss, 10.0, e, a, a, n, seed=200 + i)
        for target in cells:
            p = cell_transition_prob(model, ss, 10.0, e, a, a, target)
            p_hat = np.mean((e_next >= target[0]) & (e_next <= target[1]))
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(p - p_hat) < 4.0 * se + 1e-4, (e, a, target, p, p_hat)


def test_cell_transition_never_detect_reduces_to_univariate(bench):
    # eta = inf: e' = A_K e - K a + X2 with X2 ~ N(0, W_K^2 Q + K^2 R)
    model, ss = bench
    e, a = 2.0, 6.0
    s2 = math.sqrt(ss.W_K ** 2 + ss.K ** 2 * 10.0)
    mean = ss.A_K * e - ss.K * a
    target = (-1.0, 2.0)
    p = cell_transition_prob(model, ss, np.inf, e, a, a, target)
    exact = float(ndtr((2.0 - mean) / s2)
                  - ndtr((-1.0 - mean) / s2))
    assert p == pytest.approx(exact, abs=1e-12)
    assert cell_transition_prob(model, ss, np.inf, e, a, a,
                                (-np.inf, np.inf)) == pytest.approx(1.0)


def test_alarm_band_decomposition_consistent(bench):
    model, ss = bench
    grid = build_grid(-10.0, 10.0, 0.5)
    e, a, delta = 1.5, 8.0, 8.0
    total_alarm = sum(alarm_cell_mass(model, ss, 10.0, e, a, delta,
                                      cell(grid, j))
                      for j in range(grid.n_states))
    det = detection_prob(model, ss, 10.0, e, a)
    assert total_alarm == pytest.approx(det, abs=1e-10)
    # band + alarm = full transition probability per cell
    for j in (0, 10, 20, 40):
        target = cell(grid, j)
        full = cell_transition_prob(model, ss, 10.0, e, a, delta, target)
        alarm_part = alarm_cell_mass(model, ss, 10.0, e, a, delta, target)
        band_part = cell_transition_prob(model, ss, np.inf, e, a, delta,
                                         target)
        # band under eta=inf is not the eta=10 band; recompute directly
        assert 0.0 <= alarm_part <= full + 1e-12
    partition_total = sum(
        cell_transition_prob(model, ss, 10.0, e, a, delta, cell(grid, j))
        for j in range(grid.n_states))
    assert partition_total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Full transition model
# ---------------------------------------------------------------------------


def test_transition_model_rows_and_detection(bench, bench_tm):
    model, ss = bench
    tm = bench_tm
    assert tm.rows.shape == (241, 81, 241)
    assert np.max(np.abs(tm.rows.sum(axis=2) - 1.0)) < 1e-12
    assert np.all(tm.rows >= 0.0)
    assert np.min(tm.interior_mass) >= 0.99
    # detection table equals the closed form on a sample of pairs
    for i, k in [(0, 0), (120, 40), (120, 60), (240, 80), (60, 10)]:
        e = tm.grid.points[i]
        a = tm.actions[k]
        assert tm.detection[i, k] == pytest.approx(
            detection_prob(model, ss, 10.0, e, a), abs=1e-10)


def test_transition_model_zero_action_variance(bench, bench_tm):
    # from e=0 with a=0 the next error is X2 ~ N(0, W_K^2 Q + K^2 R)
    model, ss = bench
    tm = bench_tm
    i0 = int(np.argmin(np.abs(tm.grid.points)))
    k0 = int(np.argmin(np.abs(tm.actions)))
    assert tm.actions[k0] == 0.0
    var_exact = ss.W_K ** 2 * 1.0 + ss.K ** 2 * 10.0
    assert expected_reward(tm, i0, k0) == pytest.approx(var_exact, abs=0.02)


def test_transition_model_matches_row_of_cell_transitions(bench, bench_tm):
    model, ss = bench
    tm = bench_tm
    i, k = 130, 55
    e = tm.grid.points[i]
    a = tm.actions[k]
    for j in (0, 60, 120, 180, 240):
        direct = cell_transition_prob(model, ss, 10.0, e, a, a,
                                      cell(tm.grid, j))
        assert tm.rows[i, k, j] == pytest.approx(direct, abs=1e-10)


def test_kernel_saturation_leaves_rows_and_policy(bench, bench_tm,
                                                  monkeypatch):
    model, ss = bench
    monkeypatch.setattr(numerics, "_SAT", math.inf)
    full = build_transition_model(model, ss, eta=10.0, grid=bench_tm.grid,
                                  actions=bench_tm.actions)
    assert np.max(np.abs(bench_tm.rows - full.rows)) <= 1e-15
    assert np.array_equal(bench_tm.detection, full.detection)
    assert np.array_equal(bench_tm.interior_mass, full.interior_mass)
    sat_pol = value_iteration(bench_tm, horizon=10)
    full_pol = value_iteration(full, horizon=10)
    assert np.array_equal(sat_pol.action_table, full_pol.action_table)
    assert np.array_equal(sat_pol.values, full_pol.values)


def test_row_build_independent_of_chunk_and_block_sizes(bench, monkeypatch):
    # benchmark law on a coarse benchmark-shaped grid: 525 rows of 25 cells,
    # 26 edges. A _TILE of 127 entries gives 4-row tiles with a ragged last
    # one (525 = 131 * 4 + 1); 7 is less than one row, so every tile is 1
    # row.
    model, ss = bench
    grid = build_grid(-30.0, 30.0, 2.5)
    actions = uniform_actions(20.0, 21)
    ref = build_transition_model(model, ss, eta=10.0, grid=grid,
                                 actions=actions)
    for tile in (127, 7):
        monkeypatch.setattr(mdp, "_TILE", tile)
        small = build_transition_model(model, ss, eta=10.0, grid=grid,
                                       actions=actions)
        assert np.array_equal(ref.rows, small.rows)
        assert np.array_equal(ref.detection, small.detection)
        assert np.array_equal(ref.interior_mass, small.interior_mass)


def _coarse_build(model, ss):
    # the coarse benchmark-shaped build above: 25 states x 21 actions of 25
    # cells, so 525 rows of 26 edges, one tile at the default _TILE
    grid = build_grid(-30.0, 30.0, 2.5)
    return build_transition_model(model, ss, eta=10.0, grid=grid,
                                  actions=uniform_actions(20.0, 21))


def test_row_build_takes_phi_c2_once_per_distinct_tail_mean(bench,
                                                            monkeypatch):
    # the tails' Phi(c2) comes from one c2 row per distinct tail mean
    # A_K e - K a + K a: 61 of them over the 525 rows
    model, ss = bench
    sizes = []

    def counting_ndtr(x):
        if np.ndim(x) == 2:
            sizes.append(np.size(x))
        return ndtr(x)

    monkeypatch.setattr(mdp, "ndtr", counting_ndtr)
    tm = _coarse_build(model, ss)
    assert tm.rows.shape == (25, 21, 25)
    assert sum(sizes) == 61 * 26


@pytest.mark.parametrize("tile", [mdp._TILE, 7])
def test_row_build_independent_of_row_order(bench, monkeypatch, tile):
    # equal tail means away from each other in a tile, or in two tiles
    model, ss = bench
    ref = _coarse_build(model, ss)
    grid, actions = ref.grid, ref.actions
    e = np.repeat(grid.points, actions.shape[0])
    a = np.tile(actions, grid.n_states)
    order = np.random.default_rng(7).permutation(e.size)
    monkeypatch.setattr(mdp, "_TILE", tile)
    rows, det, interior = mdp._scalar_rows(mdp._scalar_law(model, ss, 10.0),
                                           grid, e[order], a[order])
    assert np.array_equal(rows, ref.rows.reshape(e.size, -1)[order])
    assert np.array_equal(det, ref.detection.ravel()[order])
    assert np.array_equal(interior, ref.interior_mass.ravel()[order])


def test_row_build_memory_beyond_its_outputs(bench, bench_tm):
    # the benchmark-shaped build (241 states x 81 actions, 36.2 MiB of
    # outputs) under tracemalloc: its temporaries stay tile-sized
    model, ss = bench
    tracemalloc.start()
    try:
        tm = build_transition_model(model, ss, eta=10.0, grid=bench_tm.grid,
                                    actions=bench_tm.actions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = tm.rows.nbytes + tm.detection.nbytes + tm.interior_mass.nbytes
    assert peak - outputs <= 16 * 2**20, (peak - outputs) / 2**20
    assert np.array_equal(tm.rows, bench_tm.rows)


def test_truncation_warning_on_small_grid(bench):
    model, ss = bench
    tiny = build_grid(-2.0, 2.0, 0.5)
    with pytest.warns(TruncationWarning):
        build_transition_model(model, ss, eta=10.0, grid=tiny,
                               actions=uniform_actions(20.0, 5))


@pytest.mark.filterwarnings("ignore::fdisim.mdp.TruncationWarning")
def test_sampled_path_matches_exact_path(bench):
    # whole exact rows and detection against the oracle's sampled one-step
    # draws, e' histogrammed into the 13 lattice cells (outer cells open)
    model, ss = bench
    grid = build_grid(-6.0, 6.0, 1.0)
    acts = uniform_actions(10.0, 5)
    exact = build_transition_model(model, ss, eta=10.0, grid=grid, actions=acts)
    n = 200_000
    inner_edges = grid.points[:-1] + 0.5 * grid.step
    n_actions = acts.shape[0]
    rows = np.empty_like(exact.rows)
    detection = np.empty_like(exact.detection)
    for i, e in enumerate(grid.points):
        for k, a in enumerate(acts):
            alarm, e_next = mc_one_step(model, ss, 10.0, e, a, a, n,
                                        seed=421 + i * n_actions + k)
            cells = np.searchsorted(inner_edges, e_next)
            rows[i, k] = np.bincount(cells, minlength=grid.n_states) / n
            detection[i, k] = alarm.mean()
    se_rows = np.sqrt(np.maximum(exact.rows * (1 - exact.rows), 1e-12) / n)
    assert np.all(np.abs(rows - exact.rows) < 4.0 * se_rows + 2e-4)
    se_det = np.sqrt(np.maximum(exact.detection * (1 - exact.detection), 1e-12) / n)
    assert np.all(np.abs(detection - exact.detection) < 4.0 * se_det + 2e-4)


# ---------------------------------------------------------------------------
# Value iteration and policy lookup
# ---------------------------------------------------------------------------


def test_value_iteration_contracts(bench_tm):
    pol = value_iteration(bench_tm, horizon=6)
    assert pol.values.shape == (7, 241)
    assert np.all(pol.values >= 0.0)
    assert np.all(np.diff(pol.values, axis=0) >= -1e-9)  # nondecreasing stages
    sym = pol.values[6] - pol.values[6][::-1]
    assert np.max(np.abs(sym)) < 1e-6  # even in the state
    assert pol.action_table.shape == (6, 241)
    assert np.all(np.abs(pol.action_table) <= pol.a_max + 1e-9)
    assert pol.horizon == 6


def test_value_iteration_stage_one_is_immediate_argmax(bench_tm):
    pol = value_iteration(bench_tm, horizon=1)
    i0 = 120  # e = 0
    rewards = np.array([expected_reward(bench_tm, i0, k)
                        for k in range(bench_tm.actions.shape[0])])
    k_best = int(np.argmax(rewards))
    assert pol.values[1, i0] == pytest.approx(rewards[k_best], rel=1e-12)
    assert pol.action_table[0, i0] == bench_tm.actions[k_best]
    # symmetric problem: the +-10 tie resolves to the lower action index
    assert pol.action_table[0, i0] == -10.0


def test_value_iteration_domain_checks(bench_tm):
    with pytest.raises(ModelError):
        value_iteration(bench_tm, horizon=0)
    with pytest.raises(ModelError):
        value_iteration(bench_tm, horizon=3, gamma=0.0)
    with pytest.raises(ModelError):
        value_iteration(bench_tm, horizon=3, gamma=1.5)


def test_policy_lookup_validation_and_snapping(bench_tm):
    pol = value_iteration(bench_tm, horizon=4)
    with pytest.raises(ModelError):
        policy_lookup(pol, 0, 0.0)
    with pytest.raises(ModelError):
        policy_lookup(pol, 5, 0.0)
    a_exact = policy_lookup(pol, 3, 1.0)
    a_snapped = policy_lookup(pol, 3, 1.05)
    assert a_exact == a_snapped
    batch = policy_lookup(pol, 3, [1.0, 1.05, -30.0])
    assert batch.shape == (3,)
    assert batch[0] == batch[1] == a_exact
