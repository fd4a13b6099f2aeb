"""Acceptance suite: one test per shipped end-to-end claim.

Each test prints a single `criterion N: PASS/FAIL (...)` line carrying the
measured quantities, then asserts, so `pytest -v` doubles as a results
table.  Statistical claims run at W = 10000 with fixed seeds; tolerances
are stated inline next to each comparison.  Monte-Carlo margins were sized
so that a pass is reproducible, not borderline.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from fdisim.attack import AttackPlan
from fdisim.cli import main as cli_main
from fdisim.defense import DetectorConfig, MitigationStrategy
from fdisim.evaluation import rollout_batch
from fdisim.lti import SystemModel, derive_steady_state
from fdisim.mdp import (
    TruncationWarning,
    alarm_cell_mass,
    build_grid,
    build_transition_model,
    cell,
    cell_transition_prob,
    detection_prob,
    nearest_index,
    uniform_actions,
    value_iteration,
)
from fdisim.numerics import RngStream, bvn_rect, solve_dare
from fdisim.voltage import synthesize_traces, save_traces

P_INF_CLOSED = (1.0 + math.sqrt(41.0)) / 2.0
TRACE_PE = 2.7015621187164243
W_RUNS = 10000
HORIZON = 10


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# digest="), "missing digest header comment"
    return lines[1].split(","), [ln.split(",") for ln in lines[2:] if ln]


@pytest.fixture(scope="module")
def bench():
    model = SystemModel(A=1.0, B=1.0, C=1.0, Q=1.0, R=10.0)
    return model, derive_steady_state(model)


@pytest.fixture(scope="module")
def bench_solution(bench):
    """Full-size solve shared by the ordering and oracle criteria."""
    model, ss = bench
    started = time.perf_counter()
    tm = build_transition_model(model, ss, 10.0, build_grid(-30.0, 30.0, 0.25),
                                uniform_actions(20.0, 81))
    policy = value_iteration(tm, horizon=HORIZON)
    return tm, policy, time.perf_counter() - started


@pytest.fixture(scope="module")
def bench_cli(tmp_path_factory):
    """One CLI solve of the benchmark preset; the artifact feeds cmd_fpmd."""
    out = tmp_path_factory.mktemp("bench_cli")
    assert cli_main(["solve", "--preset", "benchmark", "--seed", "0",
                     "--out", str(out)]) == 0
    return out


def _terminal_sums(model, ss, plan, strategy, eta, stream_id):
    """Per-run terminal cumulative squared error; a fixed stream id gives
    identical noise across calls, so differences are paired run by run."""
    batch = rollout_batch(model, ss, plan, DetectorConfig(eta), strategy,
                          HORIZON, RngStream(0, stream_id), W_RUNS)
    return np.sum(batch.e[:, 1:] ** 2, axis=1)


def _paired(diff):
    return float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(diff.size))


def test_criterion_1_magnitude_sweep(tmp_path):
    """Reward-vs-magnitude sweep peaks at a = 10 with detection prob ~ 0.3."""
    started = time.perf_counter()
    assert cli_main(["sweep-action", "--preset", "benchmark", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "sweep_action.csv")
    assert header == ["a", "detection_prob", "expected_reward"]
    a = np.array([float(r[0]) for r in rows])
    det = np.array([float(r[1]) for r in rows])
    reward = np.array([float(r[2]) for r in rows])
    elapsed = time.perf_counter() - started
    k = int(np.argmax(reward))
    problems = []
    if abs(a[k] - 10.0) > 0.5 + 1e-12:
        problems.append(f"argmax at a={a[k]}, want 10 +- 0.5")
    if abs(det[k] - 0.30) > 0.05:
        problems.append(f"detection {det[k]:.4f} at argmax, want 0.30 +- 0.05")
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s, budget 10s")
    _verdict(1, not problems, "; ".join(problems) or
             f"argmax a={a[k]}, detection {det[k]:.4f}, {elapsed:.1f}s")


def test_criterion_2_ordering_perfect_mitigation(bench, bench_solution):
    """Policy attack beats constant-10 and ramp on Cost[10], perfect delta."""
    model, ss = bench
    _, policy, solve_seconds = bench_solution
    started = time.perf_counter()
    strategy = MitigationStrategy.perfect()
    sums = {
        "policy": _terminal_sums(model, ss, AttackPlan.from_policy(policy),
                                 strategy, 10.0, 11),
        "constant": _terminal_sums(model, ss, AttackPlan.constant(10.0),
                                   strategy, 10.0, 11),
        "ramp": _terminal_sums(model, ss, AttackPlan.ramp(1.0),
                               strategy, 10.0, 11),
    }
    elapsed = solve_seconds + time.perf_counter() - started
    problems = []
    detail = []
    for other in ("constant", "ramp"):
        mean, se = _paired(sums["policy"] - sums[other])
        detail.append(f"policy-{other} = {mean:.1f} +- {se:.2f}")
        if not mean > 3.0 * se:
            problems.append(f"policy does not beat {other}: {mean:.2f} vs 3se={3 * se:.2f}")
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.1f}s, budget 300s")
    _verdict(2, not problems, "; ".join(problems or detail))


def test_criterion_3_ordering_noisy_mitigation(bench, bench_solution):
    """Same dominance under Noisy(15); noisy cost exceeds perfect cost."""
    model, ss = bench
    _, policy, _ = bench_solution
    started = time.perf_counter()
    plan = AttackPlan.from_policy(policy)
    noisy = MitigationStrategy.noisy(15.0)
    sums = {
        "policy": _terminal_sums(model, ss, plan, noisy, 10.0, 11),
        "constant": _terminal_sums(model, ss, AttackPlan.constant(10.0),
                                   noisy, 10.0, 11),
        "ramp": _terminal_sums(model, ss, AttackPlan.ramp(1.0), noisy,
                               10.0, 11),
        "perfect": _terminal_sums(model, ss, plan,
                                  MitigationStrategy.perfect(), 10.0, 11),
    }
    elapsed = time.perf_counter() - started
    problems = []
    detail = []
    for other in ("constant", "ramp"):
        mean, se = _paired(sums["policy"] - sums[other])
        detail.append(f"policy-{other} = {mean:.1f} +- {se:.2f}")
        if not mean > 3.0 * se:
            problems.append(f"policy does not beat {other}: {mean:.2f} vs 3se={3 * se:.2f}")
    mean, se = _paired(sums["policy"] - sums["perfect"])
    detail.append(f"noisy-perfect = {mean:.1f} +- {se:.2f}")
    if not mean > 3.0 * se:
        problems.append(f"noisy cost does not exceed perfect: {mean:.2f} vs 3se={3 * se:.2f}")
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.1f}s, budget 300s")
    _verdict(3, not problems, "; ".join(problems or detail))


def test_criterion_4_fp_md_structure(bench_cli):
    """cmd_fpmd sweep: fp falls and md rises with eta; exact zeros at the
    perfect-mitigation row and the always-alarm column; at sigma_mit = 15
    the false-positive cost at eta = 0 should top the misdetection cost at
    eta = 5."""
    started = time.perf_counter()
    assert cli_main(["fpmd", "--preset", "benchmark", "--seed", "0",
                     "--out", str(bench_cli)]) == 0
    header, rows = _read_csv(bench_cli / "fpmd.csv")
    assert header == ["eta", "sigma_mit", "fp_cost", "md_cost", "fp_std_err",
                      "md_std_err"]
    table = {(float(r[0]), float(r[1])): tuple(float(v) for v in r[2:])
             for r in rows}
    etas = [0.0, 1.0, 2.5, 5.0]
    sigmas = [0.0, 5.0, 10.0, 15.0]
    assert set(table) == {(e, s) for s in sigmas for e in etas}
    elapsed = time.perf_counter() - started
    problems = []
    for s in sigmas:
        for lo, hi in zip(etas, etas[1:]):
            fp_lo, _, se_lo, _ = table[(lo, s)]
            fp_hi, _, se_hi, _ = table[(hi, s)]
            tol = 2.0 * math.hypot(se_lo, se_hi)
            if fp_hi > fp_lo + tol:
                problems.append(f"fp rises {lo}->{hi} at sigma={s}")
            _, md_lo, _, mse_lo = table[(lo, s)]
            _, md_hi, _, mse_hi = table[(hi, s)]
            tol = 2.0 * math.hypot(mse_lo, mse_hi)
            if md_hi < md_lo - tol:
                problems.append(f"md falls {lo}->{hi} at sigma={s}")
    for e in etas:
        fp, _, fp_se, _ = table[(e, 0.0)]
        if abs(fp) > 2.0 * fp_se:
            problems.append(f"fp(eta={e}, sigma=0) = {fp:.3f} not ~ 0")
    for s in sigmas:
        _, md, _, md_se = table[(0.0, s)]
        if abs(md) > 2.0 * md_se:
            problems.append(f"md(eta=0, sigma={s}) = {md:.3f} not ~ 0")
    fp0 = table[(0.0, 15.0)][0]
    md5 = table[(5.0, 15.0)][1]
    if not fp0 > md5:
        problems.append(
            f"fp(eta=0, sigma=15) = {fp0:.1f} does not exceed "
            f"md(eta=5, sigma=15) = {md5:.1f}")
    if elapsed >= 900.0:
        problems.append(f"runtime {elapsed:.1f}s, budget 900s")
    _verdict(4, not problems, "; ".join(problems) or
             f"fp(0,15)={fp0:.1f} > md(5,15)={md5:.1f}, zeros and trends hold")


def test_criterion_5_voltage_case(tmp_path):
    """Voltage preset: settles at the 0.835 pu setpoint with no attack, the
    solved policy causes the largest terminal deviation, ramp detections
    trend up while policy detections trend down late in the horizon."""
    started = time.perf_counter()
    assert cli_main(["solve", "--preset", "voltage", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    assert cli_main(["voltage", "--preset", "voltage", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    _, mean_rows = _read_csv(tmp_path / "voltage_mean.csv")
    _, freq_rows = _read_csv(tmp_path / "detection_frequency.csv")
    mean_x = {(r[1], int(r[0])): (float(r[2]), float(r[3])) for r in mean_rows}
    dev = {(r[1], int(r[0])): float(r[4]) for r in mean_rows}
    freq = {(r[1], int(r[0])): float(r[2]) for r in freq_rows}
    elapsed = time.perf_counter() - started
    problems = []

    x30, se30 = mean_x[("none", 30)]
    if abs(x30 - 0.835) > 2.0 * se30:
        problems.append(f"no-attack mean x[30] = {x30:.5f} +- {se30:.5f}, "
                        f"not within 2se of 0.835")
    d_pol, d_con, d_ramp = (dev[(k, 30)] for k in ("policy", "constant", "ramp"))
    if not (d_pol > d_con and d_pol > d_ramp):
        problems.append(f"terminal |x - x0|: policy {d_pol:.4f} vs "
                        f"constant {d_con:.4f}, ramp {d_ramp:.4f}")

    def blocks(kind, lo, hi):
        vals = [freq[(kind, t)] for t in range(lo, hi + 1)]
        return [float(np.mean(vals[j:j + 5])) for j in range(0, len(vals), 5)]

    ramp_blocks = blocks("ramp", 1, 30)
    if not all(x < y for x, y in zip(ramp_blocks, ramp_blocks[1:])):
        problems.append(f"ramp detection blocks not increasing: "
                        f"{[round(b, 3) for b in ramp_blocks]}")
    pol_blocks = blocks("policy", 16, 30)
    if not all(x > y for x, y in zip(pol_blocks, pol_blocks[1:])):
        problems.append(f"policy detection blocks not decreasing: "
                        f"{[round(b, 3) for b in pol_blocks]}")
    if elapsed >= 600.0:
        problems.append(f"runtime {elapsed:.1f}s, budget 600s")
    _verdict(5, not problems, "; ".join(problems) or
             f"x[30]={x30:.4f}+-{se30:.4f}, dev policy/constant/ramp = "
             f"{d_pol:.4f}/{d_con:.4f}/{d_ramp:.4f}, ramp blocks "
             f"{[round(b, 3) for b in ramp_blocks]}, policy blocks "
             f"{[round(b, 3) for b in pol_blocks]}")


def test_criterion_6_oracle_equivalence(bench, bench_solution):
    """Analytic transition machinery against direct simulation: (a) cell
    probabilities vs 1e6-sample one-step Monte Carlo on 100 random (e, a)
    pairs, (b) alarm-branch masses sum to the detection probability, (c)
    transition rows are stochastic, (d) no-attack squared error matches
    trace(P_e)."""
    model, ss = bench
    tm, _, _ = bench_solution
    grid = tm.grid
    started = time.perf_counter()
    A_K, W_K, K, P_r = ss.A_K, ss.W_K, ss.K, ss.P_r
    problems = []

    # (a) fixed evaluation seeds; 3 std-errors on each of 100 comparisons
    pair_rng = np.random.default_rng(20260814)
    mc_rng = np.random.default_rng(20260815)
    n = 1_000_000
    worst = 0.0
    for _ in range(100):
        e = float(pair_rng.uniform(-20.0, 20.0))
        a = float(pair_rng.uniform(-15.0, 15.0))
        det = detection_prob(model, ss, 10.0, e, a)
        center = A_K * e if det >= 0.5 else A_K * e - K * a
        target = cell(grid, nearest_index(grid, center))
        exact = cell_transition_prob(model, ss, 10.0, e, a, a, target)
        w = mc_rng.standard_normal(n)
        v = math.sqrt(10.0) * mc_rng.standard_normal(n)
        r = e + a + w + v
        alarm = r * r / P_r > 10.0
        e_next = A_K * e + W_K * w - K * (a - alarm * a) - K * v
        p_hat = float(np.mean((e_next >= target[0]) & (e_next <= target[1])))
        se = math.sqrt(exact * (1.0 - exact) / n)
        z = abs(p_hat - exact) / se
        worst = max(worst, z)
        if z > 3.0:
            problems.append(f"cell prob off by {z:.2f} se at e={e:.3f}, a={a:.3f}")

    # (b) alarm-branch mass over the full cell partition = detection prob
    for e, a in ((0.0, 10.0), (3.0, -5.0), (-7.5, 12.0), (1.25, 0.5)):
        total = sum(alarm_cell_mass(model, ss, 10.0, e, a, a, cell(grid, j))
                    for j in range(grid.n_states))
        det = detection_prob(model, ss, 10.0, e, a)
        if abs(total - det) > 1e-5:
            problems.append(f"alarm mass {total:.8f} vs detection "
                            f"{det:.8f} at (e={e}, a={a})")

    # (c) stochastic rows
    row_err = float(np.abs(tm.rows.sum(axis=2) - 1.0).max())
    if row_err > 1e-6:
        problems.append(f"row sums off by {row_err:.2e}")

    # (d) stationary no-attack squared error
    batch = rollout_batch(model, ss, AttackPlan.none(), DetectorConfig(10.0),
                          MitigationStrategy.off(), HORIZON,
                          RngStream(0, 13), W_RUNS)
    mean_sq = float((batch.e[:, 1:] ** 2).mean())
    if abs(mean_sq - TRACE_PE) > 0.05 * TRACE_PE:
        problems.append(f"E||e||^2 = {mean_sq:.4f}, want {TRACE_PE:.4f} +- 5%")
    elapsed = time.perf_counter() - started
    if elapsed >= 600.0:
        problems.append(f"runtime {elapsed:.1f}s, budget 600s")
    _verdict(6, not problems, "; ".join(problems) or
             f"max |z| = {worst:.2f} over 100 pairs, row err {row_err:.1e}, "
             f"E||e||^2 = {mean_sq:.4f}")


def _phi_quadrature(x: float) -> float:
    """Gauss-Legendre integration of the normal density from 0 to x."""
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(0.0, x, 33)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid + half * nodes
        total += half * float(np.sum(weights * np.exp(-0.5 * t * t)))
    return 0.5 + total / math.sqrt(2.0 * math.pi)


def test_criterion_7_numerical_kernels():
    """Riccati fixed point against the closed form, Phi against quadrature,
    and rectangle probabilities over a partition of the plane."""
    started = time.perf_counter()
    problems = []
    p_inf = solve_dare(1.0, 1.0, 1.0, 10.0)
    if abs(p_inf - P_INF_CLOSED) > 1e-9:
        problems.append(f"dare fixed point {p_inf!r} vs closed form")

    xs = np.linspace(-8.0, 8.0, 1000)
    worst = max(abs(float(ndtr(x)) - _phi_quadrature(float(x)))
                for x in xs)
    if worst > 1e-10:
        problems.append(f"Phi off by {worst:.2e}")

    # N((0.3, -0.7), [[2.0, 0.6], [0.6, 1.2]]) on standardized edges
    s0, s1 = math.sqrt(2.0), math.sqrt(1.2)
    rho = 0.6 / (s0 * s1)
    xs_edges = [(x - 0.3) / s0 for x in (-math.inf, -1.0, 0.5, 2.0, math.inf)]
    ys_edges = [(y + 0.7) / s1 for y in (-math.inf, -0.8, 1.1, math.inf)]
    total = 0.0
    for xl, xu in zip(xs_edges, xs_edges[1:]):
        for yl, yu in zip(ys_edges, ys_edges[1:]):
            total += float(bvn_rect(xl, xu, yl, yu, rho))
    if abs(total - 1.0) > 1e-6:
        problems.append(f"partition sums to {total!r}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s, budget 60s")
    _verdict(7, not problems, "; ".join(problems) or
             f"dare exact, Phi max err {worst:.1e}, partition total {total:.9f}")


BENCH_SMALL = """\
model:
  A: [[1.0]]
  B: [[1.0]]
  C: [[1.0]]
  Q: [[1.0]]
  R: [[10.0]]
detector: {eta: 10.0}
mdp:
  bounds: [[-12.0, 12.0]]
  step: [0.5]
  action_count: 9
  horizon: 4
attack: {a_max: 4.0, constant_value: [2.0], ramp_slope: [0.5]}
eval: {runs: 50, seed: 3, horizon: 4}
fpmd: {etas: [0.0, 2.0], sigmas: [0.0, 5.0]}
"""

VOLT_SMALL = """\
model:
  A: [[1.0]]
  B: [[1.0]]
  C: [[1.0]]
  Q: [[1.0e-4]]
  R: [[1.0e-3]]
controller: {x0: [0.835], alpha: 0.5, init: [1.0]}
detector: {eta: 5.0}
mdp:
  bounds: [[-0.06, 0.06]]
  step: [0.005]
  action_count: 9
  horizon: 6
attack: {a_max: 0.04, constant_value: [0.02], ramp_slope: [0.005]}
eval: {runs: 50, seed: 3, horizon: 6}
"""


def test_criterion_8_determinism(tmp_path):
    """Every command, re-run with the same config and seed, produces
    byte-identical files."""
    started = time.perf_counter()
    bench_cfg = tmp_path / "bench.yaml"
    bench_cfg.write_text(BENCH_SMALL, encoding="utf-8")
    volt_cfg = tmp_path / "volt.yaml"
    volt_cfg.write_text(VOLT_SMALL, encoding="utf-8")
    traces = tmp_path / "traces.csv"
    save_traces(traces, synthesize_traces(1.0, 40, RngStream(9, 1)))

    def run_all(out):
        out.mkdir()
        o = str(out)
        for argv in (
            ["solve", "--config", str(bench_cfg), "--seed", "7", "--out", o],
            ["sweep-action", "--config", str(bench_cfg), "--seed", "7", "--out", o],
            ["evaluate", "--config", str(bench_cfg), "--seed", "7", "--out", o],
            ["fpmd", "--config", str(bench_cfg), "--seed", "7", "--out", o],
            ["estimate-b", "--config", str(bench_cfg), "--seed", "7",
             "--traces", str(traces), "--out", o],
        ):
            assert cli_main(argv) == 0
        volt_out = out / "volt"
        for argv in (
            ["solve", "--config", str(volt_cfg), "--seed", "7",
             "--out", str(volt_out)],
            ["voltage", "--config", str(volt_cfg), "--seed", "7",
             "--out", str(volt_out)],
        ):
            assert cli_main(argv) == 0

    first, second = tmp_path / "first", tmp_path / "second"
    # both small lattices leak mass past their span (worst interior mass
    # 0.98 benchmark, 0.76 voltage), and solve says so each time
    with pytest.warns(TruncationWarning) as caught:
        run_all(first)
        run_all(second)
    assert len({str(w.message) for w in caught}) == 2
    names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(second)
                           for p in second.rglob("*") if p.is_file())
    diffs = [str(rel) for rel in names
             if (first / rel).read_bytes() != (second / rel).read_bytes()]
    elapsed = time.perf_counter() - started
    problems = [f"outputs differ: {', '.join(diffs)}"] if diffs else []
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.1f}s, budget 120s")
    _verdict(8, not problems, "; ".join(problems) or
             f"{len(names)} files byte-identical across re-runs")
