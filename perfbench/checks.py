"""Output checks and closed-form work counts for the benchmark passes.

Every check reads the files a command wrote and raises CheckFailure with a
reason. Tolerances are relative or structural, so a correct change to the
program (a faster kernel, a tie-break that flips a near-tie action) passes.
The fp > md ordering (acceptance criterion 4) is deliberately not checked:
it fails by design in this package.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# relative tolerance on the stored values[H] at e = 0
VALUE_RTOL = 1e-9


class CheckFailure(Exception):
    """An output a command wrote is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def read_csv(path: Path, digest: str, seed: int):
    """Header and rows of a command CSV, after checking its digest line."""
    path = Path(path)
    _require(path.is_file(), f"{path.name} was not written")
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(len(lines) >= 2, f"{path.name} has no header")
    expected = f"# digest={digest} seed={seed}"
    _require(lines[0] == expected,
             f"{path.name}: first line {lines[0]!r}, expected {expected!r}")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    _require(bool(rows), f"{path.name} has no data rows")
    return header, rows


def _column(header, rows, name: str, path: Path) -> list[str]:
    _require(name in header, f"{path.name} lacks column {name!r}")
    col = header.index(name)
    return [row[col] for row in rows]


def policy_value_at_zero(path: Path, digest: str) -> float:
    """values[H] at the lattice point e = 0 of a policy artifact."""
    path = Path(path)
    _require(path.is_file(), f"{path.name} was not written")
    payload = json.loads(path.read_text(encoding="utf-8"))
    _require(payload.get("digest") == digest,
             f"{path.name}: digest {payload.get('digest')!r} does not match "
             f"the active configuration {digest!r}")
    (lo, hi), = payload["grid"]["bounds"]
    step, = payload["grid"]["step"]
    zero = round((0.0 - lo) / step)
    _require(0 <= zero and abs(lo + zero * step) <= 1e-9 * step,
             f"{path.name}: e = 0 is not a lattice point of [{lo}, {hi}]")
    return float(payload["values"][-1][zero])


def check_policy(path: Path, digest: str, reference: float) -> None:
    value = policy_value_at_zero(path, digest)
    err = abs(value - reference) / abs(reference)
    _require(err <= VALUE_RTOL,
             f"{Path(path).name}: values[H] at e = 0 is {value!r}, reference "
             f"{reference!r} (relative error {err:.3e} > {VALUE_RTOL:g})")


def check_sweep(out: Path, digest: str, seed: int) -> None:
    path = Path(out) / "sweep_action.csv"
    header, rows = read_csv(path, digest, seed)
    a = [float(v) for v in _column(header, rows, "a", path)]
    det = [float(v) for v in _column(header, rows, "detection_prob", path)]
    reward = [float(v) for v in _column(header, rows, "expected_reward", path)]
    k = max(range(len(reward)), key=reward.__getitem__)
    _require(math.isclose(a[k], 10.0, rel_tol=1e-12),
             f"sweep peaks at a = {a[k]}, expected 10")
    _require(round(det[k], 2) == 0.30,
             f"detection probability at the peak is {det[k]:.4f}, expected "
             f"0.30 to 2 d.p.")


def _terminal(path: Path, digest: str, seed: int) -> tuple[float, float]:
    header, rows = read_csv(path, digest, seed)
    cost = _column(header, rows, "cost", path)[-1]
    std_err = _column(header, rows, "std_err", path)[-1]
    return float(cost), float(std_err)


def check_evaluate(out: Path, digest: str, seed: int) -> None:
    terminal = {kind: _terminal(Path(out) / f"cost_{kind}.csv", digest, seed)
                for kind in ("policy", "constant", "ramp", "none")}
    cost_p, se_p = terminal["policy"]
    for other in ("constant", "ramp"):
        cost_o, se_o = terminal[other]
        margin = 3.0 * (se_p + se_o)
        _require(cost_p - cost_o > margin,
                 f"policy terminal cost {cost_p:.4f} does not exceed {other} "
                 f"{cost_o:.4f} by more than 3 x (std_err sum) = {margin:.4f}")


def check_fpmd(out: Path, digest: str, seed: int) -> None:
    path = Path(out) / "fpmd.csv"
    header, rows = read_csv(path, digest, seed)
    for name in ("fp_cost", "md_cost"):
        values = [float(v) for v in _column(header, rows, name, path)]
        _require(all(math.isfinite(v) for v in values),
                 f"fpmd.csv: non-finite {name}")


def check_voltage(out: Path, digest: str, seed: int) -> None:
    out = Path(out)
    path = out / "voltage_mean.csv"
    header, rows = read_csv(path, digest, seed)
    read_csv(out / "detection_frequency.csv", digest, seed)
    read_csv(out / "policy_table.csv", digest, seed)
    t = [int(v) for v in _column(header, rows, "t", path)]
    plans = _column(header, rows, "plan", path)
    dev = [float(v) for v in _column(header, rows, "abs_deviation", path)]
    last = max(t)
    terminal = {plan: d for tt, plan, d in zip(t, plans, dev) if tt == last}
    _require("policy" in terminal, "voltage_mean.csv has no policy rows")
    best = max(terminal, key=terminal.get)
    _require(best == "policy",
             f"largest terminal |x - x0| is {best} ({terminal[best]:.5f}), "
             f"policy gives {terminal['policy']:.5f}")


# ---------------------------------------------------------------------------
# Closed-form work counts of one pass
# ---------------------------------------------------------------------------

# _scalar_rows makes 4 bvn_cdf calls over the N+1 cell edges of every row
BVN_CALLS_PER_ROW_BATCH = 4


def solve_counts(n: int, k: int) -> dict:
    """bvn_cdf evaluations and transition rows of one plain (unrefined)
    `solve`."""
    return {"numerics.bvn_cdf.evals": BVN_CALLS_PER_ROW_BATCH * n * k * (n + 1),
            "mdp.build_transition_model.rows": n * k}


def sweep_counts(n: int, magnitudes: int) -> dict:
    return {"numerics.bvn_cdf.evals":
            BVN_CALLS_PER_ROW_BATCH * magnitudes * (n + 1)}


def rollout_counts(batches: int, runs: int, horizon: int) -> dict:
    return {"evaluation.rollout_batch.run_steps": batches * runs * horizon}


def add_counts(*parts: dict) -> dict:
    total = {"numerics.bvn_cdf.evals": 0,
             "mdp.build_transition_model.rows": 0,
             "evaluation.rollout_batch.run_steps": 0}
    for part in parts:
        for key, value in part.items():
            total[key] += value
    return total
