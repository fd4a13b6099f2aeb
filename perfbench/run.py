"""fdisim benchmark: solve and rollouts workloads, end to end and per layer.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all     # every workload, both modes

Run it from the repository root. Each workload runs in its own process
(`perfbench/workload.py`) with one BLAS thread. With
--trace 0 the report gives the end-to-end metrics; with --trace 1 a
separate traced run gives the per-layer metrics. The last line printed is
one JSON object with the keys correct, attempted, failed and metrics. The
full result, with the machine it ran on, goes to perfbench/results/.

setup_s is the median of several set-ups, each in a fresh process, timed
from before `import fdisim` to the point where the first timed pass would
start. An operation (one CLI command) fails if it exits nonzero, raises, or
fails an output check; the traced run also fails loudly if a work count
differs from its closed form or does not repeat across passes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from workload import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
# every process this script starts must end within this many seconds
DEADLINE_S = 170.0
# One BLAS thread, never more than the CPUs. The package is single-threaded
# NumPy; its only multi-threaded calls are small BLAS products. With two
# threads on a 2-CPU machine a refined voltage solve's wall time was
# bimodal (14.1-17.4 s over ten runs while CPU time stayed at 16-19 s),
# depending on whether the second CPU happened to be free.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_env() -> dict:
    """Environment with BLAS_THREADS threads for every BLAS library."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def _l3_size() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if _read(str(index / "level")).strip() == "3":
            return _read(str(index / "size")).strip()
    return "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over src/**/*.py, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def machine_facts(seed: int) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "nproc": _nproc(),
        "cpu_model": model or "unknown",
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


def _child(args: list[str], env: dict, deadline: float) -> dict:
    """Run workload.py to completion; its last stdout line as JSON."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run([sys.executable, str(HERE / "workload.py"), *args],
                              env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"workload process exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    env = _blas_env()
    base = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(int(trace))]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_child(base + ["--setup-only"], env,
                                 deadline)["setup_s"])
    spans_path = RESULTS / f"{stem}-spans.json"
    res = _child(base + (["--spans", str(spans_path)] if trace else []), env,
                 deadline)
    setups.append(res["setup_s"])

    attempted = res["attempted"]
    failures = res["failures"]
    notes = {"setup_s": _quartiles(setups)}
    if trace:
        metrics = dict(res["layers"])
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(res["walls"]),
                   "cpu_s": statistics.median(res["cpus"]),
                   "peak_rss_mb": res["peak_rss_mb"]}
        notes["wall_s"] = _quartiles(res["walls"])
        notes["cpu_s"] = _quartiles(res["cpus"])
    result = {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "machine": {**machine_facts(seed), "blas": res["blas"]},
        "correct": not failures, "attempted": attempted,
        "failed": len(failures), "failed_ratio": len(failures) / attempted,
        "failures": failures, "metrics": metrics, "notes": notes,
        "setups_s": setups,
        "passes": {key: res[key] for key in ("walls", "cpus", "untraced_walls",
                                             "traced_walls", "per_pass")
                   if key in res},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1),
                                          encoding="utf-8")
    return result


def report(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} ({mode}, seed "
          f"{result['machine']['seed']}, {result['seconds']:g} s)")
    facts = result["machine"]
    print("   machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()
                                      if k != "seed"))
    for name, value in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"   {name:44s} {value:>16.6g} {UNITS[name]:14s} {note}")
    print(f"   {'failed_ratio':44s} {result['failed_ratio']:>16.6g} "
          f"{'ratio':14s} {result['failed']}/{result['attempted']} operations")
    if result["trace"]:
        m = result["metrics"]
        wall = m["trace.wall_s"]
        print(f"   accounting: unaccounted {m['trace.unaccounted_s']:.6f} s of "
              f"{wall:.3f} s traced; tracing overhead "
              f"{m['trace.overhead_s']:+.3f} s (bookkeeping "
              f"{m['trace.bookkeeping_s']:.3f} s)")
        shares = {
            "bvn_cdf + build_transition_model self":
                m["numerics.bvn_cdf.s"]
                + m["mdp.build_transition_model.self_s"],
            "value_iteration (with its kernel calls)": m["mdp.value_iteration.s"],
            "rollout_batch": m["evaluation.rollout_batch.s"],
        }
        own = wall - m["trace.bookkeeping_s"]
        for label, value in shares.items():
            print(f"   share of traced wall: {label} {value / wall:.1%} "
                  f"({value / own:.1%} without bookkeeping)")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both for --workload all, else 0)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fdisim" / "__init__.py").is_file():
        print(f"perfbench: no fdisim package under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS
                for trace in ((0, 1) if args.trace is None else (args.trace,))]
    else:
        plan = [(args.workload, args.trace or 0)]
    results = []
    for name, trace in plan:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = run_workload(name, args.seed, args.seconds, bool(trace),
                                  deadline)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        report(result)
        results.append(result)

    if len(results) == 1:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in results[0]["metrics"].items()}
        expected = {name for name, *_ in (PER_LAYER if results[0]["trace"]
                                          else END_TO_END)}
        if set(metrics) != expected:
            print(f"perfbench: metric set differs from the declared one: "
                  f"{sorted(set(metrics) ^ expected)}", file=sys.stderr)
            return 1
    else:
        metrics = {f"{r['workload']}.{'trace' if r['trace'] else 'e2e'}."
                   f"{name}": {"value": value, "unit": UNITS[name]}
                   for r in results for name, value in r["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
