"""One workload in its own process: set up, run timed passes, report JSON.

    python3 perfbench/workload.py --workload solve --seed 0 --seconds 40 \
        --trace 0 [--setup-only] [--spans PATH]

`perfbench/run.py` starts this script; the last line it prints is a JSON
object. Every pass drives the package only through `fdisim.cli.main(argv)`
with stdout captured and `--out` in a scratch directory inside
`perfbench/`. The workload seed reaches the program only as `--seed`.

With --trace 0 the workload runs the whole number of passes that best
fills --seconds (at least one), each timed for wall and CPU time. With
--trace 1 an untraced and a traced pass alternate the same way, so the
tracing overhead is the traced minus the untraced median; a last, untimed
traced pass counts the useful kernel evaluations.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # setup_s counts from here, before `import fdisim`

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from metrics import EXACT_UNITS, UNITS, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


@dataclass(frozen=True)
class Op:
    """One CLI command on one preset, optionally with a YAML override."""

    command: str
    preset: str
    config: Path | None = None

    @property
    def target(self) -> str:
        """Name of the output directory and of the stored reference."""
        return self.preset + (f"-{self.config.stem}" if self.config else "")


# Why these workloads: `solve` is dominated by the transition-row build
# (mdp over numerics.bvn_cdf) on both presets, which are the same problem at
# scales 1 and 0.01; `rollouts` replays two policies solved in set-up and
# builds no rows, so a row or value-iteration optimisation must leave it
# unchanged.
WORKLOADS = {
    "solve": ((), (Op("solve", "benchmark"), Op("solve", "voltage"),
                   Op("sweep-action", "benchmark"))),
    "rollouts": ((Op("solve", "benchmark"), Op("solve", "voltage")),
                 (Op("evaluate", "benchmark"), Op("fpmd", "benchmark"),
                  Op("voltage", "voltage"))),
}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Workload:
    """Configs, scratch directories and output checks of one workload."""

    def __init__(self, name: str, seed: int, scratch: Path):
        sys.path.insert(0, str(ROOT / "src"))
        from fdisim import cli, config

        self.cli = cli
        self.seed = seed
        self.setup_ops, self.ops = WORKLOADS[name]
        self.references = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.cfgs = {}
        self.out = {}
        for op in self.setup_ops + self.ops:
            if op.target not in self.cfgs:
                self.cfgs[op.target] = config.resolve_config(
                    preset_name=op.preset, path=op.config, seed=seed)
                self.out[op.target] = scratch / op.target
                self.out[op.target].mkdir()
        for op in self.setup_ops:
            error = self.run_op(op) or self.check(op)
            if error:
                raise RuntimeError(f"set-up {op.command} --preset "
                                   f"{op.preset} failed: {error}")

    def argv(self, op: Op) -> list[str]:
        argv = [op.command, "--preset", op.preset, "--seed", str(self.seed),
                "--out", str(self.out[op.target])]
        if op.config:
            argv += ["--config", str(op.config)]
        return argv

    def run_op(self, op: Op, tracer=None) -> str | None:
        """Run one command; the failure reason, or None."""
        span = (tracer.span(f"cli.{op.command}") if tracer is not None
                else contextlib.nullcontext())
        try:
            with contextlib.redirect_stdout(io.StringIO()), span:
                code = self.cli.main(self.argv(op))
        except (Exception, SystemExit):
            return traceback.format_exc()
        return None if code == 0 else f"exit status {code}"

    def check(self, op: Op) -> str | None:
        """Check the files one command wrote; the failure reason, or None."""
        cfg = self.cfgs[op.target]
        out = self.out[op.target]
        try:
            if op.command == "solve":
                checks.check_policy(out / "policy.json", cfg.digest(),
                                    self.references[op.target])
            elif op.command == "sweep-action":
                checks.check_sweep(out, cfg.digest(), self.seed)
            elif op.command == "evaluate":
                checks.check_evaluate(out, cfg.digest(), self.seed)
            elif op.command == "fpmd":
                checks.check_fpmd(out, cfg.digest(), self.seed)
            elif op.command == "voltage":
                checks.check_voltage(out, cfg.digest(), self.seed)
        except checks.CheckFailure as exc:
            return str(exc)
        except Exception:
            return traceback.format_exc()
        return None

    def run_pass(self, tracer=None) -> tuple[float, float, list[str]]:
        """(wall s, CPU s, failure reasons) of one pass; the output checks
        run after the timed region."""
        cpu0 = _cpu_seconds()
        wall0 = time.perf_counter()
        errors = [self.run_op(op, tracer) for op in self.ops]
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
        failures = []
        for op, error in zip(self.ops, errors):
            error = error or self.check(op)
            if error:
                failures.append(f"{op.command} --preset {op.preset}: {error}")
        return wall, cpu, failures

    def expected_counts(self) -> dict:
        """Closed-form work counts of one pass, from the resolved configs."""
        parts = []
        for op in self.ops:
            cfg = self.cfgs[op.target]
            n = cfg.grid().n_states
            lattice = cfg.actions()[:, 0]
            if op.command == "solve":
                parts.append(checks.solve_counts(n, lattice.size))
            elif op.command == "sweep-action":
                parts.append(checks.sweep_counts(n, int((lattice >= 0.0).sum())))
            elif op.command == "evaluate":
                parts.append(checks.rollout_counts(4, cfg.runs, cfg.eval_horizon))
            elif op.command == "fpmd":
                # fp and md per cell, each a tested and an oracle batch
                cells = len(cfg.fpmd_etas) * len(cfg.fpmd_sigmas)
                parts.append(checks.rollout_counts(4 * cells, cfg.runs,
                                                   cfg.eval_horizon))
            elif op.command == "voltage":
                parts.append(checks.rollout_counts(4, cfg.runs, cfg.eval_horizon))
        return checks.add_counts(*parts)


def _pass_count(seconds: float, first: float) -> int:
    """Passes that best fill `seconds`, judged by the first one's length;
    rounding to the nearest count keeps the count away from a boundary
    that pass-to-pass noise could cross."""
    return max(1, round(seconds / first))


def timed_passes(bench: Workload, seconds: float) -> dict:
    walls, cpus, failures = [], [], []
    while not walls or len(walls) < _pass_count(seconds, walls[0]):
        wall, cpu, errors = bench.run_pass()
        walls.append(wall)
        cpus.append(cpu)
        failures += errors
    return {"walls": walls, "cpus": cpus, "failures": failures,
            "attempted": len(walls) * len(bench.ops)}


def traced_passes(bench: Workload, seconds: float) -> tuple[dict, Tracer]:
    tracer = Tracer(useful=False)
    plain, traced, per_pass, failures = [], [], [], []
    pass_id = 0
    while not plain or pass_id < _pass_count(seconds, plain[0] + traced[0]):
        wall, _, errors = bench.run_pass()
        plain.append(wall)
        failures += errors
        with tracer:
            tracer.pass_id = pass_id
            wall, _, errors = bench.run_pass(tracer)
            tracer.pass_id = None
        traced.append(wall)
        failures += errors
        per_pass.append(layer_metrics(tracer, pass_id, wall))
        pass_id += 1
    # one more, untimed pass counts the useful kernel evaluations
    counter = Tracer(useful=True)
    with counter:
        counter.pass_id = 0
        wall, _, errors = bench.run_pass(counter)
    failures += errors
    useful = "numerics.bvn_cdf.useful_ratio"
    ratio = layer_metrics(counter, 0, wall)[useful]
    for m in per_pass:
        m[useful] = ratio

    layers = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if UNITS[key] in EXACT_UNITS:
            if len(set(values)) != 1:
                failures.append(f"count {key} did not repeat across passes: "
                                f"{values}")
            layers[key] = values[0]
        else:
            layers[key] = statistics.median(values)
    layers["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(plain))
    for key, want in bench.expected_counts().items():
        if layers[key] != want:
            failures.append(f"closed form: {key} = {layers[key]} per pass, "
                            f"expected {want}")
    return ({"layers": layers, "untraced_walls": plain, "traced_walls": traced,
             "per_pass": per_pass, "failures": failures,
             "attempted": (2 * len(traced) + 1) * len(bench.ops)}, tracer)


def _blas_name() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", metavar="PATH",
                        help="write the traced spans here as JSON")
    args = parser.parse_args(argv)

    scratch_root = HERE / ".work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=scratch_root))
    try:
        bench = Workload(args.workload, args.seed, scratch)
        result = {"setup_s": time.perf_counter() - STARTED}
        if not args.setup_only:
            if args.trace:
                runs, tracer = traced_passes(bench, args.seconds)
                if args.spans:
                    Path(args.spans).write_text(json.dumps(tracer.dump()),
                                                encoding="utf-8")
            else:
                runs = timed_passes(bench, args.seconds)
            result.update(runs)
            result["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["blas"] = _blas_name()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
