"""Time a `perfbench` workload's commands in one process, with their minor
page faults.

    python3 scripts/rollout_faults.py
    python3 scripts/rollout_faults.py --passes 5 --seed 41
    python3 scripts/rollout_faults.py --workload solve

Runs `--passes` in-process passes of one workload's commands, into a
temporary directory. The commands, their presets and their order are read
from `WORKLOADS` in `perfbench/workload.py`, so they are the benchmark's:

- `rollouts` (default): solves both presets first, then each pass runs
  evaluate (benchmark preset), fpmd (benchmark preset) and voltage
  (voltage preset);
- `solve`: each pass runs solve (benchmark preset), solve (voltage preset)
  and sweep-action (benchmark preset). The first pass also imports
  `scipy.special`.

For each command of each pass it prints the wall time, the user and
system CPU time and the minor page faults, all as differences of
`getrusage(RUSAGE_SELF)` (and a wall clock) around the command, then the
pass's totals. A fault count depends on the heap state that earlier work
left in the process, so compare two checkouts with the same arguments.
The package is imported from the `src/` next to this script, with BLAS
pinned to one thread as `perfbench/run.py` pins it: the script sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before
either import, so its user times compare with `perfbench`'s `cpu_s`. The
workload table is imported without writing bytecode into `perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

# BLAS reads these when numpy loads, so they must be set before the imports
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True
# workload: (set-up ops, ops of each pass), each op a command on a preset
from workload import WORKLOADS  # noqa: E402

sys.dont_write_bytecode = False
from fdisim.cli import main  # noqa: E402

ROW = "{:>4}  {:<{width}}  {:>7}  {:>7}  {:>7}  {:>8}"


def usage() -> tuple[float, float, float, int]:
    """(wall s, user s, system s, minor faults) so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), ru.ru_utime, ru.ru_stime, ru.ru_minflt


def run(op, seed: int, out: Path) -> None:
    argv = [op.command, "--preset", op.preset, "--seed", str(seed),
            "--out", str(out / op.target)]
    if op.config:
        argv += ["--config", str(op.config)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code:
        sys.exit(f"fdisim {' '.join(argv)} exited with status {code}")


def row(label, command: str, delta, width: int) -> str:
    wall, user, system, faults = delta
    return ROW.format(label, command, f"{wall:.3f}", f"{user:.3f}",
                      f"{system:.3f}", faults, width=width)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="rollouts",
                        help="commands to time (default rollouts)")
    parser.add_argument("--passes", type=int, default=3,
                        help="passes of the workload's commands (default 3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every command (default 0)")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    setup, commands = WORKLOADS[args.workload]
    # a command that a pass runs on two targets is labelled with its target
    names = [op.command for op in commands]
    labels = [op.command if names.count(op.command) == 1
              else f"{op.command} {op.target}" for op in commands]
    width = max(8, *map(len, labels))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for target in {op.target for op in setup + commands}:
            (out / target).mkdir()
        for op in setup:
            run(op, args.seed, out)
        print(ROW.format("pass", "command", "wall_s", "user_s", "sys_s",
                         "minflt", width=width))
        for k in range(1, args.passes + 1):
            total = [0.0, 0.0, 0.0, 0]
            for op, label in zip(commands, labels):
                before = usage()
                run(op, args.seed, out)
                delta = [b - a for a, b in zip(before, usage())]
                total = [t + d for t, d in zip(total, delta)]
                print(row(k, label, delta, width))
            print(row(k, "total", total, width))
