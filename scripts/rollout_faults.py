"""Time the rollout commands in one process, with their minor page faults.

    python3 scripts/rollout_faults.py
    python3 scripts/rollout_faults.py --passes 5 --seed 41

Solves both presets into a temporary directory, then runs `--passes`
in-process passes of evaluate (benchmark preset), fpmd (benchmark preset)
and voltage (voltage preset), the commands and order of the `perfbench`
`rollouts` workload. For each command of each pass it prints the wall
time, the user and system CPU time and the minor page faults, all as
differences of `getrusage(RUSAGE_SELF)` (and a wall clock) around the
command, then the pass's totals. A fault count depends on the heap state
that earlier work left in the process, so compare two checkouts with the
same arguments. The package is imported from the `src/` next to this
script.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fdisim.cli import main  # noqa: E402

PRESETS = ("benchmark", "voltage")
COMMANDS = (("evaluate", "benchmark"), ("fpmd", "benchmark"),
            ("voltage", "voltage"))
ROW = "{:>4}  {:<8}  {:>7}  {:>7}  {:>7}  {:>8}"


def usage() -> tuple[float, float, float, int]:
    """(wall s, user s, system s, minor faults) so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), ru.ru_utime, ru.ru_stime, ru.ru_minflt


def run(command: str, preset: str, seed: int, out: Path) -> None:
    argv = [command, "--preset", preset, "--seed", str(seed),
            "--out", str(out / preset)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code:
        sys.exit(f"fdisim {' '.join(argv)} exited with status {code}")


def row(label, command: str, delta) -> str:
    wall, user, system, faults = delta
    return ROW.format(label, command, f"{wall:.3f}", f"{user:.3f}",
                      f"{system:.3f}", faults)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=3,
                        help="passes of the three commands (default 3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every command (default 0)")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for preset in PRESETS:
            (out / preset).mkdir()
            run("solve", preset, args.seed, out)
        print(ROW.format("pass", "command", "wall_s", "user_s", "sys_s",
                         "minflt"))
        for k in range(1, args.passes + 1):
            total = [0.0, 0.0, 0.0, 0]
            for command, preset in COMMANDS:
                before = usage()
                run(command, preset, args.seed, out)
                delta = [b - a for a, b in zip(before, usage())]
                total = [t + d for t, d in zip(total, delta)]
                print(row(k, command, delta))
            print(row(k, "total", total))
