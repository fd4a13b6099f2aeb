"""Print the SHA-256 of every file the CLI writes at --seed 0.

    python3 scripts/seed0_digests.py > digests.txt
    python3 scripts/seed0_digests.py --keep outputs > digests.txt

Runs solve, sweep-action, evaluate, fpmd and voltage on each preset, in
that order, into one temporary directory per preset, and prints one
`<sha256>  <preset>/<file>` line per output file. A command that refuses a
preset prints `exit <code>  <preset>/<command>` instead (voltage needs the
controller that only the voltage preset has). Last comes
`estimate-b/estimate_b.yaml`: estimate-b's fit of a one-bus, one-input
trace of 500 samples, which voltage.synthesize_traces draws at seed 0
and voltage.save_traces writes. The package is imported from the `src/` next
to this script, so two checkouts give byte-identical outputs exactly when
their listings `diff` clean.

With `--keep DIR` the outputs go to `DIR/<preset>/` and
`DIR/estimate-b/` (new or empty) and stay there, so two checkouts' CSVs
can be compared value by value.

    python3 scripts/seed0_digests.py --against HEAD~1

With `--against REV` the script also runs REV's own copy of itself in a
temporary detached `git worktree`, which it removes afterwards, and
prints the unified diff of REV's listing against this checkout's, or
`<n> lines identical to REV`; it exits with 1 when they differ. Only the
outputs that REV's script lists are compared: an output that an older
script does not list (such as estimate-b's) is named after the result,
and does not count as a difference.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fdisim.cli import main  # noqa: E402
from fdisim.config import preset_names  # noqa: E402
from fdisim.numerics import RngStream  # noqa: E402
from fdisim.voltage import save_traces, synthesize_traces  # noqa: E402

COMMANDS = ("solve", "sweep-action", "evaluate", "fpmd", "voltage")
# estimate-b's input: 500 samples of a one-bus, one-input gain at seed 0
TRACE_B = 1.2


def digests(name: str, keep: Path | None = None) -> list[str]:
    """The listing of one preset's outputs, or of estimate-b's when
    `name` is "estimate-b"."""
    with contextlib.ExitStack() as stack:
        if keep is None:
            out = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            out = keep / name
            out.mkdir(parents=True, exist_ok=True)
            if any(out.iterdir()):
                sys.exit(f"{out} is not empty")
        runs = [[command, "--preset", name, "--seed", "0", "--out", str(out)]
                for command in COMMANDS]
        if name == "estimate-b":
            traces = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            save_traces(traces / "traces.csv", synthesize_traces(
                TRACE_B, 500, RngStream(0), noise_var=1e-4))
            runs = [[name, "--traces", str(traces / "traces.csv"),
                     "--out", str(out)]]
        lines = []
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            if code:
                lines.append(f"exit {code}  {name}/{argv[0]}")
        for path in sorted(out.iterdir()):
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{sha}  {name}/{path.name}")
    return lines


def output(line: str) -> str:
    """The `<preset>/<file>` (or `<preset>/<command>`) a line is about."""
    return line.split("  ", 1)[1]


def listing_at(rev: str) -> list[str]:
    """The listing printed by REV's copy of this script, run in a
    temporary detached worktree that is removed afterwards."""
    git = ["git", "-C", str(ROOT), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(git + ["add", "--detach", "--quiet", str(tree), rev],
                       check=True)
        try:
            run = subprocess.run(
                [sys.executable, str(tree / "scripts" / "seed0_digests.py")],
                stdout=subprocess.PIPE, text=True, check=True)
        finally:
            subprocess.run(git + ["remove", "--force", str(tree)], check=True)
    return run.stdout.splitlines()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="write each preset's outputs to DIR/<preset>/ "
                             "and leave them there")
    parser.add_argument("--against", metavar="REV",
                        help="diff this listing against the one REV's copy "
                             "of the script prints, and exit 1 if they "
                             "differ")
    args = parser.parse_args()
    lines = [line for name in (*preset_names(), "estimate-b")
             for line in digests(name, args.keep)]
    if args.against is None:
        print("\n".join(lines))
    else:
        theirs = listing_at(args.against)
        listed = set(map(output, theirs))
        ours = [line for line in lines if output(line) in listed]
        diff = list(difflib.unified_diff(theirs, ours, args.against,
                                         "this checkout", lineterm=""))
        print("\n".join(diff)
              or f"{len(ours)} lines identical to {args.against}")
        unlisted = [output(line) for line in lines
                    if output(line) not in listed]
        if unlisted:
            print(f"not listed by {args.against}: {', '.join(unlisted)}")
        sys.exit(1 if diff else 0)
