"""Print the SHA-256 of every file the CLI writes at --seed 0.

    python3 scripts/seed0_digests.py > digests.txt
    python3 scripts/seed0_digests.py --keep outputs > digests.txt

Runs solve, sweep-action, evaluate, fpmd and voltage on each preset, in
that order, into one temporary directory per preset, and prints one
`<sha256>  <preset>/<file>` line per output file. A command that refuses a
preset prints `exit <code>  <preset>/<command>` instead (voltage needs the
controller that only the voltage preset has). The package is imported from
the `src/` next to this script, so two checkouts give byte-identical
outputs exactly when their listings `diff` clean. estimate-b is left out:
it needs a trace file.

With `--keep DIR` the outputs go to `DIR/<preset>/` (new or empty) and
stay there, so two checkouts' CSVs can be compared value by value.

    python3 scripts/seed0_digests.py --against HEAD~1

With `--against REV` the script also runs REV's own copy of itself in a
temporary detached `git worktree`, which it removes afterwards, and
prints the unified diff of REV's listing against this checkout's, or
`<n> lines identical to REV`; it exits with 1 when they differ.
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

COMMANDS = ("solve", "sweep-action", "evaluate", "fpmd", "voltage")


def digests(preset: str, keep: Path | None = None) -> list[str]:
    with contextlib.ExitStack() as stack:
        if keep is None:
            out = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            out = keep / preset
            out.mkdir(parents=True, exist_ok=True)
            if any(out.iterdir()):
                sys.exit(f"{out} is not empty")
        lines = []
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--preset", preset, "--seed", "0",
                             "--out", str(out)])
            if code:
                lines.append(f"exit {code}  {preset}/{command}")
        for path in sorted(out.iterdir()):
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{sha}  {preset}/{path.name}")
    return lines


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
    lines = [line for name in preset_names()
             for line in digests(name, args.keep)]
    if args.against is None:
        print("\n".join(lines))
    else:
        diff = list(difflib.unified_diff(listing_at(args.against), lines,
                                         args.against, "this checkout",
                                         lineterm=""))
        print("\n".join(diff)
              or f"{len(lines)} lines identical to {args.against}")
        sys.exit(1 if diff else 0)
