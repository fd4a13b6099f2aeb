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
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="write each preset's outputs to DIR/<preset>/ "
                             "and leave them there")
    args = parser.parse_args()
    for name in preset_names():
        print("\n".join(digests(name, args.keep)))
