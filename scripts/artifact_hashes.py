#!/usr/bin/env python3
"""Print the sha256 of every artifact volfit writes for the given price files.

For each file: ``decompose`` once, then ``fit``, ``export-plot --grid 25``
and ``evaluate`` (its stdout) for each of ols, lar and bisquare.  One
``<sha256>  <file>:<method>:<command>/<artifact>`` line per artifact, in a
fixed order, so two checkouts can be compared by diffing their output.  The
commands run in-process against the ``src/`` tree next to this script.

Usage: python scripts/artifact_hashes.py PRICES.csv [PRICES.csv ...]
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from volfit.cli import main  # noqa: E402

METHODS = ("ols", "lar", "bisquare")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> tuple[dict[str, bytes], bytes]:
    """Artifacts written and stdout of one ``volfit`` command."""
    with tempfile.TemporaryDirectory() as out_dir:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--out-dir", out_dir])
        if code != 0:
            raise SystemExit(f"volfit {' '.join(argv)} exited with {code}")
        files = {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}
    return files, stdout.getvalue().encode()


def hash_lines(path: str) -> list[str]:
    lines = []
    files, _ = run(["decompose", "--input", path])
    lines += [f"{_digest(data)}  {path}:decompose/{name}" for name, data in files.items()]
    for method in METHODS:
        for command in (["fit"], ["export-plot", "--grid", "25"], ["evaluate"]):
            files, stdout = run([*command, "--input", path, "--method", method])
            if command == ["evaluate"]:
                files = {"stdout": stdout}
            lines += [f"{_digest(data)}  {path}:{method}:{command[0]}/{name}"
                      for name, data in files.items()]
    return lines


if __name__ == "__main__":
    if len(sys.argv) < 2 or any(arg.startswith("-") for arg in sys.argv[1:]):
        raise SystemExit(__doc__.strip().splitlines()[-1])
    for price_file in sys.argv[1:]:
        print("\n".join(hash_lines(price_file)))
