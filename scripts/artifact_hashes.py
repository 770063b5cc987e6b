#!/usr/bin/env python3
"""Print the sha256 of every artifact volfit writes for the given price files.

For each file: ``decompose`` once, then ``fit``, ``export-plot --grid 25``
and ``evaluate`` (its stdout) for each of ols, lar and bisquare.  One
``<sha256>  <file>:<method>:<command>/<artifact>`` line per artifact, in a
fixed order, so two checkouts can be compared by diffing their output.  The
commands run in-process against the ``src/`` tree next to this script.

Three ``#`` lines come first: the command line and the directory it ran
from, the numpy and scipy versions, and the OpenBLAS kernel cores of
scipy's LAPACK and numpy's BLAS.  Run from the repository root on the
bundled file, the output is ``tests/data/artifact_hashes.txt`` whole.

Usage: python scripts/artifact_hashes.py PRICES.csv [PRICES.csv ...]
"""

import contextlib
import ctypes
import hashlib
import importlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from volfit import surface  # noqa: E402
from volfit.cli import main  # noqa: E402


def _openblas_cores() -> tuple[str, str]:
    """The OpenBLAS kernel cores of scipy's LAPACK, whose extension
    ``surface._scipy()`` loads, and of numpy's BLAS, as each library names
    them: they set the bits of a factorization.  A library that cannot say
    reads as ``unknown``."""
    surface._scipy()
    cores = []
    for module, symbol in [("scipy.linalg._flapack", "scipy_openblas_get_corename"),
                           ("numpy._core._multiarray_umath",
                            "scipy_openblas_get_corename64_")]:
        try:
            path = importlib.import_module(module).__file__
            corename = getattr(ctypes.CDLL(path), symbol)
        except (ImportError, OSError, AttributeError):
            cores.append("unknown")
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        cores.append(corename().decode())
    return tuple(cores)


def header_lines(argv: list[str]) -> list[str]:
    """The command line, the versions and the cores the hashes hold for."""
    script = Path(__file__).resolve().relative_to(ROOT).as_posix()
    where = "the repository root" if Path.cwd().resolve() == ROOT else Path.cwd()
    return [f"# {shlex.join(['python', script, *argv])}, run from {where}",
            f"# numpy {np.__version__} scipy {scipy.__version__}",
            "# openblas {} {}".format(*_openblas_cores())]


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
    for method in surface.FIT_METHODS:
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
    try:
        print("\n".join(header_lines(sys.argv[1:])))
        for price_file in sys.argv[1:]:
            print("\n".join(hash_lines(price_file)))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (``| head``): as Python's docs advise for
        # SIGPIPE, stdout goes to devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
