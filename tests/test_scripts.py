"""Smoke tests of the scripts in scripts/."""

import ctypes
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from volfit import surface
from volfit.cli import main
from volfit.errors import ExclusionError

ROOT = Path(__file__).resolve().parent.parent
# relative to ROOT, as the pinned hash lines name it
BUNDLED = "data/synthetic_vix.csv"
PINNED_HASHES = ROOT / "tests" / "data" / "artifact_hashes.txt"
PINNED_FIT_PATHS = ROOT / "tests" / "data" / "fit_paths.txt"


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


def _skip_unless_pinned_here(text: str, what: str, cores: bool) -> None:
    """Skip unless the pinned file's header names these numpy and scipy
    versions and, with ``cores``, these OpenBLAS cores."""
    labels = ["numpy", "scipy"]
    pinned = re.search(r"^# numpy (\S+) scipy (\S+)$", text, re.MULTILINE).groups()
    here = (np.__version__, scipy.__version__)
    if cores:
        labels += ["scipy's OpenBLAS core", "numpy's OpenBLAS core"]
        pinned += re.search(r"^# openblas (\S+) (\S+)$", text, re.MULTILINE).groups()
        here += _openblas_cores()
    if pinned != here:
        pytest.skip(f"{what} pinned under {', '.join(map(' '.join, zip(labels, pinned)))}"
                    f"; here {', '.join(map(' '.join, zip(labels, here)))}")


@pytest.fixture(scope="module")
def bundled_hash_lines():
    proc = subprocess.run(
        [sys.executable, "scripts/artifact_hashes.py", BUNDLED],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return proc.stdout.splitlines()


def test_artifact_hashes_cover_every_artifact(tmp_path, bundled_hash_lines):
    lines = bundled_hash_lines
    # decompose once, then per method 9 fit files, 8 plot files, 1 stdout
    assert len(lines) == 1 + 3 * (9 + 8 + 1)
    hashes = {}
    for line in lines:
        match = re.fullmatch(r"([0-9a-f]{64})  (.+)", line)
        assert match, line
        hashes[match[2]] = match[1]
    assert len(hashes) == len(lines)
    assert main(["fit", "--input", str(ROOT / BUNDLED), "--method", "bisquare",
                 "--out-dir", str(tmp_path)]) == 0
    for path in tmp_path.iterdir():
        name = f"{BUNDLED}:bisquare:fit/{path.name}"
        assert hashes[name] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert f"{BUNDLED}:lar:evaluate/stdout" in hashes
    assert f"{BUNDLED}:decompose/decomposition.csv" in hashes


def test_artifacts_keep_their_pinned_bytes(bundled_hash_lines):
    # a change that is meant to alter an artifact rewrites the pinned file
    # in its own diff; numpy and scipy builds and OpenBLAS's kernels may
    # round differently, so the file holds only for the versions and cores
    # it names
    text = PINNED_HASHES.read_text()
    _skip_unless_pinned_here(text, "hashes", cores=True)
    assert bundled_hash_lines == [line for line in text.splitlines()
                                  if not line.startswith("#")]


@pytest.mark.parametrize("setting", ["1", "3", "numpy-simd-off"])
def test_artifact_bytes_do_not_depend_on_blas_threads(setting):
    # numpy's BLAS and the p x p LAPACK solves run on this many threads, the
    # QR factorizations on one; the pinned hashes hold for any count.  They
    # hold too with numpy's SIMD dispatch off, as surface powers are taken by
    # products, which round alike in every loop
    text = PINNED_HASHES.read_text()
    _skip_unless_pinned_here(text, "hashes", cores=True)
    if setting == "numpy-simd-off":
        # every SIMD target numpy dispatches to on this CPU; numpy refuses to
        # disable a target it did not dispatch
        umath = np._core._multiarray_umath
        targets = " ".join(target for target in umath.__cpu_dispatch__
                           if umath.__cpu_features__.get(target))
        if not targets:
            pytest.skip("numpy dispatches to no SIMD target on this CPU")
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": targets}
    else:
        env = {**os.environ, "OPENBLAS_NUM_THREADS": setting}
    proc = subprocess.run(
        [sys.executable, "scripts/artifact_hashes.py", BUNDLED], cwd=ROOT,
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines() == [line for line in text.splitlines()
                                        if not line.startswith("#")]


def test_fit_paths_records_every_fit_of_an_op():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fit_paths.py"), "3", "5", "5"],
        capture_output=True, text=True, check=True,
    )
    op_line, summary = proc.stdout.splitlines()
    op, records = op_line.split(" ", 1)
    assert op == "5"
    records = json.loads(records)
    # per method: four first fits, one outlier pass each, a refit after each
    # pass that excluded rows
    passes = [r[1] for r in records if r[0] == "excluded"]
    assert len(passes) == 3 * 4
    fits = sum(r[0] != "excluded" for r in records)
    assert fits == 3 * 4 + sum(rows > 0 for rows in passes)
    assert all(r[1:] == [0, True] for r in records if r[0] == "ols")
    counters = json.loads(summary)
    assert counters["surface.excluded_rows"] == sum(passes)
    assert counters["surface.irls_solves.lar"] == sum(
        r[1] for r in records if r[0] == "lar")


def test_fit_paths_keep_their_pinned_output():
    # the bundled file's hashes never run the L1 exchange loop on generated
    # series; these paths change when any fit there takes another exchange,
    # reweighting or outlier pass.  Pinned, like the hashes, for the numpy
    # and scipy versions the header names
    text = PINNED_FIT_PATHS.read_text()
    _skip_unless_pinned_here(text, "fit paths", cores=False)
    argv = re.match(r"# python (scripts/fit_paths\.py [\d ]+)\n", text)[1].split()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [line for line in text.splitlines()
                                        if not line.startswith("#")]


@pytest.fixture
def fit_paths(monkeypatch):
    # the script puts src/ and perfbench/ first on sys.path as it loads
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "fit_paths", ROOT / "scripts" / "fit_paths.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fit_paths_record_a_refused_exclusion_as_zero_rows(fit_paths, monkeypatch):
    # an outlier pass that raises ExclusionError keeps the first fit, and
    # prints as a pass that excluded nothing
    def refuse(*args, **kwargs):
        raise ExclusionError("too few rows would remain")

    monkeypatch.setattr(surface, "remove_outliers", refuse)
    records = fit_paths.op_paths(3, 5, 5)[5]
    assert [r[0] for r in records[::2]] == [m for m in surface.FIT_METHODS
                                            for _ in surface.SERIES_NAMES]
    assert records[1::2] == [["excluded", 0]] * 3 * 4


def test_fit_paths_leave_the_surface_module_as_found(fit_paths):
    before = dict(vars(surface))
    fit_paths.op_paths(3, 5, 5)
    after = vars(surface)
    assert after.keys() == before.keys()
    assert [name for name, value in before.items() if after[name] is not value] == []
