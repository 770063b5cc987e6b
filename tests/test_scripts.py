"""Smoke tests of the scripts in scripts/."""

import hashlib
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
from volfit.cli import main, run_pipeline
from volfit.errors import ExclusionError
from volfit.ingest import PipelineConfig

ROOT = Path(__file__).resolve().parent.parent
# relative to ROOT, as the pinned hash lines name it
BUNDLED = "data/synthetic_vix.csv"
PINNED_HASHES = ROOT / "tests" / "data" / "artifact_hashes.txt"
PINNED_FIT_PATHS = ROOT / "tests" / "data" / "fit_paths.txt"


def _load_script(name: str):
    """scripts/<name>.py as a module, with sys.path left as found: the
    scripts put src/ (and perfbench/) first on it as they load."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def _skip_unless_pinned_here(text: str, what: str, cores: bool) -> None:
    """Skip unless the pinned file's header names these numpy and scipy
    versions and, with ``cores``, these OpenBLAS cores."""
    labels = ["numpy", "scipy"]
    pinned = re.search(r"^# numpy (\S+) scipy (\S+)$", text, re.MULTILINE).groups()
    here = (np.__version__, scipy.__version__)
    if cores:
        labels += ["scipy's OpenBLAS core", "numpy's OpenBLAS core"]
        pinned += re.search(r"^# openblas (\S+) (\S+)$", text, re.MULTILINE).groups()
        here += _load_script("artifact_hashes")._openblas_cores()
    if pinned != here:
        pytest.skip(f"{what} pinned under {', '.join(map(' '.join, zip(labels, pinned)))}"
                    f"; here {', '.join(map(' '.join, zip(labels, here)))}")


def _without_header(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("#")]


@pytest.fixture(scope="module")
def bundled_hashes():
    """The hash script's output for the bundled file, run from the root."""
    return subprocess.run(
        [sys.executable, "scripts/artifact_hashes.py", BUNDLED],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout


def test_artifact_hashes_cover_every_artifact(tmp_path, bundled_hashes):
    lines = _without_header(bundled_hashes)
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


def test_artifacts_keep_their_pinned_bytes(bundled_hashes):
    # a change that is meant to alter an artifact rewrites the pinned file
    # in its own diff, with the script's output whole; numpy and scipy
    # builds and OpenBLAS's kernels may round differently, so the file
    # holds only for the versions and cores it names
    text = PINNED_HASHES.read_text()
    _skip_unless_pinned_here(text, "hashes", cores=True)
    assert bundled_hashes == text


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
    assert proc.stdout == text


def test_fit_paths_records_every_fit_of_an_op():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fit_paths.py"), "3", "5", "5"],
        capture_output=True, text=True, check=True,
    )
    op_line, summary = _without_header(proc.stdout)
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
    assert proc.stdout == text


@pytest.mark.parametrize("argv", [["scripts/fit_paths.py", "3", "5", "5"],
                                  ["scripts/artifact_hashes.py", BUNDLED]],
                         ids=["fit_paths", "artifact_hashes"])
def test_scripts_end_quietly_when_the_reader_closes_early(argv):
    # as under ``| head -1``; the read end closes before the script writes,
    # so its first write meets a closed pipe, buffered or not
    with subprocess.Popen([sys.executable, *argv], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == 1
    assert stderr == ""


# per series of the bundled file: the first pass's iterations and whether
# it converged (T or F), the rows its outlier pass excluded, and the refit's
# iterations and convergence, none where nothing was excluded
BUNDLED_FIT_PATHS = {
    "ols": "0,T; 92; 0,T | 0,T; 0; none | 0,T; 8; 0,T | 0,T; 89; 0,T",
    "lar": "17,T; 107; 12,T | 44,T; 181; 28,T | 16,T; 9; 16,T | 34,T; 108; 21,T",
    "bisquare": "13,T; 108; 12,T | 50,F; 177; 37,T | 13,T; 9; 12,T | 13,T; 104; 11,T",
}


@pytest.mark.parametrize("method", BUNDLED_FIT_PATHS)
def test_bundled_fit_paths_hold_on_every_core(method):
    # guarded by the versions alone, like the fit-paths pin: these paths
    # matched under every OpenBLAS core tried, so where the hash pins skip
    # for their cores the bundled fits are still checked
    _skip_unless_pinned_here(PINNED_FIT_PATHS.read_text(), "fit paths", cores=False)
    _, results = run_pipeline((ROOT / BUNDLED).read_text(encoding="utf-8"),
                              PipelineConfig(fit_method=method))

    def fit(model):
        return f"{model.iterations},{'T' if model.converged else 'F'}"

    assert " | ".join(
        f"{fit(r['first_pass'])}; {len(r['report'].excluded)}; "
        f"{fit(r['model']) if r['report'].excluded else 'none'}"
        for r in results.values()) == BUNDLED_FIT_PATHS[method]


@pytest.fixture
def fit_paths():
    return _load_script("fit_paths")


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
