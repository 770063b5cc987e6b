#!/usr/bin/env python3
"""Print the path every fit takes in a range of perfbench fit-batch ops.

Op i of ``perfbench/run.py --workload fit-batch --seed SEED`` runs
``run_pipeline`` for ols, lar and bisquare on input i of the seed's
generated stream.  For each op in FIRST..LAST (inclusive) this prints one
line: the op number, then a JSON list of the fits and outlier passes in
call order, read from each series' ``"first_pass"``, report and
``"model"``: ``[method, iterations, converged]`` for a fit and
``["excluded", rows]`` for an outlier pass (0 rows when it raised
ExclusionError).  A last line gives the traced counters perfbench reports,
averaged over the range: ``irls_solves`` and ``converged_ratio`` per
method and ``excluded_rows``.  Two checkouts whose fits take the same
paths print the same lines, so they can be compared by diffing the output.
It runs against the ``src/`` and ``perfbench/`` trees next to it.  Two
``#`` lines come first: the command line, naming this script by its path
from the repository root, and the numpy and scipy versions.  For seed 71,
ops 0 to 11, the output is ``tests/data/fit_paths.txt`` whole.

Usage: python scripts/fit_paths.py SEED FIRST LAST
"""

import json
import os
import shlex
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from volfit import cli  # noqa: E402
from volfit import surface as sf  # noqa: E402
from volfit.ingest import PipelineConfig  # noqa: E402


def _fit_record(model) -> list:
    return [model.method, model.iterations, model.converged]


def op_paths(seed: int, first: int, last: int) -> dict[int, list]:
    """The fit and outlier-pass records of each op in first..last."""
    paths = {}
    for i in range(first, last + 1):
        raw, _ = gen.series(seed, "fit-batch", i, (gen.BUNDLED_LENGTH,) * 2)
        records = paths[i] = []
        for method in sf.FIT_METHODS:
            _, results = cli.run_pipeline(raw, PipelineConfig(fit_method=method))
            for r in results.values():
                excluded = len(r["report"].excluded)
                records += [_fit_record(r["first_pass"]), ["excluded", excluded]]
                if excluded:
                    records.append(_fit_record(r["model"]))
    return paths


def counters(paths: dict[int, list]) -> dict[str, float]:
    """perfbench's per-op traced counters over the ops in ``paths``."""
    records = [r for ops in paths.values() for r in ops]
    out = {}
    for method in ("lar", "bisquare"):
        fits = [r for r in records if r[0] == method]
        out[f"surface.irls_solves.{method}"] = sum(r[1] for r in fits) / len(paths)
        out[f"surface.converged_ratio.{method}"] = sum(r[2] for r in fits) / len(fits)
    out["surface.excluded_rows"] = (
        sum(r[1] for r in records if r[0] == "excluded") / len(paths))
    return out


if __name__ == "__main__":
    if len(sys.argv) != 4 or not all(a.isdigit() for a in sys.argv[1:]):
        raise SystemExit(__doc__.strip().splitlines()[-1])
    seed, first, last = map(int, sys.argv[1:])
    script = Path(__file__).resolve().relative_to(ROOT).as_posix()
    try:
        print(f"# {shlex.join(['python', script, *sys.argv[1:]])}")
        print(f"# numpy {np.__version__} scipy {scipy.__version__}")
        paths = op_paths(seed, first, last)
        for i, records in paths.items():
            print(i, json.dumps(records))
        print(json.dumps(counters(paths), sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (``| head``): as Python's docs advise for
        # SIGPIPE, stdout goes to devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
