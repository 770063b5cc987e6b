"""Chronological splits, residual diagnostics, RMSE, and result emission."""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DegreesOfFreedomError, FormatError, SplitError
from .surface import (
    FIT_METHODS,
    SERIES_NAMES,
    FeatureTable,
    PolySurfaceModel,
    _count,
    _flag,
    _number,
    evaluate_surface,
)

SERIES_LETTERS = {
    "volatility": "V",
    "trend": "T",
    "seasonal": "S",
    "remainder": "R",
}
_LETTER_SERIES = {v: k for k, v in SERIES_LETTERS.items()}
_CELL_RE = re.compile(r"^(?P<coef>[^\s()]+) \((?P<lo>[^,()]+), (?P<hi>[^()]+)\)$")


@dataclass(frozen=True)
class FitReport:
    """Per-series summary of one fit: both RMSE modes plus bookkeeping.

    train_rmse is degrees-of-freedom normalized, sqrt(SSE / (n - p));
    test_rmse is the plain quadratic mean, sqrt(SSE / n).
    """

    series_name: str
    method: str
    train_rmse: float
    test_rmse: float
    n_train: int
    n_test: int
    excluded: tuple[int, ...]
    converged: bool

    def __post_init__(self):
        if self.series_name not in SERIES_NAMES:
            raise ValueError(f"unknown series name {self.series_name!r}")
        if self.method not in FIT_METHODS:
            raise ValueError(f"unknown fit method {self.method!r}")
        if not (self.train_rmse >= 0 and self.test_rmse >= 0):
            raise ValueError("RMSE values must be non-negative numbers")
        object.__setattr__(self, "excluded", tuple(int(t) for t in self.excluded))


def split_train_test(table: FeatureTable, n_train: int):
    """First n_train rows (chronological order) for training, rest for test."""
    if not 0 < n_train < len(table):
        raise SplitError(
            f"n_train must lie strictly between 0 and {len(table)}, got {n_train}"
        )
    return table.subset(slice(0, n_train)), table.subset(slice(n_train, None))


def residuals(model: PolySurfaceModel, table: FeatureTable) -> np.ndarray:
    """r_i = target_i - f(x_i, y_i), in row order."""
    return table.target - evaluate_surface(model, table.x, table.y)


def rmse(model: PolySurfaceModel, table: FeatureTable, mode: str) -> float:
    """Root mean square error of the model over the table.

    Train mode divides the summed squared residuals by n - p; test mode
    divides by n.
    """
    if mode not in ("train", "test"):
        raise ValueError(f"mode must be 'train' or 'test', got {mode!r}")
    n = len(table)
    r = residuals(model, table)
    sse = float(r @ r)
    if mode == "train":
        p = len(model.term_set)
        if n <= p:
            raise DegreesOfFreedomError(
                f"train RMSE needs more rows ({n}) than terms ({p})"
            )
        return math.sqrt(sse / (n - p))
    if n == 0:
        raise DegreesOfFreedomError("test RMSE needs at least one row")
    return math.sqrt(sse / n)


def fit_report(series_name: str, method: str, model: PolySurfaceModel,
               train: FeatureTable, test: FeatureTable,
               excluded: tuple[int, ...]) -> FitReport:
    """Assemble the per-series report for a model fitted on the train table."""
    return FitReport(
        series_name=series_name,
        method=method,
        train_rmse=rmse(model, train, "train"),
        test_rmse=rmse(model, test, "test"),
        n_train=len(train),
        n_test=len(test),
        excluded=tuple(excluded),
        converged=model.converged,
    )


def report_to_document(report: FitReport) -> str:
    doc = {
        "series_name": report.series_name,
        "method": report.method,
        "train_rmse": report.train_rmse,
        "test_rmse": report.test_rmse,
        "n_train": report.n_train,
        "n_test": report.n_test,
        "excluded": list(report.excluded),
        "converged": report.converged,
    }
    return json.dumps(doc, indent=2) + "\n"


def report_from_document(text: str) -> FitReport:
    """Parse a report document; raises FormatError on anything malformed.

    Fields are checked for type and range rather than coerced, as in
    ``model_from_document``.
    """
    try:
        doc = json.loads(text)
        return FitReport(
            series_name=doc["series_name"],
            method=doc["method"],
            train_rmse=_number(doc["train_rmse"], "train_rmse"),
            test_rmse=_number(doc["test_rmse"], "test_rmse"),
            n_train=_count(doc["n_train"], "n_train"),
            n_test=_count(doc["n_test"], "n_test"),
            excluded=tuple(_count(t, "excluded index") for t in doc["excluded"]),
            converged=_flag(doc["converged"], "converged"),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"report document is malformed: {exc}") from exc


def _format_cell(value: float, lower: float, upper: float) -> str:
    # repr gives the shortest decimal that re-parses to the same float, so
    # the emitted table round-trips exactly
    return f"{value!r} ({lower!r}, {upper!r})"


def export_coefficient_table(models: Mapping[str, PolySurfaceModel]) -> str:
    """Grid of coefficient cells "value (lower, upper)" keyed by (m, n).

    Rows are grouped by exponent m with one sub-row per series (V, T, S,
    R); columns are the n exponents; terms a surface does not use stay
    blank.
    """
    if not models:
        raise ValueError("no models to export")
    for name in models:
        if name not in SERIES_NAMES:
            raise ValueError(f"unknown series name {name!r}")
    order = [name for name in SERIES_NAMES if name in models]
    all_terms = [mod.term_set.terms for mod in models.values()]
    ms = sorted({m for terms in all_terms for m, _ in terms})
    ns = sorted({n for terms in all_terms for _, n in terms})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "series"] + [f"n={n}" for n in ns])
    for m in ms:
        for name in order:
            model = models[name]
            positions = {term: j for j, term in enumerate(model.term_set.terms)}
            row = [str(m), SERIES_LETTERS[name]]
            for n in ns:
                j = positions.get((m, n))
                if j is None:
                    row.append("")
                else:
                    row.append(
                        _format_cell(model.coefficients[j], *model.bounds[j])
                    )
            writer.writerow(row)
    return buf.getvalue()


def parse_coefficient_table(text: str):
    """Inverse of export_coefficient_table.

    Returns {series_name: {(m, n): (coefficient, lower, upper)}} with the
    exact float values that were emitted.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:2] != ["m", "series"]:
        raise FormatError("coefficient table lacks the m,series header")
    try:
        ns = [int(cell.split("=", 1)[1]) for cell in rows[0][2:]]
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad coefficient table header: {exc}") from exc
    out: dict[str, dict[tuple[int, int], tuple[float, float, float]]] = {}
    for row in rows[1:]:
        if not row:
            continue
        try:
            m = int(row[0])
            series = _LETTER_SERIES[row[1]]
        except (KeyError, ValueError, IndexError) as exc:
            raise FormatError(f"bad coefficient table row {row!r}: {exc}") from exc
        for n, cell in zip(ns, row[2:]):
            if not cell:
                continue
            match = _CELL_RE.match(cell)
            if match is None:
                raise FormatError(f"cannot parse coefficient cell {cell!r}")
            out.setdefault(series, {})[(m, n)] = (
                float(match["coef"]), float(match["lo"]), float(match["hi"])
            )
    return out


def coefficient_table_csv(models: Mapping[str, PolySurfaceModel]) -> str:
    """Flat machine-readable table: series, m, n, coefficient, lower, upper."""
    if not models:
        raise ValueError("no models to export")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "m", "n", "coefficient", "lower", "upper"])
    for name in SERIES_NAMES:
        if name not in models:
            continue
        model = models[name]
        for (m, n), coef, (lo, hi) in zip(
            model.term_set.terms, model.coefficients, model.bounds
        ):
            writer.writerow([name, m, n, repr(coef), repr(lo), repr(hi)])
    return buf.getvalue()
