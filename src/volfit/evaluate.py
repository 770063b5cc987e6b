"""Chronological splits, residual diagnostics, RMSE, and result emission."""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .errors import DegreesOfFreedomError, FormatError, SplitError
from .ingest import _csv_rows
from .surface import (
    FIT_METHODS,
    SERIES_NAMES,
    FeatureTable,
    PolySurfaceModel,
    _count,
    _exponent,
    _flag,
    _list,
    _number,
    _plain_number,
    _scale,
    evaluate_surface,
)

SERIES_LETTERS = {
    "volatility": "V",
    "trend": "T",
    "seasonal": "S",
    "remainder": "R",
}
_LETTER_SERIES = {v: k for k, v in SERIES_LETTERS.items()}
_CELL_RE = re.compile(r"(?P<coef>[^\s()]+) \((?P<lo>[^,()]+), (?P<hi>[^()]+)\)")


@dataclass(frozen=True)
class FitReport:
    """Per-series summary of one fit: both RMSE modes plus bookkeeping.

    train_rmse is degrees-of-freedom normalized, sqrt(SSE / (n - p));
    test_rmse is the plain quadratic mean, sqrt(SSE / n).  Construction
    checks every field (ValueError) and stores each number as a float.
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
        object.__setattr__(self, "train_rmse", _scale(self.train_rmse, "train_rmse"))
        object.__setattr__(self, "test_rmse", _scale(self.test_rmse, "test_rmse"))
        object.__setattr__(self, "n_train", _count(self.n_train, "n_train"))
        object.__setattr__(self, "n_test", _count(self.n_test, "n_test"))
        object.__setattr__(self, "converged", _flag(self.converged, "converged"))
        try:
            excluded = tuple([_count(t, "excluded index") for t in self.excluded])
        except (TypeError, ValueError):
            raise ValueError(f"excluded indices must be integers >= 0, "
                             f"got {self.excluded!r}") from None
        object.__setattr__(self, "excluded", excluded)


def split_train_test(table: FeatureTable, n_train: int):
    """First n_train rows (chronological order) for training, rest for test;
    SplitError unless n_train is an integer (numpy's too) in (0, len(table))."""
    if not 0 < _count(n_train, "n_train", SplitError) < len(table):
        raise SplitError(
            f"n_train must lie strictly between 0 and {len(table)}, got {n_train}")
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


def fit_report(series_name: str, model: PolySurfaceModel,
               train: FeatureTable, test: FeatureTable,
               excluded: tuple[int, ...]) -> FitReport:
    """Assemble the per-series report for a model fitted on the train table;
    the report's method is the model's."""
    return FitReport(
        series_name=series_name,
        method=model.method,
        train_rmse=rmse(model, train, "train"),
        test_rmse=rmse(model, test, "test"),
        n_train=len(train),
        n_test=len(test),
        excluded=tuple(excluded),
        converged=model.converged,
    )


# The report document's keys, in the order it writes them
_REPORT_FIELDS = tuple(f.name for f in fields(FitReport))


def report_to_document(report: FitReport) -> str:
    doc = {name: getattr(report, name) for name in _REPORT_FIELDS}
    return json.dumps(doc, indent=2) + "\n"


def report_from_document(text: str) -> FitReport:
    """Parse a report document; raises FormatError on anything malformed.

    The record checks every field's type and range rather than coerce it,
    as in ``model_from_document``; this reader parses the JSON and checks
    that ``excluded`` is an array.
    """
    try:
        doc = json.loads(text)
        _list(doc["excluded"], "excluded")
        return FitReport(**{name: doc[name] for name in _REPORT_FIELDS})
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"report document is malformed: {exc}") from exc


def _format_cell(value: float, lower: float, upper: float) -> str:
    # repr gives the shortest decimal that re-parses to the same float, so
    # the emitted table round-trips exactly
    return f"{value!r} ({lower!r}, {upper!r})"


def _csv_text(header: str, columns) -> str:
    """The header line, then one line per row of the cell columns: what
    ``csv.writer`` writes, since no pre-formatted cell needs quoting."""
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def _series_order(models: Mapping[str, PolySurfaceModel]) -> list[str]:
    """The models' series names in SERIES_NAMES order; ValueError if none or unknown."""
    if not models:
        raise ValueError("no models to export")
    for name in models:
        if name not in SERIES_NAMES:
            raise ValueError(f"unknown series name {name!r}")
    return [name for name in SERIES_NAMES if name in models]


def export_coefficient_table(models: Mapping[str, PolySurfaceModel]) -> str:
    """Grid of coefficient cells "value (lower, upper)" keyed by (m, n).

    Rows are grouped by exponent m with one sub-row per series (V, T, S,
    R); columns are the n exponents; terms a surface does not use stay
    blank.
    """
    cells = {}
    for name in _series_order(models):
        model = models[name]
        cells[name] = {term: _format_cell(c, lo, hi) for term, c, (lo, hi)
                       in zip(model.term_set.terms, model.coefficients, model.bounds)}
    ms = sorted({m for terms in cells.values() for m, _ in terms})
    ns = sorted({n for terms in cells.values() for _, n in terms})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "series"] + [f"n={n}" for n in ns])
    for m in ms:
        for name, terms in cells.items():
            writer.writerow([str(m), SERIES_LETTERS[name]]
                            + [terms.get((m, n), "") for n in ns])
    return buf.getvalue()


def _table_number(text: str) -> float:
    """One of a coefficient cell's numbers: a finite float in ASCII, no ``_``."""
    try:
        return _number(_plain_number(text), "coefficient table entry")
    except ValueError as exc:
        raise FormatError(
            f"cannot parse number {text!r} in a coefficient cell: {exc}") from None


def parse_coefficient_table(text: str):
    """Inverse of export_coefficient_table.

    Returns {series_name: {(m, n): (coefficient, lower, upper)}} with the
    exact float values that were emitted.  Lines may end in ``\r\n``, ``\r``
    or ``\n``.  Raises FormatError on text ``csv`` cannot read, on a cell
    that is not exactly "value (lower, upper)" of three finite numbers, on an
    exponent that is not a non-negative integer, on a row longer than the
    header, on a term given twice and on a value outside its own bounds.
    """
    rows = _csv_rows(text, "coefficient table")
    if not rows or rows[0][:2] != ["m", "series"]:
        raise FormatError("coefficient table lacks the m,series header")
    header = rows[0]
    if not all(cell.startswith("n=") for cell in header[2:]):
        raise FormatError(f"bad coefficient table header {header!r}")
    ns = [_exponent(cell[2:], FormatError) for cell in header[2:]]
    out: dict[str, dict[tuple[int, int], tuple[float, float, float]]] = {}
    for row in rows[1:]:
        if not row:
            continue
        if len(row) < 2 or row[1] not in _LETTER_SERIES or len(row) > len(header):
            raise FormatError(f"bad coefficient table row {row!r}")
        m, series = _exponent(row[0], FormatError), _LETTER_SERIES[row[1]]
        for n, cell in zip(ns, row[2:]):
            if not cell:
                continue
            match = _CELL_RE.fullmatch(cell)
            if match is None:
                raise FormatError(f"cannot parse coefficient cell {cell!r}")
            terms = out.setdefault(series, {})
            if (m, n) in terms:
                raise FormatError(f"term ({m}, {n}) of {series} is given twice")
            coef, lo, hi = (_table_number(match[g]) for g in ("coef", "lo", "hi"))
            if not lo <= coef <= hi:
                raise FormatError(f"coefficient {coef} outside its bounds ({lo}, {hi})")
            terms[(m, n)] = (coef, lo, hi)
    return out


def coefficient_table_csv(models: Mapping[str, PolySurfaceModel]) -> str:
    """Flat machine-readable table: series, m, n, coefficient, lower, upper."""
    rows = []
    for name in _series_order(models):
        model = models[name]
        rows += [(name, str(m), str(n), repr(c), repr(lo), repr(hi))
                 for (m, n), c, (lo, hi)
                 in zip(model.term_set.terms, model.coefficients, model.bounds)]
    return _csv_text("series,m,n,coefficient,lower,upper", zip(*rows))
