"""Output checks: every op's results are verified before it counts as done.

Each check raises ``CheckError`` on a wrong output; the run loop counts the
op as failed.  Checks run outside the timed region and outside tracing.
"""

from __future__ import annotations

import numpy as np

from volfit import evaluate as ev
from volfit import surface as sf

EPS = np.finfo(float).eps


class CheckError(Exception):
    """An output of volfit is not what it must be."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def decomposition_identity(dec) -> None:
    """trend + seasonal + remainder reproduces the returns, NaNs included.

    The components are formed by two subtractions and summed by two
    additions, so four roundings of the operand magnitudes bound the gap.
    """
    parts = (dec.trend, dec.seasonal, dec.remainder)
    original = dec.original.values
    total = parts[0] + parts[1] + parts[2]
    require(np.array_equal(np.isnan(total), np.isnan(original)),
            "decomposition: missing entries differ from the returns")
    scale = sum(np.abs(p) for p in parts) + np.abs(original)
    gap = np.abs(total - original)
    ok = np.isnan(original) | (gap <= 4 * EPS * scale)
    require(ok.all(), f"decomposition identity off by up to {np.nanmax(gap):.3g}")


def decomposition_rows(text: str, dec) -> None:
    """The decomposition CSV holds every component value exactly."""
    lines = text.split("\n")
    require(lines[0] == "index,original,trend,seasonal,remainder",
            "decomposition CSV header")
    require(len(lines) == len(dec) + 2 and lines[-1] == "",
            "decomposition CSV row count")
    cells = np.array([line.split(",") for line in lines[1:-1]])
    require(cells.shape == (len(dec), 5), "decomposition CSV cell count")
    require(np.array_equal(cells[:, 0], np.arange(1, len(dec) + 1).astype(str)),
            "decomposition CSV index column")
    columns = (dec.original.values, dec.trend, dec.seasonal, dec.remainder)
    for j, column in enumerate(columns, start=1):
        empty = cells[:, j] == ""
        require(np.array_equal(empty, np.isnan(column)),
                f"decomposition CSV empty cells in column {j}")
        parsed = np.where(empty, "nan", cells[:, j]).astype(float)
        require(np.array_equal(parsed, column, equal_nan=True),
                f"decomposition CSV values in column {j}")


def model_round_trip(model, document: str) -> None:
    parsed = sf.model_from_document(document)
    require(parsed == model, "model document does not parse back to the model")
    require(sf.model_to_document(parsed) == document,
            "model document does not re-serialize identically")


def report_round_trip(report, document: str) -> None:
    parsed = ev.report_from_document(document)
    require(parsed == report, "report document does not parse back to the report")
    require(ev.report_to_document(parsed) == document,
            "report document does not re-serialize identically")


def _abs_residual_sum(table, terms, coefficients) -> float:
    X = sf.design_matrix(table, terms)
    return float(np.sum(np.abs(table.target - X @ np.asarray(coefficients))))


def lar_not_worse(lar_model, kept) -> None:
    """LAR's sum |r| is at most OLS's on the same kept table.

    LAR starts from the OLS solution and keeps its best iterate, so this
    holds exactly.
    """
    terms = lar_model.term_set
    ols = sf.fit_ols(kept, terms)
    lar_sum = _abs_residual_sum(kept, terms, lar_model.coefficients)
    ols_sum = _abs_residual_sum(kept, terms, ols.coefficients)
    require(lar_sum <= ols_sum,
            f"LAR sum|r| {lar_sum!r} exceeds OLS sum|r| {ols_sum!r}")


def surface_grid(text: str, model, table, grid: int) -> None:
    """A surface CSV spans the table's ranges and holds design_matrix @ c.

    The grid sums the terms in another order than the matrix product, so
    values may differ by (terms + 2) roundings of the summed term sizes.
    """
    lines = text.split("\n")
    require(lines[0] == "x,y,f" and lines[-1] == "", "surface CSV framing")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:-1]])
    require(rows.shape == (grid * grid, 3), "surface CSV shape")
    xs = np.linspace(float(table.x.min()), float(table.x.max()), grid)
    ys = np.linspace(float(table.y.min()), float(table.y.max()), grid)
    require(np.array_equal(rows[:, 0], np.repeat(xs, grid))
            and np.array_equal(rows[:, 1], np.tile(ys, grid)),
            "surface CSV grid points")
    points = sf.FeatureTable(rows[:, 0], rows[:, 1], np.zeros(len(rows)),
                             np.zeros(len(rows), dtype=int))
    X = sf.design_matrix(points, model.term_set)
    c = np.asarray(model.coefficients)
    tolerance = (len(c) + 2) * EPS * (np.abs(X) @ np.abs(c))
    gap = np.abs(rows[:, 2] - X @ c)
    require(np.all(gap <= tolerance),
            f"surface value off design_matrix @ coefficients by {gap.max():.3g}")


def residual_rows(text: str, model, table) -> None:
    """A residual CSV pairs each row's provenance with its exact residual."""
    lines = text.split("\n")
    require(lines[0] == "index,residual" and lines[-1] == "", "residual CSV framing")
    require(len(lines) == len(table) + 2, "residual CSV row count")
    expected = ev.residuals(model, table)
    for line, t, r in zip(lines[1:-1], table.provenance, expected):
        index, value = line.split(",")
        require(int(index) == t and float(value) == r, f"residual CSV row {index}")


def plot_files(files: dict, models: dict, tables: dict, grid: int) -> None:
    """``volfit export-plot`` files, checked series by series."""
    require(sorted(files) == sorted(
        f"{kind}_{name}.csv" for kind in ("surface", "residuals") for name in models
    ), "export-plot file names")
    for name, model in models.items():
        surface_grid(files[f"surface_{name}.csv"], model, tables[name], grid)
        residual_rows(files[f"residuals_{name}.csv"], model, tables[name])


def predictions(values, names, xs, ys, models) -> None:
    """Scalar predictions equal the vectorised evaluation at the same points."""
    values = np.asarray(values)
    names = np.asarray(names)
    for name, model in models.items():
        at = names == name
        expected = sf.evaluate_surface(model, np.asarray(xs)[at], np.asarray(ys)[at])
        require(np.array_equal(values[at], expected),
                f"{name}: predictions differ from evaluate_surface")


def predict_stdout(stdout: str, model, x: float, y: float) -> None:
    expected = f"{sf.evaluate_surface(model, x, y):#.6g}\n"
    require(stdout == expected, f"predict printed {stdout!r}, expected {expected!r}")
