"""The array writers against the scalar csv.writer code they replaced.

The oracles below are the row-at-a-time implementations of
``export_plot_data`` and ``decomposition_csv``: one ``evaluate_surface``
call per grid point and one ``np.isnan`` / ``repr(float(...))`` per cell.
The writers must reproduce their output as exact strings.
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

import volfit as vf
from volfit.cli import decomposition_csv, export_plot_data, run_pipeline

BUNDLED = Path(__file__).resolve().parent.parent / "data" / "synthetic_vix.csv"


def oracle_export_plot_data(model, table, grid_density):
    xs = np.linspace(float(table.x.min()), float(table.x.max()), grid_density)
    ys = np.linspace(float(table.y.min()), float(table.y.max()), grid_density)
    surface_buf = io.StringIO()
    writer = csv.writer(surface_buf, lineterminator="\n")
    writer.writerow(["x", "y", "f"])
    for x in xs:
        for y in ys:
            writer.writerow([repr(float(x)), repr(float(y)),
                             repr(vf.evaluate_surface(model, x, y))])
    residual_buf = io.StringIO()
    writer = csv.writer(residual_buf, lineterminator="\n")
    writer.writerow(["index", "residual"])
    for t, r in zip(table.provenance, vf.residuals(model, table)):
        writer.writerow([int(t), repr(float(r))])
    return surface_buf.getvalue(), residual_buf.getvalue()


def oracle_decomposition_csv(dec):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "original", "trend", "seasonal", "remainder"])
    columns = (dec.original.values, dec.trend, dec.seasonal, dec.remainder)
    for i in range(len(dec)):
        row = [str(i + 1)]
        for col in columns:
            v = col[i]
            row.append("" if np.isnan(v) else repr(float(v)))
        writer.writerow(row)
    return buf.getvalue()


def with_nulls(text):
    """The price file with single nulls and one run of five nulls."""
    lines = text.splitlines()
    for k in [*range(40, len(lines), 211), *range(900, 905)]:
        lines[k] = lines[k].rsplit(",", 1)[0] + ",null"
    return "\n".join(lines) + "\n"


PRICE_FILES = {
    "bundled": BUNDLED.read_text(encoding="utf-8"),
    "nulls": with_nulls(BUNDLED.read_text(encoding="utf-8")),
}


@pytest.fixture(scope="module", params=sorted(PRICE_FILES))
def prices(request):
    return PRICE_FILES[request.param]


@pytest.fixture(scope="module", params=vf.FIT_METHODS)
def pipeline(request, prices):
    return run_pipeline(prices, vf.PipelineConfig(fit_method=request.param))


def test_null_file_has_missing_cells():
    dec, _ = run_pipeline(PRICE_FILES["nulls"], vf.PipelineConfig(fit_method="ols"))
    rows = decomposition_csv(dec).splitlines()[1:]
    assert sum("" in row.split(",") for row in rows) >= 6


def test_decomposition_csv_matches_scalar_writer(pipeline):
    dec, _ = pipeline
    assert decomposition_csv(dec) == oracle_decomposition_csv(dec)


@pytest.mark.parametrize("grid", [2, 25])
def test_export_plot_data_matches_scalar_writer(pipeline, grid):
    _, results = pipeline
    for name in vf.SERIES_NAMES:
        model, train = results[name]["model"], results[name]["train"]
        assert export_plot_data(model, train, grid) == \
            oracle_export_plot_data(model, train, grid)


def test_nan_surface_values_written_as_nan():
    # 0 * inf: the grid writer keeps repr's "nan" where the decomposition
    # writer would leave the cell empty
    terms = vf.TermSet(((0, 0), (400, 0)))
    table = vf.FeatureTable([1.0, 1e3], [1.0, 2.0], [0.0, 0.0], [1, 2])
    model = vf.PolySurfaceModel(terms, (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)),
                                "ols", 2, 0.0, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        files = export_plot_data(model, table, 3)
        assert files == oracle_export_plot_data(model, table, 3)
    assert "nan" in files[0]
