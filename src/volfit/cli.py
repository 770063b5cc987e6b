"""Command-line driver: ingestion -> decomposition -> fitting -> evaluation.

Five subcommands share one config file plus flag overrides (flags win):

* decompose    write the component series as a 5-column CSV
* fit          fit one surface per series and write models, reports, and
               the coefficient table
* predict      evaluate a saved model document at one (x, y) point
* evaluate     print the coefficient grid and RMSE summary, write nothing
* export-plot  write surface-grid and residual CSVs for each series

All artifacts are UTF-8 with LF line endings and are byte-identical across
reruns on the same inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import surface as sf
from .decompose import DecomposedSeries, decompose, log_returns
from .errors import ExclusionError, InsufficientData, VolfitError
from .ingest import PipelineConfig, load_config, parse_price_csv


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each value as a Python float."""
    return list(map(repr, values.tolist()))


def export_plot_data(model: sf.PolySurfaceModel, table: sf.FeatureTable,
                     grid_density: int) -> tuple[str, str]:
    """Plot-data files for one fitted surface.

    The surface CSV holds grid_density**2 rows (x, y, f(x, y)) spanning the
    table's observed x and y ranges, x-major; the residual CSV holds one
    (provenance index, residual) row per table row.  The grid density is
    an integer >= 2, numpy's too; anything else raises ValueError.  An
    empty table has no ranges and raises InsufficientData.
    """
    grid_density = sf._count(grid_density, "grid density")
    if grid_density < 2:
        raise ValueError("grid density must be >= 2")
    if not len(table):
        raise InsufficientData("an empty table has no x and y ranges to plot")
    xs = np.linspace(float(table.x.min()), float(table.x.max()), grid_density)
    ys = np.linspace(float(table.y.min()), float(table.y.max()), grid_density)
    f = sf.evaluate_surface(model, np.repeat(xs, grid_density), np.tile(ys, grid_density))
    # each grid coordinate is formatted once, then laid out as its values are
    x_cells = np.repeat(np.array(_reprs(xs), dtype=object), grid_density)
    y_cells = np.tile(np.array(_reprs(ys), dtype=object), grid_density)
    surface = ev._csv_text("x,y,f", (x_cells, y_cells, _reprs(f)))
    residual = ev._csv_text("index,residual", (
        map(str, table.provenance.tolist()),
        _reprs(ev.residuals(model, table)),
    ))
    return surface, residual


def decomposition_csv(dec: DecomposedSeries) -> str:
    """5-column CSV of the decomposition; missing values become empty cells."""
    columns = [map(str, range(1, len(dec) + 1))]
    for values in (dec.original.values, dec.trend, dec.seasonal, dec.remainder):
        cells = _reprs(values)
        for i in np.flatnonzero(np.isnan(values)).tolist():
            cells[i] = ""
        columns.append(cells)
    return ev._csv_text("index,original,trend,seasonal,remainder", columns)


def _load_inputs(args) -> tuple[str, PipelineConfig]:
    raw_prices = Path(args.input).read_text(encoding="utf-8")
    if args.config is not None:
        config = load_config(Path(args.config).read_text(encoding="utf-8"))
    else:
        config = PipelineConfig()
    # each fitting flag's dest is the PipelineConfig field it overrides
    flags = vars(args)
    overrides = {f.name: flags[f.name] for f in fields(PipelineConfig)
                 if flags.get(f.name) is not None}
    return raw_prices, replace(config, **overrides)


def _out_dir(args) -> Path:
    if args.out_dir is not None:
        return Path(args.out_dir)
    return Path(os.environ.get("VOLFIT_OUT_DIR", "."))


def _write_artifacts(out_dir: Path, artifacts: dict[str, str]) -> None:
    """Write every artifact or none: on failure partial files are removed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, text in artifacts.items():
            path = out_dir / name
            # listed before the write: a write that fails part way
            # through leaves a partial file, which must go too
            written.append(path)
            path.write_text(text, encoding="utf-8", newline="\n")
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _decompose_prices(raw_prices: str, config: PipelineConfig) -> DecomposedSeries:
    """Parse the price CSV, take log returns and decompose them.

    The decomposition of the last call is kept and handed out again while
    the text and the three fields it depends on stay the same, so its
    arrays are read-only.
    """
    return _decomposition(raw_prices, config.price_column,
                          tuple(config.kz_trend), tuple(config.kz_seasonal))


@functools.lru_cache(maxsize=1)
def _decomposition(raw_prices: str, price_column: str | None,
                   kz_trend: tuple[int, int],
                   kz_seasonal: tuple[int, int]) -> DecomposedSeries:
    # the three steps are looked up at call time, so that wrappers put on
    # cli's names see every miss; a call that raises caches nothing
    config = PipelineConfig(price_column=price_column, kz_trend=kz_trend,
                            kz_seasonal=kz_seasonal)
    dec = decompose(log_returns(parse_price_csv(raw_prices, config)),
                    kz_trend, kz_seasonal)
    for values in (dec.original.values, dec.trend, dec.seasonal, dec.remainder):
        values.flags.writeable = False
    return dec


def run_pipeline(raw_prices: str, config: PipelineConfig):
    """Shared fit pipeline over all four series.

    Per series: build the feature table, split chronologically, fit, drop
    training outliers and refit, and report both RMSE modes.  Test rows
    are never excluded.  ``"first_pass"`` is the fit on all training rows,
    ``"model"`` the reported one: the same object when none was excluded.
    The decomposition may be the one an earlier call on the same text
    returned; its arrays are read-only.
    """
    dec = _decompose_prices(raw_prices, config)
    # looked up at call time, so that wrappers put on surface.fit_<method> apply
    fit = getattr(sf, f"fit_{config.fit_method}")
    results = {}
    for name in sf.SERIES_NAMES:
        terms = config.term_sets[name]
        table = sf.build_feature_table(dec.component(name), config.lag)
        train, test = ev.split_train_test(table, config.n_train)
        first_pass = model = fit(train, terms, confidence_level=config.confidence_level)
        try:
            kept, excluded = sf.remove_outliers(
                train, model, config.outlier_threshold
            )
        except ExclusionError:
            kept, excluded = train, ()
        if excluded:
            model = fit(kept, terms, confidence_level=config.confidence_level)
        report = ev.fit_report(name, model, kept, test, excluded)
        results[name] = {
            "table": table,
            "train": kept,
            "test": test,
            "first_pass": first_pass,
            "model": model,
            "report": report,
        }
    return dec, results


def fit_artifacts(results) -> dict[str, str]:
    """The nine ``volfit fit`` documents for one ``run_pipeline`` result, by
    file name: each series' model and report, then the coefficient table."""
    artifacts = {}
    for name in sf.SERIES_NAMES:
        artifacts[f"model_{name}.json"] = sf.model_to_document(results[name]["model"])
        artifacts[f"report_{name}.json"] = ev.report_to_document(results[name]["report"])
    models = {name: results[name]["model"] for name in sf.SERIES_NAMES}
    artifacts["coefficients.csv"] = ev.coefficient_table_csv(models)
    return artifacts


def plot_artifacts(models, tables, grid: int) -> dict[str, str]:
    """The eight ``volfit export-plot`` files, by file name: each series'
    surface grid and residuals for its model and table."""
    artifacts = {}
    for name in sf.SERIES_NAMES:
        surface, residuals = export_plot_data(models[name], tables[name], grid)
        artifacts[f"surface_{name}.csv"] = surface
        artifacts[f"residuals_{name}.csv"] = residuals
    return artifacts


def _cmd_decompose(args) -> int:
    dec = _decompose_prices(*_load_inputs(args))
    _write_artifacts(_out_dir(args), {"decomposition.csv": decomposition_csv(dec)})
    return 0


def _cmd_fit(args) -> int:
    _, results = run_pipeline(*_load_inputs(args))
    _write_artifacts(_out_dir(args), fit_artifacts(results))
    return 0


def _cmd_predict(args) -> int:
    for name, value in (("x", args.x), ("y", args.y)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    model = sf.model_from_document(Path(args.model).read_text(encoding="utf-8"))
    with np.errstate(over="ignore", invalid="ignore"):
        value = sf.evaluate_surface(model, args.x, args.y)
    if not math.isfinite(value):
        raise ValueError(f"the surface is not finite at ({args.x!r}, {args.y!r})")
    print(f"{value:#.6g}")
    return 0


def _cmd_evaluate(args) -> int:
    _, results = run_pipeline(*_load_inputs(args))
    models = {name: results[name]["model"] for name in sf.SERIES_NAMES}
    print(ev.export_coefficient_table(models), end="")
    for name in sf.SERIES_NAMES:
        r = results[name]["report"]
        print(
            f"{name}: method={r.method} train_rmse={r.train_rmse:#.6g} "
            f"test_rmse={r.test_rmse:#.6g} n_train={r.n_train} "
            f"n_test={r.n_test} excluded={len(r.excluded)} "
            f"converged={r.converged}"
        )
    return 0


def _cmd_export_plot(args) -> int:
    # refused before the prices are read and fitted; export_plot_data checks again
    if args.grid < 2:
        raise ValueError("grid density must be >= 2")
    _, results = run_pipeline(*_load_inputs(args))
    models = {name: r["model"] for name, r in results.items()}
    tables = {name: r["train"] for name, r in results.items()}
    _write_artifacts(_out_dir(args), plot_artifacts(models, tables, args.grid))
    return 0


def _plain(kind):
    """An argparse ``type`` reading ``kind`` by the plain-number rule."""
    def read(text: str):
        return sf._plain_number(text, kind)
    read.__name__ = kind.__name__   # argparse says "invalid int value: ..."
    return read


def _add_pipeline_options(parser: argparse.ArgumentParser, fitting: bool) -> None:
    parser.add_argument("--input", required=True, help="price CSV path")
    parser.add_argument("--config", help="pipeline config file")
    parser.add_argument("--out-dir",
                        help="output directory (default: $VOLFIT_OUT_DIR or .)")
    if fitting:
        parser.add_argument("--method", choices=sorted(sf.FIT_METHODS),
                            dest="fit_method",
                            help="override the configured fit method")
        parser.add_argument("--n-train", type=_plain(int), dest="n_train",
                            help="override the training row count")
        parser.add_argument("--lag", type=_plain(int), help="override the feature lag")
        parser.add_argument("--threshold", type=_plain(float), dest="outlier_threshold",
                            metavar="THRESHOLD",
                            help="override the outlier threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volfit",
        description="Decompose a return series and fit polynomial "
                    "prediction surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="write the decomposition CSV")
    _add_pipeline_options(p_dec, fitting=False)
    p_dec.set_defaults(func=_cmd_decompose)

    p_fit = sub.add_parser("fit", help="fit all four series and write artifacts")
    _add_pipeline_options(p_fit, fitting=True)
    p_fit.set_defaults(func=_cmd_fit)

    p_pred = sub.add_parser("predict", help="evaluate a saved model at (x, y)")
    p_pred.add_argument("model", help="model document path")
    p_pred.add_argument("x", type=_plain(float))
    p_pred.add_argument("y", type=_plain(float))
    p_pred.set_defaults(func=_cmd_predict)

    p_eval = sub.add_parser("evaluate",
                            help="print the coefficient grid and RMSE summary")
    _add_pipeline_options(p_eval, fitting=True)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_plot = sub.add_parser("export-plot",
                            help="write surface-grid and residual CSVs")
    _add_pipeline_options(p_plot, fitting=True)
    p_plot.add_argument("--grid", type=_plain(int), default=25,
                        help="surface grid density per axis (default 25)")
    p_plot.set_defaults(func=_cmd_export_plot)

    return parser


def _negative_coordinates_as_positionals(argv: list[str]) -> list[str]:
    """``predict``'s arguments with ``--`` put before the first one that
    starts with ``-`` and reads as a float, since argparse reads ``-1e-3``
    and ``-inf`` as options.  Other commands, and arguments that already
    hold ``--``, ``-h`` or ``--help``, are returned unchanged."""
    if argv[:1] != ["predict"] or {"--", "-h", "--help"} & set(argv):
        return argv
    for i, arg in enumerate(argv):
        if arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                return argv
            return argv[:i] + ["--"] + argv[i:]
    return argv


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_negative_coordinates_as_positionals(argv))
    try:
        return args.func(args)
    except (VolfitError, OSError, ValueError, MemoryError) as exc:
        # numpy's allocation failure is a private MemoryError subclass
        kind = MemoryError if isinstance(exc, MemoryError) else type(exc)
        print(f"{kind.__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
