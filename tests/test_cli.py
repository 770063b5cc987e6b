"""End-to-end tests of the command-line driver and its artifacts."""

import datetime as dt
import errno
import importlib.util
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import volfit as vf
from volfit import cli, surface
from volfit.cli import _write_artifacts, export_plot_data, main, run_pipeline
from volfit.errors import ExclusionError, InsufficientData, ParseError

from helpers import planted_table

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "data" / "synthetic_vix.csv"

SMALL_CONFIG = (
    "kz_trend_window = 15\n"
    "kz_trend_iters = 2\n"
    "kz_seasonal_window = 5\n"
    "kz_seasonal_iters = 3\n"
    "n_train = 40\n"
)

FIT_ARTIFACTS = sorted(
    [f"model_{name}.json" for name in vf.SERIES_NAMES]
    + [f"report_{name}.json" for name in vf.SERIES_NAMES]
    + ["coefficients.csv"]
)


def weekday_dates(count, start=dt.date(2011, 1, 3)):
    days, day = [], start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def sample_prices(n=80, seed=77, spike_at=None):
    rng = np.random.default_rng(seed)
    t = np.arange(1, n)
    returns = 0.004 * np.sin(2 * np.pi * t / 7.0) + rng.normal(0, 0.01, n - 1)
    if spike_at is not None:
        returns[spike_at] += 0.8
    prices = 20.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    lines = ["Date,Close"] + [
        f"{d.isoformat()},{float(p)!r}"
        for d, p in zip(weekday_dates(n), prices)
    ]
    return "\n".join(lines) + "\n"


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "prices.csv").write_text(sample_prices(), encoding="utf-8")
    (tmp_path / "volfit.cfg").write_text(SMALL_CONFIG, encoding="utf-8")
    return tmp_path


def run_cli(*args):
    return main([str(a) for a in args])


class TestDecomposeCommand:
    def test_writes_decomposition_csv(self, workspace):
        rc = run_cli(
            "decompose", "--input", workspace / "prices.csv",
            "--config", workspace / "volfit.cfg", "--out-dir", workspace / "out",
        )
        assert rc == 0
        lines = (workspace / "out" / "decomposition.csv").read_text().splitlines()
        assert lines[0] == "index,original,trend,seasonal,remainder"
        assert len(lines) == 80       # header + 79 returns from 80 prices

    def test_missing_input_exits_2(self, workspace, capsys):
        rc = run_cli("decompose", "--input", workspace / "missing.csv")
        assert rc == 2
        assert capsys.readouterr().err

    def test_even_window_exits_2_with_config_error(self, workspace, capsys):
        bad = workspace / "bad.cfg"
        bad.write_text("kz_trend_window = 4\n", encoding="utf-8")
        rc = run_cli(
            "decompose", "--input", workspace / "prices.csv", "--config", bad,
            "--out-dir", workspace / "out",
        )
        assert rc == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_bundled_file_row_count(self, tmp_path):
        data = BUNDLED
        rc = run_cli("decompose", "--input", data, "--out-dir", tmp_path)
        assert rc == 0
        lines = (tmp_path / "decomposition.csv").read_text().splitlines()
        assert len(lines) - 1 == 2856     # 2857 prices -> 2856 returns

    def test_missing_cells_serialized_empty(self, tmp_path):
        text = sample_prices(n=60)
        lines = text.splitlines()
        lines[10] = lines[10].rsplit(",", 1)[0] + ",null"
        (tmp_path / "prices.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "volfit.cfg").write_text(
            "kz_trend_window = 9\nkz_trend_iters = 2\n"
            "kz_seasonal_window = 3\nkz_seasonal_iters = 2\nn_train = 30\n"
        )
        rc = run_cli(
            "decompose", "--input", tmp_path / "prices.csv",
            "--config", tmp_path / "volfit.cfg", "--out-dir", tmp_path,
        )
        assert rc == 0
        rows = (tmp_path / "decomposition.csv").read_text().splitlines()[1:]
        originals = [row.split(",")[1] for row in rows]
        assert "" in originals        # the return touching the null price

    def test_cell_too_long_for_csv_exits_2_with_one_line(self, workspace, capsys):
        # csv refuses a field over 131072 characters; that is a malformed file
        lines = sample_prices().splitlines()
        lines[5] = lines[5] + "0" * 140_000
        (workspace / "prices.csv").write_text("\n".join(lines) + "\n")
        rc = run_cli("decompose", "--input", workspace / "prices.csv",
                     "--out-dir", workspace / "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("FormatError: price file line 6: field larger than")
        assert err.count("\n") == 1


class TestFitCommand:
    def test_writes_all_nine_artifacts(self, workspace):
        out = workspace / "out"
        rc = run_cli(
            "fit", "--input", workspace / "prices.csv",
            "--config", workspace / "volfit.cfg", "--out-dir", out,
        )
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == FIT_ARTIFACTS

    def test_reruns_are_byte_identical(self, workspace):
        for sub in ("a", "b"):
            rc = run_cli(
                "fit", "--input", workspace / "prices.csv",
                "--config", workspace / "volfit.cfg",
                "--out-dir", workspace / sub,
            )
            assert rc == 0
        for name in FIT_ARTIFACTS:
            assert (workspace / "a" / name).read_bytes() == \
                (workspace / "b" / name).read_bytes()

    def test_method_flag_changes_models_on_outlier_data(self, tmp_path):
        (tmp_path / "prices.csv").write_text(
            sample_prices(spike_at=20), encoding="utf-8"
        )
        (tmp_path / "volfit.cfg").write_text(SMALL_CONFIG, encoding="utf-8")
        for method in ("ols", "lar"):
            rc = run_cli(
                "fit", "--input", tmp_path / "prices.csv",
                "--config", tmp_path / "volfit.cfg",
                "--method", method, "--out-dir", tmp_path / method,
            )
            assert rc == 0
        ols_doc = (tmp_path / "ols" / "model_volatility.json").read_text()
        lar_doc = (tmp_path / "lar" / "model_volatility.json").read_text()
        assert ols_doc != lar_doc
        assert vf.model_from_document(ols_doc).method == "ols"
        assert vf.model_from_document(lar_doc).method == "lar"

    def test_oversized_n_train_exits_2(self, workspace):
        out = workspace / "out"
        rc = run_cli(
            "fit", "--input", workspace / "prices.csv",
            "--config", workspace / "volfit.cfg",
            "--n-train", 500, "--out-dir", out,
        )
        assert rc == 2
        assert not out.exists() or not any(out.iterdir())

    def test_report_counts_cover_every_row(self, workspace):
        out = workspace / "out"
        run_cli(
            "fit", "--input", workspace / "prices.csv",
            "--config", workspace / "volfit.cfg", "--out-dir", out,
        )
        report = vf.report_from_document(
            (out / "report_volatility.json").read_text()
        )
        # 80 prices -> 79 returns -> 78 feature rows at lag 1
        assert report.n_train + report.n_test + len(report.excluded) == 78

    def test_lag_reaches_the_features(self, workspace):
        # the flag, the config key and the library field give one fit
        prices, config = workspace / "prices.csv", workspace / "volfit.cfg"
        (workspace / "lag2.cfg").write_text(SMALL_CONFIG + "lag = 2\n", encoding="utf-8")
        for out, args in (("flag", ("--config", config, "--lag", 2)),
                          ("key", ("--config", workspace / "lag2.cfg")),
                          ("lag1", ("--config", config))):
            assert run_cli("fit", "--input", prices, *args,
                           "--out-dir", workspace / out) == 0
        raw = prices.read_text(encoding="utf-8")
        _, results = run_pipeline(raw, replace(vf.load_config(SMALL_CONFIG), lag=2))
        library = cli.fit_artifacts(results)
        for name in FIT_ARTIFACTS:
            flag, key, lag1 = (
                (workspace / out / name).read_text(encoding="utf-8")
                for out in ("flag", "key", "lag1"))
            assert flag == key == library[name]
            assert flag != lag1
        # 79 returns -> 77 feature rows at lag 2
        report = vf.report_from_document(library["report_volatility.json"])
        assert report.n_train + report.n_test + len(report.excluded) == 77

    def test_lag_below_one_exits_2(self, workspace, capsys):
        rc = run_cli("fit", "--input", workspace / "prices.csv",
                     "--lag", 0, "--out-dir", workspace / "out")
        assert rc == 2
        assert capsys.readouterr().err.startswith("ConfigError: lag must be >= 1")
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("command,flag,value,kind", [
        ("fit", "--n-train", "4_0", "int"), ("evaluate", "--lag", "\u0662", "int"),
        ("fit", "--threshold", "\uff13", "float"),
        ("evaluate", "--threshold", "2_5", "float"),
        ("export-plot", "--grid", "1_0", "int"),
    ])
    def test_number_flags_are_plain_numbers(self, workspace, capsys,
                                            command, flag, value, kind):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, "--input", workspace / "prices.csv",
                    "--config", workspace / "volfit.cfg", flag, value,
                    "--out-dir", workspace / "out")
        assert excinfo.value.code == 2
        assert f"argument {flag}: invalid {kind} value" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    def test_env_var_default_out_dir(self, workspace, monkeypatch):
        target = workspace / "env_out"
        monkeypatch.setenv("VOLFIT_OUT_DIR", str(target))
        rc = run_cli(
            "fit", "--input", workspace / "prices.csv",
            "--config", workspace / "volfit.cfg",
        )
        assert rc == 0
        assert (target / "coefficients.csv").exists()

    def test_write_failing_part_way_leaves_no_file(self, tmp_path, monkeypatch):
        # the second of three artifacts writes 5 characters, then the disk is full
        write_text, names = Path.write_text, []

        def full_disk(path, text, *args, **kwargs):
            names.append(path.name)
            if len(names) == 2:
                write_text(path, text[:5], *args, **kwargs)
                raise OSError(errno.ENOSPC, "No space left on device")
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        out = tmp_path / "out"
        with pytest.raises(OSError) as excinfo:
            _write_artifacts(out, {"a.txt": "alpha", "b.txt": "bravo bravo",
                                   "c.txt": "charlie"})
        assert excinfo.value.errno == errno.ENOSPC
        assert names == ["a.txt", "b.txt"]
        assert list(out.iterdir()) == []


class TestPredictCommand:
    def _write_model(self, path, terms, coefficients):
        model = vf.PolySurfaceModel(
            term_set=terms,
            coefficients=tuple(coefficients),
            bounds=tuple((c, c) for c in coefficients),
            method="ols",
            n_points=9,
            sigma=0.0,
            iterations=0,
        )
        path.write_text(vf.model_to_document(model), encoding="utf-8")

    def test_zero_model(self, tmp_path, capsys):
        doc = tmp_path / "model.json"
        self._write_model(doc, vf.TermSet(((0, 0),)), [0.0])
        assert run_cli("predict", doc, 3.0, -2.0) == 0
        assert capsys.readouterr().out.strip() == "0.00000"

    def test_hand_evaluated_point(self, tmp_path, capsys):
        doc = tmp_path / "model.json"
        self._write_model(doc, vf.TermSet(((0, 0), (1, 1))), [1.0, 2.0])
        assert run_cli("predict", doc, 3.0, 4.0) == 0
        assert capsys.readouterr().out.strip() == "25.0000"

    @pytest.mark.parametrize("x,y", [("\u0663", "4"), ("3", "1_0"), ("\uff13", "4")])
    def test_coordinates_are_plain_numbers(self, tmp_path, capsys, x, y):
        doc = tmp_path / "model.json"
        self._write_model(doc, vf.TermSet(((0, 0), (1, 1))), [1.0, 2.0])
        with pytest.raises(SystemExit) as excinfo:
            run_cli("predict", doc, x, y)
        assert excinfo.value.code == 2
        assert "invalid float value" in capsys.readouterr().err
        assert run_cli("predict", doc, "+3e0", " 4 ") == 0
        assert capsys.readouterr().out.strip() == "25.0000"

    @pytest.mark.parametrize("x,y,name", [
        ("nan", "0.1", "x"), ("inf", "0.1", "x"),
        ("0.1", "-inf", "y"), ("0.1", "NaN", "y"),
    ])
    def test_non_finite_coordinate_exits_2(self, tmp_path, capsys, x, y, name):
        doc = tmp_path / "model.json"
        self._write_model(doc, vf.TermSet(((0, 0), (1, 1))), [1.0, 2.0])
        assert run_cli("predict", doc, "--", x, y) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{name} must be finite" in captured.err

    @pytest.mark.parametrize("terms,coefficients", [
        (((1, 1),), [1.0]),                 # overflows to inf
        (((2, 0), (0, 2)), [1.0, -1.0]),    # inf - inf is nan
    ], ids=["inf", "nan"])
    def test_non_finite_value_at_a_finite_point_exits_2(self, tmp_path, capsys,
                                                       terms, coefficients):
        doc = tmp_path / "model.json"
        self._write_model(doc, vf.TermSet(terms), coefficients)
        assert run_cli("predict", doc, "1e308", "1e308") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "ValueError: the surface is not finite at (1e+308, 1e+308)\n")

    @pytest.mark.parametrize("x,y,expected", [
        ("0.5", "-1e-3", 1.0 - 1e-3), ("-1e-3", "0.5", 1.0 - 1e-3),
        ("-0.5", "-2E0", 3.0), ("3", "-4", -23.0),
    ])
    def test_negative_coordinates_in_any_spelling(self, tmp_path, capsys, x, y, expected):
        doc = tmp_path / "model.json"
        self._write_model(doc, vf.TermSet(((0, 0), (1, 1))), [1.0, 2.0])
        assert run_cli("predict", doc, x, y) == 0
        assert capsys.readouterr().out.strip() == f"{expected:#.6g}"

    def test_negative_infinity_is_a_coordinate_not_an_option(self, tmp_path, capsys):
        doc = tmp_path / "model.json"
        self._write_model(doc, vf.TermSet(((0, 0), (1, 1))), [1.0, 2.0])
        assert run_cli("predict", doc, "0.5", "-inf") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "y must be finite" in captured.err

    def test_help_still_prints(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("predict", "-h")
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: volfit predict")

    def test_option_that_is_not_a_number_is_a_usage_error(self, tmp_path, capsys):
        # "-x" does not read as a float, so it stays an option and y is missing
        doc = tmp_path / "model.json"
        self._write_model(doc, vf.TermSet(((0, 0), (1, 1))), [1.0, 2.0])
        with pytest.raises(SystemExit) as excinfo:
            run_cli("predict", doc, "0.5", "-x")
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: volfit predict")

    def test_infinite_threshold_still_accepted(self, workspace):
        rc = run_cli(
            "fit", "--input", workspace / "prices.csv",
            "--config", workspace / "volfit.cfg",
            "--threshold", "inf", "--out-dir", workspace / "out",
        )
        assert rc == 0

    def test_truncated_document_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "model.json"
        doc.write_text('{"method": "ols"', encoding="utf-8")
        assert run_cli("predict", doc, 0.0, 0.0) == 2
        assert "FormatError" in capsys.readouterr().err


class TestExportPlotCommand:
    def test_grid_two_hits_the_corners(self, workspace):
        out = workspace / "plots"
        rc = run_cli(
            "export-plot", "--input", workspace / "prices.csv",
            "--config", workspace / "volfit.cfg",
            "--grid", 2, "--out-dir", out,
        )
        assert rc == 0
        config = vf.load_config(SMALL_CONFIG)
        _, results = run_pipeline(
            (workspace / "prices.csv").read_text(), config
        )
        model = results["volatility"]["model"]
        train = results["volatility"]["train"]
        rows = (out / "surface_volatility.csv").read_text().splitlines()
        assert rows[0] == "x,y,f"
        assert len(rows) == 5
        for row in rows[1:]:
            xs, ys, fs = (float(c) for c in row.split(","))
            assert xs in (train.x.min(), train.x.max())
            assert ys in (train.y.min(), train.y.max())
            assert fs == vf.evaluate_surface(model, xs, ys)

    def test_residual_rows_match_table(self, workspace):
        out = workspace / "plots"
        rc = run_cli(
            "export-plot", "--input", workspace / "prices.csv",
            "--config", workspace / "volfit.cfg", "--out-dir", out,
        )
        assert rc == 0
        config = vf.load_config(SMALL_CONFIG)
        _, results = run_pipeline(
            (workspace / "prices.csv").read_text(), config
        )
        for name in vf.SERIES_NAMES:
            rows = (out / f"residuals_{name}.csv").read_text().splitlines()
            assert len(rows) - 1 == len(results[name]["train"])

    def test_grid_density_validation(self):
        rng = np.random.default_rng(40)
        terms = vf.TermSet(((0, 0), (1, 0)))
        table = planted_table(terms, [1.0, 2.0], 30, rng, noise=0.1)
        model = vf.fit_ols(table, terms)
        with pytest.raises(ValueError):
            export_plot_data(model, table, 1)

    @staticmethod
    def _line_fit():
        terms = vf.TermSet(((0, 0), (1, 0)))
        table = planted_table(terms, [1.0, 2.0], 30, np.random.default_rng(40), noise=0.1)
        return vf.fit_ols(table, terms), table

    @pytest.mark.parametrize("grid", [2.5, 3.0, "3", True, None])
    def test_grid_density_that_is_not_an_integer_refused(self, grid):
        model, table = self._line_fit()
        with pytest.raises(ValueError, match="grid density must be a non-negative integer"):
            export_plot_data(model, table, grid)

    def test_empty_table_is_insufficient_data(self):
        # it raised numpy's "zero-size array to reduction operation" ValueError
        model, table = self._line_fit()
        with pytest.raises(InsufficientData):
            export_plot_data(model, table.subset(slice(0, 0)), 3)

    def test_numpy_grid_density_accepted(self):
        model, table = self._line_fit()
        assert export_plot_data(model, table, np.int64(3)) == \
            export_plot_data(model, table, 3)

    @pytest.mark.parametrize("grid", [1, 0, -3])
    def test_grid_below_two_refused_before_reading_prices(self, workspace, capsys, grid):
        # the grid is refused before the input is opened, so a missing
        # price file is never reported
        rc = run_cli("export-plot", "--input", workspace / "missing.csv",
                     "--grid", grid, "--out-dir", workspace / "out")
        assert rc == 2
        assert capsys.readouterr().err == (
            "ValueError: grid density must be >= 2\n"
        )
        assert not (workspace / "out").exists()

    def test_out_of_memory_exits_2_with_one_line(self, workspace, capsys, monkeypatch):
        # what numpy raises for a grid too large to allocate, named by its
        # public base class
        class ArrayMemoryError(MemoryError):
            pass

        def export_plot_data(model, table, grid):
            raise ArrayMemoryError(f"Unable to allocate an array for grid {grid}")

        monkeypatch.setattr(cli, "export_plot_data", export_plot_data)
        rc = run_cli("export-plot", "--input", workspace / "prices.csv",
                     "--config", workspace / "volfit.cfg",
                     "--grid", 100000000, "--out-dir", workspace / "out")
        assert rc == 2
        assert capsys.readouterr().err == (
            "MemoryError: Unable to allocate an array for grid 100000000\n")
        assert not (workspace / "out").exists()


class TestPipelineFits:
    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    def test_fits_go_through_the_surface_module(self, workspace, method, monkeypatch):
        # wrappers installed on surface.fit_<method> (as the benchmark's
        # tracer installs them) must see every fit the pipeline makes
        calls = []
        fit = getattr(surface, f"fit_{method}")

        def counting(*args, **kwargs):
            calls.append(method)
            return fit(*args, **kwargs)

        monkeypatch.setattr(surface, f"fit_{method}", counting)
        config = replace(vf.load_config(SMALL_CONFIG), fit_method=method)
        run_pipeline((workspace / "prices.csv").read_text(), config)
        assert len(calls) >= 4

    def test_refused_exclusion_keeps_the_first_fit(self, workspace, monkeypatch):
        # an ExclusionError keeps every training row and the first-pass model
        def refuse(*args, **kwargs):
            raise ExclusionError("too few rows would remain")

        monkeypatch.setattr(surface, "remove_outliers", refuse)
        config = vf.load_config(SMALL_CONFIG)
        dec, results = run_pipeline((workspace / "prices.csv").read_text(), config)
        for name in vf.SERIES_NAMES:
            table = vf.build_feature_table(dec.component(name), config.lag)
            train, _ = vf.split_train_test(table, config.n_train)
            result = results[name]
            assert result["model"] == vf.fit_lar(train, config.term_sets[name]), name
            assert np.array_equal(result["train"].provenance, train.provenance), name
            assert result["report"].excluded == (), name
            assert result["first_pass"] is result["model"], name

    def test_outlier_pass_that_would_leave_p_rows_keeps_every_row(self):
        # LAR on three training rows with two terms interpolates two of them;
        # dropping the third left a refit on p rows, whose report raised
        # DegreesOfFreedomError for want of a train RMSE
        line = vf.TermSet(((0, 0), (1, 0)))
        config = vf.PipelineConfig(fit_method="lar", n_train=3,
                                   term_sets=dict.fromkeys(vf.SERIES_NAMES, line))
        _, results = run_pipeline(BUNDLED.read_text(encoding="utf-8"), config)
        for name in vf.SERIES_NAMES:
            result = results[name]
            with pytest.raises(ExclusionError):
                vf.remove_outliers(result["train"], result["first_pass"],
                                   config.outlier_threshold)
            assert result["model"] is result["first_pass"], name
            assert result["report"].excluded == (), name
            assert result["report"].n_train == 3, name
            assert result["report"].train_rmse > 0.0, name

    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    def test_first_pass_is_the_fit_on_every_training_row(self, method):
        data = BUNDLED
        config = vf.PipelineConfig(fit_method=method)
        dec, results = run_pipeline(data.read_text(encoding="utf-8"), config)
        fit = getattr(vf, f"fit_{method}")
        for name in vf.SERIES_NAMES:
            table = vf.build_feature_table(dec.component(name), config.lag)
            train, _ = vf.split_train_test(table, config.n_train)
            result = results[name]
            assert vf.model_to_document(result["first_pass"]) == \
                vf.model_to_document(fit(train, config.term_sets[name])), name
            if not result["report"].excluded:
                assert result["first_pass"] is result["model"], name

    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    def test_reloaded_bounds_equal_stored_bounds(self, tmp_path, method):
        # the model documents `fit` writes are the whole of each model: read
        # back from disk they give the pipeline's bounds bit for bit
        data = BUNDLED
        rc = run_cli("fit", "--input", data, "--method", method,
                     "--out-dir", tmp_path)
        assert rc == 0
        config = vf.PipelineConfig(fit_method=method)
        _, results = run_pipeline(data.read_text(encoding="utf-8"), config)
        for name in vf.SERIES_NAMES:
            model = results[name]["model"]
            document = (tmp_path / f"model_{name}.json").read_text(encoding="utf-8")
            loaded = vf.model_from_document(document)
            assert loaded.bounds == model.bounds, name
            assert loaded == model, name

    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    def test_commands_write_the_builders_strings(self, tmp_path, method):
        # fit and export-plot write exactly the files cli's builders return
        for command in (["fit"], ["export-plot", "--grid", 25]):
            assert run_cli(*command, "--input", BUNDLED, "--method", method,
                           "--out-dir", tmp_path / command[0]) == 0
        _, results = run_pipeline(BUNDLED.read_text(encoding="utf-8"),
                                  vf.PipelineConfig(fit_method=method))
        models = {name: r["model"] for name, r in results.items()}
        tables = {name: r["train"] for name, r in results.items()}
        fit, plot = cli.fit_artifacts(results), cli.plot_artifacts(models, tables, 25)
        assert sorted(fit) == FIT_ARTIFACTS
        assert len(plot) == 8
        for out, artifacts in (("fit", fit), ("export-plot", plot)):
            written = {path.name: path.read_bytes().decode("utf-8")
                       for path in (tmp_path / out).iterdir()}
            assert written == artifacts, out


class TestDecompositionCache:
    """One parse and one decomposition serve every call on the same text
    while ``price_column``, ``kz_trend`` and ``kz_seasonal`` stay the same."""

    @pytest.fixture(autouse=True)
    def calls(self, monkeypatch):
        """Counts of the parses and decompositions made, from an empty cache."""
        counts = {"parse": 0, "decompose": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "parse_price_csv", counting("parse", cli.parse_price_csv))
        monkeypatch.setattr(cli, "decompose", counting("decompose", cli.decompose))
        cli._decomposition.cache_clear()
        yield counts
        cli._decomposition.cache_clear()

    def test_three_methods_parse_and_decompose_once(self, calls):
        raw, config = sample_prices(), vf.load_config(SMALL_CONFIG)
        decs = [run_pipeline(raw, replace(config, fit_method=method))[0]
                for method in vf.FIT_METHODS]
        assert calls == {"parse": 1, "decompose": 1}
        assert all(dec is decs[0] for dec in decs)

    def test_decompose_then_fit_in_one_process_parse_once(self, workspace, calls):
        for command in ("decompose", "fit"):
            assert run_cli(command, "--input", workspace / "prices.csv",
                           "--config", workspace / "volfit.cfg",
                           "--out-dir", workspace / "out") == 0
        assert calls == {"parse": 1, "decompose": 1}

    def test_a_changed_text_recomputes(self, calls):
        config = vf.load_config(SMALL_CONFIG)
        first, _ = run_pipeline(sample_prices(seed=77), config)
        second, _ = run_pipeline(sample_prices(seed=78), config)
        assert calls == {"parse": 2, "decompose": 2}
        assert not np.array_equal(first.original.values, second.original.values)

    @pytest.mark.parametrize("field, value", [
        ("price_column", "Close"),
        ("kz_trend", (17, 2)),
        ("kz_seasonal", (7, 3)),
    ])
    def test_a_changed_parse_or_filter_field_recomputes(self, calls, field, value):
        raw, config = sample_prices(), vf.load_config(SMALL_CONFIG)
        first, _ = run_pipeline(raw, config)
        second, _ = run_pipeline(raw, replace(config, **{field: value}))
        assert calls == {"parse": 2, "decompose": 2}
        assert second is not first

    @pytest.mark.parametrize("field, value", [
        ("fit_method", "ols"),
        ("n_train", 50),
        ("lag", 2),
        ("term_sets", {**vf.DEFAULT_TERM_SETS, "volatility": vf.TermSet(((0, 0), (1, 0)))}),
        ("outlier_threshold", 2.5),
        ("confidence_level", 0.9),
        # the key holds the KZ settings as tuples
        ("kz_trend", [15, 2]),
    ])
    def test_a_changed_fit_field_reuses_the_decomposition(self, calls, field, value):
        raw, config = sample_prices(), vf.load_config(SMALL_CONFIG)
        first, _ = run_pipeline(raw, config)
        second, _ = run_pipeline(raw, replace(config, **{field: value}))
        assert calls == {"parse": 1, "decompose": 1}
        assert second is first

    def test_a_text_whose_parse_raises_is_not_cached(self, calls):
        config = vf.load_config(SMALL_CONFIG)
        messages = []
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                run_pipeline("Date,Close\n2011-01-03,abc\n", config)
            messages.append(str(info.value))
        assert messages == ["row 2: cannot parse price 'abc'"] * 2
        assert calls == {"parse": 2, "decompose": 0}

    def test_the_shared_decomposition_is_read_only(self):
        dec, _ = run_pipeline(sample_prices(), vf.load_config(SMALL_CONFIG))
        for values in (dec.original.values, dec.trend, dec.seasonal, dec.remainder):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    def test_documents_do_not_depend_on_the_cache(self, monkeypatch):
        # the bundled file and the first fit-batch inputs of a perfbench seed
        spec = importlib.util.spec_from_file_location(
            "perfbench_gen", ROOT / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        # its dataclass looks its module up in sys.modules
        monkeypatch.setitem(sys.modules, spec.name, gen)
        spec.loader.exec_module(gen)
        texts = [BUNDLED.read_text(encoding="utf-8")] + [
            gen.series(5, "fit-batch", i, (gen.BUNDLED_LENGTH,) * 2)[0] for i in range(3)]
        configs = [vf.PipelineConfig(fit_method=method) for method in vf.FIT_METHODS]
        for raw in texts:
            kept = [cli.fit_artifacts(run_pipeline(raw, config)[1]) for config in configs]
            for config, documents in zip(configs, kept):
                cli._decomposition.cache_clear()
                assert cli.fit_artifacts(run_pipeline(raw, config)[1]) == documents


class TestEvaluateCommand:
    def test_prints_grid_and_summary(self, workspace, capsys):
        rc = run_cli(
            "evaluate", "--input", workspace / "prices.csv",
            "--config", workspace / "volfit.cfg",
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("m,series,")
        for name in vf.SERIES_NAMES:
            assert f"{name}: method=lar" in out

    def test_n_train_equal_to_term_count_exits_before_fitting(self, workspace, capsys):
        config = workspace / "volfit.cfg"
        config.write_text(SMALL_CONFIG.replace("n_train = 40", "n_train = 2") + "".join(
            f"terms_{name} = 0:0,1:0\n" for name in vf.SERIES_NAMES), encoding="utf-8")
        rc = run_cli("evaluate", "--input", workspace / "prices.csv",
                     "--config", config, "--method", "ols")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("ConfigError: n_train=2 does not exceed the 2 terms "
                                "configured for volatility\n")


class TestProcessEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "volfit", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "decompose" in proc.stdout

    def test_console_script_target(self, tmp_path, monkeypatch, capsys):
        # the function pyproject.toml names for the installed `volfit`,
        # called as its generated script calls it: with no arguments
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        module, _, function = project["project"]["scripts"]["volfit"].partition(":")
        entry = getattr(importlib.import_module(module), function)
        monkeypatch.setattr(sys, "argv", ["volfit", "--help"])
        with pytest.raises(SystemExit) as excinfo:
            entry()
        assert excinfo.value.code == 0
        assert "export-plot" in capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["volfit", "fit", "--input", str(BUNDLED),
                                          "--out-dir", str(tmp_path)])
        assert entry() == 0
        _, results = run_pipeline(BUNDLED.read_text(encoding="utf-8"), vf.PipelineConfig())
        assert {path.name: path.read_bytes().decode("utf-8")
                for path in tmp_path.iterdir()} == cli.fit_artifacts(results)

    @staticmethod
    def _fresh_modules(code):
        """Names in sys.modules after running ``code`` in a new interpreter."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
            capture_output=True, text=True, env=env, check=True,
        )
        return set(proc.stdout.split())

    def test_import_does_not_load_scipy_stats(self):
        assert "scipy.stats" not in self._fresh_modules("import volfit")

    def test_predict_loads_no_scipy(self, tmp_path):
        doc = tmp_path / "model.json"
        TestPredictCommand()._write_model(doc, vf.TermSet(((0, 0), (1, 1))), [1.0, 2.0])
        modules = self._fresh_modules(
            f"import volfit.cli\nvolfit.cli.main(['predict', {str(doc)!r}, '3', '4'])"
        )
        assert "volfit.cli" in modules
        assert not any(m == "scipy" or m.startswith("scipy.") for m in modules)

    @staticmethod
    def _command_code(command, workspace):
        """Code running ``volfit <command>`` on the workspace into ``out``."""
        argv = [command, "--input", str(workspace / "prices.csv"),
                "--config", str(workspace / "volfit.cfg"),
                "--out-dir", str(workspace / "out")]
        return f"import volfit.cli\nassert volfit.cli.main({argv!r}) == 0\n"

    def test_decompose_loads_no_scipy(self, workspace):
        modules = self._fresh_modules(self._command_code("decompose", workspace))
        assert (workspace / "out" / "decomposition.csv").exists()
        assert not any(m == "scipy" or m.startswith("scipy.") for m in modules)

    def test_fit_loads_scipy_extensions_not_their_packages(self, workspace):
        modules = self._fresh_modules(self._command_code("fit", workspace))
        rc = run_cli("fit", "--input", workspace / "prices.csv",
                     "--config", workspace / "volfit.cfg",
                     "--out-dir", workspace / "in-process")
        assert rc == 0
        assert sorted(p.name for p in (workspace / "out").iterdir()) == FIT_ARTIFACTS
        for name in FIT_ARTIFACTS:
            fresh = (workspace / "out" / name).read_bytes()
            assert fresh == (workspace / "in-process" / name).read_bytes(), name
        for package in ("scipy.linalg", "scipy.special", "scipy._lib._array_api",
                        "numpy.f2py"):
            assert package not in modules
        assert {"scipy.linalg._flapack", "scipy.special._ufuncs"} <= modules
        assert len([m for m in modules if m.startswith("scipy.")]) <= 20

    def test_later_public_imports_bind_the_loaded_routines(self, workspace):
        self._fresh_modules(self._command_code("fit", workspace) + (
            "import scipy.linalg.lapack, scipy.special\n"
            "from volfit import surface\n"
            "assert surface._scipy().geqp3 is scipy.linalg.lapack.dgeqp3\n"
            "assert surface._scipy().stdtrit is scipy.special.stdtrit\n"
        ))

    def test_refused_direct_load_falls_back_to_public_routines(self):
        # the public imports are import statements, which do not go
        # through importlib.import_module
        self._fresh_modules(textwrap.dedent("""
            import importlib, sys
            import numpy as np
            from volfit import surface
            EXTENSIONS = ("scipy.linalg._flapack", "scipy.special._ufuncs")
            refused, import_module = [], importlib.import_module
            def refuse(name, package=None):
                if name in EXTENSIONS:
                    refused.append(name)
                    raise ImportError(f"{name} refused")
                return import_module(name, package)
            importlib.import_module = refuse
            surface._scipy.cache_clear()
            lib = surface._scipy()
            assert tuple(refused) == EXTENSIONS, refused
            import scipy.linalg.lapack, scipy.special
            # the stand-ins are gone: the packages are the real ones
            assert sys.modules["scipy.linalg"].__file__
            assert sys.modules["scipy.special"].__file__
            names = ("geqp3", "orgqr", "trtrs", "getrf", "getrs")
            assert tuple(getattr(lib, n) for n in names) == tuple(
                scipy.linalg.lapack.get_lapack_funcs(names, dtype=np.float64))
            assert lib.stdtrit is scipy.special.stdtrit
        """))
