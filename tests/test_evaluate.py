"""Tests for splits, RMSE, fit reports, and coefficient-table emission."""

import json
import math

import numpy as np
import pytest

import volfit as vf
from volfit.errors import DegreesOfFreedomError, FormatError, SplitError

from helpers import make_table, planted_table

LINE = vf.TermSet(((0, 0), (1, 0)))


def constant_model(value, terms=None):
    terms = terms or vf.TermSet(((0, 0),))
    coefficients = (value,) + (0.0,) * (len(terms) - 1)
    return vf.PolySurfaceModel(
        term_set=terms,
        coefficients=coefficients,
        bounds=tuple((c, c) for c in coefficients),
        method="ols",
        n_points=1,
        sigma=0.0,
        iterations=0,
    )


class TestSplitTrainTest:
    def test_documented_split(self):
        rng = np.random.default_rng(20)
        table = planted_table(LINE, [1.0, 2.0], 2857, rng, noise=0.1)
        train, test = vf.split_train_test(table, 2000)
        assert (len(train), len(test)) == (2000, 857)

    def test_no_room_for_test_rows(self):
        rng = np.random.default_rng(21)
        table = planted_table(LINE, [1.0, 2.0], 10, rng)
        with pytest.raises(SplitError):
            vf.split_train_test(table, 10)

    def test_small_split_preserves_order(self):
        table = make_table([0.25, 0.5, 1.0], [1.0, 2.0, 3.0], [5.0, 6.0, 7.0])
        train, test = vf.split_train_test(table, 1)
        assert train.target.tolist() == [5.0]
        assert test.target.tolist() == [6.0, 7.0]
        assert test.provenance.tolist() == [2, 3]

    def test_nonpositive_n_train(self):
        table = make_table([0.5, 1.0], [1.0, 2.0], [1.0, 2.0])
        with pytest.raises(SplitError):
            vf.split_train_test(table, 0)

    def test_concatenation_reconstructs_table(self):
        rng = np.random.default_rng(22)
        table = planted_table(LINE, [1.0, 2.0], 100, rng, noise=0.3)
        train, test = vf.split_train_test(table, 37)
        for field in ("x", "y", "target", "provenance"):
            rebuilt = np.concatenate(
                [getattr(train, field), getattr(test, field)]
            )
            assert np.array_equal(rebuilt, getattr(table, field))


class TestResiduals:
    def test_perfect_model_gives_zeros(self):
        table = make_table([0.5, 1.0], [1.0, 2.0], [3.0, 3.0])
        assert vf.residuals(constant_model(3.0), table).tolist() == [0.0, 0.0]

    def test_zero_model_returns_targets(self):
        table = make_table([0.5, 1.0], [1.0, 2.0], [1.0, -2.0])
        assert vf.residuals(constant_model(0.0), table).tolist() == [1.0, -2.0]

    def test_offset(self):
        table = make_table([0.7], [4.0], [3.0])
        assert vf.residuals(constant_model(1.0), table).tolist() == [2.0]


class TestRmse:
    def test_zero_residuals(self):
        table = make_table([0.5, 1.0], [1.0, 2.0], [2.0, 2.0])
        assert vf.rmse(constant_model(2.0), table, "test") == 0.0

    def test_test_mode_plain_mean(self):
        table = make_table([0.5, 1.0], [1.0, 2.0], [3.0, 4.0])
        value = vf.rmse(constant_model(0.0), table, "test")
        assert value == pytest.approx(math.sqrt(25.0 / 2.0), abs=1e-12)
        assert value == pytest.approx(3.53553, abs=1e-5)

    def test_train_mode_dof_normalized(self):
        table = make_table([0.5, 1.0], [1.0, 2.0], [3.0, 4.0])
        assert vf.rmse(constant_model(0.0), table, "train") == pytest.approx(5.0)

    def test_train_mode_needs_spare_rows(self):
        table = make_table([0.5], [1.0], [3.0])
        with pytest.raises(DegreesOfFreedomError):
            vf.rmse(constant_model(0.0), table, "train")

    def test_unknown_mode(self):
        table = make_table([0.5], [1.0], [3.0])
        with pytest.raises(ValueError):
            vf.rmse(constant_model(0.0), table, "validate")

    def test_invariant_under_permutation(self):
        rng = np.random.default_rng(23)
        table = planted_table(LINE, [1.0, 2.0], 50, rng, noise=0.4)
        model = vf.fit_ols(table, LINE)
        shuffled = table.subset(rng.permutation(50))
        for mode in ("train", "test"):
            assert vf.rmse(model, table, mode) == pytest.approx(
                vf.rmse(model, shuffled, mode), rel=1e-12
            )

    def test_matches_quadratic_mean_oracle(self):
        rng = np.random.default_rng(24)
        table = planted_table(LINE, [1.0, 2.0], 64, rng, noise=0.4)
        model = vf.fit_ols(table, LINE)
        r = vf.residuals(model, table)
        oracle = math.sqrt(sum(v * v for v in r) / len(r))
        assert vf.rmse(model, table, "test") == pytest.approx(oracle, rel=1e-12)

    def test_adding_row_at_current_rmse_is_neutral(self):
        table = make_table([0.25, 0.5], [1.0, 2.0], [3.0, 4.0])
        model = constant_model(0.0)
        current = vf.rmse(model, table, "test")
        grown = make_table(
            [0.25, 0.5, 0.75], [1.0, 2.0, 3.0], [3.0, 4.0, current]
        )
        assert vf.rmse(model, grown, "test") == pytest.approx(current, rel=1e-12)


class TestFitReport:
    def _fitted(self, n_rows, n_train, rng):
        table = planted_table(LINE, [1.0, 2.0], n_rows, rng, noise=0.2)
        train, test = vf.split_train_test(table, n_train)
        model = vf.fit_ols(train, LINE)
        return table, train, test, model

    def test_perfect_model_reports_zero(self):
        rng = np.random.default_rng(25)
        table = planted_table(LINE, [1.0, 2.0], 30, rng)
        train, test = vf.split_train_test(table, 20)
        model = vf.fit_ols(train, LINE)
        report = vf.fit_report("volatility", "ols", model, train, test, ())
        assert report.train_rmse == pytest.approx(0.0, abs=1e-12)
        assert report.test_rmse == pytest.approx(0.0, abs=1e-12)

    def test_counts_add_up(self):
        rng = np.random.default_rng(26)
        table, train, test, model = self._fitted(2857, 2000, rng)
        report = vf.fit_report("trend", "ols", model, train, test, ())
        assert report.n_train + report.n_test + len(report.excluded) == 2857
        assert (report.n_train, report.n_test) == (2000, 857)

    def test_exclusions_reduce_train_count(self):
        rng = np.random.default_rng(27)
        table = planted_table(LINE, [1.0, 2.0], 100, rng, noise=0.2)
        train, test = vf.split_train_test(table, 80)
        pretend_excluded = tuple(train.provenance[:5])
        kept = train.subset(slice(5, None))
        model = vf.fit_ols(kept, LINE)
        report = vf.fit_report(
            "remainder", "ols", model, kept, test, pretend_excluded
        )
        assert report.n_train + report.n_test == 95
        assert report.n_train + report.n_test + len(report.excluded) == 100

    def test_unknown_series_rejected(self):
        rng = np.random.default_rng(28)
        table, train, test, model = self._fitted(50, 30, rng)
        with pytest.raises(ValueError):
            vf.fit_report("close", "ols", model, train, test, ())

    def test_document_round_trip(self):
        rng = np.random.default_rng(29)
        table, train, test, model = self._fitted(50, 30, rng)
        report = vf.fit_report("seasonal", "ols", model, train, test, (3, 9))
        loaded = vf.report_from_document(vf.report_to_document(report))
        assert loaded == report

    def test_malformed_report_document(self):
        with pytest.raises(FormatError):
            vf.report_from_document("{not json")

    def test_unknown_method_rejected(self):
        rng = np.random.default_rng(30)
        table, train, test, model = self._fitted(50, 30, rng)
        with pytest.raises(ValueError):
            vf.fit_report("seasonal", "bogus", model, train, test, ())

    @pytest.mark.parametrize("field, value", [
        ("converged", "false"),
        ("method", "bogus"),
        ("n_train", -1),
        ("train_rmse", float("nan")),
    ])
    def test_mistyped_or_out_of_range_field(self, field, value):
        rng = np.random.default_rng(31)
        table, train, test, model = self._fitted(50, 30, rng)
        report = vf.fit_report("seasonal", "ols", model, train, test, (3, 9))
        document = json.loads(vf.report_to_document(report))
        document[field] = value
        with pytest.raises(FormatError):
            vf.report_from_document(json.dumps(document))


class TestCoefficientTable:
    def _single_model(self, coefficient, lower, upper):
        return vf.PolySurfaceModel(
            term_set=vf.TermSet(((0, 0),)),
            coefficients=(coefficient,),
            bounds=((lower, upper),),
            method="lar",
            n_points=10,
            sigma=0.0,
            iterations=1,
        )

    def test_reference_cell_text(self):
        model = self._single_model(-0.0005495, -0.001239, 0.00014)
        text = vf.export_coefficient_table({"volatility": model})
        lines = text.splitlines()
        assert lines[0] == "m,series,n=0"
        assert lines[1] == '0,V,"-0.0005495 (-0.001239, 0.00014)"'

    def test_reference_cell_round_trip(self):
        model = self._single_model(-0.0005495, -0.001239, 0.00014)
        parsed = vf.parse_coefficient_table(
            vf.export_coefficient_table({"volatility": model})
        )
        assert parsed["volatility"][(0, 0)] == (-0.0005495, -0.001239, 0.00014)

    def test_absent_terms_are_blank(self):
        rng = np.random.default_rng(30)
        models = {
            "volatility": vf.fit_ols(
                planted_table(LINE, [1.0, 2.0], 30, rng, noise=0.1), LINE
            ),
            "trend": vf.fit_ols(
                planted_table(
                    vf.TermSet(((0, 0), (0, 1))), [1.0, -1.0], 30, rng, noise=0.1
                ),
                vf.TermSet(((0, 0), (0, 1))),
            ),
        }
        text = vf.export_coefficient_table(models)
        rows = text.splitlines()
        assert rows[0] == "m,series,n=0,n=1"
        # trend has no m=1 terms, so its m=1 row is entirely blank
        trend_m1 = [r for r in rows if r.startswith("1,T")]
        assert trend_m1 == ["1,T,,"]

    def test_full_round_trip_recovers_floats_exactly(self):
        rng = np.random.default_rng(31)
        models = {}
        for name in vf.SERIES_NAMES:
            terms = vf.DEFAULT_TERM_SETS[name]
            table = planted_table(
                terms, rng.normal(0, 1, len(terms)), 80, rng, noise=0.3
            )
            models[name] = vf.fit_ols(table, terms)
        parsed = vf.parse_coefficient_table(vf.export_coefficient_table(models))
        for name, model in models.items():
            for (m, n), c, (lo, hi) in zip(
                model.term_set.terms, model.coefficients, model.bounds
            ):
                assert parsed[name][(m, n)] == (c, lo, hi)

    def test_empty_models_rejected(self):
        with pytest.raises(ValueError):
            vf.export_coefficient_table({})

    def test_unknown_series_rejected(self):
        model = self._single_model(1.0, 0.5, 1.5)
        with pytest.raises(ValueError):
            vf.export_coefficient_table({"prices": model})

    def test_parse_rejects_garbage(self):
        with pytest.raises(FormatError):
            vf.parse_coefficient_table("not,a,table\n1,2,3\n")

    def test_flat_csv_layout_and_round_trip(self):
        rng = np.random.default_rng(32)
        table = planted_table(LINE, [1.5, -0.5], 40, rng, noise=0.2)
        models = {"volatility": vf.fit_ols(table, LINE)}
        text = vf.coefficient_table_csv(models)
        lines = text.splitlines()
        assert lines[0] == "series,m,n,coefficient,lower,upper"
        assert len(lines) == 3
        model = models["volatility"]
        for line, (m, n), c, (lo, hi) in zip(
            lines[1:], LINE.terms, model.coefficients, model.bounds
        ):
            cells = line.split(",")
            assert cells[0] == "volatility"
            assert (int(cells[1]), int(cells[2])) == (m, n)
            assert float(cells[3]) == c
            assert float(cells[4]) == lo
            assert float(cells[5]) == hi
