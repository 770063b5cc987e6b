"""Tests for splits, RMSE, fit reports, and coefficient-table emission."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings

import volfit as vf
from volfit.errors import DegreesOfFreedomError, FormatError, SplitError
from volfit.evaluate import SERIES_LETTERS

from helpers import (
    assert_rejected_or_read_back,
    make_table,
    mutated_documents,
    mutated_tables,
    planted_table,
)

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

    @pytest.mark.parametrize("n_train", [20.0, True])
    def test_n_train_must_be_an_integer(self, n_train):
        # 20.0 raised TypeError, and True trained on one row
        table = make_table(np.arange(1, 41) / 40, np.ones(40), np.zeros(40))
        with pytest.raises(SplitError, match="n_train"):
            vf.split_train_test(table, n_train)

    def test_numpy_n_train_accepted(self):
        table = make_table(np.arange(1, 41) / 40, np.ones(40), np.zeros(40))
        train, test = vf.split_train_test(table, np.int64(20))
        assert (len(train), len(test)) == (20, 20)

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

    @pytest.mark.parametrize("index", [3.9, 3.0, True, "3"])
    def test_excluded_index_must_be_an_integer(self, index):
        rng = np.random.default_rng(28)
        table, train, test, model = self._fitted(50, 30, rng)
        with pytest.raises(ValueError, match="excluded indices must be integers"):
            vf.fit_report("trend", "ols", model, train, test, (2, index))

    @pytest.mark.parametrize("field, value", [
        ("n_train", 2.5),
        ("n_test", -1),
        ("converged", "yes"),
    ])
    def test_record_refuses_what_its_reader_refuses(self, field, value):
        rng = np.random.default_rng(28)
        table, train, test, model = self._fitted(50, 30, rng)
        report = vf.fit_report("trend", "ols", model, train, test, ())
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(report, **{field: value})

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

    @pytest.mark.parametrize("method", ["lar", "bisquare"])
    def test_method_must_be_the_models(self, method):
        rng = np.random.default_rng(30)
        table, train, test, model = self._fitted(50, 30, rng)
        with pytest.raises(ValueError, match="ols model"):
            vf.fit_report("seasonal", method, model, train, test, ())

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

    @pytest.mark.parametrize("field, value", [
        ("train_rmse", math.inf),
        ("test_rmse", math.inf),
        ("test_rmse", 10 ** 400),
    ])
    def test_non_finite_number_rejected(self, field, value):
        document = json.loads(REPORT_DOCUMENTS[0])
        document[field] = value
        with pytest.raises(FormatError, match="finite"):
            vf.report_from_document(json.dumps(document))


def _report_documents():
    rng = np.random.default_rng(32)
    documents = []
    for name, method, excluded in (("trend", "ols", ()), ("remainder", "lar", (3, 9))):
        table = planted_table(LINE, [1.0, 2.0], 50, rng, noise=0.2)
        train, test = vf.split_train_test(table, 30)
        model = getattr(vf, f"fit_{method}")(train, LINE)
        report = vf.fit_report(name, method, model, train, test, excluded)
        documents.append(vf.report_to_document(report))
    return documents


REPORT_DOCUMENTS = _report_documents()


class TestReportDocumentFuzz:
    """A defective report document is refused with FormatError, or read exactly."""

    @given(text=mutated_documents([json.loads(d) for d in REPORT_DOCUMENTS]))
    @example(text=json.dumps({**json.loads(REPORT_DOCUMENTS[0]), "train_rmse": math.inf}))
    @settings(max_examples=400, deadline=None)
    def test_rejected_or_read_back(self, text):
        assert_rejected_or_read_back(
            vf.report_from_document, vf.report_to_document, text, FormatError)


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

    @pytest.mark.parametrize("names", [(), ("trend", "bogus")], ids=["empty", "unknown"])
    def test_both_writers_refuse_the_same_models(self, names):
        models = {name: self._single_model(1.0, 0.5, 1.5) for name in names}
        for writer in (vf.export_coefficient_table, vf.coefficient_table_csv):
            with pytest.raises(ValueError, match="no models|unknown series name"):
                writer(models)

    def test_parse_rejects_garbage(self):
        with pytest.raises(FormatError):
            vf.parse_coefficient_table("not,a,table\n1,2,3\n")

    @pytest.mark.parametrize("cell", [
        "abc (1.0, 2.0)", "1e999 (1.0, 2.0)", "nan (1.0, 2.0)", "1.0 (0.5, inf)",
    ])
    def test_parse_rejects_a_cell_that_is_not_three_finite_numbers(self, cell):
        with pytest.raises(FormatError):
            vf.parse_coefficient_table(f'm,series,n=0\n0,V,"{cell}"\n')

    @pytest.mark.parametrize("cell", [
        "1_0 (1_0, 2_0)", "\u0663 (\u0662, \u0664)", "1.0 (0.5, 1_5.0)",
        "\uff11.0 (0.5, 1.5)", "1.0 (0.5, 1.5\u0660)", "1.0 (0_.5, 1.5)",
    ])
    def test_parse_rejects_numbers_that_are_not_plain_ascii(self, cell):
        with pytest.raises(FormatError, match="cannot parse number"):
            vf.parse_coefficient_table(f'm,series,n=0\n0,V,"{cell}"\n')

    @pytest.mark.parametrize("text", [
        "0", "7", "12", "007", "", "-1", "+1", "1_0", "\u0663", "\uff11", "1.0",
        "0x1", "1e2", "1 0",
    ])
    def test_table_and_term_list_read_exponents_alike(self, text):
        # the term list also allows spaces around an exponent; a table cell not
        def read(parse, error):
            try:
                return parse()
            except error:
                return None
        from_terms = read(lambda: vf.TermSet.parse(f"0:{text}").terms[0][1], ValueError)
        table = f'm,series,n={text}\n0,V,"1.0 (0.5, 1.5)"\n'
        from_table = read(
            lambda: [*vf.parse_coefficient_table(table)["volatility"]][0][1],
            FormatError)
        assert from_terms == from_table

    @pytest.mark.parametrize("cell,expected", [
        ("+1.0 (-1e0, 2E+0)", (1.0, -1.0, 2.0)),
        ("-2.5e-3 (-.5, 1.)", (-2.5e-3, -0.5, 1.0)),
        ("0 (-0, 7)", (0.0, -0.0, 7.0)),
    ])
    def test_parse_keeps_signs_and_exponents(self, cell, expected):
        parsed = vf.parse_coefficient_table(f'm,series,n=0\n0,V,"{cell}"\n')
        assert parsed["volatility"][(0, 0)] == expected

    @pytest.mark.parametrize("cell", [
        "1.0 (2.0, 3.0)", "4.0 (2.0, 3.0)", "2.5 (3.0, 2.0)",
    ])
    def test_parse_rejects_a_value_outside_its_bounds(self, cell):
        # model_from_document refuses these too, through PolySurfaceModel
        with pytest.raises(FormatError, match="outside its bounds"):
            vf.parse_coefficient_table(f'm,series,n=0\n0,V,"{cell}"\n')

    @pytest.mark.parametrize("cell", ["2.0 (2.0, 3.0)", "3.0 (2.0, 3.0)", "1.0 (1.0, 1.0)"])
    def test_parse_accepts_a_value_on_its_bounds(self, cell):
        text = f'm,series,n=0\n0,V,"{cell}"\n'
        assert vf.parse_coefficient_table(text)["volatility"][(0, 0)][0] == float(
            cell.split()[0])

    @pytest.mark.parametrize("row", [
        '0,V,"1.0 (0.5, 1.5)","2.0 (1.5, 2.5)"',
        '0,V,"1.0 (0.5, 1.5)"\n0,V,"1.0 (0.5, 1.5)"',
        '-1,V,"1.0 (0.5, 1.5)"',
    ], ids=["longer-than-header", "term-twice", "negative-exponent"])
    def test_parse_rejects_a_malformed_row(self, row):
        with pytest.raises(FormatError):
            vf.parse_coefficient_table(f"m,series,n=0\n{row}\n")

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


def _coefficient_tables():
    rng = np.random.default_rng(33)
    models = {}
    for name, terms in vf.DEFAULT_TERM_SETS.items():
        table = planted_table(terms, rng.normal(0, 1, len(terms)), 40, rng, noise=0.2)
        models[name] = vf.fit_ols(table, terms)
    return [vf.export_coefficient_table(models),
            vf.export_coefficient_table({"seasonal": models["seasonal"]})]


COEFFICIENT_TABLES = _coefficient_tables()


def _cells_as_written(text):
    """{(series, m, n): numbers} of every non-blank cell, read plainly.

    Fails on what the parser must refuse: a row longer than the header, a
    term given twice, or a cell that is not three finite numbers.
    """
    header, *rows = [row for row in csv.reader(io.StringIO(text)) if row]
    ns = [int(cell.removeprefix("n=")) for cell in header[2:]]
    letters = {letter: name for name, letter in SERIES_LETTERS.items()}
    cells = {}
    for row in rows:
        assert len(row) <= len(header)
        for n, cell in zip(ns, row[2:]):
            if cell:
                key = (letters[row[1]], int(row[0]), n)
                assert key not in cells
                coef, bounds = cell.split(" (")
                lo, hi = bounds.removesuffix(")").split(", ")
                cells[key] = (float(coef), float(lo), float(hi))
                assert all(map(math.isfinite, cells[key]))
    return cells


class TestCoefficientTableFuzz:
    """A defective coefficient table is refused with FormatError, or read exactly."""

    @given(text=mutated_tables(COEFFICIENT_TABLES))
    @example(text=COEFFICIENT_TABLES[1] + COEFFICIENT_TABLES[1].splitlines()[1] + "\n")
    @settings(max_examples=400, deadline=None)
    def test_rejected_or_read_exactly(self, text):
        try:
            parsed = vf.parse_coefficient_table(text)
        except FormatError:
            return
        assert {(name, m, n): numbers for name, terms in parsed.items()
                for (m, n), numbers in terms.items()} == _cells_as_written(text)
