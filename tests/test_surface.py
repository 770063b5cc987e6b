"""Tests for feature construction and the three surface-fitting methods."""

import inspect
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg, optimize, special, stats

import volfit as vf
from volfit import surface
from volfit.cli import fit_artifacts, run_pipeline
from volfit.errors import (
    ExclusionError,
    FormatError,
    InsufficientData,
    RankError,
)
from volfit.surface import (
    _l1_vertex,
    _qr_solve,
)

from helpers import (
    assert_rejected_or_read_back,
    make_table,
    mutated_documents,
    planted_table,
)

LINE = vf.TermSet(((0, 0), (1, 0)))
BUNDLED = Path(__file__).resolve().parent.parent / "data" / "synthetic_vix.csv"


class TestTermSet:
    def test_parse(self):
        terms = vf.TermSet.parse("0:0, 0:1 ,1:0")
        assert terms.terms == ((0, 0), (0, 1), (1, 0))

    def test_parse_rejects_bad_pair(self):
        with pytest.raises(ValueError):
            vf.TermSet.parse("0-0")

    @pytest.mark.parametrize("text", ["1_0:0", "+1:0", "\u0663:0", "0:-1", "0:1.0",
                                      "0:0x1", "1 0:0", ":1", "1:"])
    def test_parse_takes_plain_ascii_digits_only(self, text):
        # int() would read 1_0 as 10, +1 as 1 and an Arabic-Indic three as 3
        with pytest.raises(ValueError):
            vf.TermSet.parse(text)

    def test_parse_allows_spaces_around_exponents(self):
        assert vf.TermSet.parse(" 0 : 1 ,\t2:0 ").terms == ((0, 1), (2, 0))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            vf.TermSet(((1, 1), (1, 1)))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            vf.TermSet(((-1, 0),))

    @pytest.mark.parametrize("pair", [(2.9, 1), (2.0, 1), (0, "1"), (True, 0),
                                      (1, False), (np.int64(1), 0)])
    def test_exponent_that_is_not_an_int_rejected(self, pair):
        # rejected, not truncated: int() would read these as exponents
        with pytest.raises(ValueError, match="non-negative integers"):
            vf.TermSet(((0, 0), pair))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vf.TermSet(())

    def test_default_sets_cover_all_series(self):
        assert set(vf.DEFAULT_TERM_SETS) == set(vf.SERIES_NAMES)
        assert len(vf.DEFAULT_TERM_SETS["volatility"]) == 5
        assert len(vf.DEFAULT_TERM_SETS["trend"]) == 11
        assert len(vf.DEFAULT_TERM_SETS["seasonal"]) == 6
        assert len(vf.DEFAULT_TERM_SETS["remainder"]) == 9


class TestBuildFeatureTable:
    def test_lag_must_be_positive(self):
        with pytest.raises(ValueError):
            vf.build_feature_table([1.0, 2.0, 3.0, 4.0], 0)

    @pytest.mark.parametrize("lag", [1.5, np.float64(2.0), True, "2"])
    def test_lag_must_be_an_integer(self, lag):
        # these raised IndexError or TypeError, or (True) ran as lag 1
        with pytest.raises(ValueError, match="lag"):
            vf.build_feature_table([1.0, 2.0, 3.0, 4.0], lag)

    def test_two_dimensional_series_is_refused(self):
        # this raised IndexError
        with pytest.raises(ValueError, match="series must be 1-d"):
            vf.build_feature_table(np.ones((4, 2)))

    def test_numpy_lag_accepted(self):
        series = [1.0, 2.0, 3.0, 4.0]
        assert (vf.build_feature_table(series, np.int64(2)).provenance.tolist()
                == vf.build_feature_table(series, 2).provenance.tolist() == [3, 4])

    def test_default_mapping(self):
        table = vf.build_feature_table([1.0, 2.0, 3.0, 4.0])
        assert table.x.tolist() == [0.5, 0.75, 1.0]
        assert table.y.tolist() == [1.0, 2.0, 3.0]
        assert table.target.tolist() == [2.0, 3.0, 4.0]
        assert table.provenance.tolist() == [2, 3, 4]

    def test_all_missing(self):
        with pytest.raises(InsufficientData):
            vf.build_feature_table([np.nan] * 5)

    def test_lag_two_on_length_three(self):
        table = vf.build_feature_table([1.0, 2.0, 3.0], 2)
        assert len(table) == 1
        assert table.x.tolist() == [1.0]
        assert table.y.tolist() == [1.0]
        assert table.target.tolist() == [3.0]

    def test_series_not_longer_than_lag(self):
        with pytest.raises(InsufficientData):
            vf.build_feature_table([1.0, 2.0], 2)

    def test_rows_with_missing_sources_dropped(self):
        table = vf.build_feature_table([1.0, np.nan, 3.0, 4.0])
        # targets at t=2 and t=3 touch the missing entry; only t=4 survives
        assert table.provenance.tolist() == [4]
        assert table.y.tolist() == [3.0]


class TestFeatureTable:
    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="1-d and equally long"):
            vf.FeatureTable([0.5, 1.0], [1.0, 2.0], [3.0], [1, 2])

    @pytest.mark.parametrize("column", ["x", "y", "target"])
    def test_non_finite_entry_rejected(self, column):
        columns = {"x": [0.5, 1.0], "y": [1.0, 2.0], "target": [3.0, 4.0]}
        columns[column] = [columns[column][0], np.nan]
        with pytest.raises(ValueError, match=f"column '{column}' contains non-finite"):
            vf.FeatureTable(**columns, provenance=[1, 2])


class TestDesignMatrix:
    def test_constant_term_is_ones(self):
        table = make_table([0.0, 2.0, 5.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        X = vf.design_matrix(table, vf.TermSet(((0, 0),)))
        assert X.tolist() == [[1.0], [1.0], [1.0]]

    def test_mixed_term(self):
        table = make_table([2.0], [3.0], [0.0])
        X = vf.design_matrix(table, vf.TermSet(((1, 2),)))
        assert X.tolist() == [[18.0]]

    def test_zero_x_with_pure_y_term(self):
        table = make_table([0.0], [5.0], [0.0])
        X = vf.design_matrix(table, vf.TermSet(((0, 1),)))
        assert X.tolist() == [[5.0]]

    def test_zero_to_the_zero_is_one(self):
        table = make_table([0.0], [0.0], [0.0])
        X = vf.design_matrix(table, vf.TermSet(((0, 0), (1, 0), (0, 1))))
        assert X.tolist() == [[1.0, 0.0, 0.0]]

    def test_column_order_follows_term_order(self):
        table = make_table([2.0], [4.0], [0.0])
        X = vf.design_matrix(table, vf.TermSet(((1, 0), (0, 1), (1, 1))))
        assert X.tolist() == [[2.0, 4.0, 8.0]]

    @pytest.mark.parametrize("name", surface.SERIES_NAMES)
    def test_default_terms_have_the_bits_of_per_term_powers(self, name):
        # the reference power is the product chain 1 * v * ... * v of Python
        # floats, which rounds alike on every CPU
        rng = np.random.default_rng(23)
        x, y = rng.uniform(0, 1, 300), rng.normal(0, 3, 300)
        y[:4] = [0.0, -0.0, 1e-200, -1e150]
        terms = vf.DEFAULT_TERM_SETS[name]
        reference = np.array([[math.prod([a] * m) * math.prod([b] * n)
                               for m, n in terms.terms]
                              for a, b in zip(x.tolist(), y.tolist())])
        X = vf.design_matrix(make_table(x, y, np.zeros(300)), terms)
        assert X.tobytes() == reference.tobytes()


class TestFitOls:
    def test_planted_coefficients_recovered(self):
        rng = np.random.default_rng(1)
        table = planted_table(LINE, [2.0, 3.0], 100, rng)
        model = vf.fit_ols(table, LINE)
        assert model.coefficients == pytest.approx([2.0, 3.0], abs=1e-8)
        assert model.method == "ols"
        assert model.n_points == 100

    def test_interpolation_when_rows_equal_terms(self):
        table = make_table([0.25, 1.0], [1.0, 2.0], [5.0, 7.0])
        model = vf.fit_ols(table, LINE)
        r = table.target - vf.evaluate_surface(model, table.x, table.y)
        assert np.max(np.abs(r)) < 1e-12
        assert model.sigma == 0.0
        assert all(lo == c == hi for (lo, hi), c in zip(model.bounds, model.coefficients))

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        terms = vf.DEFAULT_TERM_SETS["seasonal"]
        table = planted_table(terms, rng.normal(0, 1, len(terms)), 50, rng, noise=0.3)
        model = vf.fit_ols(table, terms)
        X = vf.design_matrix(table, terms)
        oracle = np.linalg.solve(X.T @ X, X.T @ table.target)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(np.array(model.coefficients) - oracle)) <= 1e-8 * scale

    def test_rank_deficiency_names_columns(self):
        # constant y makes the columns y^0, y^1, y^2 collinear
        table = make_table(
            np.linspace(0.1, 1, 30), np.full(30, 2.0), np.linspace(0, 1, 30)
        )
        terms = vf.TermSet(((0, 0), (0, 1), (0, 2)))
        with pytest.raises(RankError) as excinfo:
            vf.fit_ols(table, terms)
        assert excinfo.value.columns
        assert all(":" in label for label in excinfo.value.columns)

    def test_fewer_rows_than_terms(self):
        table = make_table([0.5], [1.0], [2.0])
        with pytest.raises(InsufficientData):
            vf.fit_ols(table, LINE)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(3)
        terms = vf.DEFAULT_TERM_SETS["volatility"]
        table = planted_table(terms, rng.normal(0, 1, len(terms)), 200, rng, noise=0.5)
        model = vf.fit_ols(table, terms)
        X = vf.design_matrix(table, terms)
        r = table.target - X @ np.array(model.coefficients)
        bound = 1e-8 * np.linalg.norm(X) * np.linalg.norm(r)
        assert np.max(np.abs(X.T @ r)) <= bound

    def test_sigma_definition(self):
        rng = np.random.default_rng(4)
        table = planted_table(LINE, [1.0, -1.0], 40, rng, noise=0.2)
        model = vf.fit_ols(table, LINE)
        r = table.target - vf.evaluate_surface(model, table.x, table.y)
        assert model.sigma == pytest.approx(math.sqrt(float(r @ r) / 38), rel=1e-12)


class TestFitLar:
    def test_noiseless_equals_ols(self):
        rng = np.random.default_rng(5)
        table = planted_table(LINE, [2.0, 3.0], 60, rng)
        ols = vf.fit_ols(table, LINE)
        lar = vf.fit_lar(table, LINE)
        assert lar.coefficients == pytest.approx(ols.coefficients, abs=1e-8)
        assert lar.converged

    def test_constant_fit_is_median(self):
        table = make_table([0.2, 0.6, 1.0], [1.0, 1.0, 1.0], [1.0, 2.0, 100.0])
        model = vf.fit_lar(table, vf.TermSet(((0, 0),)))
        # grid-search oracle: the L1-optimal constant
        grid = np.linspace(0.0, 110.0, 110001)
        objective = np.abs(np.array([1.0, 2.0, 100.0])[:, None] - grid).sum(axis=0)
        assert grid[np.argmin(objective)] == pytest.approx(2.0, abs=1e-3)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-6)

    def test_resists_gross_outlier(self):
        rng = np.random.default_rng(6)
        table = planted_table(LINE, [1.0, 2.0], 100, rng, noise=0.05)
        target = table.target.copy()
        target[40] *= 50.0
        table = make_table(table.x, table.y, target)
        lar = vf.fit_lar(table, LINE)
        ols = vf.fit_ols(table, LINE)
        assert abs(lar.coefficients[1] - 2.0) < abs(ols.coefficients[1] - 2.0)
        # the vertex's objective should beat a coarse grid-search L1 minimizer
        X = vf.design_matrix(table, LINE)
        best_grid = min(
            float(np.abs(table.target - X @ np.array([a, b])).sum())
            for a in np.linspace(0.5, 1.5, 41)
            for b in np.linspace(1.5, 2.5, 41)
        )
        lar_obj = float(np.abs(table.target - X @ np.array(lar.coefficients)).sum())
        assert lar_obj <= best_grid + 1e-9

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(7)
        table = planted_table(LINE, [1.0, 2.0], 80, rng, noise=0.1)
        target = table.target.copy()
        target[::9] *= 20.0
        table = make_table(table.x, table.y, target)
        X = vf.design_matrix(table, LINE)
        beta0, _ = _qr_solve(X, table.target, LINE)
        # the vertex after each number of basis exchanges, up to the certified one
        history, certified, cap = [], False, 0
        while not certified:
            beta, exchanges, certified = _l1_vertex(X, table.target, beta0, cap)
            assert exchanges == (cap - 1 if certified else cap)
            history.append(float(np.sum(np.abs(table.target - X @ beta))))
            cap += 1
        assert len(history) > 1
        for before, after in zip(history, history[1:]):
            assert after <= before * (1.0 + 1e-12)

    def test_nonconvergence_reports_flag(self, monkeypatch):
        rng = np.random.default_rng(8)
        table = planted_table(LINE, [1.0, 2.0], 500, rng, noise=0.5)
        monkeypatch.setattr(surface, "LAR_MAX_EXCHANGES", 2)
        model = vf.fit_lar(table, LINE)
        assert not model.converged
        assert model.iterations <= 2

    def test_interpolating_table_short_circuits(self):
        table = make_table([0.25, 1.0], [1.0, 2.0], [5.0, 7.0])
        model = vf.fit_lar(table, LINE)
        assert model.iterations == 0
        assert model.converged
        r = table.target - vf.evaluate_surface(model, table.x, table.y)
        assert np.max(np.abs(r)) < 1e-12

    def test_interpolating_start_with_spare_rows_gets_point_bounds(self):
        # n > p, and the ordinary start fits every row exactly: SSE is 0
        table = make_table([0.25, 0.5, 0.75, 1.0], [1.0] * 4, [1.5, 2.0, 2.5, 3.0])
        model = vf.fit_lar(table, LINE)
        assert model.coefficients == (1.0, 2.0)
        assert model.bounds == ((1.0, 1.0), (2.0, 2.0))
        assert model.sigma == 0.0
        assert model.iterations == 0
        assert model.converged


def _abs_sum(table, terms, coefficients) -> float:
    """sum|r| as the benchmark's LAR check computes it."""
    X = vf.design_matrix(table, terms)
    return float(np.sum(np.abs(table.target - X @ np.asarray(coefficients))))


def _linprog_l1(X, y) -> float:
    """sum|r| at HiGHS's L1 optimum, solved on the orthonormal design.

    The LP runs on sqrt(n) Q from the QR of X with the target divided by
    its max |y|; the solution is mapped back through R.  On the raw design
    HiGHS's feasibility tolerance swamps residuals as small as trend's.
    """
    n, p = X.shape
    q, r = linalg.qr(X, mode="economic")
    scale = float(np.max(np.abs(y)))
    result = optimize.linprog(
        np.r_[np.zeros(p), np.ones(2 * n)],
        A_eq=np.hstack([math.sqrt(n) * q, np.eye(n), -np.eye(n)]),
        b_eq=y / scale,
        bounds=[(None, None)] * p + [(0, None)] * (2 * n),
        method="highs",
    )
    assert result.status == 0
    beta = linalg.solve_triangular(r, math.sqrt(n) * result.x[:p]) * scale
    return float(np.sum(np.abs(y - X @ beta)))


def _heavy_tailed_table(terms, seed, n):
    rng = np.random.default_rng(seed)
    table = planted_table(terms, rng.normal(0, 1, len(terms)), n, rng)
    return make_table(table.x, table.y, table.target + 0.1 * rng.standard_t(2, n))


class TestL1Vertex:
    # relative slack on the oracle's objective, fixed before any comparison
    ORACLE_SLACK = 1e-9

    def assert_certified_optimum(self, table, terms, model):
        assert model.converged
        oracle = _linprog_l1(vf.design_matrix(table, terms), table.target)
        bound = oracle * (1 + self.ORACLE_SLACK)
        assert _abs_sum(table, terms, model.coefficients) <= bound

    @pytest.mark.parametrize("name", sorted(vf.DEFAULT_TERM_SETS))
    @pytest.mark.parametrize("seed,n", [(1, 200), (2, 300), (3, 400)])
    def test_matches_linprog_oracle(self, name, seed, n):
        terms = vf.DEFAULT_TERM_SETS[name]
        table = _heavy_tailed_table(terms, [seed, len(terms)], n)
        self.assert_certified_optimum(table, terms, vf.fit_lar(table, terms))

    def test_never_worse_than_the_ols_start(self, monkeypatch):
        _, results = run_pipeline(BUNDLED.read_text(), vf.PipelineConfig())
        cases = [(r["train"], r["model"].term_set) for r in results.values()]
        for seed in range(6):
            terms = vf.DEFAULT_TERM_SETS["remainder"]
            cases.append((_heavy_tailed_table(terms, seed, 300), terms))
        for table, terms in cases:
            start = _abs_sum(table, terms, vf.fit_ols(table, terms).coefficients)
            for cap in (1, 2, 50):
                monkeypatch.setattr(surface, "LAR_MAX_EXCHANGES", cap)
                model = vf.fit_lar(table, terms)
                assert _abs_sum(table, terms, model.coefficients) <= start

    def test_capped_fit_returns_the_better_of_start_and_vertex(self, monkeypatch):
        picked = set()
        terms = vf.DEFAULT_TERM_SETS["remainder"]
        for seed in range(4):
            table = _heavy_tailed_table(terms, seed, 300)
            X = vf.design_matrix(table, terms)
            start, _ = _qr_solve(X, table.target, terms)
            for cap in (1, 2, 3):
                vertex, exchanges, certified = _l1_vertex(X, table.target, start, cap)
                monkeypatch.setattr(surface, "LAR_MAX_EXCHANGES", cap)
                model = vf.fit_lar(table, terms)
                assert (model.iterations, model.converged) == (exchanges, certified)
                use_vertex = (_abs_sum(table, terms, vertex)
                              <= _abs_sum(table, terms, start))
                expected = vertex if use_vertex else start
                assert np.array_equal(np.array(model.coefficients), expected)
                picked.add(use_vertex)
        assert picked == {True, False}

    def test_cap_leaves_the_last_vertex_untested(self, monkeypatch):
        # this table certifies after exactly two exchanges; a cap of two
        # returns that optimal vertex without testing it, so the flag is False
        rng = np.random.default_rng(8)
        table = planted_table(LINE, [1.0, 2.0], 500, rng, noise=0.5)
        monkeypatch.setattr(surface, "LAR_MAX_EXCHANGES", 2)
        capped = vf.fit_lar(table, LINE)
        monkeypatch.setattr(surface, "LAR_MAX_EXCHANGES", 3)
        free = vf.fit_lar(table, LINE)
        assert (capped.iterations, capped.converged) == (2, False)
        assert (free.iterations, free.converged) == (2, True)
        assert capped.coefficients == free.coefficients

    def test_nearly_collinear_design_returns_the_start(self):
        # y equals x to within 1e-14: QR keeps rank 3, but no three rows are
        # independent within the basis row test's rounding bound
        terms = vf.TermSet(((0, 0), (1, 0), (0, 1)))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = np.linspace(0.5, 2.0, 8)
            y = x * (1.0 + 1e-14 * rng.standard_normal(8))
            table = make_table(x, y, 1.0 + x + rng.standard_t(2, 8))
            model = vf.fit_lar(table, terms)
            assert (model.iterations, model.converged) == (0, False)
            assert model.coefficients == vf.fit_ols(table, terms).coefficients

    @staticmethod
    def _fit_with(routine, wrapper, table, terms, monkeypatch):
        """fit_lar with ``_scipy()``'s ``routine`` replaced by ``wrapper(routine)``."""
        lib = surface._scipy()
        patched = types.SimpleNamespace(
            **{**vars(lib), routine: wrapper(getattr(lib, routine))})
        monkeypatch.setattr(surface, "_scipy", lambda: patched)
        model = vf.fit_lar(table, terms)
        monkeypatch.undo()
        return model

    def _assert_stopped(self, model, exchanges, cap, table, terms, monkeypatch):
        """The fit stopped unconverged with ``exchanges`` made, at the vertex a
        cap of ``cap`` exchanges reaches, with no larger sum|r| than the start."""
        start = vf.fit_ols(table, terms).coefficients
        monkeypatch.setattr(surface, "LAR_MAX_EXCHANGES", cap)
        capped = vf.fit_lar(table, terms)
        assert (model.iterations, model.converged) == (exchanges, False)
        assert model.coefficients == capped.coefficients
        assert _abs_sum(table, terms, model.coefficients) <= _abs_sum(table, terms, start)

    GUARD_TERMS = vf.DEFAULT_TERM_SETS["remainder"]
    GUARD_TABLE = _heavy_tailed_table(GUARD_TERMS, 3, 300)

    def test_singular_basis_ends_the_walk_at_the_vertex_before(self, monkeypatch):
        # the third basis is singular: two exchanges made, the second vertex kept
        assert vf.fit_lar(self.GUARD_TABLE, self.GUARD_TERMS).iterations > 3

        def third_call_singular(getrf):
            calls = []

            def call(*args, **kwargs):
                lu, piv, info = getrf(*args, **kwargs)
                calls.append(None)
                return lu, piv, 1 if len(calls) == 3 else info
            return call

        model = self._fit_with("getrf", third_call_singular,
                               self.GUARD_TABLE, self.GUARD_TERMS, monkeypatch)
        self._assert_stopped(model, 2, 1, self.GUARD_TABLE, self.GUARD_TERMS,
                             monkeypatch)

    def test_singular_first_basis_returns_the_start(self, monkeypatch):
        # no vertex is reached: the fit keeps the OLS start, unconverged
        table, terms = self.GUARD_TABLE, self.GUARD_TERMS
        model = self._fit_with("getrf", lambda getrf: lambda a: (*getrf(a)[:2], 1),
                               table, terms, monkeypatch)
        assert (model.iterations, model.converged) == (0, False)
        assert model.coefficients == vf.fit_ols(table, terms).coefficients

    def test_no_moving_rows_ends_the_walk(self, monkeypatch):
        # the direction solve follows the certificate's transposed solve; a
        # zero second direction moves no residual, so the walk stops after
        # one exchange, at the vertex it reached
        assert vf.fit_lar(self.GUARD_TABLE, self.GUARD_TERMS).iterations > 3

        def second_direction_zero(getrs):
            transposed = []

            def call(*args, **kwargs):
                x, info = getrs(*args, **kwargs)
                if kwargs.get("trans") == 1:
                    transposed.append(None)
                elif len(transposed) == 2:
                    transposed.append(None)
                    x = np.zeros_like(x)
                return x, info
            return call

        model = self._fit_with("getrs", second_direction_zero,
                               self.GUARD_TABLE, self.GUARD_TERMS, monkeypatch)
        self._assert_stopped(model, 1, 1, self.GUARD_TABLE, self.GUARD_TERMS,
                             monkeypatch)

    def test_two_calls_give_the_same_bits(self):
        terms = vf.DEFAULT_TERM_SETS["trend"]
        table = _heavy_tailed_table(terms, 5, 350)
        a, b = vf.fit_lar(table, terms), vf.fit_lar(table, terms)
        assert a == b
        assert np.array(a.coefficients).tobytes() == np.array(b.coefficients).tobytes()
        assert vf.model_to_document(a) == vf.model_to_document(b)

    def test_duplicated_rows(self):
        terms = vf.DEFAULT_TERM_SETS["volatility"]
        table = _heavy_tailed_table(terms, 3, 60)
        doubled = table.subset(np.repeat(np.arange(60), 2))
        single, double = vf.fit_lar(table, terms), vf.fit_lar(doubled, terms)
        assert single.converged
        self.assert_certified_optimum(doubled, terms, double)
        assert _abs_sum(doubled, terms, double.coefficients) == pytest.approx(
            2 * _abs_sum(table, terms, single.coefficients), rel=1e-12)

    @pytest.mark.parametrize("target,expected", [
        ([1.0, 2.0, 3.0, 4.0], 2.0),
        ([4.0, 3.0, 2.0, 1.0], 3.0),
        ([1.0, 1.0, 2.0, 2.0], 1.0),
        ([5.0, 1.0, 1.0, 5.0, 5.0, 1.0], 5.0),
    ])
    def test_even_constant_fit_takes_the_lowest_index_tie(self, target, expected):
        # every point between the middle values is optimal; the OLS residuals
        # tie there and the start takes the lower row index
        n = len(target)
        table = make_table(np.linspace(0.1, 1.0, n), np.ones(n), target)
        model = vf.fit_lar(table, vf.TermSet(((0, 0),)))
        assert model.converged
        assert model.coefficients == (expected,)

    @pytest.mark.parametrize("name", sorted(vf.DEFAULT_TERM_SETS))
    def test_one_row_more_than_terms(self, name):
        terms = vf.DEFAULT_TERM_SETS[name]
        p = len(terms)
        rng = np.random.default_rng(p)
        table = planted_table(terms, rng.normal(0, 1, p), p + 1, rng, noise=0.3)
        self.assert_certified_optimum(table, terms, vf.fit_lar(table, terms))


def _one_sort_line_search(t, weight, descent):
    """The line search as one stable sort of every breakpoint: the reference."""
    order = np.argsort(t, kind="stable")
    stop = int(np.searchsorted(np.cumsum(weight[order]), descent))
    return order[:stop + 1]


def _full_sort_independent_rows(X, keys):
    """The basis row pick by a full stable argsort and a span grown by vstack:
    the reference."""
    p = X.shape[1]
    scaled = X / np.max(np.abs(X), axis=0)
    span = np.empty((0, p))
    rows = []
    for i in np.argsort(keys, kind="stable"):
        v = scaled[i]
        w = v - (span @ v) @ span
        w -= (span @ w) @ span
        norm = math.sqrt(w @ w)
        if norm > 64 * p * np.finfo(float).eps * math.sqrt(v @ v):
            span = np.vstack([span, w / norm])
            rows.append(i)
            if len(rows) == p:
                break
    return np.sort(np.array(rows))


# breakpoint and key values with ties, signed zeros and infinities
TIED_KEYS = [-np.inf, -1.5, -0.0, 0.0, 1e-300, 0.5, 0.5 + 2 ** -53, 2.0, np.inf]


class TestPrefixSorts:
    """The LAR vertex sorts prefixes only, with the bits of a full stable sort."""

    @given(keys=st.lists(st.sampled_from(TIED_KEYS)
                         | st.floats(-1e3, 1e3, allow_subnormal=True),
                         min_size=1, max_size=300),
           size=st.integers(1, 320))
    @example(keys=[2.0, 1.0, 2.0, 2.0, 0.5], size=2)
    @example(keys=[0.0, -0.0, 0.0, -0.0, 1.0], size=1)
    @example(keys=[np.inf, -np.inf, np.inf, 0.0, -np.inf], size=3)
    @example(keys=[1.0] * 5, size=1)
    @example(keys=[3.0, 1.0, 2.0], size=3)
    @example(keys=[3.0, 1.0, 2.0], size=7)
    @settings(max_examples=400, deadline=None)
    def test_stable_prefix_is_a_prefix_of_the_stable_argsort(self, keys, size):
        keys = np.array(keys)
        before = keys.tobytes()
        out = surface._stable_prefix(keys, size)
        assert out.size >= min(size, keys.size)
        assert np.array_equal(out, np.argsort(keys, kind="stable")[:out.size])
        assert keys.tobytes() == before

    @pytest.mark.parametrize("keys,size,expected", [
        # ties at the cut come along whole, in index order
        ([2.0, 1.0, 2.0, 2.0, 0.5], 3, [4, 1, 0, 2, 3]),
        ([0.0, -0.0, 1.0, -0.0], 1, [0, 1, 3]),
        ([np.inf, 1.0, -np.inf], 2, [2, 1]),
        ([1.0, 1.0], 5, [0, 1]),
    ])
    def test_stable_prefix_keeps_ties_at_the_cut(self, keys, size, expected):
        assert surface._stable_prefix(np.array(keys), size).tolist() == expected

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 1500),
           levels=st.sampled_from([0, 2, 40]),
           share=st.floats(0.0, 1.5), zeros=st.booleans())
    @example(seed=0, n=1000, levels=0, share=2.0, zeros=False)
    @example(seed=1, n=300, levels=2, share=0.9, zeros=True)
    @settings(max_examples=200, deadline=None)
    def test_line_search_matches_one_sort(self, seed, n, levels, share, zeros):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(n)
        if levels:
            t = np.round(t * levels) / levels
        weight = rng.exponential(1.0, n) * rng.choice([1.0, 2.0], n)
        if zeros:
            weight[rng.random(n) < 0.3] = 0.0
        descent = share * float(np.sum(weight))
        expected = _one_sort_line_search(t, weight, descent)
        assert np.array_equal(surface._line_search(t, weight, descent), expected)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 300, 2000])
    def test_line_search_past_the_total_weight_crosses_every_breakpoint(self, n):
        rng = np.random.default_rng(n)
        t = np.round(rng.standard_normal(n), 1)
        weight = rng.uniform(0.5, 2.0, n)
        for descent in (float(np.sum(weight)) * 1.01, np.inf):
            crossed = surface._line_search(t, weight, descent)
            assert np.array_equal(crossed, np.argsort(t, kind="stable"))

    def test_line_search_on_the_exchanges_of_bundled_fits(self, monkeypatch):
        calls = []

        def recorded(t, weight, descent):
            calls.append((t.copy(), weight.copy(), descent))
            return line_search(t, weight, descent)

        line_search = surface._line_search
        monkeypatch.setattr(surface, "_line_search", recorded)
        run_pipeline(BUNDLED.read_text(), vf.PipelineConfig())
        assert len(calls) > 40
        for t, weight, descent in calls:
            assert np.array_equal(line_search(t, weight, descent),
                                  _one_sort_line_search(t, weight, descent))

    def assert_rows_match(self, X, keys):
        expected = _full_sort_independent_rows(X, keys)
        got = surface._independent_rows(X, keys)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        return got

    @pytest.mark.parametrize("p", [1, 3, 5, 11])
    @pytest.mark.parametrize("n", [11, 60, 400])
    def test_independent_rows_on_ols_residuals(self, n, p):
        rng = np.random.default_rng([n, p])
        X, terms = _random_design(rng, n, p)
        z = X @ rng.standard_normal(p) + rng.standard_t(2, n)
        r = z - X @ _qr_solve(X, z, terms)[0]
        assert self.assert_rows_match(X, np.abs(r)).size == p

    @pytest.mark.parametrize("tied", [False, True])
    def test_independent_rows_skips_duplicated_rows(self, tied):
        rng = np.random.default_rng(3)
        X, _ = _random_design(rng, 50, 5)
        # the 100 smallest keys belong to copies of two rows, so the walk
        # grows its prefix from 4p = 20 to 80 to 320 before it finds five
        copied = np.vstack([np.repeat(X[:2], 50, axis=0), X[2:]])
        low = np.zeros(100) if tied else np.linspace(0.0, 0.5, 100)
        keys = np.concatenate([low, rng.uniform(1.0, 2.0, 48)])
        rows = self.assert_rows_match(copied, keys)
        assert rows.size == 5 and rows[0] == 0 and rows[1] == 50

    def test_independent_rows_of_a_nearly_collinear_design(self):
        # TestL1Vertex's design: QR keeps rank 3, the row test finds two rows
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = np.linspace(0.5, 2.0, 8)
            y = x * (1.0 + 1e-14 * rng.standard_normal(8))
            X = np.column_stack([np.ones(8), x, y])
            keys = np.abs(rng.standard_t(2, 8))
            assert self.assert_rows_match(X, keys).size < 3

    @pytest.mark.parametrize("n", [3, 12, 13, 100, 700])
    def test_independent_rows_of_a_rank_two_design(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        X = np.column_stack([a, b, a - 2.0 * b])
        keys = np.round(rng.uniform(0.0, 1.0, n), 1)
        assert self.assert_rows_match(X, keys).size == min(2, n)


class TestFitBisquare:
    def test_noiseless_equals_ols(self):
        rng = np.random.default_rng(9)
        terms = vf.DEFAULT_TERM_SETS["volatility"]
        table = planted_table(terms, rng.normal(0, 1, len(terms)), 80, rng)
        ols = vf.fit_ols(table, terms)
        bis = vf.fit_bisquare(table, terms)
        assert bis.coefficients == pytest.approx(ols.coefficients, abs=1e-6)

    def test_weight_zero_outside_support(self):
        u = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
        w = vf.bisquare_weights(u)
        assert w[0] == w[1] == w[5] == w[6] == 0.0
        assert w[3] == 1.0
        assert w[2] == pytest.approx((1 - 0.25) ** 2)

    def test_monte_carlo_beats_ols_on_contaminated_data(self):
        errors_bis, errors_ols = [], []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            table = planted_table(LINE, [1.0, 2.0], 120, rng, noise=0.05)
            target = table.target.copy()
            bad = rng.random(120) < 0.10
            target[bad] *= 50.0
            table = make_table(table.x, table.y, target)
            bis = vf.fit_bisquare(table, LINE)
            ols = vf.fit_ols(table, LINE)
            truth = np.array([1.0, 2.0])
            errors_bis.append(np.max(np.abs(np.array(bis.coefficients) - truth)))
            errors_ols.append(np.max(np.abs(np.array(ols.coefficients) - truth)))
        assert np.median(errors_bis) < np.median(errors_ols)

    def test_iterations_counted(self):
        rng = np.random.default_rng(10)
        table = planted_table(LINE, [1.0, 2.0], 60, rng, noise=0.2)
        model = vf.fit_bisquare(table, LINE)
        assert model.iterations >= 1

    def test_interpolating_table_short_circuits(self):
        table = make_table([0.25, 1.0], [1.0, 2.0], [5.0, 7.0])
        model = vf.fit_bisquare(table, LINE)
        assert model.iterations == 0
        assert model.converged

    # The walk's three early stops, told apart by the QR solves the fit
    # runs or tries (the start's included).  Each table stops the same way,
    # after the same solves, on OpenBLAS's SkylakeX, Haswell, Zen,
    # Sandybridge and Prescott kernels.

    @staticmethod
    def _fit_counting_solves(table, terms, monkeypatch):
        calls = []
        solve = surface._qr_solve
        monkeypatch.setattr(surface, "_qr_solve",
                            lambda *args: calls.append(args) or solve(*args))
        model = vf.fit_bisquare(table, terms)
        return model, (model.iterations, model.converged, len(calls))

    @staticmethod
    def _line_with_outliers(shifts):
        """Nine rows on 1 + 2x, rows 1, 4 and 7 shifted by ``shifts``."""
        x = np.arange(1, 10) / 8
        target = 1.0 + 2.0 * x
        target[[1, 4, 7]] += shifts
        return make_table(x, np.ones(9), target)

    @staticmethod
    def _end_residuals(table, terms, model):
        X = vf.design_matrix(table, terms)
        return table.target - X @ np.array(model.coefficients)

    def test_zero_mad_stops_the_walk_converged(self, monkeypatch):
        # three solves put six rows exactly on the line, so the next
        # weights have no scale and the walk stops with its iterate
        table = self._line_with_outliers([-8.0, 2.0, -2.0])
        model, path = self._fit_counting_solves(table, LINE, monkeypatch)
        assert path == (3, True, 4)
        assert surface._tukey_weights(self._end_residuals(table, LINE, model)) is None

    def test_too_few_weighted_rows_stop_the_walk(self, monkeypatch):
        # after one solve only one row keeps weight, too few for two terms,
        # and the walk stops without trying a solve
        table = self._line_with_outliers([1.0, 2.0, 3.0])
        model, path = self._fit_counting_solves(table, LINE, monkeypatch)
        assert path == (1, False, 2)
        w = surface._tukey_weights(self._end_residuals(table, LINE, model))
        assert np.count_nonzero(w) < len(LINE)

    def test_weighted_rows_on_one_x_stop_the_walk_on_rank(self, monkeypatch):
        # the eight rows at x = 0.5 keep weight and the four outliers lose
        # it, so the weighted design of 1 and x has rank 1: the first
        # weighted solve raises RankError and the start is kept
        x = np.array([0.1, 0.2] + [0.5] * 8 + [0.8, 0.9])
        target = 1.0 + 0.01 * np.sin(np.arange(12.0))
        target[[0, 1, 10, 11]] += [20.0, -20.0, -20.0, 20.0]
        table = make_table(x, np.ones(12), target)
        model, path = self._fit_counting_solves(table, LINE, monkeypatch)
        assert path == (0, False, 2)
        assert model.coefficients == vf.fit_ols(table, LINE).coefficients
        w = surface._tukey_weights(self._end_residuals(table, LINE, model))
        assert np.count_nonzero(w) >= len(LINE)
        assert set(x[w > 0]) == {0.5}

    @pytest.mark.parametrize("text, n, seed, solves, converged", [
        ("0:0,1:0", 3, 0, 0, False),
        ("0:0,0:1,1:0", 4, 2809, 3, True),
        ("0:0,0:1,1:0", 5, 27, 0, False),
        ("0:0,0:1,0:2,1:0,1:1", 6, 352, 1, False),
        ("0:0,0:1,0:2,1:0,1:1", 7, 1004, 4, False),
        ("0:0,0:1,0:2,1:0,1:1,1:2,2:0,2:1,3:0", 13, 18, 14, False),
    ])
    def test_small_table_ends_with_too_few_weighted_rows(self, text, n, seed,
                                                          solves, converged,
                                                          monkeypatch):
        # p < n < 2p and the weights of the last iterate keep fewer than p
        # rows: the walk stops there unconverged without trying a solve,
        # except on the four-row table, whose third solve meets the step
        # tolerance first.  Each
        # dropped row clears |u| = 1 by a margin the kernels' rounding does
        # not cross
        terms = vf.TermSet.parse(text)
        rng = np.random.default_rng([seed, n, len(terms)])
        table = make_table(np.linspace(1 / n, 1, n), rng.uniform(0.5, 2, n),
                           rng.standard_t(1, n))
        model, path = self._fit_counting_solves(table, terms, monkeypatch)
        assert path == (solves, converged, solves + 1)
        r = self._end_residuals(table, terms, model)
        w = surface._tukey_weights(r)
        u = r / (surface.BISQUARE_CONSTANT * surface._mad_sigma(r))
        assert len(terms) < n < 2 * len(terms)
        assert np.count_nonzero(w) < len(terms)
        assert np.all(np.abs(u[w == 0.0]) > 1.1)


class TestConfidenceBounds:
    def test_noiseless_fit_has_tiny_intervals(self):
        rng = np.random.default_rng(11)
        table = planted_table(LINE, [2.0, 3.0], 50, rng)
        model = vf.fit_ols(table, LINE)
        for lo, hi in model.bounds:
            assert hi - lo < 1e-8

    def test_bounds_match_textbook_formula(self):
        rng = np.random.default_rng(12)
        terms = vf.DEFAULT_TERM_SETS["volatility"]
        table = planted_table(terms, rng.normal(0, 1, len(terms)), 70, rng, noise=0.3)
        model = vf.fit_ols(table, terms)
        X = vf.design_matrix(table, terms)
        n, p = X.shape
        r = table.target - X @ np.array(model.coefficients)
        sigma = math.sqrt(float(r @ r) / (n - p))
        se = sigma * np.sqrt(np.diag(np.linalg.inv(X.T @ X)))
        tq = stats.t.ppf(0.975, n - p)
        for (lo, hi), c, s in zip(model.bounds, model.coefficients, se):
            assert lo == pytest.approx(c - tq * s, rel=1e-9)
            assert hi == pytest.approx(c + tq * s, rel=1e-9)

    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    def test_wider_at_higher_level(self, method):
        rng = np.random.default_rng(14)
        table = planted_table(LINE, [1.0, -2.0], 40, rng, noise=0.1)
        fit = getattr(vf, f"fit_{method}")
        narrow = fit(table, LINE, confidence_level=0.5).bounds
        wide = fit(table, LINE, confidence_level=0.99).bounds
        for (nlo, nhi), (wlo, whi) in zip(narrow, wide):
            assert whi - wlo > nhi - nlo

    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    @pytest.mark.parametrize("name", sorted(vf.DEFAULT_TERM_SETS))
    def test_reloaded_bounds_are_the_stored_bounds_exactly(self, method, name):
        # the document is the whole model: reading it back gives the fit's
        # bounds and every other field, bit for bit
        terms = vf.DEFAULT_TERM_SETS[name]
        for seed in range(4):
            table = _heavy_tailed_table(terms, [seed, 17], 250)
            model = getattr(vf, f"fit_{method}")(table, terms)
            assert vf.model_from_document(vf.model_to_document(model)) == model

    SCALE_CASES = [(name, seed) for name in sorted(vf.DEFAULT_TERM_SETS)
                   for seed in range(2)]

    @staticmethod
    def _scaled_fits(method, name, seed, k):
        """A fit of a heavy-tailed table and of the table with its target times k."""
        terms = vf.DEFAULT_TERM_SETS[name]
        table = _heavy_tailed_table(terms, [seed, 29], 300)
        fit = getattr(vf, f"fit_{method}")
        scaled = make_table(table.x, table.y, table.target * k)
        return fit(table, terms), fit(scaled, terms)

    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    @pytest.mark.parametrize("name,seed", SCALE_CASES)
    def test_bounds_scale_exactly_with_a_power_of_two(self, method, name, seed):
        for k in (2.0 ** -7, 2.0, 2.0 ** 10):
            model, scaled = self._scaled_fits(method, name, seed, k)
            assert (scaled.iterations, scaled.converged) == (
                model.iterations, model.converged)
            assert scaled.coefficients == tuple(c * k for c in model.coefficients)
            assert scaled.bounds == tuple((lo * k, hi * k) for lo, hi in model.bounds)
            assert scaled.sigma == model.sigma * k

    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    @pytest.mark.parametrize("name,seed", SCALE_CASES)
    def test_bounds_scale_with_the_target(self, method, name, seed):
        # the widths and sigma scale within a few ulps; the coefficients
        # within rounding of the solve, which the design's conditioning
        # amplifies (OLS's move by up to ~60 ulps of the largest)
        for k in (3.0, 100.0):
            model, scaled = self._scaled_fits(method, name, seed, k)
            widths = np.diff(model.bounds).ravel() * k
            np.testing.assert_array_max_ulp(np.diff(scaled.bounds).ravel(), widths, 16)
            np.testing.assert_array_max_ulp(scaled.sigma, model.sigma * k, 16)
            coefficients = np.array(model.coefficients) * k
            assert np.max(np.abs(np.array(scaled.coefficients) - coefficients)) \
                <= 1e-10 * np.max(np.abs(coefficients))

    @pytest.mark.parametrize("noise", ["t3", "normal"])
    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    def test_coverage_band(self, method, noise):
        # terms 1, x and y with x = t/n and y ~ N(0, 1), n = 400, noise 0.1
        # t_3 or 0.1 N(0, 1), 100 fixed-seed draws: each term's 0.95
        # interval covers its true coefficient in at least 80% of them
        terms = vf.TermSet(((0, 0), (1, 0), (0, 1)))
        beta = np.array([1.0, 2.0, 0.5])
        n, draws = 400, 100
        fit = getattr(vf, f"fit_{method}")
        covered = np.zeros(len(terms))
        for draw in range(draws):
            rng = np.random.default_rng([draw, int(noise == "normal")])
            y = rng.standard_normal(n)
            e = rng.standard_t(3, n) if noise == "t3" else rng.standard_normal(n)
            x = np.arange(1, n + 1) / n
            target = beta[0] + beta[1] * x + beta[2] * y + 0.1 * e
            bounds = np.array(fit(make_table(x, y, target), terms).bounds)
            covered += (bounds[:, 0] <= beta) & (beta <= bounds[:, 1])
        assert np.all(covered / draws >= 0.8), covered / draws

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, math.nan])
    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    def test_level_outside_the_unit_interval_rejected(self, method, level):
        rng = np.random.default_rng(43)
        table = planted_table(LINE, [1.0, -2.0], 40, rng, noise=0.1)
        fit = getattr(vf, f"fit_{method}")
        with pytest.raises(ValueError, match="confidence level"):
            fit(table, LINE, confidence_level=level)

    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    def test_design_errors_come_before_the_level_check(self, method):
        # constant y makes the columns y^0, y^1, y^2 collinear
        fit = getattr(vf, f"fit_{method}")
        table = make_table(
            np.linspace(0.1, 1, 30), np.full(30, 2.0), np.linspace(0, 1, 30))
        with pytest.raises(RankError):
            fit(table, vf.TermSet(((0, 0), (0, 1), (0, 2))), confidence_level=1.5)
        with pytest.raises(InsufficientData):
            fit(table.subset(slice(0, 1)), LINE, confidence_level=1.5)


@pytest.mark.parametrize("method", vf.FIT_METHODS)
def test_interpolating_fit_checks_the_level(method):
    # n == p: point bounds at a valid level, ValueError at an invalid one
    table = make_table([0.25, 1.0], [1.0, 2.0], [5.0, 7.0])
    terms = vf.TermSet(((0, 0), (0, 1)))
    fit = getattr(vf, f"fit_{method}")
    model = fit(table, terms)
    assert model.bounds == tuple((c, c) for c in model.coefficients)
    assert model.sigma == 0.0
    for level in (0.0, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="confidence level"):
            fit(table, terms, confidence_level=level)


def test_fits_share_one_signature():
    # run_pipeline dispatches to fit_<method> with the same arguments
    signatures = {inspect.signature(getattr(vf, f"fit_{m}")) for m in vf.FIT_METHODS}
    assert len(signatures) == 1


def test_lar_and_bisquare_caps_are_separate(monkeypatch):
    rng = np.random.default_rng(44)
    table = planted_table(LINE, [1.0, 2.0], 500, rng, noise=0.5)
    target = table.target.copy()
    target[::7] *= 30.0
    table = make_table(table.x, table.y, target)
    lar, bisquare = vf.fit_lar(table, LINE), vf.fit_bisquare(table, LINE)
    assert lar.iterations > 1 and bisquare.iterations > 1
    monkeypatch.setattr(surface, "LAR_MAX_EXCHANGES", 1)
    assert vf.fit_bisquare(table, LINE) == bisquare
    assert vf.fit_lar(table, LINE).iterations == 1
    monkeypatch.setattr(surface, "LAR_MAX_EXCHANGES", 50)
    monkeypatch.setattr(surface, "BISQUARE_MAX_SOLVES", 1)
    assert vf.fit_lar(table, LINE) == lar
    assert vf.fit_bisquare(table, LINE).iterations == 1


def _scipy_qr_solve(X, z):
    """The solve as scipy.linalg spells it; the oracle for the LAPACK kernel.

    Returns (beta, R, pivot, rank), with rank taken by the kernel's own rule.
    """
    q, r, piv = linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(X.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.count_nonzero(diag > tol))
    if rank < X.shape[1]:
        return None, r, piv, rank
    beta = np.empty(X.shape[1])
    beta[piv] = linalg.solve_triangular(r, q.T @ z)
    return beta, r, piv, rank


def _scipy_t_bounds(X, sigma, coefficients, level):
    """Student-t bounds from scipy's pivoted QR and triangular solve."""
    n, p = X.shape
    _, r, piv, _ = _scipy_qr_solve(X, np.zeros(n))
    rinv = linalg.solve_triangular(r, np.eye(p))
    variance = np.empty(p)
    variance[piv] = np.diag(rinv @ rinv.T)
    se = sigma * np.sqrt(np.maximum(variance, 0.0))
    tq = float(special.stdtrit(n - p, 0.5 + level / 2.0))
    return tuple((float(c - tq * s), float(c + tq * s)) for c, s in zip(coefficients, se))


def _fit_bounds(table, terms, coefficients, residuals):
    """The bounds and sigma ``_fit`` records for a fit of the table's design
    that ends at these coefficients, with these residuals (within rounding)."""
    target = vf.design_matrix(table, terms) @ np.asarray(coefficients) + residuals

    def walk(X, y, beta, terms):
        return np.asarray(coefficients), 0, True

    model = surface._fit("ols", make_table(table.x, table.y, target), terms, 0.95, walk)
    return model.bounds, model.sigma


def _random_table(rng, n, p):
    """Polynomial columns of uneven scale, as the fits see them: rows with
    zero targets and the terms."""
    x = np.linspace(1.0 / n, 1.0, n)
    y = rng.standard_t(3, n) * 0.01
    terms = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2),
             (2, 1), (3, 0), (3, 1), (4, 0), (5, 0)][:p]
    return make_table(x, y, np.zeros(n)), vf.TermSet(tuple(terms))


def _random_design(rng, n, p):
    table, terms = _random_table(rng, n, p)
    return vf.design_matrix(table, terms), terms


class TestQrKernel:
    """The direct LAPACK calls keep scipy.linalg's bits exactly."""

    SHAPES = [(1, 1), (40, 1), (5, 5), (11, 11), (60, 5), (300, 5), (300, 11), (2000, 11)]

    @pytest.mark.parametrize("n,p", SHAPES)
    def test_solve_matches_scipy_bit_for_bit(self, n, p):
        rng = np.random.default_rng(1000 * n + p)
        for trial in range(5):
            X, terms = _random_design(rng, n, p)
            if trial % 2:
                X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-6, 6, p)
            z = X @ rng.standard_normal(p) + rng.standard_normal(n)
            expect, r_expect, piv_expect, rank_expect = _scipy_qr_solve(X, z)
            assert rank_expect == p
            before = X.copy()
            beta, (r, piv) = _qr_solve(X, z, terms)
            assert beta.tobytes() == expect.tobytes()
            assert np.triu(r).tobytes() == r_expect.tobytes()
            assert np.array_equal(piv, piv_expect)
            assert np.array_equal(X, before)

    @pytest.mark.parametrize("n,p", SHAPES)
    def test_unit_weights_give_the_unweighted_bits(self, n, p):
        # a weighted solve with unit weights is the ordinary solve, bit for bit
        rng = np.random.default_rng(5000 * n + p)
        X, terms = _random_design(rng, n, p)
        z = X @ rng.standard_normal(p) + rng.standard_normal(n)
        beta, (r, piv) = _qr_solve(X, z, terms)
        beta_w, (r_w, piv_w) = _qr_solve(X, z, terms, np.ones(n))
        assert beta.tobytes() == beta_w.tobytes()
        assert r.tobytes() == r_w.tobytes()
        assert np.array_equal(piv, piv_w)

    def test_blocked_factorization_matches_scipy_bit_for_bit(self):
        # past ~128 columns LAPACK blocks by the queried workspace size, so
        # a guessed lwork would change the bits here
        rng = np.random.default_rng(140)
        X = rng.standard_normal((300, 140))
        z = rng.standard_normal(300)
        terms = vf.TermSet(tuple((j, 0) for j in range(140)))
        beta, _ = _qr_solve(X, z, terms)
        assert beta.tobytes() == _scipy_qr_solve(X, z)[0].tobytes()

    @pytest.mark.parametrize("n,p", SHAPES)
    def test_weighted_solve_matches_scipy_bit_for_bit(self, n, p):
        rng = np.random.default_rng(2000 * n + p)
        X, terms = _random_design(rng, n, p)
        z = rng.standard_normal(n)
        w = 1.0 / np.maximum(np.abs(rng.standard_normal(n)), 1e-3)
        sw = np.sqrt(w)
        expect = _scipy_qr_solve(X * sw[:, None], z * sw)[0]
        beta, _ = _qr_solve(X, z, terms, w)
        assert beta.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("n,p", [(2, 1), (40, 1), (60, 5), (300, 11)])
    def test_bounds_match_scipy_bit_for_bit(self, n, p):
        rng = np.random.default_rng(3000 * n + p)
        table, terms = _random_table(rng, n, p)
        X = vf.design_matrix(table, terms)
        coefficients = tuple(rng.standard_normal(p))
        residuals = rng.standard_normal(n)
        bounds, sigma = _fit_bounds(table, terms, coefficients, residuals)
        assert bounds == _scipy_t_bounds(X, sigma, coefficients, 0.95)

    @pytest.mark.parametrize("make", [
        lambda X: np.column_stack([X, X[:, 1]]),
        lambda X: np.column_stack([X[:, :2], np.zeros(len(X)), X[:, 2:]]),
        lambda X: np.column_stack([X, 3.0 * X[:, 0] - X[:, 2]]),
        lambda X: np.zeros((len(X), 1)),
        lambda X: X[:3],
    ])
    def test_rank_deficiency_names_the_same_columns(self, make):
        rng = np.random.default_rng(4)
        X = make(_random_design(rng, 50, 4)[0])
        terms = vf.TermSet(tuple((j, 0) for j in range(X.shape[1])))
        _, _, piv, rank = _scipy_qr_solve(X, np.ones(len(X)))
        assert rank < X.shape[1]
        with pytest.raises(RankError) as excinfo:
            _qr_solve(X, np.ones(len(X)), terms)
        assert excinfo.value.columns == tuple(terms.labels()[j] for j in piv[rank:])

    @pytest.mark.parametrize("p", [1, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, p, bad):
        rng = np.random.default_rng(5)
        X, terms = _random_design(rng, 30, p)
        z = rng.standard_normal(30)
        broken = X.copy()
        broken[7, p - 1] = bad
        with pytest.raises(ValueError):
            linalg.qr(broken, mode="economic", pivoting=True)
        with pytest.raises(ValueError):
            _qr_solve(broken, z, terms)
        with pytest.raises(ValueError):
            _qr_solve(broken, z, terms, np.ones(30))
        z[3] = bad
        with pytest.raises(ValueError):
            _qr_solve(X, z, terms)


class TestSolveSpellings:
    """The spellings around the solve kernel keep the bits of those they replaced."""

    @pytest.mark.parametrize("values", [
        [3.0], [2.0, -1.0], [5.0, 1.0, 3.0, 2.0, 4.0], [4.0, 1.0, 3.0, 2.0],
        [1.0, 1.0, 2.0, 2.0, 2.0], [2.0, 2.0, 1.0, 1.0],
        [-0.0], [-0.0, -0.0], [0.0, -0.0, -0.0], [-0.0, 0.0, -0.0, 0.0],
        [np.inf], [np.inf, 1.0, 2.0], [-np.inf, np.inf], [np.inf, np.inf],
        [-np.inf, 1.0, -np.inf, 2.0], [np.nan], [1.0, np.nan],
        [np.nan, 1.0, 2.0], [np.inf, np.nan, -np.inf, 0.0],
    ])
    def test_median_matches_numpy_bit_for_bit(self, values):
        a = np.array(values)
        with np.errstate(invalid="ignore"):
            expect, got = np.median(a), surface._median(a)
        assert np.float64(got).tobytes() == np.float64(expect).tobytes()
        assert np.array(values).tobytes() == a.tobytes()

    @given(values=st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1e-300, 1.0,
                                            1.0 + 2 ** -52, 3.0, 1e300, np.inf]),
                           min_size=1, max_size=41))
    @settings(max_examples=300, deadline=None)
    def test_median_matches_numpy_on_ties(self, values):
        a = np.array(values)
        with np.errstate(invalid="ignore", over="ignore"):
            expect, got = np.median(a), surface._median(a)
        assert np.float64(got).tobytes() == np.float64(expect).tobytes()

    def test_median_on_bisquare_residuals(self):
        rng = np.random.default_rng(8)
        for n in (1999, 2000):
            r = rng.standard_t(3, n) * 1e-3
            assert surface._median(r).tobytes() == np.median(r).tobytes()
            assert surface._mad_sigma(r) == float(
                np.median(np.abs(r - np.median(r))) / surface.MAD_TO_SIGMA)

    @pytest.mark.parametrize("n,p", [(1, 1), (40, 1), (60, 5), (2000, 11), (300, 140)])
    def test_memoised_workspace_equals_a_fresh_query(self, n, p):
        geqp3, orgqr = surface._scipy().geqp3, surface._scipy().orgqr
        a = np.asfortranarray(np.random.default_rng(p).standard_normal((n, p)))
        tau = np.zeros(min(n, p))
        for _ in range(2):
            assert surface._lwork(geqp3, a.shape) == int(geqp3(a, lwork=-1)[-2][0])
            assert surface._lwork(orgqr, a.shape, tau.shape) == int(
                orgqr(a, tau, lwork=-1)[-2][0])

    def test_workspace_is_queried_once_per_shape(self):
        rng = np.random.default_rng(9)
        X, terms = _random_design(rng, 137, 4)
        z = rng.standard_normal(137)
        _qr_solve(X, z, terms)
        misses = surface._lwork.cache_info().misses
        first = _qr_solve(X, z, terms)[0]
        assert surface._lwork.cache_info().misses == misses
        assert first.tobytes() == _scipy_qr_solve(X, z)[0].tobytes()

    @pytest.mark.parametrize("p", range(1, 12))
    def test_weighted_solve_with_zero_weights_matches_scipy(self, p):
        rng = np.random.default_rng(60 + p)
        X, terms = _random_design(rng, 300, p)
        z = rng.standard_normal(300)
        w = vf.bisquare_weights(rng.standard_normal(300) / 2.5)
        w[::7] = 0.0
        assert np.count_nonzero(w == 0.0) > 40
        sw = np.sqrt(w)
        expect, r_expect, piv_expect, rank = _scipy_qr_solve(X * sw[:, None], z * sw)
        assert rank == p
        beta, (r, piv) = _qr_solve(X, z, terms, w)
        assert beta.tobytes() == expect.tobytes()
        assert np.triu(r).tobytes() == r_expect.tobytes()
        assert np.array_equal(piv, piv_expect)

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_weighted_solve_leaves_the_design_unchanged(self, p, order):
        # an (n, 1) design is both C- and Fortran-contiguous, so LAPACK
        # would factor it in place if it were handed over uncopied
        rng = np.random.default_rng(10)
        X, terms = _random_design(rng, 40, p)
        X = np.array(X, order=order)
        z = rng.standard_normal(40)
        w = rng.uniform(0.0, 2.0, 40)
        before = X.tobytes(), z.tobytes(), w.tobytes()
        _qr_solve(X, z, terms, w)
        assert (X.tobytes(), z.tobytes(), w.tobytes()) == before


def _blas_threads() -> int:
    """The thread count of the OpenBLAS scipy links, read through its setter."""
    set_threads = surface._scipy().set_threads
    count = set_threads(1)
    set_threads(count)
    return count


@pytest.fixture
def two_blas_threads():
    """Two threads for the test (one thread would hide a scope left unclosed),
    then the count the process had."""
    set_threads = surface._scipy().set_threads
    previous = set_threads(2)
    yield
    set_threads(previous)


needs_thread_setter = pytest.mark.skipif(
    not hasattr(surface._scipy().set_threads, "argtypes"),
    reason="the BLAS scipy links has no openblas_set_num_threads_local")


def _unloadable(path):
    raise OSError(f"{path}: cannot open shared object file")


def _without_setter(path):
    """A loaded library without the setter: looking it up raises AttributeError."""
    return types.SimpleNamespace()


# p = 11 on 2000 rows: the size of the fits' trend surface, where OpenBLAS
# splits its calls among threads
BLAS_TABLE = _heavy_tailed_table(vf.DEFAULT_TERM_SETS["trend"], 71, 2000)


class TestFitThreadScope:
    """One one-thread scope per fit covers every LAPACK routine it calls, and
    the process's count is restored however the fit ends."""

    ROUTINES = ("geqp3", "orgqr", "trtrs", "getrf", "getrs")

    @classmethod
    def _patch(cls, monkeypatch, wrap):
        """Make ``_scipy()`` hand out each routine as ``wrap(name, routine)``."""
        lib = surface._scipy()
        wrapped = types.SimpleNamespace(**{
            **vars(lib), **{name: wrap(name, getattr(lib, name)) for name in cls.ROUTINES}})
        monkeypatch.setattr(surface, "_scipy", lambda: wrapped)

    @needs_thread_setter
    def test_every_routine_runs_on_one_thread(self, monkeypatch, two_blas_threads):
        seen = []

        def reading(name, routine):
            def call(*args, **kwargs):
                seen.append((name, _blas_threads()))
                return routine(*args, **kwargs)
            return call

        self._patch(monkeypatch, reading)
        for method in vf.FIT_METHODS:
            getattr(vf, f"fit_{method}")(BLAS_TABLE, vf.DEFAULT_TERM_SETS["trend"])
        assert {name for name, _ in seen} == set(self.ROUTINES)
        assert {count for _, count in seen} == {1}
        assert _blas_threads() == 2

    @needs_thread_setter
    @pytest.mark.parametrize("routine", ["geqp3", "orgqr", "trtrs", "getrf"])
    def test_fit_whose_routine_raises_restores_the_count(self, routine, monkeypatch,
                                                         two_blas_threads):
        def failing(name, call):
            if name != routine:
                return call

            def fail(*args, **kwargs):
                raise RuntimeError(f"{name} failed")
            return fail

        self._patch(monkeypatch, failing)
        with pytest.raises(RuntimeError, match=f"{routine} failed"):
            vf.fit_lar(BLAS_TABLE, vf.DEFAULT_TERM_SETS["trend"])
        assert _blas_threads() == 2

    @needs_thread_setter
    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    def test_rank_deficient_fit_restores_the_count(self, method, two_blas_threads):
        # constant y makes the columns y^0, y^1, y^2 collinear
        table = make_table(
            np.linspace(0.1, 1, 30), np.full(30, 2.0), np.linspace(0, 1, 30))
        with pytest.raises(RankError):
            getattr(vf, f"fit_{method}")(table, vf.TermSet(((0, 0), (0, 1), (0, 2))))
        assert _blas_threads() == 2

    @pytest.mark.parametrize("cdll", [_unloadable, _without_setter],
                             ids=["OSError", "AttributeError"])
    def test_fits_without_the_setter_keep_their_bits(self, cdll, monkeypatch,
                                                     two_blas_threads):
        terms = vf.DEFAULT_TERM_SETS["trend"]
        expect = [vf.model_to_document(getattr(vf, f"fit_{m}")(BLAS_TABLE, terms))
                  for m in vf.FIT_METHODS]
        monkeypatch.setattr(surface.ctypes, "CDLL", cdll)
        surface._scipy.cache_clear()
        try:
            assert not hasattr(surface._scipy().set_threads, "argtypes")
            got = [vf.model_to_document(getattr(vf, f"fit_{m}")(BLAS_TABLE, terms))
                   for m in vf.FIT_METHODS]
        finally:
            surface._scipy.cache_clear()
        assert got == expect


class TestPublicScipyImports:
    """Where ``_scipy()`` cannot load scipy's extensions directly, it takes
    the same routines from scipy's public imports."""

    @pytest.mark.parametrize("method", vf.FIT_METHODS)
    def test_fits_keep_their_bytes(self, method, monkeypatch):
        refused = []

        def refuse(package, name):
            refused.append(f"scipy.{package}.{name}")
            raise ImportError(f"scipy.{package}.{name} refused")

        text, config = BUNDLED.read_text(), vf.PipelineConfig(fit_method=method)
        surface._scipy.cache_clear()
        try:
            expect = fit_artifacts(run_pipeline(text, config)[1])
            monkeypatch.setattr(surface, "_scipy_extension", refuse)
            surface._scipy.cache_clear()
            got = fit_artifacts(run_pipeline(text, config)[1])
        finally:
            monkeypatch.undo()
            surface._scipy.cache_clear()
        assert refused == ["scipy.linalg._flapack", "scipy.special._ufuncs"]
        assert got == expect


class TestFactorizationCount:
    """A fit factors its design once per solve, and its bounds reuse the
    start's factorization."""

    TERMS = vf.DEFAULT_TERM_SETS["remainder"]
    TABLE = _heavy_tailed_table(TERMS, 3, 300)

    @staticmethod
    def _fit(method, table, terms, monkeypatch):
        """The fitted model and the number of geqp3 factorizations it made;
        workspace queries are not counted."""
        lib = surface._scipy()
        lworks = []

        def geqp3(*args, lwork, **kwargs):
            lworks.append(lwork)
            return lib.geqp3(*args, lwork=lwork, **kwargs)

        counting = types.SimpleNamespace(**{**vars(lib), "geqp3": geqp3})
        monkeypatch.setattr(surface, "_scipy", lambda: counting)
        model = getattr(vf, f"fit_{method}")(table, terms)
        return model, sum(lwork != -1 for lwork in lworks)

    def test_ols_factors_once(self, monkeypatch):
        assert self._fit("ols", self.TABLE, self.TERMS, monkeypatch)[1] == 1

    def test_lar_factors_its_start_only(self, monkeypatch):
        model, calls = self._fit("lar", self.TABLE, self.TERMS, monkeypatch)
        assert model.iterations > 0 and calls == 1

    @pytest.mark.parametrize("method", ["lar", "bisquare"])
    def test_interpolating_fit_factors_once(self, method, monkeypatch):
        table = self.TABLE.subset(slice(0, len(self.TERMS)))
        assert self._fit(method, table, self.TERMS, monkeypatch)[1] == 1

    def test_bisquare_factors_its_start_and_each_solve(self, monkeypatch):
        model, calls = self._fit("bisquare", self.TABLE, self.TERMS, monkeypatch)
        assert model.iterations > 0 and calls == 1 + model.iterations

    @pytest.mark.parametrize("method", ["lar", "bisquare"])
    def test_bad_level_is_refused_before_the_walk(self, method, monkeypatch):
        # the start factors the design once; LAR's walk would then take an
        # LU step, and bisquare's would factor a weighted design
        lib = surface._scipy()
        calls = []

        def counted(name):
            def call(*args, **kwargs):
                if kwargs.get("lwork") != -1:
                    calls.append(name)
                return getattr(lib, name)(*args, **kwargs)
            return call

        counting = types.SimpleNamespace(
            **{**vars(lib), "geqp3": counted("geqp3"), "getrf": counted("getrf")})
        monkeypatch.setattr(surface, "_scipy", lambda: counting)
        with pytest.raises(ValueError, match="confidence level"):
            getattr(vf, f"fit_{method}")(self.TABLE, self.TERMS, confidence_level=1.5)
        assert calls == ["geqp3"]


class TestEvaluateSurface:
    def _model(self, terms, coefficients):
        return vf.PolySurfaceModel(
            term_set=terms,
            coefficients=tuple(coefficients),
            bounds=tuple((c, c) for c in coefficients),
            method="ols",
            n_points=len(coefficients),
            sigma=0.0,
            iterations=0,
        )

    def test_zero_coefficients(self):
        model = self._model(LINE, [0.0, 0.0])
        assert vf.evaluate_surface(model, 3.7, -1.2) == 0.0

    def test_hand_evaluation(self):
        model = self._model(vf.TermSet(((0, 0), (1, 1))), [1.0, 2.0])
        assert vf.evaluate_surface(model, 3.0, 4.0) == 25.0

    def test_origin_returns_intercept(self):
        model = self._model(vf.TermSet(((0, 0), (1, 0), (0, 1))), [7.0, 1.0, 1.0])
        assert vf.evaluate_surface(model, 0.0, 0.0) == 7.0

    def test_vectorized(self):
        model = self._model(LINE, [1.0, 2.0])
        out = vf.evaluate_surface(model, np.array([0.0, 1.0]), np.array([9.0, 9.0]))
        assert out.tolist() == [1.0, 3.0]

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(15)
        terms = vf.DEFAULT_TERM_SETS["remainder"]
        a = rng.normal(0, 1, len(terms))
        b = rng.normal(0, 1, len(terms))
        xs, ys = rng.uniform(0, 2, 20), rng.uniform(-2, 2, 20)
        out_sum = vf.evaluate_surface(self._model(terms, a + b), xs, ys)
        parts = vf.evaluate_surface(self._model(terms, a), xs, ys) + \
            vf.evaluate_surface(self._model(terms, b), xs, ys)
        scale = np.max(np.abs(parts)) or 1.0
        assert np.max(np.abs(out_sum - parts)) <= 1e-12 * scale

    @pytest.mark.parametrize("x, y", [
        (0.3, [-1.7, 0.0, -0.0, 2.5]),
        ([[0.1], [-0.0]], [1.0, -2.0, 3.5]),
        (np.array([]), np.array([])),
        ([0.1, 0.2, -0.3], [1.0, -2.0, 3.5]),
        ([0.5, np.nan, -0.0], [np.nan, 1.0, -0.0]),
    ], ids=["0-d by 1-d", "(2, 1) by (3,)", "empty", "lists", "NaN and -0.0"])
    def test_mixed_shapes_have_the_bits_of_the_full_arrays(self, x, y):
        rng = np.random.default_rng(24)
        terms = vf.DEFAULT_TERM_SETS["remainder"]
        model = self._model(terms, rng.normal(0, 1, len(terms)))
        full_x, full_y = np.broadcast_arrays(np.array(x, dtype=float),
                                             np.array(y, dtype=float))
        out = vf.evaluate_surface(model, x, y)
        expected = vf.evaluate_surface(model, full_x.copy(), full_y.copy())
        assert type(out) is np.ndarray and out.shape == full_x.shape
        assert _bits(out) == _bits(expected)

    def test_shape_mismatch_raises(self):
        model = self._model(LINE, [1.0, 2.0])
        with pytest.raises(ValueError):
            vf.evaluate_surface(model, np.zeros(2), np.zeros(3))


# points where the scalar path could part from the array path: signed
# zeros, units, subnormals, values whose powers overflow or underflow, and
# the non-finite values
SPECIAL_POINTS = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e-200, -1e200, 1.7976931348623157e308, math.inf, -math.inf, math.nan]


def _bits(a: np.ndarray) -> list[int]:
    """Each value's bit pattern, every NaN read as the same NaN: numpy's 0-d
    and n-d loops can give a NaN different signs, which no reader sees."""
    return np.where(np.isnan(a), math.nan, a).view(np.int64).tolist()


@st.composite
def surfaces_and_points(draw):
    """A model with exponents 0-6 and coefficients of any finite magnitude,
    and points drawn from all finite doubles and ``SPECIAL_POINTS``."""
    terms = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          min_size=1, max_size=12, unique=True))
    coefficients = draw(st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300])),
        min_size=len(terms), max_size=len(terms)))
    model = vf.PolySurfaceModel(
        term_set=vf.TermSet(tuple(terms)),
        coefficients=tuple(coefficients),
        bounds=tuple((c, c) for c in coefficients),
        method="ols", n_points=len(terms), sigma=0.0, iterations=0,
    )
    coordinate = st.one_of(st.floats(), st.sampled_from(SPECIAL_POINTS))
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8))
    return model, points


class TestScalarEvaluation:
    """A point evaluated alone has the bits it has inside an array."""

    @given(case=surfaces_and_points())
    @settings(max_examples=400, deadline=None)
    @example(case=(vf.PolySurfaceModel(
        term_set=vf.DEFAULT_TERM_SETS["trend"], coefficients=(1e300,) * 11,
        bounds=((1e300, 1e300),) * 11, method="ols", n_points=11, sigma=0.0,
        iterations=0), [(x, y) for x in SPECIAL_POINTS for y in SPECIAL_POINTS]))
    def test_point_has_the_bits_of_the_array_evaluation(self, case):
        model, points = case
        xs, ys = (np.array(column) for column in zip(*points))
        with np.errstate(all="ignore"):
            expected = vf.evaluate_surface(model, xs, ys)
            values = [vf.evaluate_surface(model, x, y) for x, y in points]
        assert all(type(v) is float for v in values)
        assert _bits(np.array(values)) == _bits(expected)

    def test_numpy_scalars_and_0d_arrays_are_points(self):
        model = vf.PolySurfaceModel(
            term_set=vf.DEFAULT_TERM_SETS["trend"], coefficients=tuple(range(11)),
            bounds=tuple((c, c) for c in range(11)), method="ols", n_points=11,
            sigma=0.0, iterations=0)
        for x, y in [(np.float64(0.3), np.float64(-1.7)), (np.array(0.3), np.array(-1.7)),
                     (2, np.int64(-3))]:
            value = vf.evaluate_surface(model, x, y)
            assert type(value) is float
            assert value == vf.evaluate_surface(model, float(x), float(y))


class TestPermutationInvariance:
    @pytest.mark.parametrize("fit", [vf.fit_ols, vf.fit_lar, vf.fit_bisquare])
    def test_row_order_does_not_matter(self, fit):
        rng = np.random.default_rng(16)
        terms = vf.DEFAULT_TERM_SETS["volatility"]
        table = planted_table(terms, rng.normal(0, 1, len(terms)), 90, rng, noise=0.2)
        perm = rng.permutation(90)
        shuffled = table.subset(perm)
        a = np.array(fit(table, terms).coefficients)
        b = np.array(fit(shuffled, terms).coefficients)
        assert np.max(np.abs(a - b)) <= 1e-10


class TestRemoveOutliers:
    def test_no_outliers_table_unchanged(self):
        rng = np.random.default_rng(17)
        table = planted_table(LINE, [1.0, 2.0], 50, rng, noise=0.1)
        model = vf.fit_ols(table, LINE)
        kept, excluded = vf.remove_outliers(table, model, 5.0)
        assert excluded == ()
        assert kept is table

    def test_planted_outlier_removed(self):
        # bounded uniform noise cannot itself reach 3 sigma, so the single
        # inflated target is the only row past the threshold
        rng = np.random.default_rng(18)
        n = 100
        x = np.linspace(0.01, 1.0, n)
        y = rng.uniform(0.5, 2.0, n)
        target = 1.0 + 2.0 * x + rng.uniform(-0.1, 0.1, n)
        target[33] += 30.0
        table = make_table(x, y, target)
        model = vf.fit_lar(table, LINE)
        kept, excluded = vf.remove_outliers(table, model, 3.0)
        assert excluded == (34,)          # provenance is 1-based
        assert len(kept) == 99

    def test_identical_residuals_keep_everything(self):
        table = make_table(
            np.linspace(0.1, 1, 20), np.ones(20), np.full(20, 4.0)
        )
        model = vf.fit_ols(table, vf.TermSet(((0, 0),)))
        shifted = make_table(table.x, table.y, table.target + 2.5)
        kept, excluded = vf.remove_outliers(shifted, model, 3.0)
        assert excluded == ()
        assert len(kept) == 20

    def test_over_exclusion_raises(self):
        # most rows fit exactly, so the off-surface rows standardize to
        # infinity; dropping them would leave fewer rows than terms
        x = np.linspace(0.1, 1, 6)
        target = np.full(6, 1.0)
        target[-2:] = 50.0
        table = make_table(x, np.ones(6), target)
        terms = vf.TermSet(((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)))
        model = vf.PolySurfaceModel(
            term_set=terms,
            coefficients=(1.0, 0.0, 0.0, 0.0, 0.0),
            bounds=((1.0, 1.0),) + ((0.0, 0.0),) * 4,
            method="ols",
            n_points=6,
            sigma=0.0,
            iterations=0,
        )
        with pytest.raises(ExclusionError):
            vf.remove_outliers(table, model, 3.0)

    def test_exclusion_leaving_as_many_rows_as_terms_raises(self):
        # a refit on p rows interpolates them and has no residual scale
        table = make_table([0.1, 0.5, 1.0], np.ones(3), [1.0, 1.0, 50.0])
        model = vf.PolySurfaceModel(
            term_set=LINE,
            coefficients=(1.0, 0.0),
            bounds=((1.0, 1.0), (0.0, 0.0)),
            method="ols",
            n_points=3,
            sigma=0.0,
            iterations=0,
        )
        with pytest.raises(ExclusionError, match="no more rows than model terms"):
            vf.remove_outliers(table, model, 3.0)

    def test_empty_table_is_insufficient_data(self):
        # it raised numpy's "zero-size array to reduction operation" ValueError
        model = vf.fit_ols(make_table([0.5, 1.0], [1.0, 2.0], [1.0, 2.0]), LINE)
        with pytest.raises(InsufficientData):
            vf.remove_outliers(make_table([], [], []), model, 3.0)

    def test_threshold_validation(self):
        table = make_table([0.5, 1.0], [1.0, 2.0], [1.0, 2.0])
        model = vf.fit_ols(table, LINE)
        with pytest.raises(ValueError):
            vf.remove_outliers(table, model, 0.0)

    @pytest.mark.parametrize("threshold", [math.nan, -math.inf])
    def test_threshold_that_compares_false_is_rejected(self, threshold):
        # every comparison with NaN is False, so a NaN threshold would keep
        # no row at all
        table = make_table([0.5, 1.0, 1.5], [1.0, 2.0, 3.0], [1.0, 2.0, 2.5])
        model = vf.fit_ols(table, LINE)
        with pytest.raises(ValueError, match="threshold"):
            vf.remove_outliers(table, model, threshold)

    @staticmethod
    def _line_fit(noise):
        table = planted_table(LINE, [1.0, 2.0], 60, np.random.default_rng(17), noise=noise)
        return table, vf.fit_ols(table, LINE)

    @pytest.mark.parametrize("threshold", [True, "3", None, [3.0]])
    def test_threshold_that_is_not_a_number_is_rejected(self, threshold):
        # True would run as a threshold of 1.0
        table, model = self._line_fit(0.1)
        with pytest.raises(ValueError, match="threshold must be a finite number"):
            vf.remove_outliers(table, model, threshold)

    @pytest.mark.parametrize("threshold", [math.inf, np.float64(math.inf)])
    def test_infinite_threshold_keeps_every_row(self, threshold):
        table, model = self._line_fit(0.1)
        kept, excluded = vf.remove_outliers(table, model, threshold)
        assert kept is table and excluded == ()

    def test_infinite_threshold_keeps_rows_off_an_exact_fit(self):
        # most rows lie on the line, so the residual scale is 0 and row 5
        # standardizes to infinity; it was dropped even at an infinite
        # threshold
        x = np.linspace(0.1, 1, 9)
        target = 2.0 * x + 1.0
        target[5] += 5.0
        table = make_table(x, np.zeros(9), target)
        model = vf.fit_lar(table, LINE)
        assert vf.remove_outliers(table, model, 3.0)[1] == (6,)
        kept, excluded = vf.remove_outliers(table, model, math.inf)
        assert kept is table and excluded == ()

    # float16 and float32 warned "overflow encountered in cast" when compared
    # with float64's max
    @pytest.mark.parametrize("kind", [np.float64, np.float32, np.float16])
    def test_numpy_threshold_reads_as_its_float(self, kind):
        table, model = self._line_fit(0.5)
        excluded = vf.remove_outliers(table, model, kind(1.0))[1]
        assert excluded and excluded == vf.remove_outliers(table, model, 1.0)[1]


class TestModelRecord:
    """A model refuses at construction what ``model_from_document`` refuses."""

    @staticmethod
    def _model(**fields):
        return vf.PolySurfaceModel(**{
            "term_set": LINE, "coefficients": (1.0, 2.0),
            "bounds": ((0.5, 1.5), (1.5, 2.5)), "method": "ols", "n_points": 5,
            "sigma": 0.25, "iterations": 0, "converged": True, **fields})

    @pytest.mark.parametrize("field, value", [
        ("n_points", 2.5),
        ("n_points", -3),
        ("iterations", True),
        ("converged", "no"),
        ("sigma", -1.0),
        ("sigma", math.nan),
    ])
    def test_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            self._model(**{field: value})

    def test_float32_coefficients_are_stored_as_floats(self):
        model = self._model(coefficients=np.array([1.0, 2.0], dtype=np.float32),
                            bounds=np.array([[0.5, 1.5], [1.5, 2.5]], dtype=np.float16))
        assert model == self._model()
        assert all(type(c) is float for c in model.coefficients)

    def test_longdouble_beyond_float64_is_refused(self):
        huge = np.longdouble(sys.float_info.max) * 2
        if not np.isfinite(huge):
            pytest.skip("longdouble is float64 on this platform")
        with pytest.raises(ValueError, match="coefficient must be a finite number"):
            self._model(coefficients=(huge, 2.0), bounds=((-huge, huge), (1.5, 2.5)))

    def test_numpy_count_is_stored_as_int(self):
        model = self._model(n_points=np.int64(5))
        assert type(model.n_points) is int
        assert vf.model_from_document(vf.model_to_document(model)) == model


class TestModelDocuments:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        terms = vf.DEFAULT_TERM_SETS["seasonal"]
        table = planted_table(terms, rng.normal(0, 1, len(terms)), 60, rng, noise=0.2)
        model = vf.fit_lar(table, terms)
        loaded = vf.model_from_document(vf.model_to_document(model))
        assert loaded.coefficients == model.coefficients
        assert loaded.bounds == model.bounds
        assert loaded.term_set == model.term_set
        assert loaded.method == model.method
        assert loaded.sigma == model.sigma
        assert loaded.n_points == model.n_points
        assert loaded.iterations == model.iterations
        assert loaded.converged == model.converged

    def test_truncated_document(self):
        with pytest.raises(FormatError):
            vf.model_from_document('{"method": "ols", "terms": [[0, 0')

    def test_missing_field(self):
        with pytest.raises(FormatError):
            vf.model_from_document('{"method": "ols"}')

    def test_non_object_document(self):
        with pytest.raises(FormatError):
            vf.model_from_document("[1, 2, 3]")

    @pytest.fixture
    def document(self):
        rng = np.random.default_rng(23)
        terms = vf.DEFAULT_TERM_SETS["volatility"]
        table = planted_table(terms, rng.normal(0, 1, len(terms)), 40, rng, noise=0.1)
        return json.loads(vf.model_to_document(vf.fit_ols(table, terms)))

    @pytest.mark.parametrize("field, value", [
        ("converged", "false"),
        ("converged", 0),
        ("sigma", -0.5),
        ("sigma", "0.1"),
        ("n_points", -40),
        ("n_points", 40.0),
        ("iterations", 2.7),
        ("iterations", -1),
        ("iterations", True),
        ("method", ["ols"]),
        ("terms", [[0, 0], [0, 1], [0, 2], [1, 0], [1.5, 1]]),
    ])
    def test_mistyped_or_out_of_range_field(self, document, field, value):
        document[field] = value
        with pytest.raises(FormatError):
            vf.model_from_document(json.dumps(document))

    def test_string_coefficient_rejected(self, document):
        document["coefficients"][0] = repr(document["coefficients"][0])
        with pytest.raises(FormatError):
            vf.model_from_document(json.dumps(document))

    def test_valid_document_still_accepted(self, document):
        model = vf.model_from_document(json.dumps(document))
        assert model.converged is True
        assert model.iterations == 0

    @pytest.mark.parametrize("field, value", [
        ("coefficients", [math.inf, 0.0, 0.0, 0.0, 0.0]),
        ("bounds", [[-math.inf, math.inf]] * 5),
        ("bounds", [[math.nan, 1.0]] * 5),
        ("sigma", math.inf),
        ("sigma", 10 ** 400),
    ])
    def test_non_finite_number_rejected(self, document, field, value):
        document[field] = value
        if field == "coefficients":
            document["bounds"] = [[-math.inf, math.inf]] * 5
        with pytest.raises(FormatError, match="finite"):
            vf.model_from_document(json.dumps(document))

    def test_deep_nesting_rejected(self, document):
        text = json.dumps(document).replace('"terms": [', '"terms": ' + "[" * 5000, 1)
        with pytest.raises(FormatError):
            vf.model_from_document(text)


def _model_documents():
    rng = np.random.default_rng(29)
    documents = []
    for method, name in zip(vf.FIT_METHODS, ("volatility", "seasonal", "remainder")):
        terms = vf.DEFAULT_TERM_SETS[name]
        table = planted_table(terms, rng.normal(0, 1, len(terms)), 40, rng, noise=0.1)
        fit = getattr(vf, f"fit_{method}")
        documents.append(json.loads(vf.model_to_document(fit(table, terms))))
    return documents


MODEL_DOCUMENTS = _model_documents()


class TestModelDocumentFuzz:
    """A defective model document is refused with FormatError, or read exactly."""

    @given(text=mutated_documents(MODEL_DOCUMENTS))
    @example(text=json.dumps({**MODEL_DOCUMENTS[0], "sigma": math.inf}))
    @example(text=json.dumps({**MODEL_DOCUMENTS[0],
                              "bounds": [[-math.inf, math.inf]] * 5}))
    @settings(max_examples=400, deadline=None)
    def test_rejected_or_read_back(self, text):
        assert_rejected_or_read_back(
            vf.model_from_document, vf.model_to_document, text, FormatError)
