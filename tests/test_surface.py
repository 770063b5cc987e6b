"""Tests for feature construction and the three surface-fitting methods."""

import json
import math

import numpy as np
import pytest
from scipy import stats

import volfit as vf
from volfit.errors import (
    DegreesOfFreedomError,
    ExclusionError,
    FormatError,
    InsufficientData,
    RankError,
)
from volfit.surface import _lar_iterate, _qr_solve

from helpers import make_table, planted_table

LINE = vf.TermSet(((0, 0), (1, 0)))


class TestTermSet:
    def test_parse(self):
        terms = vf.TermSet.parse("0:0, 0:1 ,1:0")
        assert terms.terms == ((0, 0), (0, 1), (1, 0))

    def test_parse_rejects_bad_pair(self):
        with pytest.raises(ValueError):
            vf.TermSet.parse("0-0")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            vf.TermSet(((1, 1), (1, 1)))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            vf.TermSet(((-1, 0),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vf.TermSet(())

    def test_default_sets_cover_all_series(self):
        assert set(vf.DEFAULT_TERM_SETS) == set(vf.SERIES_NAMES)
        assert len(vf.DEFAULT_TERM_SETS["volatility"]) == 5
        assert len(vf.DEFAULT_TERM_SETS["trend"]) == 11
        assert len(vf.DEFAULT_TERM_SETS["seasonal"]) == 6
        assert len(vf.DEFAULT_TERM_SETS["remainder"]) == 9


class TestFeatureSpec:
    def test_sources_must_differ(self):
        with pytest.raises(ValueError):
            vf.FeatureSpec(x_source="lagged_value", y_source="lagged_value")

    def test_lag_must_be_positive(self):
        with pytest.raises(ValueError):
            vf.FeatureSpec(lag=0)

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            vf.FeatureSpec(x_source="volume")


class TestBuildFeatureTable:
    def test_default_mapping(self):
        table = vf.build_feature_table([1.0, 2.0, 3.0, 4.0], vf.FeatureSpec())
        assert table.x.tolist() == [0.5, 0.75, 1.0]
        assert table.y.tolist() == [1.0, 2.0, 3.0]
        assert table.target.tolist() == [2.0, 3.0, 4.0]
        assert table.provenance.tolist() == [2, 3, 4]

    def test_all_missing(self):
        with pytest.raises(InsufficientData):
            vf.build_feature_table([np.nan] * 5, vf.FeatureSpec())

    def test_lag_two_on_length_three(self):
        table = vf.build_feature_table([1.0, 2.0, 3.0], vf.FeatureSpec(lag=2))
        assert len(table) == 1
        assert table.x.tolist() == [1.0]
        assert table.y.tolist() == [1.0]
        assert table.target.tolist() == [3.0]

    def test_series_not_longer_than_lag(self):
        with pytest.raises(InsufficientData):
            vf.build_feature_table([1.0, 2.0], vf.FeatureSpec(lag=2))

    def test_rows_with_missing_sources_dropped(self):
        table = vf.build_feature_table(
            [1.0, np.nan, 3.0, 4.0], vf.FeatureSpec()
        )
        # targets at t=2 and t=3 touch the missing entry; only t=4 survives
        assert table.provenance.tolist() == [4]
        assert table.y.tolist() == [3.0]

    def test_swapped_sources(self):
        spec = vf.FeatureSpec(
            x_source="lagged_value", y_source="time_index_scaled"
        )
        table = vf.build_feature_table([1.0, 2.0, 3.0, 4.0], spec)
        assert table.x.tolist() == [1.0, 2.0, 3.0]
        assert table.y.tolist() == [0.5, 0.75, 1.0]


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
        # the IRLS objective should beat a coarse grid-search L1 minimizer
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
        r = table.target - X @ beta0
        floor = 1e-8 * math.sqrt(float(r @ r) / (80 - 2))
        _, _, _, history = _lar_iterate(
            X, table.target, beta0, floor, LINE, vf.IrlsOptions()
        )
        assert len(history) > 1
        for before, after in zip(history, history[1:]):
            assert after <= before * (1.0 + 1e-12)

    def test_nonconvergence_reports_flag(self):
        rng = np.random.default_rng(8)
        table = planted_table(LINE, [1.0, 2.0], 500, rng, noise=0.5)
        model = vf.fit_lar(table, LINE, vf.IrlsOptions(max_iterations=2))
        assert not model.converged
        assert model.iterations <= 2

    def test_interpolating_table_short_circuits(self):
        table = make_table([0.25, 1.0], [1.0, 2.0], [5.0, 7.0])
        model = vf.fit_lar(table, LINE)
        assert model.iterations == 0
        assert model.converged
        r = table.target - vf.evaluate_surface(model, table.x, table.y)
        assert np.max(np.abs(r)) < 1e-12

    def test_irls_options_validation(self):
        with pytest.raises(ValueError):
            vf.IrlsOptions(max_iterations=0)
        with pytest.raises(ValueError):
            vf.IrlsOptions(tolerance=0.0)
        with pytest.raises(ValueError):
            vf.IrlsOptions(lar_floor=-1.0)


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

    def test_stored_bounds_match_recomputed(self):
        rng = np.random.default_rng(13)
        table = planted_table(LINE, [1.0, -2.0], 40, rng, noise=0.1)
        for fit in (vf.fit_ols, vf.fit_lar, vf.fit_bisquare):
            model = fit(table, LINE)
            recomputed = vf.confidence_bounds(model, table, 0.95)
            for (lo1, hi1), (lo2, hi2) in zip(model.bounds, recomputed):
                assert lo1 == pytest.approx(lo2, rel=1e-9, abs=1e-12)
                assert hi1 == pytest.approx(hi2, rel=1e-9, abs=1e-12)

    def test_wider_at_higher_level(self):
        rng = np.random.default_rng(14)
        table = planted_table(LINE, [1.0, -2.0], 40, rng, noise=0.1)
        model = vf.fit_ols(table, LINE)
        narrow = vf.confidence_bounds(model, table, 0.5)
        wide = vf.confidence_bounds(model, table, 0.99)
        for (nlo, nhi), (wlo, whi) in zip(narrow, wide):
            assert whi - wlo > nhi - nlo

    def test_degrees_of_freedom_error(self):
        table = make_table([0.5, 1.0], [1.0, 2.0], [1.0, 2.0])
        model = vf.fit_ols(table, LINE)
        with pytest.raises(DegreesOfFreedomError):
            vf.confidence_bounds(model, table, 0.95)

    def test_deserialized_model_bounds_reconstructible(self):
        # a loaded document carries no IRLS weights; the bounds must still
        # be recoverable from the residuals
        rng = np.random.default_rng(41)
        table = planted_table(LINE, [1.0, -2.0], 60, rng, noise=0.15)
        for fit in (vf.fit_ols, vf.fit_lar, vf.fit_bisquare):
            model = fit(table, LINE)
            loaded = vf.model_from_document(vf.model_to_document(model))
            assert loaded.weights is None
            recomputed = vf.confidence_bounds(loaded, table, 0.95)
            for (lo1, hi1), (lo2, hi2) in zip(model.bounds, recomputed):
                assert lo1 == pytest.approx(lo2, rel=1e-6, abs=1e-9)
                assert hi1 == pytest.approx(hi2, rel=1e-6, abs=1e-9)

    def test_reloaded_lar_bounds_equal_stored_bounds(self):
        # the reload floors LAR weights at lar_floor times the sigma of the
        # OLS start, as the fit did, not at the final sigma
        rng = np.random.default_rng(1)
        terms = vf.DEFAULT_TERM_SETS["volatility"]
        table = planted_table(terms, rng.normal(0, 1, len(terms)), 30, rng)
        table = make_table(table.x, table.y, table.target + 0.1 * rng.standard_t(2, 30))
        model = vf.fit_lar(table, terms, vf.IrlsOptions(max_iterations=500))
        loaded = vf.model_from_document(vf.model_to_document(model))
        assert vf.confidence_bounds(loaded, table, 0.95) == model.bounds


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

    def test_threshold_validation(self):
        table = make_table([0.5, 1.0], [1.0, 2.0], [1.0, 2.0])
        model = vf.fit_ols(table, LINE)
        with pytest.raises(ValueError):
            vf.remove_outliers(table, model, 0.0)


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
