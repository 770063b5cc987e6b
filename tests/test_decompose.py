"""Tests for log returns, the moving-average filter, and the decomposition."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volfit as vf
from volfit.errors import InsufficientData, WindowError

from helpers import brute_force_moving_average


def price_series(values):
    start = dt.date(2011, 1, 3)
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(values)))
    return vf.PriceSeries(dates, np.array(values, dtype=float))


class TestLogReturns:
    def test_constant_prices(self):
        returns = vf.log_returns(price_series([100.0, 100.0, 100.0]))
        assert returns.values.tolist() == [0.0, 0.0]

    def test_single_step(self):
        returns = vf.log_returns(price_series([100.0, 110.0]))
        assert returns.values[0] == pytest.approx(math.log(110.0 / 100.0), abs=1e-12)

    def test_missing_propagates_to_both_neighbours(self):
        returns = vf.log_returns(price_series([100.0, np.nan, 120.0]))
        assert np.isnan(returns.values).tolist() == [True, True]

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            vf.log_returns(price_series([100.0]))

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError):
            vf.log_returns(price_series([100.0, -5.0]))

    def test_length_is_one_less(self):
        returns = vf.log_returns(price_series(np.linspace(10, 20, 40)))
        assert len(returns) == 39


class TestMovingAveragePass:
    def test_constant_invariance(self):
        out = vf.moving_average_pass([5.0, 5.0, 5.0], 3)
        assert out.tolist() == [5.0, 5.0, 5.0]

    def test_truncated_edges(self):
        out = vf.moving_average_pass([1.0, 2.0, 3.0, 4.0, 5.0], 3)
        assert out.tolist() == [1.5, 2.0, 3.0, 4.0, 4.5]

    def test_missing_centre_averages_neighbours(self):
        out = vf.moving_average_pass([1.0, np.nan, 3.0], 3)
        assert out[1] == 2.0

    def test_even_window_rejected(self):
        with pytest.raises(WindowError):
            vf.moving_average_pass([1.0, 2.0], 2)

    def test_two_dimensional_series_rejected(self):
        with pytest.raises(WindowError, match="series must be 1-d"):
            vf.moving_average_pass(np.ones((3, 2)), 3)

    def test_empty_series_gives_an_empty_copy(self):
        values = np.array([], dtype=float)
        out = vf.moving_average_pass(values, 5)
        assert out.shape == (0,) and out is not values

    def test_window_one_is_identity(self):
        values = np.array([1.0, np.nan, 3.0])
        out = vf.moving_average_pass(values, 1)
        assert np.array_equal(out, values, equal_nan=True)

    def test_window_larger_than_series_gives_global_mean(self):
        values = np.array([1.0, 2.0, np.nan, 4.0])
        out = vf.moving_average_pass(values, 99)
        expected = (1.0 + 2.0 + 4.0) / 3
        assert np.allclose(out, expected)

    def test_all_missing_window_stays_missing(self):
        values = np.array([np.nan, np.nan, np.nan, 1.0])
        out = vf.moving_average_pass(values, 3)
        assert np.isnan(out[0])
        assert not np.isnan(out[2])

    @pytest.mark.parametrize("window", [1, 3, 7, 31])
    def test_matches_brute_force_exactly(self, window):
        rng = np.random.default_rng(window)
        values = rng.normal(0, 1, 257)
        values[rng.random(257) < 0.1] = np.nan
        fast = vf.moving_average_pass(values, window)
        slow = brute_force_moving_average(values, window)
        assert np.array_equal(np.isnan(fast), np.isnan(slow))
        assert np.array_equal(
            np.nan_to_num(fast, nan=0.0), np.nan_to_num(slow, nan=0.0)
        )

    @pytest.mark.parametrize("n, window", [
        (1, 1), (1, 3), (1, 365), (2, 5), (3, 7), (5, 11), (5, 365),
        (40, 81), (257, 365), (9000, 15),
    ])
    def test_matches_brute_force_bit_for_bit(self, n, window):
        # windows of 2n + 1 and more reach past both ends from every row
        rng = np.random.default_rng(n * 1000 + window)
        values = rng.standard_t(3, n) * 10.0 ** rng.uniform(-8, 3, n)
        values[rng.random(n) < 0.1] = np.nan
        fast = vf.moving_average_pass(values, window)
        assert fast.tobytes() == brute_force_moving_average(values, window).tobytes()

    @pytest.mark.parametrize("values", [
        [np.nan], [np.nan] * 7, [-0.0] * 4, [-0.0, np.nan, -0.0], [0.0, -0.0, 0.0],
    ])
    @pytest.mark.parametrize("window", [1, 3, 15])
    def test_all_missing_and_signed_zero_series(self, values, window):
        fast = vf.moving_average_pass(np.array(values), window)
        assert fast.tobytes() == brute_force_moving_average(values, window).tobytes()

    @pytest.mark.parametrize("values", [
        [-0.0, np.nan, 1.5, -0.0, np.nan, -2.25, 1e-300], [-0.0, np.nan, -0.0],
    ])
    def test_window_wider_than_twice_the_series_keeps_its_bytes(self, values):
        # the half-width is capped at n, so the pad and the sum stop growing
        values = np.array(values)
        n = values.size
        wide = vf.moving_average_pass(values, 10**6 + 1)
        assert wide.tobytes() == vf.moving_average_pass(values, 2 * n + 1).tobytes()
        assert wide.tobytes() == brute_force_moving_average(values, 2 * n + 1).tobytes()

    @given(
        values=st.lists(
            st.one_of(
                st.floats(-100, 100, allow_nan=False),
                st.just(float("nan")),
            ),
            min_size=1,
            max_size=60,
        ),
        half_width=st.integers(0, 8),
    )
    @settings(max_examples=120, deadline=None)
    def test_output_within_window_bounds(self, values, half_width):
        window = 2 * half_width + 1
        arr = np.array(values)
        out = vf.moving_average_pass(arr, window)
        n = arr.size
        for i in range(n):
            chunk = arr[max(0, i - half_width):min(n, i + half_width + 1)]
            chunk = chunk[~np.isnan(chunk)]
            if chunk.size == 0:
                assert np.isnan(out[i])
            else:
                assert chunk.min() - 1e-9 <= out[i] <= chunk.max() + 1e-9

    # 3.0 raised IndexError, "3" TypeError, and True ran as a window of 1
    @pytest.mark.parametrize("window", [3.0, "3", True])
    def test_window_that_is_not_an_integer_refused(self, window):
        with pytest.raises(WindowError, match="window must be a non-negative integer"):
            vf.moving_average_pass([1.0, 2.0, 3.0], window)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_window_keeps_its_bytes(self, kind):
        values = np.random.default_rng(9).normal(0, 1, 50)
        assert vf.moving_average_pass(values, kind(5)).tobytes() == \
            vf.moving_average_pass(values, 5).tobytes()


class TestKzFilter:
    def test_single_iteration_equals_one_pass(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0, 1, 100)
        assert np.array_equal(
            vf.kz_filter(values, 5, 1), vf.moving_average_pass(values, 5)
        )

    def test_constant_series_unchanged(self):
        values = np.full(50, 5.0)
        for window, iters in ((3, 1), (7, 4), (15, 5)):
            assert np.allclose(vf.kz_filter(values, window, iters), 5.0)

    def test_two_passes(self):
        out = vf.kz_filter([1.0, 2.0, 3.0, 4.0, 5.0], 3, 2)
        expected = [1.75, 13.0 / 6.0, 3.0, 23.0 / 6.0, 4.25]
        assert out == pytest.approx(expected, abs=1e-12)

    def test_invalid_iterations(self):
        with pytest.raises(WindowError):
            vf.kz_filter([1.0, 2.0], 3, 0)

    def test_even_window_propagates(self):
        with pytest.raises(WindowError):
            vf.kz_filter([1.0, 2.0], 4, 2)

    # 2.0 raised TypeError and True ran one pass
    @pytest.mark.parametrize("iterations", [2.0, True, "2"])
    def test_iterations_that_are_not_an_integer_refused(self, iterations):
        with pytest.raises(WindowError,
                           match="iterations must be a non-negative integer"):
            vf.kz_filter([1.0, 2.0, 3.0], 3, iterations)

    def test_numpy_window_and_iterations_keep_their_bytes(self):
        values = np.random.default_rng(10).normal(0, 1, 80)
        assert vf.kz_filter(values, np.int64(7), np.int32(3)).tobytes() == \
            vf.kz_filter(values, 7, 3).tobytes()


class TestDecompose:
    def test_identity_on_random_series(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            values = rng.normal(0, 0.02, 400)
            values[rng.random(400) < 0.05] = np.nan
            dec = vf.decompose(vf.ReturnSeries(values), (35, 3), (7, 5))
            total = dec.trend + dec.seasonal + dec.remainder
            mask = ~np.isnan(values)
            scale = np.max(np.abs(values[mask]))
            assert np.max(np.abs(total[mask] - values[mask])) <= 1e-12 * scale

    def test_constant_series(self):
        dec = vf.decompose(vf.ReturnSeries(np.full(100, 0.25)), (15, 2), (5, 2))
        assert np.allclose(dec.trend, 0.25, atol=1e-12)
        assert np.allclose(dec.seasonal, 0.0, atol=1e-12)
        assert np.allclose(dec.remainder, 0.0, atol=1e-12)

    def test_sinusoid_lands_outside_trend(self):
        t = np.arange(1, 2001)
        values = np.sin(2 * np.pi * t / 10.0)
        dec = vf.decompose(vf.ReturnSeries(values), (365, 3), (15, 5))
        var_total = np.var(values)
        var_trend = np.var(dec.trend)
        var_rest = np.var(dec.seasonal + dec.remainder)
        assert var_rest >= 0.9 * var_total
        assert var_trend <= 0.1 * var_total

    def test_missing_inputs_leave_components_finite_where_data_exists(self):
        rng = np.random.default_rng(23)
        values = rng.normal(0, 1, 300)
        values[rng.random(300) < 0.2] = np.nan
        dec = vf.decompose(vf.ReturnSeries(values), (21, 2), (5, 3))
        mask = ~np.isnan(values)
        for component in (dec.trend, dec.seasonal, dec.remainder):
            assert np.all(np.isfinite(component[mask]))

    def test_component_accessor(self):
        values = np.arange(1.0, 31.0)
        dec = vf.decompose(vf.ReturnSeries(values), (5, 1), (3, 1))
        assert np.array_equal(dec.component("volatility"), values)
        assert np.array_equal(dec.component("trend"), dec.trend)
        with pytest.raises(KeyError):
            dec.component("noise")

    def test_two_dimensional_returns_rejected(self):
        with pytest.raises(ValueError, match="return series must be 1-d"):
            vf.ReturnSeries(np.ones((3, 2)))

    def test_short_component_rejected(self):
        returns = vf.ReturnSeries(np.arange(1.0, 6.0))
        with pytest.raises(ValueError, match="match the original length"):
            vf.DecomposedSeries(returns, np.zeros(5), np.zeros(4), np.zeros(5))

    def test_defaults_match_documented_parameters(self):
        rng = np.random.default_rng(29)
        values = rng.normal(0, 1, 500)
        returns = vf.ReturnSeries(values)
        explicit = vf.decompose(returns, (365, 3), (15, 5))
        default = vf.decompose(returns)
        assert np.array_equal(default.trend, explicit.trend)
        assert np.array_equal(default.seasonal, explicit.seasonal)
