"""Log returns and their decomposition into trend, seasonal, and remainder.

The decomposition applies an iterated centered moving average (a low-pass
filter) at two window/iteration settings: the slow filter output is the
long-term trend, the difference between the fast and slow outputs is the
seasonal component, and whatever the fast filter leaves behind is the
remainder.  The three parts sum back to the original series by
construction.

Missing values are carried as NaN.  Each window averages whatever
non-missing points it can see, truncating at the series edges, so every
component keeps the length of its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientData, WindowError
from .ingest import PriceSeries


@dataclass(frozen=True)
class ReturnSeries:
    """Log returns r(t) = ln P(t+1) - ln P(t), indexed t = 1..T-1."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise ValueError("return series must be 1-d")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class DecomposedSeries:
    """Original returns plus trend, seasonal, and remainder components."""

    original: ReturnSeries
    trend: np.ndarray
    seasonal: np.ndarray
    remainder: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "trend", np.asarray(self.trend, dtype=float))
        object.__setattr__(self, "seasonal", np.asarray(self.seasonal, dtype=float))
        object.__setattr__(self, "remainder", np.asarray(self.remainder, dtype=float))
        n = len(self.original)
        if not (self.trend.size == self.seasonal.size == self.remainder.size == n):
            raise ValueError("all components must match the original length")

    def __len__(self) -> int:
        return len(self.original)

    def component(self, name: str) -> np.ndarray:
        """Series for one of volatility, trend, seasonal, remainder."""
        if name == "volatility":
            return self.original.values
        if name in ("trend", "seasonal", "remainder"):
            return getattr(self, name)
        raise KeyError(name)


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """r(t) = ln P(t+1) - ln P(t); a return is missing when either price is.

    Non-positive prices have no logarithm and are rejected outright.
    """
    if len(prices) < 2:
        raise InsufficientData("need at least two prices to form a return")
    values = prices.values
    if np.any(~np.isnan(values) & (values <= 0)):
        raise ValueError("prices must be positive to take log returns")
    with np.errstate(invalid="ignore"):
        logs = np.log(values)
    return ReturnSeries(logs[1:] - logs[:-1])


def moving_average_pass(series, window: int) -> np.ndarray:
    """One centered moving average over a NaN-coded series.

    output[i] is the mean of the non-missing entries in the window
    [i-k, i+k] clipped to the series, k = (window - 1) / 2; it is NaN only
    when that window holds no data at all.  Output length equals input
    length.

    Row j of a ``sliding_window_view`` of the zero-padded series holds every
    window's j-th entry, so ``np.add.reduce`` down the rows sums each window
    from 0.0 in ascending index order; the pad's zeros change no sum, so it
    is a plain left-to-right sum, bit for bit.  The window counts are small
    integers, so taking them as differences of a running count is exact.
    """
    if window < 1 or window % 2 == 0:
        raise WindowError(f"window must be odd and >= 1, got {window}")
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise WindowError("series must be 1-d")
    n = values.size
    if n == 0:
        return values.copy()
    k = (window - 1) // 2
    missing = np.isnan(values)
    running = np.concatenate(([0.0], np.cumsum(~missing, dtype=float)))
    index = np.arange(n)
    count = running[np.minimum(index + k + 1, n)] - running[np.maximum(index - k, 0)]
    padded = np.zeros(n + 2 * k)
    padded[k:k + n] = np.where(missing, 0.0, values)
    total = np.add.reduce(sliding_window_view(padded, n), axis=0)
    out = np.full(n, np.nan)
    np.divide(total, count, out=out, where=count > 0)
    return out


def kz_filter(series, window: int, iterations: int) -> np.ndarray:
    """Iterated moving average: each pass's output feeds the next pass."""
    if iterations < 1:
        raise WindowError(f"iterations must be >= 1, got {iterations}")
    out = np.asarray(series, dtype=float)
    for _ in range(iterations):
        out = moving_average_pass(out, window)
    return out


def decompose(returns: ReturnSeries,
              trend_params: tuple[int, int] = (365, 3),
              seasonal_params: tuple[int, int] = (15, 5)) -> DecomposedSeries:
    """Split returns into trend, seasonal, and remainder components.

    trend is the slow filter output; seasonal is the fast output minus the
    slow output; remainder is the original minus the fast output.  The
    three therefore sum to the original wherever all are defined.
    """
    values = returns.values
    slow = kz_filter(values, *trend_params)
    fast = kz_filter(values, *seasonal_params)
    return DecomposedSeries(
        original=returns,
        trend=slow,
        seasonal=fast - slow,
        remainder=values - fast,
    )
