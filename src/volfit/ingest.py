"""CSV price ingestion and pipeline configuration."""

from __future__ import annotations

import csv
import datetime as dt
import io
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter, lt
from typing import Mapping

import numpy as np

from .errors import ConfigError, FormatError, OrderError, ParseError
from .surface import (
    DEFAULT_TERM_SETS,
    FIT_METHODS,
    SERIES_NAMES,
    TermSet,
    _count,
    _number,
    _plain,
    _plain_number,
    _threshold,
)

MISSING_MARKERS = ("", "null", "NaN")


def _increasing(dates: tuple) -> bool:
    """Whether each date is later than the one before, in one C-level pass."""
    return all(map(lt, dates, dates[1:]))


@dataclass(frozen=True)
class PriceSeries:
    """Dated price observations; missing values are carried as NaN.

    Dates are kept for validation and reporting only; downstream math runs
    on the integer trading-day index 1..T.
    """

    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.dates) != self.values.size or self.values.ndim != 1:
            raise ValueError("dates and values must be equally long 1-d sequences")
        if not _increasing(self.dates):
            prev, cur = next((prev, cur) for prev, cur in zip(self.dates, self.dates[1:])
                             if not prev < cur)
            raise OrderError(f"dates must be strictly increasing, got {prev} then {cur}")
        finite_or_nan = np.isfinite(self.values) | np.isnan(self.values)
        if not np.all(finite_or_nan):
            raise ValueError("prices must be finite numbers or missing")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def missing(self) -> np.ndarray:
        return np.isnan(self.values)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline needs beyond the price file itself; a value it
    cannot use (a float count, a string or bool number, a non-string price
    column, a term-set list) raises ConfigError naming its field."""

    price_column: str | None = None
    kz_trend: tuple[int, int] = (365, 3)
    kz_seasonal: tuple[int, int] = (15, 5)
    n_train: int = 2000
    lag: int = 1
    term_sets: Mapping[str, TermSet] = field(
        default_factory=lambda: dict(DEFAULT_TERM_SETS)
    )
    fit_method: str = "lar"
    outlier_threshold: float = 3.0
    confidence_level: float = 0.95

    def __post_init__(self):
        if not (self.price_column is None or isinstance(self.price_column, str)):
            raise ConfigError(
                f"price_column must be a string or None, got {self.price_column!r}")
        try:
            for name in ("kz_trend", "kz_seasonal"):
                try:
                    window, iters = getattr(self, name)
                except (TypeError, ValueError):
                    raise ConfigError(f"{name} must be a (window, iterations) pair, "
                                      f"got {getattr(self, name)!r}") from None
                if _count(window, f"{name} window") < 3 or window % 2 == 0:
                    raise ConfigError(f"{name} window must be odd and >= 3, got {window}")
                if _count(iters, f"{name} iterations") < 1:
                    raise ConfigError(f"{name} iterations must be >= 1, got {iters}")
            if _count(self.n_train, "n_train") <= 0:
                raise ConfigError(f"n_train must be positive, got {self.n_train}")
            if _count(self.lag, "lag") < 1:
                raise ConfigError(f"lag must be >= 1, got {self.lag}")
            if self.fit_method not in FIT_METHODS:
                raise ConfigError(f"fit_method must be one of {FIT_METHODS}")
            if not 0.0 < _number(self.confidence_level, "confidence_level") < 1.0:
                raise ConfigError("confidence_level must lie in (0, 1)")
            _threshold(self.outlier_threshold, "outlier_threshold")
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(self.term_sets, Mapping):
            raise ConfigError(f"term_sets must be a mapping, got {self.term_sets!r}")
        for name, terms in self.term_sets.items():
            if name not in SERIES_NAMES:
                raise ConfigError(f"unknown series {name!r} in term sets")
            if not isinstance(terms, TermSet):
                raise ConfigError(
                    f"term_sets[{name!r}] must be a TermSet, got {terms!r}")
            # a train RMSE divides by n - p, so n_train must exceed p
            if self.n_train <= len(terms):
                raise ConfigError(
                    f"n_train={self.n_train} does not exceed the {len(terms)} "
                    f"terms configured for {name}"
                )
        missing = [name for name in SERIES_NAMES if name not in self.term_sets]
        if missing:
            raise ConfigError(f"no term set for series {', '.join(missing)}")


_TERM_KEYS = {f"terms_{name}": name for name in SERIES_NAMES}
# every key load_config reads; each one's kind is given where it is read
CONFIG_KEYS = {
    "price_column", "fit_method",
    "kz_trend_window", "kz_trend_iters", "kz_seasonal_window", "kz_seasonal_iters",
    "n_train", "lag", "outlier_threshold", "confidence_level",
    *_TERM_KEYS,
}


def load_config(raw_text: str) -> PipelineConfig:
    """Parse a flat ``key = value`` document into a PipelineConfig.

    Unset keys keep the defaults of ``PipelineConfig()``.  Number values are
    plain ASCII, as ``int()`` and ``float()`` read them, without ``_``.
    """
    raw: dict[str, str] = {}
    # as in ``parse_price_csv``, a leading byte-order mark is dropped and
    # lines end at \r\n, \r or \n only, not at a form feed or U+2028
    lines = io.StringIO(raw_text.lstrip("\ufeff"), newline="")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    def take(key: str, default, kind=int):
        if key not in raw:
            return default
        try:
            return _plain_number(raw[key], kind)
        except ValueError as exc:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {noun}, got {raw[key]!r}") from exc

    default = PipelineConfig()
    term_sets = dict(default.term_sets)
    for key, series in _TERM_KEYS.items():
        if key in raw:
            try:
                term_sets[series] = TermSet.parse(raw[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc

    return PipelineConfig(
        price_column=raw.get("price_column") or default.price_column,
        kz_trend=(take("kz_trend_window", default.kz_trend[0]),
                  take("kz_trend_iters", default.kz_trend[1])),
        kz_seasonal=(take("kz_seasonal_window", default.kz_seasonal[0]),
                     take("kz_seasonal_iters", default.kz_seasonal[1])),
        n_train=take("n_train", default.n_train),
        lag=take("lag", default.lag),
        term_sets=term_sets,
        fit_method=raw.get("fit_method", default.fit_method),
        outlier_threshold=take("outlier_threshold", default.outlier_threshold, float),
        confidence_level=take("confidence_level", default.confidence_level, float),
    )


def _pick_price_column(header: list[str], config: PipelineConfig) -> str:
    if config.price_column is not None:
        if config.price_column not in header:
            raise FormatError(
                f"price column {config.price_column!r} not found in header {header}"
            )
        return config.price_column
    # adjusted close is the standard analysis column when the export has one
    if "Adj Close" in header:
        return "Adj Close"
    if "Close" in header:
        return "Close"
    raise FormatError(f"no Close or Adj Close column in header {header}")


def _csv_rows(text: str, what: str) -> list[list[str]]:
    """The rows ``csv`` reads from ``text``, whose lines may end in ``\r\n``,
    ``\r`` or ``\n``; text it cannot read raises FormatError naming ``what``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise FormatError(f"{what} line {reader.line_num}: {exc}") from exc


def parse_price_csv(raw_text: str, config: PipelineConfig | None = None) -> PriceSeries:
    """Parse an OHLC-style CSV export into a price series.

    The first row must be a header naming Date and the configured price
    column, each once; dates are ``YYYY-MM-DD``, price cells equal to
    "null", "NaN", or empty are missing, and the others ASCII numbers
    without ``_``.  Text that ``csv`` cannot read raises FormatError.  A
    file that fails a check is read again, by the same reader, in halving
    spans until its first bad row is found, whose error is raised.
    """
    config = config or PipelineConfig()
    rows = _csv_rows(raw_text, "price file")
    # row numbers count the non-blank rows, the header being row 1; blank
    # lines (whose cells join to whitespace) are skipped uncounted, so a
    # number is not the file line
    rows = list(compress(rows, map(str.strip, map("".join, rows))))
    if not rows:
        raise FormatError("price file is empty")
    header = [cell.strip().lstrip("\ufeff") for cell in rows[0]]
    if len(rows) == 1:
        raise FormatError("price file has a header but no data rows")
    if "Date" not in header:
        raise FormatError(f"no Date column in header {header}")
    price_column = _pick_price_column(header, config)
    for name in ("Date", price_column):
        if header.count(name) > 1:
            raise FormatError(f"header {header} names {name!r} more than once")
    date_idx, price_idx = header.index("Date"), header.index(price_column)
    data = rows[1:]
    try:
        columns = _read_columns(data, date_idx, price_idx, len(rows))
    except (ParseError, OrderError):
        # data[:good] reads clean and data[:bad] does not; each probe starts
        # at the row before its span, so the date pair across the edge is
        # read too.  The first bad row, read with the one before it, raises
        good, bad = 0, len(data)
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                _read_columns(data[max(good - 1, 0):mid], date_idx, price_idx, mid + 1)
                good = mid
            except (ParseError, OrderError):
                bad = mid
        _read_columns(data[max(bad - 2, 0):bad], date_idx, price_idx, bad + 1)
        raise
    return PriceSeries(*columns)


# what each missing marker reads as in the price column
_MISSING_AS_NAN = dict.fromkeys(MISSING_MARKERS, "nan")


def _read_columns(rows: list[list[str]], date_idx: int, price_idx: int, last: int):
    """(dates, prices) read a column at a time.  The first rule a row breaks
    (too few cells, a bad date, a date out of order, a bad price, an
    infinite price, checked in that order) raises its error for the last
    row, numbered ``last``: right whenever only the last row can be bad."""
    try:
        days = list(map(str.strip, map(itemgetter(date_idx), rows)))
        cells = list(map(str.strip, map(itemgetter(price_idx), rows)))
    except IndexError:
        raise ParseError(f"row {last} has too few cells", row=last) from None
    try:
        # from Python 3.11 on, fromisoformat also reads 20110103 and
        # 2011-W01-1; of what it reads, only YYYY-MM-DD has 10 characters
        # with - at 4 and 7
        joined, dashes = "".join(days), "-" * len(days)
        if {*map(len, days)} != {10} or not joined[4::10] == joined[7::10] == dashes:
            raise ValueError(f"Invalid isoformat string: {days[-1]!r}")
        dates = tuple(map(dt.date.fromisoformat, days))
    except ValueError as exc:
        raise ParseError(f"row {last}: bad date {rows[-1][date_idx]!r}: {exc}",
                         row=last) from exc
    if not _increasing(dates):
        raise OrderError(
            f"row {last}: date {dates[-1]} does not increase past {dates[-2]}")
    try:
        if not _plain("".join(cells)):
            raise ValueError("not ASCII without _")
        values = np.fromiter(map(float, map(_MISSING_AS_NAN.get, cells, cells)),
                             float, len(cells))
    except ValueError as exc:
        raise ParseError(f"row {last}: cannot parse price {cells[-1]!r}",
                         row=last) from exc
    # each marker reads as NaN, so the prices are finite or missing exactly
    # when the non-finite values are as many as the markers
    if np.count_nonzero(~np.isfinite(values)) != sum(map(cells.count, MISSING_MARKERS)):
        raise ParseError(f"row {last}: price {cells[-1]!r} is not finite", row=last)
    return dates, values
