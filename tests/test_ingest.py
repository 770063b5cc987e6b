"""Tests for CSV ingestion, configuration parsing, and the public names."""

import csv
import datetime as dt
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import volfit as vf
from volfit.errors import ConfigError, FormatError, OrderError, ParseError
from volfit.ingest import MISSING_MARKERS, _pick_price_column

BUNDLED = Path(__file__).resolve().parent.parent / "data" / "synthetic_vix.csv"
README = Path(__file__).resolve().parent.parent / "README.md"
SAMPLE = "Date,Close\n2011-01-03,100.0\n2011-01-04,110.0\n"


def reference_parse_price_csv(raw_text, config=None):
    """The parser as first written, with a per-row np.isfinite; the oracle."""
    config = config or vf.PipelineConfig()
    rows = [row for row in csv.reader(io.StringIO(raw_text))]
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise FormatError("price file is empty")
    header = [cell.strip().lstrip("\ufeff") for cell in rows[0]]
    if len(rows) == 1:
        raise FormatError("price file has a header but no data rows")
    if "Date" not in header:
        raise FormatError(f"no Date column in header {header}")
    date_idx = header.index("Date")
    price_idx = header.index(_pick_price_column(header, config))
    dates, values = [], []
    for rownum, row in enumerate(rows[1:], start=2):
        if len(row) <= max(date_idx, price_idx):
            raise ParseError(f"row {rownum} has too few cells", row=rownum)
        try:
            date = dt.date.fromisoformat(row[date_idx].strip())
        except ValueError as exc:
            raise ParseError(
                f"row {rownum}: bad date {row[date_idx]!r}: {exc}", row=rownum
            ) from exc
        if dates and date <= dates[-1]:
            raise OrderError(
                f"row {rownum}: date {date} does not increase past {dates[-1]}"
            )
        cell = row[price_idx].strip()
        if cell in MISSING_MARKERS:
            value = float("nan")
        else:
            try:
                value = float(cell)
            except ValueError as exc:
                raise ParseError(
                    f"row {rownum}: cannot parse price {cell!r}", row=rownum
                ) from exc
            if not np.isfinite(value):
                raise ParseError(
                    f"row {rownum}: price {cell!r} is not finite", row=rownum
                )
        dates.append(date)
        values.append(value)
    return vf.PriceSeries(tuple(dates), np.array(values))


HEADERS = ["Date,Close", "\ufeffDate,Close", " Date , Close ", "Close,Date",
           "Date,Open,High,Low,Close,Adj Close,Volume"]
BAD_HEADERS = ["Day,Close", "Date,Open", ""]
PRICE_CELLS = ["100.5", " 12.25 ", "0", "-3.5", "1e-300", "null", "NaN", "", "  ", " null "]
BAD_PRICE_CELLS = ["1e400", "nan", "inf", "-Infinity", "12x", "None"]
BLANK_ROWS = ["", "   ", ",", " , ", "\t,"]
BAD_DATES = ["2011-13-01", "2011-02-30", "x", "", "03/01/2011"]


def _rare(main, rare):
    """Mostly draws from ``main``, one time in ten from ``rare``."""
    return st.integers(0, 9).flatmap(lambda i: st.sampled_from(rare if i == 9 else main))


@st.composite
def price_files(draw):
    """CSV text that mixes valid rows with every kind of defect."""
    header = draw(_rare(HEADERS, BAD_HEADERS))
    width = max(len(header.split(",")), 2)
    lines = [header]
    day = dt.date(2011, 1, 3)
    for _ in range(draw(st.integers(0, 15))):
        kind = draw(_rare(["row"] * 4 + ["blank"], ["short", "bad_date", "back"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(BLANK_ROWS)))
            continue
        if kind == "short":
            lines.append(day.isoformat())
            continue
        step = -draw(st.integers(0, 3)) if kind == "back" else draw(st.integers(1, 4))
        day += dt.timedelta(days=step)
        date = day.isoformat()
        if kind == "bad_date":
            date = draw(st.sampled_from(BAD_DATES))
        elif draw(st.booleans()):
            date = f" {date} "
        cells = [draw(_rare(PRICE_CELLS, BAD_PRICE_CELLS)) for _ in range(width)]
        cells[0] = date
        if header.startswith("Close"):
            cells[:2] = cells[1::-1]
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(parse, text, config):
    try:
        series = parse(text, config)
    except Exception as exc:  # noqa: BLE001 - the outcome is the comparison
        return type(exc), str(exc), getattr(exc, "row", None)
    return series.dates, series.values.tobytes()


class TestParserOracle:
    @given(text=price_files(), column=st.sampled_from([None, "Close", "Open"]))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_parser(self, text, column):
        config = vf.PipelineConfig(price_column=column)
        assert _outcome(vf.parse_price_csv, text, config) == _outcome(
            reference_parse_price_csv, text, config
        )

    def test_bundled_file_matches_reference_parser(self):
        text = BUNDLED.read_text()
        assert _outcome(vf.parse_price_csv, text, None) == _outcome(
            reference_parse_price_csv, text, None
        )

    # (row, cell) edits of the bundled file, and the first error in row order
    LONG_FILE_DEFECTS = [
        ({2000: (1, "12x"), 2500: (0, "2017-02-30")}, ParseError, 2000),
        ({2000: (0, "2017-02-30"), 2500: (1, "12x")}, ParseError, 2000),
        ({2100: (1, "inf"), 2400: (0, "2011-01-03")}, ParseError, 2100),
        ({2700: (1, None), 2800: (1, "1_0")}, ParseError, 2700),
        ({2850: (0, "2011-01-03")}, OrderError, None),
        ({2856: (1, "nan"), 2857: (0, "2011-01-03")}, ParseError, 2856),
    ]

    @pytest.mark.parametrize("edits, error, row", LONG_FILE_DEFECTS)
    def test_long_file_reports_its_first_error(self, edits, error, row):
        # row r is line r of the bundled file, which has no blank line; a
        # None cell drops the row's price cell
        lines = BUNDLED.read_text().splitlines()
        for r, (column, cell) in edits.items():
            cells = lines[r - 1].split(",")
            lines[r - 1] = cells[0] if cell is None else ",".join(
                cell if i == column else c for i, c in enumerate(cells))
        text = "\n".join(lines) + "\n"
        outcome = _outcome(vf.parse_price_csv, text, None)
        assert outcome == _outcome(reference_parse_price_csv, text, None)
        assert outcome[0] is error and outcome[2] == row
        assert outcome[1].startswith(f"row {min(edits)}")


class TestParsePriceCsv:
    def test_two_rows(self):
        series = vf.parse_price_csv(SAMPLE)
        assert len(series) == 2
        assert series.values.tolist() == [100.0, 110.0]
        assert not series.missing.any()
        assert series.dates == (dt.date(2011, 1, 3), dt.date(2011, 1, 4))

    def test_empty_text(self):
        with pytest.raises(FormatError):
            vf.parse_price_csv("")

    def test_header_only(self):
        with pytest.raises(FormatError):
            vf.parse_price_csv("Date,Close\n")

    @pytest.mark.parametrize("marker", ["null", "NaN", ""])
    def test_missing_markers(self, marker):
        text = f"Date,Close\n2011-01-03,100.0\n2011-01-04,{marker}\n"
        series = vf.parse_price_csv(text)
        assert len(series) == 2
        assert series.missing.tolist() == [False, True]

    def test_unparseable_price_carries_row_number(self):
        text = "Date,Close\n2011-01-03,100.0\n2011-01-04,12x.0\n"
        with pytest.raises(ParseError) as excinfo:
            vf.parse_price_csv(text)
        assert excinfo.value.row == 3

    def test_bad_date(self):
        with pytest.raises(ParseError):
            vf.parse_price_csv("Date,Close\n03/01/2011,100.0\n")

    def test_non_monotone_dates(self):
        text = "Date,Close\n2011-01-04,100.0\n2011-01-03,110.0\n"
        with pytest.raises(OrderError):
            vf.parse_price_csv(text)

    def test_duplicate_dates(self):
        text = "Date,Close\n2011-01-03,100.0\n2011-01-03,110.0\n"
        with pytest.raises(OrderError):
            vf.parse_price_csv(text)

    def test_missing_date_column(self):
        with pytest.raises(FormatError):
            vf.parse_price_csv("Close\n100.0\n")

    def test_missing_price_column(self):
        with pytest.raises(FormatError):
            vf.parse_price_csv("Date,Open\n2011-01-03,100.0\n")

    def test_explicit_price_column(self):
        text = "Date,Open,Close\n2011-01-03,1.0,100.0\n"
        config = vf.PipelineConfig(price_column="Open")
        series = vf.parse_price_csv(text, config)
        assert series.values.tolist() == [1.0]

    def test_adj_close_preferred_over_close(self):
        text = "Date,Close,Adj Close\n2011-01-03,100.0,99.5\n"
        series = vf.parse_price_csv(text)
        assert series.values.tolist() == [99.5]

    def test_full_export_header(self):
        text = (
            "Date,Open,High,Low,Close,Adj Close,Volume\n"
            "2011-01-03,17.7,18.0,17.5,17.75,17.75,0\n"
            "2011-01-04,17.8,18.1,17.6,17.95,17.95,0\n"
        )
        series = vf.parse_price_csv(text)
        assert series.values.tolist() == [17.75, 17.95]

    def test_infinite_price_rejected(self):
        with pytest.raises(ParseError):
            vf.parse_price_csv("Date,Close\n2011-01-03,inf\n")

    def test_short_row_rejected(self):
        with pytest.raises(ParseError):
            vf.parse_price_csv("Date,Close\n2011-01-03,100.0\n2011-01-04\n")


class TestPriceSeries:
    """The record checks what it is given when built directly, not parsed."""

    DATES = (dt.date(2011, 1, 3), dt.date(2011, 1, 4), dt.date(2011, 1, 5))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equally long 1-d"):
            vf.PriceSeries(self.DATES, [100.0, 101.0])

    def test_dates_that_do_not_increase_rejected(self):
        dates = (self.DATES[0], self.DATES[2], self.DATES[1])
        with pytest.raises(OrderError, match=(
                "dates must be strictly increasing, got 2011-01-05 then 2011-01-04")):
            vf.PriceSeries(dates, [100.0, 101.0, 102.0])

    def test_infinite_price_rejected(self):
        with pytest.raises(ValueError, match="finite numbers or missing"):
            vf.PriceSeries(self.DATES, [100.0, np.inf, 102.0])

    def test_output_length_equals_data_rows(self):
        rows = "\n".join(
            f"2011-01-{day:02d},{100 + day}" for day in range(1, 29)
        )
        series = vf.parse_price_csv("Date,Close\n" + rows + "\n")
        assert len(series) == 28

    @pytest.mark.parametrize("cell", ["1_0", "\u0663", "\uff11\uff12", "1.5\u0660"])
    def test_price_cells_are_plain_numbers(self, cell):
        text = f"Date,Close\n2011-01-03,100.0\n2011-01-04,{cell}\n"
        with pytest.raises(ParseError, match="cannot parse price") as excinfo:
            vf.parse_price_csv(text)
        assert excinfo.value.row == 3

    def test_cell_too_long_for_csv_is_a_format_error(self):
        text = f"Date,Close\n2011-01-03,100.0\n2011-01-04,{'1' * 140_000}\n"
        with pytest.raises(FormatError, match="price file line 3: field larger than"):
            vf.parse_price_csv(text)

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_line_endings_read_alike(self, newline):
        # the CLI reads files with universal newlines; the library reads text
        # with any of the three endings the same way
        text = BUNDLED.read_text()
        assert _outcome(vf.parse_price_csv, text.replace("\n", newline), None) == \
            _outcome(vf.parse_price_csv, text, None)

    def test_price_cells_keep_signs_exponents_and_spaces(self):
        text = "Date,Close\n2011-01-03, +1.5e1 \n2011-01-04,\u00a02E-1\t\n"
        assert vf.parse_price_csv(text).values.tolist() == [15.0, 0.2]


class TestLoadConfig:
    def test_empty_document_gives_defaults(self):
        config = vf.load_config("")
        assert config.kz_trend == (365, 3)
        assert config.kz_seasonal == (15, 5)
        assert config.n_train == 2000
        assert config.fit_method == "lar"
        assert config.confidence_level == 0.95
        assert config.outlier_threshold == 3.0
        assert config.lag == 1
        assert config.term_sets == vf.DEFAULT_TERM_SETS

    def test_leading_byte_order_mark_is_dropped(self):
        # it was read as part of the first key: unknown key '\ufeffn_train'
        text = "n_train = 100\nlag = 2\n"
        assert vf.load_config("\ufeff" + text) == vf.load_config(text)

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            vf.load_config("kz_trend_window = 4\n")

    def test_window_below_three_rejected(self):
        with pytest.raises(ConfigError):
            vf.load_config("kz_seasonal_window = 1\n")

    def test_nonpositive_n_train_rejected(self):
        with pytest.raises(ConfigError):
            vf.load_config("n_train = 0\n")

    def test_n_train_covers_five_terms(self):
        config = vf.load_config("n_train = 100\n")
        assert config.n_train == 100          # >= every default term count

    def test_n_train_below_term_count_rejected(self):
        with pytest.raises(ConfigError):
            vf.load_config("n_train = 5\n")   # trend surface has 11 terms

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            vf.load_config("window = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            vf.load_config("n_train = 100\nn_train = 200\n")

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            vf.load_config("fit_method = ridge\n")

    def test_bad_integer_rejected(self):
        with pytest.raises(ConfigError):
            vf.load_config("n_train = many\n")

    def test_confidence_level_range(self):
        with pytest.raises(ConfigError):
            vf.load_config("confidence_level = 1.0\n")

    def test_lag_must_be_positive(self):
        with pytest.raises(ConfigError):
            vf.load_config("lag = 0\n")

    def test_every_series_needs_a_term_set(self):
        with pytest.raises(ConfigError, match="volatility, seasonal, remainder"):
            vf.PipelineConfig(term_sets={"trend": vf.TermSet(((0, 0), (1, 0)))})

    def test_term_set_for_an_unknown_series_rejected(self):
        term_sets = {**vf.DEFAULT_TERM_SETS, "close": vf.TermSet(((0, 0),))}
        with pytest.raises(ConfigError, match="unknown series 'close'"):
            vf.PipelineConfig(term_sets=term_sets)

    def test_lag_checked_by_the_config_itself(self):
        with pytest.raises(ConfigError, match="lag"):
            vf.PipelineConfig(lag=0)
        assert vf.load_config("lag = 4\n") == vf.PipelineConfig(lag=4)

    def test_readme_example_config_reads_as_the_defaults(self):
        block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        assert "price_column" in block and "# " in block
        assert vf.load_config(block) == vf.PipelineConfig()

    @pytest.mark.parametrize("line", [
        "n_train = 1_000", "lag = \u0662", "outlier_threshold = 2_5",
        "confidence_level = 9_5e-2", "kz_trend_window = \uff13\uff16\uff15",
        "kz_seasonal_iters = 5\u0660", "confidence_level = 0.9\u0665",
    ])
    def test_numbers_are_plain_ascii_without_underscores(self, line):
        key = line.split()[0]
        with pytest.raises(ConfigError, match=key):
            vf.load_config(line + "\n")

    @pytest.mark.parametrize("line,value", [
        ("n_train = +120", 120), ("lag = 02", 2),
        ("outlier_threshold = +2.5e0", 2.5), ("outlier_threshold = 3", 3.0),
        ("confidence_level = 95E-2", 0.95), ("confidence_level = .5", 0.5),
    ])
    def test_numbers_keep_signs_and_exponents(self, line, value):
        key = line.split()[0]
        config = vf.load_config(line + "\n")
        assert getattr(config, key) == value

    @pytest.mark.parametrize("terms", ["1_0:0", "+1:0", "\u0663:0", "0:-1", "0 :1.0"])
    def test_term_exponents_must_be_plain_digits(self, terms):
        with pytest.raises(ConfigError, match="terms_volatility"):
            vf.load_config(f"terms_volatility = 0:0, {terms}\n")

    def test_term_list_parsing(self):
        config = vf.load_config("terms_volatility = 0:0, 1:0, 2:1\nn_train = 50\n")
        assert config.term_sets["volatility"].terms == ((0, 0), (1, 0), (2, 1))

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ConfigError):
            vf.load_config("terms_volatility = 0:0,0:0\n")

    def test_comments_and_blank_lines_ignored(self):
        config = vf.load_config("# a comment\n\nn_train = 120\n")
        assert config.n_train == 120

    def test_full_document(self):
        text = (
            "price_column = Close\n"
            "kz_trend_window = 101\n"
            "kz_trend_iters = 2\n"
            "kz_seasonal_window = 7\n"
            "kz_seasonal_iters = 4\n"
            "n_train = 500\n"
            "fit_method = bisquare\n"
            "outlier_threshold = 2.5\n"
            "confidence_level = 0.9\n"
            "lag = 3\n"
        )
        config = vf.load_config(text)
        assert config.price_column == "Close"
        assert config.kz_trend == (101, 2)
        assert config.kz_seasonal == (7, 4)
        assert config.fit_method == "bisquare"
        assert config.outlier_threshold == 2.5
        assert config.confidence_level == 0.9
        assert config.lag == 3

    @pytest.mark.parametrize("value", ["nan", "NaN", "-nan", "0", "-0.0", "-inf"])
    def test_outlier_threshold_must_exceed_zero(self, value):
        # NaN compares False with everything: remove_outliers would then
        # keep no row, and the pipeline would silently exclude none
        with pytest.raises(ConfigError, match="outlier_threshold"):
            vf.load_config(f"outlier_threshold = {value}\n")
        with pytest.raises(ConfigError, match="outlier_threshold"):
            vf.PipelineConfig(outlier_threshold=float(value))

    @pytest.mark.parametrize("field, value, named", [
        ("n_train", 2000.0, "n_train"),
        ("lag", 1.0, "lag"),
        ("kz_trend", (365.0, 3), "window"),
        ("kz_seasonal", (15, 5.0), "iterations"),
        ("term_sets", {**vf.DEFAULT_TERM_SETS, "trend": "0:0,1:0"}, "term_sets"),
        ("outlier_threshold", True, "outlier_threshold"),
        ("confidence_level", "0.9", "confidence_level"),
    ])
    def test_config_refuses_what_the_pipeline_cannot_use(self, field, value, named):
        # each of these used to construct, then fail inside run_pipeline
        # with TypeError, IndexError or AttributeError, or (True) run as 1.0
        with pytest.raises(ConfigError, match=named):
            vf.PipelineConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("term_sets", []),
        ("term_sets", None),
        ("price_column", 5),
        ("price_column", b"Close"),
        ("kz_trend", 5),
    ])
    def test_config_names_the_field_it_refuses(self, field, value):
        # these raised AttributeError, constructed, or named no field
        with pytest.raises(ConfigError, match=field):
            vf.PipelineConfig(**{field: value})

    def test_numpy_counts_and_numbers_accepted(self):
        config = vf.PipelineConfig(n_train=np.int64(500), lag=np.int64(2),
                                   kz_trend=(np.int64(101), 2),
                                   confidence_level=np.float64(0.9))
        assert config.n_train == 500 and config.confidence_level == 0.9


FULL_CONFIG = {
    "price_column": "Close", "kz_trend_window": "101", "kz_trend_iters": "2",
    "kz_seasonal_window": "7", "kz_seasonal_iters": "4", "n_train": "500",
    "fit_method": "bisquare", "outlier_threshold": "2.5", "confidence_level": "0.9",
    "lag": "3", "terms_volatility": "0:0,0:1,1:0", "terms_trend": "0:0, 1:0",
    "terms_seasonal": "0:0", "terms_remainder": "0:0,0:1,0:2,1:0,1:1,1:2",
}
CONFIG_VALUES = [
    "nan", "NaN", "-nan", "inf", "-inf", "1e400", "0", "-0.0", "-1", "1", "2",
    "3", "0.5", "1.0", "7", "101", "2000", "1_000", " 12 ", "", "x", "lar",
    "ols", "ridge", "0:0", "0:0,0:0", "1:0,0:1", "1:x", "0:-1", "Close", "true",
]
JUNK_LINES = ["window = 3", "no equals sign", "# comment", "", "   ", "= 3",
              "N_TRAIN = 100"]


@st.composite
def config_texts(draw):
    """The full config document with one defect put in."""
    lines = [f"{key} = {value}" for key, value in FULL_CONFIG.items()]
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(("value", "value", "delete", "repeat", "junk")))
    if kind == "value":
        lines[i] = lines[i].split("=")[0] + "= " + draw(st.sampled_from(CONFIG_VALUES))
    elif kind == "delete":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    else:
        lines.insert(i, draw(st.sampled_from(JUNK_LINES)))
    return "\n".join(lines) + "\n"


def config_text(config):
    """The ``key = value`` document of a PipelineConfig."""
    values = {
        "kz_trend_window": config.kz_trend[0], "kz_trend_iters": config.kz_trend[1],
        "kz_seasonal_window": config.kz_seasonal[0],
        "kz_seasonal_iters": config.kz_seasonal[1], "n_train": config.n_train,
        "fit_method": config.fit_method, "lag": config.lag,
        "outlier_threshold": repr(config.outlier_threshold),
        "confidence_level": repr(config.confidence_level),
        "price_column": config.price_column or "",
    }
    values.update({f"terms_{name}": ",".join(terms.labels())
                   for name, terms in config.term_sets.items()})
    return "".join(f"{key} = {value}\n" for key, value in values.items())


class TestConfigFuzz:
    """A defective config is refused with ConfigError, or read exactly."""

    @given(text=config_texts())
    @example(text="outlier_threshold = nan\n")
    @settings(max_examples=400, deadline=None)
    def test_rejected_or_read_back(self, text):
        try:
            config = vf.load_config(text)
        except ConfigError:
            return
        for window, iterations in (config.kz_trend, config.kz_seasonal):
            assert window >= 3 and window % 2 == 1 and iterations >= 1
        assert config.fit_method in vf.FIT_METHODS
        assert config.outlier_threshold > 0
        assert 0 < config.confidence_level < 1
        assert config.lag >= 1
        assert all(config.n_train >= len(t) for t in config.term_sets.values())
        document = config_text(config)
        assert vf.load_config(document) == config
        assert config_text(vf.load_config(document)) == document


class TestPublicNames:
    def test_all_resolves_and_star_import_binds_exactly_all(self):
        assert len(set(vf.__all__)) == len(vf.__all__)
        assert [name for name in vf.__all__ if not hasattr(vf, name)] == []
        namespace = {}
        exec("from volfit import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(vf.__all__)
