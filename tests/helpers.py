"""Shared test utilities: independent oracles, table builders, fuzz inputs."""

import copy
import csv
import io
import json
import math

import numpy as np
from hypothesis import strategies as st

import volfit as vf


def brute_force_moving_average(values, window):
    """Per-window left-to-right mean; the independent slow-path oracle.

    Missing values contribute a zero pad (adding 0.0 never changes a sum)
    and are excluded from the divisor, mirroring the skip-and-renormalize
    convention with plain sequential arithmetic.
    """
    n = len(values)
    k = (window - 1) // 2
    filled = [0.0 if v != v else float(v) for v in values]
    present = [0 if v != v else 1 for v in values]
    out = []
    for i in range(n):
        lo = max(0, i - k)
        hi = min(n, i + k + 1)
        c = sum(present[lo:hi])
        out.append(float("nan") if c == 0 else sum(filled[lo:hi]) / c)
    return np.array(out)


def make_table(x, y, target):
    """FeatureTable with 1-based provenance, for hand-built fixtures."""
    x = np.asarray(x, dtype=float)
    return vf.FeatureTable(x, y, target, np.arange(1, x.size + 1))


def planted_table(terms, beta, n, rng, noise=0.0, y_range=(0.5, 2.0)):
    """Rows whose targets follow the surface defined by (terms, beta)."""
    x = np.linspace(1.0 / n, 1.0, n)
    y = rng.uniform(*y_range, n)
    shell = make_table(x, y, np.zeros(n))
    target = vf.design_matrix(shell, terms) @ np.asarray(beta, dtype=float)
    if noise:
        target = target + rng.normal(0.0, noise, n)
    return make_table(x, y, target)


# What a mutation puts in place of a document field, or of one item in it
JSON_VALUES = (
    None, True, False, 0, -1, 3, 2.5, -0.0, 1e-320, 1e308, 10 ** 400,
    math.nan, math.inf, -math.inf, "", "1.0", "false", "ols", "trend",
    [], [0, 0], [[0, 0]], {}, {"x": 1},
)
NESTING = 5000


@st.composite
def mutated_documents(draw, documents):
    """One of the valid JSON ``documents`` (dicts) with one defect put in.

    A field or one item inside it is replaced by a value of ``JSON_VALUES``
    (NaN and infinities written as JavaScript literals, as ``json.dumps``
    writes them), a field is deleted or added, the text is cut short, or a
    field holds arrays nested deeper than the recursion limit.
    """
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    key = draw(st.sampled_from(sorted(doc)))
    kind = draw(st.sampled_from(("field", "item", "delete", "extra", "cut", "nest")))
    value = draw(st.sampled_from(JSON_VALUES))
    if kind == "field":
        doc[key] = value
    elif kind == "item":
        holder = doc[key]
        while isinstance(holder, list) and holder:
            i = draw(st.integers(0, len(holder) - 1))
            if not isinstance(holder[i], list) or draw(st.booleans()):
                holder[i] = value
                break
            holder = holder[i]
    elif kind == "delete":
        del doc[key]
    elif kind == "extra":
        doc["unexpected"] = value
    elif kind == "nest":
        doc[key] = "@nest@"
    text = json.dumps(doc, indent=2)
    if kind == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    return text.replace('"@nest@"', "[" * NESTING + "]" * NESTING)


# What a mutation puts in place of one coefficient-table cell, or after a row
TABLE_CELLS = (
    "", "m", "series", "V", "Q", "0", "7", "-1", "+1", "1.5", "n=0", "n=9",
    "n=x", "n=-1", "abc (1.0, 2.0)", "1e999 (1.0, 2.0)", "nan (1.0, 2.0)",
    "1.0 (-inf, 2.0)", "1.0 (0.5, 2.0)", "1.0 (2.0, 3.0)", "1_0 (5.0, 20.0)",
    "1.0", "(1.0, 2.0)", "1.0 (2.0)", "1.0 (0.5, 2.0) x", "1.0 (0.5,2.0)",
)


@st.composite
def mutated_tables(draw, tables):
    """One of the coefficient ``tables`` (CSV texts) with one defect put in.

    A cell is replaced by one of ``TABLE_CELLS`` or one is added after a
    row's last cell, a row is deleted or repeated, or the text is cut short.
    """
    rows = list(csv.reader(io.StringIO(draw(st.sampled_from(tables)))))
    i = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(("cell", "extra", "delete", "repeat", "cut")))
    if kind == "cell":
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(TABLE_CELLS))
    elif kind == "extra":
        rows[i].append(draw(st.sampled_from(TABLE_CELLS)))
    elif kind == "delete":
        del rows[i]
    elif kind == "repeat":
        rows.insert(i, list(rows[i]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    if kind == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    return text


def _reject_constant(name):
    raise AssertionError(f"the document holds {name}, which JSON does not allow")


def assert_rejected_or_read_back(read, write, text, error):
    """``read(text)`` raises ``error``, or its object's document is sound.

    Sound means: strict JSON (no NaN or infinities), read back to the same
    document, and holding in each of its fields the value ``text`` gave.
    Any other exception escapes and fails the test.
    """
    try:
        obj = read(text)
    except error:
        return
    document = write(obj)
    fields = json.loads(document, parse_constant=_reject_constant)
    assert write(read(document)) == document
    source = json.loads(text)
    for name, value in fields.items():
        assert value == source[name], name
