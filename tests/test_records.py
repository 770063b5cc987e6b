"""A record refuses at construction what its document reader refuses.

For each field of ``PolySurfaceModel`` and ``FitReport``, and for the first
item of each field that holds a tuple, every value of ``JSON_VALUES`` and a
few numpy scalars is tried: construction raises ValueError, or the record's
document reads back to a record that writes the same bytes.
"""

import dataclasses
import math

import numpy as np
import pytest

import volfit as vf
from volfit import surface
from helpers import JSON_VALUES

VALUES = JSON_VALUES + (
    np.int64(3), np.int64(-1), np.float64(2.5), np.float64(math.inf), np.True_,
)

MODEL = vf.PolySurfaceModel(
    term_set=vf.TermSet(((0, 0), (1, 0))), coefficients=(1.0, 2.0),
    bounds=((-5.0, 5.0), (-5.0, 5.0)), method="ols", n_points=5, sigma=0.25,
    iterations=0, converged=True,
)
REPORT = vf.FitReport(
    series_name="trend", method="ols", train_rmse=0.5, test_rmse=0.25,
    n_train=30, n_test=20, excluded=(3, 9), converged=True,
)
DOCUMENTS = {
    vf.PolySurfaceModel: (vf.model_to_document, vf.model_from_document),
    vf.FitReport: (vf.report_to_document, vf.report_from_document),
}


def _paths(record):
    """Each field's name, then (name, 0) for a tuple field and (name, 0, 0)
    for a tuple of tuples: where a value can be put."""
    for field in dataclasses.fields(record):
        held = getattr(record, field.name)
        yield (field.name,)
        if isinstance(held, tuple):
            yield (field.name, 0)
            if isinstance(held[0], tuple):
                yield (field.name, 0, 0)


def _put(held, indices, value):
    """``held`` with the item at ``indices`` replaced by ``value``."""
    if not indices:
        return value
    i, *rest = indices
    return held[:i] + (_put(held[i], rest, value),) + held[i + 1:]


@pytest.mark.parametrize("record, path", [
    (record, path) for record in (MODEL, REPORT) for path in _paths(record)
], ids=lambda p: ".".join(map(str, p)) if isinstance(p, tuple) else type(p).__name__)
def test_record_refuses_what_its_reader_refuses(record, path):
    write, read = DOCUMENTS[type(record)]
    name, *indices = path
    for value in VALUES:
        try:
            built = dataclasses.replace(
                record, **{name: _put(getattr(record, name), indices, value)})
        except ValueError:
            continue
        document = write(built)
        assert write(read(document)) == document, value


@pytest.mark.parametrize("record, fields", [
    (MODEL, {"bounds": ((-math.inf, math.inf), (-5.0, 5.0))}),
    (MODEL, {"coefficients": ("0", 2.0), "bounds": (("0", "0"), (-5.0, 5.0))}),
    (REPORT, {"train_rmse": math.inf}),
    (REPORT, {"train_rmse": "1"}),
    (REPORT, {"excluded": (-3,)}),
], ids=["infinite-bounds", "string-coefficient", "infinite-rmse", "string-rmse",
        "negative-index"])
def test_what_a_reader_refuses_is_refused_at_construction(record, fields):
    with pytest.raises(ValueError):
        dataclasses.replace(record, **fields)


@pytest.mark.parametrize("number", [1, np.int64(1), np.float64(1.0)])
def test_numbers_are_stored_as_floats(number):
    model = dataclasses.replace(
        MODEL, coefficients=(number, 2.0), bounds=((number, 5.0), (-5.0, 5.0)),
        sigma=number)
    assert type(model.coefficients[0]) is type(model.bounds[0][0]) is float
    assert type(model.sigma) is float
    document = vf.model_to_document(model)
    assert vf.model_to_document(vf.model_from_document(document)) == document
    report = dataclasses.replace(REPORT, train_rmse=number, test_rmse=number)
    assert type(report.train_rmse) is type(report.test_rmse) is float


def test_readers_leave_the_field_rules_to_the_records():
    # model_from_document hands its text to _read_model, through the cache
    # for a str, so the JSON parse behind the cache is checked too
    assert surface._cached_model.__wrapped__ is surface._read_model
    for reader in (vf.model_from_document, surface._read_model,
                   vf.report_from_document):
        assert not {"_number", "_count", "_flag"} & set(reader.__code__.co_names)
