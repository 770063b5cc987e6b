"""Each fit method's optimality certificate, recomputed from the coefficients.

The checks read only the table, the terms and the fitted coefficients, so
they hold on every OpenBLAS core and every numpy/scipy version, where the
pinned artifact hashes skip:

* OLS: the normal equations X'r = 0, as the columnwise scaled gradient
  max_j |x_j'r| / (||x_j|| (||y|| + sum_k ||x_k|| |c_k|)), which a
  backward-stable QR solve keeps within a small multiple of kappa * eps,
  kappa the condition number of the design with unit columns.
* LAR: a converged fit interpolates p rows B, and
  u = X_B^-T sum_{i not in B} sign(r_i) x_i has max|u| <= 1 (Barrodale and
  Roberts' L1 certificate).
* Bisquare: the weighted gradient X'Wr, W the Tukey weights of the fit's
  own residuals, is zero at a fixed point; it is measured as the step it
  asks for, (X'WX)^-1 X'Wr, one more reweighted solve.  The walk stopped
  on a step of at most BISQUARE_TOLERANCE times the largest coefficient;
  the next is that times the reweighting's local stretch, which stayed
  under 8 on 20 000 drawn tables, so 20 is allowed: a measured bound.

Moving one coefficient by a relative 1e-6 fails each check.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volfit as vf
from volfit import surface
from volfit.cli import run_pipeline

from helpers import planted_table

BUNDLED = Path(__file__).resolve().parent.parent / "data" / "synthetic_vix.csv"
EPS = np.finfo(float).eps

# the multiples of kappa * eps and of BISQUARE_TOLERANCE the checks allow
OLS_SLACK = 4.0
BISQUARE_SLACK = 20.0


def ols_gradient(X, y, beta) -> float:
    """The scaled gradient of the summed squares, in units of kappa * eps."""
    norms = np.linalg.norm(X, axis=0)
    kappa = np.linalg.cond(X / norms)
    scale = np.linalg.norm(y) + norms @ np.abs(beta)
    gradient = np.abs(X.T @ (y - X @ beta)) / (norms * scale)
    return float(np.max(gradient)) / (kappa * EPS)


def lar_certificate(X, y, beta) -> float:
    """max|u| at the vertex, less the rounding its solve may add; inf unless
    the p rows of smallest |r| lie on the surface within the rounding of
    their solve, taken normwise over those rows, and no other row does."""
    p = X.shape[1]
    r = y - X @ beta
    order = np.argsort(np.abs(r))
    basis, rest = order[:p], order[p:]
    rounding = 64 * p * EPS * np.max(np.abs(X[basis]) @ np.abs(beta) + np.abs(y[basis]))
    if np.max(np.abs(r[basis])) > rounding or np.min(np.abs(r[rest])) <= rounding:
        return math.inf
    u = np.linalg.solve(X[basis].T, X[rest].T @ np.sign(r[rest]))
    return float(np.max(np.abs(u))) - p * np.linalg.cond(X[basis]) * EPS


def bisquare_step(X, y, beta) -> float:
    """One more reweighted solve's step from beta, in units of
    BISQUARE_TOLERANCE times the largest |coefficient|."""
    r = y - X @ beta
    scale = np.median(np.abs(r - np.median(r))) / surface.MAD_TO_SIGMA
    sw = np.sqrt(vf.bisquare_weights(r / (surface.BISQUARE_CONSTANT * scale)))
    step = np.linalg.lstsq(X * sw[:, None], r * sw, rcond=None)[0]
    return float(np.max(np.abs(step)) / np.max(np.abs(beta))) / surface.BISQUARE_TOLERANCE


def check(method, X, y, beta) -> bool:
    """Whether the coefficients carry the method's certificate."""
    if method == "ols":
        return ols_gradient(X, y, beta) <= OLS_SLACK
    if method == "lar":
        return lar_certificate(X, y, beta) <= 1.0
    return bisquare_step(X, y, beta) <= BISQUARE_SLACK


def _design(table, model):
    return (vf.design_matrix(table, model.term_set), table.target,
            np.array(model.coefficients))


@pytest.fixture(scope="module")
def bundled_fits():
    """(method, label, X, y, beta) for the bundled file's fits that claim a
    certificate, of the 24 (each method's first pass and reported refit of
    the four series): all but bisquare's first pass on the trend, which
    the cap on reweighted solves stops unconverged."""
    fits, capped = [], []
    for method in surface.FIT_METHODS:
        config = vf.PipelineConfig(fit_method=method)
        _, results = run_pipeline(BUNDLED.read_text(), config)
        for name, result in results.items():
            first = result["table"].subset(slice(0, config.n_train))
            for label, table, model in (("first pass", first, result["first_pass"]),
                                        ("refit", result["train"], result["model"])):
                label = f"{method} {name} {label}"
                if model.converged:
                    fits.append((method, label, *_design(table, model)))
                else:
                    capped.append(label)
    assert capped == ["bisquare trend first pass"]
    return fits


def test_every_converged_bundled_fit_is_certified(bundled_fits):
    assert len(bundled_fits) == 23
    for method, label, X, y, beta in bundled_fits:
        assert check(method, X, y, beta), label


def test_a_moved_coefficient_fails_the_certificate(bundled_fits):
    # the largest coefficient, and for OLS and LAR also the term that
    # carries the most of the surface, moved by a relative 1e-6
    for method, label, X, y, beta in bundled_fits:
        largest = np.argmax(np.abs(beta))
        heaviest = np.argmax(np.linalg.norm(X, axis=0) * np.abs(beta))
        for j in {largest} if method == "bisquare" else {largest, heaviest}:
            moved = beta.copy()
            moved[j] *= 1 + 1e-6
            assert not check(method, X, y, moved), (label, j)


@st.composite
def noisy_tables(draw):
    """A planted surface over one of the default term sets with t-distributed
    noise of 1e-6 to 1 times the largest |target|: continuous and well above
    rounding, so that only the p rows of an L1 vertex lie on it within
    rounding, and bisquare's MAD has a scale."""
    terms = vf.DEFAULT_TERM_SETS[draw(st.sampled_from(sorted(vf.DEFAULT_TERM_SETS)))]
    p = len(terms)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(4 * p, 400))
    table = planted_table(terms, rng.normal(0, 1, p) * 10.0 ** rng.uniform(-3, 3, p),
                          n, rng, y_range=(0.01, draw(st.sampled_from([0.1, 2.0, 50.0]))))
    noise = 10.0 ** draw(st.floats(-6, 0)) * np.max(np.abs(table.target))
    target = table.target + noise * rng.standard_t(draw(st.sampled_from([1, 3, 30])), n)
    return vf.FeatureTable(table.x, table.y, target, table.provenance), terms


@given(case=noisy_tables())
@settings(max_examples=60, deadline=None)
def test_fits_of_drawn_tables_are_certified(case):
    table, terms = case
    for method in surface.FIT_METHODS:
        model = getattr(vf, f"fit_{method}")(table, terms)
        if method == "ols" or model.converged:
            assert check(method, *_design(table, model)), method
