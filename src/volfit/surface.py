"""Sparse bivariate polynomial surfaces fit by ordinary and robust least squares.

A surface is a sparse polynomial ``f(x, y) = sum_j c_j * x**m_j * y**n_j``
over a configured list of exponent pairs.  Feature tables pair a scaled
time index with a lagged series value, so a fitted surface predicts the
current value of a series from when it is observed and where it recently
was.  The robust variants (least absolute residuals and Tukey bisquare)
run as iteratively reweighted least squares seeded by the ordinary
solution; all solves go through a pivoted QR factorization rather than
normal equations.

``scipy.linalg`` and ``scipy.special`` are imported by the functions that
fit and bound a surface, not at module level, so that evaluating a saved
model loads numpy only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegreesOfFreedomError,
    ExclusionError,
    FormatError,
    InsufficientData,
    RankError,
)

TIME_INDEX_SCALED = "time_index_scaled"
LAGGED_VALUE = "lagged_value"
FEATURE_SOURCES = (TIME_INDEX_SCALED, LAGGED_VALUE)

FIT_METHODS = ("ols", "lar", "bisquare")
SERIES_NAMES = ("volatility", "trend", "seasonal", "remainder")

# MAD of a standard normal; dividing a median absolute deviation by this
# turns it into a consistent estimate of the Gaussian sigma.
MAD_TO_SIGMA = 0.6745


@dataclass(frozen=True)
class TermSet:
    """Ordered, duplicate-free list of (m, n) exponent pairs for one surface."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("term set must be non-empty")
        coerced = []
        seen = set()
        for m, n in self.terms:
            m, n = int(m), int(n)
            if m < 0 or n < 0:
                raise ValueError(f"exponents must be non-negative, got ({m}, {n})")
            if (m, n) in seen:
                raise ValueError(f"duplicate term ({m}, {n})")
            seen.add((m, n))
            coerced.append((m, n))
        object.__setattr__(self, "terms", tuple(coerced))

    def __len__(self) -> int:
        return len(self.terms)

    def labels(self) -> list[str]:
        return [f"{m}:{n}" for m, n in self.terms]

    @classmethod
    def parse(cls, text: str) -> "TermSet":
        """Parse a comma-separated list of m:n pairs, e.g. ``"0:0,0:1,1:0"``."""
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            m_part, sep, n_part = chunk.partition(":")
            if not sep:
                raise ValueError(f"term {chunk!r} is not of the form m:n")
            pairs.append((int(m_part), int(n_part)))
        return cls(tuple(pairs))


# Sparsity patterns used when the configuration does not override them:
# one surface per decomposed series.
DEFAULT_TERM_SETS: dict[str, TermSet] = {
    "volatility": TermSet(((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))),
    "trend": TermSet(
        ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
         (3, 0), (3, 1), (4, 0), (4, 1), (5, 0))
    ),
    "seasonal": TermSet(((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))),
    "remainder": TermSet(
        ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0))
    ),
}


@dataclass(frozen=True)
class FeatureSpec:
    """How to turn one series into regression features.

    Exactly one of x/y is the scaled time index t/T in (0, 1] and the other
    is the series value ``lag`` steps earlier; the target is always the
    current value.
    """

    x_source: str = TIME_INDEX_SCALED
    y_source: str = LAGGED_VALUE
    lag: int = 1

    def __post_init__(self):
        if self.x_source not in FEATURE_SOURCES:
            raise ValueError(f"unknown x_source {self.x_source!r}")
        if self.y_source not in FEATURE_SOURCES:
            raise ValueError(f"unknown y_source {self.y_source!r}")
        if self.x_source == self.y_source:
            raise ValueError("x_source and y_source must differ")
        if self.lag < 1:
            raise ValueError("lag must be >= 1")


@dataclass(frozen=True)
class FeatureTable:
    """Complete-case regression rows extracted from one series.

    ``provenance`` holds the 1-based source index t of each row's target, so
    excluded or split rows can always be traced back to the series.
    """

    x: np.ndarray
    y: np.ndarray
    target: np.ndarray
    provenance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
        object.__setattr__(self, "provenance", np.asarray(self.provenance, dtype=int))
        lengths = {arr.shape for arr in (self.x, self.y, self.target, self.provenance)}
        if len(lengths) != 1 or self.x.ndim != 1:
            raise ValueError("feature columns must be 1-d and equally long")
        for name in ("x", "y", "target"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"feature column {name!r} contains non-finite entries")

    def __len__(self) -> int:
        return int(self.x.size)

    def subset(self, selector) -> "FeatureTable":
        """New table holding the selected rows (indices, mask, or slice)."""
        return FeatureTable(
            self.x[selector], self.y[selector],
            self.target[selector], self.provenance[selector],
        )


@dataclass(frozen=True)
class IrlsOptions:
    """Tuning knobs for the reweighted least-squares loops."""

    max_iterations: int = 50
    tolerance: float = 1e-8
    lar_floor: float = 1e-8
    bisquare_constant: float = 4.685

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0 or self.lar_floor <= 0 or self.bisquare_constant <= 0:
            raise ValueError("tolerance, lar_floor, and bisquare_constant must be > 0")


@dataclass(frozen=True)
class PolySurfaceModel:
    """Fitted surface: coefficients with confidence bounds and fit metadata.

    ``weights`` keeps the final reweighting used by the robust fits so that
    standard errors can be recomputed; it is internal state and is not part
    of the serialized document.
    """

    term_set: TermSet
    coefficients: tuple[float, ...]
    bounds: tuple[tuple[float, float], ...]
    method: str
    n_points: int
    sigma: float
    iterations: int
    converged: bool = True
    weights: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.method not in FIT_METHODS:
            raise ValueError(f"unknown fit method {self.method!r}")
        if not (len(self.coefficients) == len(self.term_set) == len(self.bounds)):
            raise ValueError("coefficients, terms, and bounds must align")
        for c, (lo, hi) in zip(self.coefficients, self.bounds):
            if not (lo <= c <= hi):
                raise ValueError(f"coefficient {c} outside its bounds ({lo}, {hi})")


def build_feature_table(series, spec: FeatureSpec) -> FeatureTable:
    """Extract (x, y, target) rows from a series with NaN-coded missing values.

    With the default spec, row t (1-based) is
    ``x = t / T, y = series[t - lag], target = series[t]``; rows touching a
    missing value are dropped and the surviving targets' indices are kept as
    provenance.
    """
    values = np.asarray(series, dtype=float)
    total = values.size
    if total <= spec.lag:
        raise InsufficientData(
            f"series of length {total} cannot support lag {spec.lag}"
        )
    t = np.arange(spec.lag + 1, total + 1)
    target = values[t - 1]
    lagged = values[t - 1 - spec.lag]
    scaled = t / total
    x = scaled if spec.x_source == TIME_INDEX_SCALED else lagged
    y = scaled if spec.y_source == TIME_INDEX_SCALED else lagged
    keep = np.isfinite(target) & np.isfinite(lagged)
    if not keep.any():
        raise InsufficientData("no complete rows after dropping missing values")
    return FeatureTable(x[keep], y[keep], target[keep], t[keep])


def design_matrix(table: FeatureTable, terms: TermSet) -> np.ndarray:
    """Matrix with entry (i, j) = x_i**m_j * y_i**n_j (0**0 taken as 1)."""
    columns = [table.x ** m * table.y ** n for m, n in terms.terms]
    return np.column_stack(columns) if columns else np.empty((len(table), 0))


def evaluate_surface(model: PolySurfaceModel, x, y):
    """Evaluate sum of c * x**m * y**n; broadcasts over array inputs.

    Scalars are evaluated as 0-d arrays, so a point gives the same bits
    whether it is passed alone or inside a grid: both take ``x ** m``
    through the ``np.power`` ufunc.  ``np.float64`` scalar or Python float
    powers do not match it bit for bit and must not replace it.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    for c, (m, n) in zip(model.coefficients, model.term_set.terms):
        out = out + c * x ** m * y ** n
    return float(out) if out.ndim == 0 else out


def _pivoted_qr(X: np.ndarray):
    """Economic column-pivoted QR of X: (Q, R, pivot, numerical rank)."""
    from scipy import linalg

    q, r, piv = linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(X.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    return q, r, piv, int(np.count_nonzero(diag > tol))


def _qr_solve(X: np.ndarray, z: np.ndarray, terms: TermSet):
    """Least-squares solve via column-pivoted QR.

    Returns the coefficient vector and the (R, pivot) pair of the
    factorization.  Raises RankError naming the dependent columns when the matrix
    does not have full column rank.
    """
    from scipy import linalg

    p = X.shape[1]
    q, r, piv, rank = _pivoted_qr(X)
    if rank < p:
        dependent = tuple(terms.labels()[j] for j in piv[rank:])
        raise RankError(
            "design matrix is rank deficient; dependent columns: "
            + ", ".join(dependent),
            columns=dependent,
        )
    beta_pivoted = linalg.solve_triangular(r, q.T @ z)
    beta = np.empty(p)
    beta[piv] = beta_pivoted
    return beta, (r, piv)


def _wls_solve(X, z, w, terms):
    sw = np.sqrt(w)
    return _qr_solve(X * sw[:, None], z * sw, terms)


def _mad_sigma(residuals: np.ndarray) -> float:
    """Robust scale: median absolute deviation about the median, normalized."""
    med = np.median(residuals)
    return float(np.median(np.abs(residuals - med)) / MAD_TO_SIGMA)


def bisquare_weights(u) -> np.ndarray:
    """Tukey biweight: (1 - u**2)**2 for |u| < 1, exactly zero outside."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 2, 0.0)


def _t_bounds(X: np.ndarray, weights: np.ndarray, sigma: float,
             coefficients, level: float) -> tuple[tuple[float, float], ...]:
    """Student-t intervals c +- t_{1-(1-level)/2, n-p} * se(c).

    se comes from sigma^2 (X'WX)^-1 with W = diag(weights), or the identity
    if the weights leave X rank deficient.
    """
    from scipy import linalg
    from scipy.special import stdtrit

    n, p = X.shape
    for w in (weights, np.ones(n)):
        _, r, piv, rank = _pivoted_qr(X * np.sqrt(w)[:, None])
        if rank == p:
            break
    else:
        raise RankError("design matrix is rank deficient")
    rinv = linalg.solve_triangular(r, np.eye(p))
    variance = np.empty(p)
    variance[piv] = np.diag(rinv @ rinv.T)
    se = sigma * np.sqrt(np.maximum(variance, 0.0))
    tq = float(stdtrit(n - p, 0.5 + level / 2.0))
    return tuple(
        (float(c - tq * s), float(c + tq * s))
        for c, s in zip(coefficients, se)
    )


def _finish_model(
    method: str,
    table: FeatureTable,
    terms: TermSet,
    X: np.ndarray,
    beta: np.ndarray,
    weights: np.ndarray,
    iterations: int,
    converged: bool,
    confidence_level: float,
) -> PolySurfaceModel:
    """Assemble the model record: sigma, t-based bounds, bookkeeping."""
    n, p = X.shape
    residuals = table.target - X @ beta
    sse = float(residuals @ residuals)
    coefficients = tuple(float(b) for b in beta)
    if n > p:
        sigma = math.sqrt(sse / (n - p))
        bounds = _t_bounds(X, weights, sigma, coefficients, confidence_level)
    else:
        # interpolating fit: zero residual degrees of freedom, point bounds
        sigma, bounds = 0.0, tuple((c, c) for c in coefficients)
    return PolySurfaceModel(
        term_set=terms,
        coefficients=coefficients,
        bounds=bounds,
        method=method,
        n_points=n,
        sigma=sigma,
        iterations=iterations,
        converged=converged,
        weights=np.asarray(weights, dtype=float),
    )


def _ols_start(table: FeatureTable, terms: TermSet):
    """Design matrix and ordinary least-squares solution every fit starts from."""
    X = design_matrix(table, terms)
    n, p = X.shape
    if n < p:
        raise InsufficientData(
            f"{n} rows cannot determine {p} terms ({', '.join(terms.labels())})"
        )
    beta, _ = _qr_solve(X, table.target, terms)
    return X, beta


def _lar_floor(residuals: np.ndarray, p: int, lar_floor: float) -> float:
    """lar_floor times the sigma of the OLS start's residuals; 0 if it interpolates."""
    n = residuals.size
    sse = float(residuals @ residuals)
    if n == p or sse == 0.0:
        return 0.0
    return lar_floor * math.sqrt(sse / (n - p))


def _final_weights(method: str, residuals: np.ndarray, p: int,
                   opts: IrlsOptions, floor: float) -> np.ndarray:
    """The weights a fit of ``method`` ends with, given its final residuals."""
    if method == "lar" and floor > 0.0:
        return 1.0 / np.maximum(np.abs(residuals), floor)
    ones = np.ones(residuals.size)
    if method != "bisquare":
        return ones
    scale = _mad_sigma(residuals)
    if scale == 0.0:
        return ones
    weights = bisquare_weights(residuals / (opts.bisquare_constant * scale))
    return weights if np.count_nonzero(weights) >= p else ones


def fit_ols(table: FeatureTable, terms: TermSet,
            confidence_level: float = 0.95) -> PolySurfaceModel:
    """Ordinary least squares via pivoted QR.

    Minimizes the summed squared residuals; sigma is sqrt(SSE / (n - p)).
    """
    X, beta = _ols_start(table, terms)
    return _finish_model(
        "ols", table, terms, X, beta, np.ones(len(table)),
        iterations=0, converged=True, confidence_level=confidence_level,
    )


def _lar_iterate(X, y, beta, floor, terms, opts):
    """Reweighted iterations for the absolute-residual objective.

    Returns (best_beta, solve_count, converged, objective_history); the
    history holds sum|r| after the starting point and each completed solve.
    """
    residuals = y - X @ beta
    best_obj = float(np.sum(np.abs(residuals)))
    best_beta = beta
    history = [best_obj]
    converged = False
    solves = 0
    for _ in range(opts.max_iterations):
        w = 1.0 / np.maximum(np.abs(residuals), floor)
        try:
            candidate, _ = _wls_solve(X, y, w, terms)
        except RankError:
            break
        solves += 1
        candidate_residuals = y - X @ candidate
        obj = float(np.sum(np.abs(candidate_residuals)))
        if obj > best_obj * (1.0 + 1e-12):
            # reweighting stopped paying off; keep the best iterate
            break
        history.append(obj)
        if obj < best_obj:
            best_obj, best_beta = obj, candidate
        step = float(np.max(np.abs(candidate - beta)))
        scale = max(float(np.max(np.abs(candidate))), np.finfo(float).tiny)
        residuals = candidate_residuals
        beta = candidate
        if step <= opts.tolerance * scale:
            converged = True
            break
    return best_beta, solves, converged, history


def fit_lar(table: FeatureTable, terms: TermSet,
            opts: IrlsOptions | None = None,
            confidence_level: float = 0.95) -> PolySurfaceModel:
    """Least absolute residuals via IRLS with weights 1 / max(|r|, floor).

    Starts from the ordinary solution and approximates argmin sum|r_i|.
    The floor is ``opts.lar_floor`` times the starting sigma, keeping the
    weights finite near interpolated points.  A fit that fails to meet the
    coefficient-change tolerance returns its best iterate with
    ``converged=False``.
    """
    opts = opts or IrlsOptions()
    X, beta = _ols_start(table, terms)
    y = table.target
    floor = _lar_floor(y - X @ beta, X.shape[1], opts.lar_floor)
    solves, converged = 0, True
    if floor > 0.0:
        beta, solves, converged, _ = _lar_iterate(X, y, beta, floor, terms, opts)
    weights = _final_weights("lar", y - X @ beta, X.shape[1], opts, floor)
    return _finish_model(
        "lar", table, terms, X, beta, weights,
        iterations=solves, converged=converged,
        confidence_level=confidence_level,
    )


def fit_bisquare(table: FeatureTable, terms: TermSet,
                 opts: IrlsOptions | None = None,
                 confidence_level: float = 0.95) -> PolySurfaceModel:
    """Tukey bisquare IRLS: w = (1 - u**2)**2 inside |u| < 1, else 0.

    u = r / (c * sigma_mad) with sigma_mad the median absolute deviation of
    the residuals about their median over 0.6745, recomputed every
    iteration; points far from the surface lose all weight.  A zero
    sigma_mad means the surface already interpolates the bulk of the rows
    and the current iterate is returned as-is.
    """
    opts = opts or IrlsOptions()
    X, beta = _ols_start(table, terms)
    y = table.target
    n, p = X.shape
    converged, solves = n == p, 0
    while not converged and solves < opts.max_iterations:
        residuals = y - X @ beta
        scale = _mad_sigma(residuals)
        if scale == 0.0:
            converged = True
            break
        w = bisquare_weights(residuals / (opts.bisquare_constant * scale))
        if np.count_nonzero(w) < p:
            break
        try:
            candidate, _ = _wls_solve(X, y, w, terms)
        except RankError:
            break
        solves += 1
        step = float(np.max(np.abs(candidate - beta)))
        ref = max(float(np.max(np.abs(candidate))), np.finfo(float).tiny)
        beta = candidate
        converged = step <= opts.tolerance * ref
    weights = _final_weights("bisquare", y - X @ beta, p, opts, 0.0)
    return _finish_model(
        "bisquare", table, terms, X, beta, weights,
        iterations=solves, converged=converged,
        confidence_level=confidence_level,
    )


def confidence_bounds(model: PolySurfaceModel, table: FeatureTable,
                      level: float) -> tuple[tuple[float, float], ...]:
    """Per-term Student-t intervals at the given confidence level.

    bound = c +- t_{1-(1-level)/2, n-p} * se(c), with the standard errors
    taken from the diagonal of sigma^2 (X'WX)^-1 where W holds the final
    IRLS weights (identity for ordinary least squares).  A model read back
    from its document carries no weights; they are rebuilt from the
    table's residuals as a fit with default ``IrlsOptions`` ends, so the
    stored bounds are reproduced exactly for such fits.  A fit run with
    other options does not reproduce: for bisquare fits with
    ``bisquare_constant=2.0`` on the bundled series the widths come back
    16-21% off.
    """
    n, p = len(table), len(model.term_set)
    if n <= p:
        raise DegreesOfFreedomError(
            f"confidence bounds need more rows ({n}) than terms ({p})"
        )
    X, start = _ols_start(table, model.term_set)
    weights = model.weights
    if weights is None or len(weights) != n:
        opts = IrlsOptions()
        floor = _lar_floor(table.target - X @ start, p, opts.lar_floor)
        residuals = table.target - X @ np.asarray(model.coefficients)
        weights = _final_weights(model.method, residuals, p, opts, floor)
    return _t_bounds(X, weights, model.sigma, model.coefficients, level)


def remove_outliers(table: FeatureTable, model: PolySurfaceModel,
                    threshold: float = 3.0):
    """Drop rows whose standardized residual exceeds the threshold.

    The scale is the median of |r| over 0.6745, taken about zero so that a
    table whose residuals are all identical keeps every row.  Returns the
    filtered table and the provenance indices of the dropped rows; raises
    ExclusionError when dropping would leave fewer rows than model terms.
    """
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    residuals = table.target - evaluate_surface(model, table.x, table.y)
    absolute = np.abs(residuals)
    scale = float(np.median(absolute)) / MAD_TO_SIGMA
    if scale > 0.0:
        keep = absolute / scale <= threshold
    else:
        # majority of rows fit exactly; anything off the surface is an outlier
        keep = absolute == 0.0
    if np.all(keep):
        return table, ()
    if int(np.count_nonzero(keep)) < len(model.term_set):
        raise ExclusionError(
            "outlier exclusion would leave fewer rows than model terms"
        )
    excluded = tuple(int(t) for t in table.provenance[~keep])
    return table.subset(keep), excluded


def model_to_document(model: PolySurfaceModel) -> str:
    """Serialize a fitted model to its JSON document."""
    doc = {
        "method": model.method,
        "terms": [[m, n] for m, n in model.term_set.terms],
        "coefficients": list(model.coefficients),
        "bounds": [[lo, hi] for lo, hi in model.bounds],
        "sigma": model.sigma,
        "n_points": model.n_points,
        "iterations": model.iterations,
        "converged": model.converged,
    }
    return json.dumps(doc, indent=2) + "\n"


def _number(value, name: str) -> float:
    """A JSON number as a float; booleans, strings and null are rejected."""
    if type(value) is not float and type(value) is not int:
        raise FormatError(f"{name} must be a number, got {value!r}")
    return float(value)


def _count(value, name: str) -> int:
    """A JSON non-negative integer; 2.0, 2.7 and true are rejected."""
    if type(value) is not int or value < 0:
        raise FormatError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _flag(value, name: str) -> bool:
    """A JSON boolean; "false", 0 and null are rejected."""
    if type(value) is not bool:
        raise FormatError(f"{name} must be true or false, got {value!r}")
    return value


def model_from_document(text: str) -> PolySurfaceModel:
    """Parse a model document; raises FormatError on anything malformed.

    Fields are checked for type and range rather than coerced: ``converged``
    must be a boolean, ``sigma`` a number >= 0, and ``n_points``,
    ``iterations`` and the term exponents non-negative integers.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("model document must be a JSON object")
    try:
        terms = TermSet(tuple((_count(m, "term exponent"), _count(n, "term exponent"))
                              for m, n in doc["terms"]))
        sigma = _number(doc["sigma"], "sigma")
        if not sigma >= 0.0:
            raise FormatError(f"sigma must be >= 0, got {sigma!r}")
        return PolySurfaceModel(
            term_set=terms,
            coefficients=tuple(_number(c, "coefficient") for c in doc["coefficients"]),
            bounds=tuple((_number(lo, "bound"), _number(hi, "bound"))
                         for lo, hi in doc["bounds"]),
            method=doc["method"],
            n_points=_count(doc["n_points"], "n_points"),
            sigma=sigma,
            iterations=_count(doc["iterations"], "iterations"),
            converged=_flag(doc["converged"], "converged"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"model document is malformed: {exc}") from exc
