"""Sparse bivariate polynomial surfaces fit by ordinary and robust least squares.

A surface is a sparse polynomial ``f(x, y) = sum_j c_j * x**m_j * y**n_j``
over a configured list of exponent pairs.  Feature tables pair a scaled
time index with a lagged series value, so a fitted surface predicts the
current value of a series from when it is observed and where it recently
was.  Both robust variants start from the ordinary solution: least
absolute residuals walks to a certified L1 vertex by basis exchange, and
Tukey bisquare runs iteratively reweighted least squares.  Least-squares
solves go through a pivoted QR factorization rather than normal
equations.

scipy's LAPACK wrappers and ``scipy.special`` are imported by the
functions that fit and bound a surface, not at module level, so that
evaluating a saved model loads numpy only.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExclusionError,
    FormatError,
    InsufficientData,
    RankError,
)

FIT_METHODS = ("ols", "lar", "bisquare")
SERIES_NAMES = ("volatility", "trend", "seasonal", "remainder")

# MAD of a standard normal; dividing a median absolute deviation by this
# turns it into a consistent estimate of the Gaussian sigma.
MAD_TO_SIGMA = 0.6745

# The robust fits' constants: Tukey's bisquare c (95% efficiency at the
# normal), bisquare's coefficient-step tolerance, and the floor of LAR's
# bound weights in units of the ordinary start's sigma (see ``fit_lar``).
BISQUARE_CONSTANT = 4.685
BISQUARE_TOLERANCE = 1e-8
LAR_FLOOR = 1e-8
# Caps on LAR's basis exchanges and bisquare's reweighted solves, read by
# the fits at call time.
LAR_MAX_EXCHANGES = 50
BISQUARE_MAX_SOLVES = 50


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
        """Parse a comma-separated list of m:n pairs, e.g. ``"0:0,0:1,1:0"``.

        Exponents are plain ASCII digits, with spaces allowed around them.
        """
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            m_part, sep, n_part = chunk.partition(":")
            parts = (m_part.strip(), n_part.strip())
            if not (sep and all(e.isascii() and e.isdigit() for e in parts)):
                raise ValueError(f"term {chunk!r} is not of the form m:n "
                                 "with non-negative integer exponents")
            pairs.append(tuple(map(int, parts)))
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
class PolySurfaceModel:
    """Fitted surface: coefficients with confidence bounds and fit metadata.

    ``iterations`` counts bisquare's reweighted solves or LAR's basis
    exchanges (0 for OLS).  ``converged`` means bisquare met its step
    tolerance, or that LAR's vertex carries the L1 optimality certificate;
    LAR reports False also when the cap is hit on an optimal vertex, whose
    certificate is then not tested (see ``fit_lar``).  The fit computes the
    bounds; every field is written to the model document, and reading the
    document back gives the model bit for bit.
    """

    term_set: TermSet
    coefficients: tuple[float, ...]
    bounds: tuple[tuple[float, float], ...]
    method: str
    n_points: int
    sigma: float
    iterations: int
    converged: bool = True

    def __post_init__(self):
        if self.method not in FIT_METHODS:
            raise ValueError(f"unknown fit method {self.method!r}")
        if not (len(self.coefficients) == len(self.term_set) == len(self.bounds)):
            raise ValueError("coefficients, terms, and bounds must align")
        for c, (lo, hi) in zip(self.coefficients, self.bounds):
            if not (lo <= c <= hi):
                raise ValueError(f"coefficient {c} outside its bounds ({lo}, {hi})")


def build_feature_table(series, lag: int = 1) -> FeatureTable:
    """Extract (x, y, target) rows from a series with NaN-coded missing values.

    Row t (1-based) is ``x = t / T, y = series[t - lag], target = series[t]``:
    the scaled time index in (0, 1] and the value ``lag`` steps earlier.
    Rows touching a missing value are dropped and the surviving targets'
    indices are kept as provenance.  Raises ValueError for lag < 1.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    values = np.asarray(series, dtype=float)
    total = values.size
    if total <= lag:
        raise InsufficientData(f"series of length {total} cannot support lag {lag}")
    t = np.arange(lag + 1, total + 1)
    target = values[t - 1]
    lagged = values[t - 1 - lag]
    keep = np.isfinite(target) & np.isfinite(lagged)
    if not keep.any():
        raise InsufficientData("no complete rows after dropping missing values")
    return FeatureTable((t / total)[keep], lagged[keep], target[keep], t[keep])


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


@functools.cache
def _lapack():
    """The float64 LAPACK routines volfit calls, fetched on first use.

    geqp3, orgqr and trtrs serve the least-squares solves; getrf and getrs
    the square basis solves of the LAR vertex.
    """
    from scipy.linalg.lapack import get_lapack_funcs

    return get_lapack_funcs(("geqp3", "orgqr", "trtrs", "getrf", "getrs"),
                            dtype=np.float64)


@functools.lru_cache(maxsize=256)
def _lwork(routine, *shapes) -> int:
    """The workspace size LAPACK asks for to run ``routine`` on these shapes."""
    return int(routine(*map(np.zeros, shapes), lwork=-1)[-2][0])


def _with_workspace(routine, *args, **kwargs):
    """Call a LAPACK routine with the workspace size it asks for.

    This is scipy's ``safecall``, with its ``lwork=-1`` query, which reads
    the shapes only, made once per shape: the workspace size sets LAPACK's
    blocking and so the result's bits.
    """
    lwork = _lwork(routine, *(a.shape for a in args))
    *out, info = routine(*args, lwork=lwork, **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of a LAPACK call")
    return out[:-1]


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _pivoted_qr(X: np.ndarray, sw: np.ndarray | None = None):
    """Column-pivoted QR of X, or of ``sw[:, None] * X``: (r, qr, tau, pivot, rank).

    The design is built once, owned and Fortran-ordered, as a copy of X
    scaled in place by ``sw[:, None]`` if given (the bits of
    ``X * sw[:, None]``), and LAPACK's geqp3 overwrites it: ``qr`` holds R
    in its upper triangle and the Householder reflectors below it.  These
    are the calls ``scipy.linalg.qr(X, mode="economic", pivoting=True)``
    makes, so R and the pivot have its bits.  ``r`` is a C-ordered copy of
    qr's first p rows, whose upper triangle is R; the caller's X is never
    written.  Raises ValueError when the design holds a NaN or an infinity.
    """
    a = np.array(X, dtype=float, order="F")
    if sw is not None:
        a *= sw[:, None]
    _require_finite(a)
    qr, pivot, tau = _with_workspace(_lapack()[0], a, overwrite_a=1)
    pivot -= 1
    # an explicit copy: orgqr overwrites qr, and for p = 1 the slice is
    # already contiguous, so np.ascontiguousarray would return a view
    r = np.array(qr[:X.shape[1]], order="C")
    diag = np.abs(np.diagonal(qr))
    tol = max(X.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    return r, qr, tau, pivot, int(np.count_nonzero(diag > tol))


def _r_solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve R x = b for the upper triangle R of the C-ordered ``r``.

    The call ``scipy.linalg.solve_triangular`` makes for a C-ordered R;
    the entries below the diagonal are never read.
    """
    x, _ = _lapack()[2](r.T, b, lower=1, trans=1)
    return x


def _qr_solve(X: np.ndarray, z: np.ndarray, terms: TermSet,
              w: np.ndarray | None = None):
    """Least-squares solve via column-pivoted QR, weighted by ``w`` if given.

    A weighted solve is the ordinary solve of sqrt(w) X against sqrt(w) z.
    Returns the coefficient vector and the (R, pivot) pair of the
    factorization; only R's upper triangle is meaningful.  Raises RankError
    naming the dependent columns when the matrix does not have full column
    rank, and ValueError when X or z holds a NaN or an infinity.
    """
    p = X.shape[1]
    sw = None if w is None else np.sqrt(w)
    r, qr, tau, piv, rank = _pivoted_qr(X, sw)
    if rank < p:
        dependent = tuple(terms.labels()[j] for j in piv[rank:])
        raise RankError(
            "design matrix is rank deficient; dependent columns: "
            + ", ".join(dependent),
            columns=dependent,
        )
    q, = _with_workspace(_lapack()[1], qr, tau, overwrite_a=1)
    qtz = q.T @ (z if sw is None else z * sw)
    _require_finite(qtz)
    beta = np.empty(p)
    beta[piv] = _r_solve(r, qtz)
    return beta, (r, piv)


def _median(a: np.ndarray):
    """``np.median`` of a 1-d float array, bit for bit, from one partition: a NaN
    tops the upper half, the lower half's max is the lower middle value, and
    the middle values are summed from 0.0, as np.mean sums them."""
    half, odd = divmod(a.size, 2)
    part = np.partition(a, half)
    top = part[half:].max()
    if np.isnan(top):
        return top
    return 0.0 + part[half] if odd else (0.0 + part[:half].max() + part[half]) / 2


def _mad_sigma(residuals: np.ndarray) -> float:
    """Robust scale: median absolute deviation about the median, normalized."""
    med = _median(residuals)
    return float(_median(np.abs(residuals - med)) / MAD_TO_SIGMA)


def bisquare_weights(u) -> np.ndarray:
    """Tukey biweight: (1 - u**2)**2 for |u| < 1, exactly zero outside."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 2, 0.0)


def _t_bounds(X: np.ndarray, weights: np.ndarray, sigma: float,
             coefficients, level: float) -> tuple[tuple[float, float], ...]:
    """Student-t intervals c +- t_{1-(1-level)/2, n-p} * se(c).

    se comes from sigma^2 (X'WX)^-1 with W = diag(weights), or the identity
    if the weights leave X rank deficient.  An interpolating fit (n == p)
    has no residual degrees of freedom and gets point bounds.  Every fit
    passes through here, so every fit raises ValueError unless
    0 < level < 1.
    """
    from scipy.special import stdtrit

    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level!r}")
    n, p = X.shape
    if n == p:
        return tuple((c, c) for c in coefficients)
    # the unweighted fallback has the bits of unit weights: X * 1.0 is X
    for sw in (np.sqrt(weights), None):
        r, _, _, piv, rank = _pivoted_qr(X, sw)
        if rank == p:
            break
    else:
        raise RankError("design matrix is rank deficient")
    rinv = _r_solve(r, np.eye(p))
    variance = np.empty(p)
    variance[piv] = np.diag(rinv @ rinv.T)
    se = sigma * np.sqrt(np.maximum(variance, 0.0))
    tq = float(stdtrit(n - p, 0.5 + level / 2.0))
    return tuple(
        (float(c - tq * s), float(c + tq * s))
        for c, s in zip(coefficients, se)
    )


def _finish_model(method: str, table: FeatureTable, terms: TermSet, X: np.ndarray,
                  beta: np.ndarray, floor: float, iterations: int, converged: bool,
                  confidence_level: float) -> PolySurfaceModel:
    """Assemble the model record: sigma, t-based bounds, bookkeeping.

    This is the one place bounds are computed: the rows are weighted as the
    fit of ``method`` ended, and ``floor`` is LAR's (0.0 for the others).
    """
    n, p = X.shape
    residuals = table.target - X @ beta
    coefficients = tuple(float(b) for b in beta)
    # an interpolating fit (n == p) has zero residual degrees of freedom
    sigma = math.sqrt(float(residuals @ residuals) / (n - p)) if n > p else 0.0
    weights = _final_weights(method, residuals, p, floor)
    return PolySurfaceModel(
        term_set=terms,
        coefficients=coefficients,
        bounds=_t_bounds(X, weights, sigma, coefficients, confidence_level),
        method=method,
        n_points=n,
        sigma=sigma,
        iterations=iterations,
        converged=converged,
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


def _final_weights(method: str, residuals: np.ndarray, p: int,
                   floor: float) -> np.ndarray:
    """The weights a fit of ``method`` ends with, given its final residuals."""
    if method == "lar" and floor > 0.0:
        return 1.0 / np.maximum(np.abs(residuals), floor)
    ones = np.ones(residuals.size)
    if method != "bisquare":
        return ones
    scale = _mad_sigma(residuals)
    if scale == 0.0:
        return ones
    weights = bisquare_weights(residuals / (BISQUARE_CONSTANT * scale))
    return weights if np.count_nonzero(weights) >= p else ones


def fit_ols(table: FeatureTable, terms: TermSet,
            confidence_level: float = 0.95) -> PolySurfaceModel:
    """Ordinary least squares via pivoted QR.

    Minimizes the summed squared residuals; sigma is sqrt(SSE / (n - p)).
    """
    X, beta = _ols_start(table, terms)
    return _finish_model(
        "ols", table, terms, X, beta, 0.0,
        iterations=0, converged=True, confidence_level=confidence_level,
    )


def _stable_prefix(keys: np.ndarray, size: int) -> np.ndarray:
    """At least the first ``size`` entries of ``np.argsort(keys, kind="stable")``:
    the keys up to the size-th smallest, ties included, sorted alone (no NaN)."""
    if size >= keys.size:
        return np.argsort(keys, kind="stable")
    head = np.flatnonzero(keys <= np.partition(keys, size - 1)[size - 1])
    return head[np.argsort(keys[head], kind="stable")]


def _independent_rows(X: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The first p rows of X by stable ascending keys that are independent, sorted.

    Gram-Schmidt on the rows with the columns scaled to a max of 1; a row
    whose remainder is within rounding of zero (a duplicate, say) is skipped.
    """
    n, p = X.shape
    scaled = X / np.max(np.abs(X), axis=0)
    span = np.empty((p, p))
    rows, walked, size = [], 0, 4 * p
    while len(rows) < p and walked < n:
        order = _stable_prefix(keys, size)
        for i in order[walked:]:
            basis = span[:len(rows)]
            v = scaled[i]
            w = v - (basis @ v) @ basis
            w -= (basis @ w) @ basis
            norm = math.sqrt(w @ w)
            if norm > 64 * p * np.finfo(float).eps * math.sqrt(v @ v):
                np.divide(w, norm, out=span[len(rows)])
                rows.append(i)
                if len(rows) == p:
                    break
        walked, size = order.size, 4 * size
    return np.sort(np.array(rows))


def _line_search(t: np.ndarray, weight: np.ndarray, descent: float) -> np.ndarray:
    """Breakpoints an exchange crosses, in order, ending with the one it stops at.

    The objective's slope along the exchange direction starts at -descent
    and each breakpoint t adds its weight, so the minimum lies at a weighted
    median of t: the first breakpoint (ascending t, ties to the lower
    index) after which the slope is >= 0.  If rounding keeps the slope
    below zero throughout, the exchange stops at the last breakpoint.
    """
    size = 64
    while True:
        order = _stable_prefix(t, size)
        running = np.cumsum(weight[order])
        if running[-1] >= descent or order.size == t.size:
            return order[:int(np.searchsorted(running, descent)) + 1]
        size *= 4


def _l1_vertex(X: np.ndarray, y: np.ndarray, residuals: np.ndarray,
               max_exchanges: int):
    """Barrodale-Roberts basis exchange from ``residuals`` to an L1 vertex.

    A vertex interpolates the p rows of a basis B: beta solves
    X_B beta = y_B.  It minimizes sum|y - X beta| when every entry of
    u = X_B^-T sum_{i not in B} s_i x_i lies in [-1, 1], s_i being the
    sign of row i's residual; that is the certificate.  Otherwise the row
    with the largest |u| leaves B and a line search picks the row that
    enters.  A residual within a rounding bound of zero has no sign of its
    own: it is 0 until an exchange moves the row off it, and then keeps the
    side the exchange put it on.  The start is the p smallest-|r| rows that
    are linearly independent.

    Each of at most ``max_exchanges`` rounds tests the certificate and,
    failing it, makes one exchange; the vertex the last allowed exchange
    reaches is returned untested.  Returns (beta, exchanges, certified),
    with beta None when no p rows are independent within rounding, which
    a nearly collinear design can give though its QR has full rank; a
    basis that rounding leaves singular ends the walk at the vertex before.
    """
    getrf, getrs = _lapack()[3:]
    n, p = X.shape
    abs_x, abs_y = np.abs(X), np.abs(y)
    rounding = 4 * p * np.finfo(float).eps
    basis = _independent_rows(X, np.abs(residuals))
    if basis.size < p:
        return None, 0, False
    side, beta = np.zeros(n), None
    for exchanges in range(max_exchanges + 1):
        lu, piv, info = getrf(X[basis])
        if info > 0:
            return beta, exchanges, False
        beta, _ = getrs(lu, piv, y[basis])
        if exchanges == max_exchanges:
            return beta, exchanges, False
        r = y - X @ beta
        bound = abs_x @ np.abs(beta)
        bound += abs_y
        bound *= rounding
        clear = np.abs(r) > bound
        s = np.sign(r)
        np.copyto(s, side, where=~clear)
        s[basis] = 0.0
        u, _ = getrs(lu, piv, X.T @ s, trans=1)
        k = int(np.argmax(np.abs(u)))
        if abs(u[k]) <= 1.0:
            return beta, exchanges, True
        # move off row basis[k]: X_B d = sign(u_k) e_k, beta(t) = beta + t d
        direction = math.copysign(1.0, u[k])
        e = np.zeros(p)
        e[k] = direction
        d, _ = getrs(lu, piv, e)
        g = X @ d
        bound = abs_x @ np.abs(d)
        bound *= rounding
        moving = np.abs(g) > bound
        moving[basis] = False
        # residuals r - t g that reach 0 at some t >= 0
        moving &= s * g >= 0.0
        rows = np.flatnonzero(moving)
        if rows.size == 0:
            return beta, exchanges, False
        g_rows = g[rows]
        t = np.where(clear[rows], r[rows], 0.0) / g_rows
        # crossing a breakpoint adds 2|g| to the objective's slope, or |g|
        # for a residual that starts at 0
        weight = np.abs(s[rows])
        weight += 1.0
        weight *= np.abs(g_rows)
        crossed = rows[_line_search(t, weight, abs(u[k]) - 1.0)]
        side = s
        side[crossed] = -np.sign(g[crossed])
        side[basis[k]] = -direction
        basis[k] = crossed[-1]
        basis.sort()


def fit_lar(table: FeatureTable, terms: TermSet,
            confidence_level: float = 0.95) -> PolySurfaceModel:
    """Least absolute residuals: argmin sum|r_i| at a certified L1 vertex.

    Starts from the ordinary solution and exchanges basis rows until the
    vertex carries the optimality certificate (``converged=True``);
    ``iterations`` counts the exchanges, at most ``LAR_MAX_EXCHANGES``.
    ``converged=False`` says no certificate test passed, not that the fit
    is suboptimal: the vertex the last allowed exchange reaches is not
    tested, so a fit the cap stops reports False even on an optimal vertex.
    The coefficients solve X_B beta = y_B for the final basis B, unless the
    ordinary start has the smaller sum|r|, as it can when the cap stops the
    fit; sum|r| never exceeds the start's.  A start that interpolates the
    rows is returned as-is, and so, unconverged, is one of a design with no
    p rows independent within rounding.  ``LAR_FLOOR`` times the starting
    sigma floors |r| in the bound weights 1 / max(|r|, floor).
    """
    X, start = _ols_start(table, terms)
    y = table.target
    residuals = y - X @ start
    n, p = X.shape
    sse = float(residuals @ residuals)
    # 0 when the start interpolates the rows: no sigma to scale the floor by
    floor = 0.0 if n == p or sse == 0.0 else LAR_FLOOR * math.sqrt(sse / (n - p))
    beta, exchanges, certified = start, 0, True
    if floor > 0.0:
        vertex, exchanges, certified = _l1_vertex(X, y, residuals, LAR_MAX_EXCHANGES)
        if vertex is not None and (np.sum(np.abs(y - X @ vertex))
                                   <= np.sum(np.abs(residuals))):
            beta = vertex
    return _finish_model(
        "lar", table, terms, X, beta, floor,
        iterations=exchanges, converged=certified,
        confidence_level=confidence_level,
    )


def fit_bisquare(table: FeatureTable, terms: TermSet,
                 confidence_level: float = 0.95) -> PolySurfaceModel:
    """Tukey bisquare IRLS: w = (1 - u**2)**2 inside |u| < 1, else 0.

    u = r / (c * sigma_mad) with c = BISQUARE_CONSTANT and sigma_mad the
    median absolute deviation of the residuals about their median over
    0.6745, recomputed every iteration; points far from the surface lose
    all weight.  A zero sigma_mad means the surface already interpolates
    the bulk of the rows and the current iterate is returned as-is.
    """
    X, beta = _ols_start(table, terms)
    y = table.target
    n, p = X.shape
    converged, solves = n == p, 0
    while not converged and solves < BISQUARE_MAX_SOLVES:
        residuals = y - X @ beta
        scale = _mad_sigma(residuals)
        if scale == 0.0:
            converged = True
            break
        w = bisquare_weights(residuals / (BISQUARE_CONSTANT * scale))
        if np.count_nonzero(w) < p:
            break
        try:
            candidate, _ = _qr_solve(X, y, terms, w)
        except RankError:
            break
        solves += 1
        step = float(np.max(np.abs(candidate - beta)))
        ref = max(float(np.max(np.abs(candidate))), np.finfo(float).tiny)
        beta = candidate
        converged = step <= BISQUARE_TOLERANCE * ref
    return _finish_model(
        "bisquare", table, terms, X, beta, 0.0,
        iterations=solves, converged=converged,
        confidence_level=confidence_level,
    )


def remove_outliers(table: FeatureTable, model: PolySurfaceModel,
                    threshold: float = 3.0):
    """Drop rows whose standardized residual exceeds the threshold.

    The scale is the median of |r| over 0.6745, taken about zero so that a
    table whose residuals are all identical keeps every row.  Returns the
    filtered table and the provenance indices of the dropped rows; raises
    ExclusionError when dropping would leave fewer rows than model terms.
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold!r}")
    residuals = table.target - evaluate_surface(model, table.x, table.y)
    absolute = np.abs(residuals)
    scale = float(_median(absolute)) / MAD_TO_SIGMA
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
    """A finite JSON number as a float; booleans, strings and null are rejected."""
    if type(value) is float and math.isfinite(value):
        return value
    if type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    raise FormatError(f"{name} must be a finite number, got {value!r}")


def _plain_number(text: str, kind=float):
    """``kind(text)`` for ASCII text without ``_``; otherwise ValueError.

    ``int()`` and ``float()`` also read ``1_0`` and non-ASCII digits, which
    no reader of volfit accepts; signs, exponents and spaces read as they do.
    """
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain number: {text!r}")
    return kind(text)


def _count(value, name: str) -> int:
    """A JSON non-negative integer; 2.0, 2.7 and true are rejected."""
    if type(value) is not int or value < 0:
        raise FormatError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _list(value, name: str) -> list:
    """A JSON array; objects, strings and null are rejected."""
    if type(value) is not list:
        raise FormatError(f"{name} must be an array, got {value!r}")
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
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("model document must be a JSON object")
    try:
        terms = TermSet(tuple((_count(m, "term exponent"), _count(n, "term exponent"))
                              for m, n in _list(doc["terms"], "terms")))
        sigma = _number(doc["sigma"], "sigma")
        if not sigma >= 0.0:
            raise FormatError(f"sigma must be >= 0, got {sigma!r}")
        return PolySurfaceModel(
            term_set=terms,
            coefficients=tuple(_number(c, "coefficient")
                               for c in _list(doc["coefficients"], "coefficients")),
            bounds=tuple((_number(lo, "bound"), _number(hi, "bound"))
                         for lo, hi in _list(doc["bounds"], "bounds")),
            method=doc["method"],
            n_points=_count(doc["n_points"], "n_points"),
            sigma=sigma,
            iterations=_count(doc["iterations"], "iterations"),
            converged=_flag(doc["converged"], "converged"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"model document is malformed: {exc}") from exc
