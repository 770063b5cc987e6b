"""Sparse bivariate polynomial surfaces fit by ordinary and robust least squares.

A surface is a sparse polynomial ``f(x, y) = sum_j c_j * x**m_j * y**n_j``
over a configured list of exponent pairs.  Feature tables pair a scaled
time index with a lagged series value, so a fitted surface predicts the
current value of a series from when it is observed and where it recently
was.  Every fit runs through ``_fit``, which builds the design, solves
the ordinary start, hands it to the method's walk and computes the bounds
and the record; OLS keeps the start, least absolute residuals walks to a
certified L1 vertex by basis exchange, and Tukey bisquare runs iteratively
reweighted least squares.  Least-squares solves go through a pivoted QR
factorization rather than normal equations.

Everything the fits take from scipy comes from ``_scipy()``, loaded by the
first fit, so that evaluating a saved model loads numpy only: the LAPACK
routines of ``scipy.linalg._flapack``, the Student-t quantile of
``scipy.special._ufuncs`` (both loaded without their packages) and the
thread setter of the OpenBLAS that ``_flapack`` links.  Each fit's
LAPACK calls run on one thread of that OpenBLAS, when it can be told so
(see ``_fit``); numpy's own BLAS is left alone.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import importlib.util
import json
import math
import sys
import types
from dataclasses import dataclass

import numpy as np

from .errors import ExclusionError, FormatError, InsufficientData, RankError

FIT_METHODS = ("ols", "lar", "bisquare")
SERIES_NAMES = ("volatility", "trend", "seasonal", "remainder")

# MAD of a standard normal; dividing a median absolute deviation by this
# turns it into a consistent estimate of the Gaussian sigma.
MAD_TO_SIGMA = 0.6745

# The robust fits' constants: Tukey's bisquare c (95% efficiency at the
# normal) and bisquare's coefficient-step tolerance.
BISQUARE_CONSTANT = 4.685
BISQUARE_TOLERANCE = 1e-8
# Caps on LAR's basis exchanges and bisquare's reweighted solves, read by
# the fits at call time.
LAR_MAX_EXCHANGES = 50
BISQUARE_MAX_SOLVES = 50


@dataclass(frozen=True)
class TermSet:
    """Ordered, duplicate-free list of (m, n) exponent pairs for one surface.

    Exponents are Python ints >= 0; a bool, float or string is rejected."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("term set must be non-empty")
        pairs = {}
        for m, n in self.terms:
            if not (type(m) is int and type(n) is int and m >= 0 and n >= 0):
                raise ValueError(
                    f"exponents must be non-negative integers, got ({m!r}, {n!r})")
            if (m, n) in pairs:
                raise ValueError(f"duplicate term ({m}, {n})")
            pairs[m, n] = None
        object.__setattr__(self, "terms", tuple(pairs))

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
        for chunk in filter(None, map(str.strip, text.split(","))):
            parts = chunk.split(":")
            if len(parts) != 2:
                raise ValueError(f"term {chunk!r} is not of the form m:n")
            pairs.append(tuple(_exponent(e.strip(), ValueError) for e in parts))
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
        provenance = np.asarray(self.provenance)
        if provenance.size and provenance.dtype.kind not in "iu":
            raise ValueError(f"provenance must hold integers, got {provenance.dtype}")
        object.__setattr__(self, "provenance", provenance.astype(int, copy=False))
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
    document back gives the model bit for bit.  Construction checks every
    field (ValueError) and stores each number as a float.
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
        try:
            coefficients = tuple([_number(c, "coefficient") for c in self.coefficients])
            bounds = tuple([(_number(lo, "bound"), _number(hi, "bound"))
                            for lo, hi in self.bounds])
        except TypeError as exc:
            raise ValueError(f"coefficients and bounds must be arrays: {exc}") from None
        if not (isinstance(self.term_set, TermSet)
                and len(coefficients) == len(self.term_set) == len(bounds)):
            raise ValueError("coefficients, bounds and a TermSet of terms must align")
        for c, (lo, hi) in zip(coefficients, bounds):
            if not (lo <= c <= hi):
                raise ValueError(f"coefficient {c} outside its bounds ({lo}, {hi})")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "sigma", _scale(self.sigma, "sigma"))
        object.__setattr__(self, "n_points", _count(self.n_points, "n_points"))
        object.__setattr__(self, "iterations", _count(self.iterations, "iterations"))
        object.__setattr__(self, "converged", _flag(self.converged, "converged"))


def build_feature_table(series, lag: int = 1) -> FeatureTable:
    """Extract (x, y, target) rows from a series with NaN-coded missing values.

    Row t (1-based) is ``x = t / T, y = series[t - lag], target = series[t]``:
    the scaled time index in (0, 1] and the value ``lag`` steps earlier.
    Rows touching a missing value are dropped and the surviving targets'
    indices are kept as provenance.  Raises ValueError unless lag is an
    integer (numpy's too) >= 1 and the series is 1-d.
    """
    lag = _count(lag, "lag")
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ValueError("series must be 1-d")
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
    xs, ys = _powers(table.x, table.y, terms.terms)
    return np.column_stack([xs[m] * ys[n] for m, n in terms.terms])


def evaluate_surface(model: PolySurfaceModel, x, y):
    """Evaluate sum of c * x**m * y**n; broadcasts over array inputs.

    The sum runs from 0.0 in term order over ``_powers``' chains.  A point,
    both coordinates scalars, returns a Python float with the bits it has
    inside an array: Python float products and sums round as numpy's do.
    """
    terms = model.term_set.terms
    xs, ys = _powers(x, y, terms)
    total = 0.0
    for c, (m, n) in zip(model.coefficients, terms):
        total = total + c * xs[m] * ys[n]
    return total


def _powers(x, y, terms) -> list[list]:
    """The chains ``[v**0, v**1, ...]`` for v = x and v = y, each up to its
    largest exponent in the terms' (m, n) pairs, by products: v**0 = 1 and
    v**e = v**(e - 1) * v.  A 0-d coordinate gives Python floats, any other
    arrays of its shape.  An IEEE product rounds alike in both and on every
    CPU; numpy's power ufunc has SIMD loops that round some cubes and fifth
    powers otherwise than libm."""
    chains = []
    for v, top in zip((x, y), map(max, zip(*terms))):
        v = np.asarray(v, dtype=float)
        v, chain = (v, [np.ones(v.shape)]) if v.ndim else (float(v), [1.0])
        for _ in range(top):
            chain.append(chain[-1] * v)
        chains.append(chain)
    return chains


def _scipy_extension(package: str, name: str):
    """The compiled module ``scipy.<package>.<name>``, loaded without running
    ``scipy/<package>/__init__.py``, which imports about a hundred modules
    (numpy's ``f2py``, ``ma`` and ``testing`` among them) that the compiled
    module does not need.

    If ``scipy.<package>`` is already imported, the module is imported the
    usual way.  Otherwise a stand-in module carrying the package's real
    ``__path__`` sits in ``sys.modules`` during the import.  A later
    ``import scipy.<package>`` binds the very same objects, though it does
    not set ``<name>`` as an attribute of the package.  The stand-in
    depends on scipy's file layout (the module lives in the package's
    directory and needs nothing from its ``__init__``); callers fall back
    to the public imports on ImportError or AttributeError.  It is not
    thread-safe while it sits in ``sys.modules``: another thread importing
    ``scipy.<package>`` would get it.  volfit is single-threaded.
    """
    parent = f"scipy.{package}"
    if parent in sys.modules:
        return importlib.import_module(f"{parent}.{name}")
    stand_in = types.ModuleType(parent)
    stand_in.__path__ = importlib.util.find_spec(parent).submodule_search_locations
    sys.modules[parent] = stand_in
    try:
        return importlib.import_module(f"{parent}.{name}")
    finally:
        if sys.modules.get(parent) is stand_in:
            del sys.modules[parent]


@functools.cache
def _scipy():
    """Everything the fits take from scipy, loaded by the first fit.

    ``geqp3``, ``orgqr`` and ``trtrs`` serve the least-squares solves, and
    ``getrf`` and ``getrs`` the square basis solves of the LAR vertex: the
    float64 routines ``scipy.linalg.lapack.get_lapack_funcs`` returns,
    taken from ``scipy.linalg._flapack``.  ``stdtrit`` is
    ``scipy.special.stdtrit``, the Student-t quantile, taken from
    ``scipy.special._ufuncs``.  Each extension falls back to its public
    import on its own.

    ``set_threads`` is ``openblas_set_num_threads_local`` of the OpenBLAS
    that ``_flapack`` links: it sets the thread count and returns the
    previous one.  It is looked up on the extension's own handle, whose
    symbol search covers the libraries it links, so no library file is
    named.  Where that BLAS has no such function (MKL, Accelerate, OpenBLAS
    before 0.3.27) ``set_threads`` returns its argument and changes nothing.
    """
    names = ("geqp3", "orgqr", "trtrs", "getrf", "getrs")
    try:
        flapack = _scipy_extension("linalg", "_flapack")
        routines = [getattr(flapack, "d" + name) for name in names]
    except (ImportError, AttributeError):
        from scipy.linalg.lapack import get_lapack_funcs

        routines = get_lapack_funcs(names, dtype=np.float64)
    try:
        stdtrit = _scipy_extension("special", "_ufuncs").stdtrit
    except (ImportError, AttributeError):
        from scipy.special import stdtrit
    try:
        set_threads = ctypes.CDLL(
            sys.modules["scipy.linalg._flapack"].__file__
        ).openblas_set_num_threads_local
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
    except (OSError, AttributeError):
        def set_threads(count: int) -> int:
            return count
    return types.SimpleNamespace(**dict(zip(names, routines)), stdtrit=stdtrit,
                                 set_threads=set_threads)


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


def _r_solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve R x = b for the upper triangle R of the C-ordered ``r``.

    The call ``scipy.linalg.solve_triangular`` makes for a C-ordered R;
    the entries below the diagonal are never read.
    """
    x, _ = _scipy().trtrs(r.T, b, lower=1, trans=1)
    return x


def _qr_solve(X: np.ndarray, z: np.ndarray, terms: TermSet,
              w: np.ndarray | None = None):
    """Least-squares solve via column-pivoted QR, weighted by ``w`` if given.

    A weighted solve is the ordinary solve of sqrt(w) X against sqrt(w) z.
    The design is one owned, Fortran-ordered copy of X, scaled in place by
    sqrt(w) (the bits of ``X * sqrt(w)[:, None]``), that LAPACK's geqp3
    overwrites: the calls ``scipy.linalg.qr(X, mode="economic",
    pivoting=True)`` makes, so R and the pivot have its bits; the caller's
    X is never written.  Returns the coefficient vector and the (R, pivot)
    pair, R C-ordered with only its upper triangle meaningful.  Raises
    RankError naming the dependent columns when the matrix does not have
    full column rank, and ValueError when X or z holds a NaN or an infinity.
    """
    n, p = X.shape
    a = np.array(X, dtype=float, order="F")
    if w is not None:
        sw = np.sqrt(w)
        a *= sw[:, None]
        z = z * sw
    _require_finite(a)
    qr, piv, tau = _with_workspace(_scipy().geqp3, a, overwrite_a=1)
    piv -= 1
    diag = np.abs(np.diagonal(qr))
    rank = int(np.count_nonzero(diag > max(n, p) * np.finfo(float).eps * diag[0]))
    if rank < p:
        dependent = tuple(terms.labels()[j] for j in piv[rank:])
        raise RankError("design matrix is rank deficient; dependent columns: "
                        + ", ".join(dependent), columns=dependent)
    # always a copy (orgqr overwrites qr), even of the contiguous p = 1 slice
    r = np.array(qr[:p], order="C")
    q, = _with_workspace(_scipy().orgqr, qr, tau, overwrite_a=1)
    qtz = q.T @ z
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


def _fit(method: str, table: FeatureTable, terms: TermSet, confidence_level: float,
         walk) -> PolySurfaceModel:
    """The one fit path: the design, the start, the method's walk, the record.

    The start is the least-squares solution of the design by pivoted QR
    (RankError for a rank-deficient design).  ``walk(X, y, beta, terms)``
    takes it to the method's coefficients and returns ``(beta, iterations,
    converged)``.  The one place bounds are computed, one rule for every
    method: c +- t_{1-(1-level)/2, n-p} se(c), with sigma = sqrt(SSE / (n - p))
    over the method's own residuals and se from sigma^2 (X'X)^-1, taken
    from the start's factor.  A start that interpolates every row (n == p, or
    SSE 0) skips the walk and has sigma 0 and point bounds.  Raises
    InsufficientData for n < p, and ValueError after the start and before the
    walk unless 0 < level < 1, so a rank-deficient design raises RankError first.

    The start, the walk and the bounds run on one thread of scipy's
    OpenBLAS, set through ``_scipy().set_threads`` and restored in a
    ``finally``: at volfit's sizes (about 2000 x 11) a QR solve then takes
    about 40% less time, and the bits do not depend on the count, since
    OpenBLAS splits each BLAS call by output rows or columns, never along a
    sum.  OpenBLAS's "local" setter writes the count for the whole process
    (as of 0.3.31), so any other thread's calls into that OpenBLAS also run
    on one thread during a fit; volfit is single-threaded.
    """
    X = design_matrix(table, terms)
    n, p = X.shape
    if n < p:
        raise InsufficientData(
            f"{n} rows cannot determine {p} terms ({', '.join(terms.labels())})"
        )
    set_threads = _scipy().set_threads
    previous = set_threads(1)
    try:
        y = table.target
        beta, (r, piv) = _qr_solve(X, y, terms)
        if not 0.0 < confidence_level < 1.0:
            raise ValueError(
                f"confidence level must lie in (0, 1), got {confidence_level!r}")
        residuals, iterations, converged = y - X @ beta, 0, True
        if n > p and float(residuals @ residuals) != 0.0:
            beta, iterations, converged = walk(X, y, beta, terms)
            residuals = y - X @ beta
        coefficients = tuple(float(b) for b in beta)
        sigma, bounds = 0.0, tuple((c, c) for c in coefficients)
        if n > p:
            sigma = math.sqrt(float(residuals @ residuals) / (n - p))
            rinv = _r_solve(r, np.eye(p))
            variance = np.empty(p)
            variance[piv] = np.diag(rinv @ rinv.T)
            se = sigma * np.sqrt(variance)
            tq = float(_scipy().stdtrit(n - p, 0.5 + confidence_level / 2.0))
            bounds = tuple((float(c - tq * s), float(c + tq * s))
                           for c, s in zip(coefficients, se))
    finally:
        set_threads(previous)
    return PolySurfaceModel(
        term_set=terms, coefficients=coefficients, bounds=bounds, method=method,
        n_points=n, sigma=sigma, iterations=iterations, converged=converged)


def fit_ols(table: FeatureTable, terms: TermSet,
            confidence_level: float = 0.95) -> PolySurfaceModel:
    """Ordinary least squares via pivoted QR: ``_fit``'s start, unweighted.

    Minimizes the summed squared residuals; sigma is sqrt(SSE / (n - p)).
    """
    return _fit("ols", table, terms, confidence_level,
                lambda X, y, beta, terms: (beta, 0, True))


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
    p = X.shape[1]
    scaled = X / np.max(np.abs(X), axis=0)
    span = np.empty((p, p))
    rows = []
    for i in np.argsort(keys, kind="stable"):
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


def _l1_vertex(X: np.ndarray, y: np.ndarray, start: np.ndarray, max_exchanges: int):
    """Barrodale-Roberts basis exchange from the coefficients ``start`` to an L1 vertex.

    A vertex interpolates the p rows of a basis B: beta solves
    X_B beta = y_B.  It minimizes sum|y - X beta| when every entry of
    u = X_B^-T sum_{i not in B} s_i x_i lies in [-1, 1], s_i being the
    sign of row i's residual; that is the certificate.  Otherwise the row
    with the largest |u| leaves B and a line search picks the row that
    enters.  A residual within a rounding bound of zero has no sign of its
    own: it is 0 until an exchange moves the row off it, and then keeps the
    side the exchange put it on.  The first basis is the p rows with the
    smallest |y - X start| that are linearly independent.

    Each of at most ``max_exchanges`` rounds tests the certificate and,
    failing it, makes one exchange; the vertex the last allowed exchange
    reaches is returned untested.  Returns (beta, exchanges, certified).
    A basis that rounding leaves singular ends the walk at the vertex
    before, and at ``start`` itself when it is the first basis or when no
    p rows are independent within rounding, which a nearly collinear
    design can give though its QR has full rank.
    """
    getrf, getrs = _scipy().getrf, _scipy().getrs
    n, p = X.shape
    abs_x, abs_y = np.abs(X), np.abs(y)
    rounding = 4 * p * np.finfo(float).eps
    basis = _independent_rows(X, np.abs(y - X @ start))
    if basis.size < p:
        return start, 0, False
    side, beta = np.zeros(n), start
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


def _lar_walk(X: np.ndarray, y: np.ndarray, beta: np.ndarray, terms: TermSet):
    """``fit_lar``'s walk from the start to the better of it and the vertex."""
    vertex, exchanges, certified = _l1_vertex(X, y, beta, LAR_MAX_EXCHANGES)
    if np.sum(np.abs(y - X @ vertex)) <= np.sum(np.abs(y - X @ beta)):
        beta = vertex
    return beta, exchanges, certified


def fit_lar(table: FeatureTable, terms: TermSet,
            confidence_level: float = 0.95) -> PolySurfaceModel:
    """Least absolute residuals: argmin sum|r_i| at a certified L1 vertex.

    Walks from ``_fit``'s ordinary start, exchanging basis rows until the
    vertex carries the optimality certificate (``converged=True``);
    ``iterations`` counts the exchanges, at most ``LAR_MAX_EXCHANGES``.
    ``converged=False`` says no certificate test passed, not that the fit
    is suboptimal: the vertex the last allowed exchange reaches is not
    tested, so a fit the cap stops reports False even on an optimal vertex.
    The coefficients solve X_B beta = y_B for the final basis B, unless the
    ordinary start has the smaller sum|r|, as it can when the cap stops the
    fit or the walk ends at the start (unconverged; see ``_l1_vertex``).  A
    start that interpolates the rows is returned at once.
    """
    return _fit("lar", table, terms, confidence_level, _lar_walk)


def _tukey_weights(residuals: np.ndarray) -> np.ndarray | None:
    """Bisquare weights of r / (c * sigma_mad), or None when sigma_mad is 0."""
    scale = _mad_sigma(residuals)
    if scale == 0.0:
        return None
    return bisquare_weights(residuals / (BISQUARE_CONSTANT * scale))


def _bisquare_walk(X: np.ndarray, y: np.ndarray, beta: np.ndarray, terms: TermSet):
    """``fit_bisquare``'s reweighted solves from the start to the last iterate."""
    p = X.shape[1]
    converged, solves = False, 0
    while not converged and solves < BISQUARE_MAX_SOLVES:
        w = _tukey_weights(y - X @ beta)
        converged = w is None
        if converged or np.count_nonzero(w) < p:
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
    return beta, solves, converged


def fit_bisquare(table: FeatureTable, terms: TermSet,
                 confidence_level: float = 0.95) -> PolySurfaceModel:
    """Tukey bisquare IRLS: w = (1 - u**2)**2 inside |u| < 1, else 0.

    Walks from ``_fit``'s ordinary start.  u = r / (c * sigma_mad) with
    c = BISQUARE_CONSTANT and sigma_mad the median absolute deviation of
    the residuals about their median over 0.6745, recomputed every
    iteration; points far from the surface lose all weight.  A zero
    sigma_mad means the surface already interpolates the bulk of the rows
    and the current iterate is returned as-is.
    """
    return _fit("bisquare", table, terms, confidence_level, _bisquare_walk)


def remove_outliers(table: FeatureTable, model: PolySurfaceModel,
                    threshold: float = 3.0):
    """Drop rows whose standardized residual exceeds the threshold.

    The scale is the median of |r| over 0.6745, taken about zero so that a
    table whose residuals are all identical keeps every row.  Returns the
    filtered table and the provenance indices of the dropped rows; raises
    ExclusionError when dropping would leave no more rows than model terms
    (a refit on p rows interpolates them and has no residual scale),
    InsufficientData on an empty table, and ValueError unless the threshold
    is a number > 0.  ``inf`` keeps every row, the surface's own too.
    """
    threshold = _threshold(threshold, "threshold")
    if not len(table):
        raise InsufficientData("an empty table has no outliers to remove")
    if threshold == math.inf:
        return table, ()
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
    if int(np.count_nonzero(keep)) <= len(model.term_set):
        raise ExclusionError(
            "outlier exclusion would leave no more rows than model terms"
        )
    excluded = tuple(int(t) for t in table.provenance[~keep])
    return table.subset(keep), excluded


def model_to_document(model: PolySurfaceModel) -> str:
    """Serialize a fitted model to its JSON document."""
    doc = {
        "method": model.method,
        # json writes each tuple as an array
        "terms": model.term_set.terms,
        "coefficients": model.coefficients,
        "bounds": model.bounds,
        "sigma": model.sigma,
        "n_points": model.n_points,
        "iterations": model.iterations,
        "converged": model.converged,
    }
    return json.dumps(doc, indent=2) + "\n"


def _number(value, name: str) -> float:
    """A finite int or float, numpy's too, as a float; anything else is a ValueError.

    A numpy float meets float64's max as a float64: a Python float would be
    cast down to a float16 or float32, with an overflow warning."""
    if type(value) is float and math.isfinite(value):
        return value
    if (type(value) is not bool and isinstance(value, (int, np.integer, np.floating))
            and abs(value) <= (np.finfo(float).max if isinstance(value, np.floating)
                               else sys.float_info.max)):
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _scale(value, name: str) -> float:
    """A residual scale (sigma, an RMSE): a finite number >= 0, as a float."""
    if _number(value, name) >= 0:
        return float(value)
    raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _threshold(value, name: str) -> float:
    """An outlier threshold: a number > 0, as a float.  ``inf`` is one, and
    excludes no row; NaN, bools and strings raise ValueError."""
    if value != math.inf and _number(value, name) <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return float(value)


def _plain(text: str) -> bool:
    """Whether ``text`` is ASCII without ``_``, as every number volfit reads is.

    ``int()`` and ``float()`` also read ``1_0`` and non-ASCII digits, which
    no reader of volfit accepts; signs, exponents and spaces read as they do.
    """
    return "_" not in text and text.isascii()


def _plain_number(text: str, kind=float):
    """``kind(text)`` for ``_plain`` text; otherwise ValueError."""
    if not _plain(text):
        raise ValueError(f"not a plain number: {text!r}")
    return kind(text)


def _exponent(text: str, error) -> int:
    """A term exponent in plain ASCII digits as an int; raises ``error`` otherwise."""
    if not (text.isascii() and text.isdigit()):
        raise error(f"exponent must be a non-negative integer, got {text!r}")
    return int(text)


def _count(value, name: str, error=ValueError) -> int:
    """A non-negative integer, numpy's too, as an int; 2.0, 2.7 and True
    raise ``error``."""
    if type(value) is bool or not isinstance(value, (int, np.integer)) or value < 0:
        raise error(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _list(value, name: str) -> list:
    """A JSON array; objects, strings and null are rejected."""
    if type(value) is not list:
        raise FormatError(f"{name} must be an array, got {value!r}")
    return value


def _flag(value, name: str) -> bool:
    """A boolean; "false", 0 and None raise ValueError."""
    if type(value) is not bool:
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def model_from_document(text: str) -> PolySurfaceModel:
    """Parse a model document; raises FormatError on anything malformed.

    The records check every field's type and range rather than coerce it;
    ``_read_model`` parses the JSON and checks that the arrays are arrays.
    A ``str`` is looked up first among the last 8 texts read, so equal
    text returns the same frozen model it gave before; a failure is not
    kept, and text of any other type is read afresh.
    """
    return (_cached_model if type(text) is str else _read_model)(text)


def _read_model(text) -> PolySurfaceModel:
    try:
        doc = json.loads(text)
        return PolySurfaceModel(
            term_set=TermSet(tuple(_list(doc["terms"], "terms"))),
            coefficients=_list(doc["coefficients"], "coefficients"),
            bounds=_list(doc["bounds"], "bounds"),
            method=doc["method"],
            n_points=doc["n_points"],
            sigma=doc["sigma"],
            iterations=doc["iterations"],
            converged=doc["converged"],
        )
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"model document is malformed: {exc}") from exc


_cached_model = functools.lru_cache(maxsize=8)(_read_model)
