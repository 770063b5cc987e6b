"""Seeded price-CSV generator for the benchmark workloads.

The return process is the one that produced the bundled
``data/synthetic_vix.csv``: ``synthetic_returns`` and ``trading_days`` are
imported from ``scripts/make_synthetic_vix.py`` unchanged.  On top of it a
stream of inputs varies three properties that change how much work volfit does:

* jump probability: the share of one-sided gamma jumps, i.e. the outlier
  fraction that drives outlier refits and IRLS iterations;
* missing-price fraction: cells written as ``null``;
* length: the number of price rows.

Inputs are drawn by stratified sampling, so every seed covers the same
ranges evenly while the series themselves differ.  Same seed and index,
same CSV text.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_maker():
    """The bundled-data generator script, imported as a module."""
    path = ROOT / "scripts" / "make_synthetic_vix.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_vix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKER = load_maker()
BUNDLED_LENGTH = MAKER.N_DAYS


@dataclass(frozen=True)
class SeriesProps:
    """The chosen properties of one generated input, as recorded in results."""

    n_prices: int
    jump_probability: float
    missing_fraction: float
    missing_count: int
    sha256: str


@contextlib.contextmanager
def _jump_probability(p: float):
    # synthetic_returns reads the module constant at call time
    saved = MAKER.JUMP_PROBABILITY
    MAKER.JUMP_PROBABILITY = p
    try:
        yield
    finally:
        MAKER.JUMP_PROBABILITY = saved


def price_csv(n_prices: int, jump_probability: float, missing_fraction: float,
              rng: np.random.Generator) -> tuple[str, SeriesProps]:
    """One ``Date,Close`` CSV with ``round(missing_fraction * n)`` null cells."""
    with _jump_probability(jump_probability):
        returns = MAKER.synthetic_returns(n_prices - 1, rng)
    prices = np.exp(np.log(20.0) + np.concatenate([[0.0], np.cumsum(returns)]))
    missing_count = int(round(missing_fraction * n_prices))
    missing = set(rng.choice(n_prices, size=missing_count, replace=False).tolist())
    dates = MAKER.trading_days(MAKER.START, n_prices)
    lines = ["Date,Close"]
    lines += [
        f"{d.isoformat()},{'null' if i in missing else repr(float(p))}"
        for i, (d, p) in enumerate(zip(dates, prices))
    ]
    text = "\n".join(lines) + "\n"
    props = SeriesProps(
        n_prices=n_prices,
        jump_probability=jump_probability,
        missing_fraction=missing_fraction,
        missing_count=missing_count,
        sha256=hashlib.sha256(text.encode()).hexdigest()[:16],
    )
    return text, props


# Consecutive inputs of a stream form blocks; within a block each property
# takes one draw from each of BLOCK equal strata of its range, so any run
# of ops sees the same spread of properties whatever the seed.
BLOCK = 8


def series(seed: int, stream: str, i: int, length: tuple[int, int],
           jump: tuple[float, float] = (0.04, 0.12),
           missing: tuple[float, float] = (0.0, 0.01)) -> tuple[str, SeriesProps]:
    """Input ``i`` of ``stream`` for ``seed``: a CSV text and its properties.

    ``stream`` separates the inputs one workload draws from one seed.
    Length, jump probability and missing fraction are stratified per block.
    """
    key = int.from_bytes(stream.encode(), "little")
    block, k = divmod(i, BLOCK)
    strata = np.random.default_rng([seed, key, block]).permuted(
        np.tile(np.arange(BLOCK), (3, 1)), axis=1)[:, k]
    rng = np.random.default_rng([seed, key, block, k])
    share = (strata + rng.random(3)) / BLOCK
    n = int(length[0] + (length[1] + 1 - length[0]) * share[0])
    p = jump[0] + (jump[1] - jump[0]) * share[1]
    m = missing[0] + (missing[1] - missing[0]) * share[2]
    return price_csv(n, float(p), float(m), rng)
