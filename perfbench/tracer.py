"""Spans and counters around volfit's public functions, recorded from outside.

``Tracer.install`` replaces each public function with a wrapper *in the
namespace its callers look it up in* (``cli.parse_price_csv``,
``surface.fit_lar``, ``evaluate.evaluate_surface``, ...), so calls made by
volfit itself are seen as well as calls made by the benchmark.  Spans stay
in memory as (name, start, end, parent, op) and are written as JSON lines
when the run ends.  Nothing is recorded while ``op`` is None, which keeps
set-up work and output checks out of the per-op numbers.

This module imports only the standard library, so a traced cold process
can load it before ``import volfit`` without changing what that import
costs.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

# KZ filter cost model: every window offset of every pass reads the filled
# values and the presence mask and updates the running sum and count, i.e.
# four float64 streams of n entries.
KZ_BYTES_PER_OFFSET_ELEMENT = 4 * 8


def _kz_bytes(counters, args, kwargs, result):
    from volfit.decompose import decompose

    bound = inspect.signature(decompose).bind(*args, **kwargs)
    bound.apply_defaults()
    n = len(bound.arguments["returns"])
    work = sum(w * i for w, i in (bound.arguments["trend_params"],
                                   bound.arguments["seasonal_params"]))
    counters["decompose.kz_bytes_computed"] += KZ_BYTES_PER_OFFSET_ELEMENT * n * work


def _fit(method):
    def count(counters, args, kwargs, model):
        counters[f"surface.fit_calls.{method}"] += 1
        counters[f"surface.irls_solves.{method}"] += model.iterations
        counters[f"surface.converged.{method}"] += int(model.converged)
    return count


def _outliers(counters, args, kwargs, result):
    excluded = result[1]
    counters["surface.refits"] += int(bool(excluded))
    counters["surface.excluded_rows"] += len(excluded)


def _evaluated(counters, args, kwargs, result):
    counters["surface.evaluate_calls"] += 1
    counters["surface.evaluated_points"] += getattr(result, "size", 1)


def _parsed(counters, args, kwargs, prices):
    counters["ingest.rows_parsed"] += len(prices)
    counters["ingest.missing_rows"] += int(prices.missing.sum())


def _artifact(counters, args, kwargs, text):
    texts = (text,) if isinstance(text, str) else text
    counters["cli.artifact_bytes"] += sum(len(t.encode()) for t in texts)


# (module, attribute, span name, counter hook).  One function
# is wrapped in every namespace that references it, under one span name.
WRAPS = (
    ("volfit.cli", "run_pipeline", "cli.run_pipeline", None),
    ("volfit.cli", "parse_price_csv", "ingest.parse_price_csv", _parsed),
    ("volfit.cli", "log_returns", "decompose.log_returns", None),
    ("volfit.cli", "decompose", "decompose.decompose", _kz_bytes),
    ("volfit.cli", "decomposition_csv", "cli.decomposition_csv", _artifact),
    ("volfit.cli", "export_plot_data", "cli.export_plot_data", _artifact),
    ("volfit.surface", "fit_ols", "surface.fit_ols", _fit("ols")),
    ("volfit.surface", "fit_lar", "surface.fit_lar", _fit("lar")),
    ("volfit.surface", "fit_bisquare", "surface.fit_bisquare", _fit("bisquare")),
    ("volfit.surface", "build_feature_table", "surface.build_feature_table", None),
    ("volfit.surface", "remove_outliers", "surface.remove_outliers", _outliers),
    ("volfit.surface", "evaluate_surface", "surface.evaluate_surface", _evaluated),
    ("volfit.evaluate", "evaluate_surface", "surface.evaluate_surface", _evaluated),
    ("volfit.surface", "model_to_document", "surface.model_to_document", _artifact),
    ("volfit.surface", "model_from_document", "surface.model_from_document", None),
    ("volfit.evaluate", "split_train_test", "evaluate.split_train_test", None),
    ("volfit.evaluate", "fit_report", "evaluate.fit_report", None),
    ("volfit.evaluate", "report_to_document", "evaluate.report_to_document", _artifact),
    ("volfit.evaluate", "coefficient_table_csv", "evaluate.coefficient_table_csv",
     _artifact),
    ("volfit.evaluate", "export_coefficient_table", "evaluate.export_coefficient_table",
     _artifact),
)

# Per-layer self-time metrics, by span name.
SELF_TIME_METRICS = {
    "ingest.parse_price_csv": "ingest.parse_price_csv_s",
    "decompose.log_returns": "decompose.log_returns_s",
    "decompose.decompose": "decompose.decompose_s",
    "cli.decomposition_csv": "cli.decomposition_csv_s",
    "cli.export_plot_data": "cli.export_plot_data_s",
    "cli.run_pipeline": "cli.run_pipeline_self_s",
    "surface.fit_ols": "surface.fit_s.ols",
    "surface.fit_lar": "surface.fit_s.lar",
    "surface.fit_bisquare": "surface.fit_s.bisquare",
    "surface.build_feature_table": "surface.build_feature_table_s",
    "surface.remove_outliers": "surface.remove_outliers_s",
    "surface.evaluate_surface": "surface.evaluate_surface_s",
    "surface.model_to_document": "surface.model_to_document_s",
    "surface.model_from_document": "surface.model_from_document_s",
    "evaluate.split_train_test": "evaluate.split_train_test_s",
    "evaluate.fit_report": "evaluate.fit_report_s",
    "evaluate.report_to_document": "evaluate.report_to_document_s",
    "evaluate.coefficient_table_csv": "evaluate.coefficient_table_csv_s",
}

# Counters reported per op as they are.
COUNT_METRICS = (
    "surface.fit_calls.ols",
    "surface.fit_calls.lar",
    "surface.fit_calls.bisquare",
    "surface.irls_solves.lar",
    "surface.irls_solves.bisquare",
    "surface.excluded_rows",
    "surface.evaluate_calls",
    "surface.evaluated_points",
    "ingest.rows_parsed",
    "ingest.missing_rows",
    "decompose.kz_bytes_computed",
    "cli.artifact_bytes",
)


class Tracer:
    """In-memory span recorder; ``op`` names the op being traced, or None."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, hook=None):
        """``fn`` wrapped so that each call under an op records one span."""
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            record = [name, time.perf_counter(), None,
                      self._stack[-1] if self._stack else None, self.op]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = time.perf_counter()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every function in ``WRAPS`` in its caller's namespace."""
        for module_name, attr, name, hook in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.span(name, fn, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self, path) -> None:
        """Write the spans, then the counters, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"span": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def load(path) -> tuple[list[list], Counter]:
    """Read one dump back as (spans, counters)."""
    spans, counters = [], Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "counters" in row:
                counters.update(row["counters"])
            else:
                spans.append([row["span"], row["start"], row["end"],
                              row["parent"], row["op"]])
    return spans, counters


def summarize(spans) -> tuple[Counter, Counter]:
    """Total self time and call count per span name.

    Self time is a span's duration minus its children's durations; spans of
    one process are properly nested (single thread), so the children of a
    span cover disjoint parts of it.
    """
    self_time: Counter = Counter()
    calls: Counter = Counter()
    for name, start, end, parent, _ in spans:
        self_time[name] += end - start
        calls[name] += 1
        if parent is not None:
            self_time[spans[parent][0]] -= end - start
    return self_time, calls


def layer_metrics(self_time: Counter, calls: Counter, counters: Counter,
                  n_ops: int) -> dict:
    """Per-op layer metrics from summed self times, calls and counters."""
    out = {metric: self_time.get(span, 0.0) / n_ops
           for span, metric in SELF_TIME_METRICS.items()}
    out.update({name: counters.get(name, 0) / n_ops for name in COUNT_METRICS})
    for method in ("lar", "bisquare"):
        fits = counters.get(f"surface.fit_calls.{method}", 0)
        converged = counters.get(f"surface.converged.{method}", 0)
        out[f"surface.converged_ratio.{method}"] = converged / fits if fits else 0.0
    # every first fit in run_pipeline is followed by one remove_outliers call
    first_fits = calls.get("surface.remove_outliers", 0)
    out["surface.refit_ratio"] = (
        counters.get("surface.refits", 0) / first_fits if first_fits else 0.0
    )
    return out
