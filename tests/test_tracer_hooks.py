"""The benchmark tracer's hooks name functions volfit still has.

``perfbench/tracer.py`` wraps volfit's public functions by module and
attribute name, so deleting or renaming one of them breaks a traced
benchmark run while every other test stays green.  A wrapper sees a call
only if volfit looks the function up by that name when it calls it.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from volfit import cli, surface
from volfit.ingest import PipelineConfig

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracer):
    return [(importlib.import_module(module_name), attr)
            for module_name, attr, _, _ in tracer.WRAPS]


def test_every_wrap_resolves_to_a_volfit_callable(tracer):
    for module, attr in _targets(tracer):
        fn = getattr(module, attr, None)
        assert callable(fn), f"{module.__name__}.{attr}"
        assert fn.__module__.startswith("volfit."), f"{module.__name__}.{attr}"


def test_install_then_uninstall_restores_each_original(tracer):
    targets = _targets(tracer)
    originals = [getattr(module, attr) for module, attr in targets]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        for (module, attr), fn in zip(targets, originals):
            assert getattr(module, attr) is not fn, f"{module.__name__}.{attr}"
    finally:
        recorder.uninstall()
    for (module, attr), fn in zip(targets, originals):
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr}"


def test_a_fit_batch_op_records_one_parse_and_one_decomposition(tracer):
    # perfbench's fit-batch op: run_pipeline for each method on one text
    # not seen before, traced as one op
    raw = (ROOT / "data" / "synthetic_vix.csv").read_text(encoding="utf-8")
    cli._decomposition.cache_clear()
    recorder = tracer.Tracer()
    recorder.install()
    fits = Counter()
    try:
        recorder.op = 0
        for method in surface.FIT_METHODS:
            _, results = cli.run_pipeline(raw, PipelineConfig(fit_method=method))
            fits[f"surface.fit_{method}"] = sum(1 + bool(r["report"].excluded)
                                                for r in results.values())
        recorder.op = None
    finally:
        recorder.uninstall()
        cli._decomposition.cache_clear()
    spans = Counter(name for name, *_ in recorder.spans)
    assert spans["cli.run_pipeline"] == 3
    assert spans["ingest.parse_price_csv"] == 1
    assert spans["decompose.log_returns"] == 1
    assert spans["decompose.decompose"] == 1
    assert {name: spans[name] for name in fits} == fits
