"""The benchmark tracer's hooks name functions volfit still has.

``perfbench/tracer.py`` wraps volfit's public functions by module and
attribute name, so deleting or renaming one of them breaks a traced
benchmark run while every other test stays green.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
