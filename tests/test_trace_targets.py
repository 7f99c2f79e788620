"""The traced benchmark run (``perfbench/run.py --trace 1``, also run by
the ``--smoke`` check) patches library names from outside, as listed in
``perfbench/tracing.py``; each of them must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("name, module, attr", tracing.SPANS)
def test_span_target_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


METHODS = [
    (module, cls_name, method)
    for _, module, cls_name, methods in tracing.METHOD_SPANS
    for method in methods
] + [("hcolkit.gf", "FieldElement", m) for ms in tracing.FIELD_COUNTERS.values() for m in ms]


@pytest.mark.parametrize("module, cls_name, method", METHODS)
def test_method_target_resolves(module, cls_name, method):
    cls = getattr(importlib.import_module(module), cls_name)
    assert callable(getattr(cls, method))
