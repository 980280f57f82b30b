"""The benchmark tracer wraps functions by module attribute; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAP_POINTS


@pytest.mark.parametrize("module, attr",
                         [point[:2] for point in _wrap_points()])
def test_wrap_point_resolves(module, attr):
    # a name the tracer cannot find breaks `perfbench/run.py --trace 1`
    assert callable(getattr(importlib.import_module("nvsense." + module),
                            attr, None))
