"""Every function the benchmark wraps in a span still exists.

`perfbench/spans.py` patches module attributes by name; a renamed or
deleted function would break a benchmark run (or only its `--trace 1`
layer table). This resolves each wrap point and patches nothing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


_MODULE = _spans()


@pytest.mark.parametrize("target,attr,name", _MODULE.PHASE_POINTS + _MODULE.LAYER_POINTS)
def test_wrap_point_resolves(target, attr, name):
    owner = _MODULE._resolve(target)
    assert callable(getattr(owner, attr, None)), f"{target}.{attr} ({name}) is gone"
