"""The benchmark's span tracer wraps program functions by module and name.

A function that is renamed or moved would leave its per-layer metrics
unmeasured without failing any conversion, so every name the tracer's wrap
table lists must still resolve to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def wrap_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module_name, attr_path", [
    pytest.param(module_name, attr_path, id=span)
    for module_name, attr_path, span, _ in wrap_table()
])
def test_every_traced_name_resolves(module_name, attr_path):
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr_path} is gone"
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{attr_path} is not callable"
