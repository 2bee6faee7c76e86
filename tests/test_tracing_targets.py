"""Every name the benchmark's tracer wraps must still exist where it looks."""

import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing_module()


@pytest.mark.parametrize("module,path", [(t[0], t[1]) for t in tracing.TARGETS])
def test_traced_name_resolves(module, path):
    owner, attr, original = tracing._resolve(module, path)
    assert callable(original)
