"""Every name the benchmark's tracer wraps must still exist where it looks."""

import importlib.util
import pathlib

import numpy as np
import pytest

import kooplift as kl

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


def _tiny_dataset(controlled):
    rng = np.random.default_rng(0)
    A = np.array([[0.9, 0.1], [0.0, 0.5]])
    U = rng.normal(size=(30, 1))
    rows = [rng.normal(size=2)]
    for u in U[:-1]:
        rows.append(A @ rows[-1] + (np.array([0.0, 1.0]) * u if controlled else 0.0))
    return kl.TrajectoryDataset([np.array(rows)], dt=0.1, inputs=[U] if controlled else None)


def test_every_kind_records_one_regression_span():
    # fit reaches its regression through the names the tracer swaps, for
    # every kind, aliases included
    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        for kind in ("dmd", "edmd", "hdmd", "kdmd", "dmdc", "edmdc", "hdmdc"):
            config = kl.RegressorConfig(kind=kind, delays=1 if kind.startswith("h") else 0)
            start = len(tracer.spans)
            kl.fit(None, config, _tiny_dataset(kind.endswith("c")))
            names = [s["name"] for s in tracer.spans[start:]]
            assert names.count("regression.fit") == 1, (kind, names)
    finally:
        tracer.uninstall()
