import copy

import numpy as np
import pytest

import kooplift as kl


def make_slow_manifold_dataset(grid=10, t_end=50.0, dt=0.02):
    """Grid of initial conditions on [-1, 1]^2 integrated with fixed-step RK4."""
    pts = np.linspace(-1.0, 1.0, grid)
    X0 = np.array([[a, b] for a in pts for b in pts])
    spec = kl.get_system("slow_manifold")
    n_samples = int(round(t_end / dt))  # t = arange(0, t_end, dt)
    batch = kl.integrate_rk4_batch(spec, X0, dt, n_samples - 1)
    return kl.TrajectoryDataset(list(batch), dt=dt)


def strip_spectrum(d):
    """A copy of a model file dict with no eigenvalues: empty lambdas, mus,
    eigenvectors, modes and training scores, and no metadata rank."""
    d = copy.deepcopy(d)
    eigen = d["eigen"]
    eigen["lambdas"] = eigen["mus"] = []
    for key in ("W_right", "W_left", "modes_exact"):
        if key in eigen:
            eigen[key] = {"shape": [d["A"]["shape"][0], 0], "complex": True, "data": []}
    d["metadata"]["training_scores"] = []
    del d["metadata"]["rank"]
    return d


@pytest.fixture(scope="session")
def slow_manifold_small():
    """Reduced dataset for unit tests: 3x3 grid, 10 time units."""
    return make_slow_manifold_dataset(grid=3, t_end=10.0)


@pytest.fixture(scope="session")
def slow_manifold_poly_model(slow_manifold_small):
    return kl.fit(kl.Polynomial(2), "edmd", slow_manifold_small)


def numpy_route(monkeypatch, loader):
    """Patch the `_kernels` loader named `loader` to return what it returns
    where numpy's library exports none of the routines it looks for: its
    numpy function, which is returned here too."""
    with monkeypatch.context() as m:
        m.setattr(kl._kernels, "_openblas", lambda *args: None)
        fallback = getattr(kl._kernels, loader).__wrapped__()
    monkeypatch.setattr(kl._kernels, loader, lambda: fallback)
    return fallback


@pytest.fixture(params=["library", "numpy"])
def tsqr_update(request, monkeypatch):
    """The TSQR's update: the one numpy's own library gives here, then the
    numpy update that a library without dtpqrt gets."""
    if request.param == "numpy":
        return numpy_route(monkeypatch, "lapack_tpqrt")
    return kl._kernels.lapack_tpqrt()
