import numpy as np
import pytest

import kooplift as kl
from kooplift.errors import ConfigError, DataError


def cfg(method, **kw):
    return kl.DifferentiationConfig(method=method, **kw)


def test_fd2_exact_on_quadratic():
    t = np.array([0.0, 1.0, 2.0])
    d = kl.differentiate(cfg("fd2"), t**2, t)
    assert d[1] == pytest.approx(2.0, abs=1e-14)  # central stencil, exact
    np.testing.assert_allclose(d, 2.0 * t, atol=1e-13)


def test_fd4_exact_on_quartic_interior():
    t = np.linspace(0.0, 2.0, 21)
    d = kl.differentiate(cfg("fd4"), t**4, t)
    np.testing.assert_allclose(d[2:-2], 4.0 * t[2:-2] ** 3, rtol=1e-10, atol=1e-11)


def test_savitzky_golay_exact_on_cubic():
    t = np.linspace(0.0, 2.0, 25)
    d = kl.differentiate(cfg("savitzky_golay", window=7), t**3, t)
    np.testing.assert_allclose(d, 3.0 * t**2, rtol=1e-10, atol=1e-10)


def test_spectral_on_sine():
    m = 64
    t = np.arange(m) * (2.0 * np.pi / m)
    d = kl.differentiate(cfg("spectral", periodic=True), np.sin(t), t)
    assert np.max(np.abs(d - np.cos(t))) < 1e-10


def test_spline_interpolating_derivative():
    t = np.linspace(0.0, 1.0, 40)
    d = kl.differentiate(cfg("spline"), t**3, t)
    np.testing.assert_allclose(d, 3.0 * t**2, atol=1e-8)


def test_total_variation_on_noiseless_ramp():
    t = np.linspace(0.0, 1.0, 50)
    d = kl.differentiate(cfg("total_variation", tv_lambda=1e-4, tv_iters=100), t, t)
    np.testing.assert_allclose(d, 1.0, atol=1e-3)


def test_total_variation_refuses_more_memory_than_the_machine_has(monkeypatch):
    import os
    import tracemalloc

    # its solve holds six m x m float64 arrays at once, 192 MB at m = 2,000:
    # with the physical memory read as less, it is refused before any is
    # allocated; with exactly enough, it runs
    m = 2000
    t = np.arange(m) * 0.01
    sysconf = os.sysconf

    def memory(pages):
        monkeypatch.setattr(os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES"
                            else sysconf(name))

    page = sysconf("SC_PAGE_SIZE")
    memory((6 * m * m * 8 - 1) // page)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"^total_variation on m=2000 samples .* "
                                              "more than the .* bytes of physical memory"):
            kl.differentiate(cfg("total_variation"), np.sin(t), t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8 / 10, peak
    m = 40
    memory(-(-6 * m * m * 8 // page))
    kl.differentiate(cfg("total_variation", tv_iters=2), t[:m], t[:m])


def test_total_variation_recovers_piecewise_constant_slope():
    # |.|_1 regularization keeps the derivative nearly piecewise constant
    t = np.linspace(0.0, 2.0, 80)
    x = np.where(t < 1.0, t, 2.0 * t - 1.0)
    d = kl.differentiate(cfg("total_variation", tv_lambda=1e-3, tv_iters=200), x, t)
    assert abs(np.median(d[t < 0.9]) - 1.0) < 0.05
    assert abs(np.median(d[t > 1.1]) - 2.0) < 0.05


@pytest.mark.parametrize("method,kw", [
    ("fd2", {}),
    ("fd4", {}),
    ("savitzky_golay", {"window": 7}),
    ("spectral", {"periodic": True}),
])
def test_linearity(method, kw):
    rng = np.random.default_rng(5)
    t = np.arange(32) * 0.1
    X = rng.normal(size=(32, 2))
    Y = rng.normal(size=(32, 2))
    a, b = 1.7, -0.4
    c = cfg(method, **kw)
    lhs = kl.differentiate(c, a * X + b * Y, t)
    rhs = a * kl.differentiate(c, X, t) + b * kl.differentiate(c, Y, t)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("method,kw,tol", [
    ("fd2", {}, 1e-12),
    ("fd4", {}, 1e-12),
    ("savitzky_golay", {"window": 7}, 1e-10),
    ("spectral", {"periodic": True}, 1e-12),
    ("spline", {}, 1e-8),
    ("total_variation", {}, 1e-6),
])
def test_constant_signal_derivative_is_zero(method, kw, tol):
    t = np.arange(24) * 0.05
    x = np.full((24, 2), 3.7)
    d = kl.differentiate(cfg(method, **kw), x, t)
    assert np.max(np.abs(d)) <= tol


def test_multicolumn_matches_per_column():
    rng = np.random.default_rng(8)
    t = np.arange(20) * 0.1
    X = rng.normal(size=(20, 3))
    d = kl.differentiate(cfg("fd4"), X, t)
    for j in range(3):
        np.testing.assert_array_equal(d[:, j], kl.differentiate(cfg("fd4"), X[:, j], t))


@pytest.mark.parametrize("method,kw,min_m", [
    ("fd2", {}, 3),
    ("fd4", {}, 5),
    ("savitzky_golay", {"window": 7}, 7),
    ("spectral", {"periodic": True}, 4),
    ("spline", {}, 4),
    ("total_variation", {}, 3),
])
def test_minimum_sample_counts(method, kw, min_m):
    t = np.arange(min_m - 1) * 0.1
    with pytest.raises(DataError, match="at least"):
        kl.differentiate(cfg(method, **kw), np.ones(min_m - 1), t)
    t = np.arange(min_m) * 0.1
    kl.differentiate(cfg(method, **kw), np.ones(min_m), t)  # does not raise


def test_non_uniform_grid_rejected():
    t = np.array([0.0, 0.1, 0.25, 0.3, 0.4])
    with pytest.raises(DataError, match="uniform"):
        kl.differentiate(cfg("fd2"), np.ones(5), t)


@pytest.mark.parametrize("bad, match", [(np.nan, "increasing"), (np.inf, "uniform")])
def test_non_finite_timestamps_rejected(bad, match):
    t = np.array([0.0, 0.1, 0.2, 0.3, bad])
    with pytest.raises(DataError, match=match):
        kl.differentiate(cfg("fd2"), np.ones(5), t)


def test_spectral_requires_periodic_flag():
    t = np.arange(8) * 0.1
    with pytest.raises(DataError, match="periodic"):
        kl.differentiate(cfg("spectral"), np.ones(8), t)


def test_config_validation():
    with pytest.raises(ConfigError):
        cfg("unknown_method")
    with pytest.raises(ConfigError):
        cfg("savitzky_golay", window=4)
    with pytest.raises(ConfigError):
        cfg("savitzky_golay", window=3)
    with pytest.raises(ConfigError):
        cfg("total_variation", tv_iters=0)
    with pytest.raises(ConfigError):
        cfg("total_variation", tv_lambda=0.0)
    # options are type-checked, never coerced
    for method, kw in (("total_variation", {"tv_iters": 2.5}),
                       ("savitzky_golay", {"window": 7.0}),
                       ("spectral", {"periodic": "no"}),
                       ("spline", {"smoothing": True}),
                       ("total_variation", {"tv_lambda": "1e-3"})):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            cfg(method, **kw)
    assert type(cfg("spline", smoothing=1).smoothing) is float
