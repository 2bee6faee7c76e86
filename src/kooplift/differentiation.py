"""Time-derivative estimation from uniformly sampled signals.

Methods and their boundary semantics:

* ``fd2``   - second-order central differences, second-order one-sided at
  both ends.
* ``fd4``   - fourth-order central stencil in the interior, second-order
  stencils within two points of each boundary.
* ``savitzky_golay`` - local least-squares cubic over an odd window,
  derivative of the fit at the center; boundary points evaluate the nearest
  full window's polynomial.
* ``spectral`` - Fourier multiplier i*omega on a periodic grid; for even
  sample counts the Nyquist coefficient's derivative contribution is zero.
* ``spline`` - cubic smoothing spline (penalty ``smoothing``), analytic
  derivative; smoothing 0 interpolates.
* ``total_variation`` - regularized derivative u minimizing
  0.5 * ||A u - (x - x0)||^2 + lambda * ||D u||_1 with A cumulative
  (trapezoidal) integration and D the first difference, solved by
  iteratively reweighted least squares with an epsilon-smoothed absolute
  value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import uniform_step
from .errors import ConfigError, DataError, _check_memory, check_bool, check_int, check_real

__all__ = ["DifferentiationConfig", "differentiate", "METHODS"]

METHODS = ("fd2", "fd4", "savitzky_golay", "spectral", "spline", "total_variation")

_MIN_SAMPLES = {
    "fd2": 3,
    "fd4": 5,
    "spectral": 4,
    "spline": 4,
    "total_variation": 3,
}

_TV_EPS = 1e-8


@dataclass(frozen=True)
class DifferentiationConfig:
    method: str = "fd2"
    window: int = 5  # savitzky_golay only; odd, >= 5
    smoothing: float = 0.0  # spline penalty
    tv_lambda: float = 1e-4
    tv_iters: int = 100
    periodic: bool = False  # spectral only

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown differentiation method {self.method!r}; "
                f"choose from {METHODS}"
            )
        # every option is checked and stored canonically, whatever the method
        for name, value in (("window", check_int(self.window, "window", 1)),
                            ("smoothing", check_real(self.smoothing, "smoothing")),
                            ("tv_lambda", check_real(self.tv_lambda, "tv_lambda",
                                                     positive=True)),
                            ("tv_iters", check_int(self.tv_iters, "tv_iters", 1)),
                            ("periodic", check_bool(self.periodic, "periodic"))):
            object.__setattr__(self, name, value)
        if self.method == "savitzky_golay" and (self.window < 5 or self.window % 2 == 0):
            raise ConfigError(
                f"savitzky_golay window must be odd and >= 5, got {self.window}"
            )


def _fd2(X, h):
    dX = np.empty_like(X)
    dX[1:-1] = (X[2:] - X[:-2]) / (2.0 * h)
    dX[0] = (-3.0 * X[0] + 4.0 * X[1] - X[2]) / (2.0 * h)
    dX[-1] = (3.0 * X[-1] - 4.0 * X[-2] + X[-3]) / (2.0 * h)
    return dX


def _fd4(X, h):
    dX = _fd2(X, h)
    dX[2:-2] = (-X[4:] + 8.0 * X[3:-1] - 8.0 * X[1:-3] + X[:-4]) / (12.0 * h)
    return dX


def _spectral(X, h):
    m = X.shape[0]
    omega = 2.0 * np.pi * np.fft.fftfreq(m, d=h)
    if m % 2 == 0:
        omega[m // 2] = 0.0  # Nyquist mode carries no derivative information
    F = np.fft.fft(X, axis=0)
    return np.real(np.fft.ifft(1j * omega[:, None] * F, axis=0))


def _spline(X, t, smoothing):
    # scipy is imported where it is used, so importing kooplift does not load it
    from scipy.interpolate import UnivariateSpline

    dX = np.empty_like(X)
    for j in range(X.shape[1]):
        spl = UnivariateSpline(t, X[:, j], k=3, s=smoothing)
        dX[:, j] = spl.derivative()(t)
    return dX


def _tv_column(x, h, lam, iters):
    m = x.shape[0]
    b = x[1:] - x[0]
    # trapezoidal cumulative integration: (A u)_i = integral of u up to t_i
    A = np.zeros((m - 1, m))
    for i in range(1, m):
        A[i - 1, 0] = 0.5
        A[i - 1, 1:i] = 1.0
        A[i - 1, i] = 0.5
    A *= h
    D = np.zeros((m - 1, m))
    idx = np.arange(m - 1)
    D[idx, idx] = -1.0
    D[idx, idx + 1] = 1.0
    AtA = A.T @ A
    Atb = A.T @ b
    u = _fd2(x[:, None], h)[:, 0]
    for _ in range(iters):
        w = 1.0 / np.sqrt((D @ u) ** 2 + _TV_EPS)
        M = AtA + lam * (D.T * w) @ D
        try:
            u = np.linalg.solve(M, Atb)
        except np.linalg.LinAlgError:
            u = np.linalg.lstsq(M, Atb, rcond=None)[0]
    return u


def differentiate(config: DifferentiationConfig, X, t) -> np.ndarray:
    """Estimate dX/dt on a uniform grid; X is (m, n) samples, t is (m,)."""
    X = np.asarray(X, dtype=float)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[:, None]
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.shape[0] != X.shape[0]:
        raise DataError(f"t has shape {t.shape}, expected ({X.shape[0]},)")
    m = X.shape[0]
    method = config.method
    min_m = _MIN_SAMPLES.get(method, config.window)
    if m < min_m:
        raise DataError(f"{method} needs at least {min_m} samples, got {m}")
    h = uniform_step(t)

    if method == "fd2":
        dX = _fd2(X, h)
    elif method == "fd4":
        dX = _fd4(X, h)
    elif method == "savitzky_golay":
        from scipy.signal import savgol_filter

        dX = savgol_filter(
            X, window_length=config.window, polyorder=3, deriv=1, delta=h,
            axis=0, mode="interp",
        )
    elif method == "spectral":
        if not config.periodic:
            raise DataError("spectral differentiation requires the periodic flag")
        dX = _spectral(X, h)
    elif method == "spline":
        dX = _spline(X, t, config.smoothing)
    else:
        # a column's solve holds six m x m arrays: 48.0 MB at m = 1,000
        _check_memory(6 * m * m * X.itemsize, f"total_variation on m={m} samples")
        dX = np.column_stack(
            [_tv_column(X[:, j], h, config.tv_lambda, config.tv_iters)
             for j in range(X.shape[1])]
        )
    return dX[:, 0] if squeeze else dX
