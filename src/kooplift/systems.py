"""Reference dynamical systems and a fixed-step RK4 integrator.

The continuous-time catalog (slow_manifold, vdp_osc, lorenz, forced_duffing)
is integrated with classical fourth-order Runge-Kutta at a fixed step, with
inputs held constant over each step (zero-order hold). Discrete generators
(linear2d, torus_signal, drss) produce data directly.

Equation forms and default parameters are pinned here so generated data is
reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DataError, check_int, check_real

__all__ = [
    "SystemSpec",
    "get_system",
    "system_rhs",
    "integrate_rk4",
    "integrate_rk4_batch",
    "drss",
    "linear2d_step",
    "LINEAR2D_A",
    "torus_signal",
    "SYSTEM_NAMES",
]

LINEAR2D_A = np.array([[0.8, -0.1], [0.0, 0.7]])


# Catalog right-hand sides (x, u, t, **params) -> xdot. x is (n,) or (B, n)
# and u, when given, (q,) or (B, q); a missing input is held at zero.

def _slow_manifold(x, u=None, t=0.0, *, mu, lam):
    dx = np.empty_like(x)
    dx[..., 0] = mu * x[..., 0]
    dx[..., 1] = lam * (x[..., 1] - x[..., 0] ** 2)
    return dx


def _vdp_osc(x, u=None, t=0.0, *, mu):
    dx = np.empty_like(x)
    dx[..., 0] = x[..., 1]
    dx[..., 1] = mu * (1.0 - x[..., 0] ** 2) * x[..., 1] - x[..., 0]
    if u is not None:
        dx[..., 1] += u[..., 0]
    return dx


def _lorenz(x, u=None, t=0.0, *, sigma, rho, beta):
    dx = np.empty_like(x)
    dx[..., 0] = sigma * (x[..., 1] - x[..., 0])
    dx[..., 1] = x[..., 0] * (rho - x[..., 2]) - x[..., 1]
    dx[..., 2] = x[..., 0] * x[..., 1] - beta * x[..., 2]
    return dx


def _forced_duffing(x, u=None, t=0.0, *, delta, alpha, beta):
    dx = np.empty_like(x)
    dx[..., 0] = x[..., 1]
    dx[..., 1] = -delta * x[..., 1] - alpha * x[..., 0] - beta * x[..., 0] ** 3
    if u is not None:
        dx[..., 1] += u[..., 0]
    return dx


_CATALOG = {
    "slow_manifold": dict(n=2, q=0, rhs=_slow_manifold, defaults={"mu": -0.05, "lam": -1.0}),
    "vdp_osc": dict(n=2, q=1, rhs=_vdp_osc, defaults={"mu": 2.0}),
    "lorenz": dict(
        n=3, q=0, rhs=_lorenz, defaults={"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
    ),
    "forced_duffing": dict(
        n=2, q=1, rhs=_forced_duffing, defaults={"delta": 0.5, "alpha": -1.0, "beta": 1.0},
    ),
}

SYSTEM_NAMES = tuple(sorted(_CATALOG))


@dataclass(frozen=True)
class SystemSpec:
    """A catalog system: its continuous right-hand side and dimensions."""

    name: str
    n: int
    q: int
    params: dict
    rhs: Callable  # (x, u, t) -> xdot, vectorized over rows


def _catalog_entry(name: str, params: dict):
    """The catalog entry for `name` and its defaults merged with `params`."""
    if name not in _CATALOG:
        raise ConfigError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")
    entry = _CATALOG[name]
    merged = dict(entry["defaults"])
    unknown = set(params) - set(merged)
    if unknown:
        raise ConfigError(f"unknown parameters for {name}: {sorted(unknown)}")
    merged.update(params)
    return entry, merged


def system_rhs(name: str, x, u=None, t: float = 0.0, params: Optional[dict] = None):
    """Evaluate the catalog right-hand side; x may be (n,) or (batch, n)."""
    entry, merged = _catalog_entry(name, params or {})
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if xb.shape[1] != entry["n"]:
        raise DataError(f"{name} expects state dimension {entry['n']}, got {xb.shape[1]}")
    q = entry["q"]
    if u is None:
        ub = np.zeros((xb.shape[0], q))
    else:
        ub = np.atleast_1d(np.asarray(u, dtype=float))
        if ub.ndim == 1:
            ub = np.broadcast_to(ub, (xb.shape[0], ub.shape[0]))
        if q and ub.shape[1] != q:
            raise DataError(f"{name} expects {q} input channel(s), got {ub.shape[1]}")
    dx = entry["rhs"](xb, ub, t, **merged)
    return dx[0] if single else dx


def get_system(name: str, **params) -> SystemSpec:
    """Build a SystemSpec for a catalog system with overridden parameters.

    The spec's rhs is the catalog right-hand side with its parameters bound.
    """
    entry, merged = _catalog_entry(name, params)
    return SystemSpec(
        name=name, n=entry["n"], q=entry["q"], params=merged,
        rhs=partial(entry["rhs"], **merged),
    )


def _resolve_inputs(spec_q, n_steps, input_signal, batch):
    if input_signal is None:
        return np.zeros((batch, n_steps, spec_q))
    U = np.asarray(input_signal, dtype=float)
    if U.ndim == 1:
        U = U[:, None]
    if U.ndim == 2:
        U = np.broadcast_to(U, (batch,) + U.shape).copy()
    if U.shape[1] != n_steps:
        raise DataError(f"input signal has {U.shape[1]} steps, expected {n_steps}")
    if U.shape[2] != spec_q:
        raise DataError(f"input signal has {U.shape[2]} channels, expected {spec_q}")
    return U


def integrate_rk4_batch(spec: SystemSpec, X0, dt: float, n_steps: int, input_signal=None):
    """Integrate a batch of initial conditions: X0 (B, n) -> (B, n_steps+1, n)."""
    dt = check_real(dt, "dt", positive=True, error=DataError)
    n_steps = check_int(n_steps, "n_steps", 0, error=DataError)
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    if X0.shape[1] != spec.n:
        raise DataError(f"{spec.name} expects state dimension {spec.n}, got {X0.shape[1]}")
    if not np.all(np.isfinite(X0)):
        raise DataError("initial state is not finite")
    B = X0.shape[0]
    U = _resolve_inputs(spec.q, n_steps, input_signal, B)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _rk4(spec.rhs, X0, dt, n_steps, U)
    bad = ~np.isfinite(out)
    if bad.any():
        row = int(np.nonzero(bad.any(axis=(0, 2)))[0][0])
        raise DataError(f"integration produced non-finite state at step {row - 1}")
    return out


def _rk4(rhs, X0, dt, n_steps, U):
    """Classical RK4 on a batch, inputs held over each step: (B, n_steps+1, n)."""
    B, n = X0.shape
    out = np.empty((B, n_steps + 1, n))
    out[:, 0] = X0
    x = X0.copy()
    for k in range(n_steps):
        u = U[:, k, :]
        t = k * dt
        k1 = np.atleast_2d(rhs(x, u, t))
        k2 = np.atleast_2d(rhs(x + 0.5 * dt * k1, u, t + 0.5 * dt))
        k3 = np.atleast_2d(rhs(x + 0.5 * dt * k2, u, t + 0.5 * dt))
        k4 = np.atleast_2d(rhs(x + dt * k3, u, t + dt))
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[:, k + 1] = x
    return out


def integrate_rk4(spec: SystemSpec, x0, dt: float, n_steps: int, input_signal=None):
    """Classical fixed-step RK4; returns n_steps + 1 rows including x0.

    ``input_signal`` may be an (n_steps, q) array of zero-order-hold inputs.
    Raises on non-finite states with the offending step index.
    """
    x0 = np.asarray(x0, dtype=float)
    return integrate_rk4_batch(spec, x0[None, :], dt, n_steps, input_signal)[0]


def drss(n: int, q: int, seed: int = 0, rho_max: float = 0.9):
    """Random stable discrete-time state-space matrices (A, B).

    A is assembled from random real and complex-conjugate eigenvalue blocks
    with moduli uniform on (0.1, rho_max), conjugated by a random orthogonal
    similarity; B is dense Gaussian. Deterministic given the seed.
    """
    n = check_int(n, "n", 1)
    q = check_int(q, "q", 0)
    seed = check_int(seed, "seed", 0)
    rho_max = check_real(rho_max, "rho_max", positive=True)
    if not rho_max < 1.0:
        raise ConfigError(f"rho_max must lie in (0, 1), got {rho_max}")
    rng = np.random.default_rng(seed)
    sizes = []
    remaining = n
    while remaining >= 2:
        if rng.random() < 0.5:
            sizes.append(2)
            remaining -= 2
        else:
            sizes.append(1)
            remaining -= 1
    if remaining == 1:
        sizes.append(1)
    blocks = []
    for s in sizes:
        rho = rng.uniform(0.1, rho_max)
        if s == 1:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            blocks.append(np.array([[sign * rho]]))
        else:
            theta = rng.uniform(0.0, np.pi)
            c, sn = rho * np.cos(theta), rho * np.sin(theta)
            blocks.append(np.array([[c, sn], [-sn, c]]))
    Ablk = np.zeros((n, n))
    i = 0
    for blk in blocks:
        Ablk[i : i + len(blk), i : i + len(blk)] = blk
        i += len(blk)
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))  # fix the sign convention for determinism
    A = Q @ Ablk @ Q.T
    B = rng.standard_normal((n, q)) if q > 0 else np.zeros((n, 0))
    return A, B


def linear2d_step(x):
    """One step of the fixed stable 2-d linear map."""
    x = np.asarray(x, dtype=float)
    return x @ LINEAR2D_A.T if x.ndim == 2 else LINEAR2D_A @ x


def torus_signal(t, freqs=(np.sqrt(2.0) / 5.0, np.sqrt(3.0) / 5.0), amps=(1.0, 0.5)):
    """Superposed rotations a_i * exp(2i*pi*f_i*t) as (cos, sin) channel pairs.

    Returns an array of shape (len(t), 2 * len(freqs)) with columns
    [a_1 cos, a_1 sin, a_2 cos, a_2 sin, ...].
    """
    freqs = tuple(freqs)
    amps = tuple(amps)
    if not freqs:
        raise ConfigError("torus_signal needs at least one frequency")
    if len(amps) != len(freqs):
        raise ConfigError("freqs and amps must have the same length")
    t = np.asarray(t, dtype=float)
    cols = []
    for f, a in zip(freqs, amps):
        phase = 2.0 * np.pi * f * t
        cols.append(a * np.cos(phase))
        cols.append(a * np.sin(phase))
    return np.column_stack(cols)
