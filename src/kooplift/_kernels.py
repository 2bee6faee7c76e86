"""Hot numeric kernels: feature lifting, Gram assembly and linear iteration.

All kernels are plain numpy and deterministic for fixed inputs.
"""

from __future__ import annotations

import math

import numpy as np

# the radial functions rbf_features evaluates, by name
RADIAL_KINDS = ("thinplate", "gauss", "invquad", "invmultiquad", "polyharmonic")


def poly_features(X, exps):
    """Monomial features. X is (m, n), exps is (N, n) int64 -> (m, N)."""
    return np.prod(X[:, None, :] ** exps[None, :, :], axis=2)


def _radial(r2, kind, eps, ph_exp):
    if kind == "thinplate":
        out = np.zeros_like(r2)
        pos = r2 > 0.0
        out[pos] = 0.5 * r2[pos] * np.log(r2[pos])
        return out
    if kind == "gauss":
        return np.exp(-(eps * eps) * r2)
    if kind == "invquad":
        return 1.0 / (1.0 + (eps * eps) * r2)
    if kind == "invmultiquad":
        return 1.0 / np.sqrt(1.0 + (eps * eps) * r2)
    # polyharmonic r**p, with r**p * log(r) for even p (0 at r = 0)
    r = np.sqrt(r2)
    if ph_exp % 2 == 1:
        return r**ph_exp
    out = np.zeros_like(r)
    pos = r > 0.0
    out[pos] = r[pos] ** ph_exp * np.log(r[pos])
    return out


def rbf_features(X, centers, kind, eps, ph_exp):
    """Radial features vs. each center. X (m, n), centers (k, n) -> (m, k)."""
    d = X[:, None, :] - centers[None, :, :]
    r2 = np.einsum("mkd,mkd->mk", d, d)
    return _radial(r2, kind, eps, ph_exp)


def rff_features(X, W, b):
    """Random Fourier features sqrt(2/D) * cos(X @ W + b). X (m, n) -> (m, D)."""
    scale = math.sqrt(2.0 / W.shape[1])
    return scale * np.cos(X @ W + b[None, :])


def gram_matrix(X, Y, kind, sigma, offset, degree):
    """Kernel Gram matrix k(x_i, y_j). X (m, n), Y (k, n) -> (m, k).

    gaussian: k = exp(-||x-y||^2 / (2 sigma^2));
    polynomial: k = (offset + x.y)^degree. The other kind's parameters are
    ignored.
    """
    if kind == "gaussian":
        xx = np.sum(X * X, axis=1)[:, None]
        yy = np.sum(Y * Y, axis=1)[None, :]
        r2 = np.maximum(xx + yy - 2.0 * (X @ Y.T), 0.0)
        return np.exp(-r2 / (2.0 * sigma * sigma))
    return (offset + X @ Y.T) ** int(degree)


def iterate_linear(A, z0, n_steps):
    """Iterate z_{k+1} = A z_k. Returns (n_steps + 1, N)."""
    N = z0.shape[0]
    out = np.empty((n_steps + 1, N), dtype=A.dtype)
    out[0] = z0
    z = z0
    for k in range(n_steps):
        z = A @ z
        out[k + 1] = z
    return out


def iterate_linear_controlled(A, B, z0, U):
    """Iterate z_{k+1} = A z_k + B u_k with U of shape (q, n_steps)."""
    n_steps = U.shape[1]
    N = z0.shape[0]
    out = np.empty((n_steps + 1, N), dtype=A.dtype)
    out[0] = z0
    z = z0
    for k in range(n_steps):
        z = A @ z + B @ U[:, k]
        out[k + 1] = z
    return out
