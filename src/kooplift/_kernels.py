"""Hot numeric kernels: feature lifting, Gram assembly and linear iteration.

All kernels are plain numpy and deterministic for fixed inputs.
"""

from __future__ import annotations

import math

import numpy as np

# radial function ids for rbf_features
RBF_THINPLATE = 0
RBF_GAUSS = 1
RBF_INVQUAD = 2
RBF_INVMULTIQUAD = 3
RBF_POLYHARMONIC = 4

# kernel ids for gram_matrix
KERNEL_GAUSSIAN = 0
KERNEL_POLYNOMIAL = 1


def poly_features(X, exps):
    """Monomial features. X is (m, n), exps is (N, n) int64 -> (m, N)."""
    return np.prod(X[:, None, :] ** exps[None, :, :], axis=2)


def _radial(r2, kind, eps, ph_exp):
    if kind == RBF_THINPLATE:
        out = np.zeros_like(r2)
        pos = r2 > 0.0
        out[pos] = 0.5 * r2[pos] * np.log(r2[pos])
        return out
    if kind == RBF_GAUSS:
        return np.exp(-(eps * eps) * r2)
    if kind == RBF_INVQUAD:
        return 1.0 / (1.0 + (eps * eps) * r2)
    if kind == RBF_INVMULTIQUAD:
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


def gram_matrix(X, Y, kind, p0, p1):
    """Kernel Gram matrix k(x_i, y_j). X (m, n), Y (k, n) -> (m, k).

    gaussian: p0 = sigma, k = exp(-||x-y||^2 / (2 sigma^2));
    polynomial: p0 = offset c, p1 = degree, k = (c + x.y)^degree.
    """
    if kind == KERNEL_GAUSSIAN:
        xx = np.sum(X * X, axis=1)[:, None]
        yy = np.sum(Y * Y, axis=1)[None, :]
        r2 = np.maximum(xx + yy - 2.0 * (X @ Y.T), 0.0)
        return np.exp(-r2 / (2.0 * p0 * p0))
    return (p0 + X @ Y.T) ** int(p1)


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
