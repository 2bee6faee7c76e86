"""Hot numeric kernels: feature lifting, Gram assembly and linear iteration.

All kernels are plain numpy and deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

# the radial functions rbf_features evaluates, by name
RADIAL_KINDS = ("thinplate", "gauss", "invquad", "invmultiquad", "polyharmonic")
# rows per block where an m-row kernel computation bounds its temporaries:
# sq_distances adds each further coordinate through a (ROW_BLOCK, k)
# temporary, and fit_kdmd builds T ROW_BLOCK rows at a time. On a 2-CPU VM
# (best of five, two passes), 2-d squared distances of 2,844 x 2,844 states
# took 38-54 ms at 128 rows against 61-64 ms unblocked and 53-55 ms at
# 512-1,024, and of 100,000 states x 100 centers 57-73 ms against 101-110 ms;
# fit_kdmd's T stream at m = 2,844, rank 20, took 91-107 ms at 128 rows,
# 104-130 ms at 64 and 124-127 ms at 512
ROW_BLOCK = 128


def monomial_table(n, degree):
    """Exponents of every monomial in n variables of total degree 0..degree,
    with the recurrence that evaluates them.

    Rows are the constant, then degree by degree, each degree in
    combinations-with-replacement order (earlier coordinates take higher
    powers first). Returns (exps, steps): exps is (N, n) int64, and steps
    holds one (start, stop, parents, coords) per degree d >= 2, meaning that
    monomial start + i is monomial parents[i] times coordinate coords[i]; a
    parent is the same exponent with its last nonzero coordinate lowered by
    one.
    """
    combos = [()]
    starts = []  # first row of each degree 1..degree, then the row count
    for d in range(1, degree + 1):
        starts.append(len(combos))
        combos.extend(combinations_with_replacement(range(n), d))
    starts.append(len(combos))
    row = {c: k for k, c in enumerate(combos)}
    exps = np.array([np.bincount(c, minlength=n) for c in combos], dtype=np.int64)
    steps = tuple(
        (a, b, np.array([row[c[:-1]] for c in combos[a:b]], dtype=np.intp),
         np.array([c[-1] for c in combos[a:b]], dtype=np.intp))
        for a, b in zip(starts[1:], starts[2:])
    )
    return exps, steps


def poly_features(X, steps):
    """Monomial features from a `monomial_table` recurrence: X (m, n) -> (m, N).

    Feature 0 is 1 and features 1..n are X itself, copied; each later degree
    block is one product of its parent features and state coordinates, so
    every monomial multiplies its coordinates in increasing coordinate order.
    The features are built one contiguous row each, in an (N, m) array that
    is returned transposed.
    """
    m, n = X.shape
    out = np.empty((steps[-1][1] if steps else n + 1, m))
    out[0] = 1.0
    XT = X.T
    out[1 : n + 1] = XT
    for start, stop, parents, coords in steps:
        np.multiply(out[parents], XT[coords], out=out[start:stop])
    return out.T


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


def sq_distances(X, Y):
    """Squared distances ||x_i - y_j||^2, X (m, n), Y (k, n) -> (m, k), summed
    one coordinate at a time: no (m, k, n) temporary, no cancellation (unlike
    ||x||^2 + ||y||^2 - 2 x.y), and entry (i, j) equals entry (j, i) of
    sq_distances(Y, X), since fl(a - b) = -fl(b - a). Each further
    coordinate is added ROW_BLOCK rows at a time, through one (ROW_BLOCK, k)
    temporary; the arithmetic is elementwise, so the blocks change no bit."""
    m, n = X.shape
    r2 = X[:, 0, None] - Y[:, 0]
    r2 *= r2
    t = None  # made by the first block, reused (sliced for the last) after
    for a in range(0, m if n > 1 else 0, ROW_BLOCK):
        rows, Xa = r2[a:a + ROW_BLOCK], X[a:a + ROW_BLOCK]
        t = None if t is None else t[:len(rows)]
        for d in range(1, n):
            t = np.subtract(Xa[:, d, None], Y[:, d], out=t)
            t *= t
            rows += t
    return r2


def rbf_features(X, centers, kind, eps, ph_exp):
    """Radial features vs. each center. X (m, n), centers (k, n) -> (m, k)."""
    return _radial(sq_distances(X, centers), kind, eps, ph_exp)


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
        G = sq_distances(X, Y)
        np.divide(G, -2.0 * sigma * sigma, out=G)
        return np.exp(G, out=G)
    G = X @ Y.T
    G += offset
    return np.power(G, degree, out=G)


def real_matmul_complex(K, C):
    """K @ C for a real K (m, k) and a complex C (k, r): one real GEMM on C
    viewed as (k, 2r) interleaved real and imaginary parts, where K @ C would
    cast K to a complex copy."""
    return (K @ np.ascontiguousarray(C).view(float)).view(complex)


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
