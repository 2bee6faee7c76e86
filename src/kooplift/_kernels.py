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
# sq_distances sums ROW_BLOCK rows at a time, through (ROW_BLOCK, k)
# temporaries, and fit_kdmd builds T ROW_BLOCK rows at a time. On a 2-CPU VM
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
    sq_distances(Y, X), since fl(a - b) = -fl(b - a). Inputs of more than
    ROW_BLOCK rows are summed ROW_BLOCK rows at a time into the output, so a
    temporary holds at most (ROW_BLOCK, k); the arithmetic is elementwise, so
    the blocks change no bit, and a single-block input (one state in
    prediction) pays for no block loop."""
    m = X.shape[0]
    if m <= ROW_BLOCK:
        return _sq_distance_rows(X, Y)
    r2 = np.empty((m, Y.shape[0]))
    for a in range(0, m, ROW_BLOCK):
        _sq_distance_rows(X[a:a + ROW_BLOCK], Y, out=r2[a:a + ROW_BLOCK])
    return r2


def _sq_distance_rows(X, Y, out=None):
    r2 = np.subtract(X[:, 0, None], Y[:, 0], out=out)
    r2 *= r2
    for d in range(1, X.shape[1]):
        t = X[:, d, None] - Y[:, d]
        t *= t
        r2 += t
    return r2


def conjugate_copies(A):
    """Which columns of A are the exact complex conjugate of their left
    neighbour, as a boolean mask. There are no chains: a partner is never
    itself a copy, and of a run of three or more columns, each the conjugate
    of the one before (a repeated real column is one), only the second is
    marked."""
    j = np.flatnonzero((A[:, 1:] == A[:, :-1].conj()).all(axis=0))
    copy = np.zeros(A.shape[1], dtype=bool)
    copy[j[~np.isin(j - 1, j)] + 1] = True
    return copy


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
    """Iterate z_{k+1} = A z_k. Returns (n_steps + 1, N), of A's dtype.

    When every nonzero of A lies on its diagonal, as for kdmd's diag(lambda),
    two steps or more are one cumulative product of z0 over rows holding the
    diagonal: one multiply per mode and step, as in A @ z. A real product
    rounds as A @ z does, but for the sign of an exact zero. A complex one is
    the textbook (ac - bd) + (ad + bc)i with each operation rounded, which
    BLAS's zgemv may round otherwise by an ulp (OpenBLAS 0.3.31 on Haswell
    does so in its last N mod 4 rows). After a mode overflows to inf the
    others stay finite, where A @ z would spread NaN into them through
    0 * inf. Any other A, and a single step (the one product predict takes),
    take A @ z once per step.
    """
    out = np.empty((n_steps + 1, z0.shape[0]), dtype=A.dtype)
    out[0] = z0
    d = np.diagonal(A)
    if n_steps > 1 and np.count_nonzero(A) == np.count_nonzero(d):
        out[1:] = d
        return np.cumprod(out, axis=0, out=out)
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
