"""Hot numeric kernels: feature lifting, Gram assembly, the TSQR's update
and linear iteration.

All kernels are plain numpy and deterministic for fixed inputs, but for
`lapack_tpqrt` and `blas_dsymv`, which call one LAPACK and one BLAS routine
of the library numpy itself links, found by one loader (`_openblas`), or a
numpy function of the same contract where it exports none; so each caller
runs one path. `one_blas_thread` sets that library's thread count, and
`in_lanes` runs lanes at once where the count can be held at one.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from itertools import combinations_with_replacement

import numpy as np

# the radial functions rbf_features evaluates, by name
RADIAL_KINDS = ("thinplate", "gauss", "invquad", "invmultiquad", "polyharmonic")
# rows per block where an m-row kernel computation bounds its temporaries:
# sq_distances and dot_products sum ROW_BLOCK rows at a time, through
# (ROW_BLOCK, k) temporaries, fit_kdmd evaluates the rows of T it cannot take
# from G ROW_BLOCK at a time, and eigenfunction_lift multiplies ROW_BLOCK
# kernel rows at a time. On a 2-CPU VM
# (best of five, two passes), 2-d squared distances of 2,844 x 2,844 states
# took 38-54 ms at 128 rows against 61-64 ms unblocked and 53-55 ms at
# 512-1,024, and of 100,000 states x 100 centers 57-73 ms against 101-110 ms;
# fit_kdmd's T stream at m = 2,844, rank 20, took 91-107 ms at 128 rows,
# 104-130 ms at 64 and 124-127 ms at 512
ROW_BLOCK = 128
# the widest update that lapack_tpqrt runs with block size nb = 4; wider
# ones take nb = 16 (`tpqrt_nb`). One 10,000-row block, in ms at nb = 4 / 8 /
# 16 (2-CPU VM, ranges of medians of 7 over two or three sweeps), on two BLAS
# threads, then on one:
#   n = 12:  0.26-0.35 / 0.37-24 / 0.58-56 (nb = 12)  0.23-0.25 / 0.29-0.34 / 0.41-0.43
#   n = 36:  1.5-1.7 / 1.8-1.9 / 2.7-3.0              1.4-1.7 / 1.4-1.6 / 1.8-2.3
#   n = 48:  2.8-3.0 / 2.7-2.9 / 4.0-4.4              3.1-3.2 / 2.7-5.5 / 3.4-3.8
#   n = 64:  4.5-4.9 / 3.9-4.2 / 5.2-5.9              4.8-7.1 / 3.6-4.4 / 4.0-5.3
#   n = 103: 9.5-10.5 / 7.6-8.3 / 9.6-11.2            13.9-15.2 / 8.9-9.8 / 9.0-9.6
#   n = 205: 34-37 / 23-25 / 25-28                    54-58 / 31-34 / 27-30
# The TSQR runs its updates on one BLAS thread (`one_blas_thread`), so the
# one-thread column decides. Up to 48 columns nb = 4 wins or ties there, and
# at 205 (`vdp_rbf_control`) nb = 16 wins, 27-30 ms against 31-34 ms at nb =
# 8. Between, nb = 8 and 16 overlap (at 64 nb = 8 reads 3.6-4.4 ms against
# 4.0-5.3), and the rule keeps 16, which leaves every R of those widths its
# bits. nb = 8's lead on two threads, from 64 to 205, does not reach the
# TSQR, which never runs there
TPQRT_NARROW = 48


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


def _by_row_blocks(rows, X, Y):
    """rows(X, Y[, out]) over the rows of X, ROW_BLOCK at a time into one
    (m, k) output, so a temporary holds at most (ROW_BLOCK, k); a
    single-block input (one state in prediction) pays for no block loop."""
    m = X.shape[0]
    if m <= ROW_BLOCK:
        return rows(X, Y)
    out = np.empty((m, Y.shape[0]))
    for a in range(0, m, ROW_BLOCK):
        rows(X[a:a + ROW_BLOCK], Y, out=out[a:a + ROW_BLOCK])
    return out


def sq_distances(X, Y):
    """Squared distances ||x_i - y_j||^2, X (m, n), Y (k, n) -> (m, k), summed
    one coordinate at a time: no (m, k, n) temporary, no cancellation (unlike
    ||x||^2 + ||y||^2 - 2 x.y), and entry (i, j) equals entry (j, i) of
    sq_distances(Y, X), since fl(a - b) = -fl(b - a). Summed ROW_BLOCK rows
    at a time; the arithmetic is elementwise, so an entry's bits depend only
    on x_i and y_j, not on the block or the other rows."""
    return _by_row_blocks(_sq_distance_rows, X, Y)


def _sq_distance_rows(X, Y, out=None):
    r2 = np.subtract(X[:, 0, None], Y[:, 0], out=out)
    r2 *= r2
    for d in range(1, X.shape[1]):
        t = X[:, d, None] - Y[:, d]
        t *= t
        r2 += t
    return r2


def dot_products(X, Y):
    """Inner products x_i . y_j, X (m, n), Y (k, n) -> (m, k), summed one
    coordinate at a time in coordinate order, ROW_BLOCK rows at a time, as
    sq_distances is: an entry's bits depend only on x_i and y_j, and entry
    (i, j) equals entry (j, i) of dot_products(Y, X). A GEMM's X @ Y.T
    rounds an entry by its place in the product, and equals its transpose
    only where numpy takes syrk for one array passed twice."""
    return _by_row_blocks(_dot_rows, X, Y)


def _dot_rows(X, Y, out=None):
    p = np.multiply(X[:, 0, None], Y[:, 0], out=out)
    for d in range(1, X.shape[1]):
        p += X[:, d, None] * Y[:, d]
    return p


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
    """Random Fourier features sqrt(2/D) * cos(X @ W + b). X (m, n) -> (m, D).

    X @ W is taken by numpy's own sum-of-products loops (np.einsum without
    optimize, never a BLAS) on a C-ordered X, so a row's bits depend only
    on its state: not on the other rows, the row slice or the BLAS thread
    count, which a GEMM's rounding follows (a 5,000 x 2 by 2 x 300 product
    differed in the last bits between one and two OpenBLAS threads, and
    between a whole lift and its row slices). The explicit fits lift a block
    of rows at a time, their TSQR lanes on one BLAS thread. On 5,000 rows
    the loops took about a GEMM's time up to 10 coordinates and up to 1.7x
    it at 50; summed one coordinate at a time, as `dot_products` does, up
    to 4.8x."""
    scale = math.sqrt(2.0 / W.shape[1])
    XW = np.einsum("ij,jk->ik", np.ascontiguousarray(X), W, optimize=False)
    return scale * np.cos(XW + b[None, :])


def gram_matrix(X, Y, kind, sigma, offset, degree):
    """Kernel Gram matrix k(x_i, y_j). X (m, n), Y (k, n) -> (m, k).

    gaussian: k = exp(-||x-y||^2 / (2 sigma^2));
    polynomial: k = (offset + x.y)^degree. The other kind's parameters are
    ignored. Both are elementwise after a per-coordinate sum (sq_distances,
    dot_products), so an entry's bits depend only on x_i and y_j: a row of
    G(X, X) is bit for bit the row that any call gives for the same state,
    and G(X, Y) with equal X and Y is exactly symmetric, also for two
    buffers.
    """
    if kind == "gaussian":
        G = sq_distances(X, Y)
        np.divide(G, -2.0 * sigma * sigma, out=G)
        return np.exp(G, out=G)
    G = dot_products(X, Y)
    G += offset
    return np.power(G, degree, out=G)


def real_matmul_complex(K, C):
    """K @ C for a real K (m, k) and a complex C (k, r): one real GEMM on C
    viewed as (k, 2r) interleaved real and imaginary parts, where K @ C would
    cast K to a complex copy."""
    return (K @ np.ascontiguousarray(C).view(float)).view(complex)


def conjugate_plan(alpha):
    """How `eigenfunction_lift` multiplies complex coefficients alpha (m, r):
    (kept, gather, sign). A GEMM multiplies only kept, the columns that are
    not the exact conjugate of their left neighbour (`conjugate_copies`), so
    a real fit's conjugate pairs stay exact (a GEMM rounds a column by its
    position). In the (re, im) float view of the output, gather is the column
    of the kept product each output column takes (a copy takes its
    partner's) and sign is -1 on the imaginary part of a copy."""
    copy = conjugate_copies(alpha)
    src = np.cumsum(~copy) - 1
    sign = np.ones((alpha.shape[1], 2))
    sign[copy, 1] = -1.0
    return alpha[:, ~copy], (2 * src[:, None] + np.arange(2)).ravel(), sign.ravel()


def eigenfunction_lift(kernel_rows, n, plan):
    """Eigenfunction values K @ alpha of n states, (n, r) complex, from their
    real kernel rows K (n, m), with plan = conjugate_plan(alpha).
    kernel_rows(a, b) gives rows a..b-1 of K; it is called ROW_BLOCK rows at
    a time from row 0, and each block is one real GEMM on the kept columns
    (`real_matmul_complex`), so no more than a (ROW_BLOCK, m) block of K is
    asked for at once. Blocks of equal rows give equal bits, which is how a
    fit's training lift from its Gram rows and a later lift of the same
    trajectory agree."""
    kept, gather, sign = plan
    if n <= ROW_BLOCK:  # one block (one state in prediction): no block loop
        Z = np.take(real_matmul_complex(kernel_rows(0, n), kept).view(float), gather, axis=1)
    else:
        Z = np.empty((n, sign.shape[0]))
        for a in range(0, n, ROW_BLOCK):
            b = min(a + ROW_BLOCK, n)
            # mode="clip" takes the same columns (gather is in range) without
            # the buffered copy that mode="raise" makes of `out`
            np.take(real_matmul_complex(kernel_rows(a, b), kept).view(float), gather,
                    axis=1, out=Z[a:b], mode="clip")
    Z *= sign
    return Z.view(complex)


def _openblas(name, restype, *argtypes):
    """The routine `name` of the OpenBLAS that numpy's wheel bundles, as a
    ctypes function of `argtypes` returning `restype`, or None where numpy's
    library does not export it (a numpy built on MKL, Accelerate or a
    distro's OpenBLAS). That library exports its LAPACKE and CBLAS entry
    points with 64-bit integers, under a `scipy_` prefix and a `64_` suffix.
    Opening the loaded library and looking up a symbol takes well under a
    millisecond, and the loaders below cache what they build on it."""
    from numpy.linalg import _umath_linalg

    try:
        routine = getattr(ctypes.CDLL(_umath_linalg.__file__), name)
    except (OSError, AttributeError):
        return None
    routine.restype, routine.argtypes = restype, argtypes
    return routine


@functools.cache
def _blas_thread_count():
    """(get, set) for the thread count of numpy's OpenBLAS, as ctypes
    functions get() -> int and set(int), or None where numpy's library does
    not export them (`_openblas`). Looked up on first use, and cached."""
    get = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    put = _openblas("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    return None if get is None or put is None else (get, put)


_blas_thread_lock = threading.Lock()
_blas_thread_hold = [0, 1]  # open one_blas_thread contexts, the count found by the first


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread; yields whether the
    count could be set (False where numpy's library does not export its
    thread-count routines, `_blas_thread_count`, and nothing is changed).

    The setting is process-wide: while a body runs, BLAS calls from every
    Python thread run on one BLAS thread. Contexts may nest and overlap
    across Python threads: under one lock, the first to open reads the count
    and sets 1, and the last to close, in a `finally`, restores what the
    first found.
    """
    count = _blas_thread_count()
    if count is None:
        yield False
        return
    get, put = count
    hold = _blas_thread_hold
    with _blas_thread_lock:
        if hold[0] == 0:
            hold[1] = get()
            put(1)
        hold[0] += 1
    try:
        yield True
    finally:
        with _blas_thread_lock:
            hold[0] -= 1
            if hold[0] == 0:
                put(hold[1])


def in_lanes(lane, n):
    """lane(0), ..., lane(n - 1), each on one BLAS thread (`one_blas_thread`).
    Where numpy's library lets its thread count be set, lane 0 runs on this
    thread and the others at the same time on Python threads of their own,
    and the first exception a lane raised is re-raised here once all have
    finished. Elsewhere, where lanes on threads would oversubscribe the
    cores, they run one after the other here, with the same arithmetic."""
    raised = []

    def run(i):
        try:
            lane(i)
        except BaseException as exc:  # re-raised on the calling thread
            raised.append(exc)

    with one_blas_thread() as pinned:
        workers = [threading.Thread(target=run, args=(i,), name="kooplift-tsqr")
                   for i in range(1, n if pinned else 1)]
        for worker in workers:
            worker.start()
        try:
            for i in range(1 if pinned else n):
                lane(i)
        finally:
            for worker in workers:
                worker.join()
    if raised:
        raise raised[0]


def tpqrt_nb(n):
    """The block size nb of `lapack_tpqrt`'s update of n columns: 4 up to
    TPQRT_NARROW columns and 16 above, never more than n."""
    return min(4 if n <= TPQRT_NARROW else 16, n)


@functools.cache
def lapack_tpqrt():
    """The TSQR's update as a function tpqrt(R, B), looked up on first use
    and cached: LAPACK's dtpqrt (l = 0, nb = `tpqrt_nb(n)`) where numpy's
    LAPACK library exports LAPACKE's `dtpqrt_work` (`_openblas`), else
    `_numpy_tpqrt` (MKL, Accelerate, a distro's build).

    tpqrt(R, B) overwrites an upper triangular (n, n) R, zero below its
    diagonal, with the R factor of [R; B] for a (k, n) B, in place. Both are
    float64 views with unit row stride (column-major), as rows of one
    Fortran-ordered buffer are. dtpqrt leaves B holding Householder vectors.
    It is the structured update of the communication-optimal TSQR (Demmel,
    Grigori, Hoemmen & Langou, SISC 2012): it reads R as triangular, where a
    QR of [R; B] would factor R's zeros again. It is called through the
    library's `_work` entry point, which does not scan its input for NaN: a
    NaN or an inf in B leaves R non-finite, as the caller's check expects.
    Each call allocates its own T and workspace, and ctypes releases the GIL
    for the call, so two Python threads may update two disjoint (R, B) at
    once, as the TSQR's two lanes do. Its bits follow the BLAS thread count,
    which the TSQR fixes at one (`one_blas_thread`).
    """
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    routine = _openblas("scipy_LAPACKE_dtpqrt_work64_", i64,
                        ctypes.c_int, i64, i64, i64, i64, ptr, i64, ptr, i64, ptr, i64, ptr)
    if routine is None:
        return _numpy_tpqrt
    col_major = 102  # LAPACK_COL_MAJOR

    def tpqrt(R, B):
        if not all(a.dtype == np.float64 and a.strides[0] == a.itemsize
                   and a.flags.writeable for a in (R, B)):
            raise ValueError("tpqrt takes writeable column-major float64 views")
        n, k = R.shape[1], B.shape[0]
        nb = tpqrt_nb(n)
        T = np.empty((nb, n), order="F")
        work = np.empty(nb * n)
        info = routine(col_major, k, n, 0, nb, R.ctypes.data, R.strides[1] // R.itemsize,
                       B.ctypes.data, B.strides[1] // B.itemsize, T.ctypes.data, nb,
                       work.ctypes.data)
        if info != 0:
            raise RuntimeError(f"LAPACK dtpqrt refused argument {-info}")

    return tpqrt


def _numpy_tpqrt(R, B):
    """`lapack_tpqrt`'s update as R = np.linalg.qr([R; B], mode="r"). Where
    B's rows follow R's in one buffer, as a TSQR lane's block follows its R,
    [R; B] is read as one strided view of it: stacked into a new array, an
    RBF(50) fit in blocks of 1,000 peaked at 5.87 MB, not 4.25 MB."""
    if B.strides == R.strides and B.ctypes.data == R.ctypes.data + R.shape[0] * R.strides[0]:
        RB = np.lib.stride_tricks.as_strided(R, (R.shape[0] + B.shape[0], R.shape[1]))
    else:
        RB = np.concatenate([R, B])
    R[...] = np.linalg.qr(RB, mode="r")


@functools.cache
def blas_dsymv():
    """The product of a symmetric matrix and a vector as a function
    symv(G, x), looked up on first use and cached: CBLAS's `dsymv` where
    numpy's BLAS library exports it (`_openblas`), else np.dot, the gemv of
    G @ x, with its bits.

    symv(G, x) returns a new vector G @ x for an exactly symmetric, C-ordered
    (m, m) float64 G, as kernel Gram matrices are built, and a contiguous
    float64 x of length m. dsymv reads only G's upper triangle, half of the
    memory that the gemv reads, and rounds otherwise; for a fixed G, x and
    BLAS thread count it gives the same bits on every call.
    """
    i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    routine = _openblas("scipy_cblas_dsymv64_", None, ctypes.c_int, ctypes.c_int, i64, dbl,
                        ptr, i64, ptr, i64, dbl, ptr, i64)
    if routine is None:
        return np.dot
    row_major, upper = 101, 121  # CblasRowMajor, CblasUpper

    def symv(G, x):
        m = G.shape[0]
        if not (G.dtype == x.dtype == np.float64 and G.shape == (m, m) and x.shape == (m,)
                and G.flags.c_contiguous and x.flags.c_contiguous):
            raise ValueError("symv takes a C-ordered square float64 G and a contiguous "
                             "float64 x of its order")
        # zeroed, so the result does not rest on how a BLAS treats beta = 0
        # on an uninitialized y (this OpenBLAS overwrites it, NaN included)
        y = np.zeros(m)
        routine(row_major, upper, m, 1.0, G.ctypes.data, m, x.ctypes.data, 1, 0.0,
                y.ctypes.data, 1)
        return y

    return symv


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
    take one matrix-vector product per step, written in place into the next
    row of the output by np.dot(A, z_k, out=z_{k+1}): the gemv of A @ z, so
    the same bits, with no vector allocated per step.
    """
    out = np.empty((n_steps + 1, z0.shape[0]), dtype=A.dtype)
    out[0] = z0
    d = np.diagonal(A)
    if n_steps > 1 and np.count_nonzero(A) == np.count_nonzero(d):
        out[1:] = d
        return np.cumprod(out, axis=0, out=out)
    for k in range(n_steps):
        np.dot(A, out[k], out=out[k + 1])
    return out


def iterate_linear_controlled(A, B, z0, U):
    """Iterate z_{k+1} = A z_k + B u_k with U of shape (q, n_steps).

    Each step writes A z_k in place into the next row of the output, as
    `iterate_linear` does, and adds B @ u_k to it: the bits of A @ z + B @ u.
    B is applied one step at a time, since one B @ U product for all steps
    is a GEMM, which rounds otherwise than the per-step gemv for q >= 2.
    """
    out = np.empty((U.shape[1] + 1, z0.shape[0]), dtype=A.dtype)
    out[0] = z0
    for k in range(U.shape[1]):
        np.dot(A, out[k], out=out[k + 1])
        out[k + 1] += B @ U[:, k]
    return out
