"""Best-fit linear evolution operators on snapshot matrices.

All fits solve variants of the regression Z' ~ A Z over column-aligned
snapshot matrices, via truncated SVD. The explicit fits take it on the R
factor of the stacked snapshot pairs (see `_pair_factor`), never on the
m-long matrices themselves. Controlled variants stack the input below the
state and partition the solution into [A B]; the input-evolution rows of the
stacked operator are never fitted (they are irrelevant for control). The
kernel variant works with Gram matrices instead of explicit features.

Rank handling: an integer caps the retained rank, a float in (0, 1) replaces
the default relative singular-value cutoff of 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional

import numpy as np

from . import _kernels
from .data import Finding, SnapshotPairs, _FrozenRecord, _Pairs, pair_blocks
from .errors import (ConfigError, DataError, RegressionError, _check_memory,
                     call_with_options, check_int, check_real)

__all__ = [
    "EigenSystem",
    "RegressionResult",
    "KernelConfig",
    "continuous_eigenvalues",
    "eig_biorthogonal",
    "fit_edmd",
    "fit_edmdc",
    "fit_kdmd",
]

RANK_CUTOFF = 1e-10  # relative singular-value cutoff, keeps exact problems exact
GRAM_CUTOFF = 1e-12  # relative cutoff on Gram-matrix eigenvalues (~ sigma^2)
# the TSQR's fixed reduction tree (_pair_factor): block i of the pairs goes
# to stream i mod TSQR_STREAMS, and the streams' R factors are merged at the
# end. A constant, not the CPU count, so R's bits never follow the machine
TSQR_STREAMS = 2
# snapshot pairs per row block of the TSQR, in each stream; two streams of
# 5,000 buffer about as many rows as one stream of 10,000 would. The R
# factor of random pairs with columns scaled over six decades, in ms, by
# block size (2-CPU VM, ranges of medians of 7 over six sweeps, two streams
# on one BLAS thread each):
#   W = 12, m = 249,900:  2,500: 7.5-13.8  5,000: 7.4-10.4  7,500: 7.1-9.5  10,000: 8.3-11.7
#   W = 36, m = 200,000:  2,500: 21-47     5,000: 21-47     7,500: 20-35    10,000: 22-32
#   W = 205, m = 100,000: 2,500: 153-421   5,000: 180-217   7,500: 170-227  10,000: 186-214
# No size wins beyond the machine's spread at any width, so the one size is
# kept for all widths: a block boundary moved moves the bits of every R
QR_CHUNK = 5_000
# a rank-r kernel fit on m pairs takes the Lanczos route when
# LANCZOS_RATIO * r <= m (see fit_kdmd for the measured crossover)
LANCZOS_RATIO = 16
# zero-eigenvalue class |lambda| <= ZERO_EIG_RTOL ||A||_2. Fitting a 2x2
# nilpotent operator leaves its eigenvalues within 1.05 sqrt(eps) ||A||_2 (20k
# random fits), while the non-normal operators of gaussian RBF fits of the
# slow manifold have eigenvalues near 1 at only 2.2e-7 ||A||_2. 4 sqrt(eps) =
# 6.0e-8 leaves a margin of about 4 on each side.
ZERO_EIG_RTOL = 4.0 * np.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class EigenSystem(_FrozenRecord):
    """Eigendecomposition with biorthogonal left/right vectors.

    Eigenvalues are sorted by decreasing modulus, ties broken by decreasing
    real part, then increasing imaginary part, which keeps conjugate pairs
    adjacent. Columns satisfy W_left^H W_right = I for distinct eigenvalues;
    left vectors are scaled so their max-modulus entry is 1, with the right
    vectors rescaled to preserve biorthogonality. Arrays are read-only
    copies; findings are a tuple. The continuous eigenvalues are not stored:
    `continuous_eigenvalues` derives them from `lambdas` and a sample
    interval.
    """

    lambdas: np.ndarray  # (r,) discrete eigenvalues
    W_right: np.ndarray  # (N, r)
    W_left: np.ndarray  # (N, r)
    findings: tuple = ()

    @property
    def rank(self) -> int:
        return self.lambdas.shape[0]


def continuous_eigenvalues(lambdas: np.ndarray, dt: float) -> np.ndarray:
    """The continuous eigenvalues ln(lambda)/dt of discrete eigenvalues
    sampled every dt, on the principal branch, as a read-only complex array.
    An exactly-zero lambda, as `eig_biorthogonal` leaves the zero class,
    gives -inf; a negative real one gives imaginary part pi/dt."""
    lam = np.asarray(lambdas, dtype=complex)
    mus = np.full(lam.shape, complex(-np.inf, 0.0))
    nz = lam != 0
    mus[nz] = np.log(lam[nz]) / dt
    mus.flags.writeable = False
    return mus


def _classify_spectrum(lam: np.ndarray, A: np.ndarray):
    """Snap zero-class eigenvalues of A to 0 and report what their
    continuous eigenvalues (`continuous_eigenvalues`) will be.

    Rounding moves the zero eigenvalue of a defective (nilpotent) block to
    about sqrt(eps) ||A||_2, so an exact comparison with 0 misses it.
    Eigenvalues with |lambda| <= ZERO_EIG_RTOL * ||A||_2 form the zero class:
    they are set to exactly 0, reported, and their continuous eigenvalue is
    -inf. Returns (lambdas, findings).
    """
    lam = lam.copy()
    zero = np.abs(lam) <= ZERO_EIG_RTOL * np.linalg.norm(A, 2)
    lam[zero] = 0.0
    findings = []
    if zero.any():
        findings.append(Finding("zero-eigenvalue", message=(
            f"{int(zero.sum())} zero eigenvalue(s) (|lambda| <= {ZERO_EIG_RTOL:.1e} "
            "||A||_2): continuous eigenvalue reported as -inf")))
    neg_real = ~zero & (lam.imag == 0) & (lam.real < 0)
    if neg_real.any():
        findings.append(Finding("negative-real-eigenvalue", message=(
            "negative real eigenvalue(s): principal-branch log gives imaginary "
            "part pi/dt; the continuous eigenvalue is aliasing-ambiguous")))
    return lam, findings


def _normalize_pair(W_right: np.ndarray, W_left: np.ndarray):
    """Scale left columns to unit max-modulus entry, keeping biorthogonality."""
    Wr = W_right.copy()
    Wl = W_left.copy()
    for j in range(Wr.shape[1]):
        c = Wl[np.argmax(np.abs(Wl[:, j])), j]
        if c != 0:
            Wl[:, j] = Wl[:, j] / c
            Wr[:, j] = Wr[:, j] * np.conj(c)
    return Wr, Wl


def _snap_conjugate_partners(lam: np.ndarray, *arrays) -> None:
    """Make column j + 1 of each array the conjugate of column j, in place,
    wherever lam[j + 1] is the exact conjugate of lam[j] and lam[j] lies
    below the real axis: a conjugate pair as eig_biorthogonal sorts it."""
    j = np.flatnonzero((lam[:-1].imag < 0) & (lam[1:] == lam[:-1].conj()))
    for M in arrays:
        M[:, j + 1] = M[:, j].conj()


def eig_biorthogonal(A: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a square matrix with biorthogonal left vectors.

    A near-defective eigenvector matrix is flagged with a finding and the
    left vectors fall back to the pseudoinverse (biorthogonality is then only
    approximate for the affected cluster). Eigenvalues within
    ZERO_EIG_RTOL * ||A||_2 of zero are returned as exactly 0. For a real A,
    the right and left vectors of a real eigenvalue are exactly real, and
    those of a conjugate pair exact conjugates. The continuous eigenvalues
    come from `continuous_eigenvalues`, given a sample interval.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DataError(f"expected a square matrix, got shape {A.shape}")
    lam, W = np.linalg.eig(A)
    lam = lam.astype(complex)
    W = W.astype(complex)
    order = np.lexsort((lam.imag, -lam.real, -np.abs(lam)))
    lam = lam[order]
    W = W[:, order]
    findings = []
    cond = np.linalg.cond(W)
    if not np.isfinite(cond) or cond > 1e12:
        findings.append(Finding("defective-eigenvectors", message=(
            f"eigenvector matrix is ill-conditioned (cond={cond:.2e}); the "
            "operator is defective within tolerance and biorthogonality is "
            "waived for the affected cluster")))
        W_left = np.linalg.pinv(W).conj().T
    else:
        W_left = np.linalg.inv(W).conj().T
    real_A = not np.iscomplexobj(A)
    if real_A:
        # LAPACK returns a real A's real eigenvalues with exactly real right
        # vectors; inv() leaves rounding in the imaginary parts of their left
        # vectors, which the normalization would carry into the right ones
        real = lam.imag == 0
        W_left[:, real] = W_left[:, real].real
    W, W_left = _normalize_pair(W, W_left)
    if real_A:
        # LAPACK returns a real A's conjugate pairs exactly; inv() keeps the
        # pairing of the left vectors only to rounding, and the normalization
        # carries that into the right vectors
        _snap_conjugate_partners(lam, W, W_left)
    lam, spectrum_findings = _classify_spectrum(lam, A)
    return EigenSystem(lambdas=lam, W_right=W, W_left=W_left,
                       findings=findings + spectrum_findings)


@dataclass(frozen=True)
class RegressionResult(_FrozenRecord):
    """A fitted linear operator with its spectral decomposition.

    `A` (N, N) and, for controlled fits, `B` (N, q) are the operator in the
    full lifted space; eigenvectors in `eigensystem` live there too. Arrays
    are read-only copies; findings are a tuple of the regression's own, and
    the eigensystem keeps its findings itself. The retained rank is the
    eigensystem's.
    """

    A: np.ndarray
    eigensystem: EigenSystem
    B: Optional[np.ndarray] = None
    modes_exact: Optional[np.ndarray] = None  # (N, r), SVD-DMD exact modes
    residual_fro: float = 0.0
    residual_rel: float = 0.0
    sigma_min: float = 0.0
    m: int = 0
    findings: tuple = ()
    # fit_kdmd: eigenfunction coefficients over the training states X^T, and
    # the training pairs lifted through them where every segment is a
    # trajectory (see fit_kdmd); `fit` moves both into the model's KernelLift
    # and pairs and clears them here
    kernel_alpha: Optional[np.ndarray] = None  # (m, r)
    kernel_pairs: Optional[SnapshotPairs] = None

    @property
    def rank(self) -> int:
        return self.eigensystem.rank

    def reported_modes(self, exact: Optional[bool] = None) -> np.ndarray:
        """Exact modes where the fit has them (the default), else the
        projected eigenvectors."""
        if (exact is None or exact) and self.modes_exact is not None:
            return self.modes_exact
        return self.eigensystem.W_right


def _as_matrix(M, name) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[None, :]
    if M.ndim != 2:
        raise DataError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    return M


def _check_pair_count(m: int) -> None:
    if m < 2:
        raise RegressionError(f"need at least 2 snapshot pairs, got m={m}")


def _as_pairs(Z, Zprime, U=None, inputs: bool = False):
    """The snapshot pairs a fit regresses on: Z itself when it is a
    `SnapshotPairs` or a `PairStream`, else the column matrices Z, Z'
    (N, m), with U (q, m) for ``inputs``, checked and wrapped as one segment
    of views."""
    if isinstance(Z, _Pairs):
        if Zprime is not None or U is not None:
            raise DataError("give SnapshotPairs alone, or the matrices Z and Zprime")
        _check_pair_count(Z.m)
        if inputs and Z.n_inputs == 0:
            raise ConfigError("no input channels given; use fit_edmd for unforced data")
        return Z
    Z, Zp = _as_matrix(Z, "Z"), _as_matrix(Zprime, "Zprime")
    if Z.shape != Zp.shape:
        raise DataError(f"Z and Zprime shapes differ: {Z.shape} vs {Zp.shape}")
    _check_pair_count(Z.shape[1])
    if inputs:
        U = None if U is None else _as_matrix(U, "U")
        if U is None or U.shape[0] == 0:
            raise ConfigError("no input channels given; use fit_edmd for unforced data")
        if U.shape[1] != Z.shape[1]:
            raise DataError(f"U has {U.shape[1]} columns, expected {Z.shape[1]}")
    return SnapshotPairs.from_columns(Z, Zp, U=U)


def _pair_factor(pairs, inputs: bool = False):
    """The R factor of the snapshot pairs as rows, [X | U | X'] with U only
    for ``inputs``, returned as its column blocks R_X, R_U (None without
    inputs) and R_X'. ``pairs`` is any pair type (`data._Pairs`): a
    `PairStream`, as `fit` gives, or held `SnapshotPairs`.

    With [X | U | X'] = Q R for one Q with orthonormal columns, each block
    B^T = R_B^T Q^T. So the SVD of B^T is that of R_B^T with right vectors
    Q W, a product B^T V = B^T Q W is R_B^T W, and a Frobenius norm of a
    combination of the B^T is that of the same combination of the R_B^T:
    the regressions work on R_B, whose rows number at most the width W of
    [X | U | X'], and never on the m-long blocks.

    R is accumulated over the blocks of QR_CHUNK pairs that
    `data.pair_blocks` cuts from the segment lengths, by a TSQR with a fixed
    reduction tree, so no temporary holds all m pairs. Block i goes to
    stream i mod TSQR_STREAMS, and each stream keeps its own R: each of its
    blocks is copied once into the stream's rows of one column-major
    buffer, below that R, and R is updated there in place to the R factor
    of [R; block] by `_kernels.lapack_tpqrt` (LAPACK's dtpqrt, or
    np.linalg.qr), from R = 0. One more update, of stream 0's R by stream
    1's, merges them. The tree is the same on every platform; only the
    update's bits differ. With one block, stream 1 is empty: it allocates
    no rows, and there is no merge. For m < W, R's rows below the m-th are
    zero but for rounding and are dropped, so R is (min(m, W), W).

    Each stream fetches the pieces of its blocks itself, with `pairs.rows`,
    the one pair reader: a `PairStream` lifts the rows of the piece, and no
    others, so a stream holds one block's lifted rows at a time, whatever
    the trajectories' lengths, and never the lifted dataset. Every library
    of the package lifts a row with the bits of a whole lift, on one BLAS
    thread as on more, so R's bits are those of the held pairs.

    The TSQR runs on one BLAS thread (`_kernels.one_blas_thread`, a
    process-wide setting, restored after), so R's bits depend only on the
    pairs, W and QR_CHUNK, not on the BLAS thread count. The streams are
    lanes of `_kernels.in_lanes`, which runs stream 1 on a Python thread of
    its own beside stream 0 where that count can be set, so a library's
    `lift_trajectory` may run on both threads at once, and re-raises an
    exception of stream 1 on the caller's thread.

    A NaN or an inf in a pair leaves R non-finite, and only then are the
    pairs searched, by their `refuse_non_finite`, which raises DataError.
    """
    N = pairs.n_features
    q = pairs.n_inputs if inputs else 0
    W = 2 * N + q
    tpqrt = _kernels.lapack_tpqrt()
    plan = list(pair_blocks(pairs.lengths, QR_CHUNK))
    n_streams = min(TSQR_STREAMS, len(plan))
    # one column-major buffer, so each column of a block is filled, and read
    # by the update, contiguously; stream s owns rows s h .. (s + 1) h: its R,
    # zero before its first block, then room for one block
    h = W + min(QR_CHUNK, pairs.m)
    S = np.zeros((n_streams * h, W), order="F")

    def stream(s):
        top = s * h + W  # the stream's first block row
        for block in plan[s::TSQR_STREAMS]:
            o = top
            for i, lo, hi in block:
                X, U, Xp = pairs.rows(i, lo, hi)
                e = o + hi - lo
                S[o:e, :N] = X
                if q:
                    S[o:e, N:N + q] = U
                S[o:e, N + q:] = Xp
                o = e
            del X, U, Xp  # not held through the update
            tpqrt(S[top - W:top], S[top:o])

    with _kernels.one_blas_thread():
        _kernels.in_lanes(stream, n_streams)
        for s in range(1, n_streams):
            tpqrt(S[:W], S[s * h:s * h + W])
        R = np.triu(S[:min(pairs.m, W)])
    if not np.isfinite(R).all():
        pairs.refuse_non_finite()
    return R[:, :N], (R[:, N:N + q] if q else None), R[:, N + q:]


def _residual(E: np.ndarray, target: np.ndarray):
    """Frobenius norm of the residual E and its size relative to the target."""
    fro = float(np.linalg.norm(E))
    denom = float(np.linalg.norm(target))
    return fro, fro / denom if denom > 0 else 0.0


def _parse_rank(rank, name: str = "rank", cutoff: bool = True):
    """The one parser of a rank option (see the module docstring); returns
    (cap, relative cutoff). A bool is refused, and a float is accepted only
    where ``cutoff`` allows one."""
    if rank is None:
        return None, RANK_CUTOFF
    if isinstance(rank, Integral) and not isinstance(rank, bool) and rank >= 1:
        return int(rank), RANK_CUTOFF
    if cutoff and isinstance(rank, Real) and not isinstance(rank, bool) and 0 < rank < 1:
        return None, float(rank)
    expected = "an integer >= 1" + (" or a float cutoff in (0, 1)" if cutoff else "")
    raise ConfigError(f"{name} must be {expected}, got {rank!r}")


def _truncate_svd(M: np.ndarray, rank):
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise RegressionError("all singular values below cutoff")
    cap, cutoff = _parse_rank(rank)
    r = int(np.sum(s > cutoff * s[0]))
    if cap is not None:
        r = min(r, cap)
    if r == 0:
        raise RegressionError("all singular values below cutoff")
    return U[:, :r], s[:r], Vt[:r].T


def _lift_eigensystem(eig_red: EigenSystem, projection: np.ndarray) -> EigenSystem:
    """Map a reduced eigensystem to the full space through an orthonormal basis."""
    Wr = projection @ eig_red.W_right
    Wl = projection @ eig_red.W_left
    Wr, Wl = _normalize_pair(Wr, Wl)
    return EigenSystem(lambdas=eig_red.lambdas, W_right=Wr, W_left=Wl,
                       findings=eig_red.findings)


def fit_edmd(Z, Zprime=None, rank=None) -> RegressionResult:
    """SVD-based least-squares fit of Z' ~ A Z on lifted snapshot columns.

    Z and Zprime are (N, m) matrices, or Z is a `SnapshotPairs` or a
    `PairStream` and Zprime None. Fits the reduced operator over the leading
    left-singular basis of Z and returns it in the full lifted space, with
    its eigensystem mapped there too, and both projected and exact SVD-DMD
    modes (the exact form is the default reported one; eigenvalues at zero
    fall back to the projected mode). Everything is computed from the R factor of [Z^T | Z'^T]. No
    sample interval is taken: `continuous_eigenvalues` maps the eigenvalues.
    """
    pairs = _as_pairs(Z, Zprime)
    RZ, _, RZp = _pair_factor(pairs)
    Ur, sr, W = _truncate_svd(RZ.T, rank)  # right vectors of Z: Vr = Q W
    G = RZp.T @ (W * (1.0 / sr))  # (N, r) = Zprime Vr Sr^-1
    At = Ur.T @ G
    eig_red = eig_biorthogonal(At)
    eig_full = _lift_eigensystem(eig_red, Ur)

    # exact modes Zprime Vr Sr^-1 w / lambda, with w scaled consistently with
    # the canonical full-space eigenvectors so amplitudes pair up; the zero
    # class (snapped to exactly 0 by eig_biorthogonal) falls back to the
    # projected mode
    findings = []
    W_red = Ur.T @ eig_full.W_right
    ME = G.astype(complex) @ W_red
    lam = eig_full.lambdas
    nz = lam != 0
    ME[:, nz] = ME[:, nz] / lam[nz]
    if (~nz).any():
        ME[:, ~nz] = eig_full.W_right[:, ~nz]
        findings.append(Finding("exact-mode-fallback", message=(
            "zero eigenvalue(s): exact modes fall back to projected modes")))

    A_full = Ur @ At @ Ur.T
    fro, rel = _residual(RZp.T - A_full @ RZ.T, RZp)
    return RegressionResult(
        A=A_full, eigensystem=eig_full, modes_exact=ME,
        residual_fro=fro, residual_rel=rel, sigma_min=float(sr[-1]), m=pairs.m,
        findings=findings,
    )


def fit_edmdc(Z, Zprime=None, U=None, rank_in=None, rank_out=None) -> RegressionResult:
    """Controlled fit: Z' ~ A Z + B U via SVD of the stacked [Z; U].

    Z, Zprime (N, m) and U (q, m) are matrices, or Z is a `SnapshotPairs`
    or a `PairStream` with inputs and the other two None. When rank_out is
    given and below N, a second SVD of Zprime compresses the state block;
    the eigensystem is always computed from A alone. Both SVDs and the residual are taken on
    the R factor of [Z^T | U^T | Z'^T]. No sample interval is taken:
    `continuous_eigenvalues` maps the eigenvalues.
    """
    pairs = _as_pairs(Z, Zprime, U, inputs=True)
    N, m, q = pairs.n_features, pairs.m, pairs.n_inputs
    cap_in, _ = _parse_rank(rank_in, "rank_in")
    cap_out, _ = _parse_rank(rank_out, "rank_out")
    if cap_in is not None and cap_in > N + q:
        raise ConfigError(f"rank_in={rank_in} exceeds stacked dimension {N + q}")
    RZ, RU, RZp = _pair_factor(pairs, inputs=True)
    Uo, so, W = _truncate_svd(np.hstack([RZ, RU]).T, rank_in)
    AB = RZp.T @ (W * (1.0 / so)) @ Uo.T  # (N, N+q)
    A = AB[:, :N]
    B = AB[:, N:]

    fro, rel = _residual(RZp.T - (A @ RZ.T + B @ RU.T), RZp)
    if rank_out is not None and (cap_out is None or cap_out < N):
        # the operator restricted to the leading output subspace, in full space
        P, _, _ = _truncate_svd(RZp.T, rank_out)
        A_red = P.T @ A @ P
        eig = _lift_eigensystem(eig_biorthogonal(A_red), P)
        A, B = P @ A_red @ P.T, P @ (P.T @ B)
    else:
        eig = eig_biorthogonal(A)
    return RegressionResult(
        A=A, B=B, eigensystem=eig,
        residual_fro=fro, residual_rel=rel, sigma_min=float(so[-1]), m=m,
    )


@dataclass(frozen=True)
class KernelConfig:
    """Kernel for the Gram-matrix regression variant.

    gaussian: k(x, y) = exp(-||x - y||^2 / (2 sigma^2));
    polynomial: k(x, y) = (offset + x.y)^degree.
    reg_eps scales a Tikhonov term reg_eps * m * I on the Gram matrix.
    """

    kind: str = "gaussian"
    sigma: float = 1.0
    degree: int = 2
    offset: float = 1.0
    reg_eps: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "polynomial"):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        # every option is checked and stored canonically, whatever the kind
        for name, value in (("sigma", check_real(self.sigma, "sigma", positive=True)),
                            ("degree", check_int(self.degree, "degree", 1)),
                            ("offset", check_real(self.offset, "offset")),
                            ("reg_eps", check_real(self.reg_eps, "reg_eps"))):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        if self.kind == "gaussian":
            return {"kind": self.kind, "sigma": self.sigma, "reg_eps": self.reg_eps}
        return {
            "kind": self.kind, "degree": self.degree, "offset": self.offset,
            "reg_eps": self.reg_eps,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KernelConfig":
        return call_with_options(cls, d, "kernel")

    def gram(self, Xrows: np.ndarray, Yrows: np.ndarray) -> np.ndarray:
        return _kernels.gram_matrix(Xrows, Yrows, self.kind, self.sigma, self.offset,
                                    self.degree)


def _check_gram_memory(m: int, rows: int, held: int) -> None:
    """Refuse a kernel fit whose m-long float64 rows exceed physical memory,
    before allocating any. The fit holds G, and beside it first its
    eigensolver's `rows` m-long rows: the Lanczos iteration's Krylov basis
    and its next vector (`_lanczos_cap` + 1 rows), or what the dense eigh
    holds beside its input, three m x m arrays (its work copy, the
    divide-and-conquer workspace it touches and Q: its peak RSS exceeded the
    input's by 3.1-3.4 of them at m = 1,500 to 4,500). After the
    eigensolver, beside G, the fit keeps `held` rows of T (the trajectory end
    rows of its training lift, at most m) and streams the other rows it
    evaluates in row blocks, never holding T whole."""
    _check_memory(m * (m + max(rows, held)) * np.dtype(float).itemsize,
                  f"kernel regression on m={m} snapshot pairs (its Gram matrices)")


def _lanczos_cap(m: int, r: int) -> int:
    """The most Lanczos steps, and Krylov basis vectors, a rank-r solve on an
    m x m Gram matrix takes before it gives up for the dense eigh. The steps
    needed beyond r follow the decay of the spectrum more than r: on the
    kdmd_gram states (m = 2,844, r = 20) the residuals met their bound after
    26-27 steps at sigma = 2, 41-43 at sigma = 0.3 and 71-82 at sigma =
    0.05, and on uniform random 2-d states (m = 64 to 800, r = 1 to m/32)
    after r + 7 to r + 9 steps at sigma = 2 and r + 21 to r + 29 at sigma =
    0.3."""
    return min(m, 4 * r + 60)


def _lanczos(G: np.ndarray, r: int, tol: float):
    """The r leading eigenpairs (s, Q) of the symmetric G in decreasing
    order, by a Lanczos iteration with full reorthogonalization (twice,
    classical Gram-Schmidt), or None when they have not converged within
    `_lanczos_cap` steps (Parlett, The Symmetric Eigenvalue Problem, ch. 13).

    A step multiplies G by the last basis vector once, by the product
    `_kernels.blas_dsymv` loads: BLAS's dsymv, which reads only G's upper
    triangle (at m = 2,844 one product took 0.74 ms against 1.31 ms for the
    gemv of G @ v, 2 BLAS threads; 1.35 against 2.61 ms on one), or, where
    numpy's BLAS library does not export dsymv, that gemv, with its bits. It
    starts from a fixed vector, so repeated solves are bit-identical at one
    BLAS thread count. A check after step k >= r takes the eigenpairs
    (theta, y) of the k x k tridiagonal T_k = V_k^T G V_k and accepts the
    leading r Ritz pairs (theta, V_k y) once every residual |beta_k y_k|, the
    norm of G V_k y - theta V_k y, is at most tol. A check can cost several
    steps when m is small or k large, so after a failed check the next one
    waits until the steps since have cost about as much as it did. The two
    costs are measured ones (2-CPU VM, one and two BLAS threads): a check,
    numpy's dense eigh of T_k, takes about 8 + 0.07 k^2 us for k = 10 to
    140, its per-call cost included; a step about 15 + 1e-4 m^2 + 5e-4 k m
    us, the dsymv and the reorthogonalization against k vectors. At m =
    2,844 that checks every step up to k = 140, the cap at r = 20. The last
    step, the cap or an invariant Krylov space (beta_k = 0), is always
    checked; one reached before r steps cannot hold r pairs and gives None
    too.
    """
    m = G.shape[0]
    cap = _lanczos_cap(m, r)
    V = np.empty((cap, m))  # the Krylov basis, one vector a row
    T = np.zeros((cap, cap))  # its tridiagonal projection of G
    v = np.random.default_rng(0).uniform(-1.0, 1.0, m)
    V[0] = v / np.linalg.norm(v)
    symv = _kernels.blas_dsymv()
    check = r  # the step after which the next check runs
    for k in range(cap):
        w = symv(G, V[k])
        Vk = V[:k + 1]
        h = Vk @ w
        w -= h @ Vk
        h2 = Vk @ w
        w -= h2 @ Vk
        T[k, k] = h[k] + h2[k]
        beta = np.linalg.norm(w)
        last = beta == 0.0 or k + 1 == cap
        if k + 1 >= check or last and k + 1 >= r:
            theta, Y = np.linalg.eigh(T[:k + 1, :k + 1])
            if np.all(beta * np.abs(Y[k, -r:]) <= tol):
                return theta[:-r - 1:-1], Vk.T @ Y[:, :-r - 1:-1]
            # microseconds of a check over those of a step, as measured
            check = k + 1 + max(1, int((8.0 + 0.07 * (k + 1) ** 2)
                                       / (15.0 + 1e-4 * m * m + 5e-4 * (k + 1) * m)))
        if last:
            return None
        V[k + 1] = w / beta
        T[k, k + 1] = T[k + 1, k] = beta


def _gram_eigenpairs(kernel: KernelConfig, Xr: np.ndarray, rank, held: int = 0):
    """The Gram matrix G of the state rows Xr (m, n) with its leading
    eigenpairs (s, Q) in decreasing order, r = rank of them or all m, and
    the solve's findings.

    G is exactly symmetric as built, for both kernels: an entry is an
    elementwise function of a per-coordinate sum over its two states
    (`_kernels.gram_matrix`), fl(a - b) = -fl(b - a) and fl(a b) = fl(b a).
    Both solvers take G as it is. G is positive semidefinite, so it is zero
    exactly when its trace is not positive; a zero G raises RegressionError
    before either solver runs.

    The route: r <= m / LANCZOS_RATIO takes the Lanczos iteration of
    `_lanczos`, which asks of each Ritz pair the residual eps * trace(G),
    the backward error a dense eigh attains (trace(G) bounds G's spectrum).
    rank=None and a larger r take a dense eigh, and so does a Lanczos
    iteration that does not converge, with a `lanczos-fallback` finding.
    Each route's m-long rows, and the `held` rows of T the fit keeps beside
    G, are checked against physical memory before they are allocated.
    """
    m = Xr.shape[0]
    lanczos = rank is not None and LANCZOS_RATIO * rank <= m
    _check_gram_memory(m, _lanczos_cap(m, rank) + 1 if lanczos else 3 * m, held)
    G = kernel.gram(Xr, Xr)
    trace = G.trace()
    if not trace > 0.0:
        raise RegressionError("Gram matrix is zero; no data support")
    findings = ()
    if lanczos:
        pairs = _lanczos(G, rank, np.finfo(float).eps * trace)
        if pairs is not None:
            return G, *pairs, findings
        _check_gram_memory(m, 3 * m, held)
        findings = (Finding("lanczos-fallback", message=(
            f"the Lanczos iteration for {rank} Gram eigenpairs did not converge within "
            f"{_lanczos_cap(m, rank)} steps; the dense eigh solved instead")),)
    s, Q = np.linalg.eigh(G)
    return G, s[::-1], Q[:, ::-1], findings


def fit_kdmd(Z, Zprime=None, kernel: KernelConfig = KernelConfig(),
             rank=None) -> RegressionResult:
    """Kernel regression variant operating on Gram matrices.

    Z and Zprime are (n, m) state matrices, or Z is a `SnapshotPairs` or a
    `PairStream` (`fit` gives a stream of the raw states) and Zprime None,
    as for `fit_edmd`; the states are copied out of the pairs a QR_CHUNK
    block at a time. Eigendecomposes the regularized operator (G +
    reg_eps*m*I)^-1 T restricted to the principal eigenspace of G, where
    G_ij = k(x_i, x_j) and T_ij = k(x'_i, x_j). Eigenfunctions are
    phi_j(x) = sum_i alpha_ij k(x, x_i), scaled to unit norm over the
    training states; the operator on them is diag(lambda). The state
    reconstruction (and with it the Koopman modes) is fitted on the
    eigenfunction lift by `fit_reconstruction`, as for any library without
    an exact state embedding. No sample interval is taken:
    `continuous_eigenvalues` maps the eigenvalues.

    The principal eigenspace of G comes from `_gram_eigenpairs`: the
    leading r eigenpairs by a Lanczos iteration on numpy's BLAS (`_lanczos`,
    its products by `_kernels.blas_dsymv`) for an integer rank r <= m /
    LANCZOS_RATIO (16), else the whole spectrum by a dense eigh, which
    rank=None needs for the numerical rank. A Lanczos iteration that does
    not converge gives way to the dense eigh, and the result records a
    `lanczos-fallback` finding. The ratio is a measured crossover. On
    Gaussian Gram matrices of slow-manifold data (m = 474 to 2,844, sigma =
    0.3 and 2; 2-CPU VM, OpenBLAS, two BLAS threads) the Lanczos solve, G
    included, took 0.07-0.20 of the dense time at r = m/32, 0.12-0.29 of it
    at r = m/16 and 0.24-0.35 at r = m/8; at sigma = 0.05 it took 0.28-0.48,
    0.35-0.62 and 0.45-0.62. On one thread (m = 474 to 1,896) the r = m/16
    solve took 0.12-0.29 and, at sigma = 0.05, 0.36-0.48 of the dense time.

    Each kernel value is evaluated once. Wherever x'_i is x_{i+1} bit for
    bit, as inside a trajectory's pairs, row i of T is row i + 1 of G (an
    entry's bits depend only on its two states, see
    `_kernels.gram_matrix`), so only the other rows of T are evaluated: one
    end row per trajectory, or every row of arbitrary pairs. On m pairs
    from n_traj trajectories the fit evaluates (m + n_traj) x m kernel
    values. When every segment of the pairs is a trajectory, the fit also
    lifts them through the eigenfunctions (`kernel_pairs`), from the rows
    of G and each trajectory's end row, in the blocks in which
    `KernelLift.lift_trajectory` lifts the same trajectory, so a later lift
    of the training data gives the same bits.

    Memory: the fit holds one m x m array, G, for both kernels. T is never
    formed whole: it enters only through Qr^T T Qr and T alpha = T Qr C (Qr
    the retained eigenvectors of G, C the reduced eigenvectors). Its rows
    taken from G enter through one product G [Qr | Qs], Qs being Qr shifted
    down a row where row i of T is row i + 1 of G; its evaluated rows are
    built `_kernels.ROW_BLOCK` at a time and each block is folded into T Qr
    and Qr^T T. For the training lift the fit keeps the evaluated end rows,
    one m-long row per trajectory. While it runs, the Lanczos iteration
    holds its Krylov basis beside G, at most min(m, 4r + 60) m-long rows,
    and the dense eigh three more m x m arrays (its work copy, workspace and
    Q). Before any m x m allocation, a fit whose arrays would not fit in
    physical memory raises ConfigError.
    """
    pairs = _as_pairs(Z, Zprime)
    m = pairs.m
    rank, _ = _parse_rank(rank, "kernel rank", cutoff=False)
    # refused here, not by the Gram matrix: a NaN trace reads as a zero G
    pairs.refuse_non_finite()
    Xr, Xpr = pairs.stacked("X", QR_CHUNK), pairs.stacked("Xprime", QR_CHUNK)
    # row i of T is row i + 1 of G where x'_i is x_{i+1}, compared bit for bit
    shifted = np.zeros(m, dtype=bool)
    shifted[:-1] = (Xpr[:-1].view(np.int64) == Xr[1:].view(np.int64)).all(axis=1)
    ends = np.flatnonzero(~shifted)  # the rows of T that are evaluated
    edges = np.cumsum([0, *pairs.lengths])
    trajectories = all(shifted[lo:hi - 1].all() for lo, hi in zip(edges, edges[1:]))
    G, s, Q, findings = _gram_eigenpairs(kernel, Xr, rank,
                                         ends.size if trajectories else 0)
    s = np.maximum(s, 0.0)
    # counted over the computed eigenvalues: where only the leading r were
    # computed, rank > r_num is the test s[r-1] <= GRAM_CUTOFF * s[0]
    r_num = int(np.sum(s > GRAM_CUTOFF * s[0]))
    r = r_num
    if rank is not None:
        if rank > r_num and kernel.reg_eps == 0.0:
            raise RegressionError(
                f"Gram matrix is singular at rank {rank} (numerical rank {r_num}); "
                "set reg_eps > 0 to regularize"
            )
        r = min(rank, m)
    sr = s[:r]
    Qr = np.ascontiguousarray(Q[:, :r])
    del Q  # the dense route's m x m Q must not live through the T rows
    # positive: with reg_eps = 0 every retained s exceeds GRAM_CUTOFF s[0] > 0
    # (a rank above r_num was refused above), and KernelConfig refuses a
    # negative reg_eps, so reg_eps > 0 adds reg_eps m > 0 to s >= 0
    denom = sr + kernel.reg_eps * m
    # T Qr and Qr^T T: a shifted row i of T gives (T Qr)_i = (G Qr)_{i+1}, and
    # the shifted rows sum to Qs^T G = (G Qs)^T in Qr^T T, G being exactly
    # symmetric; each block of evaluated rows is folded into both as it comes.
    # A_hat is taken as (Qr^T T) Qr: its rows are divided by Gram eigenvalues
    # near the reg_eps floor, and on the kdmd_gram states (six seeds)
    # Qr^T (T Qr) erred 5-40x more against a long-double product than
    # (Qr^T T) Qr did
    i = np.flatnonzero(shifted)
    Qs = np.zeros((m, r))
    Qs[i + 1] = Qr[i]
    GQ = G @ np.hstack([Qr, Qs])
    GQr = GQ[:, :r]
    TQ = np.empty((m, r))
    TQ[i] = GQr[i + 1]
    QtT = np.ascontiguousarray(GQ[:, r:].T)
    held = np.empty((ends.size, m)) if trajectories else None
    for a in range(0, ends.size, _kernels.ROW_BLOCK):
        rows = ends[a:a + _kernels.ROW_BLOCK]
        Tb = kernel.gram(Xpr[rows], Xr)
        TQ[rows] = Tb @ Qr
        QtT += Qr[rows].T @ Tb
        if held is not None:
            held[a:a + _kernels.ROW_BLOCK] = Tb
        del Tb  # not alive while the next block is built
    A_hat = (QtT @ Qr) / denom[:, None]
    eig_red = eig_biorthogonal(A_hat)
    lam = eig_red.lambdas
    C = eig_red.W_right.copy()  # (r, r): alpha = Qr C
    alpha = Qr @ C  # (m, r) eigenfunction coefficients
    Xi = _kernels.real_matmul_complex(GQr, C).T  # (r, m) G alpha on the training states

    # canonical scaling: unit-norm eigenfunction trajectories, leading entry real
    for j in range(r):
        nrm = np.linalg.norm(Xi[j])
        if nrm > 0:
            c = Xi[j, np.argmax(np.abs(Xi[j]))]
            scale = (np.abs(c) / c) / nrm
            Xi[j] *= scale
            alpha[:, j] *= scale
            C[:, j] *= scale
    # conjugate pairs exact, as in eig_biorthogonal (their scales may round apart)
    _snap_conjugate_partners(lam, alpha, C)

    Xi_next = _kernels.real_matmul_complex(TQ, C).T  # T alpha
    fro, rel = _residual(Xi_next - lam[:, None] * Xi, Xi_next)
    # in eigenfunction coordinates the eigenvectors are the unit vectors
    eye = np.eye(r, dtype=complex)
    eig = EigenSystem(lambdas=lam, W_right=eye, W_left=eye, findings=eig_red.findings)
    lifted = None
    if trajectories:
        plan = _kernels.conjugate_plan(alpha)
        segments = []
        for lo, hi in zip(edges, edges[1:]):
            # the kernel row of the trajectory's last state, x' of pair hi - 1
            end = G[hi] if shifted[hi - 1] else held[np.searchsorted(ends, hi - 1)]
            Zs = _lift_trajectory(G, lo, hi, end, plan)
            segments.append((Zs[:-1], None, Zs[1:]))
        lifted = SnapshotPairs(segments=tuple(segments))
    return RegressionResult(
        A=np.diag(lam), eigensystem=eig, residual_fro=fro,
        residual_rel=rel, sigma_min=float(np.sqrt(sr[-1])), m=m, findings=findings,
        kernel_alpha=alpha, kernel_pairs=lifted,
    )


def _lift_trajectory(G, lo, hi, end, plan):
    """The eigenfunction lift of the trajectory whose pairs are rows lo..hi-1
    of G: its states are those rows' states and the last pair's x', whose
    kernel row is `end`. Blocks inside G are views of its rows; the last
    block is copied, with `end` below them."""
    def rows(a, b):
        if lo + b <= hi:
            return G[lo + a:lo + b]
        block = np.empty((b - a, G.shape[1]))
        block[:-1] = G[lo + a:hi]
        block[-1] = end
        return block

    return _kernels.eigenfunction_lift(rows, hi - lo + 1, plan)
