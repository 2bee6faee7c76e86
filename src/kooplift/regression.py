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

import os
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional

import numpy as np

from . import _kernels
from .data import Finding, SnapshotPairs, _FrozenRecord
from .errors import (ConfigError, DataError, RegressionError, call_with_options,
                     check_int, check_real)

__all__ = [
    "EigenSystem",
    "RegressionResult",
    "KernelConfig",
    "eig_biorthogonal",
    "fit_edmd",
    "fit_edmdc",
    "fit_kdmd",
]

RANK_CUTOFF = 1e-10  # relative singular-value cutoff, keeps exact problems exact
GRAM_CUTOFF = 1e-12  # relative cutoff on Gram-matrix eigenvalues (~ sigma^2)
# snapshot pairs per row block of the TSQR in _pair_factor. The R factor of
# [Z^T | U^T | Z'^T] at N = 102, q = 1 and m = 100k (2-CPU VM, medians of six
# interleaved runs) took 0.85 s in blocks of 5,000, 0.75 s in blocks of
# 10,000 and 0.80 s in blocks of 25,000; that of [Z^T | Z'^T] at N = 18 and
# m = 249k took 0.18, 0.19 and 0.16 s
QR_CHUNK = 10_000
# a rank-r kernel fit on m pairs takes the Lanczos route when
# LANCZOS_RATIO * r <= m (see fit_kdmd for the measured crossover)
LANCZOS_RATIO = 32
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
    copies; findings are a tuple.
    """

    lambdas: np.ndarray  # (r,) discrete eigenvalues
    mus: np.ndarray  # (r,) continuous eigenvalues ln(lambda)/dt, principal branch
    W_right: np.ndarray  # (N, r)
    W_left: np.ndarray  # (N, r)
    findings: tuple = ()

    @property
    def rank(self) -> int:
        return self.lambdas.shape[0]


def _classify_spectrum(lam: np.ndarray, A: np.ndarray, dt: float):
    """Snap zero-class eigenvalues of A to 0 and take continuous eigenvalues.

    Rounding moves the zero eigenvalue of a defective (nilpotent) block to
    about sqrt(eps) ||A||_2, so an exact comparison with 0 misses it.
    Eigenvalues with |lambda| <= ZERO_EIG_RTOL * ||A||_2 form the zero class:
    they are set to exactly 0, reported, and their continuous eigenvalue is
    -inf. Returns (lambdas, mus, findings).
    """
    lam = lam.copy()
    zero = np.abs(lam) <= ZERO_EIG_RTOL * np.linalg.norm(A, 2)
    lam[zero] = 0.0
    mus = np.empty(lam.shape, dtype=complex)
    findings = []
    if zero.any():
        mus[zero] = complex(-np.inf, 0.0)
        findings.append(Finding("zero-eigenvalue", message=(
            f"{int(zero.sum())} zero eigenvalue(s) (|lambda| <= {ZERO_EIG_RTOL:.1e} "
            "||A||_2): continuous eigenvalue reported as -inf")))
    nz = ~zero
    mus[nz] = np.log(lam[nz]) / dt
    neg_real = nz & (lam.imag == 0) & (lam.real < 0)
    if neg_real.any():
        findings.append(Finding("negative-real-eigenvalue", message=(
            "negative real eigenvalue(s): principal-branch log gives imaginary "
            "part pi/dt; the continuous eigenvalue is aliasing-ambiguous")))
    return lam, mus, findings


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


def eig_biorthogonal(A: np.ndarray, dt: float = 1.0) -> EigenSystem:
    """Eigendecomposition of a square matrix with biorthogonal left vectors.

    A near-defective eigenvector matrix is flagged with a finding and the
    left vectors fall back to the pseudoinverse (biorthogonality is then only
    approximate for the affected cluster). Eigenvalues within
    ZERO_EIG_RTOL * ||A||_2 of zero are returned as exactly 0.
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
    W, W_left = _normalize_pair(W, W_left)
    if not np.iscomplexobj(A):
        # LAPACK returns a real A's conjugate pairs exactly (the member with
        # negative imaginary part sorts first); inv() keeps the pairing of the
        # left vectors only to rounding, and the normalization carries that
        # into the right vectors
        j = np.flatnonzero((lam[:-1].imag < 0) & (lam[1:] == lam[:-1].conj()))
        W[:, j + 1] = W[:, j].conj()
        W_left[:, j + 1] = W_left[:, j].conj()
    lam, mus, mu_findings = _classify_spectrum(lam, A, dt)
    return EigenSystem(
        lambdas=lam, mus=mus, W_right=W, W_left=W_left,
        findings=findings + mu_findings,
    )


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
    # fit_kdmd: eigenfunction coefficients over the training states X^T
    kernel_alpha: Optional[np.ndarray] = None  # (m, r)

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


def _as_pairs(Z, Zprime, U=None, inputs: bool = False) -> SnapshotPairs:
    """The snapshot pairs a fit regresses on: Z itself when it is a
    `SnapshotPairs`, else the column matrices Z, Z' (N, m), with U (q, m)
    for ``inputs``, checked and wrapped as one segment of views."""
    if isinstance(Z, SnapshotPairs):
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


def _check_finite(rows: np.ndarray, first: int = 0) -> None:
    """Refuse snapshot pairs, one per row, that hold NaN or inf; `first` is
    the index of the first row's pair."""
    if not np.isfinite(rows).all():
        j = first + int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise DataError(f"snapshot pair {j} holds a non-finite value (NaN or inf)")


def _pair_factor(pairs: SnapshotPairs, inputs: bool = False):
    """The R factor of the snapshot pairs as rows, [X | U | X'] with U only
    for ``inputs``, returned as its column blocks R_X, R_U (None without
    inputs) and R_X'.

    With [X | U | X'] = Q R for one Q with orthonormal columns, each block
    B^T = R_B^T Q^T. So the SVD of B^T is that of R_B^T with right vectors
    Q W, a product B^T V = B^T Q W is R_B^T W, and a Frobenius norm of a
    combination of the B^T is that of the same combination of the R_B^T:
    the regressions work on R_B, whose rows number at most the width of
    [X | U | X'], and never on the m-long blocks. R is accumulated over the
    blocks of QR_CHUNK pairs that `SnapshotPairs.blocks` hands out (TSQR:
    R = qr([R; next rows])), each copied into one buffer below the R of the
    blocks before it, so no temporary holds all m pairs. A block with a NaN
    or an inf raises DataError.
    """
    N = pairs.n_features
    q = pairs.n_inputs if inputs else 0
    W = 2 * N + q
    # column-major, so each column of a block is filled, and copied for
    # LAPACK, contiguously
    S = np.empty((W + min(QR_CHUNK, pairs.m), W), order="F")
    out = (S[W:, :N], S[W:, N:N + q] if q else None, S[W:, N + q:])
    R = np.empty((0, W))
    a = 0
    for X, _, _ in pairs.blocks(QR_CHUNK, out):
        c, k = X.shape[0], R.shape[0]
        S[W - k:W] = R
        _check_finite(S[W:W + c], a)
        R = np.linalg.qr(S[W - k:W + c], mode="r")
        a += c
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
    return EigenSystem(
        lambdas=eig_red.lambdas, mus=eig_red.mus, W_right=Wr, W_left=Wl,
        findings=eig_red.findings,
    )


def fit_edmd(Z, Zprime=None, rank=None, dt: float = 1.0) -> RegressionResult:
    """SVD-based least-squares fit of Z' ~ A Z on lifted snapshot columns.

    Z and Zprime are (N, m) matrices, or Z is a `SnapshotPairs` and Zprime
    None. Fits the reduced operator over the leading left-singular basis of
    Z and returns it in the full lifted space, with its eigensystem mapped
    there too, and both projected and exact SVD-DMD modes (the exact form is
    the default reported one; eigenvalues at zero fall back to the projected
    mode). Everything is computed from the R factor of [Z^T | Z'^T].
    """
    pairs = _as_pairs(Z, Zprime)
    RZ, _, RZp = _pair_factor(pairs)
    Ur, sr, W = _truncate_svd(RZ.T, rank)  # right vectors of Z: Vr = Q W
    G = RZp.T @ (W * (1.0 / sr))  # (N, r) = Zprime Vr Sr^-1
    At = Ur.T @ G
    eig_red = eig_biorthogonal(At, dt)
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


def fit_edmdc(Z, Zprime=None, U=None, rank_in=None, rank_out=None,
              dt: float = 1.0) -> RegressionResult:
    """Controlled fit: Z' ~ A Z + B U via SVD of the stacked [Z; U].

    Z, Zprime (N, m) and U (q, m) are matrices, or Z is a `SnapshotPairs`
    with inputs and the other two None. When rank_out is given and below N,
    a second SVD of Zprime compresses the state block; the eigensystem is
    always computed from A alone. Both SVDs and the residual are taken on
    the R factor of [Z^T | U^T | Z'^T].
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
        eig = _lift_eigensystem(eig_biorthogonal(A_red, dt), P)
        A, B = P @ A_red @ P.T, P @ (P.T @ B)
    else:
        eig = eig_biorthogonal(A, dt)
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


def _check_gram_memory(m: int, dense: bool) -> None:
    """Refuse a kernel fit whose m x m float64 arrays exceed physical memory,
    before allocating any. The fit holds G; the dense route adds what eigh
    holds beside its input, three m x m arrays (its work copy, the
    divide-and-conquer workspace it touches and Q: its peak RSS exceeded the
    input's by 3.1-3.4 of them at m = 1,500 to 4,500). T is streamed in row
    blocks and never held whole."""
    need = (1 + 3 * dense) * m * m * np.dtype(float).itemsize
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ConfigError(
            f"kernel regression on m={m} snapshot pairs needs {need:,} bytes for its "
            f"Gram matrices, more than the {have:,} bytes of physical memory"
        )


def _gram_eigenpairs(kernel: KernelConfig, Xr: np.ndarray, rank):
    """The Gram matrix G of the state rows Xr (m, n) with its leading
    eigenpairs (s, Q) in decreasing order: r = rank of them, or all m.

    G is exactly symmetric as built, for both kernels, because both of its
    arguments are the one array Xr: sq_distances takes each difference
    directly, and fl(a - b) = -fl(b - a); numpy computes Xr Xr^T by syrk,
    which it does not for a copied second argument. Both solvers take G
    as it is. G is positive semidefinite, so it is zero exactly when its
    trace is not positive; a zero G raises RegressionError before either
    solver runs.

    The route: r <= m / LANCZOS_RATIO takes ARPACK's Lanczos iteration
    (scipy.sparse.linalg.eigsh, loaded on first use) from a fixed start
    vector, so repeated fits are bit-identical. rank=None, a larger r, and a
    Lanczos iteration that does not converge take a dense eigh. Each route's
    m x m arrays are checked against physical memory before they are
    allocated.

    ARPACK accepts a Ritz value theta once its residual bound is at most
    eps * max(eps^(2/3), |theta|). The operator is scaled by a power of two
    (exactly) so its trace, which bounds its spectrum, is at most eps^(2/3),
    and the eigenvalues unscaled by the same power: the test then asks every
    Ritz value for the residual eps * trace, the backward error a dense eigh
    attains. Unscaled, Ritz values at the rounding floor must meet an
    unreachable relative bound, and at m = 1,580 and r = 160 the iteration
    ran 20 s instead of about 1 s.
    """
    m = Xr.shape[0]
    lanczos = rank is not None and LANCZOS_RATIO * rank <= m
    _check_gram_memory(m, dense=not lanczos)
    G = kernel.gram(Xr, Xr)
    trace = G.trace()
    if not trace > 0.0:
        raise RegressionError("Gram matrix is zero; no data support")
    if lanczos:
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

        shift = int(np.ceil(np.log2(trace / np.finfo(float).eps ** (2.0 / 3.0))))
        op = LinearOperator((m, m), matvec=lambda v: np.ldexp(G @ v, -shift), dtype=float)
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, m)
        try:
            s, Q = eigsh(op, k=rank, which="LA", v0=v0)
            return G, np.ldexp(s[::-1], shift), Q[:, ::-1]
        except ArpackNoConvergence:
            _check_gram_memory(m, dense=True)
    s, Q = np.linalg.eigh(G)
    return G, s[::-1], Q[:, ::-1]


def fit_kdmd(Z, Zprime=None, kernel: KernelConfig = KernelConfig(), rank=None,
             dt: float = 1.0) -> RegressionResult:
    """Kernel regression variant operating on Gram matrices.

    Z and Zprime are (n, m) state matrices, or Z is a `SnapshotPairs` and
    Zprime None, as for `fit_edmd`. Eigendecomposes the regularized operator
    (G + reg_eps*m*I)^-1 T restricted to the principal eigenspace of G,
    where G_ij = k(x_i, x_j) and T_ij = k(x'_i, x_j). Eigenfunctions are
    phi_j(x) = sum_i alpha_ij k(x, x_i), scaled to unit norm over the
    training states; the operator on them is diag(lambda). The state
    reconstruction (and with it the Koopman modes) is fitted on the
    eigenfunction lift by `fit_reconstruction`, as for any library without
    an exact state embedding.

    The principal eigenspace of G comes from `_gram_eigenpairs`: the
    leading r eigenpairs by Lanczos for an integer rank r <= m /
    LANCZOS_RATIO (32), else the whole spectrum by a dense eigh, which
    rank=None needs for the numerical rank. The ratio is a measured
    crossover. On Gaussian Gram matrices of slow-manifold data (m = 474 to
    2,844, sigma = 0.3 and 2; 2-CPU VM, OpenBLAS) the Lanczos solve took
    0.15-0.42 of the dense time at r = m/32 and 0.35-1.4 of it at r = m/16.

    Memory: the fit holds one m x m array, G, for both kernels. T is never
    formed whole: it enters only through Qr^T T Qr and T alpha = T Qr C (Qr
    the retained eigenvectors of G, C the reduced eigenvectors), so it is
    built `_kernels.ROW_BLOCK` rows at a time and each block is folded into
    the m x r product T Qr and the r x m product Qr^T T. The dense eigh
    holds three more m x m arrays while it runs (its work copy, workspace
    and Q). Before any m x m allocation, a fit whose arrays would not fit in
    physical memory raises ConfigError.
    """
    pairs = _as_pairs(Z, Zprime)
    m = pairs.m
    rank, _ = _parse_rank(rank, "kernel rank", cutoff=False)
    Xr = np.ascontiguousarray(pairs.stacked("X"))
    Xpr = np.ascontiguousarray(pairs.stacked("Xprime"))
    _check_finite(np.hstack([Xr, Xpr]))
    G, s, Q = _gram_eigenpairs(kernel, Xr, rank)
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
    del Q  # the dense route's m x m Q must not live through the T stream
    denom = sr + kernel.reg_eps * m
    if np.any(denom <= 0.0):
        raise RegressionError(
            "Gram matrix is numerically singular; set reg_eps > 0 to regularize"
        )
    # T enters only through Qr^T T Qr and T alpha = T Qr C, so it is built
    # ROW_BLOCK rows at a time and each block is folded into T Qr and Qr^T T
    # as it comes. A_hat is taken as (Qr^T T) Qr: its rows are divided by
    # Gram eigenvalues near the reg_eps floor, and on the kdmd_gram states
    # (six seeds) Qr^T (T Qr) erred 5-40x more against a long-double product
    # than (Qr^T T) Qr did
    TQ = np.empty((m, r))
    QtT = np.zeros((r, m))
    for a in range(0, m, _kernels.ROW_BLOCK):
        b = a + _kernels.ROW_BLOCK
        Tb = kernel.gram(Xpr[a:b], Xr)
        TQ[a:b] = Tb @ Qr
        QtT += Qr[a:b].T @ Tb
        del Tb  # not alive while the next block is built
    A_hat = (QtT @ Qr) / denom[:, None]
    eig_red = eig_biorthogonal(A_hat, dt)
    lam = eig_red.lambdas
    C = eig_red.W_right.copy()  # (r, r): alpha = Qr C
    alpha = Qr @ C  # (m, r) eigenfunction coefficients
    Xi = _kernels.real_matmul_complex(G, alpha).T  # (r, m) values on the training states

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
    j = np.flatnonzero((lam[:-1].imag < 0) & (lam[1:] == lam[:-1].conj()))
    alpha[:, j + 1] = alpha[:, j].conj()
    C[:, j + 1] = C[:, j].conj()

    Xi_next = _kernels.real_matmul_complex(TQ, C).T  # T alpha
    fro, rel = _residual(Xi_next - lam[:, None] * Xi, Xi_next)
    # in eigenfunction coordinates the eigenvectors are the unit vectors
    eye = np.eye(r, dtype=complex)
    eig = EigenSystem(
        lambdas=lam, mus=eig_red.mus, W_right=eye, W_left=eye,
        findings=eig_red.findings,
    )
    return RegressionResult(
        A=np.diag(lam), eigensystem=eig, residual_fro=fro,
        residual_rel=rel, sigma_min=float(np.sqrt(sr[-1])), m=m, kernel_alpha=alpha,
    )
