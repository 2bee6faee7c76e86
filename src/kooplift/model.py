"""The user-facing model: observables composed with a fitted operator.

`fit` runs the configured regression on the training trajectories'
snapshot pairs, fits the state reconstruction, scores the modes, and
assembles an immutable KoopmanModel exposing prediction, simulation,
spectral analytics, and validation scores. Every kind reads its training
pairs as a `PairStream`: the explicit fits' TSQR lanes lift each block's
rows as they reach it, and the score pass lifts them once more, a block at
a time, as validation does, so neither holds the lifted dataset, whatever
the trajectories' lengths; only a fitted reconstruction holds its lifted X.
Kernel regression is one more regressor: it reads the raw states from the
stream, returns its own eigenfunction lift with the training pairs lifted
through it from its Gram rows, and from there every kind runs the same code.

Multi-step simulation iterates in the lifted space and reconstructs each
step; it never re-lifts, which would silently reintroduce nonlinearity.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from . import _kernels
from .data import (
    Finding,
    PairStream,
    TrajectoryDataset,
    _FrozenRecord,
    build_snapshot_pairs,
)
from .errors import ConfigError, DataError, KoopliftError, RegressionError, check_int
from .observables import (
    Identity,
    KernelLift,
    Observable,
    ReconstructionMap,
    TimeDelay,
    fit_reconstruction,
)
from .regression import (
    KernelConfig,
    RegressionResult,
    _parse_rank,
    continuous_eigenvalues,
    fit_edmd,
    fit_edmdc,
    fit_kdmd,
)

__all__ = ["RegressorConfig", "KoopmanModel", "ModeTable", "fit"]

# kind -> (regression, controlled, library). The regression is fit_edmd,
# fit_edmdc or fit_kdmd; the kind is only a label on the model. The library
# is the kind of observables a fitted model holds, and sets what the fit
# takes: None, any library (identity by default); "time_delay", identity or
# TimeDelay (TimeDelay(delays) by default); "kernel_lift", identity only,
# which the fit replaces with its KernelLift.
_KINDS = {
    "dmd": ("edmd", False, None),
    "edmd": ("edmd", False, None),
    "hdmd": ("edmd", False, "time_delay"),
    "kdmd": ("kdmd", False, "kernel_lift"),
    "dmdc": ("edmdc", True, None),
    "edmdc": ("edmdc", True, None),
    "hdmdc": ("edmdc", True, "time_delay"),
}
# snapshot pairs scored per block by _consistency_scores; at N = 102 lifted
# features, 112 score rows and m = 100k pairs (2-CPU VM, best of five, two
# passes) blocks of 2,500 scored in 0.18-0.19 s, of 5,000 in 0.19-0.20 s,
# of 10,000 in 0.20-0.21 s and of 20,000 in 0.20-0.22 s
SCORE_CHUNK = 5_000


@dataclass(frozen=True)
class RegressorConfig:
    """Which operator fit to run and with what reduction parameters."""

    kind: str = "edmd"
    rank: object = None  # int cap or float relative cutoff
    rank_in: object = None  # controlled fits: SVD rank of the stacked input
    rank_out: object = None  # controlled fits: output-side compression
    delays: int = 0  # hdmd / hdmdc
    kernel: Optional[KernelConfig] = None  # kdmd

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(
                f"unknown regressor kind {self.kind!r}; choose from {tuple(_KINDS)}"
            )
        regression, controlled, library = _KINDS[self.kind]
        object.__setattr__(self, "delays", check_int(self.delays, "delays", 0))
        if self.delays > 0 and library != "time_delay":
            raise ConfigError(f"delays only applies to hdmd/hdmdc, not {self.kind}")
        if self.kernel is not None and regression != "kdmd":
            raise ConfigError(f"a kernel only applies to kdmd, not {self.kind}")
        if self.rank is not None and controlled:
            raise ConfigError(f"{self.kind} uses rank_in/rank_out, not rank")
        if (self.rank_in is not None or self.rank_out is not None) and not controlled:
            raise ConfigError(f"rank_in/rank_out only apply to controlled kinds, "
                              f"not {self.kind}")
        # parsed as the regressions parse them, so a bad rank fails before lifting
        _parse_rank(self.rank, cutoff=regression != "kdmd")
        _parse_rank(self.rank_in, "rank_in")
        _parse_rank(self.rank_out, "rank_out")
        if regression == "kdmd" and self.kernel is None:
            object.__setattr__(self, "kernel", KernelConfig())


@dataclass
class ModeTable:
    """Per-mode spectral records, sorted in eigenvalue order."""

    lambdas: np.ndarray  # (r,)
    mus: np.ndarray  # (r,)
    modes: np.ndarray  # (n, r) complex state-space mode vectors
    amplitudes: np.ndarray  # (r,) eigenfunction values at the first training snapshot
    scores: np.ndarray  # (r,) linearity-consistency scores on the training data

    def __len__(self) -> int:
        return self.lambdas.shape[0]

    def as_rows(self) -> list:
        return [
            {
                "lambda": complex(self.lambdas[j]),
                "mu": complex(self.mus[j]),
                "mode": self.modes[:, j].copy(),
                "amplitude": complex(self.amplitudes[j]),
                "score": float(self.scores[j]),
            }
            for j in range(len(self))
        ]


def _real_rows(C, complex_data, n_real=0):
    """A real matrix whose rows give [Re(C z); Im(C z)], applied to z, or,
    when z is complex, to its float view (Re z_0, Im z_0, Re z_1, ...). For
    a real z the imaginary rows of the last n_real rows of C, which are
    zero, are left out."""
    if complex_data:
        rows = np.block([[C.real, -C.imag], [C.imag, C.real]])
        return rows.reshape(-1, 2, C.shape[1]).swapaxes(1, 2).reshape(rows.shape)
    return np.vstack([C.real, C.imag[:C.shape[0] - n_real]])


def _phi_block(rows, pieces, part, out):
    """rows applied to part `part` (0 for X, 2 for X') of one block's pairs,
    given as its pieces (`data.pair_blocks`), into the (rows, width) `out`.
    Each piece is multiplied where it lies, into its columns of `out`, a
    complex one through its float view (copied first only where its rows
    are not contiguous, as `SnapshotPairs.from_columns` views are)."""
    o = 0
    for piece in pieces:
        Z = piece[part]
        if Z.dtype.kind == "c":
            Z = np.ascontiguousarray(Z).view(float)
        e = o + Z.shape[0]
        np.matmul(rows, Z.T, out=out[:, o:e])
        o = e


def _consistency_scores(regression: RegressionResult, pairs):
    """Per-mode ||phi_j(X') - lambda_j phi_j(X)|| / ||phi_j(X)|| with NaN sentinel,
    over lifted snapshot pairs; phi_j(z) = w_j^H z with w_j a left eigenvector.

    One block of SCORE_CHUNK pairs at a time, one real matrix of rows gives
    the real and imaginary parts of phi_j on X and on X' (acting on the real
    and imaginary parts of complex pairs); the squared norms of phi_j(X) and
    of the residual are summed over the blocks. The blocks are those of
    `data.pair_blocks`, and no pair is copied to score it: each
    trajectory piece of a block is multiplied where it lies, into its
    columns of two (rows, SCORE_CHUNK) buffers that the pass allocates once,
    a complex piece through its float view. A block of one piece has the
    bits of its copy; for a block that straddles trajectories, a BLAS may
    round a column otherwise by where it sits in the product (OpenBLAS's edge
    kernels can, in the last bits), though on the four benchmark workloads
    every score keeps the bits of copied blocks. The rows are built in the
    real basis of the spectrum: on real pairs a mode whose lambda_j and w_j
    are the exact conjugates of the mode before it gives the conjugate of its
    partner's phi, so it is not scored and takes its partner's score, and a
    mode with a real lambda_j and a real w_j has no imaginary row. The rows
    are the real rows of the complex modes, those of the real modes, then
    the imaginary rows of the complex modes; complex pairs score every mode
    as complex, on their float view. kdmd's complex pairs meet only its
    identity eigenvectors, so each of their sums has one nonzero term, whose
    bits no order of summation moves. lambda_j is applied after the sum
    w_j^H z, as complex arithmetic would: folding it into the rows first rounds lambda_j w_j
    before the cancellation in that sum, which costs accuracy when the w_j
    are large. Pairs holding NaN or inf, in X, X' or an input, raise
    DataError; a mode whose sums overflow on finite pairs scores NaN with a
    finding. ``pairs`` is any pair type, a `SnapshotPairs` (kdmd's
    eigenfunction-lifted training pairs) or a `PairStream`: the pass reads
    them through `block_pieces` alone, and calls their `refuse_non_finite`
    only on its error paths.
    Returns (scores, findings)."""
    blocks = pairs.block_pieces(SCORE_CHUNK)
    pieces = next(blocks)  # the first block sets the pass's width and arithmetic
    lambdas, W = regression.eigensystem.lambdas, regression.eigensystem.W_left
    r = lambdas.shape[0]
    complex_data = pieces[0][0].dtype.kind == "c"
    twin = real = np.zeros(r, dtype=bool)
    if not complex_data:
        twin = _kernels.conjugate_copies(np.vstack([lambdas, W]))
        real = ~twin & (lambdas.imag == 0) & ~W.imag.any(axis=0)
    kept = np.concatenate([np.flatnonzero(~twin & ~real), np.flatnonzero(real)])
    k = kept.shape[0]  # rows [:c] and [k:] are complex modes', [c:k] real modes'
    c = k - int(real.sum())
    rows = _real_rows(W[:, kept].conj().T, complex_data, k - c)
    lr, li = lambdas.real[kept, None], lambdas.imag[kept[:c], None]
    num = np.zeros(k + c)
    den = np.zeros(k + c)
    # the pass's buffers, allocated once: phi on X' and on X of a block, and
    # two scratch rows per complex mode for its residual
    width = sum(X.shape[0] for X, _, _ in pieces)
    P, Q = np.empty((k + c, width)), np.empty((k + c, width))
    S1, S2 = np.empty((c, width)), np.empty((c, width))
    # NaN or inf pairs make the sums NaN, which the check below refuses; an
    # overflow of finite pairs still warns, and a sum it leaves NaN or inf
    # scores NaN with a finding
    with np.errstate(invalid="ignore"):
        while pieces is not None:
            # the pass reads no input, so a non-finite one is looked for here,
            # in the block's input rows only
            if any(u is not None and not np.isfinite(u).all() for _, u, _ in pieces):
                pairs.refuse_non_finite()
            w = sum(p[0].shape[0] for p in pieces)
            Pw, Qw, T1, T2 = P[:, :w], Q[:, :w], S1[:, :w], S2[:, :w]
            _phi_block(rows, pieces, 2, Pw)  # [Re; Im] phi(X')
            _phi_block(rows, pieces, 0, Qw)  # [Re; Im] phi(X)
            den += np.einsum("ij,ij->i", Qw, Qw)
            # P -= lambda phi(X): lr Re - li Im and lr Im + li Re for the
            # complex modes, lr phi for the real ones, each product rounded as
            # written, in the scratch rows, so no block-sized temporary
            np.multiply(lr[:c], Qw[:c], out=T1)
            T1 -= np.multiply(li, Qw[k:], out=T2)
            Pw[:c] -= T1
            np.multiply(lr[:c], Qw[k:], out=T1)
            T1 += np.multiply(li, Qw[:c], out=T2)
            Pw[k:] -= T1
            Qw[c:k] *= lr[c:]
            Pw[c:k] -= Qw[c:k]
            num += np.einsum("ij,ij->i", Pw, Pw)
            pieces = next(blocks, None)
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        pairs.refuse_non_finite()  # only now are the pairs searched
    num[:c] += num[k:]
    den[:c] += den[k:]
    # row i of the sums scores mode kept[i]; a twin reads its partner's row
    src = np.empty(r, dtype=np.intp)
    src[kept] = np.arange(k)
    src[twin] = src[np.flatnonzero(twin) - 1]
    num, den = num[src], den[src]
    overflow = ~(np.isfinite(num) & np.isfinite(den))
    scores = np.empty(r)
    findings = []
    for j in range(r):
        if overflow[j]:
            scores[j] = np.nan
            findings.append(Finding("score-overflow", message=(
                f"mode {j}: the squared eigenfunction values overflow; score undefined")))
        elif den[j] == 0.0:
            scores[j] = np.nan
            findings.append(Finding("vanishing-eigenfunction", message=(
                f"mode {j}: eigenfunction vanishes on the data; score undefined")))
        else:
            scores[j] = np.sqrt(num[j]) / np.sqrt(den[j])
    return scores, findings


@dataclass(frozen=True, eq=False, repr=False)
class KoopmanModel(_FrozenRecord):
    """A fitted lifted-linear model; read-only after fit.

    predict composes reconstruction, operator, and lifting with no hidden
    recentering; simulate iterates the operator in lifted space. Both take
    the real part of any complex result and change nothing on the model.
    Attributes cannot be rebound, nor can those of the sealed
    ``observables``. Each fitted fact has one home: ``A``, ``B``, the
    spectrum, the rank and the residuals are those of the frozen
    ``regression`` record, ``n`` is the library's input dimension and ``q``
    the width of ``B``; ``z0_train`` and ``training_scores`` are read-only
    arrays; ``findings`` is a tuple of `Finding` records from the fit, the
    one copy the model holds, so the findings of ``regression``, its
    eigensystem and ``C`` are empty.
    """

    observables: Observable
    regression: RegressionResult
    C: ReconstructionMap
    dt: float
    regressor: str  # the kind, one of _KINDS
    findings: tuple
    z0_train: np.ndarray
    training_scores: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.observables.seal()

    # -- basic properties ----------------------------------------------------
    @property
    def controlled(self) -> bool:
        return self.regression.B is not None

    @property
    def A(self) -> np.ndarray:
        return self.regression.A

    @property
    def B(self) -> Optional[np.ndarray]:
        return self.regression.B

    @property
    def n(self) -> int:
        return self.observables.n_input

    @property
    def q(self) -> int:
        return 0 if self.B is None else self.B.shape[1]

    @property
    def metadata(self) -> Mapping:
        """The model file's metadata block, read-only and assembled from the
        homes of its facts."""
        res = self.regression
        return MappingProxyType({
            "m": res.m,
            "rank": res.rank,
            "residual": res.residual_rel,
            "residual_fro": res.residual_fro,
            "sigma_min": res.sigma_min,
            "n_features": self.A.shape[0],
            "regressor": self.regressor,
            "findings": self.findings,
        })

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.regression.eigensystem.lambdas

    def continuous_eigenvalues(self) -> np.ndarray:
        """ln(lambda)/dt on the principal branch, derived from the eigenvalues
        and the sample interval; see the findings for zero or negative-real
        eigenvalues."""
        return continuous_eigenvalues(self.eigenvalues, self.dt)

    # -- lifting helpers -------------------------------------------------------
    def _lift_state(self, x) -> np.ndarray:
        z = self.observables.lift(np.asarray(x, dtype=float))
        return np.asarray(z, dtype=self.A.dtype)

    def _current_state(self, x, z) -> np.ndarray:
        if isinstance(self.observables, TimeDelay):
            return np.asarray(z[: self.n], dtype=float).copy()
        return np.asarray(x, dtype=float).reshape(-1).copy()

    def _check_inputs(self, U, n_steps: int) -> Optional[np.ndarray]:
        if not self.controlled:
            if U is not None:
                raise DataError("model is unforced; got unexpected inputs")
            return None
        if U is None:
            raise DataError(f"model is controlled; provide inputs with {self.q} channel(s)")
        U = np.asarray(U, dtype=float)
        if U.ndim == 1:
            U = U[None, :] if self.q == 1 else U[:, None]
        if U.shape != (self.q, n_steps):
            raise DataError(
                f"inputs must have shape ({self.q}, {n_steps}), got {U.shape}"
            )
        if not np.isfinite(U).all():
            k = int(np.argmin(np.isfinite(U).all(axis=0)))
            raise DataError(f"input at step {k} holds a non-finite value (NaN or inf)")
        return np.ascontiguousarray(U.astype(self.A.dtype, copy=False))

    # -- prediction -----------------------------------------------------------
    def predict(self, x, u=None) -> np.ndarray:
        """Advance a state by one sample interval: C (A Phi(x) + B u).

        The state and input are not checked for NaN or inf (a NaN in gives
        NaN out): the check would add about a third to a one-state predict,
        which serves many short queries; simulate checks its start.
        """
        z0 = self._lift_state(x)
        if self.controlled:
            if u is None:
                raise DataError(f"model is controlled; provide u with {self.q} channel(s)")
            uvec = np.asarray(u, dtype=float).reshape(-1)
            if uvec.shape[0] != self.q:
                raise DataError(f"u must have {self.q} channel(s), got {uvec.shape[0]}")
            z1 = self.A @ z0 + self.B @ uvec.astype(self.A.dtype, copy=False)
        else:
            if u is not None:
                raise DataError("model is unforced; got unexpected input u")
            z1 = self.A @ z0
        return np.ascontiguousarray(self.C.apply_cols(z1).real)

    def simulate(self, x0, n_steps: int, U=None) -> np.ndarray:
        """Roll the model forward in lifted space; returns n_steps + 1 states.

        The first row is the initial state. For time-delay observables, x0 is
        a (d+1, n) window of consecutive states (oldest first) or an already
        embedded vector; the returned rows are plain n-dimensional states.
        A NaN or inf in x0 (anywhere in a window) or in U raises DataError.
        The operator is iterated by `_kernels.iterate_linear`: a diagonal A,
        as kdmd's, by one cumulative product.
        """
        n_steps = check_int(n_steps, "n_steps", 0, error=DataError)
        x0 = np.asarray(x0, dtype=float)
        if not np.isfinite(x0).all():
            raise DataError("initial state holds a non-finite value (NaN or inf)")
        z0 = self._lift_state(x0)
        x0_state = self._current_state(x0, z0)
        Uc = self._check_inputs(U, n_steps)
        if n_steps == 0:
            return x0_state[None, :]
        if Uc is not None:
            Z = _kernels.iterate_linear_controlled(self.A, self.B, z0, Uc)
        else:
            Z = _kernels.iterate_linear(self.A, z0, n_steps)
        states = self.C.apply_cols(Z[1:].T).T.real
        return np.vstack([x0_state[None, :], states])

    # -- spectral analytics -----------------------------------------------------
    def eigenfunctions(self, x) -> np.ndarray:
        """Fitted eigenfunction values phi_j(x), one complex value per mode."""
        z = self._lift_state(x)
        return self.regression.eigensystem.W_left.conj().T @ z

    def eigenfunctions_rows(self, X) -> np.ndarray:
        """Eigenfunction values for a batch of states: (m, n) -> (m, r)."""
        X = np.asarray(X, dtype=float)
        Z = self.observables.lift_rows(X)
        return Z @ self.regression.eigensystem.W_left.conj()

    def koopman_modes(self, exact: Optional[bool] = None) -> ModeTable:
        """State-space mode vectors v_j = C w_j with amplitudes phi_j(x0).

        ``exact`` selects SVD-exact modes (default where the regression
        provides them) versus projected eigenvectors.
        """
        W = self.regression.reported_modes(exact)
        modes = self.C.apply_cols(W)
        amplitudes = self.regression.eigensystem.W_left.conj().T @ self.z0_train
        return ModeTable(
            lambdas=self.eigenvalues.copy(),
            mus=self.continuous_eigenvalues().copy(),
            modes=modes,
            amplitudes=amplitudes,
            scores=self.training_scores.copy(),
        )

    def linearity_consistency(self, data: TrajectoryDataset):
        """Per-mode eigenfunction residuals over a dataset's snapshot pairs.

        Returns (scores, findings); 0 marks a perfect Koopman eigenfunction,
        NaN marks an eigenfunction that vanishes on the data. The pairs are
        scored as a `PairStream`: each block's pieces are lifted when the
        score pass reaches the block, so the pass holds one block's lifted
        rows, whatever the trajectories' lengths, never the lifted dataset,
        and it scores the blocks that `fit` scored on the same data, bit for
        bit. A dataset whose input channels are not the model's q (an
        unforced model's 0) is refused with DataError before any lift.
        """
        if data.n_inputs != self.q:
            raise DataError(f"dataset carries {data.n_inputs} input channel(s), "
                            f"but the model takes {self.q}")
        return _consistency_scores(self.regression, PairStream(data, self.observables))


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _stage(label: str, exc: KoopliftError) -> KoopliftError:
    return type(exc)(f"{label} stage: {exc}")


def _resolve_library(observables, config: RegressorConfig) -> Observable:
    """The library a kind fits on, by the library of its _KINDS entry."""
    lib = observables if observables is not None else Identity()
    if not isinstance(lib, Observable):
        raise ConfigError(f"observables must be an Observable, got {type(lib).__name__}")
    held = _KINDS[config.kind][2]
    if held is None:
        return lib
    if isinstance(lib, Identity):
        return TimeDelay(config.delays) if held == "time_delay" else lib
    if held == "kernel_lift" or not isinstance(lib, TimeDelay):
        allowed = "identity or time_delay" if held == "time_delay" else "identity"
        raise ConfigError(f"{config.kind} takes {allowed} observables, got {lib.kind}")
    if 0 < config.delays != lib.delays:
        raise ConfigError(f"delays={config.delays} conflicts with TimeDelay({lib.delays})")
    return lib


def fit(observables, regressor, data: TrajectoryDataset) -> KoopmanModel:
    """Fit a Koopman model: lift snapshot pairs and regress the operator.

    ``observables`` is an Observable library (None means identity);
    ``regressor`` is a RegressorConfig or a kind string.

    Every kind passes its regression one `PairStream` of the training data.
    The explicit fits lift the training pairs a block at a time: once in the
    TSQR (`regression._pair_factor`), whose two lanes each lift the rows of
    their own blocks, on two threads at once (see `Observable`), and once
    more in the score pass, as `linearity_consistency` lifts them, so the
    training scores are validation's bits. Each holds one block's lifted
    rows per lane, whatever the trajectories' lengths. kdmd reads the raw
    states from its stream and returns the pairs lifted through its
    eigenfunctions, which its score pass reads. Where the reconstruction is
    fitted (a library with no state columns, or kdmd's), the lifted X is
    copied into one array by `stacked`, a block at a time (an explicit
    fit's library lifts it a third time), beside the raw states of
    `build_snapshot_pairs(data)`; the first pair is lifted once more for
    ``z0_train``.

    Errors from the submodules are re-raised with a stage label (lifting /
    regression / reconstruction). A trajectory too short to lift is refused
    in the lifting stage; a library's own failure to lift a trajectory
    surfaces where the lift runs, in the regression.
    """
    if isinstance(regressor, str):
        regressor = RegressorConfig(kind=regressor)
    q = data.n_inputs
    regression, controlled, _ = _KINDS[regressor.kind]
    if controlled and q == 0:
        raise ConfigError(f"{regressor.kind} requires input data, dataset has none")
    if not controlled and q > 0:
        raise ConfigError(
            f"dataset carries inputs but {regressor.kind} is unforced; "
            "use dmdc/edmdc/hdmdc"
        )
    # a private copy: the caller's library is neither bound nor prepared here
    library = copy.deepcopy(_resolve_library(observables, regressor))

    # lifting: every kind reads its pairs as a stream, lifted where a pass
    # reads them; a trajectory too short to lift is refused here
    try:
        library.bind(data.n_states)
        library.prepare(np.vstack(data.trajectories))
        pairs = PairStream(data, library)
    except KoopliftError as exc:
        raise _stage("lifting", exc) from exc

    # regression
    try:
        # called by their module-global names, which a tracer may have wrapped
        if regression == "kdmd":
            res = fit_kdmd(pairs, kernel=regressor.kernel, rank=regressor.rank)
        elif regression == "edmdc":
            res = fit_edmdc(pairs, rank_in=regressor.rank_in, rank_out=regressor.rank_out)
        else:
            res = fit_edmd(pairs, rank=regressor.rank)
    except KoopliftError as exc:
        raise _stage("regression", exc) from exc
    X_state = None
    if regression == "kdmd":
        # the model lifts through the fitted eigenfunctions from here on, and
        # fit_kdmd lifted the training pairs through them from its Gram rows;
        # the raw states are the centers and the fitted reconstruction's
        X_state = build_snapshot_pairs(data).stacked("X", SCORE_CHUNK)
        library = KernelLift(regressor.kernel, X_state, res.kernel_alpha)
        pairs = res.kernel_pairs

    # reconstruction: the lifted X and the raw states are read, all at once,
    # only where it is fitted, each copied into one array a block at a time
    try:
        Z = None
        if library.state_indices is None:
            Z = pairs.stacked("X", SCORE_CHUNK).T
            if X_state is None:
                X_state = build_snapshot_pairs(data).stacked("X", SCORE_CHUNK)
        C = fit_reconstruction(library, Z, None if X_state is None else X_state.T)
    except KoopliftError as exc:
        raise _stage("reconstruction", exc) from exc
    del Z  # not held through the score pass

    # an explicit fit's scores lift the stream again, a block at a time, as
    # linearity_consistency does, so they are its bits
    scores, score_findings = _consistency_scores(res, pairs)
    first_x = pairs.rows(0, 0, 1)[0]  # X row of the first pair
    # the model is the one home of the fit's findings, and its KernelLift that
    # of kdmd's coefficients; the records keep neither
    eig = res.eigensystem
    findings = (*res.findings, *eig.findings, *C.findings, *score_findings)
    res = replace(res, eigensystem=replace(eig, findings=()), findings=(),
                  kernel_alpha=None, kernel_pairs=None)
    return KoopmanModel(
        observables=library, regression=res, C=replace(C, findings=()), dt=data.dt,
        regressor=regressor.kind, findings=findings,
        z0_train=first_x[0].astype(res.A.dtype), training_scores=scores,
    )
