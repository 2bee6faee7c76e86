"""The user-facing model: observables composed with a fitted operator.

`fit` lifts each training trajectory once into snapshot pairs, runs the
configured regression, fits the state reconstruction on the lifted pairs,
and assembles an immutable KoopmanModel exposing prediction, simulation,
spectral analytics, and validation scores. Kernel regression is one more
regressor: it returns its own eigenfunction lift, through which the pairs
are lifted once more, and from there every kind runs the same code.

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
    SnapshotPairs,
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
    _check_finite,
    _parse_rank,
    fit_edmd,
    fit_edmdc,
    fit_kdmd,
)

__all__ = ["RegressorConfig", "KoopmanModel", "ModeTable", "fit"]

# kind -> (regression, controlled, library rule). The regression is fit_edmd,
# fit_edmdc or fit_kdmd; the kind is only a label on the model.
# Library rules: "any" (identity by default), "time_delay" (identity or
# TimeDelay; TimeDelay(delays) by default), "identity" (identity only).
_KINDS = {
    "dmd": ("edmd", False, "any"),
    "edmd": ("edmd", False, "any"),
    "hdmd": ("edmd", False, "time_delay"),
    "kdmd": ("kdmd", False, "identity"),
    "dmdc": ("edmdc", True, "any"),
    "edmdc": ("edmdc", True, "any"),
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
        regression, controlled, library_rule = _KINDS[self.kind]
        object.__setattr__(self, "delays", check_int(self.delays, "delays", 0))
        if self.delays > 0 and library_rule != "time_delay":
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
    """A real matrix whose rows give [Re(C z); Im(C z)], applied to z, or to
    [Re z; Im z] when z is complex. For a real z the imaginary rows of the
    last n_real rows of C, which are zero, are left out."""
    if complex_data:
        return np.block([[C.real, -C.imag], [C.imag, C.real]])
    return np.vstack([C.real, C.imag[:C.shape[0] - n_real]])


def _real_parts(Z):
    return np.vstack([Z.real, Z.imag]) if np.iscomplexobj(Z) else Z


def _consistency_scores(regression: RegressionResult, pairs: SnapshotPairs):
    """Per-mode ||phi_j(X') - lambda_j phi_j(X)|| / ||phi_j(X)|| with NaN sentinel,
    over lifted snapshot pairs; phi_j(z) = w_j^H z with w_j a left eigenvector.

    One block of SCORE_CHUNK pairs at a time, one real matrix of rows gives
    the real and imaginary parts of phi_j on X and on X' (acting on the real
    and imaginary parts of complex pairs); the squared norms of phi_j(X) and
    of the residual are summed over the blocks. The rows are built in the
    real basis of the spectrum: on real pairs a mode whose lambda_j and w_j
    are the exact conjugates of the mode before it gives the conjugate of its
    partner's phi, so it is not scored and takes its partner's score, and a
    mode with a real lambda_j and a real w_j has no imaginary row. The rows
    are the real rows of the complex modes, those of the real modes, then
    the imaginary rows of the complex modes; complex pairs score every mode
    as complex. lambda_j is applied after the sum w_j^H z, as complex
    arithmetic would: folding it into the rows first rounds lambda_j w_j
    before the cancellation in that sum, which costs accuracy when the w_j
    are large. Pairs holding NaN or inf raise DataError; a mode whose sums
    overflow on finite pairs scores NaN with a finding.
    Returns (scores, findings)."""
    lambdas, W = regression.eigensystem.lambdas, regression.eigensystem.W_left
    r = lambdas.shape[0]
    complex_data = pairs.dtype.kind == "c"
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
    # NaN or inf pairs make the sums NaN, which the check below refuses; an
    # overflow of finite pairs still warns, and a sum it leaves NaN or inf
    # scores NaN with a finding
    with np.errstate(invalid="ignore"):
        for X, _, Xp in pairs.blocks(SCORE_CHUNK):
            P = rows @ _real_parts(Xp.T)  # [Re; Im] phi(X')
            Q = rows @ _real_parts(X.T)  # [Re; Im] phi(X)
            den += np.einsum("ij,ij->i", Q, Q)
            P[:c] -= lr[:c] * Q[:c] - li * Q[k:]
            P[c:k] -= lr[c:] * Q[c:k]
            P[k:] -= lr[:c] * Q[k:] + li * Q[:c]
            num += np.einsum("ij,ij->i", P, P)
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        first = 0  # only now are the pairs searched for a NaN or an inf
        for X, _, Xp in pairs.blocks(SCORE_CHUNK):
            _check_finite(np.hstack([X, Xp]), first)
            first += X.shape[0]
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
        """ln(lambda)/dt on the principal branch; see the findings for zero
        or negative-real eigenvalues."""
        return self.regression.eigensystem.mus

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
        return np.ascontiguousarray(self.C.apply_vec(z1).real)

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
        Uc = self._check_inputs(U, n_steps) if (U is not None or self.controlled) else None
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
        NaN marks an eigenfunction that vanishes on the data.
        """
        pairs = build_snapshot_pairs(data, self.observables)
        return _consistency_scores(self.regression, pairs)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _stage(label: str, exc: KoopliftError) -> KoopliftError:
    return type(exc)(f"{label} stage: {exc}")


def _resolve_library(observables, config: RegressorConfig) -> Observable:
    """The library a kind fits on, by the library rule of its _KINDS entry."""
    lib = observables if observables is not None else Identity()
    if not isinstance(lib, Observable):
        raise ConfigError(f"observables must be an Observable, got {type(lib).__name__}")
    rule = _KINDS[config.kind][2]
    if rule == "any":
        return lib
    if isinstance(lib, Identity):
        return TimeDelay(config.delays) if rule == "time_delay" else lib
    if rule == "identity" or not isinstance(lib, TimeDelay):
        allowed = "identity or time_delay" if rule == "time_delay" else "identity"
        raise ConfigError(f"{config.kind} takes {allowed} observables, got {lib.kind}")
    if 0 < config.delays != lib.delays:
        raise ConfigError(f"delays={config.delays} conflicts with TimeDelay({lib.delays})")
    return lib


def fit(observables, regressor, data: TrajectoryDataset) -> KoopmanModel:
    """Fit a Koopman model: lift snapshot pairs and regress the operator.

    ``observables`` is an Observable library (None means identity);
    ``regressor`` is a RegressorConfig or a kind string. Errors from the
    submodules are re-raised with a stage label (lifting / regression /
    reconstruction).
    """
    if isinstance(regressor, str):
        regressor = RegressorConfig(kind=regressor)
    if not data.trajectories:
        raise DataError("no trajectories")
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

    # lifting
    try:
        library.bind(data.n_states)
        library.prepare(np.vstack(data.trajectories))
        pairs = build_snapshot_pairs(data, library)
    except KoopliftError as exc:
        raise _stage("lifting", exc) from exc

    # regression
    try:
        # called by their module-global names, which a tracer may have wrapped
        if regression == "kdmd":
            res = fit_kdmd(pairs, kernel=regressor.kernel, rank=regressor.rank, dt=data.dt)
        elif regression == "edmdc":
            res = fit_edmdc(pairs, rank_in=regressor.rank_in, rank_out=regressor.rank_out,
                            dt=data.dt)
        else:
            res = fit_edmd(pairs, rank=regressor.rank, dt=data.dt)
    except KoopliftError as exc:
        raise _stage("regression", exc) from exc
    X_state = None
    if regression == "kdmd":
        # the model lifts through the fitted eigenfunctions from here on; the
        # rows of X are its centers and the fitted reconstruction's raw states
        X_state = pairs.stacked("X")
        library = KernelLift(regressor.kernel, X_state, res.kernel_alpha)
        pairs = build_snapshot_pairs(data, library)

    # reconstruction: the lifted pairs and raw states are read, all at once,
    # only where it is fitted
    try:
        Z = None
        if library.state_indices is None:
            Z = pairs.stacked("X").T
            if X_state is None:
                X_state = build_snapshot_pairs(data).stacked("X")
        C = fit_reconstruction(library, Z, None if X_state is None else X_state.T)
    except KoopliftError as exc:
        raise _stage("reconstruction", exc) from exc

    scores, score_findings = _consistency_scores(res, pairs)
    first_x = pairs.segments[0][0]  # X rows of the first trajectory
    # the model is the one home of the fit's findings, and its KernelLift that
    # of kdmd's coefficients; the records keep neither
    eig = res.eigensystem
    findings = (*res.findings, *eig.findings, *C.findings, *score_findings)
    res = replace(res, eigensystem=replace(eig, findings=()), findings=(),
                  kernel_alpha=None)
    return KoopmanModel(
        observables=library, regression=res, C=replace(C, findings=()), dt=data.dt,
        regressor=regressor.kind, findings=findings,
        z0_train=first_x[0].astype(res.A.dtype), training_scores=scores,
    )
