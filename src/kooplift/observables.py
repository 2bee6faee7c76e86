"""Observable libraries: lifting maps from state space into feature space.

Every library maps an n-dimensional state to an N-dimensional lifted vector
and knows how to get back: libraries that embed the state verbatim carry the
embedding indices (exact reconstruction), the rest fall back to a fitted
linear reconstruction map.

Every array a library holds is read-only, and a fitted model seals its
library, after which no attribute can be rebound (a deep copy is unsealed).
Lifting the same input twice yields bit-identical output, with any
randomness fixed by a stored seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels
from .data import Finding, _freeze, _FrozenRecord
from .errors import (ConfigError, DataError, call_with_options, check_bool, check_int,
                     check_real, model_array)
from .regression import KernelConfig

__all__ = [
    "Observable",
    "Identity",
    "Polynomial",
    "TimeDelay",
    "RadialBasis",
    "RandomFourier",
    "Custom",
    "Concat",
    "KernelLift",
    "ReconstructionMap",
    "fit_reconstruction",
    "observable_from_config",
]


def _frozen(value):
    if isinstance(value, np.ndarray):
        return _freeze(value)
    if isinstance(value, tuple):
        return tuple(_frozen(v) for v in value)
    return value


class Observable:
    """Base class for lifting maps."""

    kind: str = "base"

    def __init__(self):
        self.n_input: Optional[int] = None

    def __setattr__(self, name, value):
        if self.__dict__.get("_sealed"):
            raise AttributeError(f"{self.kind} library is sealed; cannot set {name!r}")
        # arrays, also inside tuples, are stored as read-only copies, so set-up
        # data cannot drift
        super().__setattr__(name, _frozen(value))

    def __setstate__(self, state):
        # copies (copy.deepcopy, pickle) store their arrays read-only too, and
        # start unsealed, so a fitted library can be fitted again
        for name, value in state.items():
            if name != "_sealed":
                setattr(self, name, value)

    def seal(self) -> None:
        """Forbid rebinding any attribute from now on; done by KoopmanModel."""
        object.__setattr__(self, "_sealed", True)

    # -- binding ------------------------------------------------------------
    def bind(self, n_input: int) -> "Observable":
        """Fix the input dimension; idempotent, errors on a conflicting rebind."""
        n_input = check_int(n_input, "n_input", 1)
        if self.n_input is not None:
            if self.n_input != n_input:
                raise ConfigError(
                    f"{self.kind} library already bound to n={self.n_input}, "
                    f"cannot rebind to n={n_input}"
                )
            return self
        self.n_input = n_input
        self._on_bind()
        return self

    def _on_bind(self):
        pass

    def prepare(self, X_rows: np.ndarray) -> None:
        """Data-dependent setup hook (e.g. drawing centers); default no-op."""

    def _require_bound(self):
        if self.n_input is None:
            raise ConfigError(f"{self.kind} library is not bound to an input dimension")

    def _rows(self, X, width: Optional[int] = None) -> np.ndarray:
        """A batch of rows as a float (m, width) array, width n by default;
        another rank or width is refused."""
        self._require_bound()
        width = self.n_input if width is None else width
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DataError(f"expected a 2-d array of rows, got shape {X.shape}")
        if X.shape[1] != width:
            raise DataError(f"expected {width} columns, got {X.shape[1]}")
        return X

    # -- lifting ------------------------------------------------------------
    @property
    def n_output(self) -> int:
        raise NotImplementedError

    @property
    def state_indices(self) -> Optional[tuple]:
        """Lifted coordinates that equal the state verbatim, or None."""
        return None

    def lift_rows(self, X: np.ndarray) -> np.ndarray:
        """Lift a batch of states, one per row: (m, n) -> (m, N)."""
        raise NotImplementedError

    def lift_trajectory(self, traj: np.ndarray) -> np.ndarray:
        """Lift a time-ordered trajectory: (T, n) -> (T - warm-up, N).

        Consecutive output rows are consecutive lifted snapshots; only
        libraries that need past samples (time delays) consume a warm-up.
        """
        return self.lift_rows(traj)

    def lift(self, x) -> np.ndarray:
        """Lift a single state vector: (n,) -> (N,)."""
        x = np.asarray(x, dtype=float)
        self._require_bound()
        if x.shape != (self.n_input,):
            raise DataError(
                f"expected state of dimension {self.n_input}, got shape {x.shape}"
            )
        return self.lift_rows(x[None, :])[0]

    def config(self) -> dict:
        raise NotImplementedError


class Identity(Observable):
    """The trivial lift: z = x."""

    kind = "identity"

    @property
    def n_output(self) -> int:
        self._require_bound()
        return self.n_input

    @property
    def state_indices(self):
        self._require_bound()
        return tuple(range(self.n_input))

    def lift_rows(self, X):
        X = self._rows(X)
        return X.copy()

    def config(self):
        return {"kind": self.kind, "n_input": self.n_input}


class Polynomial(Observable):
    """All monomials of total degree 0..degree.

    Ordering is fixed so serialized models are portable: the constant term
    first, then degree by degree, and within a degree by exponent tuple with
    earlier coordinates taking higher powers first. For n=2, degree=2 this
    gives (1, x1, x2, x1^2, x1*x2, x2^2). The linear block sits at indices
    1..n, so reconstruction is an exact index selection.
    """

    kind = "polynomial"

    def __init__(self, degree: int):
        super().__init__()
        self.degree = check_int(degree, "polynomial degree", 1)
        self._exps: Optional[np.ndarray] = None

    def _on_bind(self):
        # the recurrence table is built once; lifting is one product per degree
        self._exps, self._steps = _kernels.monomial_table(self.n_input, self.degree)

    @property
    def exponents(self) -> np.ndarray:
        self._require_bound()
        return self._exps

    @property
    def n_output(self) -> int:
        self._require_bound()
        return self._exps.shape[0]

    @property
    def state_indices(self):
        self._require_bound()
        return tuple(range(1, self.n_input + 1))

    def lift_rows(self, X):
        X = self._rows(X)
        return _kernels.poly_features(X, self._steps)

    def config(self):
        return {"kind": self.kind, "n_input": self.n_input, "degree": self.degree}


class TimeDelay(Observable):
    """Delay embedding: stack the current state with its d predecessors.

    The lifted vector is [x_k; x_{k-1}; ...; x_{k-d}] (most recent first),
    so a trajectory of T samples yields T - d lifted snapshots; the earliest
    d samples are consumed as warm-up (no zero padding). Reconstruction
    selects the leading state block.
    """

    kind = "time_delay"

    def __init__(self, delays: int):
        super().__init__()
        self.delays = check_int(delays, "delays", 0)

    @property
    def n_output(self) -> int:
        self._require_bound()
        return self.n_input * (self.delays + 1)

    @property
    def state_indices(self):
        self._require_bound()
        return tuple(range(self.n_input))

    def lift_window(self, window: np.ndarray) -> np.ndarray:
        """Lift one window of d+1 consecutive states (rows in time order)."""
        self._require_bound()
        w = np.asarray(window, dtype=float)
        if w.ndim == 1:
            w = w.reshape(-1, self.n_input)
        if w.shape != (self.delays + 1, self.n_input):
            raise DataError(
                f"need a window of {self.delays + 1} states of dimension "
                f"{self.n_input}, got shape {w.shape}"
            )
        return w[::-1].reshape(-1).copy()

    def lift_trajectory(self, traj: np.ndarray) -> np.ndarray:
        """Embed a whole trajectory: (T, n) -> (T - d, n*(d+1)).

        The result is a read-only Hankel view of one time-reversed copy of
        the trajectory: row k is the window of d+1 states ending at sample
        k + d, most recent first, so its n*(d+1) entries are contiguous in
        the reversed copy, and consecutive rows step back n entries.
        """
        self._require_bound()
        traj = np.asarray(traj, dtype=float)
        T = traj.shape[0]
        d = self.delays
        if T < d + 1:
            raise DataError(
                f"trajectory with {T} samples is too short for {d} delays"
            )
        flat = np.ascontiguousarray(traj[::-1]).reshape(-1)
        windows = np.lib.stride_tricks.sliding_window_view(flat, self.n_output)
        return windows[:: self.n_input][::-1]

    def lift_rows(self, X):
        # rows are already embedded vectors; d = 0 behaves as identity
        return self._rows(X, self.n_output).copy()

    def lift(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return self.lift_window(x)
        if x.size == self.n_output:
            return x.copy()
        raise DataError(
            f"time-delay lift needs a (d+1, n) window or an embedded vector of "
            f"length {self.n_output}, got shape {x.shape}"
        )

    def config(self):
        return {"kind": self.kind, "n_input": self.n_input, "delays": self.delays}


class RadialBasis(Observable):
    """State plus radial features around a set of centers.

    The state is prepended so reconstruction stays exact. Centers are either
    given explicitly (k, n) or drawn uniformly (without replacement) from the
    training rows at fit time, fixed by `seed`.

    Args:
        rbf_kind: one of thinplate, gauss, invquad, invmultiquad, polyharmonic.
        centers: explicit (k, n) center matrix, or None to sample from data.
        n_centers: number of centers to sample when `centers` is None.
        shape_eps: shape parameter for the scaled kinds.
        seed: RNG seed for center sampling.
        ph_exp: exponent for the polyharmonic kind.
    """

    kind = "rbf"

    def __init__(
        self,
        rbf_kind: str = "thinplate",
        centers: Optional[np.ndarray] = None,
        n_centers: int = 10,
        shape_eps: float = 1.0,
        seed: int = 0,
        ph_exp: int = 3,
    ):
        super().__init__()
        if rbf_kind not in _kernels.RADIAL_KINDS:
            raise ConfigError(
                f"unknown rbf kind {rbf_kind!r}; choose from {sorted(_kernels.RADIAL_KINDS)}"
            )
        self.rbf_kind = rbf_kind
        self.shape_eps = check_real(shape_eps, "shape_eps", positive=True)
        self.seed = check_int(seed, "seed", 0)
        self.n_centers = check_int(n_centers, "n_centers", 1)
        self.ph_exp = check_int(ph_exp, "ph_exp", 1)
        self.centers = None if centers is None else np.asarray(centers, dtype=float)
        if self.centers is not None and self.centers.ndim != 2:
            raise ConfigError("centers must be a (k, n) matrix")

    def _on_bind(self):
        if self.centers is not None and self.centers.shape[1] != self.n_input:
            raise ConfigError(
                f"centers have dimension {self.centers.shape[1]}, state has "
                f"{self.n_input}"
            )

    def prepare(self, X_rows):
        if self.centers is not None:
            return
        m = X_rows.shape[0]
        if m < self.n_centers:
            raise DataError(
                f"cannot draw {self.n_centers} centers from {m} training rows"
            )
        rng = np.random.default_rng(self.seed)
        idx = rng.choice(m, size=self.n_centers, replace=False)
        self.centers = np.asarray(X_rows[np.sort(idx)], dtype=float)

    def _require_centers(self):
        if self.centers is None:
            raise ConfigError("rbf centers not set; call prepare() with training data")

    @property
    def n_output(self) -> int:
        self._require_bound()
        self._require_centers()
        return self.n_input + self.centers.shape[0]

    @property
    def state_indices(self):
        self._require_bound()
        return tuple(range(self.n_input))

    def lift_rows(self, X):
        X = self._rows(X)
        self._require_centers()
        feats = _kernels.rbf_features(X, self.centers, self.rbf_kind, self.shape_eps,
                                      self.ph_exp)
        return np.hstack([X, feats])

    def config(self):
        self._require_centers()
        return {
            "kind": self.kind,
            "n_input": self.n_input,
            "rbf_kind": self.rbf_kind,
            "shape_eps": self.shape_eps,
            "seed": self.seed,
            "ph_exp": self.ph_exp,
            "centers": self.centers.tolist(),
        }


class RandomFourier(Observable):
    """Random Fourier features sqrt(2/D) cos(w.x + b).

    Frequencies w are i.i.d. zero-mean Gaussian with covariance sigma^-2 I and
    phases b uniform on [0, 2pi), both drawn once from `seed` when the library
    is bound. With `include_state` the state is prepended (exact
    reconstruction); otherwise reconstruction is fitted by least squares.
    In expectation over draws, phi(x).phi(y) approximates the Gaussian kernel
    exp(-||x - y||^2 / (2 sigma^2)).
    """

    kind = "random_fourier"

    def __init__(
        self,
        n_features: int,
        sigma: float = 1.0,
        seed: int = 0,
        include_state: bool = True,
    ):
        super().__init__()
        self.n_features = check_int(n_features, "n_features", 1)
        self.sigma = check_real(sigma, "sigma", positive=True)
        self.seed = check_int(seed, "seed", 0)
        self.include_state = check_bool(include_state, "include_state")
        self.W: Optional[np.ndarray] = None
        self.b: Optional[np.ndarray] = None

    def _on_bind(self):
        rng = np.random.default_rng(self.seed)
        self.W = rng.normal(0.0, 1.0 / self.sigma, size=(self.n_input, self.n_features))
        self.b = rng.uniform(0.0, 2.0 * math.pi, size=self.n_features)

    @property
    def n_output(self) -> int:
        self._require_bound()
        return (self.n_input if self.include_state else 0) + self.n_features

    @property
    def state_indices(self):
        self._require_bound()
        if self.include_state:
            return tuple(range(self.n_input))
        return None

    def lift_rows(self, X):
        X = self._rows(X)
        feats = _kernels.rff_features(X, self.W, self.b)
        if self.include_state:
            return np.hstack([X, feats])
        return feats

    def config(self):
        self._require_bound()
        return {
            "kind": self.kind,
            "n_input": self.n_input,
            "n_features": self.n_features,
            "sigma": self.sigma,
            "seed": self.seed,
            "include_state": self.include_state,
            # realized draws stored so loading reproduces lifts bit-for-bit
            "W": self.W.tolist(),
            "b": self.b.tolist(),
        }


class Custom(Observable):
    """State plus user-supplied scalar- or vector-valued functions of it.

    Output dimensions are probed once at bind time by evaluating each
    function at the origin. An empty function list reduces to the identity.
    Custom libraries cannot be serialized.
    """

    kind = "custom"

    def __init__(self, functions: Sequence[Callable]):
        super().__init__()
        self.functions = tuple(functions)
        self._dims: Optional[tuple] = None

    def _on_bind(self):
        probe = np.ones(self.n_input)
        dims = []
        for i, f in enumerate(self.functions):
            try:
                out = np.atleast_1d(np.asarray(f(probe), dtype=float))
            except Exception as exc:
                raise ConfigError(f"custom function {i} failed on probe input: {exc}")
            if out.ndim != 1 or out.size < 1:
                raise ConfigError(f"custom function {i} must return a 1-d value")
            dims.append(out.size)
        self._dims = tuple(dims)

    @property
    def n_output(self) -> int:
        self._require_bound()
        return self.n_input + sum(self._dims)

    @property
    def state_indices(self):
        self._require_bound()
        return tuple(range(self.n_input))

    def lift_rows(self, X):
        X = self._rows(X)
        blocks = [X.copy()]
        for i, f in enumerate(self.functions):
            vals = np.array([np.atleast_1d(f(row)) for row in X], dtype=float)
            if vals.shape[1] != self._dims[i]:
                raise DataError(
                    f"custom function {i} changed output dimension "
                    f"({self._dims[i]} -> {vals.shape[1]})"
                )
            if not np.all(np.isfinite(vals)):
                raise DataError(f"custom function {i} returned non-finite values")
            blocks.append(vals)
        return np.hstack(blocks)

    def config(self):
        raise ConfigError("custom observables cannot be serialized")


class Concat(Observable):
    """Concatenation of libraries with duplicate state blocks removed.

    The state block of the first library that embeds it is kept; exact state
    coordinates of later libraries are dropped so the state appears once.
    Reconstruction is inherited from that first embedding library.
    """

    kind = "concat"

    def __init__(self, parts: Sequence[Observable]):
        super().__init__()
        if not parts:
            raise ConfigError("concat needs at least one library")
        for p in parts:
            if isinstance(p, TimeDelay):
                raise ConfigError("time_delay libraries cannot be concatenated")
        self.parts = tuple(parts)
        self._keep: Optional[tuple] = None

    def _on_bind(self):
        for p in self.parts:
            p.bind(self.n_input)
        self._refresh_layout()

    def prepare(self, X_rows):
        for p in self.parts:
            p.prepare(X_rows)
        self._refresh_layout()

    def seal(self):
        for p in self.parts:
            p.seal()
        super().seal()

    def _refresh_layout(self):
        keep = []
        first_state = None
        for i, p in enumerate(self.parts):
            try:
                N_i = p.n_output
            except ConfigError:
                self._keep = None  # a part is not ready yet (e.g. rbf centers)
                return
            idx = np.ones(N_i, dtype=bool)
            sidx = p.state_indices
            if sidx is not None:
                if first_state is None:
                    first_state = i
                elif i > first_state:
                    idx[list(sidx)] = False
            keep.append(idx)
        self._keep = tuple(keep)
        self._first_state = first_state

    def _require_layout(self):
        self._require_bound()
        if self._keep is None:
            self._refresh_layout()
        if self._keep is None:
            raise ConfigError("concat parts not fully prepared")

    @property
    def n_output(self) -> int:
        self._require_layout()
        return int(sum(k.sum() for k in self._keep))

    @property
    def state_indices(self):
        self._require_layout()
        if self._first_state is None:
            return None
        offset = 0
        for i, p in enumerate(self.parts):
            if i == self._first_state:
                return tuple(offset + j for j in p.state_indices)
            offset += int(self._keep[i].sum())
        return None

    def lift_rows(self, X):
        self._require_layout()
        X = np.asarray(X, dtype=float)
        blocks = [p.lift_rows(X)[:, self._keep[i]] for i, p in enumerate(self.parts)]
        return np.hstack(blocks)

    def config(self):
        return {
            "kind": self.kind,
            "n_input": self.n_input,
            "parts": [p.config() for p in self.parts],
        }


class KernelLift(Observable):
    """Eigenfunction-space lift used by kernel regression models.

    Lifts x to the complex vector of fitted eigenfunction values
    phi_j(x) = sum_i alpha_ij k(x, x_i) over the stored training states.
    Produced by the pipeline, not constructed directly by users.
    """

    kind = "kernel_lift"

    def __init__(self, kernel: KernelConfig, centers: np.ndarray, alpha: np.ndarray):
        super().__init__()
        centers = np.asarray(centers, dtype=float)  # (m, n) training states
        alpha = np.asarray(alpha, dtype=complex)  # (m, r) coefficients
        if centers.ndim != 2 or alpha.ndim != 2 or alpha.shape[0] != centers.shape[0]:
            raise ConfigError(
                f"kernel_lift needs (m, n) centers and (m, r) alpha, got shapes "
                f"{centers.shape} and {alpha.shape}"
            )
        self.kernel, self.centers, self.alpha = kernel, centers, alpha
        self.bind(self.centers.shape[1])

    @property
    def alpha(self) -> np.ndarray:  # (m, r) complex eigenfunction coefficients
        return self._alpha

    @alpha.setter
    def alpha(self, alpha):
        # found once per assignment: the GEMM multiplies only the columns that
        # are not the exact conjugate of their left neighbour, and lift_rows
        # writes each copy as its partner's product with the imaginary part
        # negated, so a real fit's conjugate pairs stay exact (a GEMM rounds a
        # column by its position)
        self._alpha = a = np.asarray(alpha, dtype=complex)
        copy = _kernels.conjugate_copies(a)
        self._alpha_kept = a[:, ~copy]
        # per output column, in the (re, im) float view: the column of the
        # kept product it takes (a copy takes its partner's) and its sign
        src = np.cumsum(~copy) - 1
        self._gather = (2 * src[:, None] + np.arange(2)).ravel()
        sign = np.ones((a.shape[1], 2))
        sign[copy, 1] = -1.0
        self._sign = sign.ravel()

    @property
    def n_output(self) -> int:
        return self.alpha.shape[1]

    def lift_rows(self, X):
        X = self._rows(X)
        # not KernelConfig.gram: prediction-time Gram rows are lifting, not regression
        k = self.kernel
        K = _kernels.gram_matrix(X, self.centers, k.kind, k.sigma, k.offset, k.degree)
        Z = np.take(_kernels.real_matmul_complex(K, self._alpha_kept).view(float),
                    self._gather, axis=1)
        Z *= self._sign
        return Z.view(complex)

    def lift(self, x):  # defined here, so a tracer can tell kernel lifts apart
        return super().lift(x)

    def config(self):
        return {
            "kind": self.kind,
            "n_input": self.n_input,
            "kernel": self.kernel.to_dict(),
            "centers": self.centers.tolist(),
            "alpha_re": self.alpha.real.tolist(),
            "alpha_im": self.alpha.imag.tolist(),
        }


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructionMap(_FrozenRecord):
    """Linear map recovering the state from the lifted vector, x = C z.

    For exact-embedding libraries `indices` selects the embedded coordinates
    (bit-exact); otherwise C is fitted by least squares. C is a read-only
    copy; findings are a tuple.
    """

    C: np.ndarray
    indices: Optional[tuple] = None
    findings: tuple = ()

    def apply_cols(self, Z: np.ndarray) -> np.ndarray:
        """Map lifted columns (N, m) back to state columns (n, m)."""
        if self.indices is not None:
            return Z[list(self.indices), ...]
        return self.C @ Z

    def apply_vec(self, z: np.ndarray) -> np.ndarray:
        if self.indices is not None:
            return z[list(self.indices)]
        return self.C @ z


def fit_reconstruction(library: Observable, Z: np.ndarray,
                       X: Optional[np.ndarray]) -> ReconstructionMap:
    """Build the reconstruction map x = C z for a bound library.

    Exact-embedding libraries get the index-selection map and read neither
    Z nor X (None will do). Otherwise C is the least-squares minimizer of
    ||X - C Z||_F with a singular-value cutoff, over training columns: Z
    (N, m) lifted by the library and X (n, m) the states they lift.
    Rank-deficient lifted data yields a warning finding and the minimum-norm
    solution.
    """
    idx = library.state_indices
    if idx is not None:
        C = np.zeros((library.n_input, library.n_output))
        for row, j in enumerate(idx):
            C[row, j] = 1.0
        return ReconstructionMap(C=C, indices=tuple(idx))
    N, m = Z.shape
    if m < N:
        raise DataError(
            f"fitted reconstruction needs at least N={N} training columns, got m={m}"
        )
    # solve min ||X - C Z||_F  <=>  Z.T @ C.T ~ X.T
    Ct, _, rank, _ = np.linalg.lstsq(Z.T, np.asarray(X).T, rcond=1e-10)
    findings = []
    if rank < min(N, m):
        findings.append(Finding("rank-deficient-reconstruction", message=(
            f"lifted training data is rank deficient ({rank} < {min(N, m)}); "
            "returned the minimum-norm reconstruction")))
    return ReconstructionMap(C=np.asarray(Ct).T, indices=None, findings=findings)


# ---------------------------------------------------------------------------
# config round trip
# ---------------------------------------------------------------------------

_LIBRARIES = {cls.kind: cls for cls in (Identity, Polynomial, TimeDelay, RadialBasis,
                                        RandomFourier, Concat, KernelLift)}


def observable_from_config(cfg: dict) -> Observable:
    """Rebuild a library from its JSON config; unknown kinds/keys rejected.

    Keys other than `kind` and `n_input` are the constructor's arguments;
    three kinds decode theirs first (parts, kernel and alpha, draws)."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("observable config must be an object with a 'kind' key")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in _LIBRARIES:
        raise ConfigError(f"unknown observable kind {kind!r}")
    options = {k: v for k, v in cfg.items() if k not in ("kind", "n_input")}
    for key in ("centers", "alpha_re", "alpha_im", "W", "b"):
        if options.get(key) is not None:
            options[key] = model_array(options[key], key)
    draws = {}
    if kind == "concat" and "parts" in options:
        if not isinstance(options["parts"], list):
            raise ConfigError("concat observable config needs 'parts' as a list of "
                              f"observable configs, got {options['parts']!r}")
        options["parts"] = [observable_from_config(p) for p in options["parts"]]
    elif kind == "kernel_lift":
        if "kernel" in options:
            options["kernel"] = KernelConfig.from_dict(options["kernel"])
        parts = [options.pop(k, None) for k in ("alpha_re", "alpha_im")]
        if any(p is None for p in parts) or "alpha" in options:
            raise ConfigError("kernel_lift observable config needs 'alpha_re' and "
                              "'alpha_im' in place of 'alpha'")
        # assigned, not added as re + 1j*im, which would turn -0.0 parts into 0.0
        options["alpha"] = np.array(parts[0], dtype=complex)
        options["alpha"].imag = parts[1]
    elif kind == "random_fourier":
        draws = {k: options.pop(k) for k in ("W", "b") if k in options}
    lib = call_with_options(_LIBRARIES[kind], options, f"{kind} observable")
    if cfg.get("n_input") is not None:
        lib.bind(cfg["n_input"])  # refuses a conflict with kernel_lift's centers
    if draws:
        W, b = (np.asarray(draws.get(k), dtype=float) for k in ("W", "b"))
        if (W.shape, b.shape) != ((lib.n_input, lib.n_features), (lib.n_features,)):
            raise ConfigError("random_fourier W and b need shapes (n_input, n_features) "
                              "and (n_features,)")
        lib.W, lib.b = W, b
    return lib
