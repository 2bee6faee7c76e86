"""Model JSON (schema v1) with exact float round-tripping.

Matrices are row-major with explicit shape; complex numbers are [re, im]
pairs. Floats rely on repr round-tripping, so a saved model reproduces the
in-memory one bit-for-bit. Findings are objects: kind, message and any set
location. Writes go to a temp file in the target directory followed by an
atomic rename, so no partial files are ever left behind.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile

import numpy as np

from .data import Finding
from .errors import ConfigError, DataError, check_int, check_real, model_number
from .model import _KINDS, KoopmanModel
from .observables import ReconstructionMap, fit_reconstruction, observable_from_config
from .regression import EigenSystem, RegressionResult, continuous_eigenvalues

__all__ = ["MODEL_SCHEMA_VERSION", "model_to_dict", "model_from_dict",
           "save_model", "load_model", "atomic_write_text"]

MODEL_SCHEMA_VERSION = 1


def _matrix_to_json(M: np.ndarray) -> dict:
    M = np.asarray(M)
    if np.iscomplexobj(M):
        data = [[float(v.real), float(v.imag)] for v in M.reshape(-1)]
        return {"shape": list(M.shape), "complex": True, "data": data}
    return {"shape": list(M.shape), "data": [float(v) for v in M.reshape(-1)]}


def _matrix_from_json(obj, name: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise TypeError(f"{name} must be a matrix object, got {obj!r}")
    if obj.get("complex", False):
        flat = _cvec_from_json(obj["data"], name)
    else:
        flat = np.array([model_number(v, name) for v in obj["data"]])
    return flat.reshape(tuple(obj["shape"]))


def _cvec_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex)
    return [[float(x.real), float(x.imag)] for x in v]


def _cvec_from_json(lst, name: str) -> np.ndarray:
    return np.array([complex(model_number(re, name), model_number(im, name))
                     for re, im in lst])


def _finding_from_json(entry) -> Finding:
    if isinstance(entry, str):  # findings were plain strings in earlier v1 files
        return Finding("unclassified", message=entry)
    f = Finding(**entry)  # TypeError for a non-object, a missing kind, an unknown key
    if not (isinstance(f.kind, str) and isinstance(f.message, str)):
        raise TypeError(f"finding kind and message must be strings: {entry!r}")
    for key in ("trajectory", "row", "column"):
        if key in entry:
            _checked(check_int, entry[key], f"finding {key}", 0)
    return f


def _malformed(message: str) -> DataError:
    return DataError(f"malformed model file: {message}")


def _checked(check, value, name: str, bound):
    """A model-level number, refused as the option checks refuse it."""
    try:
        return check(value, name, bound)
    except ConfigError as exc:
        raise _malformed(str(exc)) from None


def model_to_dict(model: KoopmanModel) -> dict:
    eig = model.regression.eigensystem
    eigen = {
        "lambdas": _cvec_to_json(eig.lambdas),
        # mus and use_exact_modes are derived, and written so the file format
        # is unchanged; loading refuses copies that disagree with their homes
        "mus": _cvec_to_json(model.continuous_eigenvalues()),
        "W_right": _matrix_to_json(eig.W_right),
        "W_left": _matrix_to_json(eig.W_left),
        "use_exact_modes": model.regression.modes_exact is not None,
    }
    if model.regression.modes_exact is not None:
        eigen["modes_exact"] = _matrix_to_json(model.regression.modes_exact)
    metadata = dict(model.metadata)
    metadata["findings"] = [
        {k: v for k, v in dataclasses.asdict(f).items() if v is not None}
        for f in model.findings
    ]
    metadata["z0_train"] = _cvec_to_json(model.z0_train)
    metadata["training_scores"] = [float(s) for s in model.training_scores]
    d = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "dt": model.dt,
        "n": model.n,
        "q": model.q,
        "observables": model.observables.config(),
        "A": _matrix_to_json(model.A),
        "C": _matrix_to_json(model.C.C),
        "eigen": eigen,
        "metadata": metadata,
    }
    if model.B is not None:
        d["B"] = _matrix_to_json(model.B)
    return d


def _reconstruction(obs, C: np.ndarray) -> ReconstructionMap:
    """The model's map x = C z. An exact-embedding library's map is built as
    `fit` builds it, and a file whose C is not that map's is refused."""
    if obs.state_indices is None:
        return ReconstructionMap(C=C)
    exact = fit_reconstruction(obs, None, None)
    if not np.array_equal(C, exact.C):
        raise _malformed(f"C is not the selection of the state coordinates "
                         f"{obs.state_indices} from the lifted vector")
    return exact


def _check_shapes(arrays: dict) -> None:
    for name, (value, shape) in arrays.items():
        if value is not None and value.shape != shape:
            raise _malformed(f"{name} has shape {value.shape}, expected {shape}")


# an eigenpair of A must satisfy ||A w - lambda w|| <= SPECTRUM_RTOL ||A||_F ||w||.
# Fitted models meet it to 1.9e-13 ||A||_2 (the benchmark fits at seeds 1, 7
# and 101) and the zero class, snapped to 0, to ZERO_EIG_RTOL = 6.0e-8 ||A||_2
SPECTRUM_RTOL = 1e-6


def _check_spectrum(A: np.ndarray, eig: EigenSystem) -> None:
    W = eig.W_right
    with np.errstate(invalid="ignore"):  # an inf in A gives a NaN residual, refused
        residual = np.linalg.norm(A @ W - W * eig.lambdas, axis=0)
    bound = SPECTRUM_RTOL * np.linalg.norm(A) * np.linalg.norm(W, axis=0)
    bad = np.flatnonzero(~(residual <= bound))  # a NaN fails too
    if bad.size:
        j = int(bad[0])
        raise _malformed(f"eigenvalue {j} is not an eigenvalue of A with W_right[:, {j}] "
                         f"(residual {residual[j]:.2e} > {bound[j]:.2e})")


def _check_continuous(mus: np.ndarray, lambdas: np.ndarray, dt: float) -> None:
    """Refuse a file's continuous eigenvalues unless each is within
    SPECTRUM_RTOL, relative, of ln(lambda)/dt; a -inf (a zero lambda's)
    agrees only with itself."""
    derived = continuous_eigenvalues(lambdas, dt)
    ok = mus == derived
    f = np.isfinite(derived)
    ok[f] |= np.abs(mus[f] - derived[f]) <= SPECTRUM_RTOL * np.abs(derived[f])
    bad = np.flatnonzero(~ok)
    if bad.size:
        j = int(bad[0])
        raise _malformed(f"mus[{j}] is {mus[j]}, but ln(lambda)/dt is {derived[j]}")


def model_from_dict(d: dict) -> KoopmanModel:
    """A model from its file dict. Each value is type-checked, and a fact the
    file repeats (n, q, the metadata's rank and n_features, the array shapes,
    an exact-embedding C, mus, use_exact_modes) is refused unless it agrees
    with its home: the observables, B, the eigenvalues with dt, or
    modes_exact. So is a spectrum that is not A's, a regressor label whose
    kind `fit` never gives the observables, and a kdmd model whose
    eigenvectors are not the identity. Unknown metadata keys are not
    read."""
    if not isinstance(d, dict):
        raise DataError("model file must contain a JSON object")
    version = d.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise DataError(f"unsupported model schema version {version!r}")
    required = {"dt", "n", "q", "observables", "A", "C", "eigen", "metadata"}
    missing = required - set(d)
    if missing:
        raise DataError(f"model file is missing keys: {sorted(missing)}")
    dt = _checked(check_real, d["dt"], "dt", True)
    n = _checked(check_int, d["n"], "n", 1)
    q = _checked(check_int, d["q"], "q", 0)
    # a loaded model holds each fact where a fitted one does: the findings on
    # the model only, kdmd's coefficients on its observables
    try:
        obs = observable_from_config(d["observables"])
        A = _matrix_from_json(d["A"], "A")
        B = _matrix_from_json(d["B"], "B") if "B" in d else None
        C = _matrix_from_json(d["C"], "C")
        eigd = d["eigen"]
        eig = EigenSystem(
            lambdas=_cvec_from_json(eigd["lambdas"], "lambdas"),
            W_right=_matrix_from_json(eigd["W_right"], "W_right"),
            W_left=_matrix_from_json(eigd["W_left"], "W_left"),
        )
        mus = _cvec_from_json(eigd["mus"], "mus")
        modes_exact = (_matrix_from_json(eigd["modes_exact"], "modes_exact")
                       if "modes_exact" in eigd else None)
        use_exact = eigd.get("use_exact_modes", modes_exact is not None)
        metadata = dict(d["metadata"])
        z0 = _cvec_from_json(metadata["z0_train"], "z0_train")
        if not np.iscomplexobj(A):
            z0 = z0.real
        scores = np.array([model_number(s, "training_scores")
                           for s in metadata["training_scores"]])
        findings = metadata.get("findings", [])
        if not isinstance(findings, list):
            raise TypeError("metadata.findings must be a list")
        findings = tuple(_finding_from_json(f) for f in findings)
        copies = {key: _checked(check_int, metadata[key], key, 1)
                  for key in ("rank", "n_features") if key in metadata}
        regressor = metadata["regressor"]
        if not (isinstance(regressor, str) and regressor in _KINDS):
            raise _malformed(f"regressor must be one of {tuple(_KINDS)}, got {regressor!r}")
        res = RegressionResult(
            A=A,
            B=B,
            eigensystem=eig,
            modes_exact=modes_exact,
            residual_fro=model_number(metadata.get("residual_fro", 0.0), "residual_fro"),
            residual_rel=model_number(metadata.get("residual", 0.0), "residual"),
            sigma_min=model_number(metadata.get("sigma_min", 0.0), "sigma_min"),
            m=_checked(check_int, metadata.get("m", 0), "m", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(str(exc)) from None

    # the copies against their homes
    if n != obs.n_input:
        raise _malformed(f"n is {n}, but the observables take n_input={obs.n_input}")
    try:
        N = obs.n_output
    except ConfigError as exc:
        raise _malformed(f"observables: {exc}") from None
    r = eig.rank
    if r == 0:  # no fit has an empty spectrum
        raise _malformed("the model has no eigenvalues")
    if B is None and q != 0:
        raise _malformed(f"q is {q}, but the model has no B")
    if copies.get("rank", r) != r:
        raise _malformed(f"rank is {copies['rank']}, but the model has {r} eigenvalue(s)")
    if copies.get("n_features", N) != N:
        raise _malformed(f"n_features is {copies['n_features']}, but the observables "
                         f"lift to {N}")
    if use_exact is not (modes_exact is not None):
        raise _malformed(f"use_exact_modes is {use_exact!r}, but the model has "
                         f"{'no modes_exact' if modes_exact is None else 'modes_exact'}")
    regression, controlled, fitted = _KINDS[regressor]
    if controlled != (B is not None):
        raise _malformed(f"regressor {regressor!r} is "
                         f"{'controlled' if controlled else 'unforced'}, but the model "
                         f"has {'no' if B is None else 'a'} B")
    if fitted is not None and obs.kind != fitted:
        raise _malformed(f"regressor {regressor!r} fits {fitted} observables, "
                         f"but the model has {obs.kind}")
    _check_shapes({
        "A": (A, (N, N)), "B": (B, (N, q)), "C": (C, (n, N)),
        "W_right": (eig.W_right, (N, r)), "W_left": (eig.W_left, (N, r)),
        "modes_exact": (modes_exact, (N, r)), "mus": (mus, (r,)),
        "z0_train": (z0, (N,)), "training_scores": (scores, (r,)),
    })
    if regression == "kdmd":
        # fit_kdmd's eigenvectors; others would move no prediction to show them
        for name in ("W_right", "W_left"):
            if not np.array_equal(getattr(eig, name), np.eye(r)):
                raise _malformed(f"{name} of a kdmd model is not the identity")
    _check_spectrum(A, eig)
    _check_continuous(mus, eig.lambdas, dt)
    return KoopmanModel(observables=obs, regression=res, C=_reconstruction(obs, C),
                        dt=dt, regressor=regressor, findings=findings, z0_train=z0,
                        training_scores=scores)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and atomic rename; never leaves partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model: KoopmanModel, path: str) -> None:
    payload = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    atomic_write_text(path, payload + "\n")


def load_model(path: str) -> KoopmanModel:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from None
    return model_from_dict(d)
