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
from .model import KoopmanModel
from .observables import ReconstructionMap, observable_from_config
from .regression import EigenSystem, RegressionResult

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
    return f


def _checked(check, value, name: str, bound):
    """A model-level number, refused as the option checks refuse it."""
    try:
        return check(value, name, bound)
    except ConfigError as exc:
        raise DataError(f"malformed model file: {exc}") from None


def model_to_dict(model: KoopmanModel) -> dict:
    eig = model.regression.eigensystem
    eigen = {
        "lambdas": _cvec_to_json(eig.lambdas),
        "mus": _cvec_to_json(eig.mus),
        "W_right": _matrix_to_json(eig.W_right),
        "W_left": _matrix_to_json(eig.W_left),
        # still written so the file format is unchanged; loading ignores it
        "use_exact_modes": model.regression.modes_exact is not None,
    }
    if model.regression.modes_exact is not None:
        eigen["modes_exact"] = _matrix_to_json(model.regression.modes_exact)
    metadata = dict(model.metadata)
    if "findings" in metadata:
        metadata["findings"] = [
            {k: v for k, v in dataclasses.asdict(f).items() if v is not None}
            for f in metadata["findings"]
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


def model_from_dict(d: dict) -> KoopmanModel:
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
    # a loaded model holds each fact where a fitted one does: the findings in
    # metadata only, kdmd's coefficients on its observables
    try:
        obs = observable_from_config(d["observables"])
        A = _matrix_from_json(d["A"], "A")
        eigd = d["eigen"]
        eig = EigenSystem(
            lambdas=_cvec_from_json(eigd["lambdas"], "lambdas"),
            mus=_cvec_from_json(eigd["mus"], "mus"),
            W_right=_matrix_from_json(eigd["W_right"], "W_right"),
            W_left=_matrix_from_json(eigd["W_left"], "W_left"),
            dt=dt,
        )
        metadata = dict(d["metadata"])
        z0 = _cvec_from_json(metadata.pop("z0_train"), "z0_train")
        if not np.iscomplexobj(A):
            z0 = z0.real
        scores = np.array([model_number(s, "training_scores")
                           for s in metadata.pop("training_scores")])
        if "findings" in metadata:
            if not isinstance(metadata["findings"], list):
                raise TypeError("metadata.findings must be a list")
            metadata["findings"] = tuple(
                _finding_from_json(f) for f in metadata["findings"]
            )
        res = RegressionResult(
            rank=_checked(check_int, metadata.get("rank", eig.rank), "rank", 1),
            A=A,
            B=_matrix_from_json(d["B"], "B") if "B" in d else None,
            eigensystem=eig,
            modes_exact=(_matrix_from_json(eigd["modes_exact"], "modes_exact")
                         if "modes_exact" in eigd else None),
            residual_fro=model_number(metadata.get("residual_fro", 0.0), "residual_fro"),
            residual_rel=model_number(metadata.get("residual", 0.0), "residual"),
            sigma_min=model_number(metadata.get("sigma_min", 0.0), "sigma_min"),
            m=_checked(check_int, metadata.get("m", 0), "m", 0),
        )
        C = ReconstructionMap(C=_matrix_from_json(d["C"], "C"), indices=obs.state_indices)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file: {exc}") from None
    return KoopmanModel(observables=obs, regression=res, C=C, dt=dt, n=n, q=q,
                        metadata=metadata, z0_train=z0, training_scores=scores)


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
