import copy
import dataclasses
import json
import os
import pickle

import numpy as np
import pytest

import kooplift as kl
from kooplift.errors import ConfigError, DataError
from kooplift.observables import Observable
from kooplift.serialize import model_from_dict, model_to_dict

from conftest import make_slow_manifold_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_slow_manifold_dataset(grid=3, t_end=3.0)


def _controlled_dataset():
    rng = np.random.default_rng(0)
    A, B = kl.drss(2, 1, seed=3)
    x = rng.normal(size=2)
    rows, us = [x], []
    for _ in range(60):
        u = rng.normal(size=1)
        x = A @ x + B @ u
        rows.append(x)
        us.append(u)
    us.append(np.zeros(1))
    return kl.TrajectoryDataset([np.array(rows)], dt=0.5, inputs=[np.array(us)])


def _line_dataset():
    # states on one line: 80 random Fourier features of them are rank deficient
    starts = np.random.default_rng(0).uniform(-1.0, 1.0, 6)
    decay = 0.9 ** np.arange(40)
    return kl.TrajectoryDataset([np.outer(a * decay, [1.0, 2.0]) for a in starts], dt=0.1)


def _models(dataset):
    yield "poly", kl.fit(kl.Polynomial(2), "edmd", dataset), np.array([0.3, -0.4])
    yield "rbf", kl.fit(
        kl.RadialBasis("thinplate", n_centers=6, seed=2), "edmd", dataset
    ), np.array([0.1, 0.6])
    yield "rff", kl.fit(
        kl.RandomFourier(12, sigma=1.2, seed=4), "edmd", dataset
    ), np.array([-0.2, 0.5])
    yield "concat", kl.fit(
        kl.Concat([kl.Identity(), kl.Polynomial(2)]), "edmd", dataset
    ), np.array([0.7, -0.1])
    yield "kdmd", kl.fit(
        None,
        kl.RegressorConfig(kind="kdmd", kernel=kl.KernelConfig(kind="polynomial", degree=2)),
        kl.TrajectoryDataset([t[:30] for t in dataset.trajectories[:4]], dt=dataset.dt),
    ), np.array([0.4, 0.2])
    yield "dmdc", kl.fit(kl.Identity(), "dmdc", _controlled_dataset()), np.array([0.5, -0.5])
    # an int sigma is stored as 2.0, so the file reads back as it was written
    yield "kdmd_int_sigma", kl.fit(
        None,
        kl.RegressorConfig(kind="kdmd", kernel=kl.KernelConfig(sigma=2)),
        kl.TrajectoryDataset([t[:30] for t in dataset.trajectories[:4]], dt=dataset.dt),
    ), np.array([0.4, 0.2])
    yield "rank_deficient", kl.fit(
        kl.RandomFourier(80, include_state=False), "edmd", _line_dataset()
    ), np.array([0.3, 0.6])


def _assert_same_record(a, b, where):
    """Field by field: arrays with their dtype, observables by config."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        label = f"{where}.{field.name}"
        if dataclasses.is_dataclass(x):
            _assert_same_record(x, y, label)
        elif isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert type(x) is type(y) and x.dtype == y.dtype, label
            np.testing.assert_array_equal(x, y, err_msg=label)
        elif isinstance(x, Observable):
            assert x.config() == y.config(), label
        else:
            assert x == y, label


def test_loaded_model_equals_the_fitted_one(dataset):
    for name, model, _ in _models(dataset):
        loaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        _assert_same_record(model, loaded, name)


def test_findings_are_stored_once():
    model = kl.fit(kl.RandomFourier(80, include_state=False), "edmd", _line_dataset())
    kinds = [f.kind for f in model.metadata["findings"]]
    assert kinds == ["rank-deficient-reconstruction"]
    for record in (model.regression, model.regression.eigensystem, model.C):
        assert record.findings == ()


def test_roundtrip_simulate_bit_identical(tmp_path, dataset):
    for name, model, x0 in _models(dataset):
        path = str(tmp_path / f"{name}.json")
        kl.save_model(model, path)
        loaded = kl.load_model(path)
        if model.controlled:
            U = np.random.default_rng(1).normal(size=(model.q, 20))
            a = model.simulate(x0, 20, U=U)
            b = loaded.simulate(x0, 20, U=U)
        else:
            a = model.simulate(x0, 20)
            b = loaded.simulate(x0, 20)
        np.testing.assert_array_equal(a, b), name


def _gaussian_kdmd(dataset):
    return kl.fit(
        None,
        kl.RegressorConfig(kind="kdmd", kernel=kl.KernelConfig(kind="gaussian", sigma=1.5)),
        kl.TrajectoryDataset([t[:30] for t in dataset.trajectories[:4]], dt=dataset.dt),
    )


def test_conjugate_modes_of_a_real_fit_score_alike(dataset):
    model = _gaussian_kdmd(dataset)
    lam = model.eigenvalues
    j = np.flatnonzero((lam[:-1].imag < 0) & (lam[1:] == lam[:-1].conj()))
    assert j.size > 0
    np.testing.assert_array_equal(model.training_scores[j], model.training_scores[j + 1])


def test_save_load_save_byte_identical(tmp_path, dataset):
    for name, model, _ in _models(dataset):
        p1, p2 = str(tmp_path / f"{name}1.json"), str(tmp_path / f"{name}2.json")
        kl.save_model(model, p1)
        kl.save_model(kl.load_model(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read(), name


def test_loaded_library_is_sealed(tmp_path, dataset):
    for name, model, _ in _models(dataset):
        path = str(tmp_path / f"{name}.json")
        kl.save_model(model, path)
        lib = kl.load_model(path).observables
        for owner in (lib, *getattr(lib, "parts", ())):
            with pytest.raises(AttributeError, match="sealed"):
                owner.n_input = owner.n_input


def test_simulate_and_predict_leave_the_model_unchanged(tmp_path, dataset):
    models = [("kdmd", _gaussian_kdmd(dataset)),
              ("poly", kl.fit(kl.Polynomial(2), "edmd", dataset))]
    for name, model in models:
        before, after = str(tmp_path / f"{name}0.json"), str(tmp_path / f"{name}1.json")
        kl.save_model(model, before)
        x0 = dataset.trajectories[0][0]
        model.simulate(x0, 50)
        model.predict(x0)
        kl.save_model(model, after)
        assert open(before, "rb").read() == open(after, "rb").read(), name


def test_copied_and_pickled_models_equal_the_original(tmp_path, dataset):
    models = [
        ("poly", kl.fit(kl.Polynomial(2), "edmd", dataset), None),
        ("rbf_edmdc", kl.fit(kl.RadialBasis("gauss", n_centers=5, seed=1), "edmdc",
                             _controlled_dataset()), np.array([0.3])),
        ("kdmd", _gaussian_kdmd(dataset), None),
    ]
    for name, model, u in models:
        original = str(tmp_path / f"{name}.json")
        kl.save_model(model, original)
        x0 = dataset.trajectories[0][0]
        for how, twin in (("deepcopy", copy.deepcopy(model)),
                          ("pickle", pickle.loads(pickle.dumps(model)))):
            label = f"{name} {how}"
            path = str(tmp_path / f"{name}-{how}.json")
            kl.save_model(twin, path)
            assert open(path, "rb").read() == open(original, "rb").read(), label
            np.testing.assert_array_equal(twin.predict(x0, u), model.predict(x0, u))
            with pytest.raises(TypeError):
                twin.metadata["rank"] = 0
            with pytest.raises(AttributeError):
                twin.z0_train = None
            with pytest.raises(AttributeError, match="sealed"):
                twin.observables.n_input = twin.observables.n_input
            eig = twin.regression.eigensystem
            for arr in (twin.A, twin.z0_train, twin.training_scores, eig.lambdas,
                        eig.W_left, twin.C.C, *vars(twin.observables).values()):
                if isinstance(arr, np.ndarray):
                    assert not arr.flags.writeable, label


def test_nilpotent_findings_survive_the_round_trip(tmp_path):
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    starts = np.random.default_rng(5).normal(size=(10, 2))
    ds = kl.TrajectoryDataset([np.array([x, N @ x, N @ N @ x]) for x in starts], dt=0.1)
    model = kl.fit(None, "dmd", ds)
    findings = model.metadata["findings"]
    assert all(isinstance(f, kl.Finding) for f in findings)
    assert [f.kind for f in findings] == ["exact-mode-fallback", "zero-eigenvalue"]
    path = str(tmp_path / "nil.json")
    kl.save_model(model, path)
    loaded = kl.load_model(path)
    assert loaded.metadata["findings"] == findings
    for twin in (model, loaded):
        assert twin.regression.findings == twin.regression.eigensystem.findings == ()


def test_string_findings_of_older_files_load(dataset):
    d = json.loads(json.dumps(model_to_dict(kl.fit(kl.Polynomial(2), "edmd", dataset))))
    d["metadata"]["findings"] = ["mode 1: eigenfunction vanishes on the data"]
    assert model_from_dict(d).metadata["findings"] == (
        kl.Finding("unclassified", message="mode 1: eigenfunction vanishes on the data"),
    )
    for bad in ([{"message": "no kind"}], [{"kind": "x", "severity": 1}],
                [{"kind": 3}], [7], "not a list"):
        d["metadata"]["findings"] = bad
        with pytest.raises(DataError, match="malformed model file"):
            model_from_dict(d)


def test_roundtrip_spectral_objects(tmp_path, dataset):
    model = kl.fit(kl.Polynomial(2), "edmd", dataset)
    path = str(tmp_path / "m.json")
    kl.save_model(model, path)
    loaded = kl.load_model(path)
    np.testing.assert_array_equal(model.eigenvalues, loaded.eigenvalues)
    np.testing.assert_array_equal(
        model.continuous_eigenvalues(), loaded.continuous_eigenvalues()
    )
    x = np.array([0.2, 0.9])
    np.testing.assert_array_equal(model.eigenfunctions(x), loaded.eigenfunctions(x))
    ta, tb = model.koopman_modes(), loaded.koopman_modes()
    np.testing.assert_array_equal(ta.modes, tb.modes)
    np.testing.assert_array_equal(ta.amplitudes, tb.amplitudes)
    np.testing.assert_array_equal(ta.scores, tb.scores)


def test_saved_file_is_deterministic(tmp_path, dataset):
    model = kl.fit(kl.Polynomial(2), "edmd", dataset)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    kl.save_model(model, p1)
    kl.save_model(model, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_dict_roundtrip_without_file(dataset):
    model = kl.fit(kl.RandomFourier(8, seed=1), "edmd", dataset)
    d = json.loads(json.dumps(model_to_dict(model)))
    loaded = model_from_dict(d)
    x0 = np.array([0.25, -0.75])
    np.testing.assert_array_equal(model.simulate(x0, 10), loaded.simulate(x0, 10))


def test_schema_top_level_keys(dataset):
    model = kl.fit(kl.Polynomial(2), "edmd", dataset)
    d = model_to_dict(model)
    assert set(d) == {
        "schema_version", "dt", "n", "q", "observables", "A", "C", "eigen", "metadata",
    }
    assert d["schema_version"] == 1
    cm = kl.fit(kl.Identity(), "dmdc", _controlled_dataset())
    assert "B" in model_to_dict(cm)


def test_complex_encoding_pairs(dataset):
    model = kl.fit(kl.Polynomial(2), "edmd", dataset)
    d = model_to_dict(model)
    lam = d["eigen"]["lambdas"]
    assert all(len(pair) == 2 for pair in lam)
    vals = np.array([complex(re, im) for re, im in lam])
    np.testing.assert_array_equal(vals, model.eigenvalues)


def test_load_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        kl.load_model(str(p))
    p.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(DataError, match="schema version"):
        kl.load_model(str(p))
    p.write_text(json.dumps({"schema_version": 1, "dt": 0.1}))
    with pytest.raises(DataError, match="missing keys"):
        kl.load_model(str(p))
    with pytest.raises(DataError):
        kl.load_model(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("where, key, value", [
    ("top", "n", 2.7), ("top", "n", True), ("top", "n", "2"), ("top", "n", 0),
    ("top", "q", -1), ("top", "q", 0.0),
    ("top", "dt", True), ("top", "dt", "0.1"), ("top", "dt", 0.0), ("top", "dt", None),
    ("metadata", "rank", 2.5), ("metadata", "rank", False),
    ("metadata", "m", "441"), ("metadata", "m", 441.0),
    ("top", "A", {"shape": [1, 1], "data": ["0.1"]}),
    ("top", "C", {"shape": [1, 1], "data": [True]}),
    ("eigen", "lambdas", [["0.1", 0.0]]),
    ("eigen", "W_left", {"shape": [1, 1], "complex": True, "data": [[True, 0.0]]}),
    ("metadata", "z0_train", [[0.0, "0"]]),
    ("metadata", "training_scores", ["0.1"]), ("metadata", "training_scores", [False]),
    ("metadata", "residual", "0.1"), ("metadata", "residual_fro", True),
    ("metadata", "sigma_min", "1e-3"),
])
def test_model_fields_are_checked_not_coerced(dataset, where, key, value):
    d = model_to_dict(kl.fit(kl.Polynomial(2), "edmd", dataset))
    (d if where == "top" else d[where])[key] = value
    with pytest.raises(DataError, match=f"malformed model file: {key} must be"):
        model_from_dict(d)


def test_custom_observables_refuse_serialization(dataset):
    model = kl.fit(kl.Custom([lambda x: x[0] ** 2]), "edmd", dataset)
    with pytest.raises(ConfigError, match="serialized"):
        model_to_dict(model)


def test_observable_config_roundtrip_lifts_identically(dataset):
    libs = [
        kl.Polynomial(3),
        kl.TimeDelay(2),
        kl.RandomFourier(9, sigma=0.6, seed=7),
        kl.Concat([kl.Identity(), kl.Polynomial(2)]),
    ]
    rows = np.random.default_rng(2).normal(size=(5, 2))
    for lib in libs:
        lib.bind(2)
        lib.prepare(rows)
        clone = kl.observable_from_config(json.loads(json.dumps(lib.config())))
        if isinstance(lib, kl.TimeDelay):
            np.testing.assert_array_equal(
                lib.lift_trajectory(rows), clone.lift_trajectory(rows)
            )
        else:
            np.testing.assert_array_equal(lib.lift_rows(rows), clone.lift_rows(rows))


def test_observable_config_rejects_unknown(dataset):
    with pytest.raises(ConfigError, match="unknown observable kind"):
        kl.observable_from_config({"kind": "wavelet"})
    with pytest.raises(ConfigError, match="unknown keys"):
        kl.observable_from_config({"kind": "polynomial", "degree": 2, "foo": 1})
    with pytest.raises(ConfigError, match="unknown keys in kernel config"):
        kl.observable_from_config({
            "kind": "kernel_lift", "kernel": {"kind": "gaussian", "sigma": 1.0, "foo": 1},
            "centers": [[0.0, 0.0]], "alpha_re": [[1.0]], "alpha_im": [[0.0]],
        })
    with pytest.raises(ConfigError, match="polynomial observable config needs 'degree'"):
        kl.observable_from_config({"kind": "polynomial"})
    with pytest.raises(ConfigError, match="alpha_re"):
        kl.observable_from_config({
            "kind": "kernel_lift", "kernel": {"kind": "gaussian"},
            "centers": [[0.0, 0.0]], "alpha": [[1.0]],
        })
    rff = kl.RandomFourier(3).bind(2).config()
    del rff["b"]
    with pytest.raises(ConfigError, match="W and b"):
        kl.observable_from_config(rff)
    with pytest.raises(ConfigError, match="'parts' as a list"):
        kl.observable_from_config({"kind": "concat", "parts": 5})
    with pytest.raises(ConfigError, match="unknown observable kind"):
        kl.observable_from_config({"kind": []})
    # a model file's arrays hold JSON numbers only; nothing is coerced
    kernel = {"kind": "kernel_lift", "kernel": {"kind": "gaussian"},
              "centers": [[0.5, 1.0]], "alpha_re": [[1.0]], "alpha_im": [[0.0]]}
    rff = kl.RandomFourier(3).bind(2).config()
    for cfg, key, value in ((kernel, "centers", [["0.5", True]]),
                            (kernel, "alpha_re", [["1"]]),
                            (rff, "b", ["0.1", True, 0.3]),
                            (rff, "W", [[0.1, 0.2, 0.3], [0.1, 0.2]])):
        with pytest.raises(DataError, match=f"malformed model file: {key} must be a number"):
            kl.observable_from_config({**cfg, key: value})


def test_kernel_lift_refuses_mismatched_shapes():
    # 2 rows of alpha against 3 centers: refused when loaded, not at the first lift
    cfg = {"kind": "kernel_lift", "kernel": {"kind": "gaussian", "sigma": 1.0},
           "centers": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
           "alpha_re": [[1.0], [0.5]], "alpha_im": [[0.0], [0.0]]}
    with pytest.raises(ConfigError, match="kernel_lift needs"):
        kl.observable_from_config(cfg)
    with pytest.raises(ConfigError, match="kernel_lift needs"):
        kl.KernelLift(kl.KernelConfig(), np.zeros(3), np.ones((3, 1)))


def test_atomic_write_replaces_not_partial(tmp_path):
    from kooplift.serialize import atomic_write_text

    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


# model files written by `kooplift fit` at 3d73ea4 (see data/README.md)
EARLIER_FILES = sorted(
    os.path.join(os.path.dirname(__file__), "data", name)
    for name in os.listdir(os.path.join(os.path.dirname(__file__), "data"))
    if name.endswith(".json")
)


@pytest.mark.parametrize("path", EARLIER_FILES, ids=os.path.basename)
def test_files_of_an_earlier_release_save_to_the_same_bytes(tmp_path, path):
    model = kl.load_model(path)
    out = str(tmp_path / "again.json")
    kl.save_model(model, out)
    assert open(out, "rb").read() == open(path, "rb").read()
    x0 = np.array([0.3, -0.15])
    if isinstance(model.observables, kl.TimeDelay):
        x0 = np.tile(x0, (model.observables.delays + 1, 1))
    U = np.full((model.q, 5), 0.2) if model.controlled else None
    assert np.isfinite(model.simulate(x0, 5, U=U)).all()


def test_metadata_is_a_view_of_the_facts_homes(dataset):
    for name, model, _ in _models(dataset):
        res = model.regression
        assert dict(model.metadata) == {
            "m": res.m, "rank": res.eigensystem.rank, "residual": res.residual_rel,
            "residual_fro": res.residual_fro, "sigma_min": res.sigma_min,
            "n_features": model.A.shape[0], "regressor": model.regressor,
            "findings": model.findings,
        }, name
        assert model.n == model.observables.n_input == 2, name
        assert model.q == (model.B.shape[1] if model.controlled else 0), name
    fields = {f.name for f in dataclasses.fields(kl.KoopmanModel)}
    assert fields == {"observables", "regression", "C", "dt", "regressor", "findings",
                      "z0_train", "training_scores"}
    assert "rank" not in {f.name for f in dataclasses.fields(kl.RegressionResult)}
    assert "dt" not in {f.name for f in dataclasses.fields(kl.EigenSystem)}


def _zeros(*shape, complex_=False):
    size = int(np.prod(shape))
    if complex_:
        return {"shape": list(shape), "complex": True, "data": [[0.0, 0.0]] * size}
    return {"shape": list(shape), "data": [0.0] * size}


@pytest.fixture(scope="module")
def copy_models(dataset):
    """Base models for the refusals: a Polynomial(2) fit (n = 2, N = 6, six
    eigenvalues, an index reconstruction), a dmdc fit (q = 1), a fitted-C
    random Fourier fit and a gauss RBF fit."""
    return {
        "poly": kl.fit(kl.Polynomial(2), "edmd", dataset),
        "dmdc": kl.fit(kl.Identity(), "dmdc", _controlled_dataset()),
        "rff": kl.fit(kl.RandomFourier(8, include_state=False, seed=1), "edmd", dataset),
        "rbf": kl.fit(kl.RadialBasis("gauss", n_centers=4, seed=1), "edmd", dataset),
    }


@pytest.mark.parametrize("base, where, value, match", [
    ("poly", ("n",), 3, "n is 3, but the observables take n_input=2"),
    ("poly", ("q",), 2, "q is 2, but the model has no B"),
    ("poly", ("metadata", "rank"), 1, "rank is 1, but the model has 6 eigenvalue"),
    ("poly", ("metadata", "n_features"), 99, "n_features is 99, but the observables lift to 6"),
    ("poly", ("metadata", "n_features"), 2.5, "n_features must be"),
    ("poly", ("A",), _zeros(2, 2), r"A has shape \(2, 2\), expected \(6, 6\)"),
    ("poly", ("metadata", "training_scores"), [0.5], "training_scores has shape"),
    ("poly", ("metadata", "z0_train"), [[1.0, 0.0]] * 2, "z0_train has shape"),
    ("poly", ("metadata", "regressor"), 5, "regressor must be one of"),
    ("poly", ("metadata", "regressor"), "wdmd", "regressor must be one of"),
    ("poly", ("metadata", "regressor"), None, "regressor must be one of"),
    ("poly", ("metadata", "regressor"), "dmdc",
     "regressor 'dmdc' is controlled, but the model has no B"),
    ("dmdc", ("metadata", "regressor"), "dmd",
     "regressor 'dmd' is unforced, but the model has a B"),
    ("dmdc", ("q",), 2, r"B has shape \(2, 1\), expected \(2, 2\)"),
    ("dmdc", ("B",), _zeros(3, 1), r"B has shape \(3, 1\), expected \(2, 1\)"),
    ("poly", ("C",), {"shape": [2, 6], "data": [7.0] * 12}, "C is not the selection"),
    ("poly", ("C",), _zeros(2, 5), r"C has shape \(2, 5\), expected \(2, 6\)"),
    ("rff", ("C",), _zeros(1, 8), r"C has shape \(1, 8\), expected \(2, 8\)"),
    ("poly", ("eigen", "W_right"), _zeros(6, 5, complex_=True), "W_right has shape"),
    ("poly", ("eigen", "W_left"), _zeros(5, 6, complex_=True), "W_left has shape"),
    ("poly", ("eigen", "modes_exact"), _zeros(6, 2, complex_=True), "modes_exact has shape"),
    ("poly", ("eigen", "mus"), [[0.0, 0.0]], "mus has shape"),
    ("rbf", ("observables", "centers"), None, "observables: rbf centers not set"),
])
def test_copies_that_disagree_with_their_home_are_refused(copy_models, base, where,
                                                          value, match):
    d = json.loads(json.dumps(model_to_dict(copy_models[base])))
    owner = d
    for key in where[:-1]:
        owner = owner[key]
    owner[where[-1]] = value
    with pytest.raises(DataError, match=f"malformed model file: {match}"):
        model_from_dict(d)


def test_a_file_without_a_regressor_label_is_refused(copy_models):
    d = json.loads(json.dumps(model_to_dict(copy_models["poly"])))
    del d["metadata"]["regressor"]
    with pytest.raises(DataError, match="malformed model file: 'regressor'"):
        model_from_dict(d)


def test_unknown_metadata_keys_are_not_read(copy_models):
    model = copy_models["poly"]
    d = json.loads(json.dumps(model_to_dict(model)))
    d["metadata"]["imag_leakage_max"] = 0.0  # written by releases before c11b0ab
    loaded = model_from_dict(d)
    assert "imag_leakage_max" not in loaded.metadata
    assert model_to_dict(loaded) == json.loads(json.dumps(model_to_dict(model)))
