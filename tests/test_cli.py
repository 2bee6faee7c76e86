import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kooplift as kl
from kooplift.cli import main
from kooplift.csvio import read_trajectory_csv, write_trajectory_csv

from conftest import make_slow_manifold_dataset


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "slow.csv"
    ds = make_slow_manifold_dataset(grid=3, t_end=3.0)
    write_trajectory_csv(str(path), ds.trajectories, dt=ds.dt)
    return str(path)


@pytest.fixture(scope="module")
def fitted_model(tmp_path_factory, data_csv):
    tmp = tmp_path_factory.mktemp("fit")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({
        "observables": {"kind": "polynomial", "degree": 2},
        "regressor": {"kind": "edmd"},
    }))
    model_path = tmp / "model.json"
    rc = main(["fit", str(cfg), data_csv, str(model_path), "--quiet"])
    assert rc == 0
    return str(model_path)


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(kl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, kooplift.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fit_writes_model_with_expected_spectrum(fitted_model):
    model = kl.load_model(fitted_model)
    mus = model.continuous_eigenvalues()
    for target in (-0.05, -0.1, -1.0):
        assert np.min(np.abs(mus - target)) < 1e-4


def test_fit_json_report(tmp_path, data_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"observables": {"kind": "polynomial", "degree": 2}}))
    rc = main(["fit", str(cfg), data_csv, str(tmp_path / "m.json"), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 6
    assert len(payload["eigenvalues"]) <= 10


def test_fit_malformed_config_exits_2_no_file(tmp_path, data_csv, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{broken")
    out = tmp_path / "model.json"
    rc = main(["fit", str(cfg), data_csv, str(out)])
    assert rc == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_fit_unknown_key_exits_2(tmp_path, data_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"observable": {"kind": "identity"}}))
    assert main(["fit", str(cfg), data_csv, str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize("reg_cfg", [
    {"rank": True},
    {"rank": 0},
    {"rank": 1.5},
    {"kind": "kdmd", "rank": 0.5},
    {"kind": "dmdc", "rank_in": True},
    {"kind": "dmdc", "rank_out": True},
    {"kind": "hdmd", "delays": 2.7},
    {"kind": "hdmd", "delays": True},
    {"n_inputs": 1.9},
    {"n_inputs": True},
], ids=lambda cfg: "-".join(f"{k}={v}" for k, v in cfg.items()))
def test_fit_rejects_coerced_regressor_values(reg_cfg, tmp_path, data_csv, capsys):
    # refused as given, not rounded or read as 0/1, and before any lifting
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"regressor": reg_cfg}))
    out = tmp_path / "m.json"
    assert main(["fit", str(cfg), data_csv, str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage" not in err and any(k in err for k in reg_cfg if k != "kind")
    assert not out.exists()
    if "n_inputs" not in reg_cfg:
        with pytest.raises(kl.ConfigError):
            kl.RegressorConfig(**reg_cfg)


_POLY = {"kind": "polynomial", "degree": 2}


@pytest.mark.parametrize("cfg, word, build", [
    ({"dt": "x"}, "dt", None),
    ({"dt": True}, "dt", None),
    ({"observables": {**_POLY, "degree": 2.7}}, "degree", lambda: kl.Polynomial(2.7)),
    ({"observables": {**_POLY, "degree": True}}, "degree", lambda: kl.Polynomial(True)),
    ({"observables": {**_POLY, "degree": "3"}}, "degree", lambda: kl.Polynomial("3")),
    ({"observables": {"kind": "random_fourier", "n_features": 4, "include_state": "no"}},
     "include_state", lambda: kl.RandomFourier(4, include_state="no")),
    ({"observables": {"kind": "rbf", "rbf_kind": "polyharmonic", "ph_exp": 2.5}},
     "ph_exp", lambda: kl.RadialBasis("polyharmonic", ph_exp=2.5)),
    ({"observables": {**_POLY, "n_input": 2.5}}, "n_input",
     lambda: kl.Polynomial(2).bind(2.5)),
    ({"regressor": {"kind": "kdmd", "kernel": {"kind": "polynomial", "degree": 2.5}}},
     "degree", lambda: kl.KernelConfig(kind="polynomial", degree=2.5)),
    ({"regressor": {"kind": "kdmd", "kernel": {"sigma": "1"}}}, "sigma",
     lambda: kl.KernelConfig(sigma="1")),
], ids=["dt=x", "dt=true", "degree=2.7", "degree=true", "degree=str", "include_state=str",
        "ph_exp=2.5", "n_input=2.5", "kernel-degree=2.5", "kernel-sigma=str"])
def test_fit_rejects_coerced_config_values(cfg, word, build, tmp_path, data_csv, capsys):
    # refused as given by the constructor that owns the option, not coerced
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "m.json"
    assert main(["fit", str(path), data_csv, str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage" not in err and word in err
    assert not out.exists()
    if build is not None:
        with pytest.raises(kl.ConfigError, match=word):
            build()


def test_fit_conflicting_delays_exits_2(tmp_path, data_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"observables": {"kind": "time_delay", "delays": 2},
                               "regressor": {"kind": "hdmd", "delays": 5}}))
    assert main(["fit", str(cfg), data_csv, str(tmp_path / "m.json")]) == 2
    assert "conflicts" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_fit_single_sample_csv_exits_3(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    csv.write_text("t,x1\n0.0,1.0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({}))
    rc = main(["fit", str(cfg), str(csv), str(tmp_path / "m.json")])
    assert rc == 3
    assert "too short" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_fit_non_finite_data_exits_3(tmp_path, data_csv, capsys):
    # a NaN sample is bad data, reported from the regression stage
    lines = open(data_csv).read().splitlines()
    lines[5] = ",".join([lines[5].split(",")[0], "nan"] + lines[5].split(",")[2:])
    csv = tmp_path / "nan.csv"
    csv.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"regressor": {"kind": "edmd"}}))
    assert main(["fit", str(cfg), str(csv), str(tmp_path / "m.json")]) == 3
    err = capsys.readouterr().err
    assert "regression stage" in err and "non-finite" in err
    assert not (tmp_path / "m.json").exists()


def test_fit_seed_reaches_concat_parts(tmp_path, data_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"observables": {"kind": "concat", "parts": [
        {"kind": "rbf", "n_centers": 3},
        {"kind": "random_fourier", "n_features": 4, "seed": 7},
    ]}}))
    out = tmp_path / "m.json"
    assert main(["fit", str(cfg), data_csv, str(out), "--seed", "3", "--quiet"]) == 0
    parts = json.loads(out.read_text())["observables"]["parts"]
    assert [p["seed"] for p in parts] == [3, 7]


def test_simulate_zero_steps(tmp_path, fitted_model):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", fitted_model, str(out), "--x0", "0.5,-0.5",
               "--steps", "0", "--quiet"])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if l.strip()]
    assert len(lines) == 2  # header + x0 row
    assert [float(v) for v in lines[1].split(",")] == [0.0, 0.5, -0.5]


def test_simulate_roundtrip_reproduces_training(tmp_path, fitted_model, data_csv):
    ds = read_trajectory_csv(data_csv)
    x0 = ds.trajectories[0][0]
    steps = ds.trajectories[0].shape[0] - 1
    out = tmp_path / "sim.csv"
    x0_arg = "--x0=" + ",".join(repr(float(v)) for v in x0)
    rc = main(["simulate", fitted_model, str(out), x0_arg, "--steps", str(steps),
               "--quiet"])
    assert rc == 0
    sim = read_trajectory_csv(str(out))
    model = kl.load_model(fitted_model)
    tol = max(10 * model.metadata["residual"], 1e-8)
    np.testing.assert_allclose(
        sim.trajectories[0], ds.trajectories[0], atol=tol
    )


def test_simulate_dimension_mismatch_exits_3(tmp_path, fitted_model):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", fitted_model, str(out), "--x0", "1.0",
               "--steps", "3"])
    assert rc == 3
    assert not out.exists()


def test_a_ragged_x0_exits_3(tmp_path, fitted_model, capsys):
    out = tmp_path / "o.csv"
    rc = main(["simulate", fitted_model, str(out), "--x0=1,2;3", "--steps", "5"])
    assert rc == 3
    assert "--x0 rows must all have the same number of values" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["bench", str(out), "--system", "slow_manifold", "--x0=1;2,3"])
    assert rc == 3
    assert "--x0 rows must all have the same number of values" in capsys.readouterr().err
    assert not out.exists()


def test_a_model_file_whose_copies_disagree_exits_3(tmp_path, fitted_model, capsys):
    d = json.loads(open(fitted_model).read())
    d["n"] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    out = tmp_path / "o.csv"
    rc = main(["simulate", str(bad), str(out), "--x0=1,2,3", "--steps", "5"])
    assert rc == 3
    assert "malformed model file: n is 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x0", ["nan,0.1", "inf,0.1", "0.5,-inf"])
def test_simulate_non_finite_x0_exits_3(tmp_path, fitted_model, x0, capsys):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", fitted_model, str(out), f"--x0={x0}", "--steps", "3"])
    assert rc == 3
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


@pytest.fixture(scope="module")
def controlled_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ctl")
    rng = np.random.default_rng(0)
    u = rng.normal(size=50)
    x = [0.3]
    for k in range(50):
        x.append(0.5 * x[-1] + u[k])
    csv = tmp / "ctl.csv"
    write_trajectory_csv(
        str(csv), [np.array(x)[:, None]], dt=1.0,
        inputs=[np.append(u, 0.0)[:, None]],
    )
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"regressor": {"kind": "dmdc", "n_inputs": 1}}))
    model_path = tmp / "model.json"
    assert main(["fit", str(cfg), str(csv), str(model_path), "--quiet"]) == 0
    return str(model_path), str(tmp)


def test_simulate_controlled_requires_input_csv(tmp_path, controlled_model):
    model_path, _ = controlled_model
    out = tmp_path / "sim.csv"
    rc = main(["simulate", model_path, str(out), "--x0", "2.0", "--steps", "4"])
    assert rc == 3
    assert not out.exists()


def test_simulate_controlled_with_input_csv(tmp_path, controlled_model):
    model_path, _ = controlled_model
    u_csv = tmp_path / "u.csv"
    write_trajectory_csv(str(u_csv), [np.ones((4, 1))], dt=1.0)
    out = tmp_path / "sim.csv"
    rc = main(["simulate", model_path, str(out), "--x0", "2.0", "--steps", "4",
               "--input-csv", str(u_csv), "--quiet"])
    assert rc == 0
    sim = read_trajectory_csv(str(out))
    expected = [2.0]
    for _ in range(4):
        expected.append(0.5 * expected[-1] + 1.0)
    np.testing.assert_allclose(sim.trajectories[0][:, 0], expected, atol=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_non_finite_input_csv_exits_3(tmp_path, controlled_model, bad, capsys):
    model_path, _ = controlled_model
    u_csv = tmp_path / "u.csv"
    write_trajectory_csv(str(u_csv), [np.array([[1.0], [bad], [1.0], [1.0]])], dt=1.0)
    out = tmp_path / "sim.csv"
    rc = main(["simulate", model_path, str(out), "--x0", "2.0", "--steps", "4",
               "--input-csv", str(u_csv), "--quiet"])
    assert rc == 3
    assert not out.exists()
    assert "input at step 1 holds a non-finite value" in capsys.readouterr().err


def test_eig_table_and_csv(fitted_model, capsys):
    assert main(["eig", fitted_model]) == 0
    out = capsys.readouterr().out
    assert "lambda_abs" in out and len(out.splitlines()) == 7
    assert main(["eig", fitted_model, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert rows[0].split(",")[0] == "index"
    assert len(rows) == 7


def test_eig_json_roundtrip(fitted_model, capsys):
    assert main(["eig", fitted_model, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6
    mods = [r["lambda_abs"] for r in rows]
    assert mods == sorted(mods, reverse=True)


def test_eig_scores_on_exact_closure_model(tmp_path, capsys):
    # linear map data with identity observables is exactly closed
    data = tmp_path / "lin.csv"
    assert main(["bench", str(data), "--system", "linear2d", "--x0", "1,0.5",
                 "--steps", "30", "--dt", "1.0", "--quiet"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"regressor": {"kind": "dmd"}}))
    model = tmp_path / "m.json"
    assert main(["fit", str(cfg), str(data), str(model), "--quiet"]) == 0
    assert main(["eig", str(model), "--data", str(data), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(r["score"] <= 1e-6 for r in rows)


def test_eig_corrupt_model_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["eig", str(bad)]) == 3


def test_diff_fd2_quadratic(tmp_path):
    t = np.arange(20) * 0.1
    data = tmp_path / "quad.csv"
    write_trajectory_csv(str(data), [(t**2)[:, None]], dt=0.1)
    out = tmp_path / "deriv.csv"
    assert main(["diff", str(data), str(out), "--method", "fd2", "--quiet"]) == 0
    d = read_trajectory_csv(str(out))
    np.testing.assert_allclose(d.trajectories[0][1:-1, 0], 2 * t[1:-1], atol=1e-12)


def test_diff_unknown_method_exits_2(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("t,x1\n0,1\n1,2\n2,3\n")
    with pytest.raises(SystemExit) as exc:
        main(["diff", str(data), str(tmp_path / "o.csv"), "--method", "nope"])
    assert exc.value.code == 2


def test_diff_bad_window_exits_2(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("t,x1\n0,1\n1,2\n2,3\n")
    rc = main(["diff", str(data), str(tmp_path / "o.csv"),
               "--method", "savitzky_golay", "--window", "4"])
    assert rc == 2


def test_bench_slow_manifold_default(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bench", str(out), "--system", "slow_manifold", "--quiet"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,x2"
    first = lines[1].split(",")
    assert len(first) == 3 and float(first[0]) == 0.0


def test_bench_lorenz_row_count(tmp_path):
    out = tmp_path / "l.csv"
    assert main(["bench", str(out), "--system", "lorenz", "--steps", "1000",
                 "--dt", "0.01", "--quiet"]) == 0
    rows = [l for l in out.read_text().splitlines()[1:] if l.strip()]
    assert len(rows) == 1001


def test_bench_torus_and_params_validation(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["bench", str(out), "--system", "torus", "--steps", "10",
                 "--quiet"]) == 0
    assert len(out.read_text().splitlines()) == 12  # header + 11 rows
    assert main(["bench", str(out), "--system", "vdp_osc", "--params", "mu=oops"]) == 2
    assert main(["bench", str(out), "--system", "lorenz", "--params", "gamma=1"]) == 2


@pytest.mark.parametrize("system", ["torus", "vdp_osc", "linear2d"])
@pytest.mark.parametrize("dt", ["nan", "inf", "-inf", "0", "-0.5"])
def test_bench_refuses_a_bad_dt(tmp_path, capsys, system, dt):
    out = tmp_path / "t.csv"
    assert main(["bench", str(out), "--system", system, "--steps", "10",
                 f"--dt={dt}"]) == 2
    assert "--dt must be a finite real > 0" in capsys.readouterr().err
    assert not out.exists()


def test_bench_unknown_system_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(tmp_path / "x.csv"), "--system", "warp"])
    assert exc.value.code == 2


def test_byte_determinism(tmp_path, data_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "observables": {"kind": "random_fourier", "n_features": 8, "seed": 3},
        "regressor": {"kind": "edmd"},
    }))
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(["fit", str(cfg), data_csv, str(m1), "--quiet"]) == 0
    assert main(["fit", str(cfg), data_csv, str(m2), "--quiet"]) == 0
    assert m1.read_bytes() == m2.read_bytes()
    b1, b2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    for b in (b1, b2):
        assert main(["bench", str(b), "--system", "lorenz", "--steps", "50",
                     "--quiet"]) == 0
    assert b1.read_bytes() == b2.read_bytes()
