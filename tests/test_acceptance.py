"""Acceptance suite: one test per criterion, at the stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""

import json
import time

import numpy as np
import pytest

import kooplift as kl
from kooplift.cli import main as cli_main
from kooplift.csvio import read_trajectory_csv, write_trajectory_csv

from conftest import make_slow_manifold_dataset

TARGET_MUS = (-0.05, -0.1, -1.0)


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _warmup_kernels():
    # trigger jit compilation outside the timed sections
    ds = make_slow_manifold_dataset(grid=2, t_end=0.2)
    model = kl.fit(kl.Polynomial(2), "edmd", ds)
    model.simulate(np.array([0.1, 0.1]), 3)


@pytest.fixture(scope="module")
def full_setup():
    """The full-scale training set: 100 grid initial conditions on [-1, 1]^2,
    2500 samples each at dt = 0.02, with a degree-2 polynomial EDMD fit."""
    _warmup_kernels()
    t0 = time.perf_counter()
    ds = make_slow_manifold_dataset(grid=10, t_end=50.0, dt=0.02)
    model = kl.fit(kl.Polynomial(2), "edmd", ds)
    elapsed = time.perf_counter() - t0
    return ds, model, elapsed


def test_criterion_1_slow_manifold_spectrum(full_setup):
    ds, model, elapsed = full_setup
    assert model.metadata["m"] == 100 * 2499
    mus = model.continuous_eigenvalues()
    errs = [float(np.min(np.abs(mus - t))) for t in TARGET_MUS]
    ok = all(e < 1e-4 for e in errs) and elapsed < 30.0
    _report(
        "criterion 1 (slow-manifold spectrum)", ok,
        f"max |mu - target| = {max(errs):.2e} (tol 1e-4), "
        f"data+fit {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_trajectory_reproduction(full_setup):
    ds, model, _ = full_setup
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=50)
    X0 = np.column_stack([np.cos(theta), np.sin(theta)])
    n_steps = 2499
    spec = kl.get_system("slow_manifold")
    truth = kl.integrate_rk4_batch(spec, X0, ds.dt, n_steps)
    worst = 0.0
    for i in range(50):
        sim = model.simulate(X0[i], n_steps)
        rmse = float(np.sqrt(np.mean((sim - truth[i]) ** 2)))
        worst = max(worst, rmse)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 60.0
    _report(
        "criterion 2 (unseen-trajectory RMSE)", ok,
        f"worst per-trajectory RMSE = {worst:.2e} (tol 1e-3), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_eigenfunction_formula(full_setup):
    _, model, _ = full_setup
    g = np.linspace(-1.0, 1.0, 50)
    P = np.array([[a, b] for a in g for b in g])
    mus = model.continuous_eigenvalues()
    j = int(np.argmin(np.abs(mus - (-1.0))))
    phi = model.eigenfunctions_rows(P)[:, j]
    target = (P[:, 1] - P[:, 0] ** 2 / 0.9).astype(complex)
    f = phi - phi.mean()
    t = target - target.mean()
    corr = abs(np.vdot(f, t)) / (np.linalg.norm(f) * np.linalg.norm(t))
    ok = corr >= 1.0 - 1e-6
    _report(
        "criterion 3 (eigenfunction analytics)", ok,
        f"|corr(phi_mu=-1, x2 - x1^2/0.9)| = {corr:.9f} (>= 1 - 1e-6)",
    )


def test_criterion_4_exact_linear_recovery():
    # DMD eigenvalues of a known stable linear map
    A_true, _ = kl.drss(4, 0, seed=17)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(4, 120))
    res = kl.fit_edmd(X, A_true @ X)
    lam_err = float(
        np.max(np.abs(np.sort_complex(res.eigensystem.lambdas)
                      - np.sort_complex(np.linalg.eigvals(A_true).astype(complex))))
    )
    # DMDc / EDMDc recovery from rich excitation
    A, B = kl.drss(3, 1, seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=3)
    Xc, Xp, U = [], [], []
    for _ in range(200):
        u = rng.normal(size=1)
        xn = A @ x + B @ u
        Xc.append(x)
        Xp.append(xn)
        U.append(u)
        x = xn
    Xc, Xp, U = np.array(Xc).T, np.array(Xp).T, np.array(U).T
    r = kl.fit_edmdc(Xc, Xp, U)
    err = float(max(np.max(np.abs(r.A - A)), np.max(np.abs(r.B - B))))
    ok = lam_err < 1e-10 and err < 1e-8
    _report(
        "criterion 4 (exact linear recovery)", ok,
        f"DMD eigenvalue error {lam_err:.2e} (tol 1e-10); "
        f"DMDc/EDMDc elementwise error {err:.2e} (tol 1e-8)",
    )


def test_criterion_5_kdmd_edmd_equivalence():
    ds = make_slow_manifold_dataset(grid=3, t_end=1.0)
    pairs = kl.build_snapshot_pairs(ds)
    assert pairs.m >= 50
    kernel = kl.KernelConfig(kind="polynomial", degree=2, offset=1.0, reg_eps=0.0)
    res_k = kl.fit_kdmd(pairs.X, pairs.Xprime, kernel)
    lib = kl.Polynomial(2)
    lib.bind(2)
    Z = lib.lift_rows(pairs.X.T.copy()).T
    Zp = lib.lift_rows(pairs.Xprime.T.copy()).T
    res_e = kl.fit_edmd(Z, Zp)
    err = float(
        np.max(np.abs(np.sort_complex(res_k.eigensystem.lambdas)
                      - np.sort_complex(res_e.eigensystem.lambdas)))
    )
    ok = res_k.rank == res_e.rank == 6 and err < 1e-6
    _report(
        "criterion 5 (kernel-EDMD equivalence)", ok,
        f"eigenvalue multiset difference {err:.2e} (tol 1e-6), m = {pairs.m}",
    )


def test_criterion_6_hankel_torus_spectrum():
    dt = 0.1
    k = np.arange(600)
    sig = kl.torus_signal(k * dt)
    scalar = sig[:, 0::2].sum(axis=1)[:, None]  # two-tone scalar signal
    res = kl.fit(kl.TimeDelay(3), "hdmd", kl.TrajectoryDataset([scalar], dt)).regression
    f1, f2 = np.sqrt(2.0) / 5.0, np.sqrt(3.0) / 5.0
    expected = np.array(
        [np.exp(s * 2j * np.pi * f * dt) for f in (f1, f2) for s in (1, -1)]
    )
    err = float(
        np.max(np.abs(np.sort_complex(res.eigensystem.lambdas)
                      - np.sort_complex(expected)))
    )
    ok = res.rank == 4 and err < 1e-6
    _report(
        "criterion 6 (delay-embedded torus spectrum)", ok,
        f"all four unit-modulus eigenvalues within {err:.2e} (tol 1e-6)",
    )


def test_criterion_7_differentiation_exactness():
    t2 = np.linspace(0.0, 2.0, 21)
    fd2 = kl.differentiate(kl.DifferentiationConfig("fd2"), t2**2, t2)
    e_fd2 = float(np.max(np.abs(fd2[1:-1] - 2 * t2[1:-1]) / np.max(2 * t2)))
    fd4 = kl.differentiate(kl.DifferentiationConfig("fd4"), t2**4, t2)
    e_fd4 = float(np.max(np.abs(fd4[2:-2] - 4 * t2[2:-2] ** 3) / np.max(4 * t2**3)))
    sg = kl.differentiate(
        kl.DifferentiationConfig("savitzky_golay", window=7), t2**3, t2
    )
    e_sg = float(np.max(np.abs(sg - 3 * t2**2) / np.max(3 * t2**2)))
    m = 64
    ts = np.arange(m) * (2 * np.pi / m)
    sp = kl.differentiate(
        kl.DifferentiationConfig("spectral", periodic=True), np.sin(ts), ts
    )
    e_sp = float(np.max(np.abs(sp - np.cos(ts))))
    spec = kl.SystemSpec(name="decay", n=1, q=0, params={}, rhs=lambda x, u, t: -x)
    errs = []
    for dt in (0.02, 0.01):
        traj = kl.integrate_rk4(spec, np.array([1.0]), dt, int(round(1.0 / dt)))
        errs.append(abs(traj[-1, 0] - np.exp(-1.0)))
    ratio = errs[0] / errs[1]
    ok = e_fd2 <= 1e-10 and e_fd4 <= 1e-10 and e_sg <= 1e-10 and e_sp <= 1e-10 \
        and ratio >= 12.0
    _report(
        "criterion 7 (differentiation exactness classes)", ok,
        f"fd2 {e_fd2:.1e}, fd4 {e_fd4:.1e}, sg {e_sg:.1e} (rel, tol 1e-10); "
        f"spectral {e_sp:.1e} (tol 1e-10); rk4 halving ratio {ratio:.1f} (>= 12)",
    )


def test_criterion_8_pipeline_invariants(full_setup, slow_manifold_small):
    ds_small = slow_manifold_small
    _, poly_model, _ = full_setup

    # exact reconstruction over 1000 random states for every embedding library
    rng = np.random.default_rng(99)
    states = rng.uniform(-2.0, 2.0, size=(1000, 2))
    libs = [
        kl.Identity(),
        kl.Polynomial(2),
        kl.RadialBasis("thinplate", centers=rng.normal(size=(4, 2))),
        kl.RandomFourier(6, sigma=1.0, seed=0, include_state=True),
        kl.Custom([lambda x: x[0] ** 2]),
        kl.Concat([kl.Identity(), kl.Polynomial(2)]),
    ]
    recon_exact = True
    for lib in libs:
        lib.bind(2)
        Z = lib.lift_rows(states)
        rec = kl.fit_reconstruction(lib, Z.T, states.T)
        recon_exact &= bool(np.array_equal(rec.apply_cols(Z.T), states.T))

    # exactly closed (x1, x2, x1^2) lift for the dynamic identities
    fig1 = kl.fit(kl.Custom([lambda x: x[0] ** 2]), "edmd", ds_small)
    x0 = np.array([-0.8, 0.6])
    whole = fig1.simulate(x0, 40)
    stitched = fig1.simulate(fig1.simulate(x0, 15)[-1], 25)
    semigroup_err = float(np.max(np.abs(stitched - whole[15:])))

    x0t = ds_small.trajectories[0][0]
    table = fig1.koopman_modes()
    K = 200
    powers = table.lambdas[None, :] ** np.arange(K + 1)[:, None]
    recon = (powers * table.amplitudes[None, :]) @ table.modes.T
    mode_sum_err = float(np.max(np.abs(recon.real - fig1.simulate(x0t, K))))

    scores, _ = fig1.linearity_consistency(ds_small)
    score_max = float(np.nanmax(scores))

    eig_res = 0.0
    for model in (poly_model, fig1):
        es = model.regression.eigensystem
        R = model.A @ es.W_right - es.W_right * es.lambdas[None, :]
        eig_res = max(eig_res, float(np.max(np.abs(R)) / np.linalg.norm(model.A)))

    ok = (recon_exact and semigroup_err <= 1e-8 and mode_sum_err <= 1e-8
          and score_max <= 1e-6 and eig_res <= 1e-8)
    _report(
        "criterion 8 (pipeline invariants)", ok,
        f"reconstruction exact: {recon_exact}; semigroup {semigroup_err:.1e} "
        f"(tol 1e-8); mode-sum {mode_sum_err:.1e} (tol 1e-8); linearity scores "
        f"{score_max:.1e} (tol 1e-6); eigen residual {eig_res:.1e} (tol 1e-8)",
    )


def test_criterion_9_cli_roundtrip(tmp_path, slow_manifold_small):
    ds = slow_manifold_small
    data_csv = tmp_path / "train.csv"
    write_trajectory_csv(str(data_csv), ds.trajectories, dt=ds.dt)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "observables": {"kind": "polynomial", "degree": 2},
        "regressor": {"kind": "edmd"},
    }))
    model_path = tmp_path / "model.json"
    assert cli_main(["fit", str(cfg), str(data_csv), str(model_path), "--quiet"]) == 0

    loaded = kl.load_model(str(model_path))
    in_process = kl.fit(kl.Polynomial(2), "edmd", ds)
    x0 = np.array([0.37, -0.81])
    bit_identical = bool(
        np.array_equal(in_process.simulate(x0, 200), loaded.simulate(x0, 200))
    )

    # the CLI CSV path round-trips the same floats exactly
    sim_csv = tmp_path / "sim.csv"
    assert cli_main(["simulate", str(model_path), str(sim_csv),
                     "--x0=0.37,-0.81", "--steps", "200", "--quiet"]) == 0
    sim = read_trajectory_csv(str(sim_csv))
    csv_identical = bool(
        np.array_equal(sim.trajectories[0], in_process.simulate(x0, 200))
    )

    # error paths: nonzero exits, no partial files
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{nope")
    out1 = tmp_path / "no1.json"
    rc_cfg = cli_main(["fit", str(bad_cfg), str(data_csv), str(out1)])
    short_csv = tmp_path / "short.csv"
    short_csv.write_text("t,x1\n0.0,1.0\n")
    out2 = tmp_path / "no2.json"
    rc_data = cli_main(["fit", str(cfg), str(short_csv), str(out2)])
    out3 = tmp_path / "no3.csv"
    rc_sim = cli_main(["simulate", str(model_path), str(out3), "--x0", "1.0",
                       "--steps", "2"])
    errors_clean = (
        rc_cfg == 2 and not out1.exists()
        and rc_data == 3 and not out2.exists()
        and rc_sim == 3 and not out3.exists()
    )
    ok = bit_identical and csv_identical and errors_clean
    _report(
        "criterion 9 (CLI round-trip)", ok,
        f"loaded-model simulate bit-identical: {bit_identical}; CSV round-trip "
        f"exact: {csv_identical}; error paths clean: {errors_clean}",
    )
