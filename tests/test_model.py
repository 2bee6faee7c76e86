import numpy as np
import pytest

import kooplift as kl
from kooplift.errors import ConfigError, DataError, RegressionError

from conftest import make_slow_manifold_dataset

TARGET_MUS = (-0.05, -0.1, -1.0)


def _linear_dataset(A, x0s, steps, dt=1.0):
    trajs = []
    for x0 in x0s:
        rows = [np.asarray(x0, dtype=float)]
        for _ in range(steps):
            rows.append(A @ rows[-1])
        trajs.append(np.array(rows))
    return kl.TrajectoryDataset(trajs, dt=dt)


@pytest.fixture(scope="module")
def diag_model():
    A = np.diag([0.9, 0.5])
    ds = _linear_dataset(A, [[1.0, 0.2], [0.3, 1.0]], 10)
    return kl.fit(kl.Identity(), "dmd", ds)


@pytest.fixture(scope="module")
def fig1_lift_model(slow_manifold_small):
    # the exactly closed (x1, x2, x1^2) embedding
    return kl.fit(kl.Custom([lambda x: x[0] ** 2]), "edmd", slow_manifold_small)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_slow_manifold_spectrum(slow_manifold_poly_model):
    model = slow_manifold_poly_model
    assert model.metadata["rank"] == 6
    mus = model.continuous_eigenvalues()
    for target in TARGET_MUS:
        assert np.min(np.abs(mus - target)) < 1e-4


def test_fit_identity_dmd_recovers_generator(diag_model):
    np.testing.assert_allclose(diag_model.A, np.diag([0.9, 0.5]), atol=1e-10)


def test_fit_empty_dataset():
    with pytest.raises(kl.DataError, match="no trajectories"):
        kl.fit(kl.Identity(), "dmd", kl.TrajectoryDataset([], dt=1.0))


def test_fit_stage_labels(slow_manifold_small):
    with pytest.raises(DataError, match="lifting stage"):
        kl.fit(kl.TimeDelay(10_000), "hdmd", slow_manifold_small)
    zeros = kl.TrajectoryDataset([np.zeros((5, 2))], dt=1.0)
    with pytest.raises(RegressionError, match="regression stage"):
        kl.fit(kl.Identity(), "dmd", zeros)
    tiny = kl.TrajectoryDataset([np.random.default_rng(0).normal(size=(4, 2))], dt=1.0)
    with pytest.raises(DataError, match="reconstruction stage"):
        kl.fit(kl.RandomFourier(32, seed=0, include_state=False), "edmd", tiny)


def test_fit_input_consistency_checks(slow_manifold_small):
    with pytest.raises(ConfigError, match="requires input data"):
        kl.fit(kl.Identity(), "dmdc", slow_manifold_small)
    ds = kl.TrajectoryDataset(
        [np.random.default_rng(0).normal(size=(5, 2))], dt=1.0,
        inputs=[np.ones((5, 1))],
    )
    with pytest.raises(ConfigError, match="unforced"):
        kl.fit(kl.Identity(), "dmd", ds)


def test_fit_kdmd_rejects_nontrivial_observables(slow_manifold_small):
    with pytest.raises(ConfigError, match="identity"):
        kl.fit(kl.Polynomial(2), "kdmd", slow_manifold_small)


def test_regressor_config_validation():
    with pytest.raises(ConfigError, match="unknown regressor kind"):
        kl.RegressorConfig(kind="sindy")
    with pytest.raises(ConfigError, match="delays only applies"):
        kl.RegressorConfig(kind="edmd", delays=2)
    with pytest.raises(ConfigError, match="kernel only applies"):
        kl.RegressorConfig(kind="edmd", kernel=kl.KernelConfig())
    with pytest.raises(ConfigError, match="rank_in/rank_out"):
        kl.RegressorConfig(kind="dmdc", rank=3)
    with pytest.raises(ConfigError, match="controlled"):
        kl.RegressorConfig(kind="edmd", rank_in=3)
    assert kl.RegressorConfig(kind="kdmd").kernel is not None


@pytest.mark.parametrize("controlled", [False, True])
def test_conflicting_delays_are_rejected(controlled):
    ds = _controlled_linear_dataset()
    if not controlled:
        ds = kl.TrajectoryDataset(ds.trajectories, ds.dt)
    kind = "hdmdc" if controlled else "hdmd"
    with pytest.raises(ConfigError, match=r"delays=5 conflicts with TimeDelay\(2\)"):
        kl.fit(kl.TimeDelay(2), kl.RegressorConfig(kind=kind, delays=5), ds)
    # delays equal to the library's, or left at 0, defer to the library
    same = kl.fit(kl.TimeDelay(2), kl.RegressorConfig(kind=kind, delays=2), ds)
    default = kl.fit(kl.TimeDelay(2), kind, ds)
    np.testing.assert_array_equal(same.A, default.A)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_linear(diag_model):
    np.testing.assert_allclose(
        diag_model.predict(np.array([1.0, 1.0])), [0.9, 0.5], atol=1e-10
    )


def test_predict_fixed_point(slow_manifold_poly_model):
    out = slow_manifold_poly_model.predict(np.zeros(2))
    assert np.max(np.abs(out)) <= 1e-8


def _controlled_scalar_model():
    rng = np.random.default_rng(7)
    u = rng.normal(size=40)
    x = [0.3]
    for k in range(40):
        x.append(0.5 * x[-1] + 1.0 * u[k])
    ds = kl.TrajectoryDataset(
        [np.array(x)[:, None]], dt=1.0, inputs=[np.append(u, 0.0)[:, None]]
    )
    return kl.fit(kl.Identity(), "dmdc", ds)


def test_fitted_model_is_read_only(slow_manifold_poly_model):
    for model in (slow_manifold_poly_model, _controlled_scalar_model()):
        eig = model.regression.eigensystem
        arrays = [model.A, model.z0_train, model.training_scores, model.eigenvalues,
                  model.continuous_eigenvalues(), eig.W_right, eig.W_left, model.C.C]
        if model.controlled:
            arrays.append(model.B)
        else:
            arrays.append(model.regression.modes_exact)
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        with pytest.raises(TypeError):
            model.metadata["rank"] = 0
        with pytest.raises(TypeError):
            del model.metadata["findings"]
        for owner, name in ((model, "metadata"), (model, "z0_train"), (model, "A"),
                            (model.regression, "A"), (eig, "lambdas"), (model.C, "C")):
            with pytest.raises(AttributeError):
                setattr(owner, name, getattr(owner, name))
        assert isinstance(model.regression.findings, tuple)
        assert isinstance(eig.findings, tuple)


def test_fit_leaves_the_callers_library_alone(slow_manifold_small):
    lib = kl.RadialBasis("gauss", n_centers=5, seed=3)
    other = make_slow_manifold_dataset(grid=2, t_end=2.0)
    first = kl.fit(lib, "edmd", slow_manifold_small)
    second = kl.fit(lib, "edmd", other)
    assert lib.n_input is None and lib.centers is None
    assert first.observables is not second.observables
    fresh = kl.fit(kl.RadialBasis("gauss", n_centers=5, seed=3), "edmd", other)
    np.testing.assert_array_equal(second.observables.centers, fresh.observables.centers)
    np.testing.assert_array_equal(second.eigenvalues, fresh.eigenvalues)
    assert not np.array_equal(first.observables.centers, second.observables.centers)


def test_predict_controlled_scalar():
    model = _controlled_scalar_model()
    assert model.controlled and model.q == 1
    assert model.A[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert model.B[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert model.predict(np.array([2.0]), u=np.array([1.0]))[0] == pytest.approx(2.0, abs=1e-9)


def test_predict_input_validation(diag_model):
    with pytest.raises(DataError, match="unforced"):
        diag_model.predict(np.array([1.0, 1.0]), u=np.array([1.0]))
    model = _controlled_scalar_model()
    with pytest.raises(DataError, match="controlled"):
        model.predict(np.array([1.0]))


def test_predict_composition_identity(slow_manifold_poly_model):
    model = slow_manifold_poly_model
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        manual = model.C.apply_vec(model.A @ model.observables.lift(x))
        np.testing.assert_allclose(model.predict(x), manual, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_zero_steps(diag_model):
    out = diag_model.simulate(np.array([0.4, -0.2]), 0)
    np.testing.assert_array_equal(out, [[0.4, -0.2]])


def test_simulate_equals_one_predict(diag_model):
    x0 = np.array([0.7, -1.2])
    np.testing.assert_array_equal(
        diag_model.simulate(x0, 1)[1], diag_model.predict(x0)
    )


def test_simulate_matches_relifted_predict_for_exact_closure(fig1_lift_model):
    model = fig1_lift_model
    x0 = np.array([0.8, -0.6])
    sim = model.simulate(x0, 30)
    x = x0
    for k in range(1, 31):
        x = model.predict(x)
        assert np.max(np.abs(x - sim[k])) <= 1e-8


def test_simulate_semigroup_property(fig1_lift_model):
    model = fig1_lift_model
    x0 = np.array([-0.9, 0.4])
    whole = model.simulate(x0, 40)
    first = model.simulate(x0, 15)
    second = model.simulate(first[-1], 25)
    np.testing.assert_allclose(second, whole[15:], atol=1e-8)


def test_simulate_input_validation():
    model = _controlled_scalar_model()
    with pytest.raises(DataError, match="controlled"):
        model.simulate(np.array([1.0]), 5)
    with pytest.raises(DataError, match="shape"):
        model.simulate(np.array([1.0]), 5, U=np.ones((1, 4)))
    out = model.simulate(np.array([1.0]), 5, U=np.zeros((1, 5)))
    assert out.shape == (6, 1)
    np.testing.assert_allclose(out[:, 0], 1.0 * 0.5 ** np.arange(6), atol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simulate_refuses_a_non_finite_start_or_input(bad):
    x0 = np.array([bad, 0.1])
    diag = kl.fit(kl.Identity(), "dmd", _linear_dataset(np.diag([0.9, 0.5]),
                                                          [[1.0, 0.2], [0.3, 1.0]], 10))
    with pytest.raises(DataError, match="initial state holds a non-finite value"):
        diag.simulate(x0, 5)
    delay = kl.fit(None, kl.RegressorConfig(kind="hdmd", delays=2),
                   kl.TrajectoryDataset([np.cos(0.1 * np.arange(60))[:, None]], dt=0.1))
    window = np.array([[0.3], [bad], [0.1]])
    with pytest.raises(DataError, match="initial state holds a non-finite value"):
        delay.simulate(window, 5)
    with pytest.raises(DataError, match="initial state holds a non-finite value"):
        delay.simulate(window.ravel(), 5)  # an already embedded window
    controlled = _controlled_scalar_model()
    U = np.zeros((1, 5))
    U[0, 3] = bad
    with pytest.raises(DataError, match="input at step 3 holds a non-finite value"):
        controlled.simulate(np.array([1.0]), 5, U=U)
    with pytest.raises(DataError, match="initial state holds a non-finite value"):
        controlled.simulate(np.array([bad]), 5, U=np.zeros((1, 5)))


def test_simulate_of_a_kdmd_model_is_one_product_per_mode_and_step():
    c, s = 0.95 * np.cos(0.3), 0.95 * np.sin(0.3)
    data = _linear_dataset(np.array([[c, -s], [s, c]]),
                           [[1.0, 0.2], [0.3, -1.0], [-0.5, 0.7], [0.8, 0.8]], 25)
    model = kl.fit(None, kl.RegressorConfig(kind="kdmd", rank=7), data)
    lam = np.diagonal(model.A)
    assert np.array_equal(model.A, np.diag(lam)) and (lam.imag != 0).any()
    x0 = np.array([0.6, -0.4])
    z = model.observables.lift(x0).astype(complex).tolist()
    rows = []
    for _ in range(300):  # per step, each mode's textbook complex product
        z = [complex(v.real * l.real - v.imag * l.imag, v.real * l.imag + v.imag * l.real)
             for v, l in zip(z, lam.tolist())]
        rows.append(z)
    states = model.C.apply_cols(np.array(rows).T).T.real
    sim = model.simulate(x0, 300)
    np.testing.assert_array_equal(sim[0], x0)
    np.testing.assert_array_equal(sim[1:], states)
    np.testing.assert_array_equal(model.simulate(x0, 1)[1], model.predict(x0))


@pytest.mark.parametrize("n_steps", [-1, True, False, 2.5, 3.0, "3", None])
def test_simulate_refuses_a_step_count_that_is_not_a_count(fig1_lift_model, n_steps):
    with pytest.raises(DataError, match="n_steps must be an integer >= 0"):
        fig1_lift_model.simulate(np.array([0.5, 0.2]), n_steps)
    assert fig1_lift_model.simulate(np.array([0.5, 0.2]), np.int64(2)).shape == (3, 2)


# ---------------------------------------------------------------------------
# spectral analytics
# ---------------------------------------------------------------------------

def _abs_corr(f, g):
    f = np.asarray(f, dtype=complex) - np.mean(f)
    g = np.asarray(g, dtype=complex) - np.mean(g)
    return abs(np.vdot(f, g)) / (np.linalg.norm(f) * np.linalg.norm(g))


@pytest.fixture(scope="module")
def grid_points():
    g = np.linspace(-1.0, 1.0, 50)
    return np.array([[a, b] for a in g for b in g])


def test_eigenfunction_slow_mode_is_x1(slow_manifold_poly_model, grid_points):
    model = slow_manifold_poly_model
    mus = model.continuous_eigenvalues()
    j = int(np.argmin(np.abs(mus - (-0.05))))
    phi = model.eigenfunctions_rows(grid_points)[:, j]
    assert _abs_corr(phi, grid_points[:, 0]) >= 1.0 - 1e-6


def test_eigenfunction_fast_mode_formula(slow_manifold_poly_model, grid_points):
    # analytic eigenfunction for mu = -1 is proportional to x2 - x1^2 / 0.9
    model = slow_manifold_poly_model
    mus = model.continuous_eigenvalues()
    j = int(np.argmin(np.abs(mus - (-1.0))))
    phi = model.eigenfunctions_rows(grid_points)[:, j]
    target = grid_points[:, 1] - grid_points[:, 0] ** 2 / 0.9
    assert _abs_corr(phi, target) >= 1.0 - 1e-6


def test_eigenfunctions_vanish_at_origin(slow_manifold_poly_model):
    # monomials vanish at 0, so eigenfunctions without a constant-feature
    # component must too; that is exactly the closed-subspace modes here
    model = slow_manifold_poly_model
    phi = model.eigenfunctions(np.zeros(2))
    mus = model.continuous_eigenvalues()
    for target in TARGET_MUS:
        j = int(np.argmin(np.abs(mus - target)))
        assert abs(phi[j]) < 1e-8
        assert abs(model.regression.eigensystem.W_left[0, j]) < 1e-8


def test_eigenfunctions_batch_matches_single(slow_manifold_poly_model):
    model = slow_manifold_poly_model
    x = np.array([0.3, -0.4])
    np.testing.assert_allclose(
        model.eigenfunctions_rows(x[None, :])[0], model.eigenfunctions(x),
        rtol=1e-12, atol=1e-14,
    )


def test_koopman_modes_diagonal(diag_model):
    table = diag_model.koopman_modes()
    assert len(table) == 2
    for j in range(2):
        v = table.modes[:, j]
        v = v / v[np.argmax(np.abs(v))]
        expected = np.zeros(2)
        expected[j] = 1.0
        np.testing.assert_allclose(v.real, expected, atol=1e-10)
        np.testing.assert_allclose(v.imag, 0.0, atol=1e-10)


def test_mode_sum_reproduces_simulate(fig1_lift_model, slow_manifold_small):
    model = fig1_lift_model
    x0 = slow_manifold_small.trajectories[0][0]
    table = model.koopman_modes()
    K = 100
    sim = model.simulate(x0, K)
    powers = table.lambdas[None, :] ** np.arange(K + 1)[:, None]
    recon = (powers * table.amplitudes[None, :]) @ table.modes.T
    assert np.max(np.abs(recon.real - sim)) <= 1e-8
    assert np.max(np.abs(recon.imag)) <= 1e-8


def test_mode_for_slow_eigenvalue_has_no_x2_component(fig1_lift_model):
    # reconstruction column for the x1 eigenfunction is (1, 0)
    table = fig1_lift_model.koopman_modes()
    j = int(np.argmin(np.abs(table.mus - (-0.05))))
    v = table.modes[:, j]
    assert abs(v[1]) <= 1e-6 * abs(v[0])


def test_mode_table_rows(diag_model):
    rows = diag_model.koopman_modes().as_rows()
    assert len(rows) == 2
    assert set(rows[0]) == {"lambda", "mu", "mode", "amplitude", "score"}


# ---------------------------------------------------------------------------
# linearity consistency
# ---------------------------------------------------------------------------

def test_linearity_scores_exact_closure(fig1_lift_model, slow_manifold_small):
    scores, findings = fig1_lift_model.linearity_consistency(slow_manifold_small)
    assert findings == []
    assert np.nanmax(scores) <= 1e-6
    np.testing.assert_allclose(scores, fig1_lift_model.training_scores, atol=1e-12)


def test_linearity_scores_degrade_under_truncation():
    ds = make_slow_manifold_dataset(grid=3, t_end=2.0)
    wide = kl.TrajectoryDataset([2.0 * t for t in ds.trajectories], dt=ds.dt)
    truncated = kl.fit(kl.Polynomial(2), kl.RegressorConfig(kind="edmd", rank=2), wide)
    assert np.nanmax(truncated.training_scores) > 1e-2


def test_linearity_scores_identity_dynamics():
    trajs = [np.tile([1.0, 2.0], (6, 1)), np.tile([0.5, -1.0], (6, 1))]
    ds = kl.TrajectoryDataset(trajs, dt=1.0)
    model = kl.fit(kl.Identity(), "dmd", ds)
    scores, _ = model.linearity_consistency(ds)
    np.testing.assert_allclose(model.eigenvalues, np.ones(model.metadata["rank"]))
    assert np.nanmax(scores) <= 1e-12


def test_linearity_nan_sentinel():
    from kooplift.model import _consistency_scores

    # with A = I the eigenfunctions are the lifted coordinates themselves
    res = kl.RegressionResult(A=np.eye(2), eigensystem=kl.eig_biorthogonal(np.eye(2)))
    phi_x = np.array([[0.0, 0.0], [1.0, 2.0]])
    phi_xp = np.array([[0.0, 0.0], [1.0, 2.0]])
    pairs = kl.SnapshotPairs.from_columns(phi_x, phi_xp)
    scores, findings = _consistency_scores(res, pairs)
    assert np.isnan(scores[0]) and scores[1] == 0.0
    assert len(findings) == 1 and findings[0].kind == "vanishing-eigenfunction"


def _complex_scores(regression, pairs):
    # the direct route: eigenfunction values in complex arithmetic, whole rows,
    # in extended precision (x86 long double, unit roundoff 5.4e-20) from the
    # same float64 eigenvectors and pairs
    Wh = regression.eigensystem.W_left.conj().T.astype(np.clongdouble)
    phi_x = Wh @ pairs.X.astype(np.clongdouble)
    phi_xp = Wh @ pairs.Xprime.astype(np.clongdouble)
    res = phi_xp - regression.eigensystem.lambdas.astype(np.clongdouble)[:, None] * phi_x
    norm = lambda Z: np.sqrt((Z.real**2 + Z.imag**2).sum(axis=1))  # noqa: E731
    return (norm(res) / norm(phi_x)).astype(float), norm(phi_x).astype(float)


@pytest.mark.parametrize("kind", ["edmd", "kdmd"])
def test_chunked_scores_match_a_complex_reference(kind, slow_manifold_small):
    from kooplift.model import SCORE_CHUNK

    ds = make_slow_manifold_dataset(grid=3, t_end=2.0)
    if kind == "kdmd":
        model = kl.fit(None, kl.RegressorConfig(kind="kdmd", rank=8),
                       _short_slow_manifold(slow_manifold_small))
    else:
        model = kl.fit(kl.Polynomial(3), "edmd", ds)
    # 21 x 999 pairs: more than 20,000, in a last block shorter than the others
    x0 = np.random.default_rng(4).uniform(-1.0, 1.0, size=(21, 2))
    trajs = kl.integrate_rk4_batch(kl.get_system("slow_manifold"), x0, 0.02, 999)
    big = kl.TrajectoryDataset(list(trajs), dt=0.02)
    pairs = kl.build_snapshot_pairs(big, model.observables)
    assert pairs.m > 20_000 and pairs.m % SCORE_CHUNK != 0
    assert np.iscomplexobj(pairs.X) == (kind == "kdmd")
    scores, findings = model.linearity_consistency(big)
    assert findings == []
    ref, phi_norm = _complex_scores(model.regression, pairs)
    large = ref > 1e-10
    np.testing.assert_allclose(scores[large], ref[large], rtol=1e-12)
    # near-exact closure: the float64 score is rounding noise of the residual.
    # Each phi_j(x) is a sum of N products (2N for complex pairs), wrong by at
    # most gamma ||w_j|| ||x|| with gamma ~ terms * eps / 2 (per real and
    # imaginary part, so sqrt(2) for the complex value); applying lambda_j and
    # the subtraction add a few eps of |phi|, which is at most ||w_j|| ||x||.
    # Over all pairs the residual's norm is then off by at most that much
    # times ||X'||_F + |lambda_j| ||X||_F, and the score by that over
    # ||phi_j(X)||.
    eps = np.finfo(float).eps
    terms = pairs.n_features * (2 if kind == "kdmd" else 1)
    es = model.regression.eigensystem
    bound = (np.sqrt(2) * (terms + 8) * eps * np.linalg.norm(es.W_left, axis=0)
             * (np.linalg.norm(pairs.Xprime) + np.abs(es.lambdas) * np.linalg.norm(pairs.X))
             / phi_norm)
    assert np.all(np.abs(scores - ref)[~large] <= bound[~large])


def test_chunked_scores_of_complex_pairs_under_complex_eigenvectors():
    from kooplift.model import SCORE_CHUNK, _consistency_scores

    # kdmd's complex pairs meet only identity eigenvectors; this covers both complex
    rng = np.random.default_rng(6)
    A = rng.normal(size=(4, 4))
    res = kl.RegressionResult(A=A, eigensystem=kl.eig_biorthogonal(A))
    assert np.iscomplexobj(res.eigensystem.lambdas) and np.any(res.eigensystem.lambdas.imag)
    m = 4 * SCORE_CHUNK + 979
    X = rng.normal(size=(4, m)) + 1j * rng.normal(size=(4, m))
    pairs = kl.SnapshotPairs.from_columns(X, A @ X + 0.1 * rng.normal(size=(4, m)))
    scores, _ = _consistency_scores(res, pairs)
    np.testing.assert_allclose(scores, _complex_scores(res, pairs)[0], rtol=1e-12)


def _small_vdp_rbf_control():
    # a small fit like the vdp_rbf_control benchmark's: real pairs, and a
    # spectrum of conjugate pairs and real eigenvalues
    rng = np.random.default_rng(21)
    x0 = rng.uniform(-2.0, 2.0, size=(6, 2))
    U = np.repeat(rng.uniform(-1.0, 1.0, size=(6, 15, 1)), 20, axis=1)
    trajs = kl.integrate_rk4_batch(kl.get_system("vdp_osc"), x0, 0.01, 300, U)
    data = kl.TrajectoryDataset(list(trajs), 0.01, [np.vstack([u, u[-1:]]) for u in U])
    return kl.fit(kl.RadialBasis("gauss", n_centers=20, seed=3), "edmdc", data), data


def _spy_score_rows(monkeypatch):
    # the shapes of the row matrices the score pass builds
    shapes = []
    real_rows = kl.model._real_rows

    def spy(*args):
        rows = real_rows(*args)
        shapes.append(rows.shape)
        return rows

    monkeypatch.setattr(kl.model, "_real_rows", spy)
    return shapes


def _twins(eigensystem):
    # modes whose eigenvalue and left vector are the exact conjugates of the
    # mode before them
    lam, W = eigensystem.lambdas, eigensystem.W_left
    return [j for j in range(1, len(lam))
            if lam[j] == lam[j - 1].conj() and np.array_equal(W[:, j], W[:, j - 1].conj())]


def test_conjugate_twins_take_their_partners_score():
    model, data = _small_vdp_rbf_control()
    twins = _twins(model.regression.eigensystem)
    assert len(twins) >= 5 and all(model.eigenvalues[twins].imag != 0)
    scores, findings = model.linearity_consistency(data)
    assert findings == []
    for j in twins:
        assert scores[j] == scores[j - 1]
    np.testing.assert_array_equal(scores, model.training_scores)
    pairs = kl.build_snapshot_pairs(data, model.observables)
    np.testing.assert_allclose(scores, _complex_scores(model.regression, pairs)[0], rtol=1e-10)


@pytest.mark.parametrize("fit", ["vdp_rbf_control", "slow_manifold_poly2"])
def test_real_pairs_score_one_row_per_mode_and_one_per_complex_mode(fit, monkeypatch):
    if fit == "vdp_rbf_control":
        model, data = _small_vdp_rbf_control()
    else:
        data = make_slow_manifold_dataset(grid=3, t_end=2.0)
        model = kl.fit(kl.Polynomial(2), "edmd", data)
    es = model.regression.eigensystem
    twins = _twins(es)
    kept = [j for j in range(len(es.lambdas)) if j not in twins]
    real = [j for j in kept if es.lambdas[j].imag == 0 and not es.W_left[:, j].imag.any()]
    shapes = _spy_score_rows(monkeypatch)
    model.linearity_consistency(data)
    assert shapes == [(2 * len(kept) - len(real), model.A.shape[0])]
    if fit == "vdp_rbf_control":
        assert twins
    else:
        assert not twins and len(real) == len(kept)  # a real spectrum: no Im rows


def test_complex_pairs_score_every_mode_on_two_rows(slow_manifold_small, monkeypatch):
    model = kl.fit(None, kl.RegressorConfig(kind="kdmd", rank=8),
                   _short_slow_manifold(slow_manifold_small))
    r = len(model.eigenvalues)
    assert r == 8 and _twins(model.regression.eigensystem) == []
    shapes = _spy_score_rows(monkeypatch)
    model.linearity_consistency(slow_manifold_small)
    assert shapes == [(2 * r, 2 * model.A.shape[0])]


def test_vanishing_eigenfunctions_are_found_by_their_zero_norm():
    from kooplift.model import _consistency_scores

    # a rotation (a conjugate pair, the second a twin) and a real mode; the
    # data never leave the real mode's coordinate, so the pair's phi vanish
    A = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
    res = kl.RegressionResult(A=A, eigensystem=kl.eig_biorthogonal(A))
    assert _twins(res.eigensystem) == [1]
    X = np.zeros((3, 4))
    X[2] = [1.0, -2.0, 3.0, 0.5]
    scores, findings = _consistency_scores(res, kl.SnapshotPairs.from_columns(X, A @ X))
    assert np.isnan(scores[:2]).all() and scores[2] == 0.0
    assert [f.kind for f in findings] == ["vanishing-eigenfunction"] * 2
    assert [f.message.split(":")[0] for f in findings] == ["mode 0", "mode 1"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_validation_data_are_refused(bad, monkeypatch):
    monkeypatch.setattr(kl.model, "SCORE_CHUNK", 5)
    data = make_slow_manifold_dataset(grid=3, t_end=2.0)
    model = kl.fit(kl.Polynomial(2), "edmd", data)
    trajs = [t.copy() for t in data.trajectories[:3]]
    T = trajs[0].shape[0]
    trajs[1][4, 0] = bad  # pair T - 1 + 3 holds it as X', pair T - 1 + 4 as X
    blocks = []
    real_blocks = kl.SnapshotPairs.blocks

    def spy(self, size, out=None):
        blocks.append(size)
        return real_blocks(self, size, out)

    monkeypatch.setattr(kl.SnapshotPairs, "blocks", spy)
    good = kl.TrajectoryDataset(trajs[:1] + trajs[2:], data.dt)
    scores, findings = model.linearity_consistency(good)
    assert np.isfinite(scores).all() and findings == [] and blocks == [5]
    with pytest.raises(DataError, match=f"snapshot pair {T + 2} holds a non-finite value"):
        model.linearity_consistency(kl.TrajectoryDataset(trajs, data.dt))


def test_an_overflow_in_the_score_pass_still_warns(slow_manifold_small):
    model = kl.fit(kl.Polynomial(2), "edmd", slow_manifold_small)
    # squares near the float limit: the lifted pairs are finite, the rows
    # applied to them are not
    trajs = [t / np.abs(t).max() * 1.3e154 for t in slow_manifold_small.trajectories[:2]]
    with pytest.warns(RuntimeWarning) as record:
        model.linearity_consistency(kl.TrajectoryDataset(trajs, slow_manifold_small.dt))
    assert any("overflow encountered in matmul" in str(w.message) for w in record)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_scores_whose_sums_overflow_are_nan_with_a_finding(scale):
    # an exact dmd fit of a rotation; on the scaled trajectory the squared
    # eigenfunction values overflow (at 1e160 only their sum over X, at 1e300
    # the residual's too), with no warning from the score pass
    c, s = np.cos(0.3), np.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    traj = np.array([np.linalg.matrix_power(R, k) @ [1.0, 0.5] for k in range(20)])
    model = kl.fit(None, "dmd", kl.TrajectoryDataset([traj], dt=0.1))
    scores, findings = model.linearity_consistency(kl.TrajectoryDataset([traj * scale], 0.1))
    assert np.isnan(scores).all()
    assert [f.kind for f in findings] == ["score-overflow"] * 2
    assert [f.message.split(":")[0] for f in findings] == ["mode 0", "mode 1"]
    scores, findings = model.linearity_consistency(kl.TrajectoryDataset([traj], 0.1))
    assert np.all(scores < 1e-12) and findings == []


def test_scores_over_blocks_across_trajectories_match_a_stacked_reference(monkeypatch):
    from kooplift.model import _real_rows

    monkeypatch.setattr(kl.regression, "QR_CHUNK", 7)
    monkeypatch.setattr(kl.model, "SCORE_CHUNK", 5)
    # 6, 9 and 4 pairs with one input channel: every block of 5 or 7 pairs
    # but the first crosses a trajectory boundary or sits between two
    rng = np.random.default_rng(12)
    trajs = [rng.uniform(-1.0, 1.0, size=(T, 2)) for T in (7, 10, 5)]
    inputs = [rng.uniform(-1.0, 1.0, size=(T, 1)) for T in (7, 10, 5)]
    ds = kl.TrajectoryDataset(trajs, 0.1, inputs)
    model = kl.fit(kl.Polynomial(2), "edmdc", ds)
    pairs = kl.build_snapshot_pairs(ds, model.observables)
    # the same fit on the stacked matrices, one segment
    stacked = kl.fit_edmdc(pairs.X, pairs.Xprime, pairs.U, dt=0.1)
    np.testing.assert_array_equal(model.A, stacked.A)
    np.testing.assert_array_equal(model.B, stacked.B)
    # the scores written out on column slices of the stacked (N, m) matrices
    X, Xp = pairs.X, pairs.Xprime
    es = model.regression.eigensystem
    r = es.rank
    rows = _real_rows(es.W_left.conj().T, False)
    lr, li = es.lambdas.real[:, None], es.lambdas.imag[:, None]
    num, den = np.zeros(2 * r), np.zeros(2 * r)
    for a in range(0, pairs.m, 5):
        P, Q = rows @ Xp[:, a:a + 5], rows @ X[:, a:a + 5]
        den += np.einsum("ij,ij->i", Q, Q)
        P[:r] -= lr * Q[:r] - li * Q[r:]
        P[r:] -= lr * Q[r:] + li * Q[:r]
        num += np.einsum("ij,ij->i", P, P)
    expected = np.sqrt(num[:r] + num[r:]) / np.sqrt(den[:r] + den[r:])
    np.testing.assert_array_equal(model.training_scores, expected)
    np.testing.assert_array_equal(model.linearity_consistency(ds)[0], expected)


def test_fit_holds_the_lifted_pairs_once():
    import tracemalloc

    x0 = np.random.default_rng(5).uniform(-1.0, 1.0, size=(20, 2))
    trajs = kl.integrate_rk4_batch(kl.get_system("slow_manifold"), x0, 0.02, 1999)
    ds = kl.TrajectoryDataset(list(trajs), dt=0.02)
    tracemalloc.start()
    try:
        model = kl.fit(kl.RadialBasis("gauss", n_centers=50, seed=0), "edmd", ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N = model.A.shape[0]
    lifted = ds.n_samples * N * 8  # every trajectory lifted once
    # one TSQR step holds its block of pairs below R, and np.linalg.qr's copy
    # of the two; pairs stacked into X and X' would add two more lifted copies
    step = 2 * (2 * N + kl.regression.QR_CHUNK) * 2 * N * 8
    assert peak < 1.5 * lifted + step, (peak, lifted, step)


def test_eigenfunctions_rows_refuse_a_batch_that_is_not_2d(diag_model):
    assert diag_model.eigenfunctions_rows(np.ones((3, 2))).shape == (3, 2)
    for shape in ((2,), (1, 3, 2)):
        with pytest.raises(DataError, match="2-d array of rows"):
            diag_model.eigenfunctions_rows(np.ones(shape))

def _controlled_linear_dataset():
    A, B = kl.drss(2, 1, seed=3)
    rng = np.random.default_rng(0)
    U = rng.normal(size=(60, 1))
    rows = [rng.normal(size=2)]
    for u in U[:-1]:
        rows.append(A @ rows[-1] + B @ u)
    return kl.TrajectoryDataset([np.array(rows)], dt=0.5, inputs=[U])


def _short_slow_manifold(dataset):
    return kl.TrajectoryDataset([t[:30] for t in dataset.trajectories[:4]], dt=dataset.dt)


@pytest.mark.parametrize("kind", ["edmd", "edmdc", "hdmd", "kdmd"])
def test_training_scores_are_the_training_data_consistency(kind, slow_manifold_small):
    data = {
        "edmd": slow_manifold_small,
        "edmdc": _controlled_linear_dataset(),
        "hdmd": slow_manifold_small,
        "kdmd": _short_slow_manifold(slow_manifold_small),
    }[kind]
    library = kl.Polynomial(2) if kind in ("edmd", "edmdc") else None
    regressor = kl.RegressorConfig(kind="hdmd", delays=2) if kind == "hdmd" else kind
    model = kl.fit(library, regressor, data)
    scores, _ = model.linearity_consistency(data)
    np.testing.assert_array_equal(model.training_scores, scores)


def test_scores_bounded_by_residual_over_sigma_min(slow_manifold_poly_model):
    m = slow_manifold_poly_model
    bound = m.metadata["residual_fro"] / m.metadata["sigma_min"]
    assert np.nanmax(m.training_scores) <= bound * (1 + 1e-9)


# ---------------------------------------------------------------------------
# continuous eigenvalues
# ---------------------------------------------------------------------------

def test_continuous_eigenvalue_arithmetic(diag_model):
    es = kl.eig_biorthogonal(np.diag([np.exp(-0.02), 1.0]), dt=0.02)
    assert es.mus[1] == pytest.approx(-1.0, abs=1e-12)
    assert es.mus[0] == pytest.approx(0.0, abs=1e-12)
    # a 7-digit rounding of exp(-0.02) lands 1.4e-6 away from mu = -1
    es2 = kl.eig_biorthogonal(np.array([[0.9801987]]), dt=0.02)
    assert es2.mus[0].real == pytest.approx(-0.999998638375819, abs=1e-12)
    assert es2.mus[0].real == pytest.approx(-1.0, abs=2e-6)


def test_model_reports_branch_findings():
    A = np.diag([-0.5, 0.25])
    ds = _linear_dataset(A, [[1.0, 1.0], [0.5, -1.0]], 8)
    model = kl.fit(kl.Identity(), "dmd", ds)
    assert any(f.kind == "negative-real-eigenvalue" for f in model.metadata["findings"])


# ---------------------------------------------------------------------------
# eigen residual and reconstruction invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture_name", ["slow_manifold_poly_model", "diag_model",
                                          "fig1_lift_model"])
def test_eigen_residual_bound(fixture_name, request):
    model = request.getfixturevalue(fixture_name)
    es = model.regression.eigensystem
    R = model.A @ es.W_right - es.W_right * es.lambdas[None, :]
    assert np.max(np.abs(R)) <= 1e-8 * np.linalg.norm(model.A)


def test_reconstruction_exact_on_lifted_training_data(slow_manifold_poly_model,
                                                      slow_manifold_small):
    model = slow_manifold_poly_model
    pairs = kl.build_snapshot_pairs(slow_manifold_small)
    Z = model.observables.lift_rows(pairs.X.T.copy()).T
    np.testing.assert_array_equal(model.C.apply_cols(Z), pairs.X)


# ---------------------------------------------------------------------------
# time-delay and kernel pipelines
# ---------------------------------------------------------------------------

def test_time_delay_pipeline_roundtrip():
    dt, omega = 0.1, 1.1
    k = np.arange(300)
    sig = np.cos(omega * k * dt)[:, None]
    ds = kl.TrajectoryDataset([sig], dt=dt)
    model = kl.fit(None, kl.RegressorConfig(kind="hdmd", delays=2), ds)
    assert isinstance(model.observables, kl.TimeDelay)
    window = sig[:3]  # oldest first
    sim = model.simulate(window, 50)
    np.testing.assert_allclose(sim[:, 0], np.cos(omega * (k[2:53]) * dt), atol=1e-8)
    # first output row is the most recent window state
    assert sim[0, 0] == sig[2, 0]
    one = model.predict(window)
    np.testing.assert_allclose(one[0], sim[1, 0], atol=1e-12)


def test_hdmdc_pipeline():
    rng = np.random.default_rng(5)
    a, b = 0.7, 0.5
    u = rng.normal(size=80)
    x = [0.1]
    for k in range(80):
        x.append(a * x[-1] + b * u[k])
    ds = kl.TrajectoryDataset(
        [np.array(x)[:, None]], dt=1.0, inputs=[np.append(u, 0.0)[:, None]]
    )
    model = kl.fit(None, kl.RegressorConfig(kind="hdmdc", delays=1), ds)
    assert model.controlled
    window = np.array([[0.0], [1.0]])
    out = model.predict(window, u=np.array([0.25]))
    assert out[0] == pytest.approx(a * 1.0 + b * 0.25, abs=1e-8)


def test_kdmd_pipeline_linear_data():
    A = np.diag([0.9, 0.5])
    ds = _linear_dataset(A, [[1.0, 0.2], [0.3, 1.0], [-0.5, 0.7]], 20)
    model = kl.fit(None, kl.RegressorConfig(
        kind="kdmd", kernel=kl.KernelConfig(kind="polynomial", degree=2)), ds)
    x = np.array([0.4, -0.3])
    np.testing.assert_allclose(model.predict(x), A @ x, atol=1e-8)
    sim = model.simulate(np.array([1.0, 0.5]), 10)
    truth = np.array([[0.9**k, 0.5**k] for k in range(11)]) * np.array([1.0, 0.5])
    np.testing.assert_allclose(sim, truth, atol=1e-8)
    phi0 = model.eigenfunctions(np.array([0.7, 0.1]))
    assert phi0.shape == (model.metadata["rank"],)
    scores, _ = model.linearity_consistency(ds)
    assert np.nanmax(scores) <= 1e-6


def test_kdmd_modes_are_the_fitted_reconstruction(slow_manifold_small):
    data = _short_slow_manifold(slow_manifold_small)
    model = kl.fit(None, kl.RegressorConfig(
        kind="kdmd", kernel=kl.KernelConfig(kind="gaussian", sigma=1.5)), data)
    assert not hasattr(model.regression, "modes_state")
    X = kl.build_snapshot_pairs(data).X
    Z = model.observables.lift_rows(X.T).T  # the model's own eigenfunction lift
    # C is the least-squares map from that lift back to the states
    oracle = np.linalg.lstsq(Z.T, X.T.astype(complex), rcond=None)[0].T
    best = np.linalg.norm(X - oracle @ Z)
    assert np.linalg.norm(X - model.C.C @ Z) <= best * (1 + 1e-6) + 1e-12 * np.linalg.norm(X)
    # the Koopman modes are its columns
    np.testing.assert_allclose(model.koopman_modes().modes, model.C.C, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# sealed libraries
# ---------------------------------------------------------------------------

def test_fitted_library_is_sealed(slow_manifold_small):
    model = kl.fit(kl.RadialBasis("gauss", n_centers=4, seed=0), "edmd", slow_manifold_small)
    with pytest.raises(AttributeError, match="sealed"):
        model.observables.centers = model.observables.centers + 1.0
    concat = kl.fit(kl.Concat([kl.Identity(), kl.RadialBasis("gauss", n_centers=4, seed=0)]),
                    "edmd", slow_manifold_small)
    part = concat.observables.parts[1]
    with pytest.raises(AttributeError, match="sealed"):
        part.centers = part.centers + 1.0
    with pytest.raises(TypeError):
        concat.observables.parts[1] = kl.Identity()
    custom = kl.fit(kl.Custom([lambda x: x[0] ** 2]), "edmd", slow_manifold_small)
    assert isinstance(custom.observables.functions, tuple)
    # a deep copy is unsealed, so a fitted library can fit again
    again = kl.fit(model.observables, "edmd", slow_manifold_small)
    np.testing.assert_array_equal(again.observables.centers, model.observables.centers)
    np.testing.assert_array_equal(again.eigenvalues, model.eigenvalues)


# ---------------------------------------------------------------------------
# one pair-lifting route
# ---------------------------------------------------------------------------

class _Counting:
    """Counts the rows a library lifts. The counter lives in a list made in
    __init__, because a fitted library is sealed against rebinding."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._counter = [0]

    @property
    def rows_lifted(self):
        return self._counter[0]

    def lift_rows(self, X):
        self._counter[0] += X.shape[0]
        return super().lift_rows(X)


class _CountingPolynomial(_Counting, kl.Polynomial):
    pass


class _CountingFourier(_Counting, kl.RandomFourier):
    pass


def test_fit_and_validation_lift_each_sample_once(slow_manifold_small):
    # the Fourier library has no exact state embedding, so its reconstruction
    # is fitted, on the same lift
    for library in (_CountingPolynomial(2), _CountingFourier(16, include_state=False)):
        model = kl.fit(library, "edmd", slow_manifold_small)
        lib = model.observables  # fit lifts with its own copy of the library
        assert lib.rows_lifted == slow_manifold_small.n_samples
        lib._counter[0] = 0
        model.linearity_consistency(slow_manifold_small)
        assert lib.rows_lifted == slow_manifold_small.n_samples


def test_kdmd_fit_pairs_the_data_twice(monkeypatch):
    # the identity pairs it regresses on double as the reconstruction's raw
    # states; the eigenfunction lift is the second pairing
    calls = []

    def counting(data, library=None):
        calls.append(library)
        return kl.build_snapshot_pairs(data, library)

    monkeypatch.setattr(kl.model, "build_snapshot_pairs", counting)
    kl.fit(None, "kdmd", make_slow_manifold_dataset(grid=2, t_end=2.0))
    assert [type(lib).__name__ for lib in calls] == ["Identity", "KernelLift"]


@pytest.mark.parametrize("controlled", [False, True])
def test_hdmd_delays_is_fit_with_time_delay(controlled):
    rng = np.random.default_rng(8)
    X0 = rng.uniform(-1.0, 1.0, size=(3, 2))
    U = rng.uniform(-1.0, 1.0, size=(3, 120, 1))
    spec = kl.get_system("vdp_osc")
    trajs = list(kl.integrate_rk4_batch(spec, X0, 0.05, 120, U if controlled else None))
    inputs = [np.vstack([u, u[-1:]]) for u in U] if controlled else None
    data = kl.TrajectoryDataset(trajs, 0.05, inputs)
    kind = "hdmdc" if controlled else "hdmd"
    res = kl.fit(None, kl.RegressorConfig(kind=kind, delays=3), data).regression
    model = kl.fit(kl.TimeDelay(3), kind, data)
    assert model.metadata["regressor"] == kind
    np.testing.assert_array_equal(res.A, model.regression.A)
    np.testing.assert_array_equal(res.eigensystem.lambdas, model.eigenvalues)
    if controlled:
        np.testing.assert_array_equal(res.B, model.B)


def _without_regressor_label(model):
    d = kl.model_to_dict(model)
    del d["metadata"]["regressor"]
    return d


@pytest.mark.parametrize("kinds,library", [
    (("dmd", "edmd"), kl.Polynomial(2)),
    (("hdmd", "edmd"), kl.TimeDelay(2)),
    (("dmdc", "edmdc", "hdmdc"), kl.TimeDelay(1)),
], ids=["dmd-edmd", "hdmd-edmd", "dmdc-edmdc-hdmdc"])
def test_kind_aliases_are_labels_only(kinds, library):
    data = _controlled_linear_dataset()
    if not kinds[0].endswith("c"):
        data = kl.TrajectoryDataset(data.trajectories, data.dt)
    models = [kl.fit(library, kind, data) for kind in kinds]
    assert [m.metadata["regressor"] for m in models] == list(kinds)
    first = _without_regressor_label(models[0])
    for model in models[1:]:
        assert _without_regressor_label(model) == first
