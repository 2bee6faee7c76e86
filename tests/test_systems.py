import numpy as np
import pytest

import kooplift as kl
from kooplift.errors import ConfigError, DataError

from kooplift.systems import SYSTEM_NAMES, SystemSpec


def test_rk4_exponential_decay():
    spec = SystemSpec(name="decay", n=1, q=0, params={}, rhs=lambda x, u, t: -x)
    traj = kl.integrate_rk4(spec, np.array([1.0]), 0.01, 100)
    assert traj.shape == (101, 1)
    assert traj[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)


def test_rk4_zero_field_constant():
    spec = SystemSpec(name="still", n=2, q=0, params={}, rhs=lambda x, u, t: 0.0 * x)
    traj = kl.integrate_rk4(spec, np.array([0.3, -0.7]), 0.1, 50)
    np.testing.assert_array_equal(traj, np.tile([0.3, -0.7], (51, 1)))


def test_rk4_slow_manifold_x1_analytic():
    spec = kl.get_system("slow_manifold")
    traj = kl.integrate_rk4(spec, np.array([1.0, 1.0]), 0.01, 100)
    assert traj[-1, 0] == pytest.approx(np.exp(-0.05), abs=1e-8)


def test_rk4_convergence_order():
    spec = SystemSpec(name="decay", n=1, q=0, params={}, rhs=lambda x, u, t: -x)
    errs = []
    for dt in (0.02, 0.01):
        traj = kl.integrate_rk4(spec, np.array([1.0]), dt, int(round(1.0 / dt)))
        errs.append(abs(traj[-1, 0] - np.exp(-1.0)))
    assert errs[0] / errs[1] >= 12.0


def test_rhs_catalog_values():
    np.testing.assert_allclose(
        kl.system_rhs("slow_manifold", [1.0, 1.0]), [-0.05, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        kl.system_rhs("lorenz", [1.0, 1.0, 1.0]), [0.0, 26.0, 1.0 - 8.0 / 3.0]
    )
    np.testing.assert_allclose(kl.system_rhs("vdp_osc", [1.0, 0.0]), [0.0, -1.0])
    np.testing.assert_allclose(
        kl.system_rhs("forced_duffing", [1.0, 0.0], u=[0.5]), [0.0, 1.0 - 1.0 + 0.5]
    )


def test_rhs_unknown_name():
    with pytest.raises(ConfigError, match="unknown system"):
        kl.system_rhs("pendulum", [0.0])


def test_rhs_batch_matches_single():
    X = np.random.default_rng(0).normal(size=(6, 3))
    batch = kl.system_rhs("lorenz", X)
    for i in range(6):
        np.testing.assert_allclose(batch[i], kl.system_rhs("lorenz", X[i]))


def test_zero_order_hold_inputs():
    spec = kl.get_system("forced_duffing")
    u = np.ones((40, 1)) * 0.3
    forced = kl.integrate_rk4(spec, np.array([0.1, 0.0]), 0.05, 40, input_signal=u)
    rest = kl.integrate_rk4(spec, np.array([0.1, 0.0]), 0.05, 40)
    assert not np.allclose(forced, rest)
    assert forced.shape == rest.shape == (41, 2)


def test_rk4_nonfinite_reports_step():
    spec = SystemSpec(name="blow", n=1, q=0, params={}, rhs=lambda x, u, t: x * x)
    with pytest.raises(DataError, match="step 0"):
        kl.integrate_rk4(spec, np.array([1e200]), 1.0, 5)


@pytest.mark.parametrize("dt, n_steps, match", [
    (np.nan, 5, "dt must be"), (np.inf, 5, "dt must be"), (True, 5, "dt must be"),
    (0.0, 5, "dt must be"),
    (0.1, True, "n_steps must be"), (0.1, 2.7, "n_steps must be"),
    (0.1, -1, "n_steps must be"), (0.1, "3", "n_steps must be"),
])
def test_rk4_refuses_bad_dt_and_step_counts(dt, n_steps, match):
    spec = kl.get_system("vdp_osc")
    with pytest.raises(DataError, match=match):
        kl.integrate_rk4_batch(spec, np.ones((1, spec.n)), dt, n_steps)


def test_drss_spectral_radius_bound():
    for seed in range(100):
        A, B = kl.drss(4, 2, seed=seed, rho_max=0.9)
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        assert rho < 0.9
        assert A.shape == (4, 4) and B.shape == (4, 2)


def test_drss_deterministic_and_q0():
    A1, B1 = kl.drss(3, 1, seed=42)
    A2, B2 = kl.drss(3, 1, seed=42)
    np.testing.assert_array_equal(A1, A2)
    np.testing.assert_array_equal(B1, B2)
    _, B0 = kl.drss(3, 0, seed=1)
    assert B0.shape == (3, 0)


def _drss_block_diag_reference(n, q, seed, rho_max=0.9):
    """drss with its block-diagonal matrix built by scipy.linalg.block_diag."""
    import scipy.linalg

    rng = np.random.default_rng(seed)
    sizes = []
    remaining = n
    while remaining >= 2:
        if rng.random() < 0.5:
            sizes.append(2)
            remaining -= 2
        else:
            sizes.append(1)
            remaining -= 1
    if remaining == 1:
        sizes.append(1)
    blocks = []
    for s in sizes:
        rho = rng.uniform(0.1, rho_max)
        if s == 1:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            blocks.append(np.array([[sign * rho]]))
        else:
            theta = rng.uniform(0.0, np.pi)
            c, sn = rho * np.cos(theta), rho * np.sin(theta)
            blocks.append(np.array([[c, sn], [-sn, c]]))
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    Q = Q * np.sign(np.diag(R))
    A = Q @ scipy.linalg.block_diag(*blocks) @ Q.T
    B = rng.standard_normal((n, q)) if q > 0 else np.zeros((n, 0))
    return A, B


@pytest.mark.parametrize("n,q,seed", [(1, 1, 0), (2, 0, 3), (3, 1, 42), (5, 2, 7), (8, 3, 11)])
def test_drss_matches_the_block_diag_construction(n, q, seed):
    A, B = kl.drss(n, q, seed=seed)
    A_ref, B_ref = _drss_block_diag_reference(n, q, seed)
    np.testing.assert_array_equal(A, A_ref)
    np.testing.assert_array_equal(B, B_ref)


def test_drss_validation():
    with pytest.raises(ConfigError):
        kl.drss(3, 1, rho_max=1.0)
    with pytest.raises(ConfigError):
        kl.drss(0, 1)
    # refused, not coerced: a bool or float count, a string radius, a bad seed
    for args in ((True, 0), (2.0, 1), (2, 1.5), (2, -1), (3, 1, 0, "0.5"), (3, 1, 0, 0.0),
                 (3, 1, 0, float("nan")), (3, 1, -1), (3, 1, 1.5), (3, 1, "0")):
        with pytest.raises(ConfigError):
            kl.drss(*args)


def test_linear2d_step():
    np.testing.assert_allclose(kl.linear2d_step(np.array([1.0, 0.0])), [0.8, 0.0])


def test_the_catalog_holds_the_continuous_systems_only():
    # linear2d is a map, iterated by linear2d_step; it has no SystemSpec
    assert SYSTEM_NAMES == ("forced_duffing", "lorenz", "slow_manifold", "vdp_osc")
    with pytest.raises(ConfigError, match="unknown system 'linear2d'"):
        kl.get_system("linear2d")


def test_integrate_rk4_takes_a_one_channel_input_as_a_vector():
    spec = kl.get_system("vdp_osc")
    u = np.linspace(-1.0, 1.0, 30)
    np.testing.assert_array_equal(kl.integrate_rk4(spec, [0.5, 0.1], 0.01, 30, u),
                                  kl.integrate_rk4(spec, [0.5, 0.1], 0.01, 30, u[:, None]))


def test_linear2d_dmd_recovers_map_eigenvalues():
    # oracle: eigenvalues of the fixed map are 0.8 and 0.7
    trajs = []
    for x0 in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        rows = [x0]
        for _ in range(10):
            rows.append(kl.linear2d_step(rows[-1]))
        trajs.append(np.array(rows))
    pairs = kl.build_snapshot_pairs(kl.TrajectoryDataset(trajs, dt=1.0))
    res = kl.fit_edmd(pairs.X, pairs.Xprime)
    np.testing.assert_allclose(np.sort(res.eigensystem.lambdas.real)[::-1], [0.8, 0.7],
                               atol=1e-12)
    assert np.max(np.abs(res.eigensystem.lambdas.imag)) < 1e-12


def test_catalog_rhs_finite_on_unit_ball():
    rng = np.random.default_rng(17)
    for name in ("slow_manifold", "vdp_osc", "lorenz", "forced_duffing"):
        spec = kl.get_system(name)
        pts = rng.normal(size=(200, spec.n))
        pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1.0)
        out = kl.system_rhs(name, pts, u=np.zeros(max(spec.q, 1))[: spec.q] if spec.q else None)
        assert np.all(np.isfinite(out)), name


def test_torus_signal_channels():
    t = np.arange(5) * 0.1
    sig = kl.torus_signal(t, freqs=(0.25,), amps=(2.0,))
    assert sig.shape == (5, 2)
    np.testing.assert_allclose(sig[:, 0], 2.0 * np.cos(2 * np.pi * 0.25 * t))
    np.testing.assert_allclose(sig[:, 1], 2.0 * np.sin(2 * np.pi * 0.25 * t))
    with pytest.raises(ConfigError):
        kl.torus_signal(t, freqs=())


def test_hdmd_on_torus_signal_recovers_tones():
    dt = 0.1
    t = np.arange(400) * dt
    sig = kl.torus_signal(t)
    res = kl.fit(kl.TimeDelay(3), "hdmd", kl.TrajectoryDataset([sig], dt)).regression
    freqs = (np.sqrt(2.0) / 5.0, np.sqrt(3.0) / 5.0)
    expected = np.array(
        [np.exp(s * 2j * np.pi * f * dt) for f in freqs for s in (+1, -1)]
    )
    assert res.rank == 4
    np.testing.assert_allclose(
        np.sort_complex(res.eigensystem.lambdas), np.sort_complex(expected), atol=1e-6
    )
    np.testing.assert_allclose(np.abs(res.eigensystem.lambdas), 1.0, atol=1e-7)


def _catalog_rhs_ref(name, x, u):
    dx = np.empty_like(x)
    if name == "slow_manifold":
        dx[:, 0] = -0.05 * x[:, 0]
        dx[:, 1] = -1.0 * (x[:, 1] - x[:, 0] ** 2)
    elif name == "vdp_osc":
        dx[:, 0] = x[:, 1]
        dx[:, 1] = 2.0 * (1.0 - x[:, 0] ** 2) * x[:, 1] - x[:, 0] + u[:, 0]
    elif name == "lorenz":
        dx[:, 0] = 10.0 * (x[:, 1] - x[:, 0])
        dx[:, 1] = x[:, 0] * (28.0 - x[:, 2]) - x[:, 1]
        dx[:, 2] = x[:, 0] * x[:, 1] - 8.0 / 3.0 * x[:, 2]
    else:
        dx[:, 0] = x[:, 1]
        dx[:, 1] = -0.5 * x[:, 1] - -1.0 * x[:, 0] - 1.0 * x[:, 0] ** 3 + u[:, 0]
    return dx


def _rk4_ref(name, X0, dt, U):
    out = [X0]
    x = X0
    for k in range(U.shape[1]):
        u = U[:, k, :]
        k1 = _catalog_rhs_ref(name, x, u)
        k2 = _catalog_rhs_ref(name, x + 0.5 * dt * k1, u)
        k3 = _catalog_rhs_ref(name, x + 0.5 * dt * k2, u)
        k4 = _catalog_rhs_ref(name, x + dt * k3, u)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    return np.stack(out, axis=1)


@pytest.mark.parametrize("name", ["slow_manifold", "vdp_osc", "lorenz", "forced_duffing"])
def test_rk4_batch_matches_reference_bit_for_bit(name):
    rng = np.random.default_rng(11)
    spec = kl.get_system(name)
    X0 = rng.uniform(-0.5, 0.5, size=(4, spec.n))
    U = rng.normal(size=(4, 50, spec.q))
    out = kl.integrate_rk4_batch(spec, X0, 0.01, 50, U if spec.q else None)
    np.testing.assert_array_equal(out, _rk4_ref(name, X0, 0.01, U))


def test_catalog_spec_rhs_accepts_single_state():
    spec = kl.get_system("forced_duffing", delta=0.1)
    x = np.array([0.3, -0.2])
    p = {"delta": 0.1}
    np.testing.assert_array_equal(spec.rhs(x), kl.system_rhs("forced_duffing", x, params=p))
    np.testing.assert_array_equal(
        spec.rhs(x, np.array([0.5])), kl.system_rhs("forced_duffing", x, u=[0.5], params=p)
    )
