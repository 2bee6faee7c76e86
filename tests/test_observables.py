import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kooplift as kl
from kooplift import _kernels
from kooplift.errors import ConfigError, DataError


def _bound(lib, n):
    lib.bind(n)
    return lib


# ---------------------------------------------------------------------------
# identity / polynomial
# ---------------------------------------------------------------------------

def test_identity_examples():
    lib = _bound(kl.Identity(), 2)
    np.testing.assert_array_equal(lib.lift(np.array([2.0, 3.0])), [2.0, 3.0])
    one = _bound(kl.Identity(), 1)
    np.testing.assert_array_equal(one.lift(np.array([7.0])), [7.0])


def test_polynomial_ordering_n2_degree2():
    lib = _bound(kl.Polynomial(2), 2)
    np.testing.assert_array_equal(
        lib.lift(np.array([2.0, 3.0])), [1.0, 2.0, 3.0, 4.0, 6.0, 9.0]
    )
    assert lib.n_output == math.comb(2 + 2, 2) == 6


def test_polynomial_contains_x1_squared_coordinate():
    # the quadratic lift covers the (x1, x2, x1^2) embedding up to ordering
    lib = _bound(kl.Polynomial(2), 2)
    x = np.array([1.7, -0.3])
    z = lib.lift(x)
    assert z[3] == pytest.approx(x[0] ** 2)
    assert z[1] == x[0] and z[2] == x[1]


def test_polynomial_degree1():
    lib = _bound(kl.Polynomial(1), 2)
    np.testing.assert_array_equal(lib.lift(np.array([4.0, 5.0])), [1.0, 4.0, 5.0])


def test_polynomial_degree_validation():
    with pytest.raises(ConfigError):
        kl.Polynomial(0)


# ---------------------------------------------------------------------------
# time delay
# ---------------------------------------------------------------------------

def test_time_delay_window_order():
    lib = _bound(kl.TimeDelay(1), 2)
    window = np.array([[1.0, 2.0], [3.0, 4.0]])  # x0, x1 in time order
    np.testing.assert_array_equal(lib.lift_window(window), [3.0, 4.0, 1.0, 2.0])


def test_time_delay_zero_is_identity():
    lib = _bound(kl.TimeDelay(0), 3)
    x = np.array([1.0, -1.0, 0.5])
    np.testing.assert_array_equal(lib.lift(x), x)


def test_time_delay_trajectory_counts():
    lib = _bound(kl.TimeDelay(3), 2)
    traj = np.arange(20.0).reshape(10, 2)
    Y = lib.lift_trajectory(traj)
    assert Y.shape == (10 - 3, 2 * 4)
    # hence T - d - 1 lifted pairs
    assert Y[:-1].shape[0] == 10 - 3 - 1
    np.testing.assert_array_equal(Y[0], [6, 7, 4, 5, 2, 3, 0, 1])


def test_time_delay_short_window_errors():
    lib = _bound(kl.TimeDelay(2), 1)
    with pytest.raises(DataError):
        lib.lift_window(np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# radial basis functions
# ---------------------------------------------------------------------------

def test_rbf_thinplate_values():
    centers = np.array([[0.0, 0.0]])
    lib = _bound(kl.RadialBasis("thinplate", centers=centers), 2)
    # r = 1 -> r^2 ln r = 0
    z = lib.lift(np.array([1.0, 0.0]))
    np.testing.assert_array_equal(z[:2], [1.0, 0.0])
    assert z[2] == pytest.approx(0.0, abs=1e-15)
    # r = e -> e^2
    z = lib.lift(np.array([np.e, 0.0]))
    assert z[2] == pytest.approx(np.e**2, rel=1e-13)
    # r = 0 -> defined as the limit 0
    assert lib.lift(np.zeros(2))[2] == 0.0


def test_rbf_gauss_at_center():
    centers = np.array([[0.3, -0.4]])
    lib = _bound(kl.RadialBasis("gauss", centers=centers, shape_eps=2.0), 2)
    assert lib.lift(np.array([0.3, -0.4]))[2] == pytest.approx(1.0)


def test_rbf_center_sampling_deterministic():
    rows = np.random.default_rng(0).normal(size=(50, 2))
    a = _bound(kl.RadialBasis("gauss", n_centers=5, seed=11), 2)
    b = _bound(kl.RadialBasis("gauss", n_centers=5, seed=11), 2)
    a.prepare(rows)
    b.prepare(rows)
    np.testing.assert_array_equal(a.centers, b.centers)
    assert a.n_output == 2 + 5


def test_rbf_validation():
    with pytest.raises(ConfigError):
        kl.RadialBasis("nope")
    with pytest.raises(ConfigError):
        kl.RadialBasis("gauss", shape_eps=0.0)
    lib = kl.RadialBasis("gauss", centers=np.zeros((3, 4)))
    with pytest.raises(ConfigError):
        lib.bind(2)


# ---------------------------------------------------------------------------
# random Fourier features
# ---------------------------------------------------------------------------

def test_rff_at_origin():
    lib = _bound(kl.RandomFourier(8, sigma=1.0, seed=4, include_state=False), 2)
    np.testing.assert_allclose(
        lib.lift(np.zeros(2)), math.sqrt(2.0 / 8) * np.cos(lib.b), rtol=1e-14
    )


def test_rff_deterministic_given_seed():
    a = _bound(kl.RandomFourier(16, sigma=0.7, seed=9), 3)
    b = _bound(kl.RandomFourier(16, sigma=0.7, seed=9), 3)
    x = np.random.default_rng(1).normal(size=3)
    np.testing.assert_array_equal(a.lift(x), b.lift(x))


def test_rff_kernel_monte_carlo_oracle():
    # brute-force Monte Carlo over many seeds: E[phi(x).phi(y)] approximates
    # the Gaussian kernel exp(-||x-y||^2 / (2 sigma^2))
    sigma = 1.5
    x = np.array([0.3, -0.2])
    y = np.array([-0.1, 0.4])
    target = math.exp(-np.sum((x - y) ** 2) / (2.0 * sigma**2))
    n_seeds = 10_000
    acc = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        W = rng.normal(0.0, 1.0 / sigma, size=(2, 4))
        b = rng.uniform(0.0, 2.0 * math.pi, size=4)
        fx = math.sqrt(2.0 / 4) * np.cos(x @ W + b)
        fy = math.sqrt(2.0 / 4) * np.cos(y @ W + b)
        acc += fx @ fy
    mc = acc / n_seeds
    assert abs(mc - target) < 0.02

    # the library realizes the same feature law for a given seed
    lib = _bound(kl.RandomFourier(4, sigma=sigma, seed=123, include_state=False), 2)
    rng = np.random.default_rng(123)
    W = rng.normal(0.0, 1.0 / sigma, size=(2, 4))
    b = rng.uniform(0.0, 2.0 * math.pi, size=4)
    np.testing.assert_allclose(lib.lift(x), math.sqrt(0.5) * np.cos(x @ W + b))


def test_rff_validation():
    with pytest.raises(ConfigError):
        kl.RandomFourier(0)
    with pytest.raises(ConfigError):
        kl.RandomFourier(4, sigma=-1.0)


# ---------------------------------------------------------------------------
# custom
# ---------------------------------------------------------------------------

def test_custom_examples():
    lib = _bound(kl.Custom([lambda x: x[0] ** 2]), 2)
    np.testing.assert_array_equal(lib.lift(np.array([2.0, 3.0])), [2.0, 3.0, 4.0])
    sin = _bound(kl.Custom([lambda x: np.sin(x[0])]), 2)
    np.testing.assert_array_equal(sin.lift(np.array([0.0, 5.0])), [0.0, 5.0, 0.0])


def test_custom_empty_is_identity():
    lib = _bound(kl.Custom([]), 2)
    x = np.array([1.5, -2.5])
    np.testing.assert_array_equal(lib.lift(x), x)


def test_custom_non_finite_reports_function_index():
    def reciprocal(x):  # inf at 0, without the warning of 1.0 / x[0]
        return np.inf if x[0] == 0 else 1.0 / x[0]

    lib = _bound(kl.Custom([lambda x: x[0], reciprocal]), 1)
    with pytest.raises(DataError, match="function 1"):
        lib.lift(np.array([0.0]))


# ---------------------------------------------------------------------------
# concat
# ---------------------------------------------------------------------------

def test_concat_drops_duplicate_state_block():
    parts = [_bound(kl.Identity(), 1), _bound(kl.Polynomial(2), 1)]
    lib = _bound(kl.Concat([kl.Identity(), kl.Polynomial(2)]), 1)
    x = np.array([2.0])
    # oracle: enumerate both outputs and drop the later library's state block
    out0 = parts[0].lift(x).tolist()
    out1 = parts[1].lift(x).tolist()
    for j in sorted(parts[1].state_indices, reverse=True):
        del out1[j]
    expected = out0 + out1
    assert expected == [2.0, 1.0, 4.0]
    np.testing.assert_array_equal(lib.lift(x), expected)
    assert lib.n_output == 1 + 3 - 1


def test_concat_single_library_is_identity_of_it():
    lib = _bound(kl.Concat([kl.Polynomial(2)]), 2)
    ref = _bound(kl.Polynomial(2), 2)
    x = np.array([0.4, -1.1])
    np.testing.assert_array_equal(lib.lift(x), ref.lift(x))


def test_concat_dimension_bookkeeping():
    lib = _bound(
        kl.Concat([kl.Polynomial(2), kl.Custom([lambda x: np.array([x[0] * x[1]])])]), 2
    )
    # custom later part loses its 2 state coordinates
    assert lib.n_output == 6 + 3 - 2
    assert len(lib.lift(np.array([1.0, 2.0]))) == lib.n_output


def test_concat_rejects_mismatched_input():
    lib = kl.Concat([kl.Identity(), kl.Polynomial(2)])
    lib.parts[0].bind(2)
    with pytest.raises(ConfigError):
        lib.bind(3)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruction_polynomial_index_selection():
    lib = _bound(kl.Polynomial(2), 2)
    rec = kl.fit_reconstruction(lib, None, None)
    expected = np.array([[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], dtype=float)
    np.testing.assert_array_equal(rec.C, expected)
    assert rec.indices == (1, 2)


def test_reconstruction_quadratic_embedding_matrix():
    # the (x1, x2, x1^2) embedding reconstructs with [[1,0,0],[0,1,0]]
    lib = _bound(kl.Custom([lambda x: x[0] ** 2]), 2)
    rec = kl.fit_reconstruction(lib, None, None)
    np.testing.assert_array_equal(rec.C, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_reconstruction_fitted_rff_linear_map_data():
    # data on a spiral of a stable linear map; least-squares oracle computed
    # directly must agree and leave a tiny relative residual
    theta = 0.5
    M = 0.97 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    xs = [np.array([1.2, -0.3])]
    for _ in range(23):
        xs.append(M @ xs[-1])
    X = np.array(xs).T  # (2, 24)
    lib = _bound(kl.RandomFourier(24, sigma=1.0, seed=2, include_state=False), 2)
    Z = lib.lift_rows(X.T).T
    rec = kl.fit_reconstruction(lib, Z, X)
    rel = np.linalg.norm(X - rec.C @ Z) / np.linalg.norm(X)
    assert rel < 1e-6
    C_oracle = np.linalg.lstsq(Z.T, X.T, rcond=1e-10)[0].T
    np.testing.assert_allclose(rec.C, C_oracle, rtol=1e-9, atol=1e-12)


def test_reconstruction_fitted_requires_enough_columns():
    lib = _bound(kl.RandomFourier(16, seed=0, include_state=False), 2)
    with pytest.raises(DataError):
        kl.fit_reconstruction(lib, lib.lift_rows(np.zeros((4, 2))).T, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------

def _exact_embedding_libraries(n):
    libs = [
        kl.Identity(),
        kl.Polynomial(2),
        kl.Polynomial(3),
        kl.RadialBasis("thinplate", centers=np.linspace(-1, 1, 3 * n).reshape(3, n)),
        kl.RandomFourier(7, sigma=0.8, seed=5, include_state=True),
        kl.Custom([lambda x: np.array([np.sin(x[0]), x[0] * x[-1]])]),
        kl.Concat([kl.Identity(), kl.Polynomial(2)]),
    ]
    return [_bound(lib, n) for lib in libs]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=3),
)
def test_exact_embedding_reconstruction_is_exact(seed, n):
    x = np.random.default_rng(seed).normal(size=n)
    for lib in _exact_embedding_libraries(n):
        z = lib.lift(x)
        rec = kl.fit_reconstruction(lib, z[:, None], x[:, None])
        np.testing.assert_array_equal(rec.apply_cols(z), x)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_dimension_bookkeeping_and_determinism(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=2)
    for lib in _exact_embedding_libraries(2):
        z1 = lib.lift(x)
        z2 = lib.lift(x.copy())
        assert z1.shape == (lib.n_output,)
        np.testing.assert_array_equal(z1, z2)


def test_polynomial_degree1_is_identity_with_constant():
    lib = _bound(kl.Polynomial(1), 3)
    x = np.array([0.3, -2.0, 4.5])
    np.testing.assert_array_equal(lib.lift(x), np.concatenate([[1.0], x]))


def test_lift_rejects_wrong_dimension():
    lib = _bound(kl.Polynomial(2), 2)
    with pytest.raises(DataError):
        lib.lift(np.zeros(3))


def test_library_arrays_are_read_only():
    rows = np.random.default_rng(0).normal(size=(20, 2))
    sampled = _bound(kl.RadialBasis("gauss", n_centers=4, seed=1), 2)
    sampled.prepare(rows)
    given = np.zeros((3, 2))
    explicit = kl.RadialBasis("gauss", centers=given)
    rff = _bound(kl.RandomFourier(6, seed=2), 2)
    loaded = kl.observable_from_config(rff.config())
    kernel = kl.KernelLift(kl.KernelConfig(), rows[:5], np.ones((5, 2), dtype=complex))
    arrays = [_bound(kl.Polynomial(2), 2).exponents, sampled.centers, explicit.centers,
              rff.W, rff.b, loaded.W, loaded.b, kernel.centers, kernel.alpha]
    arrays += [copy.deepcopy(sampled).centers, copy.deepcopy(kernel).alpha]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    given[0, 0] = 1.0  # the caller's array stays theirs
    assert explicit.centers[0, 0] == 0.0


def _kernel_lift():
    # coefficient columns: real, a conjugate pair, a complex one without a partner
    rng = np.random.default_rng(8)
    a = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
    alpha = np.column_stack([rng.normal(size=40), a[:, 0], a[:, 0].conj(), a[:, 1]])
    return kl.KernelLift(kl.KernelConfig(sigma=1.5), rng.normal(size=(40, 3)), alpha)


@pytest.mark.parametrize("kind", ["rbf", "kernel_lift"])
def test_lift_of_one_state_is_its_row_of_lift_rows(kind):
    X = np.random.default_rng(9).normal(size=(50, 3))
    if kind == "rbf":
        lib = _bound(kl.RadialBasis("gauss", n_centers=20, seed=3), 3)
        lib.prepare(X)
    else:
        lib = _kernel_lift()
    Z = lib.lift_rows(X)
    r2 = _kernels.sq_distances(X, lib.centers)
    for i in range(X.shape[0]):
        assert np.array_equal(_kernels.sq_distances(X[i:i + 1], lib.centers)[0], r2[i])
        np.testing.assert_allclose(lib.lift(X[i]), Z[i], rtol=1e-12)


def test_kernel_lift_keeps_conjugate_pairs_exact():
    # the GEMM multiplies only the columns that are not the conjugate copy of
    # their left neighbour
    lib = _kernel_lift()
    assert lib._plan[0].shape == (40, 3)
    X = np.random.default_rng(10).normal(size=(30, 3))
    Z = lib.lift_rows(X)
    assert np.array_equal(Z[:, 2], Z[:, 1].conj())
    G = _kernels.gram_matrix(X, lib.centers, "gaussian", 1.5, 1.0, 2)
    full = G @ lib.alpha
    assert np.max(np.abs(Z - full)) <= 1e-14 * np.max(np.abs(full))


def test_rebinding_alpha_changes_the_kernel_lift():
    # the pair moves from columns (1, 2) to (0, 1): nothing derived from the
    # old alpha may survive the assignment
    lib = _kernel_lift()
    X = np.random.default_rng(11).normal(size=(6, 3))
    lib.alpha = lib.alpha[:, [1, 2, 0, 3]]
    Z = lib.lift_rows(X)
    G = _kernels.gram_matrix(X, lib.centers, "gaussian", 1.5, 1.0, 2)
    np.testing.assert_allclose(Z, G @ lib.alpha, rtol=1e-12)
    assert np.array_equal(Z[:, 1], Z[:, 0].conj())


# ---------------------------------------------------------------------------
# batches of rows
# ---------------------------------------------------------------------------

def _every_library():
    rng = np.random.default_rng(3)
    return [
        _bound(kl.Identity(), 2),
        _bound(kl.Polynomial(2), 2),
        _bound(kl.TimeDelay(2), 2),
        _bound(kl.RadialBasis("gauss", centers=rng.normal(size=(3, 2))), 2),
        _bound(kl.RandomFourier(4), 2),
        _bound(kl.Custom([lambda x: x[0] * x[1]]), 2),
        _bound(kl.Concat([kl.Polynomial(2), kl.RandomFourier(3)]), 2),
        kl.KernelLift(kl.KernelConfig(), rng.normal(size=(5, 2)),
                      rng.normal(size=(5, 2)) + 0j),
    ]


@pytest.mark.parametrize("lib", _every_library(), ids=lambda lib: lib.kind)
def test_lift_rows_refuses_a_batch_that_is_not_2d(lib):
    width = lib.n_output if isinstance(lib, kl.TimeDelay) else 2
    assert lib.lift_rows(np.ones((3, width))).shape == (3, lib.n_output)
    for shape in ((width,), (2, 3, width), ()):
        with pytest.raises(DataError, match="2-d array of rows"):
            lib.lift_rows(np.ones(shape))
