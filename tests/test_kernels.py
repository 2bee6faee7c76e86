"""The numpy kernels against naive per-element reference loops."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kooplift as kl
from kooplift import _kernels as K


def _rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# reference implementations: one output element at a time
# ---------------------------------------------------------------------------

def _poly_ref(X, exps):
    out = np.empty((X.shape[0], exps.shape[0]))
    for i in range(X.shape[0]):
        for j in range(exps.shape[0]):
            r = 1.0
            for d in range(X.shape[1]):
                for _ in range(exps[j, d]):
                    r *= X[i, d]
            out[i, j] = r
    return out


def _radial_ref(r2, kind, eps, ph_exp):
    if kind == "thinplate":
        return 0.5 * r2 * math.log(r2) if r2 > 0.0 else 0.0
    if kind == "gauss":
        return math.exp(-(eps * eps) * r2)
    if kind == "invquad":
        return 1.0 / (1.0 + (eps * eps) * r2)
    if kind == "invmultiquad":
        return 1.0 / math.sqrt(1.0 + (eps * eps) * r2)
    r = math.sqrt(r2)
    if ph_exp % 2 == 1:
        return r**ph_exp
    return r**ph_exp * math.log(r) if r > 0.0 else 0.0


def _rbf_ref(X, centers, kind, eps, ph_exp):
    out = np.empty((X.shape[0], centers.shape[0]))
    for i in range(X.shape[0]):
        for j in range(centers.shape[0]):
            r2 = sum((X[i, d] - centers[j, d]) ** 2 for d in range(X.shape[1]))
            out[i, j] = _radial_ref(r2, kind, eps, ph_exp)
    return out


def _rff_ref(X, W, b):
    scale = math.sqrt(2.0 / W.shape[1])
    out = np.empty((X.shape[0], W.shape[1]))
    for i in range(X.shape[0]):
        for j in range(W.shape[1]):
            acc = b[j] + sum(X[i, d] * W[d, j] for d in range(X.shape[1]))
            out[i, j] = scale * math.cos(acc)
    return out


def _gram_ref(X, Y, kind, sigma, offset, degree):
    out = np.empty((X.shape[0], Y.shape[0]))
    for i in range(X.shape[0]):
        for j in range(Y.shape[0]):
            if kind == "gaussian":
                r2 = sum((X[i, d] - Y[j, d]) ** 2 for d in range(X.shape[1]))
                out[i, j] = math.exp(-r2 / (2.0 * sigma * sigma))
            else:
                dot = sum(X[i, d] * Y[j, d] for d in range(X.shape[1]))
                out[i, j] = (offset + dot) ** degree
    return out


def _iterate_ref(A, B, z0, U, n_steps):
    z = list(z0)
    out = [list(z)]
    for k in range(n_steps):
        zn = []
        for i in range(A.shape[0]):
            acc = sum(A[i, j] * z[j] for j in range(A.shape[1]))
            if B is not None:
                acc += sum(B[i, j] * U[j, k] for j in range(B.shape[1]))
            zn.append(acc)
        z = zn
        out.append(list(z))
    return np.array(out)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_poly_features_match_reference():
    X = _rng(1).normal(size=(40, 3))
    # every monomial of degree <= 4 in 3 variables, [3, 0, 1] and [0, 1, 2] among them
    exps, steps = K.monomial_table(3, 4)
    np.testing.assert_allclose(K.poly_features(X, steps), _poly_ref(X, exps),
                               rtol=1e-13, atol=1e-15)


def test_poly_features_state_columns_exact():
    # the constant and unit-exponent columns reproduce 1 and the state bit for bit
    X = _rng(2).normal(size=(25, 2))
    exps, steps = K.monomial_table(2, 1)
    out = K.poly_features(X, steps)
    assert np.array_equal(out[:, 0], np.ones(25))
    assert np.array_equal(out[:, 1:], X)


def test_monomial_table_order_and_parents():
    exps, steps = K.monomial_table(2, 3)
    assert exps.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2],
                             [3, 0], [2, 1], [1, 2], [0, 3]]
    for start, stop, parents, coords in steps:
        child = exps[parents].copy()
        child[np.arange(stop - start), coords] += 1
        assert np.array_equal(child, exps[start:stop])
        # the raised coordinate is the child's last nonzero one
        assert all(not exps[k, c + 1:].any() for k, c in zip(range(start, stop), coords))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), degree=st.integers(1, 5), m=st.sampled_from([1, 7, 2500]),
       seed=st.integers(0, 2**32 - 1))
def test_poly_features_property(n, degree, m, seed):
    X = _rng(seed).uniform(-2.0, 2.0, size=(m, n))
    exps, steps = K.monomial_table(n, degree)
    out = K.poly_features(X, steps)
    assert out.shape == (m, exps.shape[0])
    assert np.array_equal(out[:, 0], np.ones(m))
    assert np.array_equal(out[:, 1 : n + 1], X)
    np.testing.assert_allclose(out, _poly_ref(X, exps), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("kind,ph_exp", [
    ("thinplate", 3), ("gauss", 3), ("invquad", 3),
    ("invmultiquad", 3), ("polyharmonic", 3), ("polyharmonic", 4),
])
def test_rbf_features_match_reference(kind, ph_exp):
    rng = _rng(3)
    X = rng.normal(size=(30, 2))
    centers = np.vstack([rng.normal(size=(6, 2)), X[:1]])  # one center at r = 0
    np.testing.assert_allclose(
        K.rbf_features(X, centers, kind, 0.8, ph_exp),
        _rbf_ref(X, centers, kind, 0.8, ph_exp),
        rtol=1e-12, atol=1e-14,
    )


def test_rff_features_match_reference():
    rng = _rng(4)
    X = rng.normal(size=(30, 4))
    W = rng.normal(size=(4, 16))
    b = rng.uniform(0, 2 * np.pi, size=16)
    np.testing.assert_allclose(K.rff_features(X, W, b), _rff_ref(X, W, b),
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kind,sigma,offset,degree", [
    ("gaussian", 1.3, 1.0, 2),
    ("polynomial", 1.0, 1.0, 2),
    ("polynomial", 1.0, 0.5, 3),
])
def test_gram_matrix_match_reference(kind, sigma, offset, degree):
    rng = _rng(5)
    X = rng.normal(size=(20, 3))
    Y = rng.normal(size=(12, 3))
    np.testing.assert_allclose(
        K.gram_matrix(X, Y, kind, sigma, offset, degree),
        _gram_ref(X, Y, kind, sigma, offset, degree),
        rtol=1e-12, atol=1e-13,
    )


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_sq_distances_match_double_loop(n, scale):
    # points at the centers (r = 0) and 1e-7 away from them, where the form
    # ||x||^2 + ||y||^2 - 2 x.y cancels
    rng = _rng(6)
    centers = scale * rng.normal(size=(9, n))
    X = np.vstack([centers[:3], centers[3:6] + scale * 1e-7 * rng.normal(size=(3, n)),
                   scale * rng.normal(size=(20, n))])
    ref = np.array([[math.fsum((x[d] - c[d]) ** 2 for d in range(n)) for c in centers]
                    for x in X])
    np.testing.assert_allclose(K.sq_distances(X, centers), ref, rtol=1e-14, atol=0.0)
    assert np.all(np.diag(K.sq_distances(X[:3], centers[:3])) == 0.0)


def _sq_distances_one_shot(X, Y):
    # the per-coordinate sum over all rows at once, with a full (m, k) temporary
    r2 = X[:, 0, None] - Y[:, 0]
    r2 *= r2
    for d in range(1, X.shape[1]):
        t = X[:, d, None] - Y[:, d]
        t *= t
        r2 += t
    return r2


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("m", [1, K.ROW_BLOCK - 1, K.ROW_BLOCK, K.ROW_BLOCK + 1])
def test_sq_distances_row_blocks_keep_every_bit(n, m):
    rng = _rng(12)
    X, Y = rng.normal(size=(m, n)), rng.normal(size=(37, n))
    np.testing.assert_array_equal(K.sq_distances(X, Y), _sq_distances_one_shot(X, Y))


def test_conjugate_copies_mark_the_second_of_each_pair_without_chains():
    rng = _rng(13)
    a, b = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    x = rng.normal(size=4)
    # a pair, an unpaired complex column, a real column repeated three times,
    # a pair whose second column differs in one bit, and a pair at the end
    cols = [a, a.conj(), b, x, x, x, b, b.conj() * (1 + 2**-52), a, a.conj()]
    copies = K.conjugate_copies(np.column_stack(cols))
    # a real column is its own conjugate, but only the second of a run counts:
    # a partner is never itself a copy
    np.testing.assert_array_equal(np.flatnonzero(copies), [1, 4, 9])
    assert K.conjugate_copies(np.empty((3, 0), dtype=complex)).shape == (0,)


@pytest.mark.parametrize("offset", [1.0, 0.5])
def test_polynomial_gram_in_place_keeps_every_bit(offset):
    X = _rng(13).normal(size=(500, 3))
    for degree in range(1, 6):
        np.testing.assert_array_equal(K.gram_matrix(X, X, "polynomial", 1.0, offset, degree),
                                      (offset + X @ X.T) ** degree)


def test_gaussian_gram_is_symmetric_by_construction():
    # the kdmd_gram benchmark states at seed 41, on which the form
    # ||x||^2 + ||y||^2 - 2 x.y gives an asymmetric G unless numpy takes syrk.
    # The gaussian G is symmetric for two separate buffers too; the polynomial
    # one only where numpy computes X X^T by syrk, which it does when both
    # arguments are the one array, as in the kdmd fit
    rng = np.random.default_rng([41, sum(map(ord, "kdmd_gram"))])
    spec = kl.systems.get_system("slow_manifold")
    trajs = kl.systems.integrate_rk4_batch(spec, rng.uniform(-1.0, 1.0, (36, 2)), 0.02, 79)
    X = np.vstack([t[:-1] for t in trajs])
    G = K.gram_matrix(X, X.copy(), "gaussian", 2.0, 1.0, 2)
    assert np.array_equal(G, G.T)
    for kind in ("gaussian", "polynomial"):
        G = K.gram_matrix(X, X, kind, 2.0, 1.0, 3)
        assert np.array_equal(G, G.T), kind


def test_real_matmul_complex_matches_complex_product():
    rng = _rng(7)
    Kr = rng.normal(size=(5, 30))
    C = rng.normal(size=(30, 4)) + 1j * rng.normal(size=(30, 4))
    np.testing.assert_allclose(K.real_matmul_complex(Kr, C), Kr @ C, rtol=1e-13)
    np.testing.assert_allclose(K.real_matmul_complex(Kr, C[:, ::2]), Kr @ C[:, ::2],
                               rtol=1e-13)


# ---------------------------------------------------------------------------
# linear iteration
# ---------------------------------------------------------------------------

def test_iterate_linear_match_reference():
    rng = _rng(6)
    A = rng.normal(size=(5, 5)) * 0.3
    z0 = rng.normal(size=5)
    out = K.iterate_linear(A, z0, 40)
    assert out.shape == (41, 5)
    ref = _iterate_ref(A, None, z0, None, 40)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)


def test_iterate_linear_complex():
    lam = np.array([0.9 * np.exp(0.3j), 0.9 * np.exp(-0.3j), 0.5 + 0j])
    A = np.diag(lam)
    z0 = np.array([1 + 1j, 1 - 1j, 2 + 0j])
    out = K.iterate_linear(A, z0, 25)
    assert out.dtype == complex
    ref = _iterate_ref(A, None, z0, None, 25)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(out[25], lam**25 * z0, rtol=1e-12)


def test_iterate_linear_controlled_match_reference():
    rng = _rng(7)
    A = rng.normal(size=(4, 4)) * 0.3
    B = rng.normal(size=(4, 2))
    z0 = rng.normal(size=4)
    U = rng.normal(size=(2, 30))
    out = K.iterate_linear_controlled(A, B, z0, U)
    assert out.shape == (31, 4)
    np.testing.assert_allclose(out, _iterate_ref(A, B, z0, U, 30), rtol=1e-12, atol=1e-13)


def _matvec_loop(A, z0, n_steps):
    """The rollout as one product with the whole of A per step."""
    out = np.empty((n_steps + 1, z0.shape[0]), dtype=A.dtype)
    out[0] = z0
    z = z0
    for k in range(n_steps):
        z = A @ z
        out[k + 1] = z
    return out


def _textbook_diagonal_loop(lam, z0, n_steps):
    """z_{k+1} = lam z_k per mode, each complex product as (ac - bd) + (ad + bc)i
    in Python floats, every operation rounded on its own."""
    out = np.empty((n_steps + 1, z0.shape[0]), dtype=complex)
    out[0] = z0
    for j, (l, z) in enumerate(zip(lam.tolist(), z0.tolist())):
        a, b = l.real, l.imag
        for k in range(n_steps):
            z = complex(z.real * a - z.imag * b, z.real * b + z.imag * a)
            out[k + 1, j] = z
    return out


def _spy_cumprod(monkeypatch):
    calls = []
    real_cumprod = np.cumprod

    def cumprod(*args, **kwargs):
        calls.append(args[0].shape)
        return real_cumprod(*args, **kwargs)

    monkeypatch.setattr(np, "cumprod", cumprod)
    return calls


@pytest.mark.parametrize("n_steps", [0, 1, 2, 2500])
def test_iterate_linear_diagonal_equals_the_matvec_loop(n_steps, monkeypatch):
    rng = _rng(8)
    calls = _spy_cumprod(monkeypatch)
    # real diagonals of both signs, and real values on a complex diagonal
    lam = rng.uniform(0.5, 1.0, 7) * rng.choice([-1.0, 1.0], 7)
    for A, z0 in ((np.diag(lam), rng.normal(size=7)),
                  (np.diag(lam.astype(complex)), rng.normal(size=7) + 1j * rng.normal(size=7))):
        out = K.iterate_linear(A, z0, n_steps)
        assert out.dtype == A.dtype and out.shape == (n_steps + 1, 7)
        np.testing.assert_array_equal(out, _matvec_loop(A, z0, n_steps))
    # a single step is the one matrix-vector product predict takes
    assert calls == ([] if n_steps < 2 else [(n_steps + 1, 7)] * 2)


@pytest.mark.parametrize("n_steps", [2, 3, 2500])
@pytest.mark.parametrize("N", [4, 5, 20])
def test_iterate_linear_complex_diagonal_is_one_textbook_product_per_step(N, n_steps):
    rng = _rng(9)
    lam = 0.999 * np.exp(1j * rng.uniform(-3.0, 3.0, N))
    lam[0] = 0.95  # a real mode among the complex ones
    z0 = rng.normal(size=N) + 1j * rng.normal(size=N)
    out = K.iterate_linear(np.diag(lam), z0, n_steps)
    np.testing.assert_array_equal(out, _textbook_diagonal_loop(lam, z0, n_steps))
    # BLAS may round a complex product otherwise, by an ulp or so per step
    np.testing.assert_allclose(out, _matvec_loop(np.diag(lam), z0, n_steps),
                               rtol=1e-12 * n_steps, atol=0)


def test_iterate_linear_one_off_diagonal_nonzero_takes_the_general_path(monkeypatch):
    rng = _rng(10)
    A = np.diag(rng.uniform(0.5, 1.0, 5))
    A[3, 1] = 0.25
    z0 = rng.normal(size=5)
    calls = _spy_cumprod(monkeypatch)
    out = K.iterate_linear(A, z0, 30)
    assert calls == []
    np.testing.assert_array_equal(out, _matvec_loop(A, z0, 30))


def test_iterate_linear_diagonal_overflow_keeps_the_other_modes_finite():
    # mode 0 overflows at step 1; the product with the whole of A would then
    # spread NaN into mode 1 through 0 * inf, the cumulative product does not
    A = np.diag([1e200, 0.5])
    z0 = np.array([1e200, 1.0])
    with pytest.warns(RuntimeWarning, match="overflow"):
        out = K.iterate_linear(A, z0, 4)
    assert np.isposinf(out[1:, 0]).all()
    np.testing.assert_array_equal(out[:, 1], 0.5 ** np.arange(5))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_matvec_loop(A, z0, 4)[2:, 1]).all()
