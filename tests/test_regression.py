import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import kooplift as kl
from kooplift.errors import ConfigError, DataError, RegressionError

from conftest import make_slow_manifold_dataset, numpy_route

RNG = np.random.default_rng(2024)


def _linear_snapshots(M, z0s, steps):
    cols = []
    nxt = []
    for z0 in z0s:
        z = np.asarray(z0, dtype=float)
        for _ in range(steps):
            zn = M @ z
            cols.append(z)
            nxt.append(zn)
            z = zn
    return np.array(cols).T, np.array(nxt).T


# ---------------------------------------------------------------------------
# fit_edmd
# ---------------------------------------------------------------------------

def test_edmd_quadratic_embedding_spectrum():
    # lifted slow-manifold dynamics zdot = M z with z = (x1, x2, x1^2);
    # oracle: discrete eigenvalues of expm(dt * M)
    mu, lam, dt = -0.05, -1.0, 0.02
    M = np.array([[mu, 0.0, 0.0], [0.0, lam, -lam], [0.0, 0.0, 2 * mu]])
    A_true = scipy.linalg.expm(dt * M)
    oracle = np.sort(np.linalg.eigvals(A_true).real)[::-1]
    frozen = np.array([0.9990005, 0.9980020, 0.9801987])
    np.testing.assert_allclose(oracle, frozen, atol=5e-8)

    z0s = RNG.uniform(-1, 1, size=(8, 3))
    Z, Zp = _linear_snapshots(A_true, z0s, 30)
    res = kl.fit_edmd(Z, Zp)
    got = np.sort(res.eigensystem.lambdas.real)[::-1]
    assert np.max(np.abs(res.eigensystem.lambdas.imag)) < 1e-10
    np.testing.assert_allclose(got, frozen, atol=1e-6)


def test_edmd_identity_dynamics():
    Z = RNG.normal(size=(3, 20))
    res = kl.fit_edmd(Z, Z)
    np.testing.assert_allclose(res.eigensystem.lambdas, np.ones(3), atol=1e-12)


def test_edmd_takes_a_1d_row_as_one_feature():
    z = 0.9 ** np.arange(20.0)
    res = kl.fit_edmd(z[:-1], z[1:])
    assert np.array_equal(res.A, kl.fit_edmd(z[None, :-1], z[None, 1:]).A)
    np.testing.assert_allclose(res.A, [[0.9]], atol=1e-12)


def test_edmd_recovers_full_rank_operator_vs_pinv_oracle():
    M = RNG.normal(size=(3, 3))
    Z = RNG.normal(size=(3, 50))
    Zp = M @ Z
    res = kl.fit_edmd(Z, Zp)
    np.testing.assert_allclose(res.A, M, atol=1e-8)
    A_pinv = Zp @ np.linalg.pinv(Z)
    np.testing.assert_allclose(res.A, A_pinv, atol=1e-10)
    assert res.residual_rel < 1e-12


def test_edmd_least_squares_local_optimality():
    Z = RNG.normal(size=(4, 40))
    Zp = RNG.normal(size=(4, 40))  # inconsistent data: nonzero residual
    res = kl.fit_edmd(Z, Zp)
    base = np.linalg.norm(Zp - res.A @ Z)
    for k in range(5):
        E = np.random.default_rng(k).normal(size=(4, 4))
        assert np.linalg.norm(Zp - (res.A + 1e-3 * E) @ Z) >= base


def test_edmd_errors():
    with pytest.raises(RegressionError, match="at least 2"):
        kl.fit_edmd(np.ones((2, 1)), np.ones((2, 1)))
    with pytest.raises(RegressionError, match="below cutoff"):
        kl.fit_edmd(np.zeros((2, 5)), np.zeros((2, 5)))
    with pytest.raises(DataError):
        kl.fit_edmd(np.ones((2, 5)), np.ones((3, 5)))


def test_edmd_exact_modes_equal_projected_for_closed_data():
    M = RNG.normal(size=(4, 4)) * 0.4
    Z = RNG.normal(size=(4, 60))
    res = kl.fit_edmd(Z, M @ Z)
    np.testing.assert_allclose(res.modes_exact, res.eigensystem.W_right, atol=1e-8)


def test_edmd_zero_eigenvalue_modes_fall_back_to_projected():
    N = np.array([[0.0, 1.0], [0.0, 0.0]])  # nilpotent: both eigenvalues zero
    Z = RNG.normal(size=(2, 30))
    res = kl.fit_edmd(Z, N @ Z)
    assert any(f.kind == "exact-mode-fallback" for f in res.findings)
    zero = res.eigensystem.lambdas == 0
    np.testing.assert_array_equal(
        res.modes_exact[:, zero], res.eigensystem.W_right[:, zero]
    )
    mus = kl.continuous_eigenvalues(res.eigensystem.lambdas, 1.0)
    assert np.all(mus[zero].real == -np.inf)


@settings(max_examples=60, deadline=None)
@given(
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    m=st.integers(min_value=5, max_value=200),
    angle=st.floats(min_value=0.0, max_value=2.0 * np.pi),
    coupling=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
    route=st.sampled_from(["edmd", "kdmd"]),
)
def test_nilpotent_fits_report_exact_zero_eigenvalues(log_scale, m, angle, coupling,
                                                       seed, route):
    # N = s u v^T with v orthogonal to u is nilpotent: both eigenvalues are 0
    u = np.array([np.cos(angle), np.sin(angle)])
    N = 10.0**log_scale * coupling * np.outer(u, [-u[1], u[0]])
    Z = np.random.default_rng(seed).normal(size=(2, m))
    if route == "edmd":
        res = kl.fit_edmd(Z, N @ Z)
    else:
        linear = kl.KernelConfig(kind="polynomial", degree=1, offset=0.0)
        res = kl.fit_kdmd(Z, N @ Z, linear)
    assert np.all(res.eigensystem.lambdas == 0)
    assert np.all(kl.continuous_eigenvalues(res.eigensystem.lambdas, 1.0).real == -np.inf)
    findings = res.eigensystem.findings
    assert any(f.kind == "zero-eigenvalue" and "2 zero eigenvalue(s)" in f.message
               for f in findings)
    assert not any(f.kind == "negative-real-eigenvalue" for f in findings)


def test_each_record_lists_only_its_own_findings():
    # a nilpotent operator: every fit finds the zero eigenvalues in its
    # eigensystem, and only fit_edmd adds a finding of its own
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    Z = RNG.normal(size=(2, 30))
    U = RNG.normal(size=(1, 30))
    linear = kl.KernelConfig(kind="polynomial", degree=1, offset=0.0)
    fits = {
        "edmd": kl.fit_edmd(Z, N @ Z),
        "edmdc": kl.fit_edmdc(Z, N @ Z + np.array([[0.0], [1.0]]) @ U, U),
        "kdmd": kl.fit_kdmd(Z, N @ Z, linear),
    }
    for name, res in fits.items():
        assert "zero-eigenvalue" in [f.kind for f in res.eigensystem.findings], name
        own = ["exact-mode-fallback"] if name == "edmd" else []
        assert [f.kind for f in res.findings] == own, name
    assert not hasattr(fits["kdmd"], "kernel_centers")
    assert fits["kdmd"].kernel_alpha.shape == (30, 2)


def test_nonnormal_fit_keeps_eigenvalues_out_of_the_zero_class():
    # this fit's ||A||_2 is over 1e6 times its eigenvalues, which all lie near 1
    data = make_slow_manifold_dataset(grid=5, t_end=20.0)
    model = kl.fit(kl.RadialBasis("invquad", n_centers=10, seed=1), "edmd", data)
    smallest = np.min(np.abs(model.eigenvalues))
    assert smallest < 1e-6 * np.linalg.norm(model.A, 2)
    assert smallest > 0.9
    assert not any(f.kind in ("zero-eigenvalue", "exact-mode-fallback")
                   for f in model.metadata["findings"])


# ---------------------------------------------------------------------------
# fit_edmd on raw states (dmd)
# ---------------------------------------------------------------------------

def _diag_trajectories():
    A = np.diag([0.9, 0.5])
    return _linear_snapshots(A, [np.array([1.0, 0.0]), np.array([0.0, 1.0])], 10)


def test_dmd_known_diagonal_map():
    X, Xp = _diag_trajectories()
    res = kl.fit_edmd(X, Xp)
    np.testing.assert_allclose(
        np.sort(res.eigensystem.lambdas.real)[::-1], [0.9, 0.5], atol=1e-10
    )


def test_dmd_rank1_truncation_keeps_dominant_mode():
    X, Xp = _diag_trajectories()
    res = kl.fit_edmd(X, Xp, rank=1)
    assert res.rank == 1
    np.testing.assert_allclose(res.eigensystem.lambdas, [0.9], atol=1e-10)


def test_dmd_constant_trajectory():
    X = np.tile(np.array([[2.0], [1.0]]), (1, 10))
    res = kl.fit_edmd(X, X)
    np.testing.assert_allclose(res.eigensystem.lambdas, [1.0], atol=1e-12)
    with pytest.raises(RegressionError, match="below cutoff"):
        kl.fit_edmd(X - X.mean(axis=1, keepdims=True),
                    X - X.mean(axis=1, keepdims=True))


def test_dmd_equals_edmd_on_same_data():
    X = RNG.normal(size=(3, 30))
    Xp = RNG.normal(size=(3, 30))
    # one two-sample trajectory per column pairs exactly X with Xp
    ds = kl.TrajectoryDataset([np.vstack([x, xp]) for x, xp in zip(X.T, Xp.T)], dt=1.0)
    a = kl.fit(None, "dmd", ds).regression
    b = kl.fit_edmd(X, Xp)
    np.testing.assert_array_equal(a.eigensystem.lambdas, b.eigensystem.lambdas)
    np.testing.assert_array_equal(a.A, b.A)


def test_float_rank_acts_as_cutoff():
    X = np.vstack([RNG.normal(size=(1, 40)), 1e-12 * RNG.normal(size=(1, 40))])
    res = kl.fit_edmd(X, X, rank=1e-6)
    assert res.rank == 1


# ---------------------------------------------------------------------------
# controlled fits
# ---------------------------------------------------------------------------

def test_edmdc_scalar_recovery_vs_lstsq_oracle():
    z = RNG.normal(size=(1, 30))
    u = RNG.normal(size=(1, 30))
    zp = 0.5 * z + 1.0 * u
    res = kl.fit_edmdc(z, zp, u)
    assert res.A[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert res.B[0, 0] == pytest.approx(1.0, abs=1e-10)
    stacked = np.vstack([z, u])
    AB = np.linalg.lstsq(stacked.T, zp.T, rcond=None)[0].T
    np.testing.assert_allclose(np.hstack([res.A, res.B]), AB, atol=1e-10)


def test_edmdc_zero_input_reduces_to_edmd():
    Z = RNG.normal(size=(3, 40))
    Zp = RNG.normal(size=(3, 40))
    res_c = kl.fit_edmdc(Z, Zp, np.zeros((1, 40)))
    res_u = kl.fit_edmd(Z, Zp)
    np.testing.assert_allclose(res_c.A, res_u.A, atol=1e-12)
    assert np.linalg.norm(res_c.B) <= 1e-8 * np.linalg.norm(res_c.A)


def _drss_excitation(seed, n=3, q=1, m=200):
    A, B = kl.drss(n, q, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=n)
    X, Xp, U = [], [], []
    for _ in range(m):
        u = rng.normal(size=q)
        xp = A @ x + B @ u
        X.append(x)
        Xp.append(xp)
        U.append(u)
        x = xp
    return A, B, np.array(X).T, np.array(Xp).T, np.array(U).T


@pytest.mark.parametrize("fitter", [kl.fit_edmdc])
def test_controlled_recovery_from_drss_truth(fitter):
    A, B, X, Xp, U = _drss_excitation(seed=5)
    res = fitter(X, Xp, U)
    np.testing.assert_allclose(res.A, A, atol=1e-8)
    np.testing.assert_allclose(res.B, B, atol=1e-8)


def test_dmdc_output_compression():
    A, B, X, Xp, U = _drss_excitation(seed=9)
    res = kl.fit_edmdc(X, Xp, U, rank_out=2)
    assert res.rank == 2
    assert res.eigensystem.lambdas.shape == (2,)
    assert res.A.shape == (3, 3)
    assert np.linalg.matrix_rank(res.A) == 2
    # reduced eigenvalues are a subset of the well-separated true spectrum
    lam_true = np.linalg.eigvals(A)
    for lam in res.eigensystem.lambdas:
        assert np.min(np.abs(lam_true - lam)) < 0.2


def test_edmdc_errors():
    Z = np.ones((2, 5))
    with pytest.raises(ConfigError, match="use fit_edmd"):
        kl.fit_edmdc(Z, Z, np.ones((0, 5)))
    with pytest.raises(ConfigError, match="rank_in"):
        kl.fit_edmdc(Z, Z, np.ones((1, 5)), rank_in=10)


# ---------------------------------------------------------------------------
# the R factor of the snapshot pairs
# ---------------------------------------------------------------------------

def _orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.normal(size=(rows, cols)))[0]


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=6),
    q=st.integers(min_value=0, max_value=3),
    size=st.sampled_from(["two", "wide", "square", "chunk", "chunk+1", "2 chunks+7"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_edmd_and_edmdc_match_a_dense_lstsq_reference(N, q, size, seed):
    # well-conditioned pairs: the stacked [Z; U] has singular values in [1, 2]
    # whatever m, so the fits and the reference agree to rounding
    chunk = kl.regression.QR_CHUNK
    m = {"two": 2, "wide": max(2, N - 1), "square": max(2, 2 * N + q - 1),
         "chunk": chunk, "chunk+1": chunk + 1, "2 chunks+7": 2 * chunk + 7}[size]
    rng = np.random.default_rng(seed)
    r = min(N + q, m)
    Omega = (_orthonormal(rng, N + q, r) * rng.uniform(1.0, 2.0, r)) @ _orthonormal(rng, m, r).T
    Z, U = Omega[:N], Omega[N:]
    Zp = rng.normal(size=(N, N + q)) @ Omega + 0.1 * rng.normal(size=(N, m))
    AB_ref = np.linalg.lstsq(Omega.T, Zp.T, rcond=None)[0].T
    if not q:
        # fit_edmd keeps the operator on the range of Z, which is a proper
        # subspace for wide pairs (m < N)
        Ur = np.linalg.svd(Z, full_matrices=False)[0][:, :r]
        AB_ref = Ur @ (Ur.T @ AB_ref)
    res = kl.fit_edmdc(Z, Zp, U) if q else kl.fit_edmd(Z, Zp)
    AB = np.hstack([res.A, res.B]) if q else res.A
    assert np.linalg.norm(AB - AB_ref) <= 1e-12 * np.linalg.norm(AB_ref)
    resid_ref = np.linalg.norm(Zp - AB_ref @ Omega)
    assert abs(res.residual_fro - resid_ref) <= 1e-10 * resid_ref + 1e-13 * np.linalg.norm(Zp)
    assert res.residual_rel == pytest.approx(res.residual_fro / np.linalg.norm(Zp), rel=1e-12)
    assert res.m == m


@pytest.mark.parametrize("m", [3, 12, 257])
def test_pair_factor_is_independent_of_the_block_boundaries(m, monkeypatch):
    rng = np.random.default_rng(m)
    blocks = (rng.normal(size=(4, m)), rng.normal(size=(1, m)), rng.normal(size=(4, m)))
    M = np.vstack(blocks).T
    gram = M.T @ M
    pairs = kl.SnapshotPairs.from_columns(blocks[0], blocks[2], U=blocks[1])
    # chunks of ceil(m / 3), ceil(m / 2) and m give 3, 2 and 1 blocks: two
    # unequal streams, two streams of one block, and an empty stream 1
    for chunk in (1, 2, 7, 64, -(-m // 3), -(-m // 2), m, 10_000):
        monkeypatch.setattr(kl.regression, "QR_CHUNK", chunk)
        parts = kl.regression._pair_factor(pairs, inputs=True)
        R = np.hstack(parts)
        assert R.shape == (min(m, 9), 9)
        assert [p.shape[1] for p in parts] == [4, 1, 4]
        assert np.linalg.norm(R.T @ R - gram) <= 1e-12 * np.linalg.norm(gram), chunk


# widths 9 and 36 take dtpqrt's narrow block size, 130 the wide one; at
# m = 257, chunks of 10,000, 129 and 100 give 1, 2 and 3 blocks (an empty
# stream 1, equal streams, unequal ones)
_TSQR_CASES = ([(m, chunk, 9) for m in (9, 12, 257) for chunk in (1, 7, 64)]
               + [(257, 10_000, 9), (257, 129, 9), (257, 100, 9), (10_007, 64, 9),
                  (10_007, 10_000, 9)]
               + [(m, chunk, W) for W in (36, 130)
                  for m, chunk in ((257, 7), (257, 10_000), (257, 100), (10_007, 64))])


@pytest.mark.parametrize("m,chunk,W", _TSQR_CASES, ids=[
    f"{m}-{chunk}" + (f"-W{W}" if W != 9 else "") for m, chunk, W in _TSQR_CASES])
def test_tsqr_matches_numpys_qr_up_to_row_signs(m, chunk, W, tsqr_update, monkeypatch):
    # pairs of full column rank with singular values in [1, 2]: their R
    # factor is unique up to the signs of its rows and well conditioned, so
    # the blocked update and one np.linalg.qr of the stacked rows agree to
    # rounding, stated here as 16 eps ||M||_2, on either update
    assert kl._kernels.tpqrt_nb(W) == (16 if W == 130 else 4)
    rng = np.random.default_rng(m + chunk + W - 9)
    M = (_orthonormal(rng, m, W) * rng.uniform(1.0, 2.0, W)) @ _orthonormal(rng, W, W).T
    N = (W - 1) // 2  # [X | U | X'] with N features and W - 2N inputs
    pairs = kl.SnapshotPairs.from_columns(M[:, :N].T, M[:, W - N:].T, U=M[:, N:W - N].T)
    monkeypatch.setattr(kl.regression, "QR_CHUNK", chunk)
    R = np.hstack(kl.regression._pair_factor(pairs, inputs=True))
    ref = np.linalg.qr(M, mode="r")
    signs = np.sign(np.diag(R)) * np.sign(np.diag(ref))
    err = np.abs(signs[:, None] * R - ref).max()
    assert err <= 16 * np.finfo(float).eps * np.linalg.norm(M, 2), err


@settings(max_examples=60, deadline=None)
@given(
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    m=st.sampled_from([3, 12, 40]),
    chunk=st.sampled_from([1, 5, 64]),
    pair=st.integers(min_value=0, max_value=39),
    column=st.integers(min_value=0, max_value=8),
)
def test_a_non_finite_pair_leaves_the_tsqr_r_non_finite(bad, m, chunk, pair, column):
    # a NaN or an inf anywhere in [X | U | X'], in any block and column, also
    # below R's rows for m < W, reaches R: the update runs through LAPACKE's
    # _work entry point, which does not scan for NaN and return early with R
    # left at zero. The TSQR then searches the pairs and names the pair.
    rng = np.random.default_rng(m + column)
    M = rng.normal(size=(m, 9))
    j = pair % m
    M[j, column] = bad
    pairs = kl.SnapshotPairs.from_columns(M[:, :4].T, M[:, 5:].T, U=M[:, 4:5].T)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kl.regression, "QR_CHUNK", chunk)
        with pytest.raises(DataError, match=f"^snapshot pair {j} holds a non-finite value"):
            kl.regression._pair_factor(pairs, inputs=True)


def test_tsqr_r_does_not_follow_the_blas_thread_count():
    # 12,000 pairs of width 64 are three blocks, two in stream 0 and one in
    # stream 1; the TSQR runs on one BLAS thread whatever the process's
    # count, so R has the same bits at OPENBLAS_NUM_THREADS=1 and 2
    src = os.path.dirname(os.path.dirname(kl.__file__))
    code = (
        "import hashlib, numpy as np, kooplift as kl\n"
        "M = np.random.default_rng(7).normal(size=(12_000, 64))\n"
        "pairs = kl.SnapshotPairs.from_columns(M[:, :31].T, M[:, 33:].T, U=M[:, 31:33].T)\n"
        "R = np.hstack(kl.regression._pair_factor(pairs, inputs=True))\n"
        "print(hashlib.sha256(R.tobytes()).hexdigest())\n"
    )
    digests = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=dict(os.environ, PYTHONPATH=src,
                                                   OPENBLAS_NUM_THREADS=str(t))).stdout
               for t in (1, 2)]
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


@pytest.fixture
def two_blas_threads():
    # a BLAS thread count of 2, also when the suite runs with
    # OPENBLAS_NUM_THREADS=1, so a TSQR that left it at 1 shows; the
    # process's own count is restored after
    count = kl._kernels._blas_thread_count()
    if count is None:
        pytest.skip("numpy's BLAS library exports no thread-count routines")
    get, put = count
    found = get()
    put(2)
    try:
        yield get
    finally:
        put(found)


def _multi_block_dataset(bad=False):
    x0 = np.random.default_rng(8).uniform(-1.0, 1.0, size=(4, 2))
    trajs = list(kl.integrate_rk4_batch(kl.get_system("slow_manifold"), x0, 0.02, 60))
    if bad:
        trajs[2][5, 0] = np.nan
    return kl.TrajectoryDataset(trajs, dt=0.02)


def test_fits_leave_the_blas_thread_count_as_they_found_it(two_blas_threads, monkeypatch):
    import threading

    # 240 pairs in blocks of 50: both streams run, on two Python threads
    monkeypatch.setattr(kl.regression, "QR_CHUNK", 50)
    get = two_blas_threads
    kl.fit(kl.Polynomial(3), "edmd", _multi_block_dataset())
    assert get() == 2
    with pytest.raises(DataError, match="regression stage: snapshot pair 124 holds a non-finite"):
        kl.fit(kl.Polynomial(3), "edmd", _multi_block_dataset(bad=True))
    assert get() == 2
    # two fits at once, from two Python threads: the count each TSQR sets
    # and restores is the one the first of them found
    start = threading.Barrier(2)
    models = []

    def one_fit():
        start.wait()
        models.append(kl.fit(kl.Polynomial(3), "edmd", _multi_block_dataset()))

    threads = [threading.Thread(target=one_fit) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert get() == 2 and len(models) == 2
    np.testing.assert_array_equal(models[0].A, models[1].A)


def test_tsqr_without_thread_count_routines_runs_the_streams_in_turn(two_blas_threads,
                                                                      monkeypatch):
    M = np.random.default_rng(9).normal(size=(12_000, 64))
    pairs = kl.SnapshotPairs.from_columns(M[:, :31].T, M[:, 33:].T, U=M[:, 31:33].T)
    rows = kl.SnapshotPairs.rows
    read_on = []
    monkeypatch.setattr(kl.SnapshotPairs, "rows", lambda self, *block: (
        read_on.append(threading.current_thread()) or rows(self, *block)))
    threaded = np.hstack(kl.regression._pair_factor(pairs, inputs=True))
    assert len(set(read_on)) == 2
    # a numpy whose BLAS library cannot set its thread count runs the same
    # streams one after the other on the calling thread, at the process's
    # count, here set to one by hand: the same bits
    get, put = kl._kernels._blas_thread_count()
    monkeypatch.setattr(kl._kernels, "_blas_thread_count", lambda: None)
    put(1)
    read_on.clear()
    in_turn = np.hstack(kl.regression._pair_factor(pairs, inputs=True))
    assert set(read_on) == {threading.main_thread()} and get() == 1
    np.testing.assert_array_equal(in_turn, threaded)


@pytest.mark.parametrize("kind", ["dmd", "edmd", "hdmd", "dmdc", "edmdc", "hdmdc"])
def test_every_explicit_kind_fits_alike_on_both_tsqr_updates(kind, monkeypatch):
    # 240 pairs in blocks of 50: both lanes and the merge run, on dtpqrt and
    # on the numpy update. R agrees to 16 eps ||M||_2 (see
    # test_tsqr_matches_numpys_qr_up_to_row_signs), and each eigenvalue to
    # that bound carried by its condition number, 16 eps kappa_j ||A||_2;
    # on each update, validation has the bits of the fit's own scores
    monkeypatch.setattr(kl.regression, "QR_CHUNK", 50)
    rng = np.random.default_rng(8)
    x0 = rng.uniform(-1.0, 1.0, size=(4, 2))
    if kind.endswith("c"):
        U = rng.uniform(-1.0, 1.0, size=(4, 60, 1))
        trajs = kl.integrate_rk4_batch(kl.get_system("vdp_osc"), x0, 0.05, 60, U)
        data = kl.TrajectoryDataset(list(trajs), 0.05, [np.vstack([u, u[-1:]]) for u in U])
    else:
        data = _multi_block_dataset()
    library = kl.Polynomial(2) if kind.startswith("e") else None
    config = kl.RegressorConfig(kind=kind, delays=2 if kind.startswith("h") else 0)
    models = []
    for update in ("library", "numpy"):
        with monkeypatch.context() as m:
            if update == "numpy":
                numpy_route(m, "lapack_tpqrt")
            model = kl.fit(library, config, data)
            np.testing.assert_array_equal(model.linearity_consistency(data)[0],
                                          model.training_scores)
        models.append(model)
    es = models[0].regression.eigensystem
    kappa = np.linalg.norm(es.W_left, axis=0) * np.linalg.norm(es.W_right, axis=0)
    bound = 16 * np.finfo(float).eps * kappa * np.linalg.norm(models[0].A, 2)
    assert np.all(np.abs(models[1].eigenvalues - models[0].eigenvalues) <= bound)


# the libraries a PairStream lifts for the TSQR, by name; the state has 2
# coordinates. 300 Fourier features are as many as a GEMM's X @ W needs on
# 2,000 states to round otherwise at one OpenBLAS thread than at two
_STREAM_LIBRARIES = {
    "identity": lambda: kl.Identity(),
    "polynomial": lambda: kl.Polynomial(3),
    "rbf": lambda: kl.RadialBasis("gauss", n_centers=7, seed=1),
    "rff-state": lambda: kl.RandomFourier(300, sigma=0.8, seed=2),
    "rff": lambda: kl.RandomFourier(300, sigma=0.8, seed=2, include_state=False),
    "time-delay": lambda: kl.TimeDelay(3),
    "concat": lambda: kl.Concat([kl.Polynomial(2), kl.RandomFourier(300, seed=5)]),
}


def _stream_dataset(controlled):
    # trajectories shorter and longer than the 40-pair blocks below, so
    # blocks straddle trajectories and trajectories span several blocks
    rng = np.random.default_rng(31)
    lengths = (13, 95, 7, 41, 120, 30)
    trajs = [rng.uniform(-1.0, 1.0, size=(T, 2)) for T in lengths]
    inputs = [rng.normal(size=(T, 1)) for T in lengths] if controlled else None
    return kl.TrajectoryDataset(trajs, 0.1, inputs)


def _streamed_and_built_factors(name, controlled):
    data = _stream_dataset(controlled)
    library = _STREAM_LIBRARIES[name]().bind(2)
    library.prepare(np.vstack(data.trajectories))
    return [np.hstack([p for p in kl.regression._pair_factor(pairs, inputs=controlled)
                       if p is not None])
            for pairs in (kl.data.PairStream(data, library),
                          kl.build_snapshot_pairs(data, library))]


@pytest.mark.parametrize("chunk", [40, 500, 10_000], ids=["many-blocks", "two-blocks",
                                                          "one-block"])
@pytest.mark.parametrize("controlled", [False, True], ids=["unforced", "controlled"])
@pytest.mark.parametrize("name", list(_STREAM_LIBRARIES))
def test_a_streamed_pair_factor_has_the_bits_of_the_built_pairs(name, controlled, chunk,
                                                                 monkeypatch):
    # the TSQR's lanes lift the trajectories a block covers themselves; R has
    # the bits of the factor of the built pairs, for every block plan
    monkeypatch.setattr(kl.regression, "QR_CHUNK", chunk)
    streamed, built = _streamed_and_built_factors(name, controlled)
    assert streamed.tobytes() == built.tobytes()


def test_a_streamed_pair_factor_has_the_bits_of_the_built_pairs_at_one_and_two_blas_threads():
    # the lanes lift on one BLAS thread and build_snapshot_pairs at the
    # process's count: every library lifts a 2,000-state trajectory with the
    # same bits at one BLAS thread as at the process's count, the streamed R
    # equals the built one, and R is the same at both counts
    src = os.path.dirname(os.path.dirname(kl.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import hashlib, numpy as np, kooplift as kl, test_regression as t\n"
        "kl.regression.QR_CHUNK = 40\n"
        "big = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2000, 2))\n"
        "for name, make in t._STREAM_LIBRARIES.items():\n"
        "    lib = make().bind(2)\n"
        "    lib.prepare(big)\n"
        "    here = lib.lift_trajectory(big)\n"
        "    with kl._kernels.one_blas_thread():\n"
        "        one = lib.lift_trajectory(big)\n"
        "    print(name, 'lift', here.tobytes() == one.tobytes())\n"
        "    for controlled in (False, True):\n"
        "        streamed, built = t._streamed_and_built_factors(name, controlled)\n"
        "        print(name, controlled, streamed.tobytes() == built.tobytes(),\n"
        "              hashlib.sha256(streamed.tobytes()).hexdigest())\n"
    )
    outputs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, cwd=tests,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]),
                                       OPENBLAS_NUM_THREADS=str(t))).stdout
               for t in (1, 2)]
    for out in outputs:
        lines = out.splitlines()
        assert len(lines) == 3 * len(_STREAM_LIBRARIES)
        assert all(line.split()[2] == "True" for line in lines), out
    assert outputs[0] == outputs[1]


def test_an_exception_in_lane_1s_lift_is_raised_on_the_caller(two_blas_threads, monkeypatch):
    # blocks of 50 pairs over trajectories of 19: the trajectory of pairs
    # 57-75 lies inside block 1, so lane 1, on its own Python thread, is the
    # one lane that lifts its samples
    monkeypatch.setattr(kl.regression, "QR_CHUNK", 50)
    rng = np.random.default_rng(4)
    data = kl.TrajectoryDataset([rng.normal(size=(20, 2)) for _ in range(12)], 0.1)
    lifted_on = []

    class Failing(kl.Polynomial):
        def lift_trajectory(self, traj):
            lifted_on.append(threading.current_thread())
            if np.shares_memory(traj, data.trajectories[3]):
                raise DataError("cannot lift this one")
            return super().lift_trajectory(traj)

    with pytest.raises(DataError, match="^regression stage: trajectory 3: cannot lift this one$"):
        kl.fit(Failing(2), "edmd", data)
    assert threading.main_thread() in lifted_on and len(set(lifted_on)) == 2
    assert two_blas_threads() == 2


def test_a_custom_librarys_functions_run_on_both_tsqr_lanes(two_blas_threads, monkeypatch):
    # the lanes lift their own blocks on two Python threads at once, so a
    # library's functions run on both (as the Observable docstring says)
    monkeypatch.setattr(kl.regression, "QR_CHUNK", 50)
    rng = np.random.default_rng(4)
    data = kl.TrajectoryDataset([rng.normal(size=(20, 2)) for _ in range(12)], 0.1)
    ran_on = []

    def square(x):
        ran_on.append(threading.current_thread())
        return x * x

    kl.fit(kl.Custom([square]), "edmd", data)
    assert threading.main_thread() in ran_on and len(set(ran_on)) == 2
    assert {t.name for t in ran_on} == {threading.main_thread().name, "kooplift-tsqr"}


def test_rank_out_matches_the_dense_projection():
    A_true, B_true, X, Xp, U = _drss_excitation(seed=11, n=4, q=2)
    Xp = Xp + 0.01 * np.random.default_rng(0).normal(size=Xp.shape)
    res = kl.fit_edmdc(X, Xp, U, rank_out=3)
    AB = np.linalg.lstsq(np.vstack([X, U]).T, Xp.T, rcond=None)[0].T
    P = np.linalg.svd(Xp, full_matrices=False)[0][:, :3]
    Pi = P @ P.T
    np.testing.assert_allclose(res.A, Pi @ AB[:, :4] @ Pi, atol=1e-12)
    np.testing.assert_allclose(res.B, Pi @ AB[:, 4:], atol=1e-12)
    np.testing.assert_allclose(np.sort_complex(res.eigensystem.lambdas),
                               np.sort_complex(np.linalg.eigvals(P.T @ AB[:, :4] @ P)),
                               atol=1e-12)
    # the residual is that of the uncompressed fit
    assert res.residual_fro == pytest.approx(np.linalg.norm(Xp - AB @ np.vstack([X, U])),
                                             rel=1e-10)


def test_edmdc_allocates_less_than_one_lifted_matrix():
    import tracemalloc

    rng = np.random.default_rng(0)
    N, m = 20, 60_000
    Z = rng.normal(size=(N, m))
    U = rng.normal(size=(1, m))
    Zp = 0.5 * Z + rng.normal(size=(N, m))
    tracemalloc.start()
    try:
        kl.fit_edmdc(Z, Zp, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < Z.nbytes


@pytest.mark.parametrize("kind", ["dmd", "edmd", "hdmd", "kdmd", "dmdc", "edmdc", "hdmdc"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_pairs_are_a_data_error(kind, bad):
    rng = np.random.default_rng(1)
    trajs = [rng.normal(size=(25, 2)) for _ in range(3)]
    trajs[1][7, 1] = bad
    controlled = kind.endswith("c")
    inputs = [rng.normal(size=(25, 1)) for _ in range(3)] if controlled else None
    data = kl.TrajectoryDataset(trajs, dt=0.1, inputs=inputs)
    with pytest.raises(DataError, match="regression stage: snapshot pair .* non-finite"):
        kl.fit(None, kind, data)


def test_non_finite_pairs_are_refused_by_each_regression():
    Z = RNG.normal(size=(3, 30))
    U = RNG.normal(size=(1, 30))
    bad = Z.copy()
    bad[2, 17] = np.nan
    with pytest.raises(DataError, match="snapshot pair 17 "):
        kl.fit_edmd(Z, bad)
    with pytest.raises(DataError, match="snapshot pair 17 "):
        kl.fit_kdmd(bad, Z, kl.KernelConfig())
    U[0, 4] = -np.inf
    with pytest.raises(DataError, match="snapshot pair 4 "):
        kl.fit_edmdc(Z, Z, U)


# ---------------------------------------------------------------------------
# kernel variant
# ---------------------------------------------------------------------------

SLOW_DT = 0.02  # the sample interval of the slow_manifold_pairs dataset


@pytest.fixture(scope="module")
def slow_manifold_pairs():
    ds = make_slow_manifold_dataset(grid=3, t_end=1.0, dt=SLOW_DT)
    pairs = kl.build_snapshot_pairs(ds)
    return pairs


def test_kdmd_polynomial_kernel_matches_edmd_oracle(slow_manifold_pairs):
    pairs = slow_manifold_pairs
    assert pairs.m >= 50
    kernel = kl.KernelConfig(kind="polynomial", degree=2, offset=1.0, reg_eps=0.0)
    res_k = kl.fit_kdmd(pairs.X, pairs.Xprime, kernel)
    lib = kl.Polynomial(2)
    lib.bind(2)
    Z = lib.lift_rows(pairs.X.T).T
    Zp = lib.lift_rows(pairs.Xprime.T).T
    res_e = kl.fit_edmd(Z, Zp)
    assert res_k.rank == res_e.rank == 6
    np.testing.assert_allclose(
        np.sort_complex(res_k.eigensystem.lambdas),
        np.sort_complex(res_e.eigensystem.lambdas),
        atol=1e-6,
    )


def test_kdmd_identity_data():
    X = RNG.normal(size=(2, 30))
    kernel = kl.KernelConfig(kind="gaussian", sigma=1.0)
    res = kl.fit_kdmd(X, X, kernel)
    np.testing.assert_allclose(res.eigensystem.lambdas, np.ones(res.rank), atol=1e-8)


def test_kdmd_wide_gaussian_approaches_linear_spectrum():
    M = np.diag([0.9, 0.5])
    X, Xp = _linear_snapshots(M, [np.array([1.0, 0.3]), np.array([-0.4, 1.0])], 15)
    res_lin = kl.fit_edmd(X, Xp)
    kernel = kl.KernelConfig(kind="gaussian", sigma=100.0)
    res_k = kl.fit_kdmd(X, Xp, kernel)
    for lam in res_lin.eigensystem.lambdas:
        assert np.min(np.abs(res_k.eigensystem.lambdas - lam)) < 1e-3


def test_kdmd_singular_gram_advises_regularization():
    X = np.zeros((2, 10))
    X[0] = np.linspace(0, 1, 10)
    kernel = kl.KernelConfig(kind="polynomial", degree=1, offset=0.0, reg_eps=0.0)
    with pytest.raises(RegressionError, match="reg_eps"):
        kl.fit_kdmd(X, X, kernel, rank=9)


def test_kdmd_generalized_eigenproblem_residual(slow_manifold_pairs):
    # the fit solves T alpha = lambda (G + eps m I) alpha projected onto the
    # principal eigenspace of G; check that defining relation directly, with
    # the eigenspace from this test's own dense eigh, for a dense fit and a
    # rank-10 fit on the Lanczos route (LANCZOS_RATIO * 10 <= m = 441)
    pairs = slow_manifold_pairs
    assert kl.regression.LANCZOS_RATIO * 10 <= pairs.m
    for kernel, rank in ((kl.KernelConfig(kind="polynomial", degree=2), None),
                         (kl.KernelConfig(kind="gaussian", sigma=1.0), 10)):
        res = kl.fit_kdmd(pairs.X, pairs.Xprime, kernel, rank=rank)
        G = kernel.gram(pairs.X.T.copy(), pairs.X.T.copy())
        T = kernel.gram(pairs.Xprime.T.copy(), pairs.X.T.copy())
        s, Q = np.linalg.eigh(0.5 * (G + G.T))
        Qr = Q[:, ::-1][:, : res.rank]
        R = Qr.T @ (T @ res.kernel_alpha - (G @ res.kernel_alpha) * res.eigensystem.lambdas)
        assert np.max(np.abs(R)) <= 1e-8 * np.linalg.norm(T), kernel.kind


def test_truncated_kdmd_matches_edmd_oracle(slow_manifold_pairs):
    # kdmd is EDMD on the kernel-section dictionary: at reg_eps = 0, regressing
    # Psi_X = G onto Psi_Y = T^T gives the same rank-r spectrum
    pairs = slow_manifold_pairs
    kernel = kl.KernelConfig(kind="gaussian", sigma=1.0)
    Xr = pairs.X.T.copy()
    G = kernel.gram(Xr, Xr)
    T = kernel.gram(pairs.Xprime.T.copy(), Xr)
    res_k = kl.fit_kdmd(pairs.X, pairs.Xprime, kernel, rank=10)
    res_e = kl.fit_edmd(G, T.T, rank=10)
    np.testing.assert_allclose(
        np.sort_complex(res_k.eigensystem.lambdas),
        np.sort_complex(res_e.eigensystem.lambdas),
        rtol=1e-10,
    )



def test_gaussian_gram_eigenpairs_skip_the_symmetrization(slow_manifold_pairs, monkeypatch):
    # G is exactly symmetric as the fit builds it, for both kernels, so the
    # Lanczos and dense solves on G itself give the bits of the solves on the
    # symmetrized G + G^T, halved (exactly, a power of two)
    pairs = slow_manifold_pairs
    Xr = np.ascontiguousarray(pairs.X.T)
    gram = kl.KernelConfig.gram
    assert kl.regression.LANCZOS_RATIO * 10 <= pairs.m
    for kernel in (kl.KernelConfig(kind="gaussian", sigma=1.0),
                   kl.KernelConfig(kind="polynomial", degree=3)):
        for rank in (10, None):
            monkeypatch.setattr(kl.KernelConfig, "gram", gram)
            G, s, Q, findings = kl.regression._gram_eigenpairs(kernel, Xr, rank)
            assert np.array_equal(G, G.T)
            assert s.shape == (rank or pairs.m,)
            assert findings == ()
            monkeypatch.setattr(kl.KernelConfig, "gram", lambda self, X, Y: G + G.T)
            _, s2, Q2, _ = kl.regression._gram_eigenpairs(kernel, Xr, rank)
            np.testing.assert_array_equal(s, 0.5 * s2)
            np.testing.assert_array_equal(Q, Q2)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(64, 800), frac=st.floats(0.0, 1.0),
       kernel=st.sampled_from([kl.KernelConfig(kind="gaussian", sigma=0.3),
                               kl.KernelConfig(kind="gaussian", sigma=2.0),
                               kl.KernelConfig(kind="polynomial", degree=3)]))
def test_lanczos_gram_eigenpairs_meet_the_dense_backward_error(seed, m, frac, kernel):
    # the Lanczos route's r leading pairs, r <= m / LANCZOS_RATIO, have the
    # backward error of a dense eigh: residuals ||G q - s q|| and distances to
    # the dense eigenvalues within a few eps * trace(G), an orthonormal Q. The
    # degree-3 polynomial G of 2-d states has rank 10, so r > 10 reaches into
    # its rounding-level null space
    Xr = np.random.default_rng(seed).uniform(-1.0, 1.0, (m, 2))
    r = 1 + int(frac * (m // kl.regression.LANCZOS_RATIO - 1))
    G, s, Q, findings = kl.regression._gram_eigenpairs(kernel, Xr, r)
    assert findings == ()
    assert s.shape == (r,) and Q.shape == (m, r)
    bound = 8 * np.finfo(float).eps * G.trace()
    assert np.linalg.norm(G @ Q - Q * s, axis=0).max() <= bound
    assert np.abs(Q.T @ Q - np.eye(r)).max() <= 1e-13
    assert np.abs(s - np.linalg.eigvalsh(G)[:-r - 1:-1]).max() <= bound


def _spied_lanczos(G, r):
    # _lanczos's result with the order k of each tridiagonal it checked
    sizes = []
    eigh = np.linalg.eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", lambda T: sizes.append(T.shape[0]) or eigh(T))
        out = kl.regression._lanczos(G, r, np.finfo(float).eps * G.trace())
    return out, sizes


def test_lanczos_without_dsymv_keeps_the_gemv_bits(monkeypatch):
    # a numpy whose BLAS library has no dsymv multiplies by the product its
    # loader gives there, the gemv of G @ v: the solve has the bits of the
    # iteration written out here on that product, run for as many steps as
    # the solve took
    Xr = np.random.default_rng(5).uniform(-1.0, 1.0, (400, 2))
    G = kl.KernelConfig(kind="gaussian", sigma=0.5).gram(Xr, Xr)
    r = 8
    numpy_route(monkeypatch, "blas_dsymv")
    (s, Q), sizes = _spied_lanczos(G, r)
    K = sizes[-1]
    cap = kl.regression._lanczos_cap(400, r)
    assert len(sizes) > 1 and K < cap
    V = np.empty((cap, 400))
    T = np.zeros((cap, cap))
    v = np.random.default_rng(0).uniform(-1.0, 1.0, 400)
    V[0] = v / np.linalg.norm(v)
    for k in range(K):
        w = G @ V[k]
        h = V[:k + 1] @ w
        w -= h @ V[:k + 1]
        h2 = V[:k + 1] @ w
        w -= h2 @ V[:k + 1]
        T[k, k] = h[k] + h2[k]
        beta = np.linalg.norm(w)
        V[k + 1] = w / beta
        T[k, k + 1] = T[k + 1, k] = beta
    theta, Y = np.linalg.eigh(T[:K, :K])
    np.testing.assert_array_equal(s, theta[:-r - 1:-1])
    np.testing.assert_array_equal(Q, V[:K].T @ Y[:, :-r - 1:-1])


def test_lanczos_on_dsymv_repeats_its_bits():
    # the docstring's determinism: two solves of one G, at one BLAS thread
    # count, give the same bits, also on the dsymv product
    if kl._kernels.blas_dsymv() is np.dot:
        pytest.skip("numpy's BLAS library exports no dsymv")
    Xr = np.random.default_rng(6).uniform(-1.0, 1.0, (900, 2))
    G = kl.KernelConfig(kind="gaussian", sigma=0.3).gram(Xr, Xr)
    (s, Q), sizes = _spied_lanczos(G, 12)
    (s2, Q2), sizes2 = _spied_lanczos(G, 12)
    assert sizes == sizes2
    np.testing.assert_array_equal(s, s2)
    np.testing.assert_array_equal(Q, Q2)


def test_lanczos_kdmd_fit_loads_no_scipy():
    # the Lanczos route runs on numpy alone, so a kdmd fit on it loads one
    # BLAS library: numpy's
    src = os.path.dirname(os.path.dirname(kl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, numpy as np, kooplift as kl\n"
        "x0 = np.array([[a, b] for a in (-1.0, 1.0) for b in (-0.5, 0.5)])\n"
        "batch = kl.integrate_rk4_batch(kl.get_system('slow_manifold'), x0, 0.02, 150)\n"
        "kernel = kl.KernelConfig(kind='gaussian', sigma=1.5, reg_eps=1e-10)\n"
        "model = kl.fit(None, kl.RegressorConfig(kind='kdmd', rank=10, kernel=kernel),\n"
        "               kl.TrajectoryDataset(list(batch), dt=0.02))\n"
        "print(model.regression.m, [f.kind for f in model.findings])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    fit, modules = out.stdout.strip().split("\n")
    m, findings = fit.split(" ", 1)
    assert kl.regression.LANCZOS_RATIO * 10 <= int(m)
    assert "lanczos-fallback" not in findings
    assert modules == "[]"


def test_explicit_fits_load_no_scipy():
    # the TSQR's update comes from the LAPACK library numpy links, so an
    # edmd or edmdc fit, and its validation, load no scipy
    src = os.path.dirname(os.path.dirname(kl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, numpy as np, kooplift as kl\n"
        "x0 = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 2))\n"
        "U = np.random.default_rng(1).uniform(-1.0, 1.0, size=(4, 150, 1))\n"
        "vdp = kl.get_system('vdp_osc')\n"
        "trajs = kl.integrate_rk4_batch(vdp, x0, 0.01, 150, U)\n"
        "inputs = [np.vstack([u, u[-1:]]) for u in U]\n"
        "for library, kind, data in (\n"
        "        (kl.Polynomial(2), 'edmd', kl.TrajectoryDataset(list(trajs), dt=0.01)),\n"
        "        (kl.RadialBasis('gauss', n_centers=10, seed=0), 'edmdc',\n"
        "         kl.TrajectoryDataset(list(trajs), dt=0.01, inputs=inputs))):\n"
        "    model = kl.fit(library, kind, data)\n"
        "    model.linearity_consistency(data)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_kdmd_refuses_a_zero_gram_matrix_before_either_solver(monkeypatch):
    # a polynomial kernel with offset 0 on all-zero states gives G = 0: no
    # data support, refused before the dense eigh or the Lanczos iteration
    # runs, at rank None (dense route) and at a Lanczos rank
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append("eigh") or eigh(*a, **k))
    monkeypatch.setattr(kl.regression, "_lanczos", lambda *a: calls.append("lanczos"))
    X = np.zeros((2, 64))
    kernel = kl.KernelConfig(kind="polynomial", degree=2, offset=0.0, reg_eps=1e-10)
    for rank in (None, 2):
        with pytest.raises(RegressionError, match="Gram matrix is zero"):
            kl.fit_kdmd(X, X, kernel, rank=rank)
    assert kl.regression.LANCZOS_RATIO * 2 <= X.shape[1]
    assert calls == []


def test_kdmd_reads_snapshot_pairs_like_the_other_regressions():
    # trajectories of 6, 9 and 4 pairs: the multi-segment pairs give the bits
    # of the column-matrix call on the stacked pairs and of a stream of the
    # same trajectories, and pairs with a second matrix are refused as
    # fit_edmd refuses them
    rng = np.random.default_rng(3)
    ds = kl.TrajectoryDataset([rng.uniform(-1.0, 1.0, (k, 2)) for k in (7, 10, 5)], dt=0.1)
    pairs = kl.build_snapshot_pairs(ds)
    assert [x.shape[0] for x, _, _ in pairs.segments] == [6, 9, 4]
    for kernel in (kl.KernelConfig(kind="gaussian", sigma=1.5, reg_eps=1e-10),
                   kl.KernelConfig(kind="polynomial", degree=3, reg_eps=1e-10)):
        res = kl.fit_kdmd(pairs, kernel=kernel)
        for ref in (kl.fit_kdmd(pairs.X, pairs.Xprime, kernel),
                    kl.fit_kdmd(kl.data.PairStream(ds), kernel=kernel)):
            for name in ("A", "kernel_alpha", "residual_fro", "residual_rel", "sigma_min", "m"):
                np.testing.assert_array_equal(getattr(res, name), getattr(ref, name))
            np.testing.assert_array_equal(res.eigensystem.lambdas, ref.eigensystem.lambdas)
        # the stream's segments are its trajectories, lifted as the held ones
        assert len(ref.kernel_pairs.segments) == len(res.kernel_pairs.segments) == 3
        for a, b in zip(res.kernel_pairs.segments, ref.kernel_pairs.segments):
            for p, q in zip(a, b):
                np.testing.assert_array_equal(p, q)
    with pytest.raises(DataError) as refused:
        kl.fit_edmd(pairs, pairs.Xprime)
    with pytest.raises(DataError, match=f"^{re.escape(str(refused.value))}$"):
        kl.fit_kdmd(pairs, pairs.Xprime)


def test_truncated_kdmd_falls_back_to_the_dense_solver(slow_manifold_pairs, monkeypatch):
    # a Lanczos iteration that has not converged when its basis is full gives
    # way to the dense eigh: the fit has the dense route's bits, and says so
    pairs = slow_manifold_pairs
    kernel = kl.KernelConfig(kind="gaussian", sigma=1.0)
    with monkeypatch.context() as mp:
        mp.setattr(kl.regression, "LANCZOS_RATIO", pairs.m + 1)  # dense for rank 1+
        dense = kl.fit_kdmd(pairs.X, pairs.Xprime, kernel, rank=10)
    assert dense.findings == ()
    calls = []
    lanczos = kl.regression._lanczos
    monkeypatch.setattr(kl.regression, "_lanczos",
                        lambda G, r, tol: calls.append(r) or lanczos(G, r, tol))
    monkeypatch.setattr(kl.regression, "_lanczos_cap", lambda m, r: r)  # r steps, one check
    fallback = kl.fit_kdmd(pairs.X, pairs.Xprime, kernel, rank=10)
    assert calls == [10]
    assert [f.kind for f in fallback.findings] == ["lanczos-fallback"]
    for name in ("A", "kernel_alpha", "residual_fro", "sigma_min"):
        np.testing.assert_array_equal(getattr(fallback, name), getattr(dense, name))
    np.testing.assert_array_equal(fallback.eigensystem.lambdas, dense.eigensystem.lambdas)


def test_truncated_kdmd_fits_are_bit_identical(tmp_path):
    ds = make_slow_manifold_dataset(grid=3, t_end=1.0)
    for kernel in (kl.KernelConfig(kind="gaussian", sigma=2.0),
                   kl.KernelConfig(kind="polynomial", degree=3, reg_eps=1e-10)):
        config = kl.RegressorConfig(kind="kdmd", rank=10, kernel=kernel)
        paths = [str(tmp_path / f"{kernel.kind}{i}.json") for i in range(2)]
        for path in paths:
            kl.save_model(kl.fit(None, config, ds), path)
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read(), kernel.kind


def test_gaussian_kdmd_builds_one_gram_matrix_and_streams_t(slow_manifold_pairs, monkeypatch):
    # G is the one m x m array; the rows of T not taken from G are only ever
    # formed ROW_BLOCK rows at a time: on the stacked trajectory pairs the
    # one end row of each trajectory, on arbitrary pairs every row
    pairs = slow_manifold_pairs
    m, block = pairs.m, kl._kernels.ROW_BLOCK
    assert m > block
    shapes = []
    gram = kl.KernelConfig.gram

    def spy(self, Xrows, Yrows):
        out = gram(self, Xrows, Yrows)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(kl.KernelConfig, "gram", spy)
    kernel = kl.KernelConfig(kind="gaussian", sigma=1.0)
    kl.fit_kdmd(pairs.X, pairs.Xprime, kernel, rank=10)
    assert shapes == [(m, m), (len(pairs.segments), m)]
    shapes.clear()
    kl.fit_kdmd(pairs.X, pairs.Xprime + 1e-9, kernel, rank=10)
    assert shapes[0] == (m, m)
    assert shapes[1:] == [(min(block, m - a), m) for a in range(0, m, block)]


def test_gaussian_kdmd_holds_one_gram_matrix():
    import tracemalloc

    # the Lanczos route (rank 10, LANCZOS_RATIO * 10 <= m): G, beside it first
    # the Krylov basis (at most 100 rows, 0.07 m x m arrays), then the m x r
    # arrays and two row blocks of T (1.22 m x m arrays at the peak), where
    # forming T whole held G, T and a distance temporary, three. The
    # polynomial fit solves on its G too, where the symmetrized G + G^T held
    # two (2.04)
    rng = np.random.default_rng(5)
    m = 1_500
    X = rng.uniform(-1.0, 1.0, size=(2, m))
    Xp = 0.9 * X + 0.1 * np.sin(3.0 * X[::-1])
    for kernel in (kl.KernelConfig(kind="gaussian", sigma=1.0, reg_eps=1e-10),
                   kl.KernelConfig(kind="polynomial", degree=3, reg_eps=1e-10)):
        tracemalloc.start()
        try:
            kl.fit_kdmd(X, Xp, kernel, rank=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * m * m * 8, kernel.kind


def test_kdmd_on_one_trajectory_holds_one_gram_matrix():
    import tracemalloc

    # every row of T but the last is a row of G, and the training lift is
    # taken from G's rows and the one end row, ROW_BLOCK rows at a time: on
    # the Lanczos route the peak stays near G's (1.17 m x m arrays), for
    # both kernels
    m = 1_500
    Y = np.empty((m + 1, 2))
    Y[0] = 0.7, -0.4
    for k in range(m):
        Y[k + 1] = 0.98 * Y[k] + 0.05 * np.sin(3.0 * Y[k, ::-1])
    pairs = kl.SnapshotPairs(segments=((Y[:-1], None, Y[1:]),))
    for kernel in (kl.KernelConfig(kind="gaussian", sigma=1.0, reg_eps=1e-10),
                   kl.KernelConfig(kind="polynomial", degree=3, reg_eps=1e-10)):
        kl.fit_kdmd(kl.SnapshotPairs(segments=((Y[:399], None, Y[1:400]),)), kernel=kernel,
                    rank=10)
        tracemalloc.start()
        try:
            res = kl.fit_kdmd(pairs, kernel=kernel, rank=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.kernel_pairs is not None
        assert peak < 1.25 * m * m * 8, kernel.kind


def test_kdmd_refuses_gram_matrices_beyond_physical_memory():
    # 10^6 x 10^6 float64 matrices, refused before any is allocated: G on
    # the Lanczos route (rank 20), with the Lanczos basis and its next vector
    # (141 rows), which outnumber the one end row of T that the training
    # lift keeps (constant states pair as one trajectory), G and eigh's work
    # copy, workspace and Q on the dense one (rank=None), for either kernel;
    # the other rows of T are taken from G and T is never held
    X = np.zeros((2, 10**6))
    for kind in ("gaussian", "polynomial"):
        for rank, rows in ((20, 10**6 + 141), (None, 4 * 10**6)):
            need = f"{rows * 8 * 10**6:,} bytes"
            with pytest.raises(ConfigError, match=need):
                kl.fit_kdmd(X, X, kl.KernelConfig(kind=kind), rank=rank)


# ---------------------------------------------------------------------------
# delay-embedded fits
# ---------------------------------------------------------------------------

def test_hankel_single_tone():
    dt, omega = 0.1, 1.3
    k = np.arange(200)
    sig = np.cos(omega * k * dt)[:, None]
    model = kl.fit(kl.TimeDelay(1), "hdmd", kl.TrajectoryDataset([sig], dt))
    expected = np.array([np.exp(1j * omega * dt), np.exp(-1j * omega * dt)])
    np.testing.assert_allclose(
        np.sort_complex(model.eigenvalues), np.sort_complex(expected), atol=1e-8
    )
    assert model.metadata["regressor"] == "hdmd"


def test_hankel_d0_identical_to_dmd():
    traj = RNG.normal(size=(40, 2))
    res_h = kl.fit(kl.TimeDelay(0), "hdmd", kl.TrajectoryDataset([traj], 1.0)).regression
    X, Xp = traj[:-1].T, traj[1:].T
    res_d = kl.fit_edmd(X, Xp)
    np.testing.assert_array_equal(res_h.eigensystem.lambdas, res_d.eigensystem.lambdas)


def test_hankel_scalar_two_tone():
    dt = 0.1
    k = np.arange(500)
    f1, f2 = np.sqrt(2.0) / 5.0, np.sqrt(3.0) / 5.0
    sig = (np.cos(2 * np.pi * f1 * k * dt) + 0.5 * np.cos(2 * np.pi * f2 * k * dt))
    data = kl.TrajectoryDataset([sig[:, None]], dt)
    res = kl.fit(kl.TimeDelay(3), "hdmd", data).regression
    expected = np.array(
        [np.exp(s * 2j * np.pi * f * dt) for f in (f1, f2) for s in (1, -1)]
    )
    assert res.rank == 4
    np.testing.assert_allclose(
        np.sort_complex(res.eigensystem.lambdas), np.sort_complex(expected), atol=1e-6
    )


def test_hankel_too_short_trajectory():
    with pytest.raises(DataError, match="trajectory 0"):
        kl.fit(kl.TimeDelay(3), "hdmd", kl.TrajectoryDataset([np.zeros((4, 1))], 1.0))


def test_hankel_controlled():
    # scalar controlled system seen through a 1-delay embedding
    rng = np.random.default_rng(3)
    a, b = 0.7, 0.5
    x = [0.2]
    u = rng.normal(size=60)
    for k in range(60):
        x.append(a * x[-1] + b * u[k])
    traj = np.array(x)[:, None]
    data = kl.TrajectoryDataset([traj], 1.0, inputs=[np.append(u, 0.0)[:, None]])
    model = kl.fit(kl.TimeDelay(1), "hdmdc", data)
    assert model.metadata["regressor"] == "hdmdc"
    assert np.min(np.abs(model.eigenvalues - a)) < 1e-8


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def test_eig_diagonal():
    es = kl.eig_biorthogonal(np.diag([0.9, 0.5]))
    np.testing.assert_allclose(es.lambdas, [0.9, 0.5])
    np.testing.assert_allclose(np.abs(es.W_right), np.eye(2), atol=1e-14)


def test_eig_scaled_rotation():
    rho, theta = 0.8, 0.6
    A = rho * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    es = kl.eig_biorthogonal(A)
    expected = np.array([rho * np.exp(-1j * theta), rho * np.exp(1j * theta)])
    np.testing.assert_allclose(
        np.sort_complex(es.lambdas), np.sort_complex(expected), atol=1e-12
    )


def test_eig_biorthogonality_random():
    A = np.random.default_rng(12).normal(size=(5, 5))
    es = kl.eig_biorthogonal(A)
    gram = es.W_left.conj().T @ es.W_right
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-8
    # residual of every reported pair
    R = A @ es.W_right - es.W_right * es.lambdas[None, :]
    assert np.max(np.abs(R)) <= 1e-8 * np.linalg.norm(A)


def test_eig_sort_order_and_conjugate_adjacency():
    A = scipy.linalg.block_diag(
        0.9 * np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]]),
        np.diag([0.95, -0.95]),
    )
    es = kl.eig_biorthogonal(A)
    mods = np.abs(es.lambdas)
    assert np.all(np.diff(mods) <= 1e-12)
    # tie at |0.95|: decreasing real part puts +0.95 first
    assert es.lambdas[0] == pytest.approx(0.95)
    assert es.lambdas[1] == pytest.approx(-0.95)
    # conjugate pair adjacent, increasing imaginary part
    assert es.lambdas[2] == pytest.approx(np.conj(es.lambdas[3]))
    assert es.lambdas[2].imag < es.lambdas[3].imag


def test_eig_conjugate_pairs_of_a_real_matrix_are_exact():
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = rng.normal(size=(12, 12))
        # fit_edmd maps its reduced eigenvectors through a real basis
        Z = rng.normal(size=(12, 40))
        for es in (kl.eig_biorthogonal(A), kl.fit_edmd(Z, A @ Z).eigensystem):
            lam = es.lambdas
            j = np.flatnonzero(lam.imag < 0)
            assert j.size > 0
            np.testing.assert_array_equal(lam[j + 1], lam[j].conj())
            np.testing.assert_array_equal(es.W_right[:, j + 1], es.W_right[:, j].conj())
            np.testing.assert_array_equal(es.W_left[:, j + 1], es.W_left[:, j].conj())


def test_eig_real_eigenvalues_of_a_real_matrix_have_real_vectors():
    # inv() leaves rounding in the imaginary parts of the left vectors of
    # real eigenvalues; they are dropped, so both vectors are exactly real,
    # also after fit_edmd maps them through its real basis
    rng = np.random.default_rng(9)
    n_real = 0
    for _ in range(20):
        A = rng.normal(size=(12, 12))
        Z = rng.normal(size=(12, 40))
        for es in (kl.eig_biorthogonal(A), kl.fit_edmd(Z, A @ Z).eigensystem):
            j = np.flatnonzero(es.lambdas.imag == 0)
            n_real += j.size
            assert not es.W_right[:, j].imag.any() and not es.W_left[:, j].imag.any()
            np.testing.assert_allclose(es.W_left.conj().T @ es.W_right, np.eye(12),
                                       atol=1e-10)
    assert n_real > 40


def test_eig_defective_flagged():
    es = kl.eig_biorthogonal(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert any(f.kind == "defective-eigenvectors" for f in es.findings)


def test_eig_left_normalization_max_entry_one():
    A = np.random.default_rng(3).normal(size=(4, 4))
    es = kl.eig_biorthogonal(A)
    for j in range(4):
        assert np.max(np.abs(es.W_left[:, j])) == pytest.approx(1.0, rel=1e-12)


def test_continuous_eigenvalue_conversion_consistency():
    A = np.random.default_rng(4).normal(size=(4, 4)) * 0.5
    dt = 0.05
    es = kl.eig_biorthogonal(A)
    mus = kl.continuous_eigenvalues(es.lambdas, dt)
    np.testing.assert_allclose(np.exp(mus * dt), es.lambdas, atol=1e-12)


def test_zero_eigenvalue_sentinel():
    es = kl.eig_biorthogonal(np.array([[0.0, 0.0], [0.0, 0.5]]))
    assert kl.continuous_eigenvalues(es.lambdas, 0.1)[-1].real == -np.inf
    assert any(f.kind == "zero-eigenvalue" for f in es.findings)


def test_negative_real_eigenvalue_branch_flag():
    es = kl.eig_biorthogonal(np.diag([-0.5, 0.25]))
    assert any(f.kind == "negative-real-eigenvalue" for f in es.findings)
    assert kl.continuous_eigenvalues(es.lambdas, 1.0)[0].imag == pytest.approx(np.pi)
