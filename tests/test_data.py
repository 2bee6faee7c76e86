import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kooplift as kl

from conftest import numpy_route


def test_build_pairs_shift_by_one():
    ds = kl.TrajectoryDataset([np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])], dt=1.0)
    pairs = kl.build_snapshot_pairs(ds)
    assert pairs.X.tolist() == [[1.0, 3.0], [2.0, 4.0]]
    assert pairs.Xprime.tolist() == [[3.0, 5.0], [4.0, 6.0]]


def test_pair_count_two_trajectories():
    ds = kl.TrajectoryDataset(
        [np.zeros((3, 2)) + np.arange(3)[:, None], np.ones((4, 2))], dt=0.1
    )
    pairs = kl.build_snapshot_pairs(ds)
    assert pairs.m == 2 + 3
    np.testing.assert_array_equal(pairs.X[:, :2], ds.trajectories[0][:-1].T)
    np.testing.assert_array_equal(pairs.X[:, 2:], ds.trajectories[1][:-1].T)


def test_pair_count_grid_style_stacking():
    # 100 trajectories x 2500 samples -> 100 * 2499 pairs; scaled down 10x here
    trajs = [np.random.default_rng(i).normal(size=(250, 2)) for i in range(10)]
    pairs = kl.build_snapshot_pairs(kl.TrajectoryDataset(trajs, dt=0.02))
    assert pairs.m == 10 * 249


def test_inputs_taken_at_x_timestamps():
    traj = np.arange(8.0).reshape(4, 2)
    u = np.arange(4.0)[:, None] * 10
    ds = kl.TrajectoryDataset([traj], dt=1.0, inputs=[u])
    pairs = kl.build_snapshot_pairs(ds)
    assert pairs.U.tolist() == [[0.0, 10.0, 20.0]]


def test_empty_dataset_errors():
    with pytest.raises(kl.DataError, match="no trajectories"):
        kl.TrajectoryDataset([], dt=1.0)


def test_any_iterable_of_trajectories_is_taken():
    trajs = [np.zeros((3, 2)), np.ones((4, 2))]
    assert kl.TrajectoryDataset(iter(trajs), dt=1.0).n_samples == 7
    with pytest.raises(kl.DataError, match="no trajectories"):
        kl.TrajectoryDataset(iter([]), dt=1.0)


def test_1d_inputs_are_one_channel():
    u = np.arange(4.0) * 10
    ds = kl.TrajectoryDataset([np.arange(8.0).reshape(4, 2)], dt=1.0, inputs=[u])
    assert ds.n_inputs == 1
    assert ds.inputs[0].tolist() == u[:, None].tolist()


def test_short_trajectory_identifies_index():
    with pytest.raises(kl.DataError, match="trajectory 1"):
        kl.TrajectoryDataset([np.zeros((5, 2)), np.zeros((1, 2))], dt=1.0)


def test_constructor_invariants():
    with pytest.raises(kl.DataError):
        kl.TrajectoryDataset([np.zeros((3, 2))], dt=0.0)
    with pytest.raises(kl.DataError):
        kl.TrajectoryDataset([np.zeros((3, 2)), np.zeros((3, 3))], dt=1.0)
    with pytest.raises(kl.DataError):
        kl.TrajectoryDataset([np.zeros((3, 2))], dt=1.0, inputs=[np.zeros((2, 1))])


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, True, -0.1, "0.1", None])
def test_bad_sample_interval_is_refused(dt):
    with pytest.raises(kl.DataError, match="dt must be a finite real > 0"):
        kl.TrajectoryDataset([np.zeros((3, 2))], dt=dt)


def test_sample_interval_is_stored_as_a_float():
    assert type(kl.TrajectoryDataset([np.zeros((3, 2))], dt=np.float32(0.5)).dt) is float
    assert kl.TrajectoryDataset([np.zeros((3, 2))], dt=2).dt == 2.0


def test_trajectories_are_read_only():
    ds = kl.TrajectoryDataset([np.zeros((3, 2))], dt=1.0)
    with pytest.raises(ValueError):
        ds.trajectories[0][0, 0] = 1.0


def test_copied_datasets_stay_read_only():
    ds = kl.TrajectoryDataset([np.zeros((3, 2)), np.ones((4, 2))], dt=0.5,
                              inputs=[np.zeros((3, 1)), np.ones((4, 1))])
    for dup in (copy.deepcopy(ds), pickle.loads(pickle.dumps(ds))):
        assert dup.dt == ds.dt
        for a, b in zip(dup.trajectories + dup.inputs, ds.trajectories + ds.inputs):
            np.testing.assert_array_equal(a, b)
            assert not a.flags.writeable


def test_validate_clean():
    ds = kl.TrajectoryDataset([np.random.default_rng(0).normal(size=(10, 2))], dt=1.0)
    assert kl.validate_dataset(ds) == []


def test_validate_non_finite():
    traj = np.ones((8, 2))
    traj[5, 1] = np.nan
    ds = kl.TrajectoryDataset([traj + np.arange(8)[:, None]], dt=1.0)
    findings = kl.validate_dataset(ds)
    nf = [f for f in findings if f.kind == "non-finite"]
    assert len(nf) == 1 and nf[0].trajectory == 0 and nf[0].row == 5


def _variance_by_summation(values):
    # independent oracle: direct two-pass summation
    total = 0.0
    for v in values:
        total += v
    mean = total / len(values)
    acc = 0.0
    for v in values:
        acc += (v - mean) ** 2
    return acc / len(values)


def test_validate_zero_variance_against_summation_oracle():
    rng = np.random.default_rng(3)
    traj = rng.normal(size=(20, 3))
    traj[:, 1] = 0.0
    ds = kl.TrajectoryDataset([traj[:10], traj[10:]], dt=1.0)
    stacked = np.vstack(ds.trajectories)
    oracle_zero = {
        k for k in range(3) if _variance_by_summation(stacked[:, k].tolist()) == 0.0
    }
    found = {f.column for f in kl.validate_dataset(ds) if f.kind == "zero-variance"}
    assert found == oracle_zero == {1}


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=4),
    n=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_pairs_roundtrip_recovers_trajectories(lengths, n, seed):
    rng = np.random.default_rng(seed)
    trajs = [rng.normal(size=(T, n)) for T in lengths]
    ds = kl.TrajectoryDataset(trajs, dt=0.5)
    pairs = kl.build_snapshot_pairs(ds)
    assert pairs.m == sum(T - 1 for T in lengths)
    # per-trajectory slices, concatenated: no pair straddles two trajectories
    np.testing.assert_array_equal(pairs.X, np.vstack([t[:-1] for t in trajs]).T)
    np.testing.assert_array_equal(pairs.Xprime, np.vstack([t[1:] for t in trajs]).T)


def test_time_delay_pairs_start_after_the_warm_up():
    traj = np.arange(12.0).reshape(6, 2)
    u = np.arange(6.0)[:, None] * 10
    ds = kl.TrajectoryDataset([traj, traj + 100.0], dt=1.0, inputs=[u, u + 1.0])
    pairs = kl.build_snapshot_pairs(ds, kl.TimeDelay(2).bind(2))
    # 6 samples, 2 delays: 4 embedded snapshots, 3 pairs per trajectory
    assert pairs.m == 6
    Y = np.hstack([traj[2:], traj[1:-1], traj[:-2]])
    np.testing.assert_array_equal(pairs.X, np.vstack([Y[:-1], Y[:-1] + 100.0]).T)
    np.testing.assert_array_equal(pairs.Xprime, np.vstack([Y[1:], Y[1:] + 100.0]).T)
    # inputs sit at the X timestamps: samples 2, 3, 4 of each trajectory
    assert pairs.U.tolist() == [[20.0, 30.0, 40.0, 21.0, 31.0, 41.0]]


def test_time_delay_pairs_reject_a_short_trajectory():
    ds = kl.TrajectoryDataset([np.zeros((6, 2)), np.zeros((3, 2))], dt=1.0)
    with pytest.raises(kl.DataError, match=(
            r"trajectory 1 too short: 3 samples lift to 1 snapshot\(s\), need at least 2")):
        kl.build_snapshot_pairs(ds, kl.TimeDelay(2).bind(2))
    with pytest.raises(kl.DataError, match="trajectory 1: trajectory with 3 samples is too short"):
        kl.build_snapshot_pairs(ds, kl.TimeDelay(3).bind(2))


# ---------------------------------------------------------------------------
# snapshot pairs handed out block by block
# ---------------------------------------------------------------------------

def _straddling_dataset():
    # 6, 9 and 4 pairs with one input channel: blocks of 7 or 5 pairs cross
    # every trajectory boundary
    rng = np.random.default_rng(12)
    trajs = [rng.normal(size=(T, 2)) for T in (7, 10, 5)]
    inputs = [rng.normal(size=(T, 1)) for T in (7, 10, 5)]
    return kl.TrajectoryDataset(trajs, 0.1, inputs)


def _straddling_pairs(library=None):
    return kl.build_snapshot_pairs(_straddling_dataset(), library)


def test_pairs_hold_one_lifted_array_per_trajectory():
    pairs = _straddling_pairs(kl.Polynomial(2).bind(2))
    assert pairs.m == 19 and pairs.n_features == 6 and pairs.n_inputs == 1
    for X, U, Xp in pairs.segments:
        # X and X' are two views of one lifted trajectory, one row apart
        assert X.base is not None and X.base is Xp.base
        np.testing.assert_array_equal(X[1:], Xp[:-1])
        assert U.shape == (X.shape[0], 1)


@pytest.mark.parametrize("size", [1, 5, 6, 7, 15, 19, 100])
def test_blocks_hand_out_every_pair_in_order(size):
    pairs = _straddling_pairs()
    stacked = [pairs.X.T, pairs.U.T, pairs.Xprime.T]
    edges = np.cumsum([0, *(x.shape[0] for x, _, _ in pairs.segments)])
    handed = [[], [], []]
    starts = []
    a = 0
    for pieces in pairs.block_pieces(size):
        starts.append(a)
        for piece in pieces:
            # each piece is a view of the segment its first pair lies in
            seg = pairs.segments[np.searchsorted(edges, a, side="right") - 1]
            assert all(np.shares_memory(p, s) for p, s in zip(piece, seg))
            for k in range(3):
                handed[k].append(piece[k])
            a += piece[0].shape[0]
        assert a - starts[-1] == min(size, pairs.m - starts[-1])
    assert a == pairs.m and starts == list(range(0, pairs.m, size))
    for k in range(3):
        np.testing.assert_array_equal(np.concatenate(handed[k]), stacked[k])


@pytest.mark.parametrize("size", [1, 5, 6, 7, 19, 100])
def test_a_pair_stream_cuts_the_blocks_of_the_built_pairs(size):
    library = kl.TimeDelay(1).bind(2)
    built = kl.build_snapshot_pairs(_straddling_dataset(), library).block_pieces(size)
    streamed = kl.data.PairStream(_straddling_dataset(), library).block_pieces(size)
    for a, b in itertools.zip_longest(built, streamed):
        assert len(a) == len(b)
        for piece_a, piece_b in zip(a, b):
            for p, q in zip(piece_a, piece_b):
                np.testing.assert_array_equal(p, q)
                assert p.strides == q.strides


@pytest.mark.parametrize("size", [1, 5, 7, 100])
@pytest.mark.parametrize("library", [None, kl.Polynomial(2).bind(2), kl.TimeDelay(2).bind(2)],
                         ids=["raw", "polynomial", "time-delay"])
@pytest.mark.parametrize("inputs", [True, False], ids=["inputs", "no-inputs"])
def test_a_pair_stream_stacks_the_bits_of_the_built_pairs(library, size, inputs):
    ds = _straddling_dataset()
    if not inputs:
        ds = kl.TrajectoryDataset(ds.trajectories, ds.dt)
    built = kl.build_snapshot_pairs(ds, library)
    stream = kl.data.PairStream(ds, library)
    for part in ("X", "U", "Xprime"):
        a, b = stream.stacked(part, size), built.stacked(part, size)
        if part == "U" and not inputs:
            assert a is None and b is None
            continue
        assert a.shape == (built.m, built.n_inputs if part == "U" else built.n_features)
        assert a.flags.c_contiguous and not np.shares_memory(b, ds.trajectories[0])
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(b, np.concatenate(
            [seg[("X", "U", "Xprime").index(part)] for seg in built.segments]))


def test_a_pair_stream_lifts_each_trajectory_when_a_block_reaches_it(monkeypatch):
    lifted = []
    lift = kl.Polynomial.lift_trajectory
    monkeypatch.setattr(kl.Polynomial, "lift_trajectory",
                        lambda self, traj: lifted.append(traj.shape[0]) or lift(self, traj))
    stream = kl.data.PairStream(_straddling_dataset(), kl.Polynomial(2).bind(2))
    # blocks of 5 pairs over trajectories of 6, 9 and 4 pairs: pairs 0-4,
    # 5-9 (reaching the second trajectory), 10-14 and 15-18 (the third).
    # Each piece of a block lifts the samples of its own pairs, and no
    # other: p pairs from p + 1 samples, when the block is cut
    seen = [list(lifted) for _ in stream.block_pieces(5)]
    assert seen == [[6], [6, 2, 5], [6, 2, 5, 6], [6, 2, 5, 6, 5]]


@pytest.mark.parametrize("library", [None, kl.Polynomial(2).bind(2), kl.TimeDelay(2).bind(2)],
                         ids=["raw", "polynomial", "time-delay"])
def test_a_pair_stream_knows_the_shape_of_the_built_pairs_before_any_lift(library,
                                                                          monkeypatch):
    built = kl.build_snapshot_pairs(_straddling_dataset(), library)
    monkeypatch.setattr(kl.data, "_lifted_segment", None)  # any lift would raise
    stream = kl.data.PairStream(_straddling_dataset(), library)
    assert stream.lengths == built.lengths
    assert (stream.m, stream.n_features, stream.n_inputs) == (
        built.m, built.n_features, built.n_inputs)


def test_a_pair_stream_refuses_a_short_trajectory_when_it_is_made():
    ds = kl.TrajectoryDataset([np.zeros((6, 2)), np.zeros((3, 2))], dt=1.0)
    with pytest.raises(kl.DataError, match=(
            r"^trajectory 1 too short: 3 samples lift to 1 snapshot\(s\), need at least 2$")):
        kl.data.PairStream(ds, kl.TimeDelay(2).bind(2))
    with pytest.raises(kl.DataError, match=(
            "^trajectory 1: trajectory with 3 samples is too short for 3 delays$")):
        kl.data.PairStream(ds, kl.TimeDelay(3).bind(2))


def test_a_library_that_lifts_against_its_warm_up_is_refused():
    class Shedding(kl.Polynomial):  # drops a sample, but states no warm-up
        def lift_trajectory(self, traj):
            return super().lift_trajectory(traj[1:])

    with pytest.raises(kl.ConfigError, match="lifted 7 samples to 6 snapshots, but its "
                                             "warm-up of 0 samples says 7"):
        kl.build_snapshot_pairs(_straddling_dataset(), Shedding(2).bind(2))


def test_a_pair_stream_searches_one_trajectory_at_a_time(monkeypatch):
    ds = _straddling_dataset()
    trajs = [t.copy() for t in ds.trajectories]
    trajs[1][4, 0] = np.nan  # pair 6 + 3 holds it as X', pair 6 + 4 as X
    bad = kl.TrajectoryDataset(trajs, ds.dt, ds.inputs)
    library = kl.Polynomial(2).bind(2)
    with pytest.raises(kl.DataError) as built:
        kl.build_snapshot_pairs(bad, library).refuse_non_finite()
    lifted = []
    lift = kl.Polynomial.lift_trajectory
    monkeypatch.setattr(kl.Polynomial, "lift_trajectory",
                        lambda self, traj: lifted.append(traj.shape[0]) or lift(self, traj))
    with pytest.raises(kl.DataError) as streamed:
        kl.data.PairStream(bad, library).refuse_non_finite()
    assert str(streamed.value) == str(built.value) == (
        "snapshot pair 9 holds a non-finite value (NaN or inf)")
    # the search stops at the trajectory that holds the pair
    assert lifted == [7, 10]


def test_pair_matrices_assemble_on_demand():
    pairs = _straddling_pairs()
    assert pairs.X.shape == pairs.Xprime.shape == (2, 19) and pairs.U.shape == (1, 19)
    assert not np.shares_memory(pairs.X, pairs.segments[0][0])
    assert kl.build_snapshot_pairs(kl.TrajectoryDataset([np.ones((3, 2))], 1.0)).U is None
    single = kl.SnapshotPairs.from_columns(pairs.X, pairs.Xprime, U=pairs.U)
    assert single.m == 19 and len(single.segments) == 1


def test_tsqr_blocks_across_trajectories_match_a_stacked_reference(tsqr_update, monkeypatch):
    tpqrt = tsqr_update
    monkeypatch.setattr(kl.regression, "QR_CHUNK", 7)
    pairs = _straddling_pairs(kl.Polynomial(2).bind(2))
    RX, RU, RXp = kl.regression._pair_factor(pairs, inputs=True)
    # the TSQR's tree written out on the stacked rows [X | U | X']: block i
    # of 7 rows, copied into an array of its own, updates the R of stream
    # i mod 2, from R = 0, so the 19 pairs give stream 0 blocks 0 and 2 and
    # stream 1 block 1; then stream 1's R updates stream 0's
    M = np.hstack([pairs.X.T, pairs.U.T, pairs.Xprime.T])
    W = M.shape[1]
    Rs = [np.zeros((W, W), order="F") for _ in range(2)]
    for i, a in enumerate(range(0, M.shape[0], 7)):
        tpqrt(Rs[i % 2], np.asfortranarray(M[a:a + 7]))
    tpqrt(Rs[0], np.asfortranarray(np.triu(Rs[1])))
    np.testing.assert_array_equal(np.hstack([RX, RU, RXp]), np.triu(Rs[0]))
    assert RX.shape[1] == RXp.shape[1] == 6 and RU.shape[1] == 1


def test_tsqr_without_dtpqrt_keeps_numpys_qr_bits(monkeypatch):
    # a numpy whose LAPACK library has no dtpqrt runs the same tree on
    # np.linalg.qr: each stream's R = qr([R; block]) from R = 0, so its first
    # update factors [0; block], then R = qr([R_0; R_1]), written out here on
    # the stacked rows
    numpy_route(monkeypatch, "lapack_tpqrt")
    monkeypatch.setattr(kl.regression, "QR_CHUNK", 7)
    pairs = _straddling_pairs(kl.Polynomial(2).bind(2))
    RX, RU, RXp = kl.regression._pair_factor(pairs, inputs=True)
    M = np.hstack([pairs.X.T, pairs.U.T, pairs.Xprime.T])
    Rs = [np.zeros((M.shape[1], M.shape[1]))] * 2
    for i, a in enumerate(range(0, M.shape[0], 7)):
        Rs[i % 2] = np.linalg.qr(np.asfortranarray(np.vstack([Rs[i % 2], M[a:a + 7]])),
                                 mode="r")
    R = np.linalg.qr(np.asfortranarray(np.vstack(Rs)), mode="r")
    np.testing.assert_array_equal(np.hstack([RX, RU, RXp]), R)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind,part", [("dmd", "x"), ("edmdc", "x"), ("edmdc", "u"),
                                       ("kdmd", "x"), ("validation", "x")])
def test_a_non_finite_pair_is_named_across_blocks(kind, part, bad, monkeypatch):
    monkeypatch.setattr(kl.regression, "QR_CHUNK", 7)
    monkeypatch.setattr(kl.model, "SCORE_CHUNK", 5)
    rng = np.random.default_rng(3)
    trajs = [rng.uniform(-1.0, 1.0, size=(T, 2)) for T in (7, 10)]
    inputs = [rng.uniform(-1.0, 1.0, size=(T, 1)) for T in (7, 10)]
    controlled = kind == "edmdc"
    if kind == "validation":
        model = kl.fit(kl.Polynomial(2), "edmd", kl.TrajectoryDataset(trajs, 1.0))
    if part == "u":
        inputs[1][3, 0] = bad  # the input of pair 6 + 3
        pair = 9
    else:
        trajs[1][3, 1] = bad  # pair 6 + 2 holds it as X', pair 6 + 3 as X
        pair = 8
    ds = kl.TrajectoryDataset(trajs, 1.0, inputs if controlled else None)
    with pytest.raises(kl.DataError, match=f"snapshot pair {pair} holds a non-finite value"):
        if kind == "validation":
            model.linearity_consistency(ds)
        else:
            config = kl.RegressorConfig(kind=kind, rank=4) if kind == "kdmd" else kind
            kl.fit(None, config, ds)


@pytest.mark.parametrize("n,d", [(2, 8), (3, 0), (1, 3), (2, 1)])
def test_time_delay_lift_is_a_read_only_hankel_view(n, d):
    traj = np.random.default_rng(n + d).normal(size=(13, n))
    Y = kl.TimeDelay(d).bind(n).lift_trajectory(traj)
    # the delay embedding as d + 1 stacked copies, most recent state first
    T = traj.shape[0]
    np.testing.assert_array_equal(Y, np.hstack([traj[d - j:T - j] for j in range(d + 1)]))
    assert not Y.flags.writeable
    # every row is a window of one (T, n) copy of the trajectory
    base = Y
    while base.base is not None:
        base = base.base
    assert base.nbytes == traj.nbytes and np.shares_memory(Y, base)
    assert not np.shares_memory(Y, traj)
