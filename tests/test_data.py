import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kooplift as kl


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
    ds = kl.TrajectoryDataset([], dt=1.0)
    with pytest.raises(kl.DataError, match="no trajectories"):
        kl.build_snapshot_pairs(ds)


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
