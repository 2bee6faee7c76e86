import numpy as np
import pytest

import kooplift as kl
from kooplift.csvio import read_numeric_csv, read_trajectory_csv, write_trajectory_csv
from kooplift.errors import DataError


def test_roundtrip_multi_trajectory_exact(tmp_path):
    rng = np.random.default_rng(0)
    trajs = [rng.normal(size=(5, 2)), rng.normal(size=(8, 2))]
    path = str(tmp_path / "t.csv")
    write_trajectory_csv(path, trajs, dt=0.25)
    ds = read_trajectory_csv(path)
    assert ds.dt == 0.25
    assert len(ds.trajectories) == 2
    for orig, back in zip(trajs, ds.trajectories):
        np.testing.assert_array_equal(orig, back)


def test_roundtrip_with_inputs(tmp_path):
    rng = np.random.default_rng(1)
    trajs = [rng.normal(size=(6, 2))]
    inputs = [rng.normal(size=(6, 1))]
    path = str(tmp_path / "u.csv")
    write_trajectory_csv(path, trajs, dt=0.5, inputs=inputs)
    ds = read_trajectory_csv(path, n_inputs=1)
    np.testing.assert_array_equal(ds.trajectories[0], trajs[0])
    np.testing.assert_array_equal(ds.inputs[0], inputs[0])
    first = open(path).readline().strip()
    assert first == "t,x1,x2,u1"


def test_headerless_file(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("0.0,1.0\n0.5,2.0\n1.0,3.0\n")
    ds = read_trajectory_csv(str(path))
    assert ds.dt == 0.5
    np.testing.assert_array_equal(ds.trajectories[0][:, 0], [1.0, 2.0, 3.0])


def test_non_numeric_cell_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1\n0.0,1.0\n0.1,oops\n")
    with pytest.raises(DataError, match=":3"):
        read_trajectory_csv(str(path))


def test_time_column_validation(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0.0,1.0\n0.3,2.0\n0.4,3.0\n")
    with pytest.raises(DataError, match="uniform"):
        read_trajectory_csv(str(path))
    path.write_text("0.0,1.0\n0.0,2.0\n")
    with pytest.raises(DataError, match="increasing"):
        read_trajectory_csv(str(path))
    path.write_text("0.0,1.0\nnan,2.0\n0.2,3.0\n")
    with pytest.raises(DataError, match="t.csv: trajectory 0 times must be strictly"):
        read_trajectory_csv(str(path))


def test_blocks_must_share_dt(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0.0,1.0\n0.1,2.0\n\n0.0,1.0\n0.2,2.0\n")
    with pytest.raises(DataError, match="differs"):
        read_trajectory_csv(str(path))


def test_empty_and_single_sample(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("\n\n")
    with pytest.raises(DataError, match="no data rows"):
        read_trajectory_csv(str(path))
    path.write_text("0.0,1.0\n")
    with pytest.raises(DataError, match="too short"):
        read_trajectory_csv(str(path))


def test_read_numeric_csv_single_block(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    np.testing.assert_array_equal(read_numeric_csv(str(path)), [[1, 2], [3, 4]])
    path.write_text("1,2\n\n3,4\n")
    with pytest.raises(DataError, match="single block"):
        read_numeric_csv(str(path))


def test_written_floats_roundtrip_exactly(tmp_path):
    vals = np.array([[0.1, 3.0 / 7.0], [np.pi, np.e]])
    path = str(tmp_path / "f.csv")
    write_trajectory_csv(path, [vals], dt=1.0 / 3.0)
    ds = read_trajectory_csv(path)
    np.testing.assert_array_equal(ds.trajectories[0], vals)


def test_errors_in_a_later_block_report_their_file_line(tmp_path):
    path = tmp_path / "b.csv"
    first = "t,x1\n0.0,1.0\n0.1,2.0\n\n"  # lines 1-4; the second block starts on line 5
    path.write_text(first + "0.0,1.0\n0.1,oops\n")
    with pytest.raises(DataError, match=r"b\.csv:6: non-numeric value in data row"):
        read_trajectory_csv(str(path))
    path.write_text(first + "0.0,1.0\n0.1,2.0\n0.2\n")
    with pytest.raises(DataError, match=r"b\.csv:7: inconsistent column counts \[1, 2\]"):
        read_trajectory_csv(str(path))
    # '#' starts no comment: it is a non-numeric cell like any other
    path.write_text(first + "0.0,1.0\n0.1,#2.0\n")
    with pytest.raises(DataError, match=r"b\.csv:6: non-numeric value in data row"):
        read_trajectory_csv(str(path))
    path.write_text(first + "#0.0,1.0\n0.1,2.0\n")
    with pytest.raises(DataError, match=r"b\.csv:5: non-numeric value in data row"):
        read_trajectory_csv(str(path))


def test_read_numeric_csv_reports_a_short_row(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("a,b\n\n1,2\n3,4,5\n")
    with pytest.raises(DataError, match=r"n\.csv:4: inconsistent column counts \[2, 3\]"):
        read_numeric_csv(str(path))
    path.write_text("a,b\n1,2\n3,x\n")
    with pytest.raises(DataError, match=r"n\.csv:3: non-numeric value in data row"):
        read_numeric_csv(str(path))
