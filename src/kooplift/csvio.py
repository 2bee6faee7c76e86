"""Trajectory CSV format.

Layout: optional header line; column 0 is time (strictly increasing, uniform
spacing), columns 1..n are state coordinates, optional trailing columns are
input channels. Multiple trajectories are separated by blank lines. Floats
are written with repr, so files round-trip exactly.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

import numpy as np

from .data import UNIFORM_RTOL, TrajectoryDataset, uniform_step
from .errors import DataError
from .serialize import atomic_write_text

__all__ = ["read_trajectory_csv", "write_trajectory_csv", "read_numeric_csv"]


def _loadtxt(rows):
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)


def _row_error(path: str, first_line: int, exc: ValueError) -> DataError:
    """The DataError for a block that np.loadtxt rejected, located at the file
    line of the offending row (loadtxt counts conversion errors from row 0
    and column-count changes from row 1)."""
    msg = str(exc)
    found = re.search(r"could not convert .* at row (\d+)", msg)
    if found:
        line = first_line + int(found.group(1))
        return DataError(f"{path}:{line}: non-numeric value in data row")
    found = re.search(r"columns changed from (\d+) to (\d+) at row (\d+)", msg)
    if found:
        a, b, row = map(int, found.groups())
        return DataError(f"{path}:{first_line + row - 1}: inconsistent column counts "
                         f"{sorted({a, b})}")
    return DataError(f"{path}:{first_line}: {msg}")


def _parse_blocks(path: str):
    """Split a CSV file into numeric blocks at blank lines.

    Returns (header, blocks): the header cells, if the first non-blank line
    is not numeric, and one (file line of the first row, 2-d float array)
    pair per block.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    # [start, stop) line indices of the runs of non-blank lines
    cuts = [-1, *(i for i, line in enumerate(lines) if not line.strip()), len(lines)]
    spans = [(a + 1, b) for a, b in zip(cuts, cuts[1:]) if b > a + 1]
    header = None
    if spans:
        a, b = spans[0]
        try:
            _loadtxt(lines[a : a + 1])
        except ValueError:
            header = [c.strip() for c in lines[a].split(",")]
            spans[0] = (a + 1, b)
    blocks = []
    for a, b in spans:
        if a == b:
            continue
        try:
            blocks.append((a + 1, _loadtxt(lines[a:b])))
        except ValueError as exc:
            raise _row_error(path, a + 1, exc) from None
    return header, blocks


def read_numeric_csv(path: str) -> np.ndarray:
    """Read a single numeric block (header allowed) as a 2-d array."""
    _, blocks = _parse_blocks(path)
    if not blocks:
        raise DataError(f"{path}: no data rows")
    if len(blocks) > 1:
        raise DataError(f"{path}: expected a single block, found {len(blocks)}")
    return blocks[0][1]


def read_trajectory_csv(path: str, n_inputs: int = 0) -> TrajectoryDataset:
    """Read a trajectory CSV into a dataset; last n_inputs columns are inputs."""
    _, blocks = _parse_blocks(path)
    if not blocks:
        raise DataError(f"{path}: no data rows")
    trajectories = []
    inputs = [] if n_inputs > 0 else None
    dt = None
    for b, (first_line, arr) in enumerate(blocks):
        width = arr.shape[1]
        if width < 2 + n_inputs:
            raise DataError(
                f"{path}: trajectory {b} has {width} columns; need time + at "
                f"least 1 state + {n_inputs} input column(s)"
            )
        if arr.shape[0] < 2:
            raise DataError(
                f"{path}:{first_line}: trajectory {b} too short "
                f"({arr.shape[0]} sample(s), need at least 2)"
            )
        block_dt = uniform_step(arr[:, 0], f"{path}: trajectory {b} times")
        if dt is None:
            dt = block_dt
        elif abs(block_dt - dt) > UNIFORM_RTOL * dt:
            raise DataError(
                f"{path}: trajectory {b} sample interval {block_dt} differs from {dt}"
            )
        if n_inputs > 0:
            trajectories.append(arr[:, 1 : width - n_inputs])
            inputs.append(arr[:, width - n_inputs :])
        else:
            trajectories.append(arr[:, 1:])
    return TrajectoryDataset(trajectories, dt=dt, inputs=inputs)


def write_trajectory_csv(
    path: str,
    trajectories: Sequence[np.ndarray],
    dt: float,
    inputs: Optional[Sequence[np.ndarray]] = None,
) -> str:
    """Write trajectories to `path` in the CSV layout, atomically; returns
    the text."""
    first = np.atleast_2d(np.asarray(trajectories[0]))
    n = first.shape[1]
    q = 0
    if inputs is not None:
        q = np.atleast_2d(np.asarray(inputs[0])).shape[1]
    cols = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(q)]
    lines = [",".join(cols)]
    dt = float(dt)
    for k, traj in enumerate(trajectories):
        if k > 0:
            lines.append("")
        # rows of Python floats, each cell written with repr
        rows = np.atleast_2d(np.asarray(traj, dtype=float)).tolist()
        u = None
        if inputs is not None:
            u = np.atleast_2d(np.asarray(inputs[k], dtype=float)).tolist()
        for i, row in enumerate(rows):
            cells = [i * dt, *row] if u is None else [i * dt, *row, *u[i]]
            lines.append(",".join(map(repr, cells)))
    text = "\n".join(lines) + "\n"
    atomic_write_text(path, text)
    return text
