"""Trajectory containers and snapshot-pair assembly.

Trajectories are stored row-major in time (one row per sample) at the API
surface and transposed into column-per-snapshot matrices internally, which
keeps the operator regressions literal matrix algebra.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, check_real

__all__ = [
    "TrajectoryDataset",
    "SnapshotPairs",
    "Finding",
    "build_snapshot_pairs",
    "validate_dataset",
]


# a time grid is uniform when every step is within UNIFORM_RTOL of the mean step
UNIFORM_RTOL = 1e-8


def uniform_step(t: np.ndarray, what: str = "timestamps") -> float:
    """The sample interval of the time grid `t`; DataError, naming the grid as
    `what`, unless its times strictly increase in uniform steps."""
    steps = np.diff(t)
    if not np.all(steps > 0):  # NaN steps fail too
        raise DataError(f"{what} must be strictly increasing")
    h = float(np.mean(steps))
    with np.errstate(invalid="ignore"):  # an inf time makes the test NaN, so False
        uniform = np.max(np.abs(steps - h)) <= UNIFORM_RTOL * h
    if not uniform:
        raise DataError(f"{what} are not uniformly spaced")
    return h


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only C-ordered copy of an array: the layout a model file loads
    into, so a loaded model computes with the bits of the fitted one."""
    a = np.array(a, order="C")
    a.flags.writeable = False
    return a


class _FrozenRecord:
    """Base of the frozen result dataclasses: array fields become read-only
    copies and a ``findings`` field a tuple. Copies and pickles are rebuilt
    through the constructor, so theirs are too."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                object.__setattr__(self, f.name, _freeze(value))
            elif f.name == "findings":
                object.__setattr__(self, f.name, tuple(value))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))


@dataclass(frozen=True)
class Finding:
    """One diagnostic record, from a fit or from a validation pass.

    ``kind`` is a stable kebab-case code to match on; ``message`` is the
    human-readable text. Dataset checks also locate the finding by
    trajectory, row or column; the other location fields stay None.
    """

    kind: str
    trajectory: Optional[int] = None
    row: Optional[int] = None
    column: Optional[int] = None
    message: str = ""


@dataclass(frozen=True)
class TrajectoryDataset:
    """One or more time-ordered state trajectories sharing a sample interval.

    Each trajectory is a (T_i, n) array; optional inputs are (T_i, q) arrays
    aligned row-for-row with their trajectory. Arrays are copied and made
    read-only, so datasets are safe to share across threads.
    """

    trajectories: tuple
    dt: float
    inputs: Optional[tuple] = None

    def __init__(self, trajectories: Sequence, dt: float, inputs: Optional[Sequence] = None):
        dt = check_real(dt, "dt", positive=True, error=DataError)
        trajs = []
        for i, traj in enumerate(trajectories):
            a = np.atleast_2d(np.asarray(traj, dtype=float))
            if a.ndim != 2:
                raise DataError(f"trajectory {i} is not a 2-d array")
            if a.shape[0] < 2:
                raise DataError(
                    f"trajectory {i} too short: {a.shape[0]} sample(s), need at least 2"
                )
            trajs.append(_freeze(a))
        n_set = {a.shape[1] for a in trajs}
        if len(n_set) > 1:
            raise DataError(f"trajectories disagree on state dimension: {sorted(n_set)}")
        ins = None
        if inputs is not None:
            if len(inputs) != len(trajs):
                raise DataError(
                    f"got {len(inputs)} input arrays for {len(trajs)} trajectories"
                )
            ins = []
            for i, (u, a) in enumerate(zip(inputs, trajs)):
                ua = np.asarray(u, dtype=float)
                if ua.ndim == 1:
                    ua = ua[:, None]
                if ua.shape[0] != a.shape[0]:
                    raise DataError(
                        f"inputs for trajectory {i} have {ua.shape[0]} rows, "
                        f"expected {a.shape[0]}"
                    )
                ins.append(_freeze(ua))
            q_set = {u.shape[1] for u in ins}
            if len(q_set) > 1:
                raise DataError(f"input arrays disagree on channel count: {sorted(q_set)}")
            ins = tuple(ins)
        object.__setattr__(self, "trajectories", tuple(trajs))
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "inputs", ins)

    def __reduce__(self):
        # copies and pickles are rebuilt through the constructor, so their
        # arrays are read-only too
        return type(self), (self.trajectories, self.dt, self.inputs)

    @property
    def n_states(self) -> int:
        if not self.trajectories:
            raise DataError("no trajectories")
        return self.trajectories[0].shape[1]

    @property
    def n_inputs(self) -> int:
        if self.inputs is None:
            return 0
        return self.inputs[0].shape[1]

    @property
    def n_samples(self) -> int:
        return sum(t.shape[0] for t in self.trajectories)


@dataclass(frozen=True)
class SnapshotPairs:
    """Column-aligned snapshot matrices X, Xprime (N x m), optional U (q x m)."""

    X: np.ndarray
    Xprime: np.ndarray
    dt: float
    U: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        return self.X.shape[1]


def build_snapshot_pairs(data: TrajectoryDataset, library=None) -> SnapshotPairs:
    """Assemble one-step snapshot pairs from every trajectory.

    With an Observable ``library`` each trajectory is lifted once, as a
    whole, into Y with ``library.lift_trajectory``, and its pairs are
    X = Y[:-1], X' = Y[1:]; without one the raw states are paired. Pairs
    never straddle trajectory boundaries, and columns keep trajectory order,
    then time order. U columns, when inputs are present, are taken at the X
    timestamps, after the library's warm-up.
    """
    if not data.trajectories:
        raise DataError("no trajectories")
    xs, xps, us = [], [], []
    for i, traj in enumerate(data.trajectories):
        Y = traj
        if library is not None:
            try:
                Y = library.lift_trajectory(traj)
            except DataError as exc:
                raise DataError(f"trajectory {i}: {exc}") from None
            if Y.shape[0] < 2:
                raise DataError(
                    f"trajectory {i} too short: {traj.shape[0]} samples lift to "
                    f"{Y.shape[0]} snapshot(s), need at least 2"
                )
        xs.append(Y[:-1])
        xps.append(Y[1:])
        if data.inputs is not None:
            us.append(data.inputs[i][traj.shape[0] - Y.shape[0] : -1])
    X = np.vstack(xs).T
    Xp = np.vstack(xps).T
    U = np.vstack(us).T if us else None
    return SnapshotPairs(X=X, Xprime=Xp, dt=data.dt, U=U)


def validate_dataset(data: TrajectoryDataset) -> list:
    """Diagnostic consistency checks; returns an empty list for clean data.

    Reports non-finite entries and zero-variance state coordinates. Input
    matrices whose row counts do not match their trajectory never get here:
    TrajectoryDataset rejects them on construction.
    """
    findings = []
    for i, traj in enumerate(data.trajectories):
        bad = ~np.isfinite(traj)
        if bad.any():
            for row in np.unique(np.nonzero(bad)[0]):
                findings.append(
                    Finding(
                        kind="non-finite",
                        trajectory=i,
                        row=int(row),
                        message=f"trajectory {i} has non-finite values at row {row}",
                    )
                )
    if data.trajectories:
        stacked = np.vstack(data.trajectories)
        with np.errstate(invalid="ignore"):
            var = np.nanvar(stacked, axis=0)
        for col in np.nonzero(var == 0.0)[0]:
            findings.append(
                Finding(
                    kind="zero-variance",
                    column=int(col),
                    message=f"state coordinate {col} is constant across all samples",
                )
            )
    return findings
