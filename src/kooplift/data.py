"""Trajectory containers and snapshot-pair assembly.

Trajectories are stored row-major in time (one row per sample), and so are
snapshot pairs. Pairs are read one way, through `rows` (see `_Pairs`),
whether a `PairStream` lifts them as they are read, as every fit and
validation does, or a `SnapshotPairs` holds them; consumers read them in
row blocks. The operator regressions write their algebra on
column-per-snapshot matrices.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, check_real

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
class TrajectoryDataset(_FrozenRecord):
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
        if not trajs:  # checked after the loop, so any iterable is taken
            raise DataError("no trajectories")
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

    @property
    def n_states(self) -> int:
        return self.trajectories[0].shape[1]

    @property
    def n_inputs(self) -> int:
        if self.inputs is None:
            return 0
        return self.inputs[0].shape[1]

    @property
    def n_samples(self) -> int:
        return sum(t.shape[0] for t in self.trajectories)


class _Pairs:
    """The one way snapshot pairs are read, for pairs held (`SnapshotPairs`)
    and pairs lifted as they are read (`PairStream`) alike.

    A pair type gives its shape, `lengths` (the pairs of each segment, one
    segment per trajectory), `n_features` and `n_inputs`, and `rows(i, lo,
    hi)`, the (X, U, Xprime) rows of pairs lo..hi-1 of segment i, U None
    without inputs. Every reader here goes through `rows`: `block_pieces`
    hands the pairs out in blocks, `stacked` copies a part of every pair
    into one array, and `refuse_non_finite` finds the first pair holding a
    NaN or an inf.
    """

    @property
    def m(self) -> int:
        return sum(self.lengths)

    def block_pieces(self, size: int):
        """Yield every pair in order, in blocks of `size` pairs (the last one
        shorter), each block as a list of its (X, U, Xprime) pieces, cut
        where `pair_blocks` cuts them and fetched with `rows` when the block
        is reached: views of held segments, or the rows a stream lifts
        then. The score pass multiplies them where they lie."""
        for block in pair_blocks(self.lengths, size):
            yield [self.rows(i, lo, hi) for i, lo, hi in block]

    def refuse_non_finite(self) -> None:
        """DataError naming the first pair that holds a NaN or an inf in X, U
        or Xprime; return if there is none. One segment is read at a time,
        where it lies: a stream lifts and searches one trajectory at a time."""
        first = 0
        for i, n in enumerate(self.lengths):
            finite = np.logical_and.reduce(
                [np.isfinite(p).all(axis=1) for p in self.rows(i, 0, n) if p is not None])
            if not finite.all():
                j = first + int(np.argmin(finite))
                raise DataError(f"snapshot pair {j} holds a non-finite value (NaN or inf)")
            first += n

    def stacked(self, part: str, size: int) -> Optional[np.ndarray]:
        """Part "X", "U" or "Xprime" of every pair, copied into one new (m,
        width) row array a block of `size` pairs at a time, so a stream holds
        one block's lifted rows beside it; None for U without inputs. For
        consumers that need all pairs at once."""
        k = ("X", "U", "Xprime").index(part)
        if k == 1 and self.n_inputs == 0:
            return None
        out, o = None, 0
        for pieces in self.block_pieces(size):
            for piece in pieces:
                rows = piece[k]
                if out is None:  # kdmd's lifted pairs are complex
                    out = np.empty((self.m, rows.shape[1]), dtype=rows.dtype)
                out[o:o + rows.shape[0]] = rows
                o += rows.shape[0]
        return out


@dataclass(frozen=True)
class SnapshotPairs(_Pairs):
    """One-step snapshot pairs held in memory, one segment per trajectory:
    the column matrices given to the regressions (`from_columns`), kdmd's
    eigenfunction-lifted training pairs, and `build_snapshot_pairs`.

    Each segment is a triple (X, U, Xprime) of row arrays, one row per pair:
    X and Xprime are (m_i, N), U is (m_i, q) or None. From a trajectory
    lifted into Y, X = Y[:-1] and Xprime = Y[1:] are two views of Y, so the
    lifted data is held once; `rows` hands out views. Pairs are read as
    those of a `PairStream` are (see `_Pairs`). The column matrices `X`,
    `Xprime` (N x m) and `U` (q x m) are assembled on demand, for callers
    outside the package.
    """

    segments: tuple

    @classmethod
    def from_columns(cls, X, Xprime, U=None) -> "SnapshotPairs":
        """One segment over column-aligned snapshot matrices X, Xprime (N x m)
        and optional U (q x m), as views of them."""
        return cls(segments=((X.T, None if U is None else U.T, Xprime.T),))

    @property
    def lengths(self) -> tuple:
        """The pairs of each segment."""
        return tuple(x.shape[0] for x, _, _ in self.segments)

    @property
    def n_features(self) -> int:
        return self.segments[0][0].shape[1]

    @property
    def n_inputs(self) -> int:
        u = self.segments[0][1]
        return 0 if u is None else u.shape[1]

    def rows(self, i: int, lo: int, hi: int) -> tuple:
        """Pairs lo..hi-1 of segment i, (X, U, Xprime), as views."""
        return tuple(None if p is None else p[lo:hi] for p in self.segments[i])

    # held pairs are views, so one block copies them as well as any
    @property
    def X(self) -> np.ndarray:
        return self.stacked("X", self.m).T

    @property
    def U(self) -> Optional[np.ndarray]:
        U = self.stacked("U", self.m)
        return None if U is None else U.T

    @property
    def Xprime(self) -> np.ndarray:
        return self.stacked("Xprime", self.m).T


def pair_blocks(lengths, size: int):
    """Yield the blocks of `size` pairs (the last one shorter) over segments
    of `lengths` pairs, in order, each block as a list of (segment, lo, hi):
    the rows lo..hi-1 of that segment's pairs that it covers.

    Blocks start at multiples of `size` over all pairs, so a block that
    crosses a segment boundary has one entry per segment it touches. This is
    the one home of the block boundaries: for held pairs and for a stream
    alike, and for the readers of whole blocks (`block_pieces`) and the
    TSQR's lanes, which look a block's segments up themselves.
    """
    block, filled = [], 0
    for i, n in enumerate(lengths):
        lo = 0
        while lo < n:
            hi = min(lo + size - filled, n)
            block.append((i, lo, hi))
            filled += hi - lo
            lo = hi
            if filled == size:
                yield block
                block, filled = [], 0
    if block:
        yield block


def _lifted_segment(data: TrajectoryDataset, library, i: int, lo: int, hi: int) -> tuple:
    """Pairs lo..hi-1 of trajectory i, (X, U, Xprime), from the lift of its
    samples lo .. hi + warm-up alone."""
    traj = data.trajectories[i]
    w = 0 if library is None else library.warm_up
    Y = window = traj[lo : hi + 1 + w]
    if library is not None:
        try:
            Y = library.lift_trajectory(window)
        except DataError as exc:
            raise DataError(f"trajectory {i}: {exc}") from None
        if Y.shape[0] < 2:
            raise DataError(
                f"trajectory {i} too short: {traj.shape[0]} samples lift to "
                f"{Y.shape[0]} snapshot(s), need at least 2"
            )
        if Y.shape[0] != window.shape[0] - w:
            # the block plans of a `PairStream` are cut from the warm-up
            raise ConfigError(
                f"{library.kind} library lifted {window.shape[0]} samples to {Y.shape[0]} "
                f"snapshots, but its warm-up of {w} samples says {window.shape[0] - w}"
            )
    U = None
    if data.inputs is not None:
        U = data.inputs[i][lo + w : hi + w]
    return Y[:-1], U, Y[1:]


@dataclass(frozen=True)
class PairStream(_Pairs):
    """The snapshot pairs of a dataset, lifted through ``library`` (None:
    the raw states) as they are read, never held.

    Every fit reads its training pairs as a stream, and validation its
    pairs; `build_snapshot_pairs` holds a stream's rows. Its shape is known
    before any lift: trajectory i of T_i samples gives T_i - 1 -
    ``library.warm_up`` pairs (`lengths`), so the block plan
    (`pair_blocks`) is cut up front, and a trajectory too short for two
    lifted snapshots is refused when the stream is made, with the error
    that lifting it raises. `rows(i, lo, hi)` lifts the samples that pairs
    lo..hi-1 of trajectory i need, and no others, each time it is called:
    lifted snapshot k depends on samples k .. k + warm_up alone (see
    `Observable.warm_up`). So every reader of `_Pairs` holds one block's
    lifted rows at a time, whatever the trajectories' lengths, and since
    every library of this package lifts a row with the bits that a whole
    lift gives it, it reads the held pairs' bits. The explicit fits' TSQR
    lanes (`regression._pair_factor`) fetch their blocks' pieces with
    `rows` as well.
    """

    data: TrajectoryDataset
    library: object = None

    def __post_init__(self):
        for i, n in enumerate(self.lengths):
            if n < 1:
                _lifted_segment(self.data, self.library, i, 0, n)  # raises why

    @property
    def lengths(self) -> tuple:
        """The pairs of each trajectory."""
        w = 0 if self.library is None else self.library.warm_up
        return tuple(t.shape[0] - 1 - w for t in self.data.trajectories)

    @property
    def n_features(self) -> int:
        return self.data.n_states if self.library is None else self.library.n_output

    @property
    def n_inputs(self) -> int:
        return self.data.n_inputs

    def rows(self, i: int, lo: int, hi: int) -> tuple:
        """Pairs lo..hi-1 of trajectory i, (X, U, Xprime), lifted from its
        samples lo .. hi + ``library.warm_up`` alone, each time it is called."""
        return _lifted_segment(self.data, self.library, i, lo, hi)


def build_snapshot_pairs(data: TrajectoryDataset, library=None) -> SnapshotPairs:
    """The pairs of `PairStream(data, library)`, held: one segment per
    trajectory, each from one lift of the whole trajectory.

    With an Observable ``library`` a trajectory is lifted into Y with
    ``library.lift_trajectory``, and its pairs are X = Y[:-1], X' = Y[1:],
    two views of the one lifted array; without one the raw states are
    paired, as views of the dataset's arrays. Pairs never straddle
    trajectory boundaries, segments keep trajectory order and rows time
    order. U rows, when inputs are present, are taken at the X timestamps,
    after the library's warm-up.
    """
    stream = PairStream(data, library)
    return SnapshotPairs(segments=tuple(
        stream.rows(i, 0, n) for i, n in enumerate(stream.lengths)))


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
