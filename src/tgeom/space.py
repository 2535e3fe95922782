"""Finite σ-spaces: a point set Ω plus an evaluable world function.

A world function assigns a real value to every ordered point pair and
vanishes on the diagonal; no other constraint is imposed, so asymmetric
and negative values are legal inputs. A space is either table-backed
(explicit dense matrix) or coordinate-backed (points carry coordinates
and the world function is half the squared Euclidean distance).

Spaces are immutable once constructed and evaluation is a pure read, so
any number of concurrent readers is safe; mutating operations such as
:func:`perturb_table` return new spaces.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateEntry,
    DuplicateLabel,
    EmptySpace,
    InvalidLabel,
    InvalidTolerance,
    MissingEntry,
    NonFiniteValue,
    NonzeroDiagonal,
    UnknownPoint,
)

PointId = str

DEFAULT_TOLERANCE = 1e-9


def _is_token(label: str) -> bool:
    """True when a table file carries the label back unchanged.

    The file is UTF-8 text whose lines are split on whitespace, so a
    label must be one non-empty, whitespace-free token that encodes.
    """
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return label.split() == [label]


def _checked_labels(points: Iterable[PointId]) -> tuple[str, ...]:
    labels = tuple(str(p) for p in points)
    if not labels:
        raise EmptySpace("a space needs at least one point")
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabel(f"point label '{label}' occurs more than once")
        seen.add(label)
    for label in labels:
        if not _is_token(label):
            raise InvalidLabel(
                f"point label {label!r} must be a non-empty UTF-8 string "
                "without whitespace"
            )
    return labels


def euclidean_sigma(x: Sequence[float], y: Sequence[float]) -> float:
    """Half the squared Euclidean distance between two coordinate vectors.

    This scaling is the one under which the four-term scalar product of
    two point pairs reduces to the ordinary dot product of their
    displacement vectors. Exactly symmetric in its arguments for every
    input, since the summands are identical floats either way. Squares
    are products (correctly rounded, unlike ``pow``) summed left to
    right from 0.0, the arithmetic :func:`build_coordinate_space` does
    on whole arrays, so both give the same bits.
    """
    if len(x) != len(y):
        raise DimensionMismatch(
            f"cannot pair a {len(x)}-dimensional point with a {len(y)}-dimensional one"
        )
    total = 0.0
    for a, b in zip(x, y):
        d = a - b
        total += d * d
    return 0.5 * total


class SigmaSpace:
    """Immutable finite σ-space.

    Attributes:
        points: point labels in construction order (the finite Ω).
        tolerance: absolute ε used by every equality comparison on values
            derived from this space.

    Instances are normally built through :func:`build_finite_table`,
    :func:`build_coordinate_space` or :func:`build_grid_space`; direct
    construction takes a ready dense matrix. Validation (zero diagonal,
    finiteness, unique whitespace-free labels, a finite tolerance >= 0)
    always runs here, so every live space satisfies the invariants and
    survives a write/read cycle through a table file.
    """

    __slots__ = ("points", "tolerance", "_matrix", "_coords", "_index")

    def __init__(
        self,
        points: Iterable[PointId],
        matrix: np.ndarray | Sequence[Sequence[float]],
        *,
        coords: Mapping[PointId, Sequence[float]] | None = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ):
        labels = _checked_labels(points)
        tolerance = float(tolerance)
        if not (math.isfinite(tolerance) and tolerance >= 0.0):
            raise InvalidTolerance("tolerance must be a non-negative finite real")

        m = np.array(matrix, dtype=float)
        n = len(labels)
        if m.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise NonFiniteValue(
                f"value for pair ({labels[i]}, {labels[j]}) is not a finite real"
            )
        diag = np.abs(np.diagonal(m))
        if (diag > tolerance).any():
            k = int(np.argmax(diag > tolerance))
            raise NonzeroDiagonal(
                f"value for ({labels[k]}, {labels[k]}) is {float(m[k, k])!r}, "
                f"beyond tolerance {tolerance!r}"
            )
        m.setflags(write=False)

        self.points = labels
        self.tolerance = tolerance
        self._matrix = m
        self._index = {label: i for i, label in enumerate(labels)}
        if coords is None:
            self._coords = None
        else:
            self._coords = {
                str(k): tuple(float(c) for c in v) for k, v in coords.items()
            }

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __repr__(self) -> str:
        return f"SigmaSpace({len(self.points)} points, {self.backing}-backed)"

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix of world-function values, read-only.

        Row i, column j holds the value for the ordered pair
        (points[i], points[j]). This is the one accessor shared with the
        naive reference implementations.
        """
        return self._matrix

    @property
    def backing(self) -> str:
        return "table" if self._coords is None else "coordinates"

    def index(self, label: PointId) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownPoint(f"unknown point '{label}'") from None

    def sigma(self, p: PointId, q: PointId) -> float:
        """World-function value for the ordered pair (p, q)."""
        return float(self._matrix[self.index(p), self.index(q)])

    def coordinates(self, label: PointId) -> tuple[float, ...] | None:
        """Coordinates of a point, or None for table-backed spaces."""
        self.index(label)
        if self._coords is None:
            return None
        return self._coords[label]


class Conflict(NamedTuple):
    """Entry ``entry`` repeats an ordered pair first given as ``first``
    and disagrees with it beyond the tolerance (NaN always disagrees)."""

    entry: int
    first: float


class Missing(NamedTuple):
    """No entry gives the pair (i, j) in either direction."""

    i: int
    j: int


def assemble_matrix(
    n: int,
    rows: Sequence[int],
    cols: Sequence[int],
    values: Sequence[float],
    tolerance: float,
) -> np.ndarray | Conflict | Missing:
    """Dense n×n matrix from per-entry (row, col, value), or the first offender.

    The first value of an ordered pair wins and each later repeat must
    agree with it within the tolerance; a pair given in one direction
    only is mirrored, and an unset diagonal is zero. The offender is the
    earliest conflicting repeat, else the first pair missing in both
    directions in row-major i < j order.
    """
    keys = np.asarray(rows, dtype=np.intp) * n + np.asarray(cols, dtype=np.intp)
    vals = np.asarray(values, dtype=float)
    count = len(keys)
    first = np.full(n * n, count, dtype=np.intp)
    np.minimum.at(first, keys, np.arange(count))
    given = first < count
    firsts = first[given]
    if firsts.size < count:  # some ordered pair repeats
        is_repeat = np.ones(count, dtype=bool)
        is_repeat[firsts] = False
        repeats = np.flatnonzero(is_repeat)
        earlier = first[keys[repeats]]
        with np.errstate(over="ignore", invalid="ignore"):  # ±inf repeats
            agree = np.abs(vals[repeats] - vals[earlier]) <= tolerance
        if not agree.all():
            k = int(np.flatnonzero(~agree)[0])
            return Conflict(int(repeats[k]), float(vals[earlier[k]]))
    del first  # release n² indices before the n² matrix is allocated
    matrix = np.zeros(n * n)
    matrix[given] = vals[firsts]
    given, matrix = given.reshape(n, n), matrix.reshape(n, n)
    missing = np.triu(~(given | given.T), 1)
    if missing.any():
        i, j = np.argwhere(missing)[0]
        return Missing(int(i), int(j))
    return np.where(given, matrix, matrix.T)


def build_finite_table(
    labels: Iterable[PointId],
    entries: Iterable[tuple[PointId, PointId, float]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> SigmaSpace:
    """Build a table-backed space from explicit per-pair values.

    Every off-diagonal ordered pair must be determined exactly once: an
    entry may be given for just one direction of a pair, in which case
    the value is mirrored to the other direction (asymmetric spaces
    simply list both directions). Diagonal entries are optional and
    default to zero; a supplied diagonal beyond the tolerance is
    rejected. Repeating an ordered pair is an error unless the values
    agree within the tolerance, in which case the first one wins.
    Errors follow entry order: the earliest bad entry is reported.
    """
    label_list = _checked_labels(labels)
    index = {label: i for i, label in enumerate(label_list)}
    n = len(label_list)
    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []

    def duplicate(found: Conflict) -> DuplicateEntry:
        k = found.entry
        return DuplicateEntry(
            f"pair ({label_list[rows[k]]}, {label_list[cols[k]]}) given twice "
            f"with conflicting values {found.first!r} and {values[k]!r}"
        )

    try:
        for p, q, value in entries:
            if p not in index:
                raise UnknownPoint(f"entry references unknown point '{p}'")
            if q not in index:
                raise UnknownPoint(f"entry references unknown point '{q}'")
            values.append(float(value))
            rows.append(index[p])
            cols.append(index[q])
    except Exception:
        # A conflicting repeat before the bad entry is the earlier error.
        found = assemble_matrix(n, rows, cols, values, tolerance)
        if isinstance(found, Conflict):
            raise duplicate(found) from None
        raise

    found = assemble_matrix(n, rows, cols, values, tolerance)
    if isinstance(found, Conflict):
        raise duplicate(found)
    if isinstance(found, Missing):
        raise MissingEntry(
            f"no value for pair ({label_list[found.i]}, {label_list[found.j]})"
        )
    return SigmaSpace(label_list, found, tolerance=tolerance)


def build_coordinate_space(
    coords: Mapping[PointId, Sequence[float]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> SigmaSpace:
    """Build a coordinate-backed space; σ is half the squared distance.

    Every entry equals :func:`euclidean_sigma` of its two points bit for
    bit; coordinates far enough apart to overflow give an infinite σ,
    which the constructor rejects as non-finite.
    """
    labels = [str(k) for k in coords]
    if not labels:
        raise EmptySpace("a space needs at least one point")
    vectors = [tuple(float(c) for c in coords[k]) for k in coords]
    dim = len(vectors[0])
    if dim < 1:
        raise DimensionMismatch("coordinate vectors must have dimension >= 1")
    for label, vec in zip(labels, vectors):
        if len(vec) != dim:
            raise DimensionMismatch(
                f"point '{label}' has dimension {len(vec)}, expected {dim}"
            )
        if not all(math.isfinite(c) for c in vec):
            raise NonFiniteValue(f"coordinates of point '{label}' are not finite")

    n = len(labels)
    m = np.zeros((n, n))
    with np.errstate(over="ignore"):
        for axis in np.array(vectors).T:
            d = np.subtract.outer(axis, axis)
            d *= d
            m += d
    m *= 0.5
    return SigmaSpace(
        labels, m, coords=dict(zip(labels, vectors)), tolerance=tolerance
    )


@dataclass(frozen=True)
class GridSpec:
    """Integer grid {0..size-1}^dim with an optional set of deleted cells."""

    dim: int
    size: int
    deleted: frozenset[tuple[int, ...]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("grid dimension must be a positive integer")
        if self.size < 1:
            raise ValueError("grid size must be a positive integer")
        cells = frozenset(tuple(int(c) for c in cell) for cell in self.deleted)
        object.__setattr__(self, "deleted", cells)
        for cell in cells:
            if len(cell) != self.dim or not all(0 <= c < self.size for c in cell):
                raise ValueError(
                    f"deleted cell {cell} lies outside the "
                    f"{self.dim}-dimensional grid of size {self.size}"
                )


def grid_label(cell: Sequence[int]) -> str:
    """Canonical label of a grid cell, e.g. (0, 1) -> 'p0_1'."""
    return "p" + "_".join(str(int(c)) for c in cell)


def build_grid_space(spec: GridSpec, tolerance: float = DEFAULT_TOLERANCE) -> SigmaSpace:
    """Coordinate-backed space over an integer grid minus deleted cells.

    Point order is row-major over the grid, so output is deterministic.
    All values are half-integers, hence exactly representable.
    """
    cells = [
        cell
        for cell in itertools.product(range(spec.size), repeat=spec.dim)
        if cell not in spec.deleted
    ]
    if not cells:
        raise EmptySpace("every grid cell was deleted")
    coords = {grid_label(cell): tuple(float(c) for c in cell) for cell in cells}
    return build_coordinate_space(coords, tolerance=tolerance)


def is_symmetric(space: SigmaSpace) -> bool:
    """True when σ(P, Q) and σ(Q, P) agree within tolerance for all pairs."""
    m = space.matrix
    return bool((np.abs(m - m.T) <= space.tolerance).all())


def perturb_table(
    space: SigmaSpace,
    deltas: Iterable[tuple[PointId, PointId, float]],
) -> SigmaSpace:
    """New table-backed space with per-pair offsets added to σ.

    Offsets on the same pair accumulate. The result is re-validated, so
    a perturbation pushing a diagonal value beyond tolerance or producing
    a non-finite value is rejected.
    """
    m = np.array(space.matrix, dtype=float)
    for p, q, delta in deltas:
        i, j = space.index(p), space.index(q)
        m[i, j] = m[i, j] + float(delta)
    return SigmaSpace(space.points, m, tolerance=space.tolerance)


def as_table(space: SigmaSpace) -> SigmaSpace:
    """Table-backed copy of any space (σ values are carried over exactly)."""
    return SigmaSpace(space.points, np.array(space.matrix), tolerance=space.tolerance)
