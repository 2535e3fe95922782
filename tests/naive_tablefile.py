"""Naive references for the table-file parser and writer and ``build_finite_table``.

These are the per-line dict parser, the per-line writer and the
list-of-lists table builder that the array-based versions replaced,
kept as they were so tests can require identical results and identical
errors from the fast paths. The writer judges symmetry and zero on the
bits of a value, so that -0.0 round-trips.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence

import numpy as np

from tgeom.errors import (
    DuplicateEntry,
    DuplicateLabel,
    EmptySpace,
    InvalidTolerance,
    MissingEntry,
    TableParseError,
    UnknownPoint,
)
from tgeom.space import DEFAULT_TOLERANCE, PointId, SigmaSpace
from tgeom.tablefile import ParsedTable


def _first_duplicate(labels: Sequence[str]) -> str | None:
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            return label
        seen.add(label)
    return None


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
    agree within the tolerance, in which case the first one wins. A
    tolerance that is not a finite real >= 0 is rejected before any
    entry is read.
    """
    label_list = [str(p) for p in labels]
    dup = _first_duplicate(label_list)
    if dup is not None:
        raise DuplicateLabel(f"point label '{dup}' occurs more than once")
    if not label_list:
        raise EmptySpace("a space needs at least one point")
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise InvalidTolerance("tolerance must be a non-negative finite real")
    idx = {label: i for i, label in enumerate(label_list)}
    n = len(label_list)

    grid: list[list[float | None]] = [[None] * n for _ in range(n)]
    for p, q, value in entries:
        if p not in idx:
            raise UnknownPoint(f"entry references unknown point '{p}'")
        if q not in idx:
            raise UnknownPoint(f"entry references unknown point '{q}'")
        i, j = idx[p], idx[q]
        value = float(value)
        previous = grid[i][j]
        if previous is not None:
            if not (abs(value - previous) <= tolerance):
                raise DuplicateEntry(
                    f"pair ({p}, {q}) given twice with conflicting values "
                    f"{previous!r} and {value!r}"
                )
            continue
        grid[i][j] = value

    for i in range(n):
        for j in range(i + 1, n):
            if grid[i][j] is None and grid[j][i] is None:
                raise MissingEntry(
                    f"no value for pair ({label_list[i]}, {label_list[j]})"
                )
            if grid[i][j] is None:
                grid[i][j] = grid[j][i]
            elif grid[j][i] is None:
                grid[j][i] = grid[i][j]
        if grid[i][i] is None:
            grid[i][i] = 0.0

    return SigmaSpace(label_list, np.array(grid, dtype=float), tolerance=tolerance)


def parse_table_text(text: str, path: str = "<string>") -> ParsedTable:
    """Parse table-file text, raising TableParseError with the line number."""
    labels: list[str] | None = None
    index: dict[str, int] = {}
    tolerance: float | None = None
    values: dict[tuple[int, int], float] = {}
    saw_sigma = False
    line_no = 0

    def fail(reason: str) -> TableParseError:
        return TableParseError(path, line_no, reason)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("points:"):
            if labels is not None:
                raise fail("duplicate points: line")
            labels = line[len("points:") :].split()
            if not labels:
                raise fail("points: line names no points")
            for label in labels:
                if label in index:
                    raise fail(f"duplicate point label '{label}'")
                index[label] = len(index)
            continue
        if labels is None:
            raise fail("first directive must be a points: line")
        if line.startswith("tolerance:"):
            if tolerance is not None:
                raise fail("duplicate tolerance: line")
            if saw_sigma:
                raise fail("tolerance: must come before sigma: lines")
            body = line[len("tolerance:") :].strip()
            try:
                tolerance = float(body)
            except ValueError:
                raise fail(f"cannot read tolerance value {body!r}") from None
            if not (math.isfinite(tolerance) and tolerance >= 0.0):
                raise fail("tolerance must be a non-negative finite real")
            continue
        if line.startswith("sigma:"):
            saw_sigma = True
            parts = line[len("sigma:") :].split()
            if len(parts) != 3:
                raise fail("sigma: line needs exactly '<P> <Q> <value>'")
            p, q, raw_value = parts
            if p not in index:
                raise fail(f"sigma: references unknown point '{p}'")
            if q not in index:
                raise fail(f"sigma: references unknown point '{q}'")
            try:
                value = float(raw_value)
            except ValueError:
                raise fail(f"cannot read sigma value {raw_value!r}") from None
            key = (index[p], index[q])
            eps = DEFAULT_TOLERANCE if tolerance is None else tolerance
            if key in values:
                if not (abs(values[key] - value) <= eps):
                    raise fail(
                        f"pair ({p}, {q}) already has value {values[key]!r}, "
                        f"conflicting with {value!r}"
                    )
                continue
            values[key] = value
            continue
        raise fail(f"unknown directive in line {line!r}")

    line_no += 1  # report end-of-file problems just past the last line
    if labels is None:
        raise fail("file contains no points: line")

    n = len(labels)
    matrix = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            forward, backward = values.get((i, j)), values.get((j, i))
            if forward is None and backward is None:
                raise fail(f"no sigma value for pair ({labels[i]}, {labels[j]})")
            matrix[i, j] = backward if forward is None else forward
            matrix[j, i] = forward if backward is None else backward
        if (i, i) in values:
            matrix[i, i] = values[(i, i)]

    return ParsedTable(
        path=path,
        labels=tuple(labels),
        tolerance=DEFAULT_TOLERANCE if tolerance is None else tolerance,
        matrix=matrix,
    )


def format_space(space: SigmaSpace) -> str:
    """Canonical text form of a space, one formatted value per line."""
    m = space.matrix
    bits = m.view(np.uint64)
    points = space.points
    chunks = [
        "points: " + " ".join(points),
        f"tolerance: {space.tolerance!r}",
    ]
    exactly_symmetric = bool((bits == bits.T).all())
    for i, p in enumerate(points):
        row = m[i].tolist()
        prefix = f"sigma: {p} "
        others = zip(points[i + 1 :], row[i + 1 :])
        if not exactly_symmetric:
            others = itertools.chain(zip(points[:i], row[:i]), others)
        lines = [f"{prefix}{p} {row[i]!r}"] if bits[i, i] != 0 else []
        lines += [f"{prefix}{q} {v!r}" for q, v in others]
        if lines:
            chunks.append("\n".join(lines))
    return "\n".join(chunks) + "\n"
