"""Line-oriented σ-table files.

Format (UTF-8, one directive per line):

    # comment lines start with '#'; blank lines are ignored
    points: A B C
    tolerance: 1e-9
    sigma: A B 1.0
    sigma: A C 4.0
    sigma: B C 1.0

The points line must come first; the optional tolerance line must
precede every sigma line. A sigma line sets the value of one ordered
pair; for symmetric input a single line per unordered pair suffices and
is mirrored, while asymmetric input simply lists both directions.
Repeating an ordered pair with values that disagree beyond the
tolerance is a parse error, as is any unknown directive.

Parsing is split from validation on purpose: a file whose diagonal is
nonzero or whose values are not finite parses fine (the checker reports
those as violations), but only a clean table builds a space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TableParseError
from .space import DEFAULT_TOLERANCE, Conflict, Missing, SigmaSpace, assemble_matrix


@dataclass(frozen=True)
class ParsedTable:
    """Raw content of a table file, before semantic validation."""

    path: str
    labels: tuple[str, ...]
    tolerance: float | None
    matrix: np.ndarray

    @property
    def effective_tolerance(self) -> float:
        return DEFAULT_TOLERANCE if self.tolerance is None else self.tolerance


def parse_table_text(text: str, path: str = "<string>") -> ParsedTable:
    """Parse table-file text, raising TableParseError with the line number.

    When a file has several problems, the one on the earliest line is
    reported; a pair missing in both directions is reported just past
    the last line.
    """
    labels: list[str] | None = None
    index: dict[str, int] = {}
    tolerance: float | None = None
    eps = DEFAULT_TOLERANCE
    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    line_no = 0

    def conflict(found: Conflict) -> TableParseError:
        # Every sigma: line either raised or became the next entry, so
        # entry k stands on the (k+1)-th sigma: line.
        k = found.entry
        sigma_lines = (
            number
            for number, raw in enumerate(text.splitlines(), start=1)
            if raw.strip().startswith("sigma:")
        )
        return TableParseError(
            path,
            next(itertools.islice(sigma_lines, k, None)),
            f"pair ({labels[rows[k]]}, {labels[cols[k]]}) already has value "
            f"{found.first!r}, conflicting with {values[k]!r}",
        )

    def fail(reason: str) -> TableParseError:
        # Repeats are checked only once the pass ends, so a conflicting
        # repeat on an earlier line takes precedence here.
        found = assemble_matrix(len(index), rows, cols, values, eps)
        if isinstance(found, Conflict):
            return conflict(found)
        return TableParseError(path, line_no, reason)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("sigma:"):
            if labels is None:
                raise fail("first directive must be a points: line")
            parts = line[6:].split()
            if len(parts) != 3:
                raise fail("sigma: line needs exactly '<P> <Q> <value>'")
            p, q, raw_value = parts
            i = index.get(p)
            if i is None:
                raise fail(f"sigma: references unknown point '{p}'")
            j = index.get(q)
            if j is None:
                raise fail(f"sigma: references unknown point '{q}'")
            try:
                values.append(float(raw_value))
            except ValueError:
                raise fail(f"cannot read sigma value {raw_value!r}") from None
            rows.append(i)
            cols.append(j)
            continue
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
            if rows:
                raise fail("tolerance: must come before sigma: lines")
            body = line[len("tolerance:") :].strip()
            try:
                tolerance = float(body)
            except ValueError:
                raise fail(f"cannot read tolerance value {body!r}") from None
            if not (math.isfinite(tolerance) and tolerance >= 0.0):
                raise fail("tolerance must be a non-negative finite real")
            eps = tolerance
            continue
        raise fail(f"unknown directive in line {line!r}")

    line_no += 1  # report end-of-file problems just past the last line
    if labels is None:
        raise fail("file contains no points: line")
    found = assemble_matrix(len(labels), rows, cols, values, eps)
    if isinstance(found, Conflict):
        raise conflict(found)
    if isinstance(found, Missing):
        raise TableParseError(
            path,
            line_no,
            f"no sigma value for pair ({labels[found.i]}, {labels[found.j]})",
        )
    return ParsedTable(
        path=path, labels=tuple(labels), tolerance=tolerance, matrix=found
    )


def parse_table_file(path: str | Path) -> ParsedTable:
    return parse_table_text(Path(path).read_text(encoding="utf-8"), path=str(path))


def validation_problems(parsed: ParsedTable, tolerance: float | None = None) -> list[str]:
    """Semantic problems of a parsed table: bad diagonal, non-finite values."""
    eps = parsed.effective_tolerance if tolerance is None else tolerance
    problems = []
    m = parsed.matrix
    for i, label in enumerate(parsed.labels):
        if not (abs(m[i, i]) <= eps):
            problems.append(
                f"diagonal value for ({label}, {label}) is {m[i, i]!r}, "
                f"beyond tolerance {eps!r}"
            )
    for i, j in np.argwhere(~np.isfinite(m)):
        problems.append(
            f"value for ({parsed.labels[i]}, {parsed.labels[j]}) is not finite"
        )
    return problems


def space_from_parsed(
    parsed: ParsedTable, tolerance: float | None = None
) -> SigmaSpace:
    eps = parsed.effective_tolerance if tolerance is None else tolerance
    return SigmaSpace(parsed.labels, parsed.matrix, tolerance=eps)


def load_space(path: str | Path, tolerance: float | None = None) -> SigmaSpace:
    """Parse and validate a table file into a space."""
    return space_from_parsed(parse_table_file(path), tolerance=tolerance)


def format_space(space: SigmaSpace) -> str:
    """Canonical text form of a space.

    Values are written in shortest round-trip decimal, so parsing the
    output reproduces every σ value bit for bit. Exactly symmetric
    tables are written once per unordered pair and mirrored on input;
    any asymmetry, even below tolerance, switches to writing all ordered
    pairs so nothing is lost. Diagonal values are written only when they
    are not exactly zero.
    """
    m = space.matrix
    points = space.points
    chunks = [
        "points: " + " ".join(points),
        f"tolerance: {space.tolerance!r}",
    ]
    exactly_symmetric = bool((m == m.T).all())
    for i, p in enumerate(points):
        row = m[i].tolist()
        prefix = f"sigma: {p} "
        others = zip(points[i + 1 :], row[i + 1 :])
        if not exactly_symmetric:
            others = itertools.chain(zip(points[:i], row[:i]), others)
        lines = [f"{prefix}{p} {row[i]!r}"] if row[i] != 0.0 else []
        lines += [f"{prefix}{q} {v!r}" for q, v in others]
        if lines:
            chunks.append("\n".join(lines))
    return "\n".join(chunks) + "\n"


def save_space(space: SigmaSpace, path: str | Path) -> None:
    Path(path).write_text(format_space(space), encoding="utf-8")
