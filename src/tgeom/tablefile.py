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
from dataclasses import dataclass, field
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


_CHUNK = 1 << 18  # characters per bulk chunk; every chunk ends at a "\n"

# Line breaks that str.splitlines honours besides "\n". A body holding
# one is left to the per-line loop, whose line numbers count them.
_OTHER_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@dataclass
class _Header:
    """What the lines other than sigma: lines set: the points and ε."""

    labels: list[str] | None = None
    index: dict[str, int] = field(default_factory=dict)
    tolerance: float | None = None

    @property
    def eps(self) -> float:
        return DEFAULT_TOLERANCE if self.tolerance is None else self.tolerance

    def read(self, line: str, after_sigma: bool) -> str | None:
        """Take one stripped line that is not a sigma: line.

        Returns why the line is wrong, or None when it is accepted.
        """
        if not line or line.startswith("#"):
            return None
        if line.startswith("points:"):
            if self.labels is not None:
                return "duplicate points: line"
            self.labels = line[len("points:") :].split()
            if not self.labels:
                return "points: line names no points"
            for label in self.labels:
                if label in self.index:
                    return f"duplicate point label '{label}'"
                self.index[label] = len(self.index)
            return None
        if self.labels is None:
            return "first directive must be a points: line"
        if line.startswith("tolerance:"):
            if self.tolerance is not None:
                return "duplicate tolerance: line"
            if after_sigma:
                return "tolerance: must come before sigma: lines"
            body = line[len("tolerance:") :].strip()
            try:
                tolerance = float(body)
            except ValueError:
                return f"cannot read tolerance value {body!r}"
            if not (math.isfinite(tolerance) and tolerance >= 0.0):
                return "tolerance must be a non-negative finite real"
            self.tolerance = tolerance
            return None
        return f"unknown directive in line {line!r}"


def parse_table_text(text: str, path: str = "<string>") -> ParsedTable:
    """Parse table-file text, raising TableParseError with the line number.

    When a file has several problems, the one on the earliest line is
    reported; a pair missing in both directions is reported just past
    the last line. A canonical file is read in one bulk pass; any other
    text, and every text with an error, is read line by line, with the
    same results either way.
    """
    parsed = _parse_bulk(text, path)
    return parsed if parsed is not None else _parse_lines(text, path)


def _parse_bulk(text: str, path: str) -> ParsedTable | None:
    """Parse a canonical file in chunks, or return None.

    Canonical means header lines (points:, tolerance:, comments,
    blanks) followed only by lines ``sigma: P Q value`` that each start
    in column 0 and end with "\n". None means the text was not proved
    canonical or holds an error; the caller then parses it line by line,
    so errors have one source.
    """
    # The header ends where the first line starts with "sigma:". Holding
    # no "sigma:" at all, it names no point "sigma:", and it gives
    # _Header.read no sigma: line to misjudge.
    start = text.find("\nsigma:") + 1 or len(text)
    header = text[:start]
    if "sigma:" in header:
        return None
    state = _Header()
    for raw in header.splitlines():
        if state.read(raw.strip(), after_sigma=False) is not None:
            return None
    if state.labels is None:
        return None

    if start < len(text) and not text.endswith("\n"):
        # The counts below prove line alignment only for "\n"-ended lines.
        return None
    total = text.count("\n", start)
    rows = np.empty(total, dtype=np.intp)
    cols = np.empty(total, dtype=np.intp)
    values = np.empty(total)
    lookup = state.index.__getitem__
    filled = 0
    while start < len(text):
        cut = text.find("\n", start + _CHUNK - 1)
        end = len(text) if cut < 0 else cut + 1
        chunk = text[start:end]
        start = end
        if any(brk in chunk for brk in _OTHER_BREAKS):
            return None
        # Each line starts with "sigma:" and no other "sigma:" occurs, so
        # the m "sigma:" tokens head the m lines; standing at positions
        # 0, 4, 8, ... of 4m tokens, they give each line four fields.
        m = chunk.count("\n")
        if not ("\n" + chunk).count("\nsigma:") == chunk.count("sigma:") == m:
            return None
        tokens = chunk.split()
        if len(tokens) != 4 * m or tokens[0::4].count("sigma:") != m:
            return None
        try:
            rows[filled : filled + m] = np.fromiter(map(lookup, tokens[1::4]), np.intp, m)
            cols[filled : filled + m] = np.fromiter(map(lookup, tokens[2::4]), np.intp, m)
            values[filled : filled + m] = np.fromiter(map(float, tokens[3::4]), float, m)
        except (KeyError, ValueError):
            return None
        filled += m

    found = assemble_matrix(len(state.labels), rows, cols, values, state.eps)
    if not isinstance(found, np.ndarray):
        return None
    return ParsedTable(
        path=path, labels=tuple(state.labels), tolerance=state.tolerance, matrix=found
    )


def _parse_lines(text: str, path: str) -> ParsedTable:
    """Parse line by line; the only source of TableParseError."""
    state = _Header()
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
            f"pair ({state.labels[rows[k]]}, {state.labels[cols[k]]}) already has "
            f"value {found.first!r}, conflicting with {values[k]!r}",
        )

    def fail(reason: str) -> TableParseError:
        # Repeats are checked only once the pass ends, so a conflicting
        # repeat on an earlier line takes precedence here.
        found = assemble_matrix(len(state.index), rows, cols, values, state.eps)
        if isinstance(found, Conflict):
            return conflict(found)
        return TableParseError(path, line_no, reason)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("sigma:"):
            if state.labels is None:
                raise fail("first directive must be a points: line")
            parts = line[6:].split()
            if len(parts) != 3:
                raise fail("sigma: line needs exactly '<P> <Q> <value>'")
            p, q, raw_value = parts
            i = state.index.get(p)
            if i is None:
                raise fail(f"sigma: references unknown point '{p}'")
            j = state.index.get(q)
            if j is None:
                raise fail(f"sigma: references unknown point '{q}'")
            try:
                values.append(float(raw_value))
            except ValueError:
                raise fail(f"cannot read sigma value {raw_value!r}") from None
            rows.append(i)
            cols.append(j)
            continue
        reason = state.read(line, after_sigma=bool(rows))
        if reason is not None:
            raise fail(reason)

    line_no += 1  # report end-of-file problems just past the last line
    labels = state.labels
    if labels is None:
        raise fail("file contains no points: line")
    found = assemble_matrix(len(labels), rows, cols, values, state.eps)
    if isinstance(found, Conflict):
        raise conflict(found)
    if isinstance(found, Missing):
        raise TableParseError(
            path,
            line_no,
            f"no sigma value for pair ({labels[found.i]}, {labels[found.j]})",
        )
    return ParsedTable(
        path=path, labels=tuple(labels), tolerance=state.tolerance, matrix=found
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
                f"diagonal value for ({label}, {label}) is {float(m[i, i])!r}, "
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
