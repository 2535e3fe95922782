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
from .space import (
    DEFAULT_TOLERANCE,
    Conflict,
    Missing,
    SigmaSpace,
    assemble_matrix,
    matrix_problems,
)


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

# The bytes at or below b" " in a canonical body line, read as one
# little-endian uint32: its three single spaces, then its newline.
_SEPARATORS = 0x0A202020
# Trails the bytes that words are read from, so that a word starting at
# any of their offsets is whole.
_PAD = bytes(8)
# _MASKS[k] keeps the first k bytes of a little-endian word.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# Odd multiplier that folds the words of fields wider than 8 bytes.
_FOLD = np.uint64(0x100000001B3)


def _words(data: bytes, starts: np.ndarray, lengths: np.ndarray, width: int) -> list[np.ndarray]:
    """The fields data[starts:starts + lengths] as `width` uint64 words each.

    Word j holds bytes 8j to 8j + 7 of a field, little-endian, zero past
    the field's end. data ends in _PAD, so a word read at any offset up
    to a field's end is whole.
    """
    view = np.ndarray(len(data) - 7, "<u8", buffer=data, strides=(1,))
    words = [view[starts] & _MASKS.take(lengths, mode="clip")]
    if width > 1:
        ends = starts + lengths
        for j in range(8, 8 * width, 8):
            word = view[np.minimum(starts + j, ends)]
            words.append(word & _MASKS.take(lengths - j, mode="clip"))
    return words


def _key(words: list[np.ndarray]) -> np.ndarray:
    """One uint64 per field: its only word, or a fold of its words.

    A one-word key is exact for fields without NUL bytes; a folded key
    can collide, so callers check matches on it word by word.
    """
    if len(words) == 1:
        return words[0]
    key = np.uint64(0)
    for word in words:
        key = (key + word) * _FOLD
    return key


@dataclass(frozen=True)
class _LabelKeys:
    """The points' UTF-8 labels as sorted keys, for looking fields up.

    Sorted position k holds point index[k], of lengths[k] bytes and
    words[j][k]. A field whose key sorts past every label is compared
    with the last one, which it cannot equal.
    """

    keys: np.ndarray
    index: np.ndarray
    lengths: np.ndarray
    words: list[np.ndarray]

    @classmethod
    def of(cls, labels: list[str]) -> _LabelKeys:
        encoded = [label.encode() for label in labels]  # may raise UnicodeEncodeError
        lengths = np.array(list(map(len, encoded)))
        starts = np.cumsum(lengths) - lengths
        words = _words(b"".join(encoded) + _PAD, starts, lengths, -(-int(lengths.max()) // 8))
        order = np.argsort(_key(words))
        words = [word[order] for word in words]
        return cls(_key(words), order, lengths[order], words)

    def find(self, data: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
        """Point index of each field of data, or None unless all are labels.

        searchsorted is quickest when runs of its queries rise, as the
        columns of a table file mostly do.
        """
        words = _words(data, starts, lengths, len(self.words))
        at = np.searchsorted(self.keys, _key(words))
        if (self.lengths.take(at, mode="clip") != lengths).any():
            return None
        for mine, word in zip(self.words, words):
            if (mine.take(at, mode="clip") != word).any():
                return None
        return self.index.take(at, mode="clip")


def _read_values(
    raw: np.ndarray, data: bytes, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray | None:
    """The value fields of data as floats, or None if one is unreadable.

    Python's float reads each distinct token once, from one of its
    occurrences. Groups of a folded key must hold one token, word for
    word: with no NUL in a field, equal words are equal bytes. float
    reads bytes as ASCII only, so a value such as "\u0661", which it
    reads from text, is left to the per-line loop. raw is data without
    its _PAD, as uint8, and each field ends at a newline.
    """
    tokens = _words(data, starts, lengths, -(-int(lengths.max()) // 8))
    key = _key(tokens)
    order = key.argsort()
    ranked = key[order]
    head = np.empty(len(key), dtype=bool)  # the first of each run of equal keys
    head[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    some = order[head]
    inverse = np.empty(len(key), dtype=np.intp)
    inverse[order] = np.cumsum(head) - 1
    if len(tokens) > 1:
        same = some[inverse]
        if any((word != word[same]).any() for word in tokens):
            return None
    # The distinct tokens, each with its newline, gathered into one
    # string that bytes.split cuts up at C speed.
    begin = starts[some]
    size = lengths[some] + 1
    offset = np.cumsum(size) - size
    picked = raw[np.repeat(begin - offset, size) + np.arange(offset[-1] + size[-1])]
    texts = picked.tobytes().split()
    if len(texts) != len(some):  # an empty value
        return None
    try:
        read = np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return None
    return read[inverse]


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
    """Parse a canonical file from its UTF-8 bytes in chunks, or return None.

    Canonical means header lines (points:, tolerance:, comments,
    blanks) followed only by lines ``sigma: P Q value``, each starting
    in column 0, its four fields parted by single spaces and ended by
    "\n". None means the text was not proved canonical or holds an
    error; the caller then parses it line by line, so errors have one
    source.
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
    # Proved once for the whole body, before any field is read: each of
    # its lines starts with "sigma: " and no other line break occurs.
    total = text.count("\n", start)
    if text.count("\nsigma: ", start - 1) != total:
        return None
    if any(text.find(brk, start) >= 0 for brk in _OTHER_BREAKS):
        return None
    try:
        labels = _LabelKeys.of(state.labels)
    except UnicodeEncodeError:
        return None
    rows = np.empty(total, dtype=np.intp)
    cols = np.empty(total, dtype=np.intp)
    values = np.empty(total)
    filled = 0
    while start < len(text):
        cut = text.find("\n", start + _CHUNK - 1)
        end = len(text) if cut < 0 else cut + 1
        try:
            data = text[start:end].encode() + _PAD
        except UnicodeEncodeError:  # a lone surrogate
            return None
        start = end
        # With "sigma: " heading every line, bytes at or below b" " in
        # the order space, space, space, newline, and in no other, give
        # each line three fields that hold no whitespace, NUL or tab.
        raw = np.frombuffer(data, np.uint8, len(data) - len(_PAD))
        low = np.flatnonzero(raw <= 32)
        if low.size % 4 or (raw[low].view("<u4") != _SEPARATORS).any():
            return None
        # One row per field, one column per line: P, Q and the value.
        low = low.reshape(-1, 4).T.copy()
        m = low.shape[1]
        starts = low[:3] + 1
        lengths = low[1:] - starts
        found = labels.find(data, starts[:2], lengths[:2])
        if found is None:
            return None
        rows[filled : filled + m], cols[filled : filled + m] = found
        read = _read_values(raw, data, starts[2], lengths[2])
        if read is None:
            return None
        values[filled : filled + m] = read
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
    entry_lines: list[int] = []
    line_no = 0

    def conflict(found: Conflict) -> TableParseError:
        k = found.entry
        return TableParseError(
            path,
            entry_lines[k],
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
            entry_lines.append(line_no)
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
    """Semantic problems of a parsed table, as the constructor words them."""
    eps = parsed.effective_tolerance if tolerance is None else tolerance
    return [str(p) for p in matrix_problems(parsed.labels, parsed.matrix, eps)]


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
