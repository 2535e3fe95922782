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

Parsing is split from validation on purpose: a file with a nonzero
diagonal or a value past ±SIGMA_BOUND (or NaN) parses fine (the checker
reports those as violations), but only a clean table builds a space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import InvalidTolerance, TableParseError
from .space import (
    DEFAULT_TOLERANCE,
    Conflict,
    Missing,
    SigmaSpace,
    assemble_matrix,
    checked_tolerance,
    matrix_problems,
)


@dataclass(frozen=True)
class ParsedTable:
    """Raw content of a table file, before semantic validation."""

    path: str
    labels: tuple[str, ...]
    tolerance: float  # the ε in force: the file's, the default, or an override
    matrix: np.ndarray


_CHUNK = 1 << 18  # characters per bulk chunk; every chunk ends at a "\n"

# The bytes at or below b" " in a canonical body line, read as one
# little-endian uint32: its three single spaces, then its newline.
_SEPARATORS = 0x0A202020
# The six bytes that start a canonical body line, as a little-endian word.
_SIGMA = int.from_bytes(b"sigma:", "little")
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
    """Everything the lines of a file set: the points, ε and the entries.

    Entry k gives the value values[k] to the ordered pair (rows[k],
    cols[k]) on line lines[k].
    """

    labels: list[str] | None = None
    index: dict[str, int] = field(default_factory=dict)
    tolerance: float | None = None
    rows: list[int] = field(default_factory=list)
    cols: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    lines: list[int] = field(default_factory=list)

    @property
    def eps(self) -> float:
        return DEFAULT_TOLERANCE if self.tolerance is None else self.tolerance

    def read(self, line: str, line_no: int) -> str | None:
        """Take one stripped line, the line_no-th of its file.

        Returns why the line is wrong, or None when it is accepted.
        """
        if line.startswith("sigma:"):  # first: nearly every line is one
            if self.labels is None:
                return "first directive must be a points: line"
            parts = line[6:].split()
            if len(parts) != 3:
                return "sigma: line needs exactly '<P> <Q> <value>'"
            p, q, raw_value = parts
            i = self.index.get(p)
            if i is None:
                return f"sigma: references unknown point '{p}'"
            j = self.index.get(q)
            if j is None:
                return f"sigma: references unknown point '{q}'"
            try:
                self.values.append(float(raw_value))
            except ValueError:
                return f"cannot read sigma value {raw_value!r}"
            self.rows.append(i)
            self.cols.append(j)
            self.lines.append(line_no)
            return None
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
            if self.rows:
                return "tolerance: must come before sigma: lines"
            body = line[len("tolerance:") :].strip()
            try:
                self.tolerance = checked_tolerance(float(body))
            except InvalidTolerance as exc:
                return str(exc)
            except ValueError:
                return f"cannot read tolerance value {body!r}"
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
    for line_no, raw in enumerate(header.splitlines(), start=1):
        if state.read(raw.strip(), line_no) is not None:
            return None
    if state.labels is None:
        return None

    if start < len(text) and not text.endswith("\n"):
        # An unterminated last line holds no separator byte to flag it.
        return None
    total = text.count("\n", start)  # a canonical body has one line per "\n"
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
        # Bytes at or below b" " in the order space, space, space,
        # newline, and in no other, part each line into four fields free
        # of whitespace, NUL and tab. The line breaks U+0085, U+2028 and
        # U+2029 are UTF-8 above b" ", so they land inside a field, which
        # the label lookup or float(bytes) then rejects.
        raw = np.frombuffer(data, np.uint8, len(data) - len(_PAD))
        low = np.flatnonzero(raw <= 32)
        if low.size % 4 or (raw[low].view("<u4") != _SEPARATORS).any():
            return None
        low = low.reshape(-1, 4).T.copy()  # one column per line
        m = low.shape[1]
        heads = np.r_[0, low[3, :-1] + 1]  # where each line starts
        if (low[0] != heads + 6).any() or (_words(data, heads, 6, 1)[0] != _SIGMA).any():
            return None  # a first field other than "sigma:"
        # One row per field: P, Q and the value.
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
        path=path, labels=tuple(state.labels), tolerance=state.eps, matrix=found
    )


def _parse_lines(text: str, path: str) -> ParsedTable:
    """Parse line by line; the only source of TableParseError.

    Reading stops at the first wrong line. Repeats are judged only once
    reading ends, so a conflicting repeat on an earlier line comes
    first, then the wrong line, then a pair missing in both directions.
    """
    state = _Header()
    stop = None
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        reason = state.read(raw.strip(), line_no)
        if reason is not None:
            stop = TableParseError(path, line_no, reason)
            break
    else:
        line_no += 1  # report end-of-file problems just past the last line
        if state.labels is None:
            stop = TableParseError(path, line_no, "file contains no points: line")

    labels, rows, cols, values = state.labels, state.rows, state.cols, state.values
    found = assemble_matrix(len(state.index), rows, cols, values, state.eps)
    if isinstance(found, Conflict):
        k = found.entry
        raise TableParseError(
            path,
            state.lines[k],
            f"pair ({labels[rows[k]]}, {labels[cols[k]]}) already has "
            f"value {found.first!r}, conflicting with {values[k]!r}",
        )
    if stop is not None:
        raise stop
    if isinstance(found, Missing):
        raise TableParseError(
            path,
            line_no,
            f"no sigma value for pair ({labels[found.i]}, {labels[found.j]})",
        )
    return ParsedTable(path=path, labels=tuple(labels), tolerance=state.eps, matrix=found)


def parse_table_file(path: str | Path, tolerance: float | None = None) -> ParsedTable:
    """Parse a table file; a tolerance given here replaces the file's ε.

    The replacement comes after parsing, so repeated pairs in the file
    are still judged at the file's own ε.
    """
    eps = None if tolerance is None else checked_tolerance(tolerance)
    parsed = parse_table_text(Path(path).read_text(encoding="utf-8"), path=str(path))
    return parsed if eps is None else replace(parsed, tolerance=eps)


def validation_problems(parsed: ParsedTable) -> list[str]:
    """Semantic problems of a parsed table, as the constructor words them."""
    return [str(p) for p in matrix_problems(parsed.labels, parsed.matrix, parsed.tolerance)]


def space_from_parsed(parsed: ParsedTable) -> SigmaSpace:
    return SigmaSpace(parsed.labels, parsed.matrix, tolerance=parsed.tolerance)


def load_space(path: str | Path, tolerance: float | None = None) -> SigmaSpace:
    """Parse and validate a table file into a space; see parse_table_file."""
    return space_from_parsed(parse_table_file(path, tolerance))


# sigma: lines per block of format_space. Its (block, 3) object array
# takes 24 bytes a line, 192 KiB in all, past glibc's default 128 KiB
# mmap threshold; glibc raises the threshold to the size of a freed
# mmapped block, up to 32 MiB on 64-bit (mallopt(3)). Only one block's
# pieces exist at a time beside the text made so far.
_LINES = 1 << 13


def format_space(space: SigmaSpace) -> str:
    """Canonical text form of a space.

    Values are written in shortest round-trip decimal, so parsing the
    output reproduces every σ value bit for bit, signed zeros included.
    Symmetry and zero are judged on the bits of a value, so -0.0 differs
    from 0.0 here: a table equal to its transpose bit for bit is written
    once per unordered pair and mirrored on input; any other table, even
    one asymmetric below tolerance or in the sign of a zero, is written
    as all ordered pairs so nothing is lost. A diagonal value is written
    unless it is +0.0. Each row lists its diagonal first, then the other
    columns in order. Lines are made in blocks of _LINES, and each
    distinct value of a block is formatted once.
    """
    m = space.matrix
    n = len(space.points)
    bits = m.view(np.uint64)
    # Position k of row i stands for column i when k = 0, else for
    # column k - (k <= i): the diagonal first, then the others in order.
    col = np.arange(n)
    keep = col > col[:, None] if (bits == bits.T).all() else np.ones((n, n), dtype=bool)
    keep[:, 0] = bits.diagonal() != 0
    written = np.flatnonzero(keep)
    heads = np.array([f"\nsigma: {p} " for p in space.points], dtype=object)
    tails = np.array([f"{q} " for q in space.points], dtype=object)
    pieces = ["points: " + " ".join(space.points), f"\ntolerance: {space.tolerance!r}"]
    block = np.empty((min(_LINES, len(written)), 3), dtype=object)
    for start in range(0, len(written), _LINES):
        i, k = np.divmod(written[start : start + _LINES], n)
        j = np.where(k == 0, i, k - (k <= i))
        lines = block[: len(i)]
        # Every index is in range; mode "clip" writes straight into out,
        # which mode "raise" would buffer.
        heads.take(i, out=lines[:, 0], mode="clip")
        tails.take(j, out=lines[:, 1], mode="clip")
        distinct, inverse = np.unique(m[i, j].view(np.uint64), return_inverse=True)
        texts = list(map(float.__repr__, distinct.view(float).tolist()))
        np.array(texts, dtype=object).take(inverse, out=lines[:, 2], mode="clip")
        pieces.append("".join(lines.ravel().tolist()))
    pieces.append("\n")
    return "".join(pieces)


def save_space(space: SigmaSpace, path: str | Path) -> None:
    Path(path).write_text(format_space(space), encoding="utf-8")
