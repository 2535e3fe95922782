"""σ-table file parsing, validation split, and round-trips."""

from __future__ import annotations

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgeom import (
    DuplicateLabel,
    EmptySpace,
    GridSpec,
    InvalidLabel,
    NonzeroDiagonal,
    SigmaSpace,
    TableParseError,
    build_grid_space,
    format_space,
    load_space,
    parse_table_text,
    save_space,
    space_from_parsed,
    validation_problems,
)

import naive_tablefile as naive
from tgeom import tablefile
from conftest import make_table

GOOD = """\
# three points, symmetric input given once per pair
points: A B C
tolerance: 1e-9

sigma: A B 1.0
sigma: A C 4.0
sigma: B C 1.0
"""


def test_parse_symmetric_shorthand():
    parsed = parse_table_text(GOOD)
    assert parsed.labels == ("A", "B", "C")
    assert parsed.tolerance == 1e-9
    space = space_from_parsed(parsed)
    assert space.sigma("B", "A") == 1.0  # mirrored
    assert space.sigma("A", "C") == 4.0


def test_parse_asymmetric_both_directions():
    text = "points: A B\nsigma: A B 1.0\nsigma: B A 2.0\n"
    space = space_from_parsed(parse_table_text(text))
    assert space.sigma("A", "B") == 1.0
    assert space.sigma("B", "A") == 2.0


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("sigma: A B 1.0\n", 1, "points"),
        ("points: A B\npoints: A B\n", 2, "duplicate points"),
        ("points: A A\n", 1, "duplicate point label"),
        ("points: A B\nsigma: A B 1.0\ntolerance: 1e-9\n", 3, "before sigma"),
        ("points: A B\nwhatever: 1\n", 2, "unknown directive"),
        ("points: A B\nsigma: A Z 1.0\n", 2, "unknown point 'Z'"),
        ("points: A B\nsigma: A B\n", 2, "exactly"),
        ("points: A B\nsigma: A B x\n", 2, "cannot read sigma"),
        ("points: A B\nsigma: A B 1.0\nsigma: A B 2.0\n", 3, "conflicting"),
        ("points: A B C\nsigma: A B 1.0\n", 3, "no sigma value"),
        (  # the first missing pair in row-major i < j order
            "points: A B C D\nsigma: A B 1\nsigma: A C 1\nsigma: B D 1\nsigma: C D 1\n",
            6,
            "pair (A, D)",
        ),
        ("points: A B\ntolerance: -1\n", 2, "non-negative"),
        # the earliest offending line wins, a conflict included
        ("points: A B\nsigma: A B 1\nsigma: A B 2\nsigma: A Z 1\n", 3, "conflicting"),
        ("points: A B\nsigma: A Z 1\nsigma: A B 1\nsigma: A B 2\n", 2, "unknown point"),
        ("points: A B\nsigma: A B 1\nsigma: A B nan\ntolerance: 1\n", 3, "conflicting"),
        ("points: A B C\nsigma: A B inf\nsigma: A B inf\n", 3, "conflicting"),
        # lines the bulk pass must not misread as four-field sigma: lines
        ("points: A B\nsigma: A B 1 2\n", 2, "exactly"),
        ("points: A B\nsigma:A B A 1\n", 2, "exactly"),
        ("points: A B\nsigma:\nA B 1\nsigma: B A 1", 2, "exactly"),  # no final newline
        (
            "points: A B sigma:\nsigma: A B 1 sigma:\nsigma: A 2\nsigma: B sigma: 3\n",
            2,
            "exactly",
        ),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(TableParseError) as err:
        parse_table_text(text)
    assert err.value.line_no == line
    assert fragment in err.value.reason


def test_duplicate_pair_within_tolerance_is_accepted():
    text = "points: A B\nsigma: A B 1.0\nsigma: A B 1.0\n"
    assert space_from_parsed(parse_table_text(text)).sigma("A", "B") == 1.0


def test_validation_split_bad_diagonal():
    text = "points: A B\nsigma: A B 1.0\nsigma: A A 0.5\n"
    parsed = parse_table_text(text)  # parses fine
    problems = validation_problems(parsed)
    assert len(problems) == 1 and "(A, A)" in problems[0]
    with pytest.raises(NonzeroDiagonal):
        space_from_parsed(parsed)


def test_validation_split_non_finite():
    text = "points: A B\nsigma: A B nan\n"
    parsed = parse_table_text(text)
    assert any("not finite" in p for p in validation_problems(parsed))


def test_grid_round_trip_exact(tmp_path):
    for spec in (
        GridSpec(dim=1, size=5),
        GridSpec(dim=2, size=3),
        GridSpec(dim=2, size=3, deleted=frozenset({(1, 1), (0, 2)})),
        GridSpec(dim=3, size=2),
    ):
        space = build_grid_space(spec)
        path = tmp_path / "grid.sigma"
        save_space(space, path)
        again = load_space(path)
        assert again.points == space.points
        assert np.array_equal(again.matrix, space.matrix)
        assert again.tolerance == space.tolerance


def test_random_table_round_trip_exact(tmp_path):
    rng = np.random.default_rng(51)
    for trial in range(10):
        space = make_table(rng, int(rng.integers(2, 7)), symmetric=bool(trial % 2))
        path = tmp_path / "table.sigma"
        save_space(space, path)
        again = load_space(path)
        assert np.array_equal(again.matrix, space.matrix)


def test_sub_tolerance_asymmetry_round_trips(tmp_path):
    # Asymmetry below tolerance must survive a write/read cycle, so the
    # writer may only use the one-line-per-pair form for exact symmetry.
    from tgeom import build_finite_table

    space = build_finite_table(
        ["A", "B"], [("A", "B", 1.0), ("B", "A", 1.0 + 1e-12)]
    )
    path = tmp_path / "near.sigma"
    save_space(space, path)
    again = load_space(path)
    assert again.sigma("B", "A") == 1.0 + 1e-12


def test_symmetric_output_written_once_per_pair(tri_table):
    text = format_space(tri_table)
    assert text.count("sigma:") == 3


def test_tolerance_round_trips(tmp_path):
    space = build_grid_space(GridSpec(dim=1, size=3), tolerance=1e-6)
    path = tmp_path / "tol.sigma"
    save_space(space, path)
    assert load_space(path).tolerance == 1e-6


def test_load_tolerance_override(tmp_path):
    path = tmp_path / "g.sigma"
    save_space(build_grid_space(GridSpec(dim=1, size=3)), path)
    assert load_space(path, tolerance=1e-3).tolerance == 1e-3


# Mutations that move text across line boundaries, see _regroup.
REGROUPS = ("sigma_label", "split", "join", "shift", "break", "indent", "separator")

# Each mutation edits the line list of a formatted table in place, except
# "no_newline", which drops the final line break when the lines are joined.
MUTATIONS = (
    "drop",
    "repeat",
    "unknown",
    "unreadable",
    "arity",
    "late_tolerance",
    "directive",
    "filler",
    "no_space",
    "infinite",
    "no_newline",
    *REGROUPS,
)


def _outcome(parse, text):
    try:
        parsed = parse(text)
    except TableParseError as exc:
        return ("error", exc.line_no, exc.reason)
    return ("ok", parsed.labels, parsed.tolerance, parsed.matrix.tobytes())


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _regroup(data, lines, kind):
    """Move text across line boundaries; line 0 stays the points: line."""
    i = data.draw(st.integers(1, len(lines) - 1))
    if kind == "sigma_label":  # a point named like the directive
        label = data.draw(st.sampled_from(lines[0].split(" ")[1:]))
        for k, line in enumerate(lines):
            lines[k] = " ".join("sigma:" if tok == label else tok for tok in line.split(" "))
    elif kind == "split":
        fields = lines[i].split(" ")
        if len(fields) > 1:
            cut = data.draw(st.integers(1, len(fields) - 1))
            lines[i : i + 1] = [" ".join(fields[:cut]), " ".join(fields[cut:])]
    elif kind == "join":
        if i + 1 < len(lines):
            lines[i : i + 2] = [f"{lines[i]} {lines[i + 1]}"]
    elif kind == "shift":  # one field across a line end: 3 fields next to 5
        if i + 1 < len(lines):
            head, tail = lines[i].split(" "), lines[i + 1].split(" ")
            if data.draw(st.booleans()):
                head, tail = head[:-1], head[-1:] + tail
            else:
                head, tail = head + tail[:1], tail[1:]
            lines[i : i + 2] = [" ".join(head), " ".join(tail)]
    elif kind == "break":  # line breaks other than "\n"; "\r" makes "\r\n"
        brk = data.draw(st.sampled_from(["\r", "\x0b", "\x1c", "\u2028"]))
        if data.draw(st.booleans()):
            lines[i] += brk
        else:
            lines[i] = lines[i].replace(" ", brk, 1)
    elif kind == "indent":
        lines[i] = data.draw(st.sampled_from([" ", "\t", "\u3000"])) + lines[i]
    elif kind == "separator":
        lines[i] = lines[i].replace(" ", data.draw(st.sampled_from(["\t", "\u3000", "  "])))


def _mutate(data, lines, kind):
    if kind == "no_newline":
        return
    if kind in REGROUPS:
        _regroup(data, lines, kind)
        return
    entries = [
        line.split()[1:] for line in lines
        if line.startswith("sigma: ")
        and len(line.split()) == 4
        and _number(line.split()[3]) is not None
    ]
    p, q, value = data.draw(st.sampled_from(entries)) if entries else ("P0", "P0", "0.0")
    if kind == "drop":
        if entries:
            lines.remove(next(
                line for line in lines
                if line.startswith("sigma: ") and line.split()[1:] == [p, q, value]
            ))
        return
    if kind == "repeat":
        # equal, within the 0.5 tolerance only, conflicting, NaN
        shifted = [repr(float(value) + step) for step in (0.25, 1.0)]
        repeat = data.draw(st.sampled_from([value, *shifted, "nan"]))
        new = f"sigma: {p} {q} {repeat}"
    else:
        new = {
            "unknown": f"sigma: {p} Z {value}",
            "unreadable": f"sigma: {p} {q} x",
            "arity": data.draw(st.sampled_from([f"sigma: {p} {q}", f"sigma: {p} {q} 1 2"])),
            "late_tolerance": "tolerance: 0.5",
            "directive": "whatever: 1",
            "filler": data.draw(st.sampled_from(["", "   ", "# note"])),
            "no_space": f"sigma:{p} {q} {value}",
            "infinite": data.draw(st.sampled_from([f"sigma: {p} {q} inf", f"sigma: {q} {p} -inf"])),
        }[kind]
    lines.insert(data.draw(st.integers(1, len(lines))), new)  # after points:


def _mutated_text(data, n, most=6):
    """format_space text of a random n-point table, then up to most mutations."""
    symmetric = data.draw(st.booleans())
    value = st.sampled_from([1.0, 2.5, -3.0, 1e-12])
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = data.draw(value)
            m[j, i] = m[i, j] if symmetric else data.draw(value)
    tolerance = data.draw(st.sampled_from([0.0, 1e-9, 0.5]))
    space = SigmaSpace([f"P{i}" for i in range(n)], m, tolerance=tolerance)
    lines = format_space(space).splitlines()
    kinds = data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=most))
    for kind in kinds:
        _mutate(data, lines, kind)
    return "\n".join(lines) + ("" if "no_newline" in kinds else "\n")


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_parser_matches_naive_reference(data):
    text = _mutated_text(data, data.draw(st.integers(1, 4)))
    assert _outcome(parse_table_text, text) == _outcome(naive.parse_table_text, text)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bulk_chunk_edges_match_naive_reference(data):
    # Chunks of a few characters put a chunk edge next to every line end;
    # at most two mutations leave most files one proof step from canonical.
    text = _mutated_text(data, data.draw(st.integers(18, 24)), most=2)
    expected = _outcome(naive.parse_table_text, text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tablefile, "_CHUNK", data.draw(st.integers(1, 64)))
        assert _outcome(parse_table_text, text) == expected


def _bulk_spaces():
    """Canonical texts the bulk pass must read: one to three words per field."""
    rng = np.random.default_rng(6)
    wide = ["ρουλέτα_0_é", "point_number_1", "a_label_of_more_than_16_bytes", "P"]
    m = rng.uniform(0.0, 10.0, (4, 4)) * (1 - np.eye(4))
    return [
        build_grid_space(GridSpec(dim=2, size=5)),
        make_table(rng, 7, symmetric=False),  # values of about 17 bytes
        SigmaSpace(["A"], [[0.0]], tolerance=0.25),  # a header and no sigma: line
        SigmaSpace(wide, m + m.T),  # labels of 1 to 29 bytes, multi-byte UTF-8
        SigmaSpace(wide, m * 1e-300),  # values of about 22 bytes
    ]


def test_canonical_text_takes_the_bulk_path(monkeypatch):
    texts = [format_space(space) for space in _bulk_spaces()]
    expected = [_outcome(naive.parse_table_text, text) for text in texts]

    def fallback(text, path):
        raise AssertionError("canonical text was parsed line by line")

    monkeypatch.setattr(tablefile, "_parse_lines", fallback)
    assert [_outcome(parse_table_text, text) for text in texts] == expected
    with pytest.raises(AssertionError, match="line by line"):
        parse_table_text(texts[0].replace("\n", "\r\n"))


def test_folded_keys_that_collide_are_checked_byte_for_byte(monkeypatch):
    # With a zero multiplier every key of two or more words is 0, so any
    # two long labels, or long values, collide; the outcome must still
    # be exact, decided by comparing the words themselves.
    texts = [format_space(space) for space in _bulk_spaces()]
    expected = [_outcome(naive.parse_table_text, text) for text in texts]
    monkeypatch.setattr(tablefile, "_FOLD", np.uint64(0))
    assert [_outcome(parse_table_text, text) for text in texts] == expected


@pytest.mark.parametrize(
    "line",
    [
        "sigma: A \ud800 1",  # a lone surrogate, which UTF-8 cannot encode
        "sigma: A B \ud800",
        "sigma: A\x00 B 1",  # NUL bytes
        "sigma: A B 1\x00",
        "sigma: A B 1\x000",
        "sigma: A B \xa01",  # non-ASCII whitespace around or inside a value
        "sigma: A B 1\xa0",
        "sigma: A B 1\xa02",
        "sigma: A B \u30001",
        "sigma: A B 1\u3000",
        "sigma: A B \u0661",  # ARABIC-INDIC DIGIT ONE, which float reads as 1
        "sigma: A B \u0661.\u0665e\u0662",
        "sigma: A\tB 1",  # other bytes at or below b" "
        "sigma: A B 1\x1f",
        "sigma: A B\x1f1",
        "sigma: A  B 1",
        "sigma: A B  1",
        "sigma: A B ",
        "sigma: A B 1 ",
        "sigma: abcdefghi B 1",  # the first word of the label abcdefgh
        "sigma: abcdefgh B 1",
    ],
)
@pytest.mark.parametrize("labels", ["A B", "A B abcdefgh", "A B \ud800 A\x00"])
def test_byte_level_hazards_match_naive_reference(line, labels):
    # Each line follows a complete canonical table, so the bulk pass
    # reads fields before it meets the hazard; no UnicodeEncodeError may
    # escape.
    points = labels.split(" ")
    head = f"points: {labels}\n" + "".join(
        f"sigma: {p} {q} 2\n" for p, q in itertools.combinations(points, 2)
    )
    for text in (head + line + "\n", head + line + "\nsigma: A B 1\n"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tablefile, "_CHUNK", 1)
            chunked = _outcome(parse_table_text, text)
        assert _outcome(parse_table_text, text) == chunked == _outcome(naive.parse_table_text, text)


def test_non_canonical_body_is_rejected_before_tokenising(monkeypatch):
    text = format_space(build_grid_space(GridSpec(dim=2, size=5)))
    texts = [text + "# end\n", text + "\n", text + "\r\n"]
    expected = [_outcome(naive.parse_table_text, text) for text in texts]

    def words(*args, **kwargs):
        raise AssertionError("a non-canonical body was tokenised")

    # Small chunks leave the first chunks canonical and the tail in a later one.
    monkeypatch.setattr(tablefile, "_CHUNK", 64)
    monkeypatch.setattr(tablefile, "_words", words)
    assert [_outcome(parse_table_text, text) for text in texts] == expected


LABEL_CHARS = st.one_of(
    st.sampled_from(list(" \t\n\x0b\x1c\x1f\x85\xa0\u2028\u3000#:\ufeff\ud800")),
    st.characters(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(LABEL_CHARS, max_size=3), max_size=4))
def test_accepted_labels_round_trip_exactly(labels):
    n = len(labels)
    matrix = np.arange(n * n, dtype=float).reshape(n, n) * (1 - np.eye(n))
    try:
        space = SigmaSpace(labels, matrix)
    except (EmptySpace, DuplicateLabel, InvalidLabel):
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.sigma"
        save_space(space, path)
        again = load_space(path)
    assert again.points == space.points
    assert np.array_equal(again.matrix, space.matrix)
