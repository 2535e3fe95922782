"""Construction and validation of σ-spaces."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgeom import (
    DimensionMismatch,
    DuplicateEntry,
    DuplicateLabel,
    EmptySpace,
    GridSpec,
    InvalidLabel,
    InvalidTolerance,
    MissingEntry,
    NonFiniteValue,
    NonzeroDiagonal,
    SigmaSpace,
    UnknownPoint,
    as_table,
    build_coordinate_space,
    build_finite_table,
    build_grid_space,
    euclidean_sigma,
    is_symmetric,
    perturb_table,
)
from tgeom.space import SIGMA_BOUND, matrix_problems
from tgeom.tablefile import load_space

import naive_tablefile as naive
from conftest import make_table


def test_single_point_space():
    space = build_finite_table(["A"], [])
    assert len(space) == 1
    assert space.sigma("A", "A") == 0.0


def test_three_point_symmetric_table(tri_table):
    assert tri_table.sigma("A", "B") == 1.0
    assert tri_table.sigma("B", "A") == 1.0  # mirrored
    assert tri_table.sigma("A", "C") == 4.0
    assert tri_table.sigma("B", "C") == 1.0
    assert is_symmetric(tri_table)


def test_supplied_diagonal_beyond_tolerance_rejected():
    with pytest.raises(NonzeroDiagonal, match="A") as err:
        build_finite_table(["A", "B"], [("A", "B", 1.0), ("A", "A", 0.5)])
    assert str(err.value) == "diagonal value for (A, A) is 0.5, beyond tolerance 1e-09"


def test_tiny_diagonal_within_tolerance_accepted():
    space = build_finite_table(["A", "B"], [("A", "B", 1.0), ("A", "A", 1e-12)])
    assert space.sigma("A", "A") == 1e-12


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        build_finite_table(["A", "A"], [("A", "A", 0.0)])


def test_missing_pair_rejected():
    with pytest.raises(MissingEntry, match=r"\(A, C\)"):
        build_finite_table(["A", "B", "C"], [("A", "B", 1.0), ("B", "C", 1.0)])


def test_unknown_point_in_entry_rejected():
    with pytest.raises(UnknownPoint):
        build_finite_table(["A", "B"], [("A", "Z", 1.0)])


def test_non_finite_value_rejected():
    with pytest.raises(NonFiniteValue):
        build_finite_table(["A", "B"], [("A", "B", math.inf)])


def test_duplicate_entry_conflict_rejected():
    with pytest.raises(DuplicateEntry):
        build_finite_table(["A", "B"], [("A", "B", 1.0), ("A", "B", 2.0)])


def test_duplicate_entry_agreeing_keeps_first():
    space = build_finite_table(
        ["A", "B"], [("A", "B", 1.0), ("A", "B", 1.0 + 1e-12)]
    )
    assert space.sigma("A", "B") == 1.0


def test_negative_values_are_legal():
    # No sign constraint: indefinite tables are valid inputs.
    space = build_finite_table(["A", "B"], [("A", "B", -3.0)])
    assert space.sigma("A", "B") == -3.0


def test_matrix_is_read_only(tri_table):
    with pytest.raises(ValueError):
        tri_table.matrix[0, 1] = 99.0


def test_euclidean_sigma_examples():
    assert euclidean_sigma((3.0, 7.0), (3.0, 7.0)) == 0.0
    assert euclidean_sigma((0.0, 0.0), (1.0, 0.0)) == 0.5
    assert euclidean_sigma((0.0, 0.0), (3.0, 4.0)) == 12.5


def test_euclidean_sigma_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        euclidean_sigma((0.0,), (0.0, 1.0))


@given(
    st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_euclidean_sigma_exactly_symmetric(pairs):
    x = [a for a, _ in pairs]
    y = [b for _, b in pairs]
    assert euclidean_sigma(x, y) == euclidean_sigma(y, x)
    assert euclidean_sigma(x, x) == 0.0


def test_grid_one_dimensional():
    space = build_grid_space(GridSpec(dim=1, size=2))
    assert space.points == ("p0", "p1")
    assert space.sigma("p0", "p1") == 0.5


def test_grid_deletion_reduces_points(grid22_deleted):
    assert len(grid22_deleted) == 3
    assert "p1_1" not in grid22_deleted


def test_grid_all_deleted_rejected():
    deleted = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    with pytest.raises(EmptySpace):
        build_grid_space(GridSpec(dim=2, size=2, deleted=deleted))


def test_grid_spec_rejects_out_of_range_deletion():
    with pytest.raises(ValueError):
        GridSpec(dim=2, size=2, deleted=frozenset({(2, 0)}))


def test_grid_is_coordinate_backed_and_symmetric(grid33):
    assert grid33.backing == "coordinates"
    assert grid33.coordinates("p1_2") == (1.0, 2.0)
    assert is_symmetric(grid33)


def test_grid_to_table_round_trip_exact(grid33):
    table = as_table(grid33)
    assert table.backing == "table"
    assert table.coordinates("p0_0") is None
    assert np.array_equal(table.matrix, grid33.matrix)
    assert table.points == grid33.points


def test_repr_names_size_and_backing():
    grid = build_grid_space(GridSpec(dim=2, size=2))
    assert repr(grid) == "SigmaSpace(4 points, coordinates-backed)"
    assert repr(as_table(grid)) == "SigmaSpace(4 points, table-backed)"


def test_asymmetric_table_detected():
    space = build_finite_table(["A", "B"], [("A", "B", 1.0), ("B", "A", 2.0)])
    assert not is_symmetric(space)


def test_perturb_identity(tri_table):
    same = perturb_table(tri_table, [])
    assert np.array_equal(same.matrix, tri_table.matrix)
    assert same.backing == "table"


def test_perturb_single_direction(tri_table):
    bumped = perturb_table(tri_table, [("A", "B", 1.0)])
    assert bumped.sigma("A", "B") == 2.0
    assert bumped.sigma("B", "A") == 1.0  # only the requested direction moves
    assert not is_symmetric(bumped)


def test_perturb_deltas_accumulate(tri_table):
    bumped = perturb_table(tri_table, [("A", "B", 1.0), ("A", "B", 0.5)])
    assert bumped.sigma("A", "B") == 2.5


def test_perturb_diagonal_rejected(tri_table):
    with pytest.raises(NonzeroDiagonal):
        perturb_table(tri_table, [("A", "A", 1.0)])


def test_perturb_non_finite_rejected(tri_table):
    with pytest.raises(NonFiniteValue):
        perturb_table(tri_table, [("A", "B", math.nan)])


def test_coordinate_space_dimension_check():
    with pytest.raises(DimensionMismatch):
        build_coordinate_space({"a": (0.0, 1.0), "b": (2.0,)})


@pytest.mark.parametrize(
    "coords, error",
    [
        ({}, EmptySpace),
        ({"a": (), "b": ()}, DimensionMismatch),
        ({"a": (0.0,), "b": (math.inf,)}, NonFiniteValue),
    ],
)
def test_coordinate_space_rejects_bad_coordinates(coords, error):
    with pytest.raises(error):
        build_coordinate_space(coords)


def test_matrix_shape_must_match_the_labels():
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        SigmaSpace(["A", "B"], [[0.0]])


@pytest.mark.parametrize("dim, size", [(0, 2), (2, 0)])
def test_grid_spec_rejects_empty_axes(dim, size):
    with pytest.raises(ValueError, match="positive integer"):
        GridSpec(dim=dim, size=size)


def test_every_constructed_space_has_clean_diagonal(grid33, tri_table):
    rng = np.random.default_rng(7)
    spaces = [grid33, tri_table] + [
        make_table(rng, n, symmetric=sym)
        for n in (2, 4, 6)
        for sym in (True, False)
    ]
    for space in spaces:
        assert np.abs(np.diagonal(space.matrix)).max() <= space.tolerance


@pytest.mark.parametrize("label", ["a b", "", "\t", "a\nb", "a\u2028b", "a\x1fb", "\ud800"])
def test_labels_a_table_file_cannot_carry_are_rejected(label):
    with pytest.raises(InvalidLabel):
        build_finite_table([label, "c"], [(label, "c", 1.0)])
    with pytest.raises(InvalidLabel):
        SigmaSpace([label], [[0.0]])
    with pytest.raises(InvalidLabel):
        build_coordinate_space({label: (0.0,)})


@pytest.mark.parametrize("tolerance", [math.inf, -math.inf, math.nan, -1.0])
def test_tolerance_must_be_finite_and_non_negative(tolerance):
    with pytest.raises(InvalidTolerance, match="non-negative finite"):
        SigmaSpace(["A", "B"], [[0.0, 1.0], [1.0, 0.0]], tolerance=tolerance)
    with pytest.raises(InvalidTolerance):
        build_grid_space(GridSpec(dim=1, size=2), tolerance=tolerance)
    # The tolerance is judged before the entries: neither a repeated pair,
    # which it would compare, nor a missing pair hides a bad one.
    for entries in ([("A", "B", 1.0), ("A", "B", 1.0)], [("A", "A", 0.0)]):
        with pytest.raises(InvalidTolerance, match="non-negative finite"):
            build_finite_table(["A", "B"], entries, tolerance=tolerance)


def test_coordinate_overflow_is_a_typed_error_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue):
            build_coordinate_space({"a": (1e200, 0.0), "b": (-1e200, 0.0)})


def test_values_beyond_the_bound_are_rejected_by_every_constructor(tmp_path, tri_table):
    # 1.5e308 is finite, but four-term sums of such values overflow.
    big = 1.5e308
    entries = [("A", "B", big), ("A", "C", -big), ("B", "C", big)]
    path = tmp_path / "over.sigma"
    lines = [f"sigma: {p} {q} {value!r}\n" for p, q, value in entries]
    path.write_text("points: A B C\n" + "".join(lines), encoding="utf-8")
    builds = [
        lambda: SigmaSpace(["A", "B"], [[0.0, big], [big, 0.0]]),
        lambda: build_finite_table(["A", "B", "C"], entries),
        lambda: perturb_table(tri_table, [("A", "B", big)]),
        lambda: load_space(path),
    ]
    for build in builds:
        with pytest.raises(NonFiniteValue) as err:
            build()
        assert str(err.value) == f"value for (A, B) is 1.5e+308, beyond ±{SIGMA_BOUND!r}"
    # Coordinates near 1e154 give σ = 5e307, finite but past the bound.
    with pytest.raises(NonFiniteValue, match=r"\(a, b\) is 5e\+307, beyond"):
        build_coordinate_space({"a": (1e154,), "b": (0.0,)})


def test_sigma_bound_is_inclusive_and_named_apart_from_non_finite_values():
    assert SIGMA_BOUND * 32 == np.finfo(float).max
    for value in (SIGMA_BOUND, -SIGMA_BOUND):
        space = SigmaSpace(["A", "B"], [[0.0, value], [value, 0.0]])
        assert space.sigma("B", "A") == value
    past = float(np.nextafter(SIGMA_BOUND, math.inf))
    with pytest.raises(NonFiniteValue, match="beyond"):
        SigmaSpace(["A", "B"], [[0.0, past], [past, 0.0]])
    m = np.array([[0.0, math.nan, 1e308], [-math.inf, 0.0, 1.0], [-1e308, 1.0, 0.0]])
    assert [str(p) for p in matrix_problems(["A", "B", "C"], m, 1e-9)] == [
        "value for (A, B) is not finite",
        f"value for (A, C) is 1e+308, beyond ±{SIGMA_BOUND!r}",
        "value for (B, A) is not finite",
        f"value for (C, A) is -1e+308, beyond ±{SIGMA_BOUND!r}",
    ]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_coordinate_space_matches_euclidean_sigma_bitwise(data):
    dim = data.draw(st.integers(1, 4))
    coordinate = st.floats(-1e6, 1e6, allow_nan=False)
    points = data.draw(
        st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=6)
    )
    space = build_coordinate_space({f"P{k}": x for k, x in enumerate(points)})
    want = [[euclidean_sigma(x, y) for y in points] for x in points]
    assert space.matrix.tobytes() == np.array(want).tobytes()


def _build_outcome(build, labels, entries, tolerance):
    try:
        space = build(labels, entries, tolerance=tolerance)
    except Exception as exc:  # the exact type and message are compared
        return (type(exc), str(exc))
    return ("ok", space.points, space.matrix.tobytes())


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_build_finite_table_matches_naive_reference(data):
    n = data.draw(st.integers(1, 4))
    labels = [f"P{i}" for i in range(n)]
    value = st.sampled_from(
        [1.0, 1.0 + 1e-12, 1.25, 2.5, -3.0, 0.0, math.nan, math.inf, -math.inf]
    )
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            for p, q in data.draw(
                st.sampled_from([[(i, j)], [(j, i)], [(i, j), (j, i)]])
            ):
                entries.append((labels[p], labels[q], data.draw(value)))
    entries = data.draw(st.permutations(entries))
    extra = st.tuples(
        st.sampled_from(labels + ["Z"]),
        st.sampled_from(labels),
        st.one_of(value, st.just("x")),
    )
    for _ in range(data.draw(st.integers(0, 4))):
        position = data.draw(st.integers(0, len(entries)))
        if data.draw(st.booleans()) and entries:
            del entries[min(position, len(entries) - 1)]
        else:
            entries.insert(position, data.draw(extra))
    tolerance = data.draw(st.sampled_from([0.0, 1e-9, 0.5, -1.0, math.nan, math.inf]))
    assert _build_outcome(
        build_finite_table, labels, entries, tolerance
    ) == _build_outcome(naive.build_finite_table, labels, entries, tolerance)
