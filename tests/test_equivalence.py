"""Equivalence decisions, witnesses, and class partition determinism."""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgeom import (
    Coefficients,
    GridSpec,
    SigmaSpace,
    UnknownPoint,
    Vector,
    build_coordinate_space,
    build_finite_table,
    build_grid_space,
    equivalence_classes,
    equivalent,
    perturb_table,
    solve_combination,
    survey_linearity,
)
from tgeom import equivalence
from tgeom.equivalence import (
    SIDE_FIRST,
    SIDE_SECOND,
    _probe_rows,
    _rows_agree,
    _UnionFind,
    _unique_rows,
)
from tgeom.oracle import brute_force_equivalent
from tgeom.vectors import _four_term

from conftest import make_table, perturbed_grid


def all_vectors(space):
    return [Vector(p, q) for p in space.points for q in space.points]


def test_reflexive(tri_table):
    for v in all_vectors(tri_table):
        assert equivalent(tri_table, v, v).equivalent


def test_null_vectors_all_equivalent(tri_table):
    witness = equivalent(tri_table, Vector("A", "A"), Vector("C", "C"))
    assert witness.equivalent
    assert witness.counterexample is None


def test_grid_displacement_criterion(grid33):
    assert equivalent(grid33, Vector("p0_0", "p1_0"), Vector("p1_1", "p2_1"))
    assert not equivalent(grid33, Vector("p0_0", "p1_0"), Vector("p0_0", "p0_1"))


def test_witness_reports_first_failing_probe():
    space = build_finite_table(["A", "B"], [("A", "B", 1.0)])
    witness = equivalent(space, Vector("A", "B"), Vector("B", "A"))
    assert not witness.equivalent
    ce = witness.counterexample
    # probes scan (A,A), (A,B), ... over the first slot before the second
    assert (ce.probe_origin, ce.probe_end) == ("A", "B")
    assert ce.side == SIDE_FIRST
    assert ce.lhs == 2.0 and ce.rhs == -2.0


def _full_grid_witness(space, v, w):
    """Probe, side and four-term bytes of the first failing probe.

    Found in all four n×n four-term grids at once; None when no single
    probe fails (the roundings straddle ε).
    """
    m, n, eps = space.matrix, len(space), space.tolerance
    q0, q1 = np.ix_(range(n), range(n))

    def grids(u):
        i0, i1 = space.index(u.origin), space.index(u.end)
        return _four_term(m, i0, i1, q0, q1), _four_term(m, q0, q1, i0, i1)

    with np.errstate(over="ignore", invalid="ignore"):
        for side, left, right in zip((SIDE_FIRST, SIDE_SECOND), grids(v), grids(w)):
            agree = np.abs(left - right) <= eps
            if not agree.all():
                a, b = divmod(int(np.argmin(agree)), n)
                lhs, rhs = left[a, b].tobytes(), right[a, b].tobytes()
                return (space.points[a], space.points[b], side, lhs, rhs)
    return None


def _witness_bits(space, v, w):
    ce = equivalent(space, v, w).counterexample
    if ce is None:
        return None
    lhs, rhs = np.float64(ce.lhs).tobytes(), np.float64(ce.rhs).tobytes()
    return (ce.probe_origin, ce.probe_end, ce.side, lhs, rhs)


@pytest.mark.parametrize("chunk", [None, 1, 100])
def test_witness_matches_the_full_grid_scan(monkeypatch, chunk):
    # Blocks of probe origins must report the probe, side and four-term
    # values, bit for bit, that a scan over the full grids reports.
    if chunk is not None:  # one origin per block, or a few
        monkeypatch.setattr(equivalence, "_CHUNK", chunk)
    rng = np.random.default_rng(31)
    pick = random.Random(31)
    grid = build_grid_space(GridSpec(dim=2, size=24))
    # On a 6×6 grid, a row and a column of σ moved by ±0.6ε at two late
    # points: (p0_0, p1_0) and (p2_2, p3_2) then first disagree at the
    # probe origin p4_1 in the first slot, (p0_1, p1_1) and (p2_3, p3_3)
    # at p4_2 in the second.
    small = build_grid_space(GridSpec(dim=2, size=6))
    shift = 0.6 * small.tolerance
    moved = perturb_table(
        small,
        [
            ("p0_0", "p4_1", shift),
            ("p0_0", "p5_3", -shift),
            ("p4_2", "p1_1", shift),
            ("p5_5", "p1_1", -shift),
        ],
    )
    late = [
        (Vector("p0_0", "p1_0"), Vector("p2_2", "p3_2")),
        (Vector("p0_1", "p1_1"), Vector("p2_3", "p3_3")),
    ]
    spaces = [grid, moved, make_table(rng, 30), make_table(rng, 30, symmetric=False)]
    for space in spaces:
        vectors = all_vectors(space)
        pairs = [pick.sample(vectors, 2) for _ in range(40)]
        for v, w in pairs + (late if space is moved else []):
            expected = _full_grid_witness(space, v, w)
            if expected is None and not equivalent(space, v, w):
                continue  # the straddle case, pinned elsewhere
            assert _witness_bits(space, v, w) == expected, (v, w)
    assert [_witness_bits(moved, v, w)[:3] for v, w in late] == [
        ("p4_1", "p5_3", SIDE_FIRST),
        ("p4_2", "p5_5", SIDE_SECOND),
    ]


def test_unknown_point_rejected(tri_table):
    with pytest.raises(UnknownPoint):
        equivalent(tri_table, Vector("A", "Z"), Vector("A", "B"))


def test_fingerprint_agreement_matches_direct_path():
    rng = np.random.default_rng(21)
    for symmetric in (True, False):
        space = make_table(rng, 4, symmetric=symmetric)
        rows = dict(zip(all_vectors(space), _probe_rows(space)))
        for v, w in itertools.product(all_vectors(space), repeat=2):
            direct = equivalent(space, v, w).equivalent
            assert direct == _rows_agree(rows[v] - rows[w], space.tolerance)


def test_witness_present_iff_not_equivalent():
    rng = np.random.default_rng(22)
    space = make_table(rng, 4)
    for v, w in itertools.product(all_vectors(space), repeat=2):
        witness = equivalent(space, v, w)
        assert witness.equivalent == (witness.counterexample is None)
        if witness.counterexample is not None:
            ce = witness.counterexample
            assert abs(ce.lhs - ce.rhs) > space.tolerance


def test_single_point_partition():
    space = build_finite_table(["P"], [])
    partition = equivalence_classes(space)
    assert partition.classes == ((Vector("P", "P"),),)
    assert partition.coherent


def test_two_point_partition():
    space = build_finite_table(["A", "B"], [("A", "B", 1.0)])
    partition = equivalence_classes(space)
    assert partition.classes == (
        (Vector("A", "A"), Vector("B", "B")),
        (Vector("A", "B"),),
        (Vector("B", "A"),),
    )


def test_full_grid_partition_counts(grid22):
    partition = equivalence_classes(grid22)
    assert len(partition) == 9  # one class per displacement in {-1,0,1}^2
    assert partition.method == "fingerprint-buckets"
    assert partition.coherent
    for cls in partition.classes:
        displacements = set()
        for v in cls:
            origin = grid22.coordinates(v.origin)
            end = grid22.coordinates(v.end)
            displacements.add(tuple(e - o for o, e in zip(origin, end)))
        assert len(displacements) == 1


def _oracle_partition(space):
    vectors = [Vector(p, q) for p in space.points for q in space.points]
    uf = _UnionFind(len(vectors))
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            if brute_force_equivalent(space, vectors[i], vectors[j]):
                uf.union(i, j)
    classes: dict[int, list[Vector]] = {}
    for k, v in enumerate(vectors):
        classes.setdefault(uf.find(k), []).append(v)
    return sorted(tuple(sorted(members)) for members in classes.values())


def test_partition_matches_pairwise_oracle(tri_table, grid22_deleted):
    rng = np.random.default_rng(23)
    spaces = [tri_table, grid22_deleted, make_table(rng, 4), make_table(rng, 3, symmetric=False)]
    for space in spaces:
        partition = equivalence_classes(space)
        assert list(partition.classes) == _oracle_partition(space)


def test_partition_is_a_partition():
    rng = np.random.default_rng(24)
    for n in (2, 3, 5):
        space = make_table(rng, n)
        partition = equivalence_classes(space)
        seen = [v for cls in partition.classes for v in cls]
        assert len(seen) == n * n
        assert len(set(seen)) == n * n
        for cls in partition.classes:
            for v, w in itertools.combinations(cls, 2):
                assert equivalent(space, v, w).equivalent


def _cell_shift(v):
    """Displacement of a vector between grid labels p<x>_<y>."""
    (x0, y0), (x1, y1) = (map(int, label[1:].split("_")) for label in v)
    return (x1 - x0, y1 - y0)


@pytest.mark.parametrize("size", [3, 4])
def test_epsilon_boundary_stress_matches_oracle(size):
    # Only vectors with the same grid displacement come within ε of each
    # other; all their pairs are checked, and the class partition (a
    # closure over every pair) is compared whole. The fast paths decide
    # by the range rule and the oracle probe by probe, which can differ
    # only within a few ulps of ε; these seeds hit no such pair.
    rng = np.random.default_rng(26 + size)
    outcomes = set()
    for scale in (0.125, 0.25, 0.5):
        space = perturbed_grid(rng, size, scale)
        vectors = all_vectors(space)
        for v, w in itertools.combinations(vectors, 2):
            if _cell_shift(v) == _cell_shift(w):
                expected = brute_force_equivalent(space, v, w)
                assert equivalent(space, v, w).equivalent == expected, (scale, v, w)
                outcomes.add(expected)
        partition = equivalence_classes(space)
        assert list(partition.classes) == _oracle_partition(space)
        assert partition.coherent == all(
            brute_force_equivalent(space, a, b)
            for cls in partition.classes
            for a, b in itertools.combinations(cls, 2)
        )
    assert outcomes == {True, False}  # the perturbations straddle ε


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_table_keeps_null_class_and_stays_quiet():
    # Valid finite values whose sums overflow: a null vector's row is
    # exactly zero, so the null vectors still form one class; rows that
    # overflow agree with nothing, and no numpy warning escapes.
    big = 1.5e308
    space = build_finite_table(
        ["A", "B", "C"], [("A", "B", big), ("A", "C", -big), ("B", "C", big)]
    )
    partition = equivalence_classes(space)
    null = tuple(Vector(p, p) for p in space.points)
    assert partition.class_of(Vector("A", "A")) == null
    assert partition.coherent
    assert equivalent(space, Vector("A", "A"), Vector("B", "B")).equivalent
    witness = equivalent(space, Vector("A", "B"), Vector("B", "C"))
    assert not witness.equivalent and witness.counterexample is not None
    c = Coefficients(1.0, 1.0)
    solve_combination(space, c, Vector("A", "B"), Vector("B", "C"))
    (row,) = survey_linearity(space, [c]).rows
    assert row.solvable == len(null) ** 2  # only null pairs have finite targets

    # Where two vectors' four-term sums meet as inf - inf, the oracle
    # counts the NaN as disagreement, as every fast path does. Null
    # vectors differ on purpose: their four-term sums overflow, but
    # their fingerprint rows are exactly zero.
    m = space.matrix.tolist()

    probes = list(itertools.product(range(len(m)), repeat=2))

    def four_term_sums(v):
        i0, i1 = space.index(v.origin), space.index(v.end)
        first = [((m[i0][q1] + m[i1][q0]) - m[i0][q0]) - m[i1][q1] for q0, q1 in probes]
        second = [((m[q0][i1] + m[q1][i0]) - m[q0][i0]) - m[q1][i1] for q0, q1 in probes]
        return first + second

    agreeing = 0
    for v, w in itertools.product(all_vectors(space), repeat=2):
        gaps = map(float.__sub__, four_term_sums(v), four_term_sums(w))
        if not any(math.isnan(gap) for gap in gaps):
            continue
        fast = equivalent(space, v, w).equivalent
        if v in null and w in null:
            assert fast and not brute_force_equivalent(space, v, w)
        else:
            assert brute_force_equivalent(space, v, w) == fast
            agreeing += 1
    assert agreeing == 36


def test_range_rule_and_four_term_differ_only_by_ulps():
    # Tolerances set exactly at a computed gap expose where the range rule
    # and the probe-by-probe four-term sums round differently.
    space = build_finite_table(
        ["A", "B", "C"],
        [
            ("A", "B", 0.8564916714362436),
            ("A", "C", 2.368105065960997),
            ("B", "C", 8.012744652063969),
        ],
    )
    m = space.matrix

    def at(tolerance):
        return SigmaSpace(space.points, m, tolerance=tolerance)

    # Four-term gap 9.524358046588722, range one ulp above it: no single
    # probe fails, so the witness is the widest four-term gap.
    tight = at(9.524358046588722)
    v, w = Vector("A", "A"), Vector("A", "C")
    assert brute_force_equivalent(tight, v, w)
    witness = equivalent(tight, v, w)
    assert not witness.equivalent
    ce = witness.counterexample
    assert abs(ce.lhs - ce.rhs) == tight.tolerance
    # Range one ulp below the four-term gap: the fast path agrees.
    loose = at(6.501131257539215)
    assert equivalent(loose, Vector("A", "C"), Vector("B", "C")).equivalent
    assert not brute_force_equivalent(loose, Vector("A", "C"), Vector("B", "C"))
    # Null vectors have identical zero rows, while the four-term sums
    # leave 4.4e-16; at zero tolerance only the oracle separates them.
    exact = at(0.0)
    assert equivalent(exact, Vector("A", "A"), Vector("C", "C")).equivalent
    assert not brute_force_equivalent(exact, Vector("A", "A"), Vector("C", "C"))
    null = tuple(Vector(p, p) for p in exact.points)
    assert equivalence_classes(exact).class_of(Vector("A", "A")) == null


def test_equivalence_is_transitive_on_exact_spaces():
    rng = np.random.default_rng(25)
    for trial in range(5):
        space = make_table(rng, 4, integer=True)
        vectors = all_vectors(space)
        related = {
            (v, w): equivalent(space, v, w).equivalent
            for v in vectors
            for w in vectors
        }
        for u in vectors:
            assert related[(u, u)]
            for v in vectors:
                assert related[(u, v)] == related[(v, u)]
                for w in vectors:
                    if related[(u, v)] and related[(v, w)]:
                        assert related[(u, w)]


def test_boundary_space_falls_back_to_union_find():
    # Unit steps of 1, 1 + e/4 and 1 + e/2: adjacent steps agree within
    # tolerance but the ends differ, so the relation is not transitive
    # and only the explicit closure can report it honestly.
    e = 1e-9
    space = build_coordinate_space(
        {"a": (0.0,), "b": (1.0,), "c": (2.0 + e / 4,), "d": (3.0 + 3 * e / 4,)}
    )
    v1, v2, v3 = Vector("a", "b"), Vector("b", "c"), Vector("c", "d")
    assert equivalent(space, v1, v2).equivalent
    assert equivalent(space, v2, v3).equivalent
    assert not equivalent(space, v1, v3).equivalent
    partition = equivalence_classes(space)
    assert partition.method == "union-find"
    assert not partition.coherent
    assert partition.class_of(v1) == (v1, v2, v3)
    assert len(partition) == 9


def test_class_of_unknown_vector_raises(grid22):
    partition = equivalence_classes(grid22)
    with pytest.raises(KeyError):
        partition.class_of(Vector("nope", "nope"))


def test_displacement_criterion_exhaustive(grid22):
    # The 2x2 grid's displacements span the plane, so equivalence must
    # coincide exactly with equality of displacement vectors.
    def displacement(v):
        origin = grid22.coordinates(v.origin)
        end = grid22.coordinates(v.end)
        return tuple(e - o for o, e in zip(origin, end))

    vectors = all_vectors(grid22)
    for v, w in itertools.product(vectors, repeat=2):
        assert equivalent(grid22, v, w).equivalent == (
            displacement(v) == displacement(w)
        )


def _groups(inverse):
    """Row indices grouped by representative, independent of group order."""
    groups: dict[int, list[int]] = {}
    for k, g in enumerate(np.ravel(inverse).tolist()):
        groups.setdefault(g, []).append(k)
    return sorted(groups.values())


def _assert_same_partition_as_numpy(rows):
    reps, inverse, counts = _unique_rows(rows)
    _, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert _groups(inverse) == _groups(ref_inverse)
    assert counts.tolist() == np.bincount(inverse, minlength=len(reps)).tolist()
    assert np.array_equal(reps[inverse], rows)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 12), st.integers(1, 3).map(lambda h: 2 * h)),
        elements=st.sampled_from([0.0, -0.0, 1.0, -2.5, np.inf, np.nan]),
    )
)
def test_unique_rows_matches_numpy_unique(rows):
    # Few distinct values make repeated rows common; the callers drop
    # non-finite rows first, which often leaves nothing at all.
    finite = rows[np.isfinite(rows).all(axis=1)]
    _assert_same_partition_as_numpy(finite)


def test_unique_rows_of_no_rows():
    rows = np.full((4, 6), np.inf)
    reps, inverse, counts = _unique_rows(rows[np.isfinite(rows).all(axis=1)])
    assert reps.shape == (0, 6) and len(inverse) == 0 and len(counts) == 0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_negative_zero_diagonal_changes_no_result(data):
    # σ(P, P) = -0.0 next to σ(P, Q) = 0 puts -0.0 into fingerprint rows
    # that np.unique(axis=0) groups with +0.0; the byte key must too.
    n = data.draw(st.integers(2, 4))
    labels = [f"P{i}" for i in range(n)]
    values = st.sampled_from([0.0, 1.0, 2.0, 4.0])
    entries = [
        (labels[i], labels[j], data.draw(values))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    signed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    diagonal = [(p, p, -0.0 if neg else 0.0) for p, neg in zip(labels, signed)]
    space = build_finite_table(labels, entries + diagonal)
    plain = build_finite_table(labels, entries)
    _assert_same_partition_as_numpy(_probe_rows(space))
    assert equivalence_classes(space) == equivalence_classes(plain)
    coeffs = [Coefficients(1.0, 1.0), Coefficients(2.0, -1.0)]
    assert survey_linearity(space, coeffs) == survey_linearity(plain, coeffs)


def test_negative_zero_reaches_the_fingerprint_rows():
    space = build_finite_table(
        ["A", "B", "C"],
        [("B", "B", -0.0), ("A", "B", 0.0), ("A", "C", 4.0), ("B", "C", 4.0)],
    )
    rows = _probe_rows(space)
    assert ((rows == 0) & np.signbit(rows)).any()
    _assert_same_partition_as_numpy(rows)


def _class_digest(partition):
    return hashlib.sha256(repr(partition.classes).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "make, classes, method, coherent, digest, counts",
    [
        (
            lambda: perturbed_grid(
                np.random.default_rng(93), 4, 0.25, deleted={(1, 2)}
            ),
            109,
            "union-find",
            False,
            "42bbe5bbe28ba1fc",
            [(21803, 6525), (4301, 0)],
        ),
        (
            lambda: make_table(np.random.default_rng(91), 9, symmetric=False),
            73,
            "fingerprint-buckets",
            True,
            "b7cd4e0074f8a39c",
            [(2457, 1377), (801, 0)],
        ),
    ],
    ids=["perturbed-grid", "random-asymmetric"],
)
def test_partition_and_survey_pinned(make, classes, method, coherent, digest, counts):
    # Values recorded from the np.unique(axis=0), row-major implementation;
    # the representatives' order may change, these results may not.
    space = make()
    partition = equivalence_classes(space)
    assert (len(partition), partition.method, partition.coherent) == (
        classes,
        method,
        coherent,
    )
    assert _class_digest(partition) == digest
    coeffs = [Coefficients(1.0, 1.0), Coefficients(2.0, -1.0)]
    rows = survey_linearity(space, coeffs).rows
    total = len(space) ** 4
    assert [(r.solvable, r.guaranteed) for r in rows] == counts
    assert all(r.total_pairs == total for r in rows)
    assert all(r.unsolvable == total - r.solvable for r in rows)
