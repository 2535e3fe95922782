"""Equivalence decisions, witnesses, and class partition determinism."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

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
    solve_combination,
    survey_linearity,
)
from tgeom.equivalence import SIDE_FIRST, _probe_rows, _rows_agree, _UnionFind
from tgeom.oracle import brute_force_equivalent

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
