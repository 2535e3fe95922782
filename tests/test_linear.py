"""Guaranteed constructions and the exhaustive combination solver."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from tgeom import (
    ChainMismatch,
    Coefficients,
    GridSpec,
    GuaranteedCase,
    NotGuaranteed,
    SearchLimitExceeded,
    SigmaSpace,
    Vector,
    build_grid_space,
    chain_sum,
    construct_guaranteed,
    equivalent,
    guaranteed_case,
    negate,
    solve_combination,
    survey_linearity,
)
from tgeom.equivalence import _fingerprint_index
from tgeom.oracle import brute_force_solve

from conftest import make_table, perturbed_grid


def test_negate():
    assert negate(Vector("A", "B")) == Vector("B", "A")
    assert negate(Vector("P", "P")) == Vector("P", "P")
    assert negate(negate(Vector("A", "B"))) == Vector("A", "B")


def test_chain_sum():
    assert chain_sum(Vector("A", "B"), Vector("B", "C")) == Vector("A", "C")
    assert chain_sum(Vector("A", "B"), Vector("B", "A")) == Vector("A", "A")
    with pytest.raises(ChainMismatch):
        chain_sum(Vector("A", "B"), Vector("C", "D"))


def test_coefficients_must_be_finite():
    with pytest.raises(ValueError):
        Coefficients(float("nan"), 1.0)
    with pytest.raises(ValueError):
        Coefficients(1.0, float("inf"))


@pytest.mark.parametrize(
    "alpha,beta,v,w,expected",
    [
        (0.0, 0.0, Vector("A", "B"), Vector("C", "C"), GuaranteedCase.ZERO),
        (1.0, 0.0, Vector("A", "B"), Vector("C", "C"), GuaranteedCase.SINGLE_VECTOR),
        (0.0, -1.0, Vector("A", "B"), Vector("C", "C"), GuaranteedCase.SINGLE_VECTOR),
        (1.0, 1.0, Vector("A", "B"), Vector("B", "C"), GuaranteedCase.CHAIN_SUM),
        (-1.0, -1.0, Vector("A", "B"), Vector("B", "C"), GuaranteedCase.CHAIN_SUM),
        (1.0, 1.0, Vector("B", "C"), Vector("A", "B"), GuaranteedCase.CHAIN_SUM),
        (1.0, -1.0, Vector("A", "B"), Vector("C", "B"),
         GuaranteedCase.COMMON_ENDPOINT_DIFFERENCE),
        (-1.0, 1.0, Vector("A", "B"), Vector("A", "C"),
         GuaranteedCase.COMMON_ENDPOINT_DIFFERENCE),
        (0.5, 0.5, Vector("A", "B"), Vector("B", "C"), None),
        (2.0, 0.0, Vector("A", "B"), Vector("C", "C"), None),  # non-unit survivor
        (1.0, 1.0, Vector("A", "B"), Vector("C", "A"), GuaranteedCase.CHAIN_SUM),
        (1.0, 1.0, Vector("A", "B"), Vector("C", "B"), None),  # no chain point
        # Coefficients match by value: -0.0·v = 0.
        (-0.0, -0.0, Vector("A", "B"), Vector("C", "C"), GuaranteedCase.ZERO),
        (-1.0, -0.0, Vector("A", "B"), Vector("C", "C"), GuaranteedCase.SINGLE_VECTOR),
    ],
)
def test_guaranteed_case_classification(tri_table, alpha, beta, v, w, expected):
    assert guaranteed_case(tri_table, Coefficients(alpha, beta), v, w) is expected


def test_construct_guaranteed_representatives(tri_table):
    cases = [
        (0.0, 0.0, Vector("A", "B"), Vector("C", "B"), Vector("A", "A")),
        (1.0, 0.0, Vector("A", "B"), Vector("C", "B"), Vector("A", "B")),
        (-1.0, 0.0, Vector("A", "B"), Vector("C", "B"), Vector("B", "A")),
        (0.0, 1.0, Vector("A", "B"), Vector("C", "B"), Vector("C", "B")),
        (1.0, 1.0, Vector("A", "B"), Vector("B", "C"), Vector("A", "C")),
        (-1.0, -1.0, Vector("A", "B"), Vector("B", "C"), Vector("C", "A")),
        (1.0, 1.0, Vector("B", "C"), Vector("A", "B"), Vector("A", "C")),
        (1.0, -1.0, Vector("A", "B"), Vector("C", "B"), Vector("A", "C")),
        (-1.0, 1.0, Vector("A", "B"), Vector("C", "B"), Vector("C", "A")),
        (1.0, -1.0, Vector("A", "B"), Vector("A", "C"), Vector("C", "B")),
    ]
    for alpha, beta, v, w, expected in cases:
        built = construct_guaranteed(tri_table, Coefficients(alpha, beta), v, w)
        assert built == expected, (alpha, beta, v, w)


def test_construct_guaranteed_requires_a_case(tri_table):
    with pytest.raises(NotGuaranteed):
        construct_guaranteed(
            tri_table, Coefficients(0.5, 0.5), Vector("A", "B"), Vector("B", "C")
        )


def test_constructed_representative_always_solves(tri_table):
    # Exhaustive sweep over unit coefficients and all endpoint shapes:
    # whenever a case applies, the built vector must be in the oracle's
    # solution set.
    coeff_grid = [
        Coefficients(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)
    ]
    vectors = [
        Vector(p, q) for p in tri_table.points for q in tri_table.points
    ]
    covered = 0
    for c, v, w in itertools.product(coeff_grid, vectors, vectors):
        if guaranteed_case(tri_table, c, v, w) is None:
            continue
        built = construct_guaranteed(tri_table, c, v, w)
        assert built in brute_force_solve(tri_table, c, v, w)
        covered += 1
    assert covered > 100


def test_constructed_representative_in_solver_output():
    rng = np.random.default_rng(31)
    for n in (3, 5, 6):
        space = make_table(rng, n, symmetric=bool(n % 2))
        points = space.points
        picks = [
            (Coefficients(1.0, 1.0), Vector(points[0], points[1]), Vector(points[1], points[2])),
            (Coefficients(-1.0, -1.0), Vector(points[0], points[1]), Vector(points[1], points[0])),
            (Coefficients(1.0, -1.0), Vector(points[0], points[1]), Vector(points[2], points[1])),
            (Coefficients(0.0, -1.0), Vector(points[0], points[1]), Vector(points[2], points[1])),
        ]
        for c, v, w in picks:
            result = solve_combination(space, c, v, w)
            built = construct_guaranteed(space, c, v, w)
            assert result.guaranteed is not None
            assert result.method == "constructed"
            assert built in result.solutions


def test_solver_rejects_unknown_points(tri_table):
    from tgeom import UnknownPoint

    with pytest.raises(UnknownPoint):
        solve_combination(
            tri_table, Coefficients(1.0, 1.0), Vector("A", "Z"), Vector("A", "B")
        )


def test_zero_vector_plus_reversal_gives_null(tri_table):
    # both chain coincidences hold at once; the first branch wins and the
    # result is the zero vector anchored at the shared point
    built = construct_guaranteed(
        tri_table, Coefficients(1.0, 1.0), Vector("A", "B"), Vector("B", "A")
    )
    assert built == Vector("A", "A")


def test_full_grid_axis_sum(grid22):
    result = solve_combination(
        grid22, Coefficients(1.0, 1.0), Vector("p0_0", "p1_0"), Vector("p0_0", "p0_1")
    )
    assert result.solutions == (Vector("p0_0", "p1_1"),)
    assert result.guaranteed is None
    assert result.method == "searched"
    assert result.defined


def test_deleted_grid_axis_sum_unsolvable(grid22_deleted):
    result = solve_combination(
        grid22_deleted,
        Coefficients(1.0, 1.0),
        Vector("p0_0", "p1_0"),
        Vector("p0_0", "p0_1"),
    )
    assert result.solutions == ()
    assert not result.defined


def test_chained_sum_always_contains_chain_result(tri_table):
    result = solve_combination(
        tri_table, Coefficients(1.0, 1.0), Vector("A", "B"), Vector("B", "C")
    )
    assert Vector("A", "C") in result.solutions
    assert result.guaranteed is GuaranteedCase.CHAIN_SUM


def test_solution_set_closed_under_equivalence():
    rng = np.random.default_rng(32)
    grid = build_grid_space(GridSpec(dim=2, size=3))
    spaces = [grid, make_table(rng, 4, integer=True)]
    for space in spaces:
        points = space.points
        c = Coefficients(1.0, 1.0)
        v, w = Vector(points[0], points[1]), Vector(points[1], points[2])
        solutions = set(solve_combination(space, c, v, w).solutions)
        vectors = [Vector(p, q) for p in points for q in points]
        for s in solutions:
            for s2 in vectors:
                if equivalent(space, s, s2).equivalent:
                    assert s2 in solutions


def test_euclidean_solution_criterion(grid33):
    # On a grid whose displacements span the plane, (S0, S1) solves
    # alpha*v + beta*w exactly when its displacement equals the combined
    # displacement.
    coords = {p: np.array(grid33.coordinates(p)) for p in grid33.points}
    c = Coefficients(2.0, -1.0)
    v = Vector("p0_0", "p1_0")
    w = Vector("p0_1", "p1_2")
    want = 2.0 * (coords[v.end] - coords[v.origin]) - (coords[w.end] - coords[w.origin])
    result = solve_combination(grid33, c, v, w)
    expected = {
        Vector(p, q)
        for p in grid33.points
        for q in grid33.points
        if np.array_equal(coords[q] - coords[p], want)
    }
    assert set(result.solutions) == expected
    assert expected  # (1,-1) is realizable on the 3x3 grid


def test_search_limit_guard(grid33):
    with pytest.raises(SearchLimitExceeded):
        solve_combination(
            grid33,
            Coefficients(1.0, 1.0),
            Vector("p0_0", "p1_0"),
            Vector("p0_0", "p0_1"),
            limit=5,
        )
    result = solve_combination(
        grid33,
        Coefficients(1.0, 1.0),
        Vector("p0_0", "p1_0"),
        Vector("p0_0", "p0_1"),
        limit=None,
    )
    assert Vector("p0_0", "p1_1") in result.solutions


def test_survey_single_point():
    from tgeom import build_finite_table

    space = build_finite_table(["P"], [])
    report = survey_linearity(space, [Coefficients(1.0, 1.0), Coefficients(2.5, -3.0)])
    for row in report.rows:
        assert row.total_pairs == 1
        assert row.solvable == 1
        assert row.unsolvable == 0


def test_survey_full_vs_deleted_grid(grid22, grid22_deleted):
    c = [Coefficients(1.0, 1.0)]
    full = survey_linearity(grid22, c).rows[0]
    deleted = survey_linearity(grid22_deleted, c).rows[0]
    assert full.total_pairs == 256 and deleted.total_pairs == 81
    assert deleted.solvable < full.solvable
    assert deleted.guaranteed > 0
    # guaranteed coverage never exceeds solvability: those pairs are the
    # structure that survives the deletion
    assert deleted.guaranteed <= deleted.solvable
    assert full.guaranteed == 112 and deleted.guaranteed == 45


def test_survey_identity_and_zero_rows(grid22):
    report = survey_linearity(
        grid22, [Coefficients(1.0, 0.0), Coefficients(0.0, 0.0)]
    )
    for row in report.rows:
        assert row.solvable == row.total_pairs
        assert row.guaranteed == row.total_pairs
        assert row.unsolvable == 0


def test_survey_guaranteed_matches_per_pair_classification(grid22_deleted):
    coeffs = [Coefficients(1.0, 1.0), Coefficients(1.0, -1.0), Coefficients(0.5, 0.5)]
    report = survey_linearity(grid22_deleted, coeffs)
    vectors = [
        Vector(p, q) for p in grid22_deleted.points for q in grid22_deleted.points
    ]
    for c, row in zip(coeffs, report.rows):
        manual = sum(
            1
            for v, w in itertools.product(vectors, repeat=2)
            if guaranteed_case(grid22_deleted, c, v, w) is not None
        )
        assert row.guaranteed == manual


@pytest.mark.parametrize("n", [3, 4])
def test_survey_guaranteed_count_closed_form(n):
    space = build_grid_space(GridSpec(dim=1, size=n))
    coeffs = [Coefficients(a, b) for a, b in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
    report = survey_linearity(space, coeffs)
    vectors = [Vector(p, q) for p in space.points for q in space.points]
    for c, row in zip(coeffs, report.rows):
        manual = sum(
            1
            for v, w in itertools.product(vectors, repeat=2)
            if guaranteed_case(space, c, v, w) is not None
        )
        assert row.guaranteed == manual == 2 * n**3 - n**2


def _assert_survey_matches_solver(space, c=Coefficients(1.0, 1.0)):
    """The survey's solvable count is the solver's, pair by pair.

    Returns the most distinct fingerprint rows (survey representatives)
    among the solutions of one pair: where it is two or more, a survey
    target matches several representatives and must still count once.
    """
    row = survey_linearity(space, [c]).rows[0]
    n = len(space)
    position = _fingerprint_index(space)[3]
    vectors = [Vector(p, q) for p in space.points for q in space.points]
    manual = most = 0
    for v, w in itertools.product(vectors, repeat=2):
        solutions = solve_combination(space, c, v, w).solutions
        manual += bool(solutions)
        reps = {
            position[space.index(s.origin) * n + space.index(s.end)]
            for s in solutions
        }
        most = max(most, len(reps))
    assert row.solvable == manual
    return most


def test_survey_solvable_matches_solver(grid22_deleted):
    _assert_survey_matches_solver(grid22_deleted)


@pytest.mark.parametrize(
    "size, deleted", [(3, ()), (4, ((0, 3), (1, 2), (2, 1), (3, 0)))]
)
def test_solver_epsilon_boundary_stress_matches_oracle(size, deleted):
    # The 4x4 grid loses its anti-diagonal to fit the oracle's 12 points.
    # Perturbed at ε scale, some true grid solutions drop out; the solver
    # must drop exactly the ones the oracle drops.
    rng = np.random.default_rng(40 + size)
    coeffs = [Coefficients(a, b) for a, b in ((1, 1), (1, -1), (2, -1), (0.5, 0.5))]
    grid = build_grid_space(GridSpec(dim=2, size=size, deleted=frozenset(deleted)))
    dropped = most = 0
    for scale in (0.125, 0.25, 0.5):
        space = perturbed_grid(rng, size, scale, deleted)
        points = space.points
        for _ in range(40):
            c = coeffs[rng.integers(len(coeffs))]
            p = [points[i] for i in rng.integers(len(points), size=4)]
            v, w = Vector(p[0], p[1]), Vector(p[2], p[3])
            fast = solve_combination(space, c, v, w).solutions
            assert list(fast) == brute_force_solve(space, c, v, w), (scale, c, v, w)
            dropped += len(solve_combination(grid, c, v, w).solutions) - len(fast)
        if size == 3:
            for c in (coeffs[0], coeffs[3]):  # (1, 1) and (0.5, 0.5)
                most = max(most, _assert_survey_matches_solver(space, c))
    assert dropped > 0  # the perturbations straddle ε
    if size == 3:
        # Some survey target matches two or more representatives.
        assert most >= 2


def test_overflowed_coefficients_match_the_oracle_on_the_exact_grid(grid33):
    # Grid responses are exact: a null vector's are exactly zero, so a
    # huge coefficient on it vanishes for the solver and the oracle
    # alike, and any other target is about 1e308 or more from every
    # candidate's responses, or not finite.
    huge = 1e308
    coeffs = [
        Coefficients(a, b)
        for a, b in itertools.chain(
            itertools.product((huge, -huge), repeat=2), ((huge, 0.0), (-huge, 1.0))
        )
    ]
    vectors = [Vector(p, q) for p in grid33.points for q in grid33.points]
    defined = 0
    for c, v, w in itertools.product(coeffs, vectors, vectors):
        fast = solve_combination(grid33, c, v, w).solutions
        assert list(fast) == brute_force_solve(grid33, c, v, w), (c, v, w)
        defined += bool(fast)
    assert defined > 0


def _solve_peak(space, c, v, w):
    """The result of one solve and the peak of its traced allocations."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        result = solve_combination(space, c, v, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_one_solve_peaks_near_its_probe_rows():
    # The 40-point grid of the benchmark's queries workload. σ is
    # symmetric, so the rows of all n² candidates carry one half each,
    # 8·n³ bytes; the target is subtracted from them in place, so a
    # fresh copy, or rows written with both halves, fails here.
    deleted = {(3, 2), (5, 4), (6, 6), (0, 6), (2, 5), (4, 1), (1, 3), (6, 0), (3, 4)}
    grid = build_grid_space(GridSpec(dim=2, size=7, deleted=frozenset(deleted)))
    n = len(grid)
    assert n == 40
    c, v, w = Coefficients(2.0, -1.0), Vector("p0_0", "p1_1"), Vector("p0_1", "p2_0")
    result, peak = _solve_peak(grid, c, v, w)
    assert result.defined
    assert peak <= 1.5 * 8 * n**3


def test_one_asymmetric_solve_peaks_near_its_probe_rows():
    # On an asymmetric 40-point table the rows carry both halves, 16·n³
    # bytes, held to the same bound relative to their size.
    space = make_table(np.random.default_rng(41), 40, symmetric=False)
    n = len(space)
    v = Vector("P3", "P17")
    result, peak = _solve_peak(space, Coefficients(2.0, -1.0), v, v)
    assert v in result.solutions
    assert peak <= 1.5 * 16 * n**3


def test_gauge_shifted_grid_keeps_the_grid_counts():
    # σ'(P, Q) = σ(P, Q) + f(Q) - f(P) with small integers f is not
    # symmetric, so its rows carry both halves; yet each half of every
    # row only moves by a constant, which the shift to column 0 removes,
    # so every count and solution is the grid's. The counts are those
    # the CI survey step pins for the same grid.
    deleted = frozenset({(1, 2)})
    grid = build_grid_space(GridSpec(dim=2, size=4, deleted=deleted))
    f = np.random.default_rng(42).integers(-3, 4, len(grid)).astype(float)
    shifted = SigmaSpace(grid.points, grid.matrix + f[None, :] - f[:, None])
    assert not np.array_equal(shifted.matrix, shifted.matrix.T)
    coeffs = [Coefficients(1.0, 1.0), Coefficients(2.0, -1.0)]
    rows = survey_linearity(shifted, coeffs).rows
    assert [(r.total_pairs, r.solvable, r.guaranteed) for r in rows] == [
        (50625, 38563, 6525),
        (50625, 20851, 0),
    ]
    assert survey_linearity(grid, coeffs) == survey_linearity(shifted, coeffs)
    for c, v, w in (
        (coeffs[0], Vector("p0_0", "p1_0"), Vector("p1_0", "p1_1")),
        (coeffs[1], Vector("p0_0", "p1_1"), Vector("p0_1", "p2_0")),
    ):
        assert solve_combination(shifted, c, v, w) == solve_combination(grid, c, v, w)


def test_all_chained_pairs_solvable(grid22_deleted):
    points = grid22_deleted.points
    for a, b, c in itertools.product(points, repeat=3):
        result = solve_combination(
            grid22_deleted, Coefficients(1.0, 1.0), Vector(a, b), Vector(b, c)
        )
        assert chain_sum(Vector(a, b), Vector(b, c)) in result.solutions


def test_guaranteed_constructions_exact_at_zero_tolerance():
    # Grid values are half-integers, so the chained-sum and negation
    # conditions hold without any slack at all.
    grid = build_grid_space(GridSpec(dim=2, size=2), tolerance=0.0)
    v, w = Vector("p0_0", "p0_1"), Vector("p0_1", "p1_1")
    added = solve_combination(grid, Coefficients(1.0, 1.0), v, w)
    assert chain_sum(v, w) in added.solutions
    negated = solve_combination(grid, Coefficients(-1.0, 0.0), v, v)
    assert negate(v) in negated.solutions
