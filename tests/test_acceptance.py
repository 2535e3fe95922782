"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print. Every criterion carries its tolerance and a wall-clock
bound; the bound is asserted too, since exhaustive checks that stop
being cheap stop being run.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest

from tgeom import (
    Coefficients,
    GridSpec,
    OracleLimitExceeded,
    Vector,
    build_coordinate_space,
    build_finite_table,
    build_grid_space,
    chain_sum,
    equivalence_classes,
    equivalent,
    euclidean_sigma,
    guaranteed_case,
    load_space,
    negate,
    save_space,
    scalar_product,
    solve_combination,
    survey_linearity,
    verify_identities,
)
from tgeom.cli import main as cli_main
from tgeom.oracle import brute_force_solve, euclid_dot_oracle
from tgeom.vectors import IDENTITY_EXCHANGE

from conftest import make_table


@contextmanager
def criterion(num: int, name: str, bound_seconds: float):
    start = perf_counter()
    try:
        yield
    except BaseException:
        elapsed = perf_counter() - start
        print(f"criterion {num:2d} ({name}): FAIL after {elapsed:.2f}s")
        raise
    elapsed = perf_counter() - start
    print(
        f"criterion {num:2d} ({name}): PASS in {elapsed:.2f}s "
        f"(bound {bound_seconds:g}s)"
    )
    assert elapsed < bound_seconds, f"criterion {num} exceeded {bound_seconds}s"


def test_criterion_01_identity_suite_symmetric():
    rng = np.random.default_rng(101)
    with criterion(1, "identity suite, symmetric tables", 10.0):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            space = make_table(rng, n, symmetric=True, tolerance=1e-9)
            report = verify_identities(space)
            assert report.ok
            assert report.skipped == ()


def test_criterion_02_identity_suite_asymmetric():
    rng = np.random.default_rng(102)
    with criterion(2, "identity suite, asymmetric tables", 5.0):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            space = make_table(rng, n, symmetric=False, tolerance=1e-9)
            report = verify_identities(space)
            assert report.ok
            assert report.skipped == (IDENTITY_EXCHANGE,)


def test_criterion_03_euclidean_reduction():
    rng = np.random.default_rng(103)
    with criterion(3, "Euclidean dot-product reduction", 2.0):
        for _ in range(1000):
            coords = {
                label: tuple(rng.uniform(-10.0, 10.0, size=3))
                for label in ("P0", "P1", "Q0", "Q1")
            }
            space = build_coordinate_space(coords)
            got = scalar_product(space, Vector("P0", "P1"), Vector("Q0", "Q1"))
            want = euclid_dot_oracle(
                coords["P0"], coords["P1"], coords["Q0"], coords["Q1"]
            )
            assert abs(got - want) <= 1e-9
        for _ in range(1000):
            coords = {
                label: tuple(float(c) for c in rng.integers(-10, 11, size=3))
                for label in ("P0", "P1", "Q0", "Q1")
            }
            space = build_coordinate_space(coords)
            got = scalar_product(space, Vector("P0", "P1"), Vector("Q0", "Q1"))
            want = euclid_dot_oracle(
                coords["P0"], coords["P1"], coords["Q0"], coords["Q1"]
            )
            assert got == want  # exact on integer coordinates


FIXTURE_TABLES = [
    build_finite_table(["A"], []),
    build_finite_table(["A", "B"], [("A", "B", 1.0)]),
    build_finite_table(["A", "B"], [("A", "B", 0.0)]),
    build_finite_table(
        ["A", "B", "C"], [("A", "B", 1.0), ("A", "C", 4.0), ("B", "C", 1.0)]
    ),
    build_finite_table(
        ["A", "B", "C"], [("A", "B", 0.0), ("A", "C", 0.0), ("B", "C", 0.0)]
    ),
    build_finite_table(
        ["A", "B", "C"], [("A", "B", 1.0), ("A", "C", -2.0), ("B", "C", 3.0)]
    ),
    build_finite_table(
        ["A", "B", "C", "D"],
        [("A", "B", 2.0), ("A", "C", 2.0), ("A", "D", 2.0),
         ("B", "C", 2.0), ("B", "D", 2.0), ("C", "D", 2.0)],
    ),
    build_finite_table(
        ["A", "B", "C", "D"],
        [("A", "B", 1.0), ("A", "C", 4.0), ("A", "D", 9.0),
         ("B", "C", 1.0), ("B", "D", 4.0), ("C", "D", 1.0)],
    ),
]


def _relation_is_equivalence(space) -> None:
    vectors = [Vector(p, q) for p in space.points for q in space.points]
    related = {}
    for v in vectors:
        for w in vectors:
            related[(v, w)] = equivalent(space, v, w).equivalent
    for u in vectors:
        assert related[(u, u)]
        for v in vectors:
            assert related[(u, v)] == related[(v, u)]
    for u, v, w in itertools.product(vectors, repeat=3):
        if related[(u, v)] and related[(v, w)]:
            assert related[(u, w)]


def test_criterion_04_equivalence_relation_laws():
    rng = np.random.default_rng(104)
    with criterion(4, "equivalence relation laws on exact tables", 30.0):
        for space in FIXTURE_TABLES:
            _relation_is_equivalence(space)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            space = make_table(rng, n, integer=True, low=0, high=6)
            _relation_is_equivalence(space)


def test_criterion_05_grid_displacement_classes():
    with criterion(5, "3x3 grid partitions by displacement", 10.0):
        grid = build_grid_space(GridSpec(dim=2, size=3))
        partition = equivalence_classes(grid)
        assert len(partition) == 25  # displacements in {-2..2}^2
        assert partition.coherent
        for cls in partition.classes:
            displacements = {
                tuple(
                    e - o
                    for o, e in zip(grid.coordinates(v.origin), grid.coordinates(v.end))
                )
                for v in cls
            }
            assert len(displacements) == 1


def test_criterion_06_deletion_experiment(tmp_path):
    with criterion(6, "point deletion breaks linearity, not completely", 1.0):
        full = build_grid_space(GridSpec(dim=2, size=2))
        deleted = build_grid_space(GridSpec(dim=2, size=2, deleted=frozenset({(1, 1)})))
        c = Coefficients(1.0, 1.0)
        v, w = Vector("p0_0", "p1_0"), Vector("p0_0", "p0_1")
        assert solve_combination(full, c, v, w).solutions == (Vector("p0_0", "p1_1"),)
        assert solve_combination(deleted, c, v, w).solutions == ()

        full_file = str(tmp_path / "full.sigma")
        deleted_file = str(tmp_path / "deleted.sigma")
        save_space(full, full_file)
        save_space(deleted, deleted_file)
        full_csv = str(tmp_path / "full.csv")
        deleted_csv = str(tmp_path / "deleted.csv")
        assert cli_main(["survey", full_file, "--coeffs", "1,1", "--out", full_csv]) == 0
        assert cli_main(["survey", deleted_file, "--coeffs", "1,1", "--out", deleted_csv]) == 0
        full_row = open(full_csv, encoding="utf-8").read().splitlines()[1].split(",")
        deleted_row = open(deleted_csv, encoding="utf-8").read().splitlines()[1].split(",")
        assert int(deleted_row[3]) < int(full_row[3])  # solvable strictly lower
        assert int(deleted_row[4]) > 0  # minimal structure survives

        # The guaranteed classification ignores the world function, so over
        # the pairs both spaces share it is untouched by the deletion.
        survivors = [Vector(p, q) for p in deleted.points for q in deleted.points]
        for pair_v, pair_w in itertools.product(survivors, repeat=2):
            assert guaranteed_case(deleted, c, pair_v, pair_w) == guaranteed_case(
                full, c, pair_v, pair_w
            )
        guaranteed_in_deleted = sum(
            1
            for pair_v, pair_w in itertools.product(survivors, repeat=2)
            if guaranteed_case(deleted, c, pair_v, pair_w) is not None
        )
        assert guaranteed_in_deleted == int(deleted_row[4])


def test_criterion_07_minimal_structure_survives_deletion():
    rng = np.random.default_rng(107)
    cells = list(itertools.product(range(3), repeat=2))
    with criterion(7, "negation and chained sums survive every deletion", 60.0):
        for _ in range(100):
            k = int(rng.integers(1, 5))
            victims = rng.choice(len(cells), size=k, replace=False)
            deleted = frozenset(cells[i] for i in victims)
            space = build_grid_space(GridSpec(dim=2, size=3, deleted=deleted))
            points = space.points
            add = Coefficients(1.0, 1.0)
            neg = Coefficients(-1.0, 0.0)
            for a, b, c in itertools.product(points, repeat=3):
                v, w = Vector(a, b), Vector(b, c)
                assert chain_sum(v, w) in brute_force_solve(space, add, v, w)
            for a, b in itertools.product(points, repeat=2):
                v = Vector(a, b)
                assert negate(v) in brute_force_solve(space, neg, v, v)


def test_criterion_08_solver_matches_oracle():
    rng = np.random.default_rng(108)
    coeff_pairs = [
        Coefficients(1.0, 1.0),
        Coefficients(1.0, -1.0),
        Coefficients(0.0, 0.0),
        Coefficients(2.0, -1.0),
        Coefficients(0.5, 1.5),
    ]
    with criterion(8, "exhaustive solver agrees with naive oracle", 60.0):
        for trial in range(100):
            n = int(rng.integers(2, 6))
            space = make_table(
                rng, n, symmetric=bool(trial % 2), integer=bool(trial % 3 == 0)
            )
            points = space.points
            for c in coeff_pairs:
                v = Vector(points[rng.integers(n)], points[rng.integers(n)])
                w = Vector(points[rng.integers(n)], points[rng.integers(n)])
                chained = Vector(v.end, points[rng.integers(n)])
                for pair in ((v, w), (v, chained)):
                    fast = solve_combination(space, c, *pair)
                    slow = brute_force_solve(space, c, *pair)
                    assert list(fast.solutions) == slow


def test_criterion_09_file_round_trips(tmp_path):
    rng = np.random.default_rng(109)
    with criterion(9, "table files round-trip exactly", 5.0):
        specs = []
        for size in range(2, 10):
            specs.append(GridSpec(dim=1, size=size))
        while len(specs) < 50:
            size = int(rng.integers(2, 5))
            all_cells = list(itertools.product(range(size), repeat=2))
            k = int(rng.integers(0, min(3, len(all_cells) - 1) + 1))
            victims = rng.choice(len(all_cells), size=k, replace=False)
            specs.append(
                GridSpec(
                    dim=2, size=size, deleted=frozenset(all_cells[i] for i in victims)
                )
            )
        for i, spec in enumerate(specs):
            space = build_grid_space(spec)
            path = tmp_path / f"grid{i}.sigma"
            save_space(space, path)
            again = load_space(path)
            assert again.points == space.points
            assert np.array_equal(again.matrix, space.matrix)

        for i in range(50):
            space = make_table(rng, int(rng.integers(2, 7)), symmetric=bool(i % 2))
            path = tmp_path / f"table{i}.sigma"
            save_space(space, path)
            again = load_space(path)
            assert again.points == space.points
            assert np.array_equal(again.matrix, space.matrix)


def test_criterion_10_performance_guard():
    with criterion(10, "pruned solve on the 6x6 grid", 5.0):
        grid = build_grid_space(GridSpec(dim=2, size=6))  # 36 points
        result = solve_combination(
            grid, Coefficients(1.0, 1.0), Vector("p0_0", "p1_0"), Vector("p0_0", "p0_1")
        )
        assert len(result.solutions) == 25  # all pairs displaced by (1,1)
        for s in result.solutions:
            origin = grid.coordinates(s.origin)
            end = grid.coordinates(s.end)
            assert tuple(e - o for o, e in zip(origin, end)) == (1.0, 1.0)
        # the naive oracle refuses this size by design
        with pytest.raises(OracleLimitExceeded):
            brute_force_solve(
                grid, Coefficients(1.0, 1.0), Vector("p0_0", "p1_0"), Vector("p0_0", "p0_1")
            )


def test_criterion_11_survey_performance_guard():
    with criterion(11, "survey of the 6x6 grid", 10.0):
        size = 6
        grid = build_grid_space(GridSpec(dim=2, size=size))  # 1296 vectors
        (row,) = survey_linearity(grid, [Coefficients(1.0, 1.0)]).rows
        # A pair is solvable exactly when the sum of its displacements is
        # itself a displacement on the grid; count pairs per displacement.
        steps = range(-(size - 1), size)
        count = {
            (dx, dy): (size - abs(dx)) * (size - abs(dy))
            for dx in steps
            for dy in steps
        }
        expected = sum(
            count[a] * count[b]
            for a, b in itertools.product(count, repeat=2)
            if (a[0] + b[0], a[1] + b[1]) in count
        )
        assert expected == 1336336
        assert row.total_pairs == (size * size) ** 4
        assert row.solvable == expected


def test_criterion_12_construction_guard():
    rng = np.random.default_rng(112)
    with criterion(12, "build the 40x40 grid", 1.0):
        grid = build_grid_space(GridSpec(dim=2, size=40))  # 1600 points
        m = grid.matrix
        assert m.shape == (1600, 1600)
        assert np.array_equal(m, m.T)  # exactly symmetric
        for i, j in rng.integers(0, 1600, size=(1000, 2)):
            x = grid.coordinates(grid.points[i])
            y = grid.coordinates(grid.points[j])
            assert m[i, j].tobytes() == np.float64(euclidean_sigma(x, y)).tobytes()
