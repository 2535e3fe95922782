"""Scalar product values and the exhaustive identity sweep."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tgeom import (
    GridSpec,
    SearchLimitExceeded,
    UnknownPoint,
    Vector,
    build_finite_table,
    build_grid_space,
    norm_squared,
    scalar_product,
    verify_identities,
)
from tgeom.vectors import (
    IDENTITY_EXCHANGE,
    IDENTITY_FIRST_ARG_REVERSAL,
    IDENTITY_FIRST_SLOT_CHAIN,
    IDENTITY_SECOND_ARG_REVERSAL,
    IDENTITY_SECOND_SLOT_CHAIN,
)

from conftest import make_table


def test_null_vector_products_vanish(tri_table):
    for probe in [Vector("A", "B"), Vector("B", "C"), Vector("C", "C")]:
        assert scalar_product(tri_table, Vector("A", "A"), probe) == 0.0


def test_worked_example(tri_table):
    # σ(A,C) + σ(B,A) - σ(A,A) - σ(B,C) = 4 + 1 - 0 - 1
    assert scalar_product(tri_table, Vector("A", "B"), Vector("A", "C")) == 4.0


def test_grid_product_is_displacement_dot(grid33):
    value = scalar_product(grid33, Vector("p0_0", "p1_0"), Vector("p0_1", "p2_2"))
    assert value == 2.0  # (1,0) . (2,1)


def test_unknown_point_rejected(tri_table):
    with pytest.raises(UnknownPoint):
        scalar_product(tri_table, Vector("A", "Z"), Vector("A", "B"))


def test_norm_squared(tri_table):
    assert norm_squared(tri_table, Vector("A", "A")) == 0.0
    assert norm_squared(tri_table, Vector("A", "B")) == 2.0  # 2 σ(A,B)
    grid = build_grid_space(GridSpec(dim=2, size=5))
    assert norm_squared(grid, Vector("p0_0", "p3_4")) == 25.0


@given(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3),
)
def test_reversal_identities_exact_on_integer_tables(values):
    ab, ac, bc = (float(v) for v in values)
    space = build_finite_table(
        ["A", "B", "C"], [("A", "B", ab), ("A", "C", ac), ("B", "C", bc)]
    )
    points = space.points
    for p0 in points:
        for p1 in points:
            for q0 in points:
                for q1 in points:
                    v, w = Vector(p0, p1), Vector(q0, q1)
                    base = scalar_product(space, v, w)
                    assert scalar_product(space, v, Vector(q1, q0)) == -base
                    assert scalar_product(space, Vector(p1, p0), w) == -base


def test_chain_additivity_exact_on_integer_table():
    rng = np.random.default_rng(11)
    space = make_table(rng, 4, integer=True)
    points = space.points
    probe = Vector(points[0], points[3])
    for p0 in points:
        for p1 in points:
            for p2 in points:
                left = scalar_product(space, Vector(p0, p1), probe) + scalar_product(
                    space, Vector(p1, p2), probe
                )
                assert left == scalar_product(space, Vector(p0, p2), probe)


def test_identity_sweep_clean_on_symmetric_random_spaces():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        report = verify_identities(make_table(rng, n))
        assert report.ok
        assert report.skipped == ()
        assert report.checked == 2 * n**4 + 2 * n**5 + n**4


def test_identity_sweep_skips_exchange_on_asymmetric_space():
    rng = np.random.default_rng(4)
    space = make_table(rng, 4, symmetric=False)
    report = verify_identities(space)
    assert report.ok
    assert report.skipped == (IDENTITY_EXCHANGE,)
    assert report.checked == 2 * 4**4 + 2 * 4**5


def test_identity_sweep_single_point():
    space = build_finite_table(["A"], [])
    report = verify_identities(space)
    assert report.ok
    assert not report.skipped


def test_identity_sweep_refuses_large_spaces():
    space = build_grid_space(GridSpec(dim=2, size=4))  # 16 points
    with pytest.raises(SearchLimitExceeded):
        verify_identities(space)
    # explicit limit raise lets it run
    assert verify_identities(space, limit=16).ok


def test_exchange_violation_on_sub_tolerance_asymmetry():
    # Each entry is symmetric within tolerance, but the asymmetric parts
    # stack across the four terms and push the exchange residual to 2.7e-9.
    d = 0.9e-9
    space = build_finite_table(
        ["A", "B", "C"],
        [
            ("A", "B", 1.0), ("B", "A", 1.0 - d),
            ("A", "C", 1.0), ("C", "A", 1.0 + d),
            ("B", "C", 1.0), ("C", "B", 1.0 - d),
        ],
    )
    report = verify_identities(space)
    assert not report.ok
    assert {v.identity for v in report.violations} == {IDENTITY_EXCHANGE}
    assert any(v.points == ("A", "B", "A", "C") for v in report.violations)
    # reversal and chain identities are untouched by asymmetry
    assert all(
        v.identity not in (IDENTITY_FIRST_ARG_REVERSAL, IDENTITY_SECOND_ARG_REVERSAL)
        for v in report.violations
    )


def test_violations_are_sorted():
    d = 0.9e-9
    space = build_finite_table(
        ["A", "B", "C"],
        [
            ("A", "B", 1.0), ("B", "A", 1.0 - d),
            ("A", "C", 1.0), ("C", "A", 1.0 + d),
            ("B", "C", 1.0), ("C", "B", 1.0 - d),
        ],
    )
    violations = verify_identities(space).violations
    keys = [(v.identity, v.points) for v in violations]
    assert keys == sorted(keys)


def test_identity_sweep_at_the_bound_is_exact():
    # |σ| = 2**1018 lies within the bound, and every four-term sum and
    # identity gap is a small multiple of it, so exact: no violation even
    # at tolerance 0, and no numpy warning (pytest makes one an error).
    big = 2.0**1018
    entries = [("A", "B", big), ("A", "C", -big), ("B", "C", big)]
    for tolerance in (1e-9, 0.0):
        space = build_finite_table(["A", "B", "C"], entries, tolerance)
        report = verify_identities(space)
        assert report.checked == 729 and report.ok
    assert scalar_product(space, Vector("A", "B"), Vector("B", "C")) == -3 * big


def test_chain_violations_at_every_middle_point():
    # At tolerance 0 the roundings of decimal values break the chain
    # identities; violations at every middle point are reported with the
    # values of the full-shape right-hand side.
    space = build_finite_table(
        ["A", "B", "C"], [("A", "B", 0.1), ("A", "C", 0.2), ("B", "C", 0.7)], 0.0
    )
    report = verify_identities(space)
    chains = [
        v
        for v in report.violations
        if v.identity in (IDENTITY_FIRST_SLOT_CHAIN, IDENTITY_SECOND_SLOT_CHAIN)
    ]
    assert {v.points[1] for v in chains} == {"A", "B", "C"}
    for v in chains:
        p0, _, p2, q0, q1 = v.points
        pair = (Vector(p0, p2), Vector(q0, q1))
        if v.identity == IDENTITY_SECOND_SLOT_CHAIN:
            pair = pair[::-1]
        assert repr(v.rhs) == repr(scalar_product(space, *pair))
