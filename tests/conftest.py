"""Shared fixtures: small reference spaces and a random-table factory."""

from __future__ import annotations

import numpy as np
import pytest

from tgeom import (
    GridSpec,
    SigmaSpace,
    build_finite_table,
    build_grid_space,
    perturb_table,
)


def make_table(
    rng: np.random.Generator,
    n_points: int,
    symmetric: bool = True,
    integer: bool = False,
    low: float = 0.0,
    high: float = 10.0,
    tolerance: float = 1e-9,
) -> SigmaSpace:
    """Random table-backed space with zero diagonal."""
    labels = [f"P{i}" for i in range(n_points)]

    def draw() -> float:
        if integer:
            return float(rng.integers(int(low), int(high) + 1))
        return float(rng.uniform(low, high))

    entries = []
    for i in range(n_points):
        for j in range(i + 1, n_points):
            entries.append((labels[i], labels[j], draw()))
            if not symmetric:
                entries.append((labels[j], labels[i], draw()))
    return build_finite_table(labels, entries, tolerance=tolerance)


def perturbed_grid(
    rng: np.random.Generator, size: int, scale: float, deleted=frozenset()
) -> SigmaSpace:
    """2-D grid with every off-diagonal σ moved by up to scale·ε.

    A four-term response mixes four σ values, so responses of vectors
    with the same displacement drift apart by up to 8·scale·ε: for
    scales near 1/4 their comparisons straddle the tolerance.
    """
    grid = build_grid_space(GridSpec(dim=2, size=size, deleted=frozenset(deleted)))
    bound = scale * grid.tolerance
    deltas = [
        (p, q, float(rng.uniform(-bound, bound)))
        for p in grid.points
        for q in grid.points
        if p != q
    ]
    return perturb_table(grid, deltas)


@pytest.fixture
def tri_table() -> SigmaSpace:
    """Three points with values 1, 4, 1; the worked example used throughout."""
    return build_finite_table(
        ["A", "B", "C"],
        [("A", "B", 1.0), ("A", "C", 4.0), ("B", "C", 1.0)],
    )


@pytest.fixture
def grid22() -> SigmaSpace:
    return build_grid_space(GridSpec(dim=2, size=2))


@pytest.fixture
def grid22_deleted() -> SigmaSpace:
    return build_grid_space(GridSpec(dim=2, size=2, deleted=frozenset({(1, 1)})))


@pytest.fixture
def grid33() -> SigmaSpace:
    return build_grid_space(GridSpec(dim=2, size=3))
