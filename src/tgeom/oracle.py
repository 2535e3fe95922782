"""Naive reference implementations for differential testing.

Everything here recomputes results with plain nested loops, sharing
nothing with the main modules beyond reading the σ table, so a bug in
the fast paths cannot hide in a cross-check. Single-threaded and bounded
to tiny instances on purpose. A comparison holds only when the gap is
at most ε, so a NaN gap (inf - inf after overflow) is a disagreement.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DimensionMismatch, OracleLimitExceeded
from .space import SigmaSpace
from .vectors import Vector
from .linear import Coefficients

ORACLE_LIMIT = 12


def euclid_dot_oracle(
    p0: Sequence[float],
    p1: Sequence[float],
    q0: Sequence[float],
    q1: Sequence[float],
) -> float:
    """Dot product of the displacements p1-p0 and q1-q0, straight from coordinates."""
    if not (len(p0) == len(p1) == len(q0) == len(q1)):
        raise DimensionMismatch("all four coordinate vectors must share one dimension")
    return float(sum((a1 - a0) * (b1 - b0) for a0, a1, b0, b1 in zip(p0, p1, q0, q1)))


def brute_force_equivalent(space: SigmaSpace, v: Vector, w: Vector) -> bool:
    """Equivalence by a double loop over all probes, both argument slots."""
    v, w = Vector(*v), Vector(*w)
    i0, i1 = space.index(v.origin), space.index(v.end)
    k0, k1 = space.index(w.origin), space.index(w.end)
    m = space.matrix.tolist()
    eps = space.tolerance
    n = len(space)
    for q0 in range(n):
        for q1 in range(n):
            lhs = ((m[i0][q1] + m[i1][q0]) - m[i0][q0]) - m[i1][q1]
            rhs = ((m[k0][q1] + m[k1][q0]) - m[k0][q0]) - m[k1][q1]
            if not (abs(lhs - rhs) <= eps):
                return False
            lhs = ((m[q0][i1] + m[q1][i0]) - m[q0][i0]) - m[q1][i1]
            rhs = ((m[q0][k1] + m[q1][k0]) - m[q0][k0]) - m[q1][k1]
            if not (abs(lhs - rhs) <= eps):
                return False
    return True


def brute_force_solve(
    space: SigmaSpace, c: Coefficients, v: Vector, w: Vector
) -> list[Vector]:
    """All solutions of a combination by quadruple loop, no pruning.

    Accepts a candidate pair exactly when both probe conditions hold
    within tolerance on every probe; candidates failing a probe are
    abandoned at the first violation, which changes nothing about the
    accepted set.
    """
    n = len(space)
    if n > ORACLE_LIMIT:
        raise OracleLimitExceeded(
            f"{n} points exceeds the oracle limit of {ORACLE_LIMIT}"
        )
    v, w = Vector(*v), Vector(*w)
    i0, i1 = space.index(v.origin), space.index(v.end)
    k0, k1 = space.index(w.origin), space.index(w.end)
    m = space.matrix.tolist()
    eps = space.tolerance
    a, b = c.alpha, c.beta

    rhs_first = [
        [
            a * (((m[i0][q1] + m[i1][q0]) - m[i0][q0]) - m[i1][q1])
            + b * (((m[k0][q1] + m[k1][q0]) - m[k0][q0]) - m[k1][q1])
            for q1 in range(n)
        ]
        for q0 in range(n)
    ]
    rhs_second = [
        [
            a * (((m[q0][i1] + m[q1][i0]) - m[q0][i0]) - m[q1][i1])
            + b * (((m[q0][k1] + m[q1][k0]) - m[q0][k0]) - m[q1][k1])
            for q1 in range(n)
        ]
        for q0 in range(n)
    ]

    solutions = []
    points = space.points
    for s0 in range(n):
        for s1 in range(n):
            ok = True
            for q0 in range(n):
                row_first = rhs_first[q0]
                row_second = rhs_second[q0]
                for q1 in range(n):
                    lhs = ((m[s0][q1] + m[s1][q0]) - m[s0][q0]) - m[s1][q1]
                    if not (abs(lhs - row_first[q1]) <= eps):
                        ok = False
                        break
                    lhs = ((m[q0][s1] + m[q1][s0]) - m[q0][s0]) - m[q1][s1]
                    if not (abs(lhs - row_second[q1]) <= eps):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                solutions.append(Vector(points[s0], points[s1]))
    solutions.sort()
    return solutions
