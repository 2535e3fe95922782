"""Point-pair vectors and their world-function scalar product.

A vector here is an ordered pair of points anchored at its endpoints,
not a free vector. The scalar product of two such pairs is a fixed
four-term combination of world-function values; several identities
(reversal antisymmetry in each argument slot, chain additivity in each
slot, and argument exchange on symmetric spaces) hold for every space
and are checked exhaustively by :func:`verify_identities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SearchLimitExceeded
from .space import PointId, SigmaSpace, is_symmetric


class Vector(NamedTuple):
    """Ordered point pair (origin, end)."""

    origin: PointId
    end: PointId


# Identity names, in the fixed report order.
IDENTITY_SECOND_ARG_REVERSAL = "second-arg-reversal"
IDENTITY_FIRST_ARG_REVERSAL = "first-arg-reversal"
IDENTITY_FIRST_SLOT_CHAIN = "first-slot-chain"
IDENTITY_SECOND_SLOT_CHAIN = "second-slot-chain"
IDENTITY_EXCHANGE = "exchange-symmetry"

ALL_IDENTITIES = (
    IDENTITY_EXCHANGE,
    IDENTITY_FIRST_ARG_REVERSAL,
    IDENTITY_FIRST_SLOT_CHAIN,
    IDENTITY_SECOND_ARG_REVERSAL,
    IDENTITY_SECOND_SLOT_CHAIN,
)

IDENTITY_CHECK_LIMIT = 12


def scalar_product(space: SigmaSpace, v: Vector, w: Vector) -> float:
    """Scalar product of two point pairs.

    Computed as σ(P0,Q1) + σ(P1,Q0) - σ(P0,Q0) - σ(P1,Q1) with the terms
    summed left to right; the order is fixed so that counterexamples and
    the oracle reproduce these values bit for bit.
    """
    v = Vector(*v)
    w = Vector(*w)
    i0, i1 = space.index(v.origin), space.index(v.end)
    j0, j1 = space.index(w.origin), space.index(w.end)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_four_term(space.matrix, i0, i1, j0, j1))


def _four_term(m: np.ndarray, p0, p1, q0, q1):
    """The scalar product of (p0, p1) with (q0, q1) over broadcast indices.

    The one place outside the oracle that fixes the term order.
    """
    return ((m[p0, q1] + m[p1, q0]) - m[p0, q0]) - m[p1, q1]


def norm_squared(space: SigmaSpace, v: Vector) -> float:
    """Scalar product of a vector with itself; 2·σ(P0,P1) when σ is symmetric."""
    return scalar_product(space, v, v)


@dataclass(frozen=True)
class IdentityViolation:
    identity: str
    points: tuple[PointId, ...]
    lhs: float
    rhs: float


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of an exhaustive identity sweep.

    checked counts every tuple examined across all identities;
    violations lists each tuple whose |lhs - rhs| is not within the space
    tolerance (an overflowed inf - inf gap included), sorted by identity
    name then point labels; skipped names identities that were not
    applicable (argument exchange on an asymmetric space).
    """

    checked: int
    violations: tuple[IdentityViolation, ...]
    skipped: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_identities(space: SigmaSpace, max_points: int = IDENTITY_CHECK_LIMIT) -> IdentityReport:
    """Exhaustively check the universal scalar-product identities.

    The two reversal identities and (on symmetric spaces) the exchange
    identity run over all 4-tuples of points; the two chain identities
    run over all 5-tuples. Spaces larger than max_points are refused
    rather than silently sampled, since the whole value of the report is
    that it is exhaustive.

    Violations are data, not errors: they can only arise from extreme
    value magnitudes (cancellation beyond the tolerance) or from probing
    a nearly-but-not-exactly symmetric space.
    """
    n = len(space)
    if n > max_points:
        raise SearchLimitExceeded(
            f"identity sweep over {n} points exceeds the limit of {max_points} "
            f"(the 5-tuple pass grows as the fifth power)"
        )

    m = space.matrix
    eps = space.tolerance
    labels = space.points
    symmetric = is_symmetric(space)
    violations: list[IdentityViolation] = []

    def collect(name: str, lhs: np.ndarray, rhs: np.ndarray) -> None:
        # Chain right-hand sides keep a size-1 axis: index full-shape views.
        lhs, rhs = np.broadcast_arrays(lhs, rhs)
        mask = ~(np.abs(lhs - rhs) <= eps)  # NaN (inf - inf) is a violation
        for idx in map(tuple, np.argwhere(mask)):
            key = tuple(labels[k] for k in idx)
            violations.append(IdentityViolation(name, key, float(lhs[idx]), float(rhs[idx])))

    with np.errstate(over="ignore", invalid="ignore"):
        k = np.arange(n)
        s = _four_term(m, *np.ix_(k, k, k, k))  # s[p0,p1,q0,q1]
        r = s.transpose(2, 3, 0, 1)  # r[p0,p1,q0,q1] = s[q0,q1,p0,p1]
        # Reversing the second argument negates the product.
        collect(IDENTITY_SECOND_ARG_REVERSAL, s, -s.transpose(0, 1, 3, 2))
        # Reversing the first argument negates the product.
        collect(IDENTITY_FIRST_ARG_REVERSAL, s.transpose(1, 0, 2, 3), -s)
        # Chained vectors add in the first slot: (P0P1.Q) + (P1P2.Q) = (P0P2.Q).
        collect(
            IDENTITY_FIRST_SLOT_CHAIN,
            s[:, :, None, :, :] + s[None, :, :, :, :],
            s[:, None, :, :, :],
        )
        # ... and in the second slot: (Q.P0P1) + (Q.P1P2) = (Q.P0P2).
        collect(
            IDENTITY_SECOND_SLOT_CHAIN,
            r[:, :, None, :, :] + r[None, :, :, :, :],
            r[:, None, :, :, :],
        )
        if symmetric:
            # Exchanging the two arguments preserves the product.
            collect(IDENTITY_EXCHANGE, s, r)

    checked = 2 * n**4 + 2 * n**5 + (n**4 if symmetric else 0)
    skipped = () if symmetric else (IDENTITY_EXCHANGE,)

    violations.sort(key=lambda violation: (violation.identity, violation.points))
    return IdentityReport(checked=checked, violations=tuple(violations), skipped=skipped)
