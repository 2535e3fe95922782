"""Restricted linear operations on anchored vectors.

Negation and chained sums exist in every σ-space; together with the
trivial zero and single-vector cases they form the minimal linear
structure that survives any deformation. A general combination
α·v + β·w exists only when some point pair reproduces the combined
probe responses of v and w, which :func:`solve_combination` decides by
exhaustive search. :func:`survey_linearity` counts, per coefficient
pair, how much of that structure a given space retains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ChainMismatch, NotGuaranteed, SearchLimitExceeded
from .equivalence import (
    _key_order,
    _probe_rows,
    _rows_agree,
    _unique_rows,
    _window_matches,
    _within,
)
from .space import SigmaSpace
from .vectors import Vector

SEARCH_LIMIT = 40


@dataclass(frozen=True)
class Coefficients:
    """Real coefficient pair (alpha, beta) of a linear combination."""

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("coefficients must be finite reals")


class GuaranteedCase(Enum):
    """The combinations that are defined in every space.

    Classification depends only on the coefficients and on endpoint
    coincidences, never on the world function, so it is invariant under
    any deformation of the space.
    """

    ZERO = "zero"
    SINGLE_VECTOR = "single-vector"
    CHAIN_SUM = "chain-sum"
    COMMON_ENDPOINT_DIFFERENCE = "common-endpoint-difference"


def negate(v: Vector) -> Vector:
    """Reversal of a vector; its probe responses are exactly negated."""
    v = Vector(*v)
    return Vector(v.end, v.origin)


def chain_sum(v: Vector, w: Vector) -> Vector:
    """Sum of two chained vectors (end of the first = origin of the second)."""
    v, w = Vector(*v), Vector(*w)
    if v.end != w.origin:
        raise ChainMismatch(
            f"cannot add {v} and {w}: vectors are anchored, so the end of one "
            f"must be the origin of the other"
        )
    return Vector(v.origin, w.end)


def _coefficient_pattern(a: float, b: float) -> GuaranteedCase | None:
    """Case the coefficients alone could support; endpoints decide the rest."""
    if a == 0.0 and b == 0.0:
        return GuaranteedCase.ZERO
    if (a == 0.0 and b in (1.0, -1.0)) or (b == 0.0 and a in (1.0, -1.0)):
        return GuaranteedCase.SINGLE_VECTOR
    if a == b and a in (1.0, -1.0):
        return GuaranteedCase.CHAIN_SUM
    if a == -b and a in (1.0, -1.0):
        return GuaranteedCase.COMMON_ENDPOINT_DIFFERENCE
    return None


def guaranteed_case(
    space: SigmaSpace, c: Coefficients, v: Vector, w: Vector
) -> GuaranteedCase | None:
    """Classify a combination request against the always-defined cases.

    Coefficient matching is exact (bit equality with 0 and ±1): case
    membership is a structural claim, so numeric slack belongs only in
    world-function comparisons. Anything else returns None and is left
    to the exhaustive solver.
    """
    v, w = Vector(*v), Vector(*w)
    for label in (v.origin, v.end, w.origin, w.end):
        space.index(label)
    pattern = _coefficient_pattern(c.alpha, c.beta)
    if pattern in (GuaranteedCase.ZERO, GuaranteedCase.SINGLE_VECTOR):
        return pattern
    if pattern is GuaranteedCase.CHAIN_SUM and (
        v.end == w.origin or w.end == v.origin
    ):
        return pattern
    if pattern is GuaranteedCase.COMMON_ENDPOINT_DIFFERENCE and (
        v.end == w.end or v.origin == w.origin
    ):
        return pattern
    return None


def construct_guaranteed(
    space: SigmaSpace, c: Coefficients, v: Vector, w: Vector
) -> Vector:
    """Representative of a guaranteed combination, built without search.

    When both endpoint coincidences of a case hold simultaneously the
    first one in the documented order wins (end-of-v = origin-of-w for
    chains, end = end for differences).
    """
    v, w = Vector(*v), Vector(*w)
    case = guaranteed_case(space, c, v, w)
    if case is None:
        raise NotGuaranteed(
            f"alpha={c.alpha!r}, beta={c.beta!r} with endpoints {v}, {w} "
            f"matches no always-defined case"
        )
    if case is GuaranteedCase.ZERO:
        return Vector(v.origin, v.origin)
    if case is GuaranteedCase.SINGLE_VECTOR:
        base, sign = (v, c.alpha) if c.beta == 0.0 else (w, c.beta)
        return base if sign == 1.0 else negate(base)
    if case is GuaranteedCase.CHAIN_SUM:
        if v.end == w.origin:
            out = Vector(v.origin, w.end)
        else:
            out = Vector(w.origin, v.end)
        return out if c.alpha == 1.0 else negate(out)
    # Common-endpoint difference: v - w up to overall sign.
    if v.end == w.end:
        out = Vector(v.origin, w.origin)
    else:
        out = Vector(w.end, v.end)
    return out if c.alpha == 1.0 else negate(out)


@dataclass(frozen=True)
class CombinationResult:
    """All solutions of one combination request.

    solutions lists every point pair whose probe responses match
    α·v + β·w in both argument slots within tolerance, sorted
    lexicographically; an empty list means the combination is not
    defined in this space. guaranteed carries the matching
    always-defined case, if any, and method records whether a
    constructive representative existed ("constructed") or the result
    rests on search alone ("searched").
    """

    solutions: tuple[Vector, ...]
    guaranteed: GuaranteedCase | None
    method: str

    @property
    def defined(self) -> bool:
        return bool(self.solutions)


def _check_limit(space: SigmaSpace, limit: int, force: bool) -> None:
    n = len(space)
    if not force and n > limit:
        raise SearchLimitExceeded(
            f"{n} points exceeds the search limit of {limit}; "
            f"pass force=True to run anyway"
        )


def solve_combination(
    space: SigmaSpace,
    c: Coefficients,
    v: Vector,
    w: Vector,
    *,
    limit: int = SEARCH_LIMIT,
    force: bool = False,
) -> CombinationResult:
    """Exhaustively solve α·v + β·w over all candidate point pairs.

    A candidate (S0, S1) is a solution when its fingerprint row matches
    the target α·(row of v) + β·(row of w) under the range rule, which
    is the probe-response match in both argument slots. Candidates are
    first pruned on the first-slot half of the row, then survivors are
    checked on both halves.
    """
    _check_limit(space, limit, force)
    v, w = Vector(*v), Vector(*w)
    n = len(space)
    m = space.matrix
    eps = space.tolerance
    origins = [space.index(v.origin), space.index(w.origin)]
    ends = [space.index(v.end), space.index(w.end)]
    with np.errstate(over="ignore", invalid="ignore"):
        row_v, row_w = _probe_rows(space, origins, ends)
        target = c.alpha * row_v + c.beta * row_w
        # Row s0·n + s1 is the first half of that candidate's fingerprint
        # row, the same floats as _probe_rows, so the prune drops nothing
        # the full check or the survey would accept. In place, because
        # fresh n³ temporaries cost page faults.
        first = (m[:, None, :] - m[None, :, :]).reshape(-1, n)
        first -= first[:, :1].copy()
        first -= target[:n]
        keep = np.flatnonzero(_within(np.ptp(first, axis=1), eps))
        s0, s1 = np.divmod(keep, n)
        keep = keep[_rows_agree((_probe_rows(space, s0, s1) - target).T, eps)]

    points = space.points
    solutions = sorted(Vector(points[k // n], points[k % n]) for k in keep.tolist())
    case = guaranteed_case(space, c, v, w)
    return CombinationResult(
        solutions=tuple(solutions),
        guaranteed=case,
        method="constructed" if case is not None else "searched",
    )


@dataclass(frozen=True)
class SurveyRow:
    alpha: float
    beta: float
    total_pairs: int
    solvable: int
    guaranteed: int
    unsolvable: int


@dataclass(frozen=True)
class SurveyReport:
    """Per-coefficient solvability counts over all ordered vector pairs."""

    rows: tuple[SurveyRow, ...]

    CSV_HEADER = "alpha,beta,total_pairs,solvable,guaranteed,unsolvable"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(
                f"{row.alpha!r},{row.beta!r},{row.total_pairs},"
                f"{row.solvable},{row.guaranteed},{row.unsolvable}"
            )
        return "\n".join(lines) + "\n"


def survey_linearity(
    space: SigmaSpace,
    coeff_list: list[Coefficients],
    *,
    limit: int = SEARCH_LIMIT,
    force: bool = False,
) -> SurveyReport:
    """Count solvable / guaranteed / unsolvable vector pairs per coefficients.

    For every coefficient pair, all n⁴ ordered pairs of vectors (v, w)
    are classified: a pair is solvable when at least one candidate
    solves the combination, and guaranteed when an always-defined case
    applies. Vectors with identical fingerprint rows are collapsed, which
    leaves per-pair semantics intact, and the targets of all pairs of
    representatives are looked up at once in a window on one sorted
    column. A row that overflowed matches nothing.
    """
    _check_limit(space, limit, force)
    n = len(space)
    eps = space.tolerance
    count = n * n
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _probe_rows(space)
        rows = rows[np.isfinite(rows).all(axis=1)]
        reps, _, sizes = _unique_rows(rows)
        order, keys = _key_order(reps)
        # Representative k is column k: window checks reduce down columns.
        reps, sizes = np.ascontiguousarray(reps[order].T), sizes[order]
    u = len(sizes)
    weight = np.outer(sizes, sizes).ravel()

    out: list[SurveyRow] = []
    for c in coeff_list:
        a, b = c.alpha, c.beta
        with np.errstate(over="ignore", invalid="ignore"):
            # Target t combines representatives t // u and t % u.
            queries = np.add.outer(a * keys, b * keys).ravel()
            scaled_a, scaled_b = a * reps, b * reps
            found, _ = _window_matches(
                reps,
                keys,
                queries,
                lambda t: scaled_a.take(t // u, axis=1) + scaled_b.take(t % u, axis=1),
                eps,
            )
        solvable = int(weight[np.unique(found)].sum())

        pattern = _coefficient_pattern(a, b)
        if pattern in (GuaranteedCase.ZERO, GuaranteedCase.SINGLE_VECTOR):
            guaranteed = count * count
        elif pattern in (
            GuaranteedCase.CHAIN_SUM,
            GuaranteedCase.COMMON_ENDPOINT_DIFFERENCE,
        ):
            # Either endpoint condition fixes one of four endpoints: n³
            # pairs each, and the n² pairs meeting both are counted once.
            guaranteed = 2 * n**3 - n**2
        else:
            guaranteed = 0

        total = count * count
        out.append(
            SurveyRow(
                alpha=a,
                beta=b,
                total_pairs=total,
                solvable=solvable,
                guaranteed=guaranteed,
                unsolvable=total - solvable,
            )
        )
    return SurveyReport(rows=tuple(out))
