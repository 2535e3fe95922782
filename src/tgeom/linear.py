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

from .errors import ChainMismatch, NotGuaranteed
from .equivalence import (
    _fingerprint_index,
    _probe_rows,
    _rows_agree,
    _window_matches,
)
from .space import SigmaSpace, enforce_limit
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


def _always_defined(
    c: Coefficients, v: Vector, w: Vector
) -> tuple[GuaranteedCase, Vector] | None:
    """The always-defined case of α·v + β·w and its representative, or None.

    Coefficients match 0 and ±1 exactly but by value, so -0.0 is 0, as
    -0.0·v = 0: case membership is a structural claim, and numeric slack
    belongs only in world-function comparisons. When both endpoint
    coincidences of a case hold, the first wins: end of v = origin of w
    before end of w = origin of v for chain sums, end = end before
    origin = origin for differences. The representative of a chain or a
    difference is v + w or v - w, reversed when α = -1.
    """
    a, b = c.alpha, c.beta
    case, sign = _coefficient_pattern(a, b), a
    if case is GuaranteedCase.ZERO:
        return case, Vector(v.origin, v.origin)
    if case is GuaranteedCase.SINGLE_VECTOR:
        out, sign = (v, a) if b == 0.0 else (w, b)
    elif case is GuaranteedCase.CHAIN_SUM and v.end == w.origin:
        out = Vector(v.origin, w.end)
    elif case is GuaranteedCase.CHAIN_SUM and w.end == v.origin:
        out = Vector(w.origin, v.end)
    elif case is GuaranteedCase.COMMON_ENDPOINT_DIFFERENCE and v.end == w.end:
        out = Vector(v.origin, w.origin)
    elif case is GuaranteedCase.COMMON_ENDPOINT_DIFFERENCE and v.origin == w.origin:
        out = Vector(w.end, v.end)
    else:
        return None
    return case, out if sign == 1.0 else negate(out)


def guaranteed_case(
    space: SigmaSpace, c: Coefficients, v: Vector, w: Vector
) -> GuaranteedCase | None:
    """Classify a combination request against the always-defined cases.

    Anything that matches none returns None and is left to the
    exhaustive solver; the rule is :func:`_always_defined`'s.
    """
    v, w = Vector(*v), Vector(*w)
    for label in (v.origin, v.end, w.origin, w.end):
        space.index(label)
    found = _always_defined(c, v, w)
    return None if found is None else found[0]


def construct_guaranteed(
    space: SigmaSpace, c: Coefficients, v: Vector, w: Vector
) -> Vector:
    """Representative of a guaranteed combination, built without search."""
    v, w = Vector(*v), Vector(*w)
    if guaranteed_case(space, c, v, w) is None:
        raise NotGuaranteed(
            f"alpha={c.alpha!r}, beta={c.beta!r} with endpoints {v}, {w} "
            f"matches no always-defined case"
        )
    return _always_defined(c, v, w)[1]


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


def solve_combination(
    space: SigmaSpace,
    c: Coefficients,
    v: Vector,
    w: Vector,
    *,
    limit: int | None = SEARCH_LIMIT,
) -> CombinationResult:
    """Exhaustively solve α·v + β·w over all candidate point pairs.

    A candidate (S0, S1) is a solution when its fingerprint row matches
    the target α·(row of v) + β·(row of w) under the range rule, which
    is the probe-response match in both argument slots; on a symmetric
    σ the rows carry the first slot alone, as the second repeats it by
    value. Every candidate is checked, on the fingerprint rows of all n²
    vectors. More than limit points are refused; limit=None searches any
    size.
    """
    enforce_limit(space, limit, "search")
    v, w = Vector(*v), Vector(*w)
    n = len(space)
    v0, w0, v1, w1 = map(space.index, (v.origin, w.origin, v.end, w.end))
    columns = _probe_rows(space).T  # one candidate per column
    with np.errstate(over="ignore", invalid="ignore"):
        target = c.alpha * columns[:, v0 * n + v1] + c.beta * columns[:, w0 * n + w1]
        columns -= target[:, None]
        keep = np.flatnonzero(_rows_agree(columns, space.tolerance, n))

    points = space.points
    solutions = sorted(Vector(points[k // n], points[k % n]) for k in keep.tolist())
    found = _always_defined(c, v, w)
    case = None if found is None else found[0]
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
    limit: int | None = SEARCH_LIMIT,
) -> SurveyReport:
    """Count solvable / guaranteed / unsolvable vector pairs per coefficients.

    For every coefficient pair, all n⁴ ordered pairs of vectors (v, w)
    are classified: a pair is solvable when at least one candidate
    solves the combination, and guaranteed when an always-defined case
    applies. Vectors with identical fingerprint rows are collapsed, which
    leaves per-pair semantics intact, and the targets of all pairs of
    representatives are looked up at once in a window on two key
    columns. A target that overflows matches nothing. More than limit
    points are refused; limit=None surveys any size.
    """
    enforce_limit(space, limit, "survey")
    n = len(space)
    eps = space.tolerance
    count = n * n
    rows, cols, keys, sizes, _ = _fingerprint_index(space)
    reps = rows.take(cols, axis=1)
    u = len(sizes)
    weight = np.outer(sizes, sizes).ravel()

    out: list[SurveyRow] = []
    for c in coeff_list:
        a, b = c.alpha, c.beta
        with np.errstate(over="ignore", invalid="ignore"):
            # Target t combines representatives t // u and t % u. Its key
            # columns take the float steps of targets(t), so each key
            # difference is bitwise the one the full row check sees.
            queries = ((a * keys)[:, :, None] + (b * keys)[:, None, :]).reshape(2, -1)
            scaled_a, scaled_b = a * reps, b * reps
            found, _ = _window_matches(
                rows,
                cols,
                keys,
                queries,
                lambda t: scaled_a.take(t // u, axis=1) + scaled_b.take(t % u, axis=1),
                eps,
                n,
            )
        # A target is solvable once, however many representatives it
        # matches: a mask over the u² targets, with no sort or hash.
        hit = np.zeros(len(weight), dtype=bool)
        hit[found] = True
        solvable = int(weight[hit].sum())

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
