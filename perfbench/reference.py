"""Expected answers computed without tgeom.

Nothing here imports tgeom. The inputs are integer grids with Euclidean
σ (half the squared distance), where the T-geometry answers reduce to
integer displacement arithmetic:

- the probe response of a pair (P0, P1) to a probe (Q0, Q1) is the dot
  product of the displacements P1 - P0 and Q1 - Q0;
- two vectors are equivalent exactly when their displacements are equal,
  as long as the probe displacements span the plane;
- α·v + β·w is solvable exactly when α·d_v + β·d_w is a realised
  displacement, and its solutions are the point pairs with that
  displacement.

Table files are written and read here with plain string handling, so a
fault in tgeom's parser or formatter cannot hide in the reference.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction

import numpy as np

DEFAULT_TOLERANCE_TEXT = "1e-09"


def grid_points(size: int, deleted=()) -> list[tuple[str, tuple[int, int]]]:
    """Labelled cells of a size×size grid, row-major, minus deleted cells.

    Labels follow the documented ``p<x>_<y>`` form that ``tgeom grid``
    writes, so the same helper describes grids this package writes and
    grids tgeom writes.
    """
    removed = {tuple(cell) for cell in deleted}
    return [
        (f"p{x}_{y}", (x, y))
        for x, y in itertools.product(range(size), repeat=2)
        if (x, y) not in removed
    ]


def half_squared_distance(a: tuple[int, int], b: tuple[int, int]) -> float:
    dx, dy = a[0] - b[0], a[1] - b[1]
    return (dx * dx + dy * dy) / 2


def _write(path, lines) -> None:
    # Write a new file rather than truncate the old one: on ext4, closing
    # a truncated file forces its data to disk (auto_da_alloc).
    path.unlink(missing_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_grid_file(path, points) -> None:
    """Table file of a grid, one sigma line per unordered pair."""
    lines = ["points: " + " ".join(label for label, _ in points)]
    for i, (p, a) in enumerate(points):
        for q, b in points[i + 1 :]:
            lines.append(f"sigma: {p} {q} {half_squared_distance(a, b)!r}")
    _write(path, lines)


def write_asymmetric_file(path, labels, value) -> None:
    """Table file listing both directions of every pair; value(i, j) gives σ."""
    lines = ["points: " + " ".join(labels)]
    for i, p in enumerate(labels):
        for j, q in enumerate(labels):
            if i != j:
                lines.append(f"sigma: {p} {q} {value(i, j)!r}")
    _write(path, lines)


def grid_matrix(points) -> np.ndarray:
    n = len(points)
    m = np.zeros((n, n), dtype=float)
    for i, (_, a) in enumerate(points):
        for j, (_, b) in enumerate(points):
            m[i, j] = half_squared_distance(a, b)
    return m


def read_table_matrix(path) -> tuple[list[str], str, np.ndarray]:
    """Labels, tolerance text and dense matrix of a table file.

    Streams the file line by line and mirrors one-sided pairs; it knows
    only the three directives tgeom writes.
    """
    labels: list[str] = []
    index: dict[str, int] = {}
    tolerance = ""
    m = None
    seen = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            head, _, body = line.partition(":")
            if head == "points":
                labels = body.split()
                index = {label: k for k, label in enumerate(labels)}
                m = np.zeros((len(labels), len(labels)), dtype=float)
                seen = np.zeros(m.shape, dtype=bool)
            elif head == "tolerance":
                tolerance = body.strip()
            elif head == "sigma":
                p, q, value = body.split()
                i, j = index[p], index[q]
                m[i, j] = float(value)
                seen[i, j] = True
    mirror = ~seen & seen.T
    m[mirror] = m.T[mirror]
    return labels, tolerance, m


def displacement(points_by_label, v) -> tuple[int, int]:
    (x0, y0), (x1, y1) = points_by_label[v[0]], points_by_label[v[1]]
    return (x1 - x0, y1 - y0)


class DisplacementIndex:
    """All ordered point pairs of a grid, grouped by displacement."""

    def __init__(self, points):
        self.coords = dict(points)
        pairs: dict[tuple[int, int], list[tuple[str, str]]] = defaultdict(list)
        for (p, (x0, y0)), (q, (x1, y1)) in itertools.product(points, repeat=2):
            pairs[(x1 - x0, y1 - y0)].append((p, q))
        self.pairs = {d: tuple(sorted(found)) for d, found in pairs.items()}

    def target(self, alpha, beta, d_v, d_w) -> tuple[int, int] | None:
        """α·d_v + β·d_w as an integer displacement, or None if fractional."""
        a, b = Fraction(alpha), Fraction(beta)
        t = [a * d_v[k] + b * d_w[k] for k in range(2)]
        if any(c.denominator != 1 for c in t):
            return None
        return (int(t[0]), int(t[1]))

    def solutions(self, alpha, beta, v, w) -> tuple[tuple[str, str], ...]:
        """Every point pair realising α·v + β·w, sorted by labels."""
        t = self.target(
            alpha, beta, displacement(self.coords, v), displacement(self.coords, w)
        )
        return self.pairs.get(t, ()) if t is not None else ()

    def solvable_pairs(self, alpha, beta) -> int:
        """Ordered vector pairs (v, w) for which α·v + β·w is solvable."""
        count = 0
        for d_v, with_v in self.pairs.items():
            for d_w, with_w in self.pairs.items():
                t = self.target(alpha, beta, d_v, d_w)
                if t in self.pairs:
                    count += len(with_v) * len(with_w)
        return count


def guaranteed_pairs(alpha, beta, n: int) -> int:
    """Ordered vector pairs covered by a case defined in every space.

    Zero and single-vector combinations cover all n⁴ pairs. A chain sum
    (α = β = ±1) needs end(v) = origin(w) or end(w) = origin(v), and a
    difference (α = -β = ±1) needs a shared end or a shared origin; each
    condition holds for n³ pairs and both for n².
    """
    a, b = float(alpha), float(beta)
    if (a == 0 and b in (0, 1, -1)) or (b == 0 and a in (1, -1)):
        return n**4
    if abs(a) == 1 and abs(b) == 1:
        return 2 * n**3 - n**2
    return 0


def survey_rows(index: DisplacementIndex, coeffs) -> tuple[tuple, ...]:
    """Expected ``survey`` CSV rows for the given (alpha, beta) pairs."""
    n = len(index.coords)
    total = n**4
    rows = []
    for alpha, beta in coeffs:
        solvable = index.solvable_pairs(alpha, beta)
        rows.append(
            (
                float(alpha),
                float(beta),
                total,
                solvable,
                guaranteed_pairs(alpha, beta, n),
                total - solvable,
            )
        )
    return tuple(rows)


def equiv_output(points, v, w) -> tuple[int, str]:
    """Exit code and text of ``tgeom equiv`` on a full Euclidean grid.

    The counterexample is the first probe (Q0, Q1) in point order whose
    first-slot responses differ; on a grid some probe from the first
    point already separates two different displacements.
    """
    coords = dict(points)
    d_v, d_w = displacement(coords, v), displacement(coords, w)
    if d_v == d_w:
        return 0, "equivalent\n"
    for (q0, c0), (q1, c1) in itertools.product(points, repeat=2):
        d_q = (c1[0] - c0[0], c1[1] - c0[1])
        lhs = d_v[0] * d_q[0] + d_v[1] * d_q[1]
        rhs = d_w[0] * d_q[0] + d_w[1] * d_q[1]
        if lhs != rhs:
            return 3, (
                "not equivalent\n"
                f"probe: Q0={q0} Q1={q1} side=first-slot "
                f"lhs={float(lhs)!r} rhs={float(rhs)!r}\n"
            )
    raise ValueError("grid too small to separate two displacements")


def check_output(path, n: int, symmetric: bool, identity_limit: int = 12) -> str:
    """Text of ``tgeom check`` on a valid table with no identity violations.

    The reversal identities run over n⁴ tuples each, the two chain
    identities over n⁵ each, and the exchange identity over n⁴ on
    symmetric tables only.
    """
    lines = [
        f"file: {path}",
        f"points: {n}",
        f"tolerance: {DEFAULT_TOLERANCE_TEXT}",
        "diagonal/finiteness: ok",
        f"symmetric: {'yes' if symmetric else 'no'}",
    ]
    if n > identity_limit:
        lines.append(f"identities: skipped ({n} points > {identity_limit})")
    else:
        checked = 2 * n**4 + 2 * n**5 + (n**4 if symmetric else 0)
        note = f"identities: 0 violation(s), {checked} tuples checked"
        if not symmetric:
            note += " (skipped: exchange-symmetry)"
        lines.append(note)
    return "\n".join(lines) + "\n"
