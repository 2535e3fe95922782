"""Vector equivalence over a finite σ-space.

Two anchored vectors are equivalent when their scalar products against
every ordered probe pair agree, in both argument slots, within the
space tolerance. The response of v = (P0, P1) to the probe (Q0, Q1) is
d[Q1] - d[Q0] in the first slot, d = σ(P0, ·) - σ(P1, ·), and e[Q0] - e[Q1]
in the second, e = σ(·, P1) - σ(·, P0). So v ~ w exactly when each half of
the difference of their fingerprint rows (d | e) spans at most the
tolerance: the range rule behind every decision here and in
:mod:`tgeom.linear`. It can differ from the oracle's probe-by-probe
four-term test only within a few ulps of the tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .space import PointId, SigmaSpace
from .vectors import Vector, _four_term

SIDE_FIRST = "first-slot"
SIDE_SECOND = "second-slot"

_CHUNK = 1 << 13  # floats per temporary array when checking candidates


def _within(x, eps: float):
    """|x| <= eps elementwise; NaN compares false, so overflow never agrees."""
    return np.abs(x) <= eps


def _rows_agree(delta: np.ndarray, eps: float) -> np.ndarray:
    """Range rule on row differences: each half of axis 0 spans <= eps.

    delta is one difference row of 2n floats, or a (2n, k) block holding
    k of them as columns: reductions down columns are what numpy is fast
    at, and a row is only 2n floats long.
    """
    n = delta.shape[0] // 2
    first, second = np.ptp(delta[:n], axis=0), np.ptp(delta[n:], axis=0)
    return _within(first, eps) & _within(second, eps)


def _probe_rows(space: SigmaSpace, origins=None, ends=None) -> np.ndarray:
    """Fingerprint rows (d | e) of the vectors (origins[k], ends[k]).

    Each half is shifted to zero at column 0, which the range rule
    ignores. By default all n² vectors, vector k from point k // n to
    point k % n. Callers silence overflow with np.errstate.
    """
    m = space.matrix
    if origins is None:
        origins, ends = np.divmod(np.arange(len(space) ** 2), len(space))
    d = m[origins] - m[ends]
    e = m.T[ends] - m.T[origins]
    return np.concatenate((d - d[:, :1], e - e[:, :1]), axis=1)


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a finite 2-D array, each row's group, and group sizes.

    The partition of np.unique(rows, axis=0) from one 1-D sort over a byte
    key per row, instead of a sort field by field. Adding 0.0 folds -0.0
    into +0.0, after which equal finite floats have equal bytes; only the
    order of the distinct rows differs.
    """
    rows = np.ascontiguousarray(rows + 0.0)
    width = rows.shape[1]
    keys = rows.view(np.dtype((np.void, rows.itemsize * width))).ravel()
    distinct, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return distinct.view(rows.dtype).reshape(-1, width), inverse, counts


def _key_order(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order sorting the rows on their most distinct column, and its sorted keys."""
    distinct = np.count_nonzero(np.diff(np.sort(rows, axis=0), axis=0), axis=0)
    keys = rows[:, int(np.argmax(distinct))]
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def _window_matches(candidates, keys, queries, targets, eps: float):
    """Pairs (t, c) where the row targets(t) agrees with column c of candidates.

    candidates holds the rows as the columns of a C-contiguous (2n, u)
    array, sorted on keys; targets(t) returns a (2n, len(t)) block and
    queries holds the key column of the targets. Only a fixed-radius
    window of keys around each query is checked (Bentley, Stanat &
    Williams, IPL 1977): agreeing rows are zero at column 0, so each
    column of their difference is at most eps. A few ulps of slack let
    rounding add candidates, never drop one; fmax drops the NaN slack of
    infinite values. Chunks of about _CHUNK floats keep any (targets x
    candidates x 2n) tensor from being built.
    """
    radius = np.fmax(eps + 4 * np.spacing(np.abs(queries) + eps), eps)
    lo = np.searchsorted(keys, queries - radius, "left")
    counts = np.searchsorted(keys, queries + radius, "right") - lo
    base = np.concatenate(([0], np.cumsum(counts)))
    step = max(1, _CHUNK // candidates.shape[0])
    found_t, found_c = [], []
    t0 = 0
    while t0 < len(counts):
        t1 = max(t0 + 1, int(np.searchsorted(base, base[t0] + step, "right")) - 1)
        t = np.repeat(np.arange(t0, t1), counts[t0:t1])
        c = np.arange(base[t0], base[t1]) - np.repeat(
            base[t0:t1] - lo[t0:t1], counts[t0:t1]
        )
        ok = _rows_agree(targets(t) - candidates.take(c, axis=1), eps)
        found_t.append(t[ok])
        found_c.append(c[ok])
        t0 = t1
    return np.concatenate(found_t), np.concatenate(found_c)


def _product_grid(space: SigmaSpace, v: Vector, side: int, origins: range) -> np.ndarray:
    """Four-term probe responses of one vector, for counterexamples.

    Returns a (len(origins), n) array indexed [q0 - origins.start, q1]:
    the scalar products with v in the first argument slot (side 0) or in
    the second (side 1) at the probes (q0, q1) with q0 in origins.
    """
    m = space.matrix
    i0, i1 = space.index(v.origin), space.index(v.end)
    q0, q1 = np.ix_(origins, range(len(space)))
    return _four_term(m, i0, i1, q0, q1) if side == 0 else _four_term(m, q0, q1, i0, i1)


@dataclass(frozen=True)
class Counterexample:
    """First probe at which two vectors disagree."""

    probe_origin: PointId
    probe_end: PointId
    side: str  # SIDE_FIRST or SIDE_SECOND
    lhs: float
    rhs: float


@dataclass(frozen=True)
class EquivalenceWitness:
    equivalent: bool
    counterexample: Counterexample | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def equivalent(space: SigmaSpace, v: Vector, w: Vector) -> EquivalenceWitness:
    """Decide equivalence of two vectors, with a deterministic witness.

    The decision is the range rule on the two fingerprint rows. The
    counterexample is the first probe, in point-list order
    (origin-major, all first-slot probes before any second-slot probe),
    whose four-term responses differ by more than the tolerance; lhs and
    rhs are those responses. Only when the two roundings straddle the
    tolerance does no such probe exist; the witness is then the probe
    with the widest four-term gap on the side the range rule rejects.
    """
    v, w = Vector(*v), Vector(*w)
    eps = space.tolerance
    n = len(space)
    origins = [space.index(v.origin), space.index(w.origin)]
    ends = [space.index(v.end), space.index(w.end)]
    with np.errstate(over="ignore", invalid="ignore"):
        row_v, row_w = _probe_rows(space, origins, ends)
        delta = row_v - row_w
        if _rows_agree(delta, eps):
            return EquivalenceWitness(equivalent=True)
        # Blocks of probe origins of about _CHUNK floats, in scan order:
        # the first failing probe usually lies in the first block.
        step = max(1, _CHUNK // n)
        for half, start in itertools.product((0, 1), range(0, n, step)):
            block = range(start, min(start + step, n))
            left, right = (_product_grid(space, u, half, block) for u in (v, w))
            agree = _within(left - right, eps)
            if not agree.all():
                row, q1 = divmod(int(np.argmin(agree)), n)  # first failing probe
                break
        else:  # the roundings straddle eps: report the widest four-term gap
            half, start = int(bool(_within(np.ptp(delta[:n]), eps))), 0
            left, right = (_product_grid(space, u, half, range(n)) for u in (v, w))
            row, q1 = divmod(int(np.argmax(np.abs(left - right))), n)
    return EquivalenceWitness(
        equivalent=False,
        counterexample=Counterexample(
            probe_origin=space.points[start + row],
            probe_end=space.points[q1],
            side=(SIDE_FIRST, SIDE_SECOND)[half],
            lhs=float(left[row, q1]),
            rhs=float(right[row, q1]),
        ),
    )


@dataclass(frozen=True)
class ClassPartition:
    """Partition of all n² vectors of a space into equivalence classes.

    method records how the partition was obtained: "fingerprint-buckets"
    when no two distinct fingerprint rows agree, so that groups of
    identical rows are the classes, or "union-find" when agreement within
    tolerance forced an explicit pairwise closure. coherent is False
    when the closure glued together vectors that do not all agree
    pairwise, which can only happen at tolerance boundaries where the
    relation stops being transitive; such spaces are reported rather
    than silently forced into a clean partition.
    """

    classes: tuple[tuple[Vector, ...], ...]
    method: str
    coherent: bool

    def __len__(self) -> int:
        return len(self.classes)

    def class_of(self, v: Vector) -> tuple[Vector, ...]:
        v = Vector(*v)
        for cls in self.classes:
            if v in cls:
                return cls
        raise KeyError(f"vector {v} not in partition")


class _UnionFind:
    """Disjoint sets over range(n), union by rank with path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1


def equivalence_classes(space: SigmaSpace) -> ClassPartition:
    """Partition all vectors of the space into equivalence classes.

    Vectors with identical fingerprint rows form buckets; a row that
    overflowed agrees with nothing and is a bucket of its own. Agreeing
    pairs of buckets are found by a window lookup on one sorted column
    and merged by an explicit union-find closure. Output order is
    deterministic: vectors inside a class sorted lexicographically,
    classes sorted by first member.
    """
    eps = space.tolerance
    n = len(space)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _probe_rows(space)
        finite = np.isfinite(rows).all(axis=1)
        buckets, inverse, _ = _unique_rows(rows[finite])
        order, keys = _key_order(buckets)
        ordered = np.ascontiguousarray(buckets[order].T)
        t, c = _window_matches(ordered, keys, keys, lambda t: ordered.take(t, axis=1), eps)
    a, b = order[t[t < c]], order[c[t < c]]  # each pair once

    bucket_of = np.cumsum(~finite) - 1 + len(buckets)
    bucket_of[finite] = inverse
    uf = _UnionFind(int(bucket_of.max()) + 1)
    for x, y in zip(a.tolist(), b.tolist()):
        uf.union(x, y)
    roots = np.array([uf.find(x) for x in range(len(uf.parent))])
    # Coherent when each merged class is a clique of agreeing buckets.
    sizes = np.bincount(roots, minlength=len(roots))
    edges = np.bincount(roots[a], minlength=len(roots))
    coherent = bool((edges == sizes * (sizes - 1) // 2).all())
    method = "union-find" if len(a) else "fingerprint-buckets"

    points = space.points
    members: dict[int, list[Vector]] = {}
    for k, r in enumerate(roots[bucket_of].tolist()):
        members.setdefault(r, []).append(Vector(points[k // n], points[k % n]))
    sorted_classes = sorted(tuple(sorted(group)) for group in members.values())
    return ClassPartition(
        classes=tuple(sorted_classes), method=method, coherent=coherent
    )
