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
    point k % n, written by broadcasting into one array: the same floats
    as the gather. Callers silence overflow with np.errstate.
    """
    m = space.matrix
    if origins is not None:
        d = m[origins] - m[ends]
        e = m.T[ends] - m.T[origins]
        return np.concatenate((d - d[:, :1], e - e[:, :1]), axis=1)
    n = len(space)
    mt = np.ascontiguousarray(m.T)
    rows = np.empty((n, n, 2 * n))
    np.subtract(m[:, None], m[None], out=rows[:, :, :n])
    np.subtract(mt[None], mt[:, None], out=rows[:, :, n:])
    halves = rows.reshape(n * n, 2, n)
    halves -= halves[:, :, :1].copy()
    return rows.reshape(n * n, 2 * n)


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


def _fingerprint_index(space: SigmaSpace):
    """The distinct finite fingerprint rows, sorted on one key column.

    Returns (reps, keys, sizes, position): reps is a C-contiguous
    (2n, u) array whose column k is representative k, since window checks
    reduce down columns; keys holds two rows of reps: the column of most
    distinct values, by which reps is sorted ascending, then the column
    that splits the most neighbours within the tolerance in that order,
    which prefilters window candidates; sizes[k] counts the vectors with
    representative k; position[v] is the representative of vector v. A
    row that overflowed agrees with nothing: it has no representative and
    is given a position of its own, u, u + 1, ... in vector order.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _probe_rows(space)
        finite = np.isfinite(rows).all(axis=1)
        distinct, inverse, sizes = _unique_rows(rows[finite])
    columns = np.ascontiguousarray(distinct.T)
    spread = np.count_nonzero(np.diff(np.sort(columns, axis=1), axis=1), axis=1)
    key = int(np.argmax(spread))
    order = np.argsort(columns[key], kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    position = np.cumsum(~finite) - 1 + len(order)
    position[finite] = rank[inverse]
    reps = columns.take(order, axis=1)
    # Neighbours in key order that the key cannot tell apart share a
    # window: the second key is the column that tells most of them apart.
    eps = space.tolerance
    near = np.flatnonzero(np.diff(reps[key]) <= eps)
    split = np.count_nonzero(np.abs(reps[:, near + 1] - reps[:, near]) > eps, axis=1)
    split[key] = -1
    return reps, reps[[key, int(np.argmax(split))]], sizes[order], position


def _window_matches(candidates, keys, queries, targets, eps: float, first=0):
    """Pairs (t, c) where the row targets(t) agrees with column c of candidates.

    candidates holds the rows as the columns of a C-contiguous (2n, u)
    array, sorted on keys[0]; keys holds two of its rows and queries the
    same two columns of the targets, computed as targets(t) computes
    them; targets(t) returns a (2n, len(t)) block. Agreeing rows are zero
    at column 0, so each column of their difference is at most eps: a
    fixed-radius search on two key columns (Bentley & Friedman, ACM
    Computing Surveys 11(4), 1979). Only a window of keys[0] around each
    query is taken (Bentley, Stanat & Williams, IPL 1977); a few ulps of
    slack let rounding add candidates, never drop one, and fmax drops the
    NaN slack of infinite values. A candidate whose keys[1] differs from
    the query by more than eps is dropped: that difference is bitwise a
    column of the full one, so the range rule would reject it; a NaN
    difference is kept for the range rule to reject. Windows start no
    earlier than first, one position for all queries or one per query: a
    self-join (queries is keys) that passes first = t + 1 finds each pair
    once, since every window reaches past its own query. Index pairs are
    made in blocks of about _CHUNK and rows checked in blocks of about
    _CHUNK floats, so no (targets x candidates x 2n) tensor is built.
    """
    radius = np.fmax(eps + 4 * np.spacing(np.abs(queries[0]) + eps), eps)
    lo = np.maximum(np.searchsorted(keys[0], queries[0] - radius, "left"), first)
    counts = np.searchsorted(keys[0], queries[0] + radius, "right") - lo
    base = np.concatenate(([0], np.cumsum(counts)))
    step = max(1, _CHUNK // candidates.shape[0])
    found_t, found_c = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    t0 = 0
    while t0 < len(counts):
        t1 = max(t0 + 1, int(np.searchsorted(base, base[t0] + _CHUNK, "right")) - 1)
        t = np.repeat(np.arange(t0, t1), counts[t0:t1])
        c = np.arange(base[t0], base[t1]) - np.repeat(
            base[t0:t1] - lo[t0:t1], counts[t0:t1]
        )
        near = ~(np.abs(queries[1].take(t) - keys[1].take(c)) > eps)
        t, c = t[near], c[near]
        for s in range(0, len(t), step):
            ts, cs = t[s : s + step], c[s : s + step]
            ok = _rows_agree(targets(ts) - candidates.take(cs, axis=1), eps)
            found_t.append(ts[ok])
            found_c.append(cs[ok])
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
    identical rows are the classes, or "union-find", the name of the
    closure path, when agreement within tolerance forced a closure over
    the agreeing pairs (array hooking and shortcutting, _components).
    coherent is False when the closure glued together vectors that do
    not all agree pairwise, which can only happen at tolerance
    boundaries where the relation stops being transitive; such spaces
    are reported rather than silently forced into a clean partition.
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


def _components(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Labels of count buckets, equal exactly within each component of
    the graph with edges (a[k], b[k]), by hooking and shortcutting
    (Shiloach & Vishkin, J. Algorithms 3(1), 1982). A root only ever
    hooks under a smaller label, so no cycle forms; the loop ends once
    both ends of every edge share a label, the least of its component.
    """
    roots = np.arange(count)
    while (roots[a] != roots[b]).any():
        ra, rb = roots[a], roots[b]
        np.minimum.at(roots, np.maximum(ra, rb), np.minimum(ra, rb))
        while (roots[roots] != roots).any():
            roots = roots[roots]
    return roots


def equivalence_classes(space: SigmaSpace) -> ClassPartition:
    """Partition all vectors of the space into equivalence classes.

    Vectors with identical fingerprint rows form buckets; a row that
    overflowed agrees with nothing and is a bucket of its own. Agreeing
    pairs of buckets are found by a window lookup on two key columns,
    each pair once, and merged by an array closure (_components). Output
    order is deterministic: vectors inside a class sorted
    lexicographically, classes sorted by first member.
    """
    n = len(space)
    reps, keys, _, position = _fingerprint_index(space)
    with np.errstate(over="ignore", invalid="ignore"):
        # Each window starts after its own query, so a pair (a, b) of
        # representatives is checked once, with a < b.
        a, b = _window_matches(
            reps,
            keys,
            keys,
            lambda t: reps.take(t, axis=1),
            space.tolerance,
            first=np.arange(1, reps.shape[1] + 1),
        )

    roots = _components(int(position.max()) + 1, a, b)
    # Coherent when each merged class is a clique of agreeing buckets.
    sizes = np.bincount(roots, minlength=len(roots))
    pairs = np.bincount(roots[a], minlength=len(roots))
    coherent = bool((pairs == sizes * (sizes - 1) // 2).all())

    # Vectors in lexicographic order of their labels, then grouped by
    # class, classes in order of their first member.
    points = space.points
    by_label = np.array(sorted(range(n), key=points.__getitem__))
    lexical = (by_label[:, None] * n + by_label[None, :]).ravel()
    _, leader, cls, members = np.unique(
        roots[position[lexical]],
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    grouped = lexical[np.argsort(leader[cls], kind="stable")]
    names = np.array(points, dtype=object)
    # tuple.__new__ skips the namedtuple's Python-level __new__.
    ends_of = zip(names[grouped // n], names[grouped % n])
    vectors = list(map(tuple.__new__, itertools.repeat(Vector), ends_of))
    ends = np.cumsum(members[np.argsort(leader)]).tolist()
    classes = tuple(tuple(vectors[s:e]) for s, e in zip([0] + ends, ends))
    method = "union-find" if len(a) else "fingerprint-buckets"
    return ClassPartition(classes=classes, method=method, coherent=coherent)
