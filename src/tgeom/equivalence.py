"""Vector equivalence over a finite σ-space.

Two anchored vectors are equivalent when their scalar products against
every ordered probe pair agree, in both argument slots, within the
space tolerance. The response of v = (P0, P1) to the probe (Q0, Q1) is
d[Q1] - d[Q0] in the first slot, d = σ(P0, ·) - σ(P1, ·), and e[Q0] - e[Q1]
in the second, e = σ(·, P1) - σ(·, P0). So v ~ w exactly when each half of
the difference of their fingerprint rows (d | e) spans at most the
tolerance: the range rule behind every decision here and in
:mod:`tgeom.linear`. Where σ is symmetric at P0 and P1, e = -d by value,
since rounded subtraction is exactly antisymmetric, and the rule on e
repeats the rule on d; such rows carry d alone. The oracle's
probe-by-probe four-term test differs from the range rule only where the
rounding of sums, a few ulps of max|σ|, reaches ε.
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
_KEY_SAMPLE = 64  # distinct rows whose gaps choose the sort key column
# splitmix64 constants, for the per-column weights of _row_hashes.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _within(x, eps: float):
    """|x| <= eps elementwise; NaN compares false, so it never agrees."""
    return np.abs(x) <= eps


def _rows_agree(delta: np.ndarray, eps: float, n: int) -> np.ndarray:
    """Range rule on row differences: each n-float half of axis 0 spans <= eps.

    delta is one difference row of n or 2n floats, as _probe_rows writes
    them, or a (width, k) block holding k of them as columns: reductions
    down columns are what numpy is fast at, and a row is at most 2n
    floats long.
    """
    spans = np.ptp(delta.reshape(len(delta) // n, n, *delta.shape[1:]), axis=1)
    return _within(spans, eps).all(axis=0)


def _probe_rows(space: SigmaSpace, origins=slice(None), ends=slice(None)) -> np.ndarray:
    """Fingerprint rows of the vectors from each origin to each end.

    Rows are origin-major: by default all n² vectors, vector k from
    point k // n to point k % n. A row is (d | e), 2n floats, or d
    alone, n floats, when σ's row equals its column, by value, at every
    origin and end of the call: e = -d by value there, since rounded
    subtraction is exactly antisymmetric. The test reads only the rows
    and columns of those points. The rows of any origins and ends are
    bitwise the matching rows of the whole, cut to the call's width.
    Each half is shifted to zero at column 0, which the range rule
    ignores. The rows are written by broadcasting into one C-contiguous
    array, one vector per column, and returned as its transpose, since
    the index reduces down columns.
    """
    m = space.matrix
    n = len(space)
    symmetric = all((m[k] == m[:, k].T).all() for k in (origins, ends))
    start, stop = (np.ascontiguousarray(m[k].T) for k in (origins, ends))
    # columns[h, q, i, j]: column q of half h of the row of vector (i, j).
    columns = np.empty((1 if symmetric else 2, n, start.shape[1], stop.shape[1]))
    np.subtract(start[:, :, None], stop[:, None], out=columns[0])
    if not symmetric:
        np.subtract(m[:, None, ends], m[:, origins, None], out=columns[1])
    columns -= columns[:, :1].copy()
    return columns.reshape(len(columns) * n, -1).T


def _row_hashes(words: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of a 2-D uint64 array.

    The sum of the words times one odd weight per column, modulo 2**64;
    the weights are splitmix64 outputs of the column numbers (Steele,
    Lea & Flood, OOPSLA 2014). Every step is on arrays: a numpy scalar
    product that wraps would warn.
    """
    weights = np.arange(1, words.shape[1] + 1, dtype=np.uint64) * _GOLDEN
    weights ^= weights >> 30
    weights *= _MIX1
    weights ^= weights >> 27
    weights *= _MIX2
    weights ^= weights >> 31
    weights |= 1
    return np.einsum("ij,j->i", words, weights)


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a finite 2-D array, each row's group, and group sizes.

    The partition of np.unique(rows, axis=0), from one sort of 64-bit row
    hashes. Adding 0.0 folds -0.0 into +0.0, after which equal finite
    floats have equal bytes. Each word w is mixed to w ^ (w >> 31) before
    hashing. Negating a float flips its top bit, which adds 2**63 to any
    odd multiple of the raw word, so a plain weighted sum would give a
    row with an even number of nonzero floats the hash of its negation,
    the row of the reversed vector. Rows with equal hashes form a group,
    and every row is then proved bytewise equal to the group's first
    row, so equal rows always share a group and the hash never decides
    equality: the proof compares mixed words, and the mix is a
    bijection. A group that fails the proof holds a hash collision; the
    colliding groups are split by a byte-key np.unique over their rows
    alone. The distinct rows are one row of rows per group, in hash
    order and in the layout of rows; the groups are those of np.unique,
    only their order differs.
    """
    words = (rows + 0.0).view(np.uint64)
    words ^= words >> 31
    hashes = _row_hashes(words)
    order = np.argsort(hashes)
    hashes = hashes[order]
    head = np.empty(len(order), dtype=bool)
    head[:1] = True
    np.not_equal(hashes[1:], hashes[:-1], out=head[1:])
    group = np.cumsum(head) - 1  # the group of each position in hash order
    first = order[head]
    rest = np.flatnonzero(~head)
    proved = (words[order[rest]] == words[first[group[rest]]]).all(axis=1)
    if not proved.all():
        # A hash collision: give each colliding group's rows new groups by
        # their bytes, then number the groups 0, 1, ... again.
        colliding = np.isin(group, group[rest[~proved]])
        keys = np.ascontiguousarray(words[order[colliding]])
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        group[colliding] = len(first) + np.unique(keys, return_inverse=True)[1]
        _, at, group = np.unique(group, return_index=True, return_inverse=True)
        first = order[at]
    inverse = np.empty_like(order)
    inverse[order] = group
    distinct = rows.T.take(first, axis=1).T
    return distinct, inverse, np.bincount(group, minlength=len(first))


def _splitting_column(low: np.ndarray, high: np.ndarray, eps: float) -> int:
    """The row of two (width, k) arrays in which the most of the k column
    pairs lie more than eps apart. Ties go to the first such row, so no
    pairs at all give row 0.
    """
    return int(np.argmax(np.count_nonzero(np.abs(high - low) > eps, axis=1)))


def _fingerprint_index(space: SigmaSpace):
    """The distinct fingerprint rows, sorted on one key column.

    Returns (reps, keys, sizes, position): reps is a C-contiguous
    (width, u) array whose column k is representative k, width n or 2n
    as _probe_rows chose, since window checks reduce down columns; keys
    holds two rows of reps, the sort key, by which reps is sorted
    ascending, then a second key that prefilters window candidates;
    sizes[k] counts the vectors with representative k; position[v] is
    the representative of vector v. _splitting_column picks both keys:
    the key from neighbours in each column's sorted values over the
    first _KEY_SAMPLE distinct rows in hash order, the second from
    neighbours in key order within the tolerance of each other. The
    keys change only the speed of a window join, never its pairs.
    """
    eps = space.tolerance
    distinct, inverse, sizes = _unique_rows(_probe_rows(space))
    sample = np.sort(distinct[:_KEY_SAMPLE].T, axis=1)
    key = _splitting_column(sample[:, :-1], sample[:, 1:], eps)
    order = np.argsort(distinct[:, key], kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    position = rank[inverse]
    reps = distinct.T.take(order, axis=1)
    # Window-mates: neighbours in key order within eps of each other.
    near = np.flatnonzero(reps[key, 1:] - reps[key, :-1] <= eps)
    second = _splitting_column(reps[:, near], reps[:, near + 1], eps)
    return reps, reps[[key, second]], sizes[order], position


def _window_matches(candidates, keys, queries, targets, eps: float, n: int, first=0):
    """Pairs (t, c) where the row targets(t) agrees with column c of candidates.

    candidates holds the rows, halves of n floats, as the columns of a
    C-contiguous (width, u) array, sorted on keys[0]; keys holds two of
    its rows and queries the same two columns of the targets, computed
    as targets(t) computes them; targets(t) returns a (width, len(t))
    block. Agreeing rows are zero at column 0, so each column of their
    difference is at most eps: a fixed-radius search on two key columns
    (Bentley & Friedman, ACM Computing Surveys 11(4), 1979). Only a
    window of keys[0] around each query is taken (Bentley, Stanat &
    Williams, IPL 1977); a few ulps of slack let rounding add
    candidates, never drop one, and fmax drops the NaN slack of infinite
    values. A candidate whose keys[1] differs from
    the query by more than eps is dropped: that difference is bitwise a
    column of the full one, so the range rule would reject it; a NaN
    difference is kept for the range rule to reject. Windows start no
    earlier than first, one position for all queries or one per query: a
    self-join (queries is keys) that passes first = t + 1 finds each pair
    once, since every window reaches past its own query. Index pairs are
    made in blocks of about _CHUNK and rows checked in blocks of about
    _CHUNK floats, so no (targets x candidates x width) tensor is built.
    """
    with np.errstate(over="ignore"):  # eps near the float maximum
        radius = np.fmax(eps + 4 * np.spacing(np.abs(queries[0]) + eps), eps)
        low, high = queries[0] - radius, queries[0] + radius
    lo = np.maximum(np.searchsorted(keys[0], low, "left"), first)
    counts = np.searchsorted(keys[0], high, "right") - lo
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
            ok = _rows_agree(targets(ts) - candidates.take(cs, axis=1), eps, n)
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
    # The rows of (v0, v1), (v0, w1), (w0, v1) and (w0, w1).
    row_v, _, _, row_w = _probe_rows(space, origins, ends)
    delta = row_v - row_w
    if _rows_agree(delta, eps, n):
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

    Vectors with identical fingerprint rows form buckets. Agreeing
    pairs of buckets are found by a window lookup on two key columns,
    each pair once, and merged by an array closure (_components). Output
    order is deterministic: vectors inside a class sorted
    lexicographically, classes sorted by first member.
    """
    n = len(space)
    reps, keys, _, position = _fingerprint_index(space)
    # Each window starts after its own query, so a pair (a, b) of
    # representatives is checked once, with a < b.
    a, b = _window_matches(
        reps,
        keys,
        keys,
        lambda t: reps.take(t, axis=1),
        space.tolerance,
        n,
        first=np.arange(1, reps.shape[1] + 1),
    )

    roots = _components(reps.shape[1], a, b)
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
