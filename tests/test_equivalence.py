"""Equivalence decisions, witnesses, and class partition determinism."""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import math
import random

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgeom import (
    Coefficients,
    GridSpec,
    SigmaSpace,
    UnknownPoint,
    Vector,
    build_coordinate_space,
    build_finite_table,
    build_grid_space,
    equivalence_classes,
    equivalent,
    perturb_table,
    solve_combination,
    survey_linearity,
)
from tgeom import equivalence
from tgeom.equivalence import (
    SIDE_FIRST,
    SIDE_SECOND,
    _components,
    _fingerprint_index,
    _probe_rows,
    _rows_agree,
    _splitting_column,
    _unique_rows,
    _window_matches,
)
from tgeom.oracle import brute_force_equivalent, brute_force_solve
from tgeom.vectors import _four_term

from conftest import make_table, perturbed_grid


def all_vectors(space):
    return [Vector(p, q) for p in space.points for q in space.points]


def test_reflexive(tri_table):
    for v in all_vectors(tri_table):
        assert equivalent(tri_table, v, v).equivalent


def test_null_vectors_all_equivalent(tri_table):
    witness = equivalent(tri_table, Vector("A", "A"), Vector("C", "C"))
    assert witness.equivalent
    assert witness.counterexample is None


def test_grid_displacement_criterion(grid33):
    assert equivalent(grid33, Vector("p0_0", "p1_0"), Vector("p1_1", "p2_1"))
    assert not equivalent(grid33, Vector("p0_0", "p1_0"), Vector("p0_0", "p0_1"))


def test_witness_reports_first_failing_probe():
    space = build_finite_table(["A", "B"], [("A", "B", 1.0)])
    witness = equivalent(space, Vector("A", "B"), Vector("B", "A"))
    assert not witness.equivalent
    ce = witness.counterexample
    # probes scan (A,A), (A,B), ... over the first slot before the second
    assert (ce.probe_origin, ce.probe_end) == ("A", "B")
    assert ce.side == SIDE_FIRST
    assert ce.lhs == 2.0 and ce.rhs == -2.0


def _full_grid_witness(space, v, w):
    """Probe, side and four-term bytes of the first failing probe.

    Found in all four n×n four-term grids at once; None when no single
    probe fails (the roundings straddle ε).
    """
    m, n, eps = space.matrix, len(space), space.tolerance
    q0, q1 = np.ix_(range(n), range(n))

    def grids(u):
        i0, i1 = space.index(u.origin), space.index(u.end)
        return _four_term(m, i0, i1, q0, q1), _four_term(m, q0, q1, i0, i1)

    with np.errstate(over="ignore", invalid="ignore"):
        for side, left, right in zip((SIDE_FIRST, SIDE_SECOND), grids(v), grids(w)):
            agree = np.abs(left - right) <= eps
            if not agree.all():
                a, b = divmod(int(np.argmin(agree)), n)
                lhs, rhs = left[a, b].tobytes(), right[a, b].tobytes()
                return (space.points[a], space.points[b], side, lhs, rhs)
    return None


def _witness_bits(space, v, w):
    ce = equivalent(space, v, w).counterexample
    if ce is None:
        return None
    lhs, rhs = np.float64(ce.lhs).tobytes(), np.float64(ce.rhs).tobytes()
    return (ce.probe_origin, ce.probe_end, ce.side, lhs, rhs)


@pytest.mark.parametrize("chunk", [None, 1, 100])
def test_witness_matches_the_full_grid_scan(monkeypatch, chunk):
    # Blocks of probe origins must report the probe, side and four-term
    # values, bit for bit, that a scan over the full grids reports.
    if chunk is not None:  # one origin per block, or a few
        monkeypatch.setattr(equivalence, "_CHUNK", chunk)
    rng = np.random.default_rng(31)
    pick = random.Random(31)
    grid = build_grid_space(GridSpec(dim=2, size=24))
    # On a 6×6 grid, a row and a column of σ moved by ±0.6ε at two late
    # points: (p0_0, p1_0) and (p2_2, p3_2) then first disagree at the
    # probe origin p4_1 in the first slot, (p0_1, p1_1) and (p2_3, p3_3)
    # at p4_2 in the second.
    small = build_grid_space(GridSpec(dim=2, size=6))
    shift = 0.6 * small.tolerance
    moved = perturb_table(
        small,
        [
            ("p0_0", "p4_1", shift),
            ("p0_0", "p5_3", -shift),
            ("p4_2", "p1_1", shift),
            ("p5_5", "p1_1", -shift),
        ],
    )
    late = [
        (Vector("p0_0", "p1_0"), Vector("p2_2", "p3_2")),
        (Vector("p0_1", "p1_1"), Vector("p2_3", "p3_3")),
    ]
    spaces = [grid, moved, make_table(rng, 30), make_table(rng, 30, symmetric=False)]
    for space in spaces:
        vectors = all_vectors(space)
        pairs = [pick.sample(vectors, 2) for _ in range(40)]
        for v, w in pairs + (late if space is moved else []):
            expected = _full_grid_witness(space, v, w)
            if expected is None and not equivalent(space, v, w):
                continue  # the straddle case, pinned elsewhere
            assert _witness_bits(space, v, w) == expected, (v, w)
    assert [_witness_bits(moved, v, w)[:3] for v, w in late] == [
        ("p4_1", "p5_3", SIDE_FIRST),
        ("p4_2", "p5_5", SIDE_SECOND),
    ]


def test_unknown_point_rejected(tri_table):
    with pytest.raises(UnknownPoint):
        equivalent(tri_table, Vector("A", "Z"), Vector("A", "B"))


def test_fingerprint_agreement_matches_direct_path():
    rng = np.random.default_rng(21)
    for symmetric in (True, False):
        space = make_table(rng, 4, symmetric=symmetric)
        rows = dict(zip(all_vectors(space), _probe_rows(space)))
        for v, w in itertools.product(all_vectors(space), repeat=2):
            direct = equivalent(space, v, w).equivalent
            assert direct == _rows_agree(rows[v] - rows[w], space.tolerance, len(space))


def _assert_same_floats(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _two_half_rows(space, origins=slice(None), ends=slice(None)):
    """The rows (d | e) of the vectors from each origin to each end, both
    halves whatever σ is, by the float steps of _probe_rows: each entry
    one rounded difference, then shifted by its half's column 0."""
    m = space.matrix
    n = len(space)
    o, e = np.arange(n)[origins], np.arange(n)[ends]
    first = m[o][:, None, :] - m[e][None, :, :]  # σ(P0, Q) - σ(P1, Q)
    second = m[:, e].T[None, :, :] - m[:, o].T[:, None, :]  # σ(Q, P1) - σ(Q, P0)
    first = first - first[..., :1]
    second = second - second[..., :1]
    return np.concatenate((first, second), axis=2).reshape(-1, 2 * n)


def _symmetric_at(space, indices):
    """Whether σ's row equals its column, by value, at every index."""
    m = space.matrix
    return all(np.array_equal(m[k], m[:, k]) for k in indices)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_probe_rows_of_single_vectors_and_origin_blocks_are_rows_of_the_whole():
    # One builder serves every caller: the rows of one vector, or of a
    # block of origins, are the same floats as the matching rows of all
    # n², -0.0 included, and on a table at |σ| = 2**1018 entries reach
    # 3·|σ| exactly. A symmetric table's rows carry one half of n
    # floats, an asymmetric table's both.
    rng = np.random.default_rng(28)
    big = 2.0**1018
    spaces = [
        (make_table(rng, 7), 1),
        (make_table(rng, 6, symmetric=False), 2),
        (
            build_finite_table(
                ["A", "B", "C"],
                [("B", "B", -0.0), ("A", "B", 0.0), ("A", "C", 4.0), ("B", "C", 4.0)],
            ),
            1,
        ),
        (
            build_finite_table(
                ["A", "B", "C"], [("A", "B", big), ("A", "C", -big), ("B", "C", big)]
            ),
            1,
        ),
    ]
    for space, halves in spaces:
        n = len(space)
        rows = _probe_rows(space)
        assert rows.shape == (n * n, halves * n)
        _assert_same_floats(rows, _two_half_rows(space)[:, : halves * n])
        pairs = itertools.product(range(n), repeat=2)
        singles = [_probe_rows(space, [i], [j]) for i, j in pairs]
        blocks = [_probe_rows(space, slice(r, r + 2)) for r in range(0, n, 2)]
        _assert_same_floats(np.concatenate(singles), rows)
        _assert_same_floats(np.concatenate(blocks), rows)
    assert np.abs(rows).max() == 3 * big  # the table at the bound


@st.composite
def _selections(draw, n):
    """A non-empty slice or list of point indices below n."""
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        return slice(start, draw(st.integers(start + 1, n)))
    return draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_probe_rows_of_any_origins_and_ends_are_rows_of_the_whole(data):
    # The rows of any origins and ends are the matching rows of the
    # whole, cut to one half exactly when σ is symmetric at every point
    # of the call; the whole carries one half exactly when σ is.
    n = data.draw(st.integers(1, 8))
    zeros = st.sampled_from([0.0, -0.0])
    values = st.one_of(zeros, st.floats(-1e6, 1e6))
    m = data.draw(hnp.arrays(np.float64, (n, n), elements=values))
    if data.draw(st.booleans()):  # mirror some points' rows into their columns
        mirrored = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        m[:, mirrored] = m[mirrored].T
    m[np.diag_indices(n)] = data.draw(hnp.arrays(np.float64, n, elements=zeros))
    space = SigmaSpace([f"P{i}" for i in range(n)], m)
    origins, ends = data.draw(_selections(n)), data.draw(_selections(n))
    every = np.arange(n)
    symmetric = _symmetric_at(space, every[origins]) and _symmetric_at(space, every[ends])
    width = n if symmetric else 2 * n
    whole = _probe_rows(space)
    _assert_same_floats(whole, _two_half_rows(space)[:, : whole.shape[1]])
    assert whole.shape[1] == (n if _symmetric_at(space, every) else 2 * n)
    expected = _two_half_rows(space).reshape(n, n, 2 * n)[origins][:, ends]
    _assert_same_floats(
        _probe_rows(space, origins, ends), expected.reshape(-1, 2 * n)[:, :width]
    )


def _two_half_agree(delta, eps, n):
    """The range rule on difference rows of 2n floats, one row per row of
    delta: both halves span at most eps; a NaN span never agrees."""
    spans = np.ptp(delta.reshape(len(delta), 2, n), axis=2)
    return (spans <= eps).all(axis=1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_symmetric_rows_are_the_first_half_and_the_second_is_its_negation():
    # Rounded subtraction is exactly antisymmetric, so where σ equals its
    # transpose by value the second half of every row is minus the first,
    # by value: the rows carry the first half alone, bitwise as the
    # two-half row has it. Grids, random tables, values near ±1e6 where
    # differences round, |σ| = 2**1018, and σ(A, B) = -0.0 beside
    # σ(B, A) = +0.0.
    rng = np.random.default_rng(98)
    big = 2.0**1018
    near = np.triu(rng.choice([-1e6, 1e6], (9, 9)) + rng.uniform(-1.0, 1.0, (9, 9)), 1)
    signed = np.array([[0.0, -0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, -0.0]])
    spaces = [
        build_grid_space(GridSpec(dim=2, size=3)),
        build_grid_space(GridSpec(dim=2, size=4, deleted=frozenset({(1, 2)}))),
        make_table(rng, 8),
        make_table(rng, 5, integer=True),
        SigmaSpace([f"P{i}" for i in range(9)], near + near.T),
        build_finite_table(
            ["A", "B", "C"], [("A", "B", big), ("A", "C", -big), ("B", "C", big)]
        ),
        SigmaSpace(["A", "B", "C"], signed),
    ]
    for space in spaces:
        n = len(space)
        rows, two = _probe_rows(space), _two_half_rows(space)
        assert rows.shape == (n * n, n)
        _assert_same_floats(rows, two[:, :n])
        assert np.array_equal(two[:, n:], -two[:, :n])
    # An asymmetric table keeps both halves, and they are not negations.
    space = make_table(rng, 6, symmetric=False)
    two = _two_half_rows(space)
    _assert_same_floats(_probe_rows(space), two)
    assert not np.array_equal(two[:, 6:], -two[:, :6])


_EXACT_VALUES = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0, -3.0, 4.5])
# Exact steps from the values above, then coefficients that overflow.
_SMALL_COEFFICIENTS = [0.0, -0.0, 0.5, -1.0, 1.0, 2.0]
_SYMMETRIC_COEFFICIENTS = st.sampled_from(_SMALL_COEFFICIENTS + [1e308, -1e308])


@st.composite
def symmetric_tables(draw):
    """Tables of 1 to 8 points equal to their transpose by value.

    Values are small dyadic numbers, so every sum either rule forms is
    exact; a zero's sign is drawn apart on the two sides of the
    diagonal, so the table need not equal its transpose in bits.
    """
    n = draw(st.integers(1, 8))
    upper = np.triu_indices(n, 1)
    count = len(upper[0])
    values = np.array(draw(st.lists(_EXACT_VALUES, min_size=count, max_size=count)))
    flips = np.array(draw(st.lists(st.booleans(), min_size=count, max_size=count)), bool)
    m = np.zeros((n, n))
    m[upper] = values
    m[upper[::-1]] = np.where(flips & (values == 0.0), -values, values)
    diagonal = st.sampled_from([0.0, -0.0])
    m[np.diag_indices(n)] = draw(st.lists(diagonal, min_size=n, max_size=n))
    eps = draw(st.sampled_from([0.0, 0.5]))
    return SigmaSpace([f"P{i}" for i in range(n)], m, tolerance=eps)


@settings(max_examples=100, deadline=None)
@given(symmetric_tables(), st.data())
def test_symmetric_tables_decide_as_the_two_half_rule_and_the_oracle(space, data):
    # On one-half rows every decision is the one the two-half rule makes
    # on rows written with both halves, and, where no coefficient
    # overflows, the oracle's: every sum here is exact.
    n, eps = len(space), space.tolerance
    vectors = all_vectors(space)
    two = _two_half_rows(space)
    _assert_same_floats(_probe_rows(space), two[:, :n])
    assert np.array_equal(two[:, n:], -two[:, :n])

    agree = _two_half_agree(
        (two[:, None] - two[None]).reshape(-1, 2 * n), eps, n
    ).reshape(n * n, n * n)
    pick = st.integers(0, n * n - 1)
    for _ in range(12):
        i, j = data.draw(pick), data.draw(pick)
        decided = equivalent(space, vectors[i], vectors[j]).equivalent
        assert decided == agree[i, j] == brute_force_equivalent(space, vectors[i], vectors[j])
    partition = equivalence_classes(space)
    index = {v: k for k, v in enumerate(vectors)}

    def related(v, w):
        return agree[index[v], index[w]]

    assert partition.classes == _oracle_partition(space, related)
    assert partition.coherent == all(
        related(a, b) for cls in partition.classes for a, b in itertools.combinations(cls, 2)
    )
    if n <= 4:
        assert partition.classes == _oracle_partition(space)

    coeffs = [
        Coefficients(data.draw(_SYMMETRIC_COEFFICIENTS), data.draw(_SYMMETRIC_COEFFICIENTS))
        for _ in range(2)
    ]
    # A few solver requests (vectors[i], vectors[requests[i]]) per
    # coefficient pair.
    requests = {data.draw(pick): data.draw(pick) for _ in range(3)}
    for c in coeffs:
        small = abs(c.alpha) <= 2 and abs(c.beta) <= 2
        solvable = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n * n):
                targets = c.alpha * two[i] + c.beta * two  # w runs down axis 0
                delta = (two[None] - targets[:, None]).reshape(-1, 2 * n)
                found = _two_half_agree(delta, eps, n).reshape(n * n, n * n)
                solvable += int(found.any(axis=1).sum())
                if i in requests:
                    j = requests[i]
                    v, w = vectors[i], vectors[j]
                    expected = [vectors[k] for k in np.flatnonzero(found[j])]
                    assert list(solve_combination(space, c, v, w).solutions) == expected
                    if small:
                        assert expected == brute_force_solve(space, c, v, w)
        (row,) = survey_linearity(space, [c]).rows
        assert row.solvable == solvable
        if small and n <= 3:
            assert solvable == sum(
                bool(brute_force_solve(space, c, v, w))
                for v, w in itertools.product(vectors, repeat=2)
            )


def test_witness_present_iff_not_equivalent():
    rng = np.random.default_rng(22)
    space = make_table(rng, 4)
    for v, w in itertools.product(all_vectors(space), repeat=2):
        witness = equivalent(space, v, w)
        assert witness.equivalent == (witness.counterexample is None)
        if witness.counterexample is not None:
            ce = witness.counterexample
            assert abs(ce.lhs - ce.rhs) > space.tolerance


def test_single_point_partition():
    space = build_finite_table(["P"], [])
    partition = equivalence_classes(space)
    assert partition.classes == ((Vector("P", "P"),),)
    assert partition.coherent


def test_two_point_partition():
    space = build_finite_table(["A", "B"], [("A", "B", 1.0)])
    partition = equivalence_classes(space)
    assert partition.classes == (
        (Vector("A", "A"), Vector("B", "B")),
        (Vector("A", "B"),),
        (Vector("B", "A"),),
    )


def test_full_grid_partition_counts(grid22):
    partition = equivalence_classes(grid22)
    assert len(partition) == 9  # one class per displacement in {-1,0,1}^2
    assert partition.method == "fingerprint-buckets"
    assert partition.coherent
    for cls in partition.classes:
        displacements = set()
        for v in cls:
            origin = grid22.coordinates(v.origin)
            end = grid22.coordinates(v.end)
            displacements.add(tuple(e - o for o, e in zip(origin, end)))
        assert len(displacements) == 1


def _oracle_partition(space, related=None):
    """Classes of the closure of the oracle's relation, or of related,
    sorted as the partition sorts them.

    Each class is grown breadth first: every vector still unclassified
    that the relation relates to a member joins it.
    """
    if related is None:
        related = functools.partial(brute_force_equivalent, space)
    unseen = all_vectors(space)
    classes = []
    while unseen:
        members = [unseen.pop(0)]
        for v in members:  # members grows while it is walked
            linked = [w for w in unseen if related(v, w)]
            unseen = [w for w in unseen if w not in linked]
            members.extend(linked)
        classes.append(tuple(sorted(members)))
    return tuple(sorted(classes))


def test_partition_matches_pairwise_oracle(tri_table, grid22_deleted):
    rng = np.random.default_rng(23)
    spaces = [tri_table, grid22_deleted, make_table(rng, 4), make_table(rng, 3, symmetric=False)]
    # Dense agreement: uniform(0, 10) tables at tolerances as large as
    # their values; mostly incoherent closures, one coherent merge and
    # one space with no agreeing pair.
    rng = np.random.default_rng(31)
    for _ in range(8):
        n, tolerance = int(rng.integers(4, 7)), float(rng.integers(8, 15))
        spaces.append(make_table(rng, n, tolerance=tolerance))
    for space in spaces:
        partition = equivalence_classes(space)
        assert partition.classes == _oracle_partition(space)


# Construction orders that differ from sorted label order: "P10" sorts
# before "P2", capitals before lower case, and "Ä", "É", "é" after "z".
_UNSORTED_LABELS = {
    "numbered": [f"P{i}" for i in range(12)],
    "mixed-case": ["b", "B", "a", "A", "c", "C", "ab", "Ab", "aB"],
    "non-ascii": ["é", "Ä", "z", "a", "É", "Z", "ä", "e", "Ö"],
}


def _relabelled(space, labels):
    return SigmaSpace(labels, space.matrix, tolerance=space.tolerance)


@pytest.mark.parametrize("labels", _UNSORTED_LABELS.values(), ids=_UNSORTED_LABELS)
def test_classes_follow_sorted_labels_not_construction_order(labels):
    rng = np.random.default_rng(27)
    n = len(labels)
    size, deleted = (4, {(0, 3), (1, 2), (2, 0), (3, 1)}) if n == 12 else (3, set())
    grid = build_grid_space(GridSpec(dim=2, size=size, deleted=frozenset(deleted)))
    table = np.where(np.eye(n, dtype=bool), 0.0, rng.uniform(0.0, 10.0, (n, n)))
    spaces = [
        _relabelled(grid, labels),
        SigmaSpace(labels, table),
        _relabelled(perturbed_grid(rng, size, 0.25, deleted), labels),
    ]
    for space in spaces:
        assert list(space.points) != sorted(space.points)
        assert equivalence_classes(space).classes == _oracle_partition(space)


def test_partition_is_a_partition():
    rng = np.random.default_rng(24)
    for n in (2, 3, 5):
        space = make_table(rng, n)
        partition = equivalence_classes(space)
        seen = [v for cls in partition.classes for v in cls]
        assert len(seen) == n * n
        assert len(set(seen)) == n * n
        for cls in partition.classes:
            for v, w in itertools.combinations(cls, 2):
                assert equivalent(space, v, w).equivalent


def _first_member(labels):
    """Each node's label replaced by the least node sharing it."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


def _bfs_components(count, a, b):
    """Component labels by breadth-first search over adjacency lists."""
    neighbours = [[] for _ in range(count)]
    for x, y in zip(a.tolist(), b.tolist()):
        neighbours[x].append(y)
        neighbours[y].append(x)
    labels = [-1] * count
    for start in range(count):
        if labels[start] < 0:
            labels[start] = start
            queue = collections.deque([start])
            while queue:
                for y in neighbours[queue.popleft()]:
                    if labels[y] < 0:
                        labels[y] = start
                        queue.append(y)
    return np.array(labels)


def test_components_match_breadth_first_search():
    rng = np.random.default_rng(37)
    # A path through 5000 buckets in shuffled order: one component, as
    # long as a graph of that size allows.
    order = rng.permutation(5000)
    graphs = [(5000, order[:-1], order[1:]), (7, np.array([], int), np.array([], int))]
    for count, edges in ((10, 4), (50, 30), (200, 150), (200, 400)):
        a, b = rng.integers(0, count, size=(2, edges))
        # Repeated pairs, reversed pairs and self-loops as well.
        a, b = np.concatenate((a, b, a[:5], [3])), np.concatenate((b, a, b[:5], [3]))
        graphs.append((count, a, b))
    for count, a, b in graphs:
        labels = _components(count, a, b)
        assert labels.shape == (count,)
        assert (_first_member(labels) == _first_member(_bfs_components(count, a, b))).all()
    assert len(set(_components(*graphs[0]).tolist())) == 1
    assert (_components(*graphs[1]) == np.arange(7)).all()


def _self_join_pairs(reps, keys, eps, n, first=0):
    def own(t):
        return reps.take(t, axis=1)

    t, c = _window_matches(reps, keys, keys, own, eps, n, first=first)
    return set(zip(t.tolist(), c.tolist()))


def _all_pairs(candidates, targets, eps, n):
    """Every pair (t, c) of columns that agree, by the range rule on all pairs."""
    u = candidates.shape[1]
    pairs = set()
    for t0 in range(0, targets.shape[1], 64):
        delta = targets[:, t0 : t0 + 64, None] - candidates[:, None, :]
        agree = _rows_agree(delta.reshape(len(delta), -1), eps, n)
        t, c = np.divmod(np.flatnonzero(agree), u)
        pairs.update(zip((t + t0).tolist(), c.tolist()))
    return pairs


@pytest.mark.parametrize("chunk", [None, 1, 100])
def test_one_sided_self_join_finds_each_pair_once(monkeypatch, chunk):
    # A window that starts after its own query must find exactly the
    # pairs t < c of the full self-join; and the full join is symmetric,
    # so dropping its pairs t > c loses no agreeing pair. The full join,
    # second key column included, finds what a check of all pairs finds.
    if chunk is not None:
        monkeypatch.setattr(equivalence, "_CHUNK", chunk)
    rng = np.random.default_rng(29)
    # Small integers at tolerance 1: long runs of tied keys, in both key
    # columns, and many matches.
    tied = rng.integers(0, 4, size=(8, 60)).astype(float)
    tied[[0, 4]] = 0.0  # each half zero at column 0, as fingerprint rows are
    tied = tied[:, np.argsort(tied[2], kind="stable")]
    inputs = [(np.ascontiguousarray(tied), tied[[2, 3]], 1.0, 4)]
    for scale in (0.125, 0.25, 0.5, 1.0):
        space = perturbed_grid(rng, 3, scale)
        reps, keys, _, _ = _fingerprint_index(space)
        inputs.append((reps, keys, space.tolerance, len(space)))
    matched = 0
    for reps, keys, eps, n in inputs:
        full = _self_join_pairs(reps, keys, eps, n)
        assert full == _all_pairs(reps, reps, eps, n)
        below = {(t, c) for t, c in full if t < c}
        assert {(c, t) for t, c in full if t > c} == below
        first = np.arange(1, reps.shape[1] + 1)
        one_sided = _self_join_pairs(reps, keys, eps, n, first)
        assert one_sided == below
        matched += len(below)
    assert matched > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("chunk", [None, 1, 100])
def test_two_key_join_of_survey_targets_equals_all_pairs(monkeypatch, chunk):
    # The second key column drops only pairs that the range rule rejects,
    # also for targets that are not candidates, some of which overflow
    # to inf and nan at coefficients of 1e308: the join finds every pair
    # that a check of all pairs finds.
    if chunk is not None:
        monkeypatch.setattr(equivalence, "_CHUNK", chunk)
    big = 2.0**1018
    at_bound = build_finite_table(
        ["A", "B", "C"], [("A", "B", big), ("A", "C", -big), ("B", "C", big)]
    )
    rng = np.random.default_rng(30)
    overflowed = False
    for space in [at_bound] + [perturbed_grid(rng, 3, scale) for scale in (0.125, 1.0)]:
        reps, keys, _, _ = _fingerprint_index(space)
        eps, n = space.tolerance, len(space)
        # Which rows of reps the two keys are, to read them off the targets.
        columns = [int(np.flatnonzero((reps == key).all(axis=1))[0]) for key in keys]
        with np.errstate(over="ignore", invalid="ignore"):
            # Rows combined as the survey combines representatives: each
            # of the first nine with every row.
            rows = _probe_rows(space).T
            for a, b in ((1.0, 1.0), (2.0, -1.0), (1e308, 1e308)):
                every = (a * rows[:, :9, None] + b * rows[:, None, :]).reshape(len(rows), -1)
                t, c = _window_matches(
                    reps, keys, every[columns], lambda t: every.take(t, axis=1), eps, n
                )
                assert set(zip(t.tolist(), c.tolist())) == _all_pairs(reps, every, eps, n)
                overflowed |= bool(np.isnan(every).any() and np.isinf(every).any())
    assert overflowed


def _cell_shift(v):
    """Displacement of a vector between grid labels p<x>_<y>."""
    (x0, y0), (x1, y1) = (map(int, label[1:].split("_")) for label in v)
    return (x1 - x0, y1 - y0)


@pytest.mark.parametrize("size", [3, 4])
def test_epsilon_boundary_stress_matches_oracle(size):
    # Only vectors with the same grid displacement come within ε of each
    # other; all their pairs are checked, and the class partition (a
    # closure over every pair) is compared whole. The fast paths decide
    # by the range rule and the oracle probe by probe, which differ only
    # where the rounding of sums reaches ε; these seeds hit no such pair.
    rng = np.random.default_rng(26 + size)
    outcomes = set()
    for scale in (0.125, 0.25, 0.5):
        space = perturbed_grid(rng, size, scale)
        vectors = all_vectors(space)
        for v, w in itertools.combinations(vectors, 2):
            if _cell_shift(v) == _cell_shift(w):
                expected = brute_force_equivalent(space, v, w)
                assert equivalent(space, v, w).equivalent == expected, (scale, v, w)
                outcomes.add(expected)
        partition = equivalence_classes(space)
        assert partition.classes == _oracle_partition(space)
        assert partition.coherent == all(
            brute_force_equivalent(space, a, b)
            for cls in partition.classes
            for a, b in itertools.combinations(cls, 2)
        )
    assert outcomes == {True, False}  # the perturbations straddle ε


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_table_at_the_bound_matches_the_oracle():
    # |σ| = 2**1018 lies within the bound. Every four-term sum, row entry
    # and target is a small multiple of it, so exact: the fast paths and
    # the oracle agree on every pair, null vectors included, every
    # guaranteed pair is solvable, and no numpy warning escapes.
    big = 2.0**1018
    space = build_finite_table(
        ["A", "B", "C"], [("A", "B", big), ("A", "C", -big), ("B", "C", big)]
    )
    vectors = all_vectors(space)
    pairs = list(itertools.product(vectors, repeat=2))
    for v, w in pairs:
        assert equivalent(space, v, w).equivalent == brute_force_equivalent(space, v, w)
    partition = equivalence_classes(space)
    null = tuple(Vector(p, p) for p in space.points)
    assert partition.class_of(Vector("A", "A")) == null
    assert partition.coherent and partition.classes == _oracle_partition(space)
    witness = equivalent(space, Vector("A", "B"), Vector("B", "C"))
    assert not witness.equivalent and witness.counterexample is not None

    coeffs = [Coefficients(0.0, 0.0), Coefficients(1.0, 0.0), Coefficients(1.0, 1.0)]
    rows = survey_linearity(space, coeffs).rows
    for c, row in zip(coeffs, rows):
        solvable = 0
        for v, w in pairs:
            expected = brute_force_solve(space, c, v, w)
            assert list(solve_combination(space, c, v, w).solutions) == expected
            solvable += bool(expected)
        assert row.solvable == solvable
    assert [(row.solvable, row.guaranteed) for row in rows[:2]] == [(81, 81)] * 2


_EPS = 2.0**-30
_BIG = 2.0**1017


@st.composite
def exact_spaces(draw):
    """Tables of at most 5 points on which every sum either rule forms is exact.

    Either small integers (or the half-integers of points on a line,
    where many vectors agree) plus multiples of ε = 2**-30, so that
    differences of exactly ε are common; or the values 0, ±2**1017 and
    ±2**1018 near the bound, with a tolerance of 0 or 2**1017. Both
    draw dyadic values whose four-term sums, rows and targets at the
    drawn coefficients need far fewer than 53 bits.
    """
    n = draw(st.integers(1, 5))
    cells = list(itertools.product(range(n), repeat=2))
    if draw(st.booleans()):
        eps = _EPS
        if draw(st.booleans()):
            x = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            base = [(x[i] - x[j]) ** 2 / 2 for i, j in cells]
        else:
            base = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
        shift = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
        values = [b + k * eps for b, k in zip(base, shift)]
    else:
        eps = draw(st.sampled_from([0.0, _BIG]))
        big = st.sampled_from([0.0, _BIG, -_BIG, 2 * _BIG, -2 * _BIG])
        values = draw(st.lists(big, min_size=n * n, max_size=n * n))
    m = np.array(values).reshape(n, n)
    if draw(st.booleans()):
        m = np.triu(m) + np.triu(m, 1).T
    diagonal = st.sampled_from([0.0, -0.0, eps, -eps])
    m[np.diag_indices(n)] = draw(st.lists(diagonal, min_size=n, max_size=n))
    return SigmaSpace([f"P{i}" for i in range(n)], m, tolerance=eps)


_EXACT_COEFFICIENTS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


@settings(max_examples=150, deadline=None)
@given(exact_spaces(), st.data())
def test_fast_paths_match_the_oracle_on_exact_tables(space, data):
    # Both rules decide exactly here, so they must agree on every pair,
    # at differences of exactly ε too; no exclusions.
    vectors = all_vectors(space)
    pairs = list(itertools.product(vectors, repeat=2))
    for v, w in pairs:
        assert equivalent(space, v, w).equivalent == brute_force_equivalent(space, v, w)
    partition = equivalence_classes(space)
    assert partition.classes == _oracle_partition(space)
    assert partition.coherent == all(
        brute_force_equivalent(space, a, b)
        for cls in partition.classes
        for a, b in itertools.combinations(cls, 2)
    )
    c = Coefficients(data.draw(_EXACT_COEFFICIENTS), data.draw(_EXACT_COEFFICIENTS))
    solver_row = data.draw(st.sampled_from(vectors))
    solvable = 0
    for v, w in pairs:
        expected = brute_force_solve(space, c, v, w)
        solvable += bool(expected)
        if v == solver_row:
            assert list(solve_combination(space, c, v, w).solutions) == expected
    (row,) = survey_linearity(space, [c]).rows
    assert row.solvable == solvable


def test_range_rule_and_four_term_differ_only_by_ulps():
    # Tolerances set exactly at a computed gap expose where the range rule
    # and the probe-by-probe four-term sums round differently.
    space = build_finite_table(
        ["A", "B", "C"],
        [
            ("A", "B", 0.8564916714362436),
            ("A", "C", 2.368105065960997),
            ("B", "C", 8.012744652063969),
        ],
    )
    m = space.matrix

    def at(tolerance):
        return SigmaSpace(space.points, m, tolerance=tolerance)

    # Four-term gap 9.524358046588722, range one ulp above it: no single
    # probe fails, so the witness is the widest four-term gap.
    tight = at(9.524358046588722)
    v, w = Vector("A", "A"), Vector("A", "C")
    assert brute_force_equivalent(tight, v, w)
    witness = equivalent(tight, v, w)
    assert not witness.equivalent
    ce = witness.counterexample
    assert abs(ce.lhs - ce.rhs) == tight.tolerance
    # Range one ulp below the four-term gap: the fast path agrees.
    loose = at(6.501131257539215)
    assert equivalent(loose, Vector("A", "C"), Vector("B", "C")).equivalent
    assert not brute_force_equivalent(loose, Vector("A", "C"), Vector("B", "C"))
    # Null vectors have identical zero rows, while the four-term sums
    # leave 4.4e-16; at zero tolerance only the oracle separates them.
    exact = at(0.0)
    assert equivalent(exact, Vector("A", "A"), Vector("C", "C")).equivalent
    assert not brute_force_equivalent(exact, Vector("A", "A"), Vector("C", "C"))
    null = tuple(Vector(p, p) for p in exact.points)
    assert equivalence_classes(exact).class_of(Vector("A", "A")) == null


def test_equivalence_is_transitive_on_exact_spaces():
    rng = np.random.default_rng(25)
    for trial in range(5):
        space = make_table(rng, 4, integer=True)
        vectors = all_vectors(space)
        related = {
            (v, w): equivalent(space, v, w).equivalent
            for v in vectors
            for w in vectors
        }
        for u in vectors:
            assert related[(u, u)]
            for v in vectors:
                assert related[(u, v)] == related[(v, u)]
                for w in vectors:
                    if related[(u, v)] and related[(v, w)]:
                        assert related[(u, w)]


def test_boundary_space_falls_back_to_union_find():
    # Unit steps of 1, 1 + e/4 and 1 + e/2: adjacent steps agree within
    # tolerance but the ends differ, so the relation is not transitive
    # and only the explicit closure can report it honestly.
    e = 1e-9
    space = build_coordinate_space(
        {"a": (0.0,), "b": (1.0,), "c": (2.0 + e / 4,), "d": (3.0 + 3 * e / 4,)}
    )
    v1, v2, v3 = Vector("a", "b"), Vector("b", "c"), Vector("c", "d")
    assert equivalent(space, v1, v2).equivalent
    assert equivalent(space, v2, v3).equivalent
    assert not equivalent(space, v1, v3).equivalent
    partition = equivalence_classes(space)
    assert partition.method == "union-find"
    assert not partition.coherent
    assert partition.class_of(v1) == (v1, v2, v3)
    assert len(partition) == 9


def test_class_of_unknown_vector_raises(grid22):
    partition = equivalence_classes(grid22)
    with pytest.raises(KeyError):
        partition.class_of(Vector("nope", "nope"))


def test_displacement_criterion_exhaustive(grid22):
    # The 2x2 grid's displacements span the plane, so equivalence must
    # coincide exactly with equality of displacement vectors.
    def displacement(v):
        origin = grid22.coordinates(v.origin)
        end = grid22.coordinates(v.end)
        return tuple(e - o for o, e in zip(origin, end))

    vectors = all_vectors(grid22)
    for v, w in itertools.product(vectors, repeat=2):
        assert equivalent(grid22, v, w).equivalent == (
            displacement(v) == displacement(w)
        )


def _groups(inverse):
    """Row indices grouped by representative, independent of group order."""
    groups: dict[int, list[int]] = {}
    for k, g in enumerate(np.ravel(inverse).tolist()):
        groups.setdefault(g, []).append(k)
    return sorted(groups.values())


def _assert_same_partition_as_numpy(rows):
    reps, inverse, counts = _unique_rows(rows)
    _, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert _groups(inverse) == _groups(ref_inverse)
    assert counts.tolist() == np.bincount(inverse, minlength=len(reps)).tolist()
    assert np.array_equal(reps[inverse], rows)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 12), st.integers(1, 3).map(lambda h: 2 * h)),
        elements=st.sampled_from([0.0, -0.0, 1.0, -2.5, np.inf, np.nan]),
    )
)
def test_unique_rows_matches_numpy_unique(rows):
    # Few distinct values make repeated rows common; _unique_rows takes
    # finite rows, and dropping the others often leaves nothing at all.
    finite = rows[np.isfinite(rows).all(axis=1)]
    _assert_same_partition_as_numpy(finite)


def test_unique_rows_of_no_rows():
    rows = np.full((4, 6), np.inf)
    reps, inverse, counts = _unique_rows(rows[np.isfinite(rows).all(axis=1)])
    assert reps.shape == (0, 6) and len(inverse) == 0 and len(counts) == 0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_negative_zero_diagonal_changes_no_result(data):
    # σ(P, P) = -0.0 next to σ(P, Q) = 0 puts -0.0 into fingerprint rows
    # that np.unique(axis=0) groups with +0.0; the byte key must too.
    n = data.draw(st.integers(2, 4))
    labels = [f"P{i}" for i in range(n)]
    values = st.sampled_from([0.0, 1.0, 2.0, 4.0])
    entries = [
        (labels[i], labels[j], data.draw(values))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    signed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    diagonal = [(p, p, -0.0 if neg else 0.0) for p, neg in zip(labels, signed)]
    space = build_finite_table(labels, entries + diagonal)
    plain = build_finite_table(labels, entries)
    _assert_same_partition_as_numpy(_probe_rows(space))
    assert equivalence_classes(space) == equivalence_classes(plain)
    coeffs = [Coefficients(1.0, 1.0), Coefficients(2.0, -1.0)]
    assert survey_linearity(space, coeffs) == survey_linearity(plain, coeffs)


def test_negative_zero_reaches_the_fingerprint_rows():
    space = build_finite_table(
        ["A", "B", "C"],
        [("B", "B", -0.0), ("A", "B", 0.0), ("A", "C", 4.0), ("B", "C", 4.0)],
    )
    rows = _probe_rows(space)
    assert ((rows == 0) & np.signbit(rows)).any()
    _assert_same_partition_as_numpy(rows)


def test_reversed_vectors_and_negated_rows_keep_their_own_groups():
    # The row of a reversed vector is the exact negation of the forward
    # row. A weighted sum of raw words hashes a row with an even number
    # of nonzero floats like its negation; the mixed words must not, so
    # that such rows stay apart without a collision to resolve.
    row_hashes, hashed = equivalence._row_hashes, []

    def kept(words):
        hashed.append(row_hashes(words))
        return hashed[-1]

    rng = np.random.default_rng(94)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equivalence, "_row_hashes", kept)
        for space in (make_table(rng, 5), make_table(rng, 6, symmetric=False)):
            n = len(space)
            rows = _probe_rows(space)
            reverse = np.arange(n * n).reshape(n, n).T.ravel()
            assert np.array_equal(rows[reverse], -rows)
            negated = np.stack((rows, -rows), axis=1).reshape(-1, rows.shape[1])
            for case in (rows, negated, negated[rng.permutation(len(negated))]):
                _assert_same_partition_as_numpy(case)
                distinct = len(_unique_rows(case)[0])
                assert len(np.unique(hashed[-1])) == distinct  # no collision


def test_rows_one_ulp_or_a_zero_sign_apart():
    # One ulp apart in one word: distinct rows. Apart only in the sign
    # of a zero: one row, which np.unique(axis=0) groups too.
    rng = np.random.default_rng(95)
    base = rng.uniform(-4.0, 4.0, size=(6, 8))
    base[:, [0, 3]] = 0.0
    up, down = base.copy(), base.copy()
    up[:, 5] = np.nextafter(up[:, 5], np.inf)
    down[:, 5] = np.nextafter(down[:, 5], -np.inf)
    signed = base.copy()
    signed[:, [0, 3]] = -0.0
    for rows in (
        np.concatenate((base, up, down)),
        np.concatenate((base, signed, base)),
        np.concatenate((signed, up, base, down, signed)),
    ):
        _assert_same_partition_as_numpy(rows)
        _assert_same_partition_as_numpy(rows[rng.permutation(len(rows))])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_unique_rows_of_up_to_64_rows_matches_numpy_unique(data):
    # Rows drawn from a few base rows, some negated, some with one word
    # nudged by an ulp or a zero's sign flipped: many repeats and near
    # repeats.
    width = 2 * data.draw(st.integers(1, 8))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -3.75e8]),
        st.floats(-1e6, 1e6),
    )
    bases = data.draw(
        st.lists(st.lists(value, min_size=width, max_size=width), min_size=1, max_size=5)
    )
    rows = []
    for _ in range(data.draw(st.integers(0, 64))):
        row = np.array(data.draw(st.sampled_from(bases)))
        edit = data.draw(st.sampled_from(["same", "negate", "ulp", "zero"]))
        column = data.draw(st.integers(0, width - 1))
        if edit == "negate":
            row = -row
        elif edit == "ulp":
            row[column] = np.nextafter(row[column], np.inf)
        elif edit == "zero" and row[column] == 0.0:
            row[column] = -row[column]
        rows.append(row)
    _assert_same_partition_as_numpy(np.array(rows).reshape(-1, width))


@pytest.mark.parametrize(
    "forced",
    [
        lambda words: np.zeros(len(words), np.uint64),
        lambda words: words[:, -1].copy(),
    ],
    ids=["one-group", "last-word"],
)
def test_hash_collisions_are_split_bytewise(forced):
    # A forced hash puts unequal rows into one group: the bytewise proof
    # must find them and the collision rule split them as np.unique does.
    calls = []

    def counted(words):
        calls.append(len(words))
        return forced(words)

    rng = np.random.default_rng(96)
    inputs = [
        _probe_rows(make_table(rng, 4, symmetric=False)),
        _probe_rows(build_grid_space(GridSpec(dim=2, size=3))),
        rng.integers(-2, 3, size=(64, 6)).astype(float),
        np.where(rng.random((40, 4)) < 0.5, 0.0, -0.0),
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equivalence, "_row_hashes", counted)
        for rows in inputs:
            _assert_same_partition_as_numpy(rows)
        distinct = [len(_unique_rows(rows)[0]) for rows in inputs]
    # Every call hashed through the forced hash, and unequal rows shared
    # it in all inputs but the signed zeros, which are one row.
    assert len(calls) == 2 * len(inputs)
    assert min(distinct[:-1]) > 1 and distinct[-1] == 1


def test_splitting_column_counts_gaps_wider_than_the_tolerance():
    low = np.zeros((4, 3))
    high = np.array(
        [
            [0.0, 0.0, 0.75],  # one gap
            [0.5, -0.5, 0.5],  # gaps of exactly eps: none counts
            [0.75, 0.0, -0.75],  # two gaps, either sign
            [0.0, -1.0, 2.0],  # two gaps: a tie goes to the row before
        ]
    )
    assert _splitting_column(low, high, 0.5) == 2
    assert _splitting_column(low[::-1], high[::-1], 0.5) == 0
    assert _splitting_column(low, high, 0.0) == 1
    assert _splitting_column(low[:, :0], high[:, :0], 0.5) == 0
    # No pairs at all give row 0: a 1-point space has one distinct row,
    # so neither key has pairs to count, and on random tables no two
    # neighbours in key order lie within eps, so the second key has none.
    seen = []

    def spy(low, high, eps):
        seen.append((low.shape[1], _splitting_column(low, high, eps)))
        return seen[-1][1]

    rng = np.random.default_rng(98)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equivalence, "_splitting_column", spy)
        _fingerprint_index(SigmaSpace(["A"], [[0.0]]))
        _fingerprint_index(make_table(rng, 5, symmetric=True))
        _fingerprint_index(make_table(rng, 5, symmetric=False))
    assert seen[:2] == [(0, 0), (0, 0)]
    assert seen[3] == seen[5] == (0, 0) and seen[2][0] > 0 and seen[4][0] > 0


def _window_sizes(values, eps):
    """Sum over the values of how many values lie within eps of each."""
    values = np.sort(values)
    within = np.searchsorted(values, values + eps, "right")
    return int((within - np.searchsorted(values, values - eps, "left")).sum())


def test_sort_key_keeps_windows_narrow_on_a_deformed_grid():
    # On a deformed grid every column holds as many distinct values as
    # there are rows, so a count of distinct values cannot rank the
    # columns; gaps wider than eps can. The key's ε-windows hold under
    # half the window-mates of the column with the most distinct values.
    # On the exact grid the two rules pick the same column.
    exact = build_grid_space(GridSpec(dim=2, size=4, deleted=frozenset({(1, 2)})))
    deformed = perturbed_grid(np.random.default_rng(93), 4, 0.25, {(1, 2)})
    sums = []
    for space in (exact, deformed):
        reps, keys, _, _ = _fingerprint_index(space)
        distinct = [len(np.unique(column)) for column in reps]
        most = reps[int(np.argmax(distinct))]
        sums.append([_window_sizes(k, space.tolerance) for k in (keys[0], most)])
    assert sums[0] == [95, 95]
    assert 2 * sums[1][0] < sums[1][1]


def _patched_results(space, forced=None):
    # forced = (call, column): in every index build, the _splitting_column
    # call that picks the key (call 0) or the second key (call 1) returns
    # column instead.
    coeffs = [Coefficients(1.0, 1.0), Coefficients(2.0, -1.0)]
    calls = itertools.count()

    def chosen(low, high, eps):
        picked = _splitting_column(low, high, eps)
        return forced[1] if next(calls) % 2 == forced[0] else picked

    with pytest.MonkeyPatch.context() as patch:
        if forced is not None:
            patch.setattr(equivalence, "_splitting_column", chosen)
        partition = equivalence_classes(space)
        survey = survey_linearity(space, coeffs)
        reps, keys, _, _ = _fingerprint_index(space)
    if forced is not None:
        assert next(calls) == 6
        _assert_same_floats(keys[forced[0]], reps[forced[1]])
    return partition.classes, partition.method, partition.coherent, survey


@pytest.mark.parametrize("call", [0, 1], ids=["key", "second-key"])
def test_results_do_not_depend_on_the_key_columns(call):
    # Every column the rows carry as the sort key, and separately as the
    # second key, even an all-zero one or the key itself, gives the same
    # partition and survey: the keys change only the speed of a join.
    # The symmetric grid's rows carry n columns, the asymmetric spaces' 2n.
    rng = np.random.default_rng(97)
    spaces = [
        (build_grid_space(GridSpec(dim=2, size=3)), 1),
        (perturbed_grid(np.random.default_rng(93), 3, 0.25), 2),
        (make_table(rng, 5, symmetric=False), 2),
    ]
    for space, halves in spaces:
        width = _fingerprint_index(space)[0].shape[0]
        assert width == halves * len(space)
        expected = _patched_results(space)
        for column in range(width):
            assert _patched_results(space, (call, column)) == expected, column
    # The perturbed grid takes the closure path, the random table not.
    assert _patched_results(spaces[1][0])[1] == "union-find"
    assert _patched_results(spaces[2][0])[1] == "fingerprint-buckets"


def _class_digest(partition):
    return hashlib.sha256(repr(partition.classes).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "make, classes, method, coherent, digest, counts",
    [
        (
            lambda: perturbed_grid(
                np.random.default_rng(93), 4, 0.25, deleted={(1, 2)}
            ),
            109,
            "union-find",
            False,
            "42bbe5bbe28ba1fc",
            [(21803, 6525), (4301, 0)],
        ),
        (
            lambda: make_table(np.random.default_rng(91), 9, symmetric=False),
            73,
            "fingerprint-buckets",
            True,
            "b7cd4e0074f8a39c",
            [(2457, 1377), (801, 0)],
        ),
    ],
    ids=["perturbed-grid", "random-asymmetric"],
)
def test_partition_and_survey_pinned(make, classes, method, coherent, digest, counts):
    # Values recorded from the np.unique(axis=0), row-major implementation;
    # the representatives' order may change, these results may not.
    space = make()
    partition = equivalence_classes(space)
    assert (len(partition), partition.method, partition.coherent) == (
        classes,
        method,
        coherent,
    )
    assert _class_digest(partition) == digest
    coeffs = [Coefficients(1.0, 1.0), Coefficients(2.0, -1.0)]
    rows = survey_linearity(space, coeffs).rows
    total = len(space) ** 4
    assert [(r.solvable, r.guaranteed) for r in rows] == counts
    assert all(r.total_pairs == total for r in rows)
    assert all(r.unsolvable == total - r.solvable for r in rows)
