"""The four benchmark workloads.

Each workload makes its inputs from the seed and exposes:

- ``setup()``: input generation, timed as part of ``setup_s``;
- ``prepare()``: expected answers from :mod:`reference`, untimed;
- ``request(k)``: the input of op ``k``, made outside the timed region;
- ``op(request)``: the timed call into tgeom;
- ``expected(request)`` and ``observe(request, output)``: values that
  must compare equal for the op to count as correct.

tgeom functions are always looked up as module attributes at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import random

import numpy as np

import reference
from tgeom import cli, equivalence, linear, space, tablefile, vectors


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``tgeom.cli.main`` in-process; return exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class SurveyGrid:
    """``tgeom survey`` on a saved 4×4 grid with one interior cell deleted."""

    COEFFS = (("1", "1"), ("2", "-1"))
    HEADER = "alpha,beta,total_pairs,solvable,guaranteed,unsolvable"

    def __init__(self, seed: int, workdir, tiny: bool):
        size = 3 if tiny else 4
        interior = [(x, y) for x in range(1, size - 1) for y in range(1, size - 1)]
        self.points = reference.grid_points(size, [random.Random(seed).choice(interior)])
        self.path = workdir / "survey.sigma"
        self.argv = ["survey", str(self.path)]
        for alpha, beta in self.COEFFS:
            self.argv += ["--coeffs", f"{alpha},{beta}"]

    def setup(self) -> None:
        reference.write_grid_file(self.path, self.points)

    def prepare(self) -> None:
        index = reference.DisplacementIndex(self.points)
        self.rows = reference.survey_rows(index, self.COEFFS)

    def request(self, k: int):
        return self.argv

    def op(self, argv):
        return run_cli(argv)

    def expected(self, argv):
        return (0, self.HEADER, self.rows)

    def observe(self, argv, output):
        code, text = output
        header, *lines = text.splitlines()
        rows = []
        for line in lines:
            alpha, beta, *counts = line.split(",")
            rows.append((float(alpha), float(beta), *map(int, counts)))
        return (code, header, tuple(rows))


class ClassesRandom:
    """``equivalence_classes`` on a fresh random asymmetric table per op."""

    def __init__(self, seed: int, workdir, tiny: bool):
        self.seed = seed
        self.n = 6 if tiny else 32
        self.labels = [f"P{i}" for i in range(self.n)]

    def _table(self, k: int):
        rng = random.Random(f"classes-random:{self.seed}:{k}")
        m = np.array(
            [[0.0 if i == j else rng.uniform(0.0, 10.0) for j in range(self.n)]
             for i in range(self.n)]
        )
        return space.SigmaSpace(self.labels, m)

    def setup(self) -> None:
        self.first = self._table(0)

    def prepare(self) -> None:
        n = self.n
        null_class = tuple(sorted((p, p) for p in self.labels))
        # Random values are generic: the null vectors form one class and
        # every other vector is alone in its own.
        self.answer = (n * n - n + 1, True, null_class, n * n - n)

    def request(self, k: int):
        return self.first if k == 0 else self._table(k)

    def op(self, table):
        return equivalence.equivalence_classes(table)

    def expected(self, table):
        return self.answer

    def observe(self, table, partition):
        classes = [tuple(map(tuple, cls)) for cls in partition.classes]
        null = self.labels[0]
        null_class = next((cls for cls in classes if (null, null) in cls), ())
        singletons = sum(len(cls) == 1 for cls in classes)
        return (len(classes), partition.coherent, null_class, singletons)


class Queries:
    """One ``solve_combination`` per request on a 40-point grid loaded once."""

    # 7×7 minus nine cells leaves 40 points, exactly the search limit.
    DELETED = ((3, 2), (5, 4), (6, 6), (0, 6), (2, 5), (4, 1), (1, 3), (6, 0), (3, 4))
    COEFFS = ((1, 1), (1, -1), (2, -1), (0.5, 0.5), (2, 3), (-1, 2))

    def __init__(self, seed: int, workdir, tiny: bool):
        if tiny:
            self.points = reference.grid_points(4, [(1, 2), (2, 1)])
        else:
            self.points = reference.grid_points(7, self.DELETED)
        self.labels = [label for label, _ in self.points]
        self.rng = random.Random(seed)
        self.path = workdir / "queries.sigma"

    def setup(self) -> None:
        reference.write_grid_file(self.path, self.points)
        self.space = tablefile.load_space(self.path)

    def prepare(self) -> None:
        self.index = reference.DisplacementIndex(self.points)

    def request(self, k: int):
        alpha, beta = self.rng.choice(self.COEFFS)
        v, w = ((self.rng.choice(self.labels), self.rng.choice(self.labels))
                for _ in range(2))
        return (linear.Coefficients(alpha, beta), vectors.Vector(*v), vectors.Vector(*w))

    def op(self, req):
        return linear.solve_combination(self.space, *req)

    def expected(self, req):
        c, v, w = req
        return self.index.solutions(c.alpha, c.beta, v, w)

    def observe(self, req, result):
        return tuple(map(tuple, result.solutions))


class TableIO:
    """One CLI cycle: write a 24×24 grid, check it, equiv on it, check a small
    asymmetric file, which runs the identity sweep."""

    def __init__(self, seed: int, workdir, tiny: bool):
        self.size = 4 if tiny else 24
        self.n_asym = 4 if tiny else 12
        self.seed = seed
        self.rng = random.Random(seed)
        self.points = reference.grid_points(self.size)
        self.grid_path = workdir / "grid.sigma"
        self.asym_path = workdir / "asym.sigma"
        self.grid_bytes = None

    def setup(self) -> None:
        rng = random.Random(f"table-io:{self.seed}")
        labels = [f"A{i}" for i in range(self.n_asym)]
        reference.write_asymmetric_file(
            self.asym_path, labels, lambda i, j: rng.uniform(0.0, 10.0)
        )

    def prepare(self) -> None:
        self.matrix = reference.grid_matrix(self.points).tobytes()
        built = space.build_grid_space(space.GridSpec(dim=2, size=self.size))
        self.built_matches = built.matrix.tobytes() == self.matrix
        self.head = (
            (0, f"wrote {self.grid_path} ({len(self.points)} points)\n"),
            (0, reference.check_output(self.grid_path, len(self.points), True)),
        )
        self.tail = (0, reference.check_output(self.asym_path, self.n_asym, False))

    def request(self, k: int):
        # Each op writes a new file, for the reason given in reference._write.
        self.grid_path.unlink(missing_ok=True)
        return tuple(self.rng.choice(self.points)[0] for _ in range(4))

    def op(self, labels):
        grid, asym = str(self.grid_path), str(self.asym_path)
        return (
            run_cli(["grid", "--dim", "2", "--size", str(self.size), "--out", grid]),
            run_cli(["check", grid]),
            run_cli(["equiv", grid, *labels]),
            run_cli(["check", asym]),
        )

    def expected(self, labels):
        equiv = reference.equiv_output(self.points, labels[:2], labels[2:])
        return (*self.head, equiv, self.tail, True)

    def observe(self, labels, outputs):
        return (*outputs, self._grid_file_ok())

    def _grid_file_ok(self) -> bool:
        """The written grid re-parses to the reference matrix, bit for bit.

        The first good file is parsed in full; later ones must repeat its
        bytes exactly.
        """
        with open(self.grid_path, "rb") as handle:
            data = handle.read()
        if self.grid_bytes is not None:
            return data == self.grid_bytes
        labels, tolerance, matrix = reference.read_table_matrix(self.grid_path)
        ok = (
            self.built_matches
            and labels == [label for label, _ in self.points]
            and tolerance == reference.DEFAULT_TOLERANCE_TEXT
            and matrix.tobytes() == self.matrix
        )
        if ok:
            self.grid_bytes = data
        return ok


WORKLOADS = {
    "survey-grid": SurveyGrid,
    "classes-random": ClassesRandom,
    "queries": Queries,
    "table-io": TableIO,
}
