"""Spans around calls into tgeom's public functions, recorded from outside.

The tracer replaces module attributes with timing wrappers while it is
installed. A function is wrapped under every name its callers look it up
by: ``tgeom.cli`` imports names directly, so ``tgeom.cli.survey_linearity``
is wrapped as well as ``tgeom.linear.survey_linearity``. Calls a module
makes to its own private helpers (``_fingerprint_matrix`` and the like)
are not visible here, so the phases inside one public function are not
separated.

Each span holds name, start, end, parent span and op id. Spans stay in
memory and are written once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

FIELDS = ("name", "start", "end", "parent", "op")


def _count_parse(counts, args, result):
    counts["tablefile.bytes_read"] += os.path.getsize(args[0])


def _count_format(counts, args, result):
    counts["tablefile.bytes_written"] += len(result.encode("utf-8"))


def _count_build(counts, args, result):
    counts["space.points"] += len(result)


def _count_identities(counts, args, result):
    counts["vectors.identities_tuples"] += result.checked


def _count_classes(counts, args, result):
    n = len(args[0])
    counts["equivalence.classes_count"] += len(result)
    counts["equivalence.union_find_runs"] += result.method == "union-find"
    # 2·n² probe responses for each of the n² vectors, 8 bytes each.
    counts["equivalence.fingerprint_bytes_computed"] += 16 * n**4


def _count_survey(counts, args, result):
    counts["linear.survey_pairs"] += sum(row.total_pairs for row in result.rows)
    counts["linear.survey_solvable"] += sum(row.solvable for row in result.rows)


def _count_solve(counts, args, result):
    counts["linear.solve_solutions"] += len(result.solutions)
    counts["linear.solve_hits"] += bool(result.solutions)
    counts["linear.solve_requests"] += 1


# (span name, names callers look the function up by, counter or None)
SPANS = (
    ("cli.main", ("tgeom.cli.main",), None),
    (
        "tablefile.parse",
        ("tgeom.tablefile.parse_table_file", "tgeom.cli.parse_table_file"),
        _count_parse,
    ),
    (
        "tablefile.format",
        ("tgeom.tablefile.format_space", "tgeom.cli.format_space"),
        _count_format,
    ),
    (
        "space.build",
        (
            "tgeom.space.build_grid_space",
            "tgeom.cli.build_grid_space",
            "tgeom.space.build_coordinate_space",
            "tgeom.space.build_finite_table",
            "tgeom.cli.build_finite_table",
        ),
        _count_build,
    ),
    (
        "vectors.identities",
        ("tgeom.vectors.verify_identities", "tgeom.cli.verify_identities"),
        _count_identities,
    ),
    (
        "equivalence.equivalent",
        ("tgeom.equivalence.equivalent", "tgeom.cli.equivalent"),
        None,
    ),
    ("equivalence.classes", ("tgeom.equivalence.equivalence_classes",), _count_classes),
    (
        "linear.survey",
        ("tgeom.linear.survey_linearity", "tgeom.cli.survey_linearity"),
        _count_survey,
    ),
    (
        "linear.solve",
        ("tgeom.linear.solve_combination", "tgeom.cli.solve_combination"),
        _count_solve,
    ),
)

# Per-layer metric: (name, unit). Every value is per op of the traced
# phase, except the hit ratio (per solve call) and the overhead.
PER_LAYER = (
    ("linear.survey_ms", "ms"),
    ("linear.survey_pairs", "count"),
    ("linear.survey_solvable", "count"),
    ("linear.solve_ms", "ms"),
    ("linear.solve_calls", "count"),
    ("linear.solve_solutions", "count"),
    ("linear.solve_hit_ratio", "ratio"),
    ("equivalence.classes_ms", "ms"),
    ("equivalence.classes_count", "count"),
    ("equivalence.union_find_runs", "count"),
    ("equivalence.fingerprint_bytes_computed", "bytes"),
    ("equivalence.equivalent_ms", "ms"),
    ("equivalence.equivalent_calls", "count"),
    ("tablefile.parse_ms", "ms"),
    ("tablefile.bytes_read", "bytes"),
    ("tablefile.format_ms", "ms"),
    ("tablefile.bytes_written", "bytes"),
    ("space.build_ms", "ms"),
    ("space.build_calls", "count"),
    ("space.points", "count"),
    ("vectors.identities_ms", "ms"),
    ("vectors.identities_tuples", "count"),
    ("cli.main_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

# Per-layer metrics that are a span's busy time or call count.
_TIMED = {
    "linear.survey_ms": "linear.survey",
    "linear.solve_ms": "linear.solve",
    "equivalence.classes_ms": "equivalence.classes",
    "equivalence.equivalent_ms": "equivalence.equivalent",
    "tablefile.parse_ms": "tablefile.parse",
    "tablefile.format_ms": "tablefile.format",
    "space.build_ms": "space.build",
    "vectors.identities_ms": "vectors.identities",
    "cli.main_ms": "cli.main",
}
_CALLS = {
    "linear.solve_calls": "linear.solve",
    "equivalence.equivalent_calls": "equivalence.equivalent",
    "space.build_calls": "space.build",
}

# Per-layer metrics that the counters above accumulate.
_COUNTED = (
    "linear.survey_pairs",
    "linear.survey_solvable",
    "linear.solve_solutions",
    "equivalence.classes_count",
    "equivalence.union_find_runs",
    "equivalence.fingerprint_bytes_computed",
    "tablefile.bytes_read",
    "tablefile.bytes_written",
    "space.points",
    "vectors.identities_tuples",
)


class Tracer:
    """Records spans and counts while installed; restores every name after."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._nested: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, lookups, counter in SPANS:
            for qualified in lookups:
                module_name, attr = qualified.rsplit(".", 1)
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(name, original, counter))
                self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            # A call made inside a span of the same name (build_grid_space
            # calling build_coordinate_space) is not counted twice.
            if self._open[name]:
                self._nested.add(idx)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
            self._stack.append(idx)
            self._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                self.spans[idx][1:3] = [start, end]
            if counter is not None and idx not in self._nested:
                counter(self.counts, args, result)
            return result

        return traced

    def layer_metrics(self, ops: int, overhead_ms: float) -> dict[str, float]:
        """Per-layer metrics averaged over ``ops`` traced ops."""
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time: dict[int, float] = defaultdict(float)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
            if idx in self._nested:
                continue
            busy[name] += end - start
            calls[name] += 1
        cli_self = sum(
            (end - start) - child_time[idx]
            for idx, (name, start, end, _, _) in enumerate(self.spans)
            if name == "cli.main"
        )
        requests = self.counts["linear.solve_requests"]
        out = {metric: 1e3 * busy[span] / ops for metric, span in _TIMED.items()}
        out.update({metric: calls[span] / ops for metric, span in _CALLS.items()})
        out.update({metric: self.counts[metric] / ops for metric in _COUNTED})
        out["linear.solve_hit_ratio"] = (
            self.counts["linear.solve_hits"] / requests if requests else 0.0
        )
        out["cli.self_ms"] = 1e3 * cli_self / ops
        out["trace.overhead_ms"] = overhead_ms
        return {metric: out[metric] for metric, _ in PER_LAYER}

    def dump(self, path, header: dict) -> None:
        record = dict(header, fields=FIELDS, spans=self.spans)
        path.write_text(json.dumps(record), encoding="utf-8")
