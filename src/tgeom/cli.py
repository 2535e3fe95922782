"""Command-line surface.

Exit codes are a stable scripting contract:
    0  success
    1  input error (parse failure, unknown label, invalid request)
    2  validation or identity violations
    3  vectors not equivalent
    4  combination has no solution
    5  search or identity limit exceeded

All output is deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from . import __version__
from .equivalence import equivalent
from .errors import SearchLimitExceeded, TableParseError, TgeomError
from .linear import (
    SEARCH_LIMIT,
    Coefficients,
    solve_combination,
    survey_linearity,
)
from .space import (
    DEFAULT_TOLERANCE,
    GridSpec,
    build_finite_table,
    build_grid_space,
    checked_tolerance,
    is_symmetric,
)
from .tablefile import (
    format_space,
    load_space,
    parse_table_file,
    space_from_parsed,
    validation_problems,
)
from .vectors import IDENTITY_CHECK_LIMIT, Vector, scalar_product, verify_identities

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATIONS = 2
EXIT_NOT_EQUIVALENT = 3
EXIT_NO_SOLUTION = 4
EXIT_LIMIT = 5


def _emit(text: str, out: str | None, note: str | None = None) -> None:
    """Print text, or write it to out and print the note, if any, instead."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
        if note:
            sys.stdout.write(f"wrote {out} ({note})\n")
    else:
        sys.stdout.write(text)


def _load(args):
    return load_space(args.file, tolerance=args.tolerance)


def _limit(args) -> int | None:
    return None if args.force else args.limit


def cmd_check(args) -> int:
    parsed = parse_table_file(args.file, args.tolerance)
    problems = validation_problems(parsed)
    lines = [
        f"file: {args.file}",
        f"points: {len(parsed.labels)}",
        f"tolerance: {parsed.tolerance!r}",
    ]
    if problems:
        lines.append(f"diagonal/finiteness: {len(problems)} violation(s)")
        lines.extend("  " + p for p in problems)
        lines.append("identities: not checked (table invalid)")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_VIOLATIONS

    space = space_from_parsed(parsed)
    lines.append("diagonal/finiteness: ok")
    lines.append(f"symmetric: {'yes' if is_symmetric(space) else 'no'}")
    violation_count = 0
    try:
        report = verify_identities(space)
    except SearchLimitExceeded:
        lines.append(f"identities: skipped ({len(space)} points > {IDENTITY_CHECK_LIMIT})")
    else:
        violation_count = len(report.violations)
        note = f"identities: {violation_count} violation(s), {report.checked} tuples checked"
        if report.skipped:
            note += f" (skipped: {', '.join(report.skipped)})"
        lines.append(note)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_VIOLATIONS if violation_count else EXIT_OK


def cmd_dot(args) -> int:
    space = _load(args)
    value = scalar_product(space, Vector(args.p0, args.p1), Vector(args.q0, args.q1))
    _emit(f"{value!r}\n", args.out)
    return EXIT_OK


def cmd_equiv(args) -> int:
    space = _load(args)
    witness = equivalent(space, Vector(args.p0, args.p1), Vector(args.r0, args.r1))
    if witness.equivalent:
        _emit("equivalent\n", args.out)
        return EXIT_OK
    ce = witness.counterexample
    _emit(
        "not equivalent\n"
        f"probe: Q0={ce.probe_origin} Q1={ce.probe_end} side={ce.side} "
        f"lhs={ce.lhs!r} rhs={ce.rhs!r}\n",
        args.out,
    )
    return EXIT_NOT_EQUIVALENT


def cmd_combine(args) -> int:
    space = _load(args)
    coeffs = Coefficients(args.alpha, args.beta)
    v = Vector(args.p0, args.p1)
    w = Vector(args.r0, args.r1)
    result = solve_combination(space, coeffs, v, w, limit=_limit(args))
    if args.format == "csv":
        lines = ["origin,end"] + [f"{s.origin},{s.end}" for s in result.solutions]
    else:
        lines = []
        if result.guaranteed is not None:
            lines.append(f"guaranteed case: {result.guaranteed.value}")
        lines.append(f"solutions: {len(result.solutions)}")
        lines.extend(f"{s.origin} -> {s.end}" for s in result.solutions)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if result.solutions else EXIT_NO_SOLUTION


def cmd_grid(args) -> int:
    deleted = frozenset(tuple(int(c) for c in cell.split(",")) for cell in args.delete)
    spec = GridSpec(dim=args.dim, size=args.size, deleted=deleted)
    space = build_grid_space(spec, tolerance=args.tolerance)
    _emit(format_space(space), args.out, f"{len(space)} points")
    return EXIT_OK


def cmd_survey(args) -> int:
    space = _load(args)
    coeff_list = []
    for spec in args.coeffs:
        parts = spec.split(",")
        if len(parts) != 2:
            raise ValueError(f"--coeffs expects 'alpha,beta', got {spec!r}")
        coeff_list.append(Coefficients(float(parts[0]), float(parts[1])))
    report = survey_linearity(space, coeff_list, limit=_limit(args))
    if args.format == "human":
        lines = [f"{'alpha':>8} {'beta':>8} {'total':>8} {'solvable':>9} "
                 f"{'guaranteed':>11} {'unsolvable':>11}"]
        for row in report.rows:
            lines.append(
                f"{row.alpha!r:>8} {row.beta!r:>8} {row.total_pairs:>8} "
                f"{row.solvable:>9} {row.guaranteed:>11} {row.unsolvable:>11}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(report.to_csv(), args.out)
    return EXIT_OK


def cmd_identities(args) -> int:
    space = _load(args)
    report = verify_identities(space, limit=_limit(args))
    lines = [
        f"checked: {report.checked} tuples",
        f"violations: {len(report.violations)}",
    ]
    for violation in report.violations:
        lines.append(
            f"  {violation.identity} at ({', '.join(violation.points)}): "
            f"lhs={violation.lhs!r} rhs={violation.rhs!r}"
        )
    if report.skipped:
        lines.append(
            f"skipped: {', '.join(report.skipped)} (asymmetric world function)"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_VIOLATIONS if report.violations else EXIT_OK


def cmd_random(args) -> int:
    rng = random.Random(args.seed)
    labels = [f"P{i}" for i in range(args.points)]
    entries = []
    for i in range(args.points):
        for j in range(i + 1, args.points):
            value = rng.uniform(args.low, args.high)
            entries.append((labels[i], labels[j], value))
            if args.asymmetric:
                entries.append((labels[j], labels[i], rng.uniform(args.low, args.high)))
    space = build_finite_table(labels, entries)
    _emit(format_space(space), args.out, f"{len(space)} points, seed {args.seed}")
    return EXIT_OK


def _tolerance(text: str) -> float:
    try:
        return checked_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgeom",
        description="Inspect finite σ-spaces: world-function tables, scalar "
        "products, vector equivalence and restricted linear structure.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, limit=None, fmt=None):
        p.add_argument("--tolerance", type=_tolerance, default=None,
                       help="override the comparison tolerance (>= 0)")
        p.add_argument("--out", default=None, help="write output to a file")
        if limit is not None:
            p.add_argument("--limit", type=_positive_int, default=limit,
                           help=f"exhaustive-search point limit (default {limit})")
            p.add_argument("--force", action="store_true",
                           help="run even when the limit is exceeded")
        if fmt is not None:
            p.add_argument("--format", choices=("human", "csv"), default=fmt)

    p = sub.add_parser("check", help="validate a table file")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dot", help="scalar product of two point pairs")
    p.add_argument("file")
    p.add_argument("p0")
    p.add_argument("p1")
    p.add_argument("q0")
    p.add_argument("q1")
    add_common(p)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("equiv", help="decide equivalence of two vectors")
    p.add_argument("file")
    p.add_argument("p0")
    p.add_argument("p1")
    p.add_argument("r0")
    p.add_argument("r1")
    add_common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("combine", help="solve alpha*v + beta*w exhaustively")
    p.add_argument("file")
    p.add_argument("alpha", type=float)
    p.add_argument("beta", type=float)
    p.add_argument("p0")
    p.add_argument("p1")
    p.add_argument("r0")
    p.add_argument("r1")
    add_common(p, limit=SEARCH_LIMIT, fmt="human")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("grid", help="write a grid space as a table file")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--size", type=_positive_int, required=True)
    p.add_argument("--delete", action="append", default=[], metavar="X,Y",
                   help="grid cell to delete (repeatable)")
    add_common(p)
    p.set_defaults(func=cmd_grid, tolerance=DEFAULT_TOLERANCE)

    p = sub.add_parser("survey", help="per-coefficient solvability counts")
    p.add_argument("file")
    p.add_argument("--coeffs", action="append", required=True, metavar="A,B",
                   help="coefficient pair (repeatable)")
    add_common(p, limit=SEARCH_LIMIT, fmt="csv")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("identities", help="exhaustive identity sweep")
    p.add_argument("file")
    add_common(p, limit=IDENTITY_CHECK_LIMIT)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("random", help="write a random table file for testing")
    p.add_argument("--points", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--asymmetric", action="store_true")
    p.add_argument("--low", type=float, default=0.0)
    p.add_argument("--high", type=float, default=10.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_random)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of build_parser, built on the first call in a process.

    Building it takes far longer than one parse_args, and parsing reads it
    without changing it, so in-process callers of main share one.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):  # --help / --version
            raise
        return EXIT_INPUT  # usage errors are input errors, not validation failures
    try:
        return args.func(args)
    except TableParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SearchLimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (TgeomError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
