"""CLI subcommands, output determinism, and the exit-code contract."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tgeom
from tgeom import cli
from tgeom.cli import main
from tgeom.errors import NonFiniteValue, NonzeroDiagonal
from tgeom.space import SIGMA_BOUND
from tgeom.tablefile import load_space


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.sigma"
    path.write_text(
        "points: A B C\nsigma: A B 1.0\nsigma: A C 4.0\nsigma: B C 1.0\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def full_grid_file(tmp_path):
    path = str(tmp_path / "full.sigma")
    assert main(["grid", "--dim", "2", "--size", "2", "--out", path]) == 0
    return path


@pytest.fixture
def deleted_grid_file(tmp_path):
    path = str(tmp_path / "deleted.sigma")
    code = main(
        ["grid", "--dim", "2", "--size", "2", "--delete", "1,1", "--out", path]
    )
    assert code == 0
    return path


def test_check_valid_symmetric(tri_file, capsys):
    assert main(["check", tri_file]) == 0
    out = capsys.readouterr().out
    assert "symmetric: yes" in out
    assert "0 violation(s)" in out


def test_check_bad_diagonal(tmp_path, capsys):
    path = tmp_path / "bad.sigma"
    path.write_text("points: A B\nsigma: A B 1.0\nsigma: A A 0.5\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr().out
    assert "(A, A)" in out
    assert "  diagonal value for (A, A) is 0.5, beyond tolerance 1e-09\n" in out


@pytest.mark.parametrize(
    "body, error",
    [
        ("sigma: A B 1.0\nsigma: A A 0.5\n", NonzeroDiagonal),
        ("sigma: A B 1.0\nsigma: A A nan\n", NonzeroDiagonal),
        ("sigma: A B inf\nsigma: B B 0.5\n", NonzeroDiagonal),
        ("sigma: A B nan\n", NonFiniteValue),
    ],
    ids=["bad-diagonal", "nan-diagonal", "inf-and-bad-diagonal", "nan-off-diagonal"],
)
def test_check_prints_what_every_command_raises(tmp_path, capsys, body, error):
    path = tmp_path / "bad.sigma"
    path.write_text("points: A B\n" + body, encoding="utf-8")
    with pytest.raises(error) as err:
        load_space(path)
    assert main(["check", str(path)]) == 2
    first_problem = capsys.readouterr().out.splitlines()[4]
    assert first_problem == "  " + str(err.value)
    assert main(["dot", str(path), "A", "B", "A", "B"]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


BEYOND_BOUND = (
    "points: A B C\nsigma: A B 1.5e308\nsigma: A C -1.5e308\nsigma: B C 1.5e308\n"
)
AT_BOUND = BEYOND_BOUND.replace("1.5e308", repr(2.0**1018))


def test_table_beyond_the_bound_is_rejected(tmp_path, capsys):
    # Finite values whose four-term sums would overflow: check lists each
    # of the six and exits 2, and every command that builds the space
    # exits 1 with the first of them.
    path = tmp_path / "over.sigma"
    path.write_text(BEYOND_BOUND, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    problems = [line.strip() for line in out.splitlines() if "beyond ±" in line]
    assert "diagonal/finiteness: 6 violation(s)\n" in out and not err
    assert len(problems) == 6
    assert problems[0] == f"value for (A, B) is 1.5e+308, beyond ±{SIGMA_BOUND!r}"
    for command in (
        ["identities"],
        ["dot", "A", "B", "B", "C"],
        ["combine", "0", "0", "A", "B", "B", "C"],
        ["survey", "--coeffs", "0,0"],
    ):
        assert main([command[0], str(path), *command[1:]]) == 1
        assert capsys.readouterr() == ("", f"error: {problems[0]}\n")


def test_table_at_the_bound_keeps_its_guaranteed_cases(tmp_path, capsys):
    # |σ| = 2**1018, within the bound: every sum is exact, so every
    # guaranteed pair is solvable; the RuntimeWarning filter fails any
    # leaked warning.
    path = tmp_path / "bound.sigma"
    path.write_text(AT_BOUND, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert "identities: 0 violation(s), 729 tuples checked\n" in capsys.readouterr().out
    assert main(["identities", str(path)]) == 0
    assert "violations: 0\n" in capsys.readouterr().out
    assert main(["survey", str(path), "--coeffs", "0,0", "--coeffs", "1,0"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "0.0,0.0,81,81,81,0",
        "1.0,0.0,81,81,81,0",
    ]
    assert main(["combine", str(path), "0", "0", "A", "B", "B", "C"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("guaranteed case: zero\nsolutions: 3\n")
    assert main(["dot", str(path), "A", "B", "B", "C"]) == 0
    assert capsys.readouterr() == (f"{-3 * 2.0**1018!r}\n", "")


def test_check_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.sigma"
    path.write_text("points: A B\nsigma: A B 1.0\nsigma: A B 3.0\n", encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert ":3:" in capsys.readouterr().err


def test_check_skips_identities_on_large_spaces(tmp_path, capsys):
    path = str(tmp_path / "wide.sigma")
    assert main(["grid", "--dim", "2", "--size", "4", "--out", path]) == 0
    capsys.readouterr()
    assert main(["check", path]) == 0
    assert "identities: skipped (16 points > 12)" in capsys.readouterr().out


def test_check_asymmetric_is_valid(tmp_path, capsys):
    path = tmp_path / "asym.sigma"
    path.write_text("points: A B\nsigma: A B 1.0\nsigma: B A 2.0\n", encoding="utf-8")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "symmetric: no" in out
    assert "skipped: exchange-symmetry" in out


def test_dot_prints_value(tri_file, capsys):
    assert main(["dot", tri_file, "A", "B", "A", "C"]) == 0
    assert capsys.readouterr().out == "4.0\n"


def test_dot_null_vector(tri_file, capsys):
    assert main(["dot", tri_file, "A", "A", "B", "C"]) == 0
    assert capsys.readouterr().out == "0.0\n"


def test_dot_unknown_label(tri_file, capsys):
    assert main(["dot", tri_file, "A", "Z", "A", "C"]) == 1
    assert "unknown point" in capsys.readouterr().err


def test_equiv_same_vector(tri_file, capsys):
    assert main(["equiv", tri_file, "A", "B", "A", "B"]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_equiv_grid_displacements(full_grid_file, capsys):
    assert main(["equiv", full_grid_file, "p0_0", "p1_0", "p0_1", "p1_1"]) == 0
    capsys.readouterr()
    assert main(["equiv", full_grid_file, "p0_0", "p1_0", "p0_0", "p0_1"]) == 3
    out = capsys.readouterr().out
    assert "not equivalent" in out
    assert "probe: Q0=" in out


def test_combine_chained(tri_file, capsys):
    assert main(["combine", tri_file, "1", "1", "A", "B", "B", "C"]) == 0
    out = capsys.readouterr().out
    assert "guaranteed case: chain-sum" in out
    assert "A -> C" in out


def test_combine_deleted_grid_empty(deleted_grid_file, capsys):
    code = main(
        ["combine", deleted_grid_file, "1", "1", "p0_0", "p1_0", "p0_0", "p0_1"]
    )
    assert code == 4
    assert "solutions: 0" in capsys.readouterr().out


def test_combine_full_grid_solution(full_grid_file, capsys):
    code = main(["combine", full_grid_file, "1", "1", "p0_0", "p1_0", "p0_0", "p0_1"])
    assert code == 0
    assert "p0_0 -> p1_1" in capsys.readouterr().out


def test_combine_limit_exceeded(full_grid_file, capsys):
    code = main(
        ["combine", full_grid_file, "1", "1", "p0_0", "p1_0", "p0_0", "p0_1",
         "--limit", "3"]
    )
    assert code == 5
    assert "limit" in capsys.readouterr().err
    code = main(
        ["combine", full_grid_file, "1", "1", "p0_0", "p1_0", "p0_0", "p0_1",
         "--limit", "3", "--force"]
    )
    assert code == 0


def test_combine_hundred_point_space_needs_force(tmp_path, capsys):
    path = str(tmp_path / "big.sigma")
    assert main(["grid", "--dim", "2", "--size", "10", "--out", path]) == 0
    capsys.readouterr()
    code = main(["combine", path, "1", "1", "p0_0", "p1_0", "p0_0", "p0_1"])
    assert code == 5


def test_survey_limit_exceeded(tmp_path, capsys):
    path = str(tmp_path / "big.sigma")
    assert main(["grid", "--dim", "2", "--size", "10", "--out", path]) == 0
    capsys.readouterr()
    assert main(["survey", path, "--coeffs", "1,1"]) == 5


def test_combine_csv_format(full_grid_file, capsys):
    code = main(
        ["combine", full_grid_file, "1", "1", "p0_0", "p1_0", "p0_0", "p0_1",
         "--format", "csv"]
    )
    assert code == 0
    assert capsys.readouterr().out == "origin,end\np0_0,p1_1\n"


def test_grid_writes_parseable_file(tmp_path, capsys):
    path = str(tmp_path / "line.sigma")
    assert main(["grid", "--dim", "1", "--size", "2", "--out", path]) == 0
    capsys.readouterr()
    text = open(path, encoding="utf-8").read()
    assert "sigma: p0 p1 0.5" in text
    assert main(["check", path]) == 0


def test_grid_all_deleted(tmp_path, capsys):
    code = main(
        ["grid", "--dim", "1", "--size", "1", "--delete", "0",
         "--out", str(tmp_path / "x.sigma")]
    )
    assert code == 1
    assert "deleted" in capsys.readouterr().err
    assert main(["grid", "--dim", "1", "--size", "1", "--delete", "0"]) == 1
    assert capsys.readouterr() == ("", "error: every grid cell was deleted\n")


def test_survey_csv(full_grid_file, deleted_grid_file, capsys):
    assert main(["survey", full_grid_file, "--coeffs", "1,1"]) == 0
    full_out = capsys.readouterr().out
    assert main(["survey", deleted_grid_file, "--coeffs", "1,1"]) == 0
    deleted_out = capsys.readouterr().out
    assert full_out.splitlines()[0] == "alpha,beta,total_pairs,solvable,guaranteed,unsolvable"
    full_row = full_out.splitlines()[1].split(",")
    deleted_row = deleted_out.splitlines()[1].split(",")
    assert int(deleted_row[3]) < int(full_row[3])  # solvable drops
    assert int(deleted_row[4]) > 0  # guaranteed structure survives


def test_survey_identity_coefficients(full_grid_file, capsys):
    assert main(["survey", full_grid_file, "--coeffs", "1,0", "--coeffs", "0,0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        assert fields[2] == fields[3]  # solvable == total
        assert fields[5] == "0"


def test_survey_human_format(full_grid_file, capsys):
    assert main(["survey", full_grid_file, "--coeffs", "1,1", "--format", "human"]) == 0
    assert "solvable" in capsys.readouterr().out


def test_identities_command(tri_file, capsys):
    assert main(["identities", tri_file]) == 0
    assert "violations: 0" in capsys.readouterr().out


def test_survey_rejects_a_single_coefficient(full_grid_file, capsys):
    assert main(["survey", full_grid_file, "--coeffs", "1"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: --coeffs expects 'alpha,beta', got '1'\n",
    )


def test_identities_lists_violations_and_skipped_identities(tmp_path, capsys):
    # At tolerance 0 the rounding of 0.1, 0.2 and 0.7 breaks the identities.
    exact = tmp_path / "exact.sigma"
    exact.write_text(
        "points: A B C\ntolerance: 0\n"
        "sigma: A B 0.1\nsigma: A C 0.2\nsigma: B C 0.7\n",
        encoding="utf-8",
    )
    assert main(["identities", str(exact)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "checked: 729 tuples",
        "violations: 174",
        "  first-arg-reversal at (A, A, B, C): "
        "lhs=2.7755575615628914e-17 rhs=-2.7755575615628914e-17",
    ]
    assert len(lines) == 2 + 174
    asym = tmp_path / "asym.sigma"
    asym.write_text("points: A B\nsigma: A B 1.0\nsigma: B A 2.0\n", encoding="utf-8")
    assert main(["identities", str(asym)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "checked: 96 tuples",
        "violations: 0",
        "skipped: exchange-symmetry (asymmetric world function)",
    ]


def test_identities_limit(tmp_path, capsys):
    path = str(tmp_path / "big.sigma")
    assert main(["grid", "--dim", "2", "--size", "4", "--out", path]) == 0
    capsys.readouterr()
    assert main(["identities", path]) == 5
    assert main(["identities", path, "--limit", "16"]) == 0
    assert main(["identities", path, "--force"]) == 0


def test_random_subcommand_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.sigma")
    b = str(tmp_path / "b.sigma")
    assert main(["random", "--points", "4", "--seed", "9", "--out", a]) == 0
    assert main(["random", "--points", "4", "--seed", "9", "--out", b]) == 0
    assert open(a, encoding="utf-8").read() == open(b, encoding="utf-8").read()
    assert main(["check", a]) == 0


def test_random_asymmetric_output_is_pinned(capsys):
    # The same pin as the CI smoke test.
    argv = ["random", "--points", "150", "--seed", "7", "--asymmetric"]
    assert main(argv + ["--low", "-5", "--high", "5"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == (
        "a379281dd0af8e312d6ee06c3840f3332570b341070d3aa91a86f453652be511"
    )


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "tgeom 0.1.0\n"


def test_outputs_are_deterministic(full_grid_file, capsys):
    runs = []
    for _ in range(2):
        assert main(["survey", full_grid_file, "--coeffs", "1,1", "--coeffs", "1,-1"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_out_flag_writes_file(tri_file, tmp_path, capsys):
    target = tmp_path / "dot.txt"
    assert main(["dot", tri_file, "A", "B", "A", "C", "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == "4.0\n"
    assert capsys.readouterr().out == ""


def test_usage_errors_exit_as_input_errors(tri_file, capsys):
    assert main([]) == 1  # missing subcommand
    assert main(["combine", tri_file, "x", "1", "A", "B", "B", "C"]) == 1
    # a tolerance must be finite and >= 0, as in a table file
    capsys.readouterr()
    for bad in ("-1", "nan", "inf"):
        assert main(["check", tri_file, "--tolerance", bad]) == 1
        err = capsys.readouterr().err
        assert "tolerance must be a non-negative finite real" in err
        assert "invalid" not in err
    assert main(["grid", "--dim", "1", "--size", "2", "--tolerance", "inf"]) == 1
    capsys.readouterr()
    assert main(["check", tri_file, "--tolerance", "0"]) == 0
    assert "tolerance: 0.0\n" in capsys.readouterr().out


def test_tolerance_override_applies_after_parsing(tmp_path, capsys):
    # The repeat differs by less than the file's default ε, so it is read
    # as agreeing; --tolerance 0 then governs validation only.
    path = tmp_path / "rep.sigma"
    path.write_text(
        "points: A B\nsigma: A B 1.0\nsigma: A B 1.0000000000001\n", encoding="utf-8"
    )
    assert main(["check", str(path), "--tolerance", "0"]) == 0
    out = capsys.readouterr().out
    assert "tolerance: 0.0\n" in out
    assert "diagonal/finiteness: ok\n" in out


def test_missing_file_is_input_error(capsys):
    assert main(["check", "/nonexistent/path.sigma"]) == 1
    assert "error" in capsys.readouterr().err


def test_reused_parser_leaks_nothing(tmp_path, capsys):
    # main builds its parser once per process. Each call on the shared
    # parser must print and exit exactly as a call on a fresh one does:
    # no --delete cell and no --coeffs pair carries over to a later call,
    # and a usage error leaves nothing behind.
    grid = str(tmp_path / "g.sigma")
    assert main(["grid", "--dim", "2", "--size", "3", "--out", grid]) == 0
    survey = ["survey", grid, "--coeffs", "1,1", "--coeffs", "2,-1"]
    calls = [
        ["grid", "--dim", "2", "--size", "3", "--delete", "1,2"],
        ["grid", "--dim", "2", "--size", "3"],
        survey,
        survey,
        ["survey", grid, "--coeffs", "1,1", "--limit", "0"],
        ["dot", grid, "p0_0", "p1_2", "p0_0", "p1_2"],
    ]

    def run(argv):
        code = main(list(argv))
        return (code, *capsys.readouterr())

    capsys.readouterr()
    reused = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert "p1_2" not in reused[0][1] and "p1_2" in reused[1][1]
    assert len(reused[3][1].splitlines()) == 3  # a header and two rows
    assert reused[4][0] == 1 and "usage:" in reused[4][2]
    assert reused[5] == (0, "5.0\n", "")
    assert cli._parser() is cli._parser()


def test_import_builds_no_parser():
    probe = "import tgeom, tgeom.cli; print(tgeom.cli._parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(Path(tgeom.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "0\n"
