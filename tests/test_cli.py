"""CLI subcommands, output determinism, and the exit-code contract."""

from __future__ import annotations

import pytest

from tgeom.cli import main
from tgeom.errors import NonFiniteValue, NonzeroDiagonal
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


OVERFLOWING = (
    "points: A B C\nsigma: A B 1.5e308\nsigma: A C -1.5e308\nsigma: B C 1.5e308\n"
)


def test_overflowing_table_reports_violations(tmp_path, capsys):
    # Valid values whose four-term sums overflow: check and identities
    # report violations (a chain violation whose middle point is not the
    # first one among them), dot prints the overflowed product; no
    # traceback, and the RuntimeWarning filter fails any leaked warning.
    path = tmp_path / "over.sigma"
    path.write_text(OVERFLOWING, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "identities: 450 violation(s), 729 tuples checked\n" in out and not err
    assert main(["identities", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "violations: 450\n" in out and not err
    assert "  first-slot-chain at (A, B, A, A, B): lhs=nan rhs=0.0\n" in out
    assert "  exchange-symmetry at (A, A, B, B): lhs=inf rhs=inf\n" in out
    assert main(["dot", str(path), "A", "B", "B", "C"]) == 0
    assert capsys.readouterr() == ("-inf\n", "")


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


def test_identities_limit(tmp_path, capsys):
    path = str(tmp_path / "big.sigma")
    assert main(["grid", "--dim", "2", "--size", "4", "--out", path]) == 0
    capsys.readouterr()
    assert main(["identities", path]) == 5
    assert main(["identities", path, "--limit", "16"]) == 0


def test_random_subcommand_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.sigma")
    b = str(tmp_path / "b.sigma")
    assert main(["random", "--points", "4", "--seed", "9", "--out", a]) == 0
    assert main(["random", "--points", "4", "--seed", "9", "--out", b]) == 0
    assert open(a, encoding="utf-8").read() == open(b, encoding="utf-8").read()
    assert main(["check", a]) == 0


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
    # a tolerance must be finite, as in a table file
    assert main(["check", tri_file, "--tolerance", "inf"]) == 1
    assert main(["grid", "--dim", "1", "--size", "2", "--tolerance", "inf"]) == 1
    capsys.readouterr()


def test_missing_file_is_input_error(capsys):
    assert main(["check", "/nonexistent/path.sigma"]) == 1
    assert "error" in capsys.readouterr().err
