"""File format parsing, printing, subcommands, and the exit-code contract."""

import subprocess
import sys

import pytest

from toricsum.cli import (
    IdealFileError,
    format_ideal_file,
    main,
    parse_ideal_file,
)

GLUED = """\
# two quadrics glued along x
ideal I1
vars z1 z2 x
params t s
row 1 -1 0
row 1 1 1
gen z1*z2 - x^2

ideal I2
vars w1 w2 x
params t s
row 1 -1 0
row 1 1 1
gen w1*w2 - x^2
"""

TRIANGLE = """\
ideal I1
vars z1 x
params t
row 1 1

ideal I2
vars z2 x
params t
row 1 1

ideal I3
vars z3 x
params t
row 1 1
"""

TWISTED = """\
ideal C
vars x0 x1 x2 x3
params t s
row 3 2 1 0
row 0 1 2 3
"""

PATH3 = """\
ideal I1
vars z1 z2 x
params t s
row 1 -1 0
row 1 1 1
gen z1*z2 - x^2

ideal I2
vars w1 x y
params a b
row 1 2 0
row 1 0 2
gen w1^2 - x*y

ideal I3
vars v1 v2 y
params t s
row 1 -1 0
row 1 1 1
gen v1*v2 - y^2
"""


CUBIC_PATH = "\n".join(
    f"ideal C{v}\nvars a{v} m{v} m{v + 1} d{v}\nparams t s\nrow 3 2 1 0\nrow 0 1 2 3\n"
    f"gen m{v}^2 - a{v}*m{v + 1}\ngen m{v + 1}^2 - m{v}*d{v}\ngen a{v}*d{v} - m{v}*m{v + 1}\n"
    for v in range(6)
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParse:
    def test_glued_file(self):
        ideals = parse_ideal_file(GLUED)
        assert [i.name for i in ideals] == ["I1", "I2"]
        assert ideals[0].parametrization.vars.names == ("z1", "z2", "x")
        assert ideals[0].parametrization.matrix.entries == ((1, -1, 0), (1, 1, 1))
        assert len(ideals[0].generators) == 1
        first, second = (set(i.parametrization.vars.names) for i in ideals)
        assert first & second == {"x"}

    def test_empty_file(self):
        assert parse_ideal_file("") == []
        assert parse_ideal_file("# only a comment\n") == []

    def test_round_trip_idempotent(self):
        once = format_ideal_file(parse_ideal_file(GLUED))
        twice = format_ideal_file(parse_ideal_file(once))
        assert once == twice

    def test_row_width_mismatch_names_line(self):
        bad = "ideal I\nvars a b\nparams t\nrow 1 2 3\n"
        with pytest.raises(IdealFileError, match="line 4"):
            parse_ideal_file(bad)

    def test_zero_column_names_ideal_line(self):
        bad = "# header\nideal I\nvars a b\nparams t\nrow 0 1\n"
        with pytest.raises(IdealFileError, match="line 2: variable 'a' .* zero column"):
            parse_ideal_file(bad)

    def test_malformed_integer(self):
        bad = "ideal I\nvars a b\nparams t\nrow 1 x\n"
        with pytest.raises(IdealFileError, match="malformed integer"):
            parse_ideal_file(bad)

    def test_duplicate_ideal_name(self):
        bad = "ideal I\nvars a\nparams t\nrow 1\nideal I\nvars b\nparams t\nrow 1\n"
        with pytest.raises(IdealFileError, match="duplicate ideal name"):
            parse_ideal_file(bad)

    def test_duplicate_variable(self):
        bad = "ideal I\nvars a a\nparams t\nrow 1 1\n"
        with pytest.raises(IdealFileError, match="duplicate name"):
            parse_ideal_file(bad)

    def test_row_count_must_match_params(self):
        bad = "ideal I\nvars a\nparams t s\nrow 1\n"
        with pytest.raises(IdealFileError, match="1 rows but 2 parameters"):
            parse_ideal_file(bad)

    def test_unknown_directive(self):
        with pytest.raises(IdealFileError, match="unknown directive"):
            parse_ideal_file("ideal I\nvars a\nparams t\nrow 1\nfoo bar\n")

    def test_directive_before_ideal(self):
        with pytest.raises(IdealFileError, match="before any ideal"):
            parse_ideal_file("vars a b\n")

    def test_bad_generator_reports_its_line(self):
        bad = "ideal I\nvars a b\nparams t\nrow 1 1\ngen a*q - b\n"
        with pytest.raises(IdealFileError, match="line 5"):
            parse_ideal_file(bad)

    def test_tab_after_keyword_parses_as_space(self):
        tabbed = "\n".join(
            line.replace(" ", "\t", 1) if line and not line.startswith("#") else line
            for line in GLUED.splitlines()
        )
        assert "vars\tz1 z2 x" in tabbed and "gen\tz1*z2 - x^2" in tabbed
        assert parse_ideal_file(tabbed) == parse_ideal_file(GLUED)

    def test_ideal_name_with_tab_rejected(self):
        bad = "# header\nideal I\tJ\nvars a\nparams t\nrow 1\n"
        with pytest.raises(IdealFileError, match="line 2: ideal needs exactly one name"):
            parse_ideal_file(bad)


class TestCommands:
    def test_dim(self, tmp_path, capsys):
        f = write(tmp_path, "c.ideal", TWISTED)
        assert main(["dim", f]) == 0
        assert capsys.readouterr().out == "C: dim(rank)=2\n"

    def test_homog(self, tmp_path, capsys):
        text = TWISTED + "\nideal N\nvars a b\nparams t\nrow 1 2\n"
        f = write(tmp_path, "m.ideal", text)
        assert main(["homog", f]) == 0
        out = capsys.readouterr().out
        assert "C: homogeneous omega = 1/3 1/3" in out
        assert "N: not homogeneous" in out

    def test_kernel(self, tmp_path, capsys):
        f = write(tmp_path, "c.ideal", TWISTED)
        assert main(["kernel", f, "--max-degree", "2"]) == 0
        out = capsys.readouterr().out
        assert "C: kernel binomials up to degree 2" in out
        for line in ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"):
            assert line in out

    def test_normalize(self, tmp_path, capsys):
        text = "ideal I1\nvars x1 x2 x3\nparams t s\nrow 1 1 1\nrow 0 1 2\n"
        f = write(tmp_path, "p.ideal", text)
        assert main(["normalize", f, "--ideal", "I1", "--pin", "x3"]) == 0
        out = capsys.readouterr().out
        assert "I1: pin x3 -> t1^2 (q=2)" in out
        assert "row 0 1 2\nrow 2 1 0" in out

    def test_normalize_unknown_ideal(self, tmp_path, capsys):
        f = write(tmp_path, "c.ideal", TWISTED)
        assert main(["normalize", f, "--ideal", "Z", "--pin", "x0"]) == 2

    def test_normalize_unknown_variable(self, tmp_path, capsys):
        f = write(tmp_path, "c.ideal", TWISTED)
        assert main(["normalize", f, "--ideal", "C", "--pin", "q"]) == 2

    def test_graph_path(self, tmp_path, capsys):
        f = write(tmp_path, "p.ideal", PATH3)
        assert main(["graph", f]) == 0
        out = capsys.readouterr().out
        assert "edge I1 -- I2 via x" in out
        assert "edge I2 -- I3 via y" in out
        assert "component 1: tree {I1,I2,I3}" in out
        assert "r=1 k=3" in out

    def test_graph_triangle_exits_one(self, tmp_path, capsys):
        f = write(tmp_path, "t.ideal", TRIANGLE)
        assert main(["graph", f]) == 1
        assert "component 1: cycle {I1,I2,I3}" in capsys.readouterr().out

    def test_sum_glued_certified(self, tmp_path, capsys):
        f = write(tmp_path, "g.ideal", GLUED)
        assert main(["sum", f, "--certify", "--max-degree", "3"]) == 0
        # the paper's global formula is one above the rank, and nothing flags it
        assert capsys.readouterr().out == (
            "ideal I1+I2\n"
            "vars z1 z2 w1 w2 x\n"
            "params t1_t t2_t s\n"
            "row 1 -1 0 0 0\n"
            "row 0 0 1 -1 0\n"
            "row 1 1 1 1 1\n"
            "k=2 r=1\n"
            "dim(rank)=3\n"
            "predicted(thm)=3\n"
            "predicted(global)=4\n"
            "verdict: equal-up-to-degree (degree 3)\n"
        )

    def test_sum_output_is_reparseable(self, tmp_path, capsys):
        f = write(tmp_path, "g.ideal", GLUED)
        assert main(["sum", f]) == 0
        out = capsys.readouterr().out
        block = out.split("k=2")[0]
        parsed = parse_ideal_file(block)
        assert parsed[0].name == "I1+I2"
        assert parsed[0].parametrization.matrix.rows == 3

    def test_sum_output_of_repinning_family_is_reparseable(self, tmp_path, capsys):
        # each merge pins a middle variable of the cubics merged so far
        f = write(tmp_path, "cubics.ideal", CUBIC_PATH)
        assert main(["sum", f]) == 0
        out = capsys.readouterr().out
        block, report = out.split("k=6")
        parsed = parse_ideal_file(block)
        assert [i.name for i in parsed] == ["+".join(f"C{v}" for v in range(6))]
        g = write(tmp_path, "sum.ideal", block)
        assert main(["dim", g]) == 0
        rank_line = next(line for line in report.splitlines() if line.startswith("dim(rank)="))
        assert capsys.readouterr().out == f"{parsed[0].name}: {rank_line}\n"
        assert rank_line == "dim(rank)=7"
        assert main(["sum", f, "--certify", "--max-degree", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("verdict: equal-up-to-degree")

    def test_sum_empty_file_output_is_reparseable(self, tmp_path, capsys):
        f = write(tmp_path, "empty.ideal", "# nothing here\n")
        assert main(["sum", f]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k=0 r=0\n")
        assert parse_ideal_file(out.split("k=")[0]) == []

    def test_sum_missing_generator_exits_one(self, tmp_path, capsys):
        text = GLUED.replace("gen w1*w2 - x^2\n", "")
        f = write(tmp_path, "g.ideal", text)
        assert main(["sum", f, "--certify", "--max-degree", "3"]) == 1
        out = capsys.readouterr().out
        assert "verdict: missing-in-sum witness w1*w2 - x^2" in out

    def test_sum_triangle_exits_one(self, tmp_path, capsys):
        f = write(tmp_path, "t.ideal", TRIANGLE)
        assert main(["sum", f]) == 1
        assert "cycle" in capsys.readouterr().err

    def test_sum_two_shared_vars_exits_one(self, tmp_path, capsys):
        text = (
            "ideal I1\nvars a b\nparams t\nrow 1 1\n"
            "ideal I2\nvars a b c\nparams t\nrow 1 1 1\n"
        )
        f = write(tmp_path, "two.ideal", text)
        assert main(["sum", f]) == 1
        err = capsys.readouterr().err
        assert "share 2 variables" in err and "a, b" in err

    def test_sum_non_homogeneous_exits_one(self, tmp_path, capsys):
        text = GLUED.replace("row 1 -1 0\nrow 1 1 1\ngen w1*w2 - x^2", "row 1 2 1\nrow 0 0 1\n")
        f = write(tmp_path, "nh.ideal", text)
        assert main(["sum", f]) == 1
        assert "not homogeneous" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        f = write(tmp_path, "bad.ideal", "ideal I\nvars a\nparams t\nrow 1 2\n")
        assert main(["dim", f]) == 2
        assert "error: line 4" in capsys.readouterr().err

    def test_zero_column_exits_two(self, tmp_path, capsys):
        f = write(tmp_path, "z.ideal", "ideal I\nvars a b\nparams t\nrow 0 1\n")
        assert main(["dim", f]) == 2
        assert "error: line 1: variable 'a'" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["dim", str(tmp_path / "nope.ideal")]) == 2

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin.ideal"
        path.write_bytes(b"ideal I\nvars a\xff b\n")
        assert main(["dim", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "utf-8" in err

    def test_kernel_default_degree_from_generators(self, tmp_path, capsys):
        f = write(tmp_path, "g.ideal", GLUED)
        assert main(["kernel", f]) == 0
        out = capsys.readouterr().out
        # generator degree 2, so the default bound is 4
        assert "I1: kernel binomials up to degree 4" in out

    def test_empty_file_commands(self, tmp_path, capsys):
        f = write(tmp_path, "empty.ideal", "# nothing here\n")
        assert main(["dim", f]) == 0
        assert capsys.readouterr().out == ""

    def test_sum_single_ideal_is_itself(self, tmp_path, capsys):
        f = write(tmp_path, "c.ideal", TWISTED)
        assert main(["sum", f]) == 0
        out = capsys.readouterr().out
        assert "row 3 2 1 0\nrow 0 1 2 3" in out
        assert "dim(rank)=2" in out
        assert "predicted(thm)=2" in out

    def test_module_entry_point(self, tmp_path):
        f = write(tmp_path, "c.ideal", TWISTED)
        proc = subprocess.run(
            [sys.executable, "-m", "toricsum", "dim", f],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "C: dim(rank)=2\n"
