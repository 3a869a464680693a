"""File format parsing, printing, subcommands, and the exit-code contract."""

import contextlib
import io
import os
import random
import re
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

from helpers import (
    counting_certify,
    forest_family,
    random_homogeneous_parametrization,
    random_parametrization,
)
from toricsum import (
    DegreeBound,
    certify_presentation,
    contains_binomial,
    enumerate_kernel_binomials,
    homogeneity_certificate,
    membership_by_classes,
    parse_binomial,
    reduces_to_zero,
    relabel_binomial,
    sum_family,
)
from toricsum import cli, exact_linalg, oracle, parametrization
from toricsum.cli import (
    IdealFileError,
    format_ideal_block,
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

# x^2 and y share the image t^2, so the kernel is not degree-balanced
UNBALANCED = """\
ideal A
vars x y
params t
row 1 2
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


def cubic_path(k):
    """k twisted cubics along a path, cubic v sharing m{v} and m{v + 1}."""
    return "\n".join(
        f"ideal C{v}\nvars a{v} m{v} m{v + 1} d{v}\nparams t s\nrow 3 2 1 0\nrow 0 1 2 3\n"
        f"gen m{v}^2 - a{v}*m{v + 1}\ngen m{v + 1}^2 - m{v}*d{v}\ngen a{v}*d{v} - m{v}*m{v + 1}\n"
        for v in range(k)
    )


CUBIC_PATH = cubic_path(6)


RANK_DEFICIENT = """\
ideal A
vars a1 a2 x
params t s u
row 1 -1 0
row 1 1 1
row 2 2 2

ideal B
vars x b1 b2
params t s
row 1 1 1
row 0 1 2
"""


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

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11", "1.0", "+-1", "0x1", "2e1"])
    def test_integer_is_ascii_digits_only(self, token):
        bad = f"ideal I\nvars a b\nparams t\nrow 1 {token}\n"
        with pytest.raises(IdealFileError, match=re.escape(f"line 4: malformed integer '{token}'")):
            parse_ideal_file(bad)

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11", "1.0", "++1"])
    def test_exponent_is_ascii_digits_only(self, token):
        bad = f"ideal I\nvars a b\nparams t s\nrow 1 1\nrow 0 1\ngen a^{token} - b\n"
        with pytest.raises(IdealFileError, match=r"line 6: malformed exponent"):
            parse_ideal_file(bad)

    def test_signed_and_padded_integers_parse(self):
        text = "ideal I\nvars a b\nparams t s\nrow +1 -0\nrow 007 1\ngen a^+02 - b^2\n"
        (ideal,) = parse_ideal_file(text)
        assert ideal.parametrization.matrix.entries == ((1, 0), (7, 1))
        assert ideal.generators[0].u_plus == (2, 0)

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

    @pytest.mark.parametrize("text, message", [
        ("# header\nideal I\nparams t\n", "line 2: ideal 'I' has no vars line"),
        ("ideal I\nvars a\nparams t\nrow 1\nideal J\nvars b\n",
         "line 5: ideal 'J' has no params line"),
        ("ideal I\nvars a\nparams t\nvars b\n", "line 4: duplicate vars line"),
        ("ideal I\nvars\n", "line 2: vars line needs at least one name"),
        ("ideal I\nvars a b-c\n", "line 2: invalid name 'b-c'"),
        ("ideal I\nparams t\nrow 1\n", "line 3: row before vars"),
        ("ideal I\ngen a - b\n", "line 2: gen before vars"),
    ])
    def test_block_errors_name_their_line(self, text, message):
        with pytest.raises(IdealFileError, match=f"^{re.escape(message)}$"):
            parse_ideal_file(text)


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

    def test_kernel_lists_unbalanced_binomials(self, tmp_path, capsys):
        f = write(tmp_path, "a.ideal", UNBALANCED)
        assert main(["kernel", f, "--max-degree", "2"]) == 0
        assert capsys.readouterr().out == "A: kernel binomials up to degree 2\nx^2 - y\n"

    def test_kernel_without_binomials_prints_none(self, tmp_path, capsys):
        f = write(tmp_path, "i.ideal", "ideal I\nvars a b\nparams t s\nrow 1 0\nrow 0 1\n")
        assert main(["kernel", f, "--max-degree", "3"]) == 0
        assert capsys.readouterr().out == "I: kernel binomials up to degree 3\n(none)\n"

    def test_sum_certify_finds_unbalanced_witness(self, tmp_path, capsys):
        f = write(tmp_path, "a.ideal", UNBALANCED)
        assert main(["sum", f, "--certify"]) == 1
        assert "verdict: missing-in-sum witness x^2 - y (degree 2)\n" in capsys.readouterr().out

    def test_sum_certify_unbalanced_generator(self, tmp_path, capsys):
        f = write(tmp_path, "a.ideal", UNBALANCED + "gen y - x^2\n")
        assert main(["sum", f, "--certify"]) == 0
        assert "verdict: equal-up-to-degree" in capsys.readouterr().out

    def test_normalize(self, tmp_path, capsys):
        text = "ideal I1\nvars x1 x2 x3\nparams t s\nrow 1 1 1\nrow 0 1 2\n"
        f = write(tmp_path, "p.ideal", text)
        assert main(["normalize", f, "--ideal", "I1", "--pin", "x3"]) == 0
        out = capsys.readouterr().out
        assert "I1: pin x3 -> t1^2 (q=2)" in out
        assert "row 0 1 2\nrow 2 1 0" in out

    def test_normalize_every_variable_in_one_process(self, tmp_path, capsys):
        # later pins of the one matrix reuse its reduction; the output must
        # be exactly what a separate run per variable prints
        text = "ideal C\nvars a b c d\nparams t s\nrow 3 2 1 0\nrow 0 1 2 3\n"
        f = write(tmp_path, "c.ideal", text)
        expected = {
            "a": ("t1 (q=1)", "1 0 -1 -2", "0 1 2 3"),
            "b": ("t1 (q=1)", "0 1 2 3", "1 0 -1 -2"),
            "c": ("t1^2 (q=2)", "0 1 2 3", "2 1 0 -1"),
            "d": ("t1^3 (q=3)", "0 1 2 3", "3 2 1 0"),
        }
        for var, (power, row1, row2) in expected.items():
            assert main(["normalize", f, "--ideal", "C", "--pin", var]) == 0
            assert capsys.readouterr().out == (
                f"C: pin {var} -> {power}\nideal C\nvars a b c d\nparams t1 t2\n"
                f"row {row1}\nrow {row2}\n"
            )

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
            "params t1 t2 t3\n"
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

    def test_sum_rank_deficient_input_keeps_its_independent_rows(self, tmp_path, capsys):
        # A's third row is twice its second: A enters the sum as its first two
        # rows, of which the second is pinned; B's first row is pinned
        f = write(tmp_path, "rd.ideal", RANK_DEFICIENT)
        assert main(["sum", f]) == 0
        block, report = capsys.readouterr().out.split("k=2 r=1\n")
        assert block.splitlines()[2:] == [
            "params t1 t2 t3",
            "row 1 -1 0 0 0",
            "row 0 0 1 2 0",
            "row 1 1 1 1 1",
        ]
        assert "dim(rank)=3\n" in report
        g = write(tmp_path, "sum.ideal", block)
        assert main(["dim", g]) == 0
        assert capsys.readouterr().out == "A+B: dim(rank)=3\n"

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

    @pytest.mark.parametrize("line", ["row 1_0 \u0663", "gen a^\u0663 - b^1_0"])
    def test_non_ascii_integer_exits_two(self, tmp_path, capsys, line):
        f = write(tmp_path, "bad.ideal", f"ideal I\nvars a b\nparams t\nrow 1 1\n{line}\n")
        assert main(["sum", f, "--certify"]) == 2
        assert capsys.readouterr().err.startswith("error: line 5: malformed ")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no limit on the digits of an int read from text")
    @pytest.mark.parametrize("line", ["row 1 {}", "gen a^{} - b"])
    def test_integer_past_the_digit_limit_exits_two(self, tmp_path, capsys, line):
        # int() refuses more digits than the interpreter's limit; the entry
        # and the exponent get the same line-numbered message
        limit = sys.get_int_max_str_digits()
        text = f"ideal I\nvars a b\nparams t\nrow 1 1\n{line.format('9' * (limit + 1))}\n"
        f = write(tmp_path, "long.ideal", text)
        assert main(["dim", f]) == 2
        assert capsys.readouterr().err == \
            f"error: line 5: integer of {limit + 1} digits is longer than the limit of {limit} digits\n"

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no limit on the digits of an int turned into text")
    @pytest.mark.filterwarnings("ignore:no kernel binomial")
    @pytest.mark.parametrize("argv", [["sum"], ["sum", "--certify"],
                                      ["normalize", "--ideal", "A", "--pin", "b"], ["homog"]])
    def test_printed_integer_past_the_digit_limit_exits_two(self, tmp_path, capsys, argv):
        # every entry has at most the limit's digits and parses, but the
        # glued rows of the sum, the pin's q and the grading vector's
        # denominators have about twice as many: one error line naming the
        # limit, and nothing of the block printed
        limit = sys.get_int_max_str_digits()
        m, m3 = (f"1{'0' * (limit - 2)}{last}" for last in (1, 3))
        text = {
            "sum": f"ideal A\nvars a b x\nparams t s\nrow 0 5 {m}\nrow 1 1 1\n"
                   f"ideal B\nvars c d x\nparams t s\nrow 0 7 {m3}\nrow 1 1 1\n",
            "normalize": f"ideal A\nvars a b c\nparams t s\nrow {m} 1 {m3}\nrow {m3} {m} 1\n",
            "homog": f"ideal H\nvars a b\nparams t s\nrow {m} 1\nrow 1 {m3}\n",
        }[argv[0]]
        f = write(tmp_path, "long.ideal", text)
        assert main([*argv, f]) == 2
        assert capsys.readouterr() == ("", f"error: an integer has more than {limit} digits to "
                                           "print, the limit of sys.get_int_max_str_digits()\n")

    def test_out_of_memory_exits_two(self, tmp_path):
        # degree 3 on 200 variables of one image puts ~1.4 million monomials
        # in one bucket, whose 200-entry exponent tuples pass the 512 MB
        # address-space limit the child process sets on itself
        n = 200
        f = write(tmp_path, "wide.ideal", f"ideal W\nvars {' '.join(f'x{i}' for i in range(n))}\n"
                                          f"params t\nrow {' '.join(['1'] * n)}\n")
        code = textwrap.dedent(f"""
            import resource, runpy, sys
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
            sys.argv = ["toricsum", "kernel", "--max-degree", "3", {f!r}]
            runpy.run_module("toricsum", run_name="__main__")
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr[-2000:]
        assert proc.stderr == "error: out of memory; a lower --max-degree enumerates fewer monomials\n"

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

    @pytest.mark.parametrize("degree", ["1_0", "\u0662"])
    def test_max_degree_takes_ascii_digits_only(self, tmp_path, capsys, degree):
        # int() would read these as 10 and 2
        f = write(tmp_path, "c.ideal", TWISTED)
        with pytest.raises(SystemExit) as exc:
            main(["kernel", f, "--max-degree", degree])
        assert exc.value.code == 2
        assert f"malformed integer {degree!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["-m", "toricsum", "kernel", "--max-degree", "3"],
            ["-u", "-m", "toricsum", "kernel", "--max-degree", "3"],
            # argparse's --help ends in SystemExit, outside the command handlers
            ["-m", "toricsum", "--help"],
            ["-u", "-m", "toricsum", "--help"],
        ],
    )
    def test_closed_stdout_exits_quietly(self, tmp_path, args):
        f = write(tmp_path, "c.ideal", TWISTED)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first line is written
        try:
            proc = subprocess.run(
                [sys.executable, *args, f],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""


def rnc_text(n, drop=None):
    """RNC(n) with its 2x2 minors as generators, less minor number ``drop``."""
    names = [f"y{i}" for i in range(n + 1)]
    minors = [
        f"gen {names[i]}*{names[j + 1]} - {names[i + 1]}*{names[j]}"
        for i in range(n) for j in range(i + 1, n)
    ]
    if drop is not None:
        del minors[drop]
    rows = [" ".join(str(n - i) for i in range(n + 1)), " ".join(str(i) for i in range(n + 1))]
    return "\n".join(["ideal C", "vars " + " ".join(names), "params s t",
                      f"row {rows[0]}", f"row {rows[1]}", *minors]) + "\n"


def family_text(blocks):
    lines = []
    for name, vars_, rows, gens in blocks:
        lines += [f"ideal {name}", "vars " + " ".join(vars_), "params t u"]
        lines += ["row " + " ".join(map(str, row)) for row in rows]
        lines += [f"gen {g}" for g in gens]
    return "\n".join(lines) + "\n"


def whole_sum_route(monkeypatch, argv, capsys):
    """Exit code and stdout of ``main(argv)`` checking the whole sum.

    The reference route: the CLI's ``certify_family`` is replaced by
    ``certify_presentation`` of the sum, built again, against every
    generator renamed into its variables.  That witness is already over
    the sum's variables, so the CLI's renaming of it is the identity.
    """

    def whole_sum(inputs, d):
        result, _ = sum_family([p for p, _ in inputs])
        gens = [relabel_binomial(g, p.vars, result.vars) for p, gens in inputs for g in gens]
        return certify_presentation(result, gens, d), 0

    with monkeypatch.context() as m:
        m.setattr(cli, "certify_family", whole_sum)
        m.setattr(cli, "relabel_binomial", lambda b, old_vars, new_vars: b)
        return main(argv), capsys.readouterr().out


VERDICT_RE = re.compile(r"^verdict: (\S+)(?: witness (.+))? \(degree (\d+)\)$")


def assert_same_verdict(text, got, want, slack=2):
    """``got`` certifies ``text`` as the whole-sum route ``want`` does.

    A failing family may report another witness than the whole sum's
    first; it must lie in the sum's kernel, out of reach of the union of
    the generators: outside their ideal when they are all balanced, and
    else out of reach of the whole sum's search with ``slack``.
    """
    if want[0] == 0 or got == want:
        assert got == want
        return
    assert got[0] == want[0]
    *head, verdict = got[1].splitlines()
    *want_head, want_verdict = want[1].splitlines()
    assert head == want_head
    status, witness, degree = VERDICT_RE.match(verdict).groups()
    assert (status, degree) == VERDICT_RE.match(want_verdict).groups()[::2]
    assert status == "missing-in-sum"
    total = parse_ideal_file(got[1].split("\nk=")[0])[0].parametrization
    w = parse_binomial(witness, total.vars)
    gens = [relabel_binomial(g, ideal.parametrization.vars, total.vars)
            for ideal in parse_ideal_file(text) for g in ideal.generators]
    assert w.degree <= int(degree)
    assert contains_binomial(total, w)
    if all(g.is_balanced for g in gens):
        assert not membership_by_classes(w, gens)
    else:
        assert not reduces_to_zero(w, gens, DegreeBound(int(degree), slack))


@pytest.mark.filterwarnings("ignore:no kernel binomial")
class TestCertifyByInput:
    @pytest.mark.parametrize("drop", [None, 4])
    def test_one_ideal_checks_once(self, tmp_path, capsys, monkeypatch, drop):
        calls = counting_certify(monkeypatch)
        f = write(tmp_path, "rnc.ideal", rnc_text(6, drop))
        assert main(["sum", f, "--certify", "--max-degree", "3"]) == (0 if drop is None else 1)
        assert calls == [7]

    def test_copies_of_one_block_check_it_once(self, tmp_path, capsys, monkeypatch):
        calls = counting_certify(monkeypatch)
        f = write(tmp_path, "path.ideal", CUBIC_PATH)
        assert main(["sum", f, "--certify", "--max-degree", "4"]) == 0
        assert capsys.readouterr().out.endswith("verdict: equal-up-to-degree (degree 4)\n")
        assert calls == [4]

    def test_failure_stops_at_the_failing_input(self, tmp_path, capsys, monkeypatch):
        # quadric, conic, cubic, quadric, conic along a path and an isolated
        # cubic; the first cubic loses a generator, so the quadric and the
        # conic pass before it fails, and its witness is the sum's: the
        # whole sum of 16 variables is never enumerated
        kinds = ["quadric", "conic", "cubic", "quadric", "conic", "cubic"]
        blocks = forest_family("path", kinds, random.Random(5))
        blocks[2][3].pop(0)
        text = family_text(blocks)
        f = write(tmp_path, "mixed.ideal", text)
        argv = ["sum", f, "--certify", "--max-degree", "3"]
        want = whole_sum_route(monkeypatch, argv, capsys)
        calls = counting_certify(monkeypatch)
        got = main(argv), capsys.readouterr().out
        assert_same_verdict(text, got, want)
        assert want[0] == 1 and "verdict: missing-in-sum witness" in want[1]
        assert calls == [3, 3, 4]

    def test_printed_path_sum_fails_at_its_first_degree(self, tmp_path, capsys):
        # the printed sum of 128 twisted cubics along a path is one ideal of
        # 385 variables with no generators.  Its degree-3 layer would hold
        # C(387, 3) monomials, but a degree-2 kernel binomial is already the
        # witness, so the check stops before building degree 3; it runs in a
        # child process under a 1 GB address-space limit
        k = 128
        blocks = []
        for v in range(k):
            b = "b0" if v == 0 else f"s{v - 1}"
            c = f"c{v}" if v == k - 1 else f"s{v}"
            blocks.append(f"ideal C{v}\nvars a{v} {b} {c} d{v}\nparams t s\n"
                          f"row 3 2 1 0\nrow 0 1 2 3\ngen a{v}*{c} - {b}^2\n"
                          f"gen {b}*d{v} - {c}^2\ngen a{v}*d{v} - {b}*{c}\n")
        assert main(["sum", write(tmp_path, "path.ideal", "".join(blocks))]) == 0
        out = capsys.readouterr().out
        glued = write(tmp_path, "path_glued.ideal", out[:out.index("\nk=") + 1])
        code = textwrap.dedent(f"""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from toricsum.cli import main
            sys.exit(main(["sum", "--certify", "--max-degree", "3", {glued!r}]))
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 1, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == \
            "verdict: missing-in-sum witness c127^2 - d127*s126 (degree 3)"

    def test_lone_input_is_eliminated_once(self, tmp_path, capsys, monkeypatch):
        # the printed sum of a 6-cubic path is one 7 x 19 ideal: the rank the
        # report prints and the grading test of its certification read one
        # forward elimination of its matrix, not one each
        assert main(["sum", write(tmp_path, "path.ideal", CUBIC_PATH)]) == 0
        out = capsys.readouterr().out
        glued = write(tmp_path, "path_glued.ideal", out[:out.index("\nk=") + 1])
        shapes = []
        real = exact_linalg._bareiss_echelon

        def counted(rows, ncols):
            shapes.append(tuple(sorted((len(rows), ncols))))
            return real(rows, ncols)

        monkeypatch.setattr(exact_linalg, "_bareiss_echelon", counted)
        monkeypatch.setattr(parametrization, "_bareiss_echelon", counted)
        for _ in range(2):
            parametrization._forward_pass.cache_clear()
            shapes.clear()
            assert main(["sum", "--certify", "--max-degree", "3", glued]) == 1
            assert capsys.readouterr().out.splitlines()[-1] == \
                "verdict: missing-in-sum witness m6^2 - d5*m5 (degree 3)"
            assert shapes.count((7, 19)) == 1

    def test_generator_outside_its_kernel_comes_first(self, tmp_path, capsys, monkeypatch):
        # the first cubic drops a generator and a later conic gains one
        # outside its kernel: as in the whole-sum check, every generator is
        # tested for kernel membership before any kernel is enumerated
        kinds = ["quadric", "cubic", "conic", "quadric"]
        blocks = forest_family("path", kinds, random.Random(8))
        blocks[1][3].pop(0)
        name, vars_, rows, gens = blocks[2]
        gens.append(f"{vars_[0]} - {vars_[1]}")
        f = write(tmp_path, "precedence.ideal", family_text(blocks))
        argv = ["sum", f, "--certify", "--max-degree", "3"]
        want = whole_sum_route(monkeypatch, argv, capsys)
        calls = counting_certify(monkeypatch)
        assert (main(argv), capsys.readouterr().out) == want
        assert want[0] == 1
        status, witness, _ = VERDICT_RE.match(want[1].splitlines()[-1]).groups()
        assert status == "missing-in-kernel"
        assert set(witness.split(" - ")) == set(vars_[:2])
        assert calls == []

    @pytest.mark.parametrize("family", ["glued", "forest"])
    def test_each_generator_is_tested_for_membership_once(self, tmp_path, capsys, monkeypatch,
                                                          family):
        # every distinct input's generators are tested before any kernel is
        # enumerated, and the enumeration does not test them again
        if family == "glued":
            text = GLUED
        else:
            kinds = ["quadric", "conic", "cubic", "quadric", "cubic"]
            text = family_text(forest_family("path", kinds, random.Random(3)))
        f = write(tmp_path, "family.ideal", text)
        tested = []
        real = oracle._in_kernel

        def counted(p, b, images):
            tested.append(b)
            return real(p, b, images)

        monkeypatch.setattr(oracle, "_in_kernel", counted)
        # each part's kernel is read by one of the two routes: record how
        # many generators were tested when it starts
        reads = []
        for name in ("_fiber_failure", "_forest_failure"):
            route = getattr(oracle, name)

            def reading(*args, route=route):
                reads.append(len(tested))
                return route(*args)

            monkeypatch.setattr(oracle, name, reading)
        assert main(["sum", f, "--certify", "--max-degree", "3"]) == 0
        distinct = {(i.parametrization.matrix.entries, i.generators)
                    for i in parse_ideal_file(text)}
        assert Counter(tested) == Counter(g for _, gens in distinct for g in gens)
        assert len(reads) == len(distinct) and set(reads) == {len(tested)}

    def test_non_homogeneous_isolated_input_checks_on_its_own(
        self, tmp_path, capsys, monkeypatch
    ):
        # b - a^2 has no grading, and its block is certified as its own part
        # like any other: the glued quadrics once, then the isolated block,
        # and never the whole sum of 7 variables
        isolated = UNBALANCED.replace("vars x y", "vars a b") + "gen b - a^2\n"
        f = write(tmp_path, "mixed.ideal", GLUED + isolated)
        calls = counting_certify(monkeypatch)
        assert main(["sum", f, "--certify"]) == 0
        assert calls == [3, 2]

    def test_isolated_block_without_grading_leaves_a_path_by_input(
        self, tmp_path, capsys, monkeypatch
    ):
        # an 8-cubic path and the isolated block v - u^2: only the cubic and
        # the isolated block are enumerated, never the 27-variable whole sum
        isolated = "ideal U\nvars u v\nparams t\nrow 1 2\ngen v - u^2\n"
        f = write(tmp_path, "path_isolated.ideal", cubic_path(8) + "\n" + isolated)
        calls = counting_certify(monkeypatch)
        assert main(["sum", f, "--certify", "--max-degree", "4"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()[1].split()) == 1 + 27
        assert out.endswith("verdict: equal-up-to-degree (degree 4)\n")
        assert calls == [4, 2]

    def test_isolated_block_without_grading_matches_the_whole_sum(
        self, tmp_path, capsys, monkeypatch
    ):
        # a random homogeneous block and a random block with no grading, each
        # with its kernel binomials up to the certified degree as generators,
        # less one 30% of the time: certified part by part at degrees 2 to 4
        # and search slack 0 to 2, the verdict is the whole sum's.  Among
        # these draws some failing family reports another witness than the
        # whole sum's, over generators that are not all balanced
        rng = random.Random(7)
        slack = 0
        monkeypatch.setattr(cli, "_degree_bound",
                            lambda args, gens: DegreeBound(args.max_degree, slack))
        exits, other_witness = Counter(), 0
        for _ in range(200):
            degree, slack = rng.randint(2, 4), rng.randint(0, 2)
            graded = random_homogeneous_parametrization(rng, max_params=2, max_vars=4)
            ungraded = random_parametrization(rng, max_params=2, max_vars=3, prefix="y")
            while homogeneity_certificate(ungraded) is not None:
                ungraded = random_parametrization(rng, max_params=2, max_vars=3, prefix="y")
            blocks = []
            for name, p in (("H", graded), ("U", ungraded)):
                gens = enumerate_kernel_binomials(p, DegreeBound(degree))
                if gens and rng.random() < 0.3:
                    gens.pop(rng.randrange(len(gens)))
                blocks.append(format_ideal_block(name, p, gens))
            text = "\n".join(blocks) + "\n"
            f = write(tmp_path, "isolated.ideal", text)
            argv = ["sum", f, "--certify", "--max-degree", str(degree)]
            got = main(argv), capsys.readouterr().out
            want = whole_sum_route(monkeypatch, argv, capsys)
            assert_same_verdict(text, got, want, slack)
            exits[got[0]] += 1
            other_witness += got != want
        assert min(exits[0], exits[1]) > 20 and other_witness >= 1

    @pytest.mark.parametrize("tree", ["path", "star", "caterpillar", "random"])
    def test_matches_the_whole_sum(self, tmp_path, capsys, monkeypatch, tree):
        rng = random.Random(f"certify-by-input:{tree}")
        exits = set()
        for _ in range(2):
            kinds = [rng.choice(["quadric", "conic", "cubic", "quartic", "random"]) for _ in range(5)]
            blocks = forest_family(tree, kinds, rng)
            texts = [family_text(blocks)]
            b = rng.choice([v for v, block in enumerate(blocks) if block[3]])
            blocks[b][3].pop(rng.randrange(len(blocks[b][3])))
            texts.append(family_text(blocks))
            for text in texts:
                f = write(tmp_path, "forest.ideal", text)
                for degree in (["--max-degree", "2"], ["--max-degree", "3"],
                               ["--max-degree", "4"], []):
                    argv = ["sum", f, "--certify", *degree]
                    got = main(argv), capsys.readouterr().out
                    assert_same_verdict(text, got, whole_sum_route(monkeypatch, argv, capsys))
                    exits.add(got[0])
        assert exits == {0, 1}


class TestParser:
    def test_built_once_not_at_import(self):
        code = "import toricsum.cli as c; print(c._parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.stdout == "0\n"
        assert cli._parser() is cli._parser()

    def test_reused_parser_answers_as_separate_processes(self, tmp_path, capsys):
        f = write(tmp_path, "path.ideal", PATH3)
        argvs = [
            ["sum", "--certify", "--max-degree", "3", f],
            ["kernel", "--max-degree", "2", f],
            ["sum", f],
            ["kernel", f],
            ["normalize", "--ideal", "I2", "--pin", "x", f],
            ["sum", "--max-degree", "1", f],
            ["dim", f],
            ["sum", "--certify", f],
        ]
        for argv in argvs:
            got = main(argv), capsys.readouterr().out
            proc = subprocess.run([sys.executable, "-m", "toricsum", *argv],
                                  capture_output=True, text=True, timeout=60)
            assert got == (proc.returncode, proc.stdout)

    def test_help_and_errors_follow_the_current_streams(self, tmp_path, capsys):
        f = write(tmp_path, "c.ideal", TWISTED)
        assert main(["dim", f]) == 0
        capsys.readouterr()
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert out.getvalue().startswith("usage: toricsum")
            with pytest.raises(SystemExit) as exc:
                main(["kernel", "--max-degree", "0", f])
            assert exc.value.code == 2
            assert "must be at least 1" in capsys.readouterr().err
        assert main(["dim", f]) == 0
        assert capsys.readouterr().out == "C: dim(rank)=2\n"
