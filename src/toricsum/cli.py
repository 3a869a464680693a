"""Command-line front end and the on-disk ideal file format.

The file format is line oriented, with ``#`` comments:

    ideal I1
    vars z1 z2 x
    params t s
    row 1 -1 0
    row 1 1 1
    gen z1*z2 - x^2     # optional, used by --certify

Any run of whitespace separates a directive from its arguments and the
arguments from each other.  One ``row`` line per parameter, one integer
per variable.  Variable names shared across blocks identify shared
variables; parameter names are local to their block.

Exit codes: 0 success, 1 mathematical rejection (cycle, two shared
variables, non-homogeneous input, failed certification), 2 parse or usage
error (a file that is not UTF-8, an integer with more digits than
``sys.get_int_max_str_digits()`` read from the file or due to be printed,
in which case nothing of its block is printed) or running out of memory
(a lower ``--max-degree`` enumerates fewer monomials), and 141 when the
reader closes standard output early (``toricsum kernel FILE | head -1``),
the status a shell reports for a command ended by SIGPIPE; nothing more
is printed then.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .binomials import (
    Binomial,
    VariableSet,
    _parse_integer,
    format_binomial,
    parse_binomial,
    relabel_binomial,
)
from .exact_linalg import IntegerMatrix
from .oracle import (
    EQUAL_UP_TO_DEGREE,
    DegreeBound,
    certify_family,
    default_degree_bound,
    enumerate_kernel_binomials,
)
from .parametrization import (
    ConstructionError,
    Parametrization,
    dimension,
    homogeneity_certificate,
    normalize_pin,
)
from .sums import build_family_graph, sum_family

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class IdealFileError(ValueError):
    """Parse error with a source line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ParsedIdeal:
    """One ideal block: its name, its parametrization and its ``gen`` lines.

    The generators are parsed over ``parametrization.vars``, the block's
    own variable set.
    """

    name: str
    parametrization: Parametrization
    generators: tuple[Binomial, ...]


def parse_ideal_file(text: str) -> list[ParsedIdeal]:
    """Parse one or more ideal blocks, with line-accurate errors."""
    ideals: list[ParsedIdeal] = []
    block_names: set[str] = set()
    current: Optional[dict] = None

    def finish() -> None:
        nonlocal current
        if current is None:
            return
        line = current["line"]
        if current["vars"] is None:
            raise IdealFileError(line, f"ideal {current['name']!r} has no vars line")
        if current["params"] is None:
            raise IdealFileError(line, f"ideal {current['name']!r} has no params line")
        if len(current["rows"]) != len(current["params"]):
            raise IdealFileError(
                line,
                f"ideal {current['name']!r} has {len(current['rows'])} rows "
                f"but {len(current['params'])} parameters",
            )
        for j, var in enumerate(current["vars"]):
            if not any(row[j] for row in current["rows"]):
                raise IdealFileError(
                    line, f"variable {var!r} of ideal {current['name']!r} has a zero column"
                )
        vars_ = VariableSet(tuple(current["vars"]))
        params = VariableSet(tuple(current["params"]))
        matrix = IntegerMatrix.from_rows(current["rows"], cols=len(vars_))
        parametrization = Parametrization(params, vars_, matrix)
        gens = []
        for gen_line, gen_text in current["gens"]:
            try:
                gens.append(parse_binomial(gen_text, vars_))
            except ValueError as exc:
                raise IdealFileError(gen_line, str(exc)) from None
        ideals.append(ParsedIdeal(current["name"], parametrization, tuple(gens)))
        current = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *tail = line.split(None, 1)
        rest = tail[0] if tail else ""
        if keyword == "ideal":
            finish()
            if len(rest.split()) != 1:
                raise IdealFileError(lineno, "ideal needs exactly one name")
            if rest in block_names:
                raise IdealFileError(lineno, f"duplicate ideal name {rest!r}")
            block_names.add(rest)
            current = {
                "name": rest,
                "line": lineno,
                "vars": None,
                "params": None,
                "rows": [],
                "gens": [],
            }
            continue
        if current is None:
            raise IdealFileError(lineno, f"{keyword!r} before any ideal block")
        if keyword == "vars" or keyword == "params":
            if current[keyword] is not None:
                raise IdealFileError(lineno, f"duplicate {keyword} line")
            names = rest.split()
            if not names:
                raise IdealFileError(lineno, f"{keyword} line needs at least one name")
            for n in names:
                if not _NAME_RE.match(n):
                    raise IdealFileError(lineno, f"invalid name {n!r}")
            if len(set(names)) != len(names):
                dup = next(n for i, n in enumerate(names) if n in names[:i])
                raise IdealFileError(lineno, f"duplicate name {dup!r}")
            current[keyword] = names
        elif keyword == "row":
            if current["vars"] is None:
                raise IdealFileError(lineno, "row before vars")
            tokens = rest.split()
            if len(tokens) != len(current["vars"]):
                raise IdealFileError(
                    lineno,
                    f"row has {len(tokens)} entries but there are "
                    f"{len(current['vars'])} variables",
                )
            try:
                current["rows"].append([_parse_integer(t) for t in tokens])
            except ValueError as exc:
                raise IdealFileError(lineno, str(exc)) from None
        elif keyword == "gen":
            if current["vars"] is None:
                raise IdealFileError(lineno, "gen before vars")
            current["gens"].append((lineno, rest))
        else:
            raise IdealFileError(lineno, f"unknown directive {keyword!r}")
    finish()
    return ideals


class DigitLimitError(ValueError):
    """An integer to print has more digits than ``sys.get_int_max_str_digits()``."""


def _decimal(x: object) -> str:
    """``str(x)`` of an int or a Fraction, raising :class:`DigitLimitError` past the limit."""
    try:
        return str(x)
    except ValueError:  # the digit limit is the only ValueError str raises on a number
        raise DigitLimitError(f"an integer has more than {sys.get_int_max_str_digits()} digits "
                              "to print, the limit of sys.get_int_max_str_digits()") from None


def format_ideal_block(name: str, p: Parametrization, gens: Sequence[Binomial] = ()) -> str:
    lines = [f"ideal {name}", "vars " + " ".join(p.vars), "params " + " ".join(p.params)]
    lines += ["row " + " ".join(map(_decimal, row)) for row in p.matrix.entries]
    lines += ["gen " + format_binomial(g, p.vars) for g in gens]
    return "\n".join(lines)


def format_ideal_file(ideals: Sequence[ParsedIdeal]) -> str:
    blocks = [
        format_ideal_block(i.name, i.parametrization, i.generators)
        for i in ideals
    ]
    return "\n\n".join(blocks) + "\n"


def _cmd_dim(ideals: list[ParsedIdeal], args: argparse.Namespace) -> int:
    for ideal in ideals:
        print(f"{ideal.name}: dim(rank)={dimension(ideal.parametrization)}")
    return 0


def _cmd_homog(ideals: list[ParsedIdeal], args: argparse.Namespace) -> int:
    for ideal in ideals:
        cert = homogeneity_certificate(ideal.parametrization)
        if cert is None:
            print(f"{ideal.name}: not homogeneous")
        else:
            print(f"{ideal.name}: homogeneous omega = " + " ".join(map(_decimal, cert.omega)))
    return 0


def _degree_bound(args: argparse.Namespace, gens: Sequence[Binomial]) -> DegreeBound:
    """``--max-degree`` when given, else the default bound for ``gens``."""
    if args.max_degree is not None:
        return DegreeBound(args.max_degree)
    return default_degree_bound(gens)


def _cmd_kernel(ideals: list[ParsedIdeal], args: argparse.Namespace) -> int:
    for ideal in ideals:
        bound = _degree_bound(args, ideal.generators)
        found = enumerate_kernel_binomials(ideal.parametrization, bound)
        print(f"{ideal.name}: kernel binomials up to degree {bound.max_degree}")
        if not found:
            print("(none)")
        for b in found:
            print(format_binomial(b, ideal.parametrization.vars))
    return 0


def _cmd_normalize(ideals: list[ParsedIdeal], args: argparse.Namespace) -> int:
    ideal = next((i for i in ideals if i.name == args.ideal), None)
    if ideal is None:
        print(f"error: no ideal named {args.ideal!r} in the file", file=sys.stderr)
        return 2
    if args.pin not in ideal.parametrization.vars:
        print(f"error: no variable named {args.pin!r} in ideal {ideal.name!r}", file=sys.stderr)
        return 2
    pin = normalize_pin(ideal.parametrization, args.pin)
    param = pin.parametrization.params.names[pin.pinned_param_index]
    q = _decimal(pin.exponent)
    power = f"{param}^{q}" if pin.exponent != 1 else param
    block = format_ideal_block(ideal.name, pin.parametrization)
    print(f"{ideal.name}: pin {args.pin} -> {power} (q={q})")
    print(block)
    return 0


def _cmd_graph(ideals: list[ParsedIdeal], args: argparse.Namespace) -> int:
    graph = build_family_graph([(i.name, i.parametrization.vars) for i in ideals])
    for i, j, var in graph.edges:
        print(f"edge {graph.ids[i]} -- {graph.ids[j]} via {var}")
    all_trees = True
    for num, comp in enumerate(graph.components, 1):
        members = ",".join(graph.ids[v] for v in comp.vertices)
        kind = "tree" if comp.is_tree else "cycle"
        all_trees = all_trees and comp.is_tree
        print(f"component {num}: {kind} {{{members}}}")
    print(f"r={graph.r} k={graph.k}")
    return 0 if all_trees else 1


def _cmd_sum(ideals: list[ParsedIdeal], args: argparse.Namespace) -> int:
    names = [i.name for i in ideals]
    result, report = sum_family([i.parametrization for i in ideals], names)
    if names:
        print(format_ideal_block("+".join(names), result))
    print(f"k={report.graph.k} r={report.graph.r}")
    print(f"dim(rank)={report.rank_dimension}")
    print(f"predicted(thm)={report.iterated_prediction}")
    print(f"predicted(global)={report.global_formula}")
    if not args.certify:
        return 0

    bound = _degree_bound(args, [g for ideal in ideals for g in ideal.generators])
    inputs = [(i.parametrization, i.generators) for i in ideals]
    verdict, failing = certify_family(inputs, bound)
    if verdict.status == EQUAL_UP_TO_DEGREE:
        print(f"verdict: {verdict.status} (degree {verdict.degree_checked})")
        return 0
    witness = relabel_binomial(verdict.witness, ideals[failing].parametrization.vars,
                               result.vars)
    print(f"verdict: {verdict.status} witness {format_binomial(witness, result.vars)} "
          f"(degree {verdict.degree_checked})")
    return 1


def _positive_int(token: str) -> int:
    # The integer rule of input files: ``int`` would also take ``1_0`` and
    # non-ASCII digits.
    try:
        value = _parse_integer(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # argparse's own writer drops an OSError, so an unbuffered --help
        # into a closed pipe would exit 0; let it reach main instead.
        (file or sys.stdout).write(self.format_help())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process.

    Not at import, so that importing the package stays cheap.
    """
    parser = _ArgumentParser(
        prog="toricsum",
        description="Toric ideal parametrizations, kernel enumeration, and sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser("dim", help="rank dimension of each ideal")
    p_dim.set_defaults(handler=_cmd_dim)

    p_homog = sub.add_parser("homog", help="homogeneity certificate of each ideal")
    p_homog.set_defaults(handler=_cmd_homog)

    p_kernel = sub.add_parser("kernel", help="enumerate kernel binomials")
    p_kernel.add_argument("--max-degree", type=_positive_int, default=None)
    p_kernel.set_defaults(handler=_cmd_kernel)

    p_norm = sub.add_parser("normalize", help="pin a variable to a parameter power")
    p_norm.add_argument("--ideal", required=True)
    p_norm.add_argument("--pin", required=True, metavar="VAR")
    p_norm.set_defaults(handler=_cmd_normalize)

    p_graph = sub.add_parser("graph", help="sharing graph of the ideal family")
    p_graph.set_defaults(handler=_cmd_graph)

    p_sum = sub.add_parser("sum", help="sum the family along its sharing graph")
    p_sum.add_argument("--certify", action="store_true")
    p_sum.add_argument("--max-degree", type=_positive_int, default=None)
    p_sum.set_defaults(handler=_cmd_sum)

    for p in (p_dim, p_homog, p_kernel, p_norm, p_graph, p_sum):
        p.add_argument("file", metavar="FILE")
    return parser


# Exit status when standard output is closed before everything is written.
_EXIT_BROKEN_PIPE = 141


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            # Also on SystemExit from argparse, whose --help goes to stdout.
            sys.stdout.flush()
    except BrokenPipeError:
        # Send what is still buffered, and the interpreter's flush at exit,
        # to the null device so that neither raises again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_BROKEN_PIPE


def _run(argv: Optional[Sequence[str]]) -> int:
    args = _parser().parse_args(argv)
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        ideals = parse_ideal_file(text)
        return args.handler(ideals, args)
    except (IdealFileError, DigitLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass
    # out of memory: reported once the handler's frames, and what they held, are freed
    print("error: out of memory; a lower --max-degree enumerates fewer monomials",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
