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
error, including a file that is not UTF-8, and 141 when the reader closes
standard output early (``toricsum kernel FILE | head -1``), the status a
shell reports for a command ended by SIGPIPE; nothing more is printed then.
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
    _INTEGER_RE,
    Binomial,
    VariableSet,
    format_binomial,
    parse_binomial,
    relabel_binomial,
)
from .exact_linalg import IntegerMatrix
from .oracle import (
    EQUAL_UP_TO_DEGREE,
    DegreeBound,
    _certify_parts,
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
            bad = next((t for t in tokens if not _INTEGER_RE.fullmatch(t)), None)
            if bad is not None:
                raise IdealFileError(lineno, f"malformed integer {bad!r}")
            current["rows"].append([int(t) for t in tokens])
        elif keyword == "gen":
            if current["vars"] is None:
                raise IdealFileError(lineno, "gen before vars")
            current["gens"].append((lineno, rest))
        else:
            raise IdealFileError(lineno, f"unknown directive {keyword!r}")
    finish()
    return ideals


def format_ideal_block(name: str, p: Parametrization, gens: Sequence[Binomial] = ()) -> str:
    lines = [f"ideal {name}"]
    lines.append("vars " + " ".join(p.vars))
    lines.append("params " + " ".join(p.params))
    for row in p.matrix.entries:
        lines.append("row " + " ".join(str(x) for x in row))
    for g in gens:
        lines.append("gen " + format_binomial(g, p.vars))
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
            print(f"{ideal.name}: homogeneous omega = " + " ".join(str(w) for w in cert.omega))
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
    power = f"{param}^{pin.exponent}" if pin.exponent != 1 else param
    print(f"{ideal.name}: pin {args.pin} -> {power} (q={pin.exponent})")
    print(format_ideal_block(ideal.name, pin.parametrization))
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


def _certification_parts(
    ideals: Sequence[ParsedIdeal],
) -> list[tuple[Parametrization, Sequence[Binomial]]]:
    """The parts whose checks together certify the sum of ``ideals``.

    Each part is a parametrization with generators over its own variables,
    checked by :func:`oracle._certify_parts`.  The parts are the distinct
    inputs, by (matrix entries, generators) in first-occurrence order, so a
    family of copies of one block certifies it once.  A lone input is its
    own whole sum, as ``sum_family`` returns it unchanged, and an empty sum
    has no kernel binomial.

    A pass means every kernel binomial of the sum up to degree d lies in
    the ideal of the union of the generators: the whole-sum check's
    claim, at the same bound.  The components of the sharing graph have
    disjoint variables, and a kernel binomial of the sum over two of them,
    X and Y, splits as x^a y^b - x^c y^d = y^b (x^a - x^c) + x^c (y^b - y^d).
    Both x^a - x^c and y^b - y^d are kernel binomials of one side (or
    zero), of degree no higher than the sum binomial's, so it is enough
    that each component's kernel binomials up to degree d lie in the ideal
    of its inputs' generators.  An isolated input, graded or not, is its
    own part, whose pass says exactly that: its enumerated binomials
    generate every fiber up to degree d, and each has a replayed chain.

    A component of two or more inputs holds only homogeneous ones, or
    ``sum_family`` refuses them.  Take one edge, R_i = k[S_i] glued along
    s, with s -> a_i, a nonzero column.  Each R_i is a domain containing
    k[s], so it is torsion-free, hence flat, over the PID k[s].  So s is a
    non-zerodivisor on R_1 (x)_{k[s]} R_2, which therefore embeds in its
    localization at s.  After inverting s, the pushout monoid embeds in
    the group (G_1 + G_2) / Z(a_1, -a_2), where G_i is the group of S_i.
    That group is torsion-free: homogeneity gives every column degree 1,
    so m*g = k*a_1 in G_1 forces m | k, and then g = (k/m)*a_1.  So the
    tensor product embeds in a Laurent ring, and I_1 + I_2 is prime, with
    lattice L_1 + L_2 (a direct sum, as the shared column is nonzero).
    Its rank is (n_1 - r_1) + (n_2 - r_2), which is the corank of A_sum,
    of rank r_1 + r_2 - 1; a saturated sublattice of ker A_sum of full
    rank is ker A_sum.  So I_1 + I_2 is the toric ideal of the glued
    matrix (Rosales's gluing, Semigroup Forum 1997).  The glued ideal is
    homogeneous again, so induct along the tree by leaf peeling.  Every
    variable has degree 1 under the grading, so (I_1 + ... + I_k)_e =
    sum_i (I_i)_e for each degree e, and each input that certifies up to
    degree d has (I_i)_e inside the ideal of its generators for e <= d.
    Disjoint components give a monoid algebra over a product of monoids,
    again a domain, so I_sum = I_1 + ... + I_k over the whole forest.

    A failure is the sum's failure too.  Define phi: k[X] -> k[X_i]: it
    fixes X_i, sends every variable of the subtree hanging off block i at
    shared variable s to s, and every variable of another component to 1.
    A binomial of another input of i's component is balanced, as that
    input is homogeneous, and goes to s^e - s^e = 0; any binomial of
    another component goes to 1 - 1 = 0.  So phi kills every I_j with
    j != i, hence every other input's generator once each is known to lie
    in its kernel, and maps I_sum = I_1 + ... + I_k onto I_i, which it
    fixes.  Hence I_sum meets k[X_i] in I_i: a generator outside its
    input's kernel is outside the sum's.  The whole-sum check tests the
    generators first, in file order, so they are tested here first too,
    and the first one outside its kernel is reported.  Otherwise part i
    has a kernel binomial w that its search does not reach from G_i.  phi
    sends a variable to a variable or to 1, so it maps a monomial to one
    of no higher degree, a move by G_i to itself and a move by any other
    generator to standing still: a whole-sum chain joining w's sides
    under a cap maps to a chain of G_i's moves under the same cap.  If G_i
    is balanced its moves keep the degree, so that chain never leaves
    deg w, and otherwise part i's cap has the whole sum's slack.  So the
    whole-sum search misses w too, and w, of degree <= d and in I_sum, is
    a witness for the sum.  It is the first failing input's witness,
    which need not be the first the whole-sum enumeration meets.
    """
    distinct: dict[tuple, tuple[Parametrization, Sequence[Binomial]]] = {}
    for ideal in ideals:
        p = ideal.parametrization
        distinct.setdefault((p.matrix.entries, ideal.generators), (p, ideal.generators))
    return list(distinct.values())


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
    parts = _certification_parts(ideals)
    verdict, failing = _certify_parts(parts, bound)
    if verdict.status == EQUAL_UP_TO_DEGREE:
        print(f"verdict: {verdict.status} (degree {verdict.degree_checked})")
        return 0
    witness = relabel_binomial(verdict.witness, parts[failing][0].vars, result.vars)
    print(f"verdict: {verdict.status} witness {format_binomial(witness, result.vars)} "
          f"(degree {verdict.degree_checked})")
    return 1


def _positive_int(token: str) -> int:
    # The integer rule of input files: ``int`` would also take ``1_0`` and
    # non-ASCII digits.
    if not _INTEGER_RE.fullmatch(token):
        raise argparse.ArgumentTypeError(f"malformed integer {token!r}")
    value = int(token)
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
    except IdealFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
