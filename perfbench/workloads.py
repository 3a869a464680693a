"""The three workloads: what one op is, and how its answer is checked.

Each workload turns generated cases into op inputs (``prepare``), runs one
op (``run``), digests the raw answer so repeats of a checked answer need
not be checked again (``digest``), checks it with :mod:`checks`
(``check``, which returns the list of problems found) and gives the
canonical part of the answer that goes into the run's checksum
(``canonical``).

Ops call the program through module attributes (``toricsum.sum_family``,
``toricsum.cli.main``) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Any

import toricsum
import toricsum.cli
import toricsum.oracle

import checks
from inputs import CERTIFY_DEGREE, Case


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _sorted_rows(names: tuple[str, ...], rows: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Rows with columns reordered by variable name."""
    order = sorted(range(len(names)), key=lambda j: names[j])
    return [[row[j] for j in order] for row in rows]


def _tree_prediction(case: Case) -> int:
    """Sum of input dimensions minus the k - 1 merges of one tree."""
    return sum(checks.rank(rows) for _, _, rows in case.blocks) - (len(case.blocks) - 1)


class FamilySum:
    """One op is ``sum_family(ps, names)`` with the default usage check."""

    name = "family-sum"

    def prepare(self, cases: list[Case], paths: list[Path]) -> list[Any]:
        out = []
        for case in cases:
            ideals = toricsum.cli.parse_ideal_file(case.text)
            out.append(([i.parametrization for i in ideals], [i.name for i in ideals]))
        return out

    def run(self, op_input: Any) -> tuple[Any, int]:
        ps, names = op_input
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = toricsum.sum_family(ps, names)
        return result, len(caught)

    def digest(self, answer: Any) -> str:
        p, report = answer
        return _digest(p.vars.names, p.matrix.entries, report.rank_dimension)

    def check(self, case: Case, answer: Any) -> list[str]:
        p, report = answer
        a = [list(row) for row in p.matrix.entries]
        names = p.vars.names
        problems = []
        expected = _tree_prediction(case)
        union = {v for _, vars_, _ in case.blocks for v in vars_}
        if set(names) != union or len(names) != len(union):
            problems.append("result variables are not the union of the inputs'")
            return problems
        if checks.rank(a) != expected:
            problems.append(f"rank {checks.rank(a)} != iterated prediction {expected}")
        if report.rank_dimension != expected:
            problems.append(f"reported rank {report.rank_dimension} != {expected}")
        if not checks.has_grading(a):
            problems.append("result has no grading vector")
        column = {v: j for j, v in enumerate(names)}
        for ideal, vars_, rows in case.blocks:
            for u in checks.kernel_basis(rows, len(vars_)):
                extended = [0] * len(names)
                for v, x in zip(vars_, u):
                    extended[column[v]] = x
                if any(checks.mat_vec(a, extended)):
                    problems.append(f"a kernel vector of {ideal} is not in the result kernel")
                    break
        return problems

    def canonical(self, case: Case, answer: Any) -> Any:
        p, _ = answer
        rows = _sorted_rows(p.vars.names, p.matrix.entries)
        return (case.label, sorted(p.vars.names), checks.reduced_echelon(rows))


_VERDICT_RE = re.compile(r"^verdict: (\S+)(?: witness (.+))? \(degree (\d+)\)$")


class Certify:
    """One op is ``toricsum sum FILE --certify`` run in-process, stdout captured."""

    name = "certify"

    def prepare(self, cases: list[Case], paths: list[Path]) -> list[Any]:
        return [str(path) for path in paths]

    def run(self, op_input: Any) -> tuple[Any, int]:
        out = io.StringIO()
        argv = ["sum", op_input, "--certify", "--max-degree", str(CERTIFY_DEGREE)]
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
            warnings.simplefilter("always")
            code = toricsum.cli.main(argv)
        return (code, out.getvalue()), len(caught)

    def digest(self, answer: Any) -> str:
        return _digest(answer)

    def check(self, case: Case, answer: Any) -> list[str]:
        code, text = answer
        lines = text.splitlines()
        names = next((ln.split()[1:] for ln in lines if ln.startswith("vars ")), [])
        a = [[int(x) for x in ln.split()[1:]] for ln in lines if ln.startswith("row ")]
        problems = []
        expected = _tree_prediction(case)
        dim_line = f"dim(rank)={expected}"
        if dim_line not in lines or checks.rank(a) != expected:
            problems.append(f"dimension differs from {dim_line}")
        match = _VERDICT_RE.match(lines[-1]) if lines else None
        if match is None:
            return problems + [f"no verdict line (exit {code})"]
        status, witness, degree = match.groups()
        if int(degree) != CERTIFY_DEGREE:
            problems.append(f"degree {degree} checked, {CERTIFY_DEGREE} asked")
        want = ("missing-in-sum", 1) if case.expect_missing else ("equal-up-to-degree", 0)
        if (status, code) != want:
            return problems + [f"verdict {status} exit {code}, expected {want[0]} exit {want[1]}"]
        if case.expect_missing:
            if witness is None:
                return problems + ["missing-in-sum without a witness"]
            plus_text, minus_text = witness.split(" - ")
            plus = checks.parse_monomial(plus_text, names)
            minus = checks.parse_monomial(minus_text, names)
            if any(checks.mat_vec(a, [x - y for x, y in zip(plus, minus)])):
                problems.append(f"witness {witness} is not in the kernel")
            gens = []
            for g in case.gens:
                gp, gm = g.split(" - ")
                gens.append(toricsum.Binomial.from_pair(
                    checks.parse_monomial(gp, names), checks.parse_monomial(gm, names)))
            target = toricsum.Binomial.from_pair(plus, minus)
            if toricsum.oracle.membership_by_classes(target, gens):
                problems.append(f"witness {witness} is in the ideal of the generators")
        return problems

    def canonical(self, case: Case, answer: Any) -> Any:
        code, text = answer
        lines = text.splitlines()
        return (case.label, code, [ln for ln in lines if ln.startswith(("dim(rank)=", "verdict:"))])


class Lattice:
    """One op is a kernel round trip plus normal forms and every pin."""

    name = "lattice"

    def prepare(self, cases: list[Case], paths: list[Path]) -> list[Any]:
        return [toricsum.cli.parse_ideal_file(case.text)[0].parametrization for case in cases]

    def run(self, p: Any) -> tuple[Any, int]:
        basis = toricsum.kernel_lattice(p.matrix)
        back = toricsum.parametrization_from_lattice(basis, p.vars.names)
        round_trip = toricsum.kernel_lattice(back.matrix) == basis
        h, u = toricsum.hermite_normal_form(p.matrix)
        snf = toricsum.smith_normal_form(p.matrix)
        cert = toricsum.homogeneity_certificate(p)
        pins = [toricsum.normalize_pin(p, j) for j in range(len(p.vars))]
        return (p, basis, back, round_trip, h, u, snf, cert, pins), 0

    def digest(self, answer: Any) -> str:
        p, basis, back, round_trip, h, u, snf, cert, pins = answer
        return _digest(
            p.matrix.entries, basis.vectors, back.matrix.entries, round_trip, h.entries, u.entries,
            snf.D.entries, snf.P.entries, snf.Q.entries, cert and cert.omega,
            [(pin.exponent, pin.pinned_param_index, pin.parametrization.matrix.entries) for pin in pins],
        )

    def check(self, case: Case, answer: Any) -> list[str]:
        p, basis, back, round_trip, h, u, snf, cert, pins = answer
        m = [list(row) for row in p.matrix.entries]
        n = len(m[0])
        b = [list(v) for v in basis.vectors]
        problems = []
        r = checks.rank(m)
        if any(any(checks.mat_vec(m, v)) for v in b):
            problems.append("A @ B != 0")
        if r + len(b) != n or checks.rank(b) != len(b):
            problems.append(f"rank A {r} + rank B {checks.rank(b)} != n {n}")
        if not round_trip:
            problems.append("kernel of parametrization_from_lattice differs")
        a2 = [list(row) for row in back.matrix.entries]
        if any(any(checks.mat_vec(a2, v)) for v in b) or checks.rank(a2) != r:
            problems.append("parametrization_from_lattice does not annihilate the kernel")
        if checks.mat_mul(u.entries, m) != [list(row) for row in h.entries]:
            problems.append("U @ M != H")
        if abs(checks.determinant(u.entries)) != 1:
            problems.append("|det U| != 1")
        d = checks.mat_mul(checks.mat_mul(snf.P.entries, m), snf.Q.entries)
        if d != [list(row) for row in snf.D.entries]:
            problems.append("P @ M @ Q != D")
        if cert is None or any(
            sum(Fraction(w) * x for w, x in zip(cert.omega, col)) != 1 for col in zip(*m)
        ):
            problems.append("homogeneity certificate does not certify")
        for j, pin in enumerate(pins):
            pm = [list(row) for row in pin.parametrization.matrix.entries]
            want = [pin.exponent if k == pin.pinned_param_index else 0 for k in range(len(pm))]
            if [row[j] for row in pm] != want or pin.exponent < 1:
                problems.append(f"pin of column {j} is not a single parameter power")
            elif any(any(checks.mat_vec(pm, v)) for v in b) or checks.rank(pm) != len(pm) or len(pm) != r:
                problems.append(f"pin of column {j} changed the kernel or is not maximal rank")
        return problems

    def canonical(self, case: Case, answer: Any) -> Any:
        p, basis, back, round_trip, h, u, snf, cert, pins = answer
        diagonal = [snf.D.entries[k][k] for k in range(min(snf.D.rows, snf.D.cols))]
        return (case.label, basis.vectors, h.entries, diagonal, [pin.exponent for pin in pins])


WORKLOADS = {w.name: w for w in (FamilySum(), Certify(), Lattice())}
