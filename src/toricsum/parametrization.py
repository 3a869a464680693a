"""Monomial parametrizations x_i -> t^(A e_i) and their kernel calculus.

A parametrization is an integer matrix whose columns are the parameter
exponents of the variables.  Its kernel, the lattice of integer vectors
annihilated by the matrix, describes a toric ideal through the binomials
x^u_plus - x^u_minus with u_plus - u_minus in the kernel.  This module
implements evaluation, kernel membership, dimension, the homogeneity
certificate, base changes, pinning a variable to a single parameter power,
dehomogenization, and the lattice <-> parametrization conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Optional, Sequence

from .binomials import Binomial, VariableSet
from .exact_linalg import (
    IntegerMatrix,
    LatticeBasis,
    RationalMatrix,
    annihilator,
    clear_denominators,
    determinant,
    rank,
    row_reduce,
    solve_row_rational,
)


class ConstructionError(ValueError):
    """A mathematical precondition of a construction failed.

    Distinct from plain ValueError so that callers (the CLI in
    particular) can tell a rejected input from a programming error.
    """


@dataclass(frozen=True)
class Parametrization:
    """Named variables and parameters with the exponent matrix binding them.

    Column i of ``matrix`` is the image exponent vector of variable i.
    Zero columns mean a variable maps to 1; they are rejected unless
    ``allow_degenerate`` is set, since most constructions assume every
    variable genuinely appears.
    """

    params: VariableSet
    vars: VariableSet
    matrix: IntegerMatrix
    allow_degenerate: bool = False

    def __post_init__(self) -> None:
        if self.matrix.rows != len(self.params):
            raise ValueError(
                f"matrix has {self.matrix.rows} rows but there are {len(self.params)} parameters"
            )
        if self.matrix.cols != len(self.vars):
            raise ValueError(
                f"matrix has {self.matrix.cols} columns but there are {len(self.vars)} variables"
            )
        if not self.allow_degenerate:
            # zip(*rows) yields no columns for a matrix without rows, whose columns are all zero.
            columns = zip(*self.matrix.entries) if self.matrix.rows else repeat(())
            for name, column in zip(self.vars, columns):
                if not any(column):
                    raise ConstructionError(
                        f"variable {name!r} maps to 1 (zero column); "
                        "pass allow_degenerate=True to admit it"
                    )

    def column(self, j: int) -> tuple[int, ...]:
        return self.matrix.column(j)


@dataclass(frozen=True)
class HomogeneityCertificate:
    """Rational grading vector with every nonzero column pairing to 1."""

    omega: tuple[Fraction, ...]

    def certifies(self, p: Parametrization) -> bool:
        if len(self.omega) != len(p.params):
            return False
        # alpha . omega == 1 iff alpha . (L * omega) == L, L the common denominator.
        denom = lcm(*(w.denominator for w in self.omega))
        weights = [w.numerator * (denom // w.denominator) for w in self.omega]
        for col in zip(*p.matrix.entries):
            if any(col) and sum(w * x for w, x in zip(weights, col)) != denom:
                return False
        return True


@dataclass(frozen=True)
class PinResult:
    """Maximal-rank reparametrization with one variable pinned.

    The pinned variable's column equals ``exponent * e_j`` where ``j`` is
    ``pinned_param_index``, i.e. it maps to a single parameter power.
    """

    parametrization: Parametrization
    pinned_param_index: int
    exponent: int


def evaluate(p: Parametrization, u: Sequence[int]) -> tuple[int, ...]:
    """Image exponent vector of the monomial with exponents ``u``."""
    return p.matrix.apply(u)


def contains_binomial(p: Parametrization, b: Binomial) -> bool:
    """Kernel membership: both sides map to the same parameter monomial."""
    if b.nvars != len(p.vars):
        raise ValueError("binomial is over a different variable set")
    return evaluate(p, b.u_plus) == evaluate(p, b.u_minus)


def dimension(p: Parametrization) -> int:
    """Dimension of the parametrized quotient, the rank of the matrix."""
    return rank(p.matrix)


def homogeneity_certificate(p: Parametrization) -> Optional[HomogeneityCertificate]:
    """Grading vector omega with ``alpha_i . omega == 1`` on nonzero columns.

    Such a vector exists iff the kernel ideal is homogeneous for the
    standard grading; None means it is not.
    """
    mask = [j for j in range(len(p.vars)) if any(p.column(j))]
    ones = [1] * len(p.vars)
    omega = solve_row_rational(p.matrix, ones, mask)
    if omega is None:
        return None
    return HomogeneityCertificate(omega)


def reparametrize(p: Parametrization, q: RationalMatrix) -> Parametrization:
    """Left-multiply the matrix by a nonsingular rational base change.

    The product is cleared to an integer matrix by the least positive
    scalar, which changes neither the rational row space nor the kernel,
    so the parametrized ideal is unchanged.
    """
    if q.rows != q.cols or q.rows != p.matrix.rows:
        raise ConstructionError(
            f"base change must be square of size {p.matrix.rows}, got {q.rows}x{q.cols}"
        )
    q_int, _ = clear_denominators(q)
    if determinant(q_int) == 0:
        raise ConstructionError("base change matrix is singular")
    cleared, _ = clear_denominators(q @ p.matrix)
    return Parametrization(p.params, p.vars, cleared, p.allow_degenerate)


def _pin_rows(
    rows: Sequence[Sequence[int]], idx: int, name: str
) -> tuple[list[list[int]], list[int], int]:
    """The pin core: RREF of ``rows`` with column ``idx`` first, divided by its content.

    Returns ``(reduced, pivot_cols, q)``: the nonzero rows of the reduced
    row echelon form computed with column ``idx`` moved first, back in the
    original column order and scaled by the least positive ``q`` that makes
    them integral; ``pivot_cols`` are their pivot columns in the original
    order, ``idx`` first.  Column ``idx`` must not be zero.  Raises
    RuntimeError unless the pivot columns form ``q`` times the identity,
    which also proves the reduced rows independent.
    """
    rows = [[row[idx], *row[:idx], *row[idx + 1 :]] for row in rows]
    pivots, d, _ = row_reduce(rows, len(rows[0]))
    rows = rows[: len(pivots)]
    g = gcd(*(x for row in rows for x in row))
    if d < 0:
        g = -g
    reduced = [[x // g for x in row[1 : idx + 1] + row[:1] + row[idx + 1 :]] for row in rows]
    q = d // g
    pivot_cols = [idx if c == 0 else c - 1 if c <= idx else c for c in pivots]
    for k, c in enumerate(pivot_cols):
        if any(row[c] != (q if r == k else 0) for r, row in enumerate(reduced)):
            raise RuntimeError(f"pin of {name!r}: pivot column {k} is not q * e_{k}")
    return reduced, pivot_cols, q


def normalize_pin(p: Parametrization, var: int | str) -> PinResult:
    """Re-parametrize at maximal rank so one variable maps to t_j^q.

    The result is the reduced row echelon form of the whole matrix with the
    pinned column moved first, scaled by the least positive ``q`` that
    makes it integral (see :func:`_pin_rows`, whose row set here is every
    row).  Its rows span the same rational row space, so the kernel lattice
    is untouched; its pivot columns (the pinned one first, then greedily in
    increasing index) form ``q`` times the identity, and the gcd of all its
    entries is 1, which fixes it uniquely.  The parameters are renamed
    ``t1, t2, ...``.
    """
    idx = p.vars.index(var) if isinstance(var, str) else var
    if not 0 <= idx < len(p.vars):
        raise ConstructionError(f"variable index {idx} out of range")
    if not any(p.column(idx)):
        raise ConstructionError(
            f"variable {p.vars.names[idx]!r} maps to 1 and cannot be pinned"
        )
    reduced, _, q = _pin_rows(p.matrix.entries, idx, p.vars.names[idx])
    fresh = VariableSet(tuple(f"t{k + 1}" for k in range(len(reduced))))
    matrix = IntegerMatrix.from_rows(reduced, cols=len(p.vars))
    result = Parametrization(fresh, p.vars, matrix, p.allow_degenerate)
    return PinResult(result, pinned_param_index=0, exponent=q)


def dehomogenize_parametrization(p: Parametrization, x: str, s: str) -> Parametrization:
    """Remove a variable pinned to the last parameter, and that parameter.

    Requires the column of ``x`` to be supported exactly on the row of
    ``s``, which must be the last parameter; the remaining block is the
    dehomogenized parametrization (every other variable simply loses its
    ``s`` exponent).
    """
    xi = p.vars.index(x)
    si = p.params.index(s)
    if si != len(p.params) - 1:
        raise ConstructionError(f"parameter {s!r} must be the last parameter row")
    col = p.column(xi)
    if col[si] == 0:
        raise ConstructionError(f"variable {x!r} has zero exponent on {s!r}")
    if any(col[k] for k in range(len(col)) if k != si):
        raise ConstructionError(f"the column of {x!r} has support outside {s!r}")

    keep_rows = [k for k in range(p.matrix.rows) if k != si]
    keep_cols = [j for j in range(p.matrix.cols) if j != xi]
    new_matrix = p.matrix.take(keep_rows, keep_cols)
    new_vars = VariableSet(tuple(n for n in p.vars if n != x))
    new_params = VariableSet(tuple(n for n in p.params if n != s))
    degenerate = p.allow_degenerate or any(
        not any(new_matrix.column(j)) for j in range(new_matrix.cols)
    )
    return Parametrization(new_params, new_vars, new_matrix, degenerate)


def parametrization_from_lattice(
    basis: LatticeBasis,
    var_names: Optional[Sequence[str]] = None,
) -> Parametrization:
    """Parametrization whose kernel is the saturation of the given lattice.

    The matrix is :func:`~toricsum.exact_linalg.annihilator` of the
    lattice, the same matrix :func:`saturate_lattice` takes the kernel of,
    so ``A @ B == 0`` and ``rank(A) == n - rank(B)``.  When the
    annihilator is trivial the matrix has no rows and every variable maps
    to 1; the result is then flagged degenerate.
    """
    n = basis.ambient_dim
    a = annihilator(basis)
    if var_names is None:
        var_names = tuple(f"x{k + 1}" for k in range(n))
    params = VariableSet(tuple(f"t{k + 1}" for k in range(a.rows)))
    degenerate = any(not any(a.column(j)) for j in range(n))
    return Parametrization(params, VariableSet(tuple(var_names)), a, degenerate)
