"""Monomial parametrizations x_i -> t^(A e_i) and their kernel calculus.

A parametrization is an integer matrix whose columns are the parameter
exponents of the variables.  Its kernel, the lattice of integer vectors
annihilated by the matrix, describes a toric ideal through the binomials
x^u_plus - x^u_minus with u_plus - u_minus in the kernel.  This module
implements evaluation, kernel membership, dimension, the homogeneity
certificate, base changes, pinning a variable to a single parameter power,
and the lattice <-> parametrization conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .binomials import Binomial, VariableSet
from .exact_linalg import (
    IntegerMatrix,
    _Rows,
    LatticeBasis,
    RationalMatrix,
    _bareiss_echelon,
    annihilator,
    clear_denominators,
    determinant,
    rank,  # not called here; perfbench's tests read this module's binding
    row_reduce,
    solve_row_rational,
)


class ConstructionError(ValueError):
    """A mathematical precondition of a construction failed.

    Distinct from plain ValueError so that callers (the CLI in
    particular) can tell a rejected input from a programming error.
    """


@lru_cache(maxsize=16)
def _numbered(m: int) -> VariableSet:
    """Parameters ``t1, ..., tm`` by position, as every parametrization built here names them.

    Cached, because a family sum asks for one set per merge, mostly of the
    same few sizes, and formatting the names at every merge cost small
    family sums about 5% of their time.  At most sixteen sets are kept.
    """
    return VariableSet(tuple(f"t{k}" for k in range(1, m + 1)))


@dataclass(frozen=True)
class Parametrization:
    """Named variables and parameters with the exponent matrix binding them.

    Column i of ``matrix`` is the image exponent vector of variable i.  A
    zero column is allowed and means the variable maps to 1, which puts
    ``x - 1`` in the ideal; such an ideal is never homogeneous, so
    :func:`homogeneity_certificate` and the sums that need a grading
    refuse it.
    """

    params: VariableSet
    vars: VariableSet
    matrix: IntegerMatrix

    def __post_init__(self) -> None:
        if self.matrix.rows != len(self.params):
            raise ValueError(
                f"matrix has {self.matrix.rows} rows but there are {len(self.params)} parameters"
            )
        if self.matrix.cols != len(self.vars):
            raise ValueError(
                f"matrix has {self.matrix.cols} columns but there are {len(self.vars)} variables"
            )

    def column(self, j: int) -> tuple[int, ...]:
        return self.matrix.column(j)


@dataclass(frozen=True)
class HomogeneityCertificate:
    """Rational grading vector with every column pairing to 1."""

    omega: tuple[Fraction, ...]

    def certifies(self, p: Parametrization) -> bool:
        if len(self.omega) != len(p.params):
            return False
        # alpha . omega == 1 iff alpha . (L * omega) == L, L the common denominator.
        denom = lcm(*(w.denominator for w in self.omega))
        weights = [w.numerator * (denom // w.denominator) for w in self.omega]
        columns = zip(*p.matrix.entries) if p.matrix.rows else [()] * p.matrix.cols
        return all(sum(w * x for w, x in zip(weights, col)) == denom for col in columns)


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
    return len(_forward_pass(p.matrix)[0])


@lru_cache(maxsize=1)
def _forward_pass(m: IntegerMatrix) -> tuple[list[int], list[list[int]]]:
    """The pivots and rows of the forward fraction-free pass on ``m``, not to be mutated.

    :func:`~toricsum.exact_linalg._bareiss_echelon`, cached for the last
    matrix, so a lone input's dimension and its grading test
    (:func:`_is_graded`) eliminate it once.
    """
    rows = [list(row) for row in m.entries]
    pivots, _, _ = _bareiss_echelon(rows, m.cols)
    return pivots, rows


def homogeneity_certificate(p: Parametrization) -> Optional[HomogeneityCertificate]:
    """Grading vector omega with ``alpha_i . omega == 1`` on every column.

    Such a vector exists iff the kernel ideal is homogeneous for the
    standard grading; None means it is not.  A zero column pairs to 0 with
    every omega, so it gives None: its variable maps to 1 and ``x - 1`` is
    in the ideal.
    """
    omega = solve_row_rational(p.matrix, [1] * len(p.vars))
    if omega is None:
        return None
    return HomogeneityCertificate(omega)


def _is_graded(p: Parametrization) -> bool:
    """Whether :func:`homogeneity_certificate` finds a grading vector, without building it.

    That is whether the all-ones row lies in the row space of the matrix,
    read off the forward pass :func:`dimension` uses
    (:func:`_forward_pass`).  The pass leaves row k as step k's pivot row,
    and its steps are replayed on an extra row, the all-ones row: that is
    the pass with the row appended last and never taken as a pivot, so
    each division is exact (Sylvester's identity, as for every row below
    the pivots).  Each step maps the row to a nonzero multiple of it plus
    a multiple of a pivot row, which lies in the row space, and leaves it
    zero in that step's pivot column; the pivot rows are in echelon form,
    so the only vector of the row space that is zero in every pivot column
    is zero.  So the all-ones row lies in the row space iff the replayed
    row ends at zero.
    """
    pivots, rows = _forward_pass(p.matrix)
    ones = [1] * len(p.vars)
    prev = 1
    for k, c in enumerate(pivots):
        pivot_row = rows[k]
        pv, f = pivot_row[c], ones[c]
        ones = [(pv * a - f * b) // prev for a, b in zip(ones, pivot_row)]
        prev = pv
    return not any(ones)


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
    return Parametrization(p.params, p.vars, cleared)


def _divide_content(rows: Sequence[Sequence[int]], d: int) -> tuple[_Rows, int]:
    """``rows`` and ``d`` divided by the gcd of the rows' entries, signed so ``q > 0``."""
    g = gcd(*[gcd(*row) for row in rows])
    if d < 0:
        g = -g
    return tuple(tuple([x // g for x in row]) for row in rows), d // g


@lru_cache(maxsize=1)
def _echelon(m: IntegerMatrix) -> tuple[tuple[int, ...], int, _Rows, _Rows, int]:
    """``(pivots, d, rows, divided, q)``: the fraction-free reduced echelon form of ``m``.

    This is :func:`~toricsum.exact_linalg.row_reduce` in natural column
    order with the zero rows dropped, so ``rows / d`` is the reduced row
    echelon form, row ``k`` holding ``d`` in column ``pivots[k]``.  By
    Cramer's rule each entry is, up to sign, an ``r x r`` minor of a row
    basis of ``m``, ``r`` its rank: ``d`` is the one on the pivot columns,
    and the entry of row ``k`` in column ``c`` is the one on the pivot
    columns with ``pivots[k]`` replaced by ``c``.  ``divided`` and ``q`` are
    ``rows`` and ``d`` divided by the content of ``rows``, signed so that
    ``q > 0``: every pin of a pivot column is ``divided`` with one row
    moved first, and its exponent is ``q``.

    Every row ``M_i`` of ``m`` is checked to be the combination of the
    echelon rows that its pivot-column entries give, ``d * M_i == sum_k
    M_i[pivots[k]] * rows[k]``, and a failure raises RuntimeError.  Over all
    rows of ``m`` this fixes ``rows`` given ``d``: the pivot columns of ``m``
    have rank ``r``, so no other ``r`` rows pass it.  It catches a wrong
    entry in any column, where the pin's own check sees only the pivot
    columns.

    Cached for the last matrix only, since :func:`normalize_pin` is
    typically called for several columns of one matrix in a row; the
    result is immutable, so sharing it is safe.
    """
    reduced = [list(row) for row in m.entries]
    pivots, d, _ = row_reduce(reduced, m.cols)
    rows = tuple(tuple(row) for row in reduced[: len(pivots)])
    columns = list(zip(*rows)) if rows else [()] * m.cols
    for i, row in enumerate(m.entries):
        coefficients = [row[c] for c in pivots]
        if [sum(map(mul, coefficients, column)) for column in columns] != [d * x for x in row]:
            raise RuntimeError(
                f"echelon form: row {i} is not the combination its pivot entries give"
            )
    return (tuple(pivots), d, rows, *_divide_content(rows, d))


def normalize_pin(p: Parametrization, var: int | str) -> PinResult:
    """Re-parametrize at maximal rank so one variable maps to t_j^q.

    The result is the reduced row echelon form of the whole matrix with the
    pinned column moved first, back in the original column order and
    scaled by the least positive ``q`` that makes it integral.  Its rows
    span the same rational row space, so the kernel lattice is untouched;
    its pivot columns (the pinned one first, then greedily in increasing
    index) form ``q`` times the identity, and the gcd of all its entries
    (taken row by row) is 1, which fixes it uniquely.  Each pivot column
    ``r`` is checked to equal ``q * e_r`` as one list, on either branch
    below and on every pin, which also proves the rows independent.  The
    parameters are renamed ``t1, t2, ...``.

    Every pin of a matrix is read off one reduction of it in natural
    column order (:func:`_echelon`: pivots ``p_0 < ... < p_(r-1)``, common
    pivot ``d``), checked there once to reproduce every row of the matrix.
    If the pinned column ``j`` is a pivot ``p_k``, the greedy basis for the
    order ``j`` first, then the other columns by increasing index, is the
    natural one, and row ``k`` just moves first: the rows, their content
    and ``q`` are the same for every pivot pin, so they are divided once,
    in :func:`_echelon`, and a pivot pin only reorders them.  Otherwise let
    ``k`` be the last row with a nonzero entry ``e`` in column ``j``.
    Column ``j`` is the combination of the pivot columns its entries give,
    so its fundamental circuit is ``j`` with the pivots of its nonzero rows,
    the largest of them ``p_k``.  The greedy basis is the natural one with
    ``p_k`` exchanged for ``j``: a pivot below ``p_k`` is independent of
    ``j`` and the smaller pivots, since ``j`` involves ``p_k``; ``p_k`` is
    not; and every later column depends on the columns before it as it
    did, since ``j`` and ``p_0 .. p_(k-1)`` span what ``p_0 .. p_k`` span.
    One Bareiss step at row ``k``, column ``j``, ``row_i <- (e * row_i -
    row_i[j] * row_k) / d`` for ``i != k``, gives ``e`` times the reduced
    echelon form for that basis.  By Sylvester's identity, as in
    :func:`~toricsum.exact_linalg.row_reduce`, each of its entries is an
    ``r x r`` minor, so the division is exact.  Row ``k`` then moves
    first.  After the one ``O(r^2 n)`` reduction, a pin costs ``O(r n)``.
    """
    idx = p.vars.index(var) if isinstance(var, str) else var
    if not 0 <= idx < len(p.vars):
        raise ConstructionError(f"variable index {idx} out of range")
    name = p.vars.names[idx]
    if not any(p.column(idx)):
        raise ConstructionError(f"variable {name!r} maps to 1 and cannot be pinned")
    pivots, d, rows, divided, q = _echelon(p.matrix)
    if idx in pivots:
        k = pivots.index(idx)
    else:
        k = max(i for i, row in enumerate(rows) if row[idx])
        pivot_row = rows[k]
        e = pivot_row[idx]
        divided, q = _divide_content([
            row if i == k else [(e * a - row[idx] * b) // d for a, b in zip(row, pivot_row)]
            for i, row in enumerate(rows)
        ], e)
    order = [k, *range(k), *range(k + 1, len(rows))]
    reduced = tuple([divided[i] for i in order])
    unit = [0] * len(reduced)
    for r, i in enumerate(order):
        c = idx if i == k else pivots[i]
        unit[r] = q
        if [row[c] for row in reduced] != unit:
            raise RuntimeError(f"pin of {name!r}: pivot column {r} is not q * e_{r}")
        unit[r] = 0
    matrix = IntegerMatrix(len(reduced), len(p.vars), reduced)
    result = Parametrization(_numbered(len(reduced)), p.vars, matrix)
    return PinResult(result, pinned_param_index=0, exponent=q)


def parametrization_from_lattice(
    basis: LatticeBasis,
    var_names: Optional[Sequence[str]] = None,
) -> Parametrization:
    """Parametrization whose kernel is the saturation of the given lattice.

    The matrix is :func:`~toricsum.exact_linalg.annihilator` of the
    lattice, the same matrix :func:`saturate_lattice` takes the kernel of,
    so ``A @ B == 0`` and ``rank(A) == n - rank(B)``.  A variable whose
    unit vector lies in the saturation gets a zero column and maps to 1;
    when the saturation is all of Z^n the matrix has no rows and every
    variable does.
    """
    n = basis.ambient_dim
    a = annihilator(basis)
    if var_names is None:
        var_names = tuple(f"x{k + 1}" for k in range(n))
    return Parametrization(_numbered(a.rows), VariableSet(tuple(var_names)), a)
