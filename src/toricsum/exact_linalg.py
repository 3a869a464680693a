"""Exact dense linear algebra over the integers and rationals.

This module is the arithmetic substrate for the rest of the package:
Hermite and Smith normal forms together with the transformation matrices
that witness them, integer kernel lattices in a canonical basis, lattice
saturation, deterministic rational solves, greedy column selection and
exact inverses.

Rank, row and column selection, rational solves, inverses and
determinants all go through one fraction-free Gauss-Jordan elimination on
integer rows (:func:`row_reduce`); ``Fraction`` appears only in the one
division at the end.  It runs as a forward pass (:func:`_bareiss_echelon`),
then a pass above the pivots (:func:`_reduce_above`); rank, determinant,
row and column selection and the consistency of a solve read the forward
pass alone.  Everything that must preserve the integer lattice
(the Hermite form, canonical lattice bases, kernel lattices and the Smith
form) goes through one row-style Hermite reduction by unimodular Euclid
steps instead, split the same way: an echelon pass
(:func:`_hermite_echelon`), then the entries above the pivots reduced
(:func:`_hermite_rows`).  A caller that reads only the rows at and below
the rank, or only the pivots, stops after the echelon pass; the kernel
lattice does, both for its transform and for the certificate that every
kernel basis is saturated, which reduces the basis's transpose.  The
Hermite form of ``[M | I]`` is kept for the last matrix
(:func:`_hermite_pass`), since the Smith form starts from it.

Each Euclid step of the Hermite reduction reads only the nonzeros of its
pivot row, so a long sparse matrix (the sum of a tree of ideals) reduces in
time that follows its nonzeros, not its width; the fraction-free passes
still update whole rows.

Everything is a pure function on immutable values, and all arithmetic is
arbitrary precision (Python ints and ``fractions.Fraction``); nothing here
ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence


def _identity_lists(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _int_matrix(rows: Sequence[Sequence[int]], cols: int) -> "IntegerMatrix":
    """``rows``, already plain ints, as a matrix without ``from_rows``' per-entry ``int()``."""
    return IntegerMatrix(len(rows), cols, tuple(map(tuple, rows)))


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable row-major matrix over the integers.

    Entries are plain Python ints, so the intermediate growth that occurs
    during normal form computations can never overflow.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(f"expected rows of width {self.cols}, got {len(row)}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntegerMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("cannot infer the column count of an empty matrix; pass cols")
            cols = len(data[0])
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def take(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "IntegerMatrix":
        """Submatrix with the given rows and columns, in the given order."""
        data = tuple(tuple(self.entries[i][j] for j in col_indices) for i in row_indices)
        return IntegerMatrix(len(row_indices), len(col_indices), data)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError(f"expected a vector of length {self.cols}, got {len(v)}")
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        columns = list(zip(*other.entries)) if other.rows else [()] * other.cols
        data = tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in self.entries)
        return IntegerMatrix(self.rows, other.cols, data)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable row-major matrix over the rationals.

    ``fractions.Fraction`` keeps entries in lowest terms with positive
    denominators, which is exactly the normalization wanted here.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(f"expected rows of width {self.cols}, got {len(row)}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]], cols: Optional[int] = None) -> "RationalMatrix":
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("cannot infer the column count of an empty matrix; pass cols")
            cols = len(data[0])
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "RationalMatrix | IntegerMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        data = tuple(
            tuple(sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                      start=Fraction(0))
                  for j in range(other.cols))
            for i in range(self.rows)
        )
        return RationalMatrix(self.rows, other.cols, data)


@dataclass(frozen=True)
class LatticeBasis:
    """Basis of a sublattice of Z^n in a canonical echelon form.

    The stored vectors are the nonzero rows of the Hermite normal form of
    any spanning set, so two equal lattices always have identical
    representations and lattice equality is plain ``==``.  Build instances
    through :meth:`spanning`.
    """

    ambient_dim: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError(f"expected vectors of length {self.ambient_dim}, got {len(v)}")

    @classmethod
    def spanning(cls, vectors: Sequence[Sequence[int]], ambient_dim: int) -> "LatticeBasis":
        """Canonical basis of the lattice generated by ``vectors``."""
        rows = [list(row) for row in IntegerMatrix.from_rows(vectors, cols=ambient_dim).entries]
        r = _hermite_rows(rows, ambient_dim)
        return cls(ambient_dim, tuple(tuple(row) for row in rows[:r]))

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def contains(self, v: Sequence[int]) -> bool:
        """Exact membership test against the echelon basis."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"expected a vector of length {self.ambient_dim}, got {len(v)}")
        w = [int(x) for x in v]
        for row in self.vectors:
            pivot_col = next(k for k, x in enumerate(row) if x)
            q, rem = divmod(w[pivot_col], row[pivot_col])
            if rem:
                return False
            if q:
                w = [a - q * b for a, b in zip(w, row)]
        return not any(w)


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form ``D = P @ M @ Q`` of an integer matrix ``M``.

    ``P`` and ``Q`` are unimodular, ``D`` is diagonal with non-negative
    entries satisfying the divisibility chain d1 | d2 | ... with zeros
    trailing.
    """

    D: IntegerMatrix
    P: IntegerMatrix
    Q: IntegerMatrix

    @property
    def rank(self) -> int:
        return sum(1 for k in range(min(self.D.rows, self.D.cols)) if self.D.entries[k][k])


def _bareiss_echelon(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Forward pass of the fraction-free elimination (Bareiss 1968), in place.

    Pivots are searched only in the first ``ncols`` columns, left to right,
    taking the first remaining row with a nonzero entry; later columns (an
    augmented right-hand side) are carried along.  Returns
    ``(pivot_cols, d, sign)``: the pivot rows come first, in pivot order,
    each zero below its pivot, the rows below them are zero in the searched
    columns, and ``d`` is the last pivot.  For a square nonsingular matrix
    ``sign * d`` is its determinant.  The entries above the pivots are left
    as they fell; row ``k`` holds the pivot ``d_k`` of step ``k``.

    Step ``k`` updates each row below its pivot row to ``(pv * a - f * b) //
    d_(k-1)``, with ``d_(-1) = 1``.  Each update is exact: every intermediate
    entry is, up to sign, a minor of the input, so nothing is ever rounded
    and no ``Fraction`` is needed.  Rank, determinant and the pivot columns
    are read off this pass alone.
    """
    n = len(rows)
    pivots: list[int] = []
    d = sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        pivot_row = rows[r]
        pv = pivot_row[c]
        for i in range(r + 1, n):
            row = rows[i]
            f = row[c]
            if f or pv != d:
                rows[i] = [(pv * a - f * b) // d for a, b in zip(row, pivot_row)]
        pivots.append(c)
        d = pv
    return pivots, d, sign


def _reduce_above(rows: list[list[int]], pivots: Sequence[int]) -> None:
    """Pass above the pivots that completes :func:`row_reduce`, in place.

    Step ``k`` of the forward pass is replayed on the rows above its pivot
    row, ``row_i <- (d_k * row_i - row_i[c_k] * row_k) // d_(k-1)`` for
    ``i < k``, in increasing ``k``; ``d_k`` is read off row ``k``, which the
    forward pass left holding it.  Afterwards every pivot row is at the last
    step's level, each pivot equals ``d`` and each pivot column is zero off
    its pivot.  Rows from the rank down are untouched.
    """
    prev = 1
    for k, c in enumerate(pivots):
        pivot_row = rows[k]
        pv = pivot_row[c]
        for i in range(k):
            row = rows[i]
            f = row[c]
            if f or pv != prev:
                rows[i] = [(pv * a - f * b) // prev for a, b in zip(row, pivot_row)]
        prev = pv


def row_reduce(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    :func:`_bareiss_echelon`, then :func:`_reduce_above`.  Returns
    ``(pivot_cols, d, sign)`` as the forward pass does.  Afterwards the pivot
    rows come first, in pivot order, every pivot equals ``d``, each pivot
    column is zero elsewhere, and the rows below the pivots are zero in the
    searched columns; so ``rows / d`` is the reduced row echelon form.

    The split gives the interleaved elimination's rows exactly, the one
    that applies step ``k`` to every other row at once.  There, step ``k``
    changes a row below its pivot row only by that row, so the rows from
    the pivot down, ``d`` and ``sign`` follow the forward pass alone; and
    it changes row ``i < k`` by row ``k`` as step ``k`` left it, which no
    later step touches before the second pass reads it.  The second pass
    applies the same steps to each such row in the same order.  Callers
    that read only the pivots, ``d``, ``sign`` or the rows below the rank
    call :func:`_bareiss_echelon` alone.
    """
    pivots, d, sign = _bareiss_echelon(rows, ncols)
    _reduce_above(rows, pivots)
    return pivots, d, sign


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant, read off the forward fraction-free pass."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    pivots, d, sign = _bareiss_echelon([list(row) for row in m.entries], m.cols)
    return sign * d if len(pivots) == m.rows else 0


def _support(row: Sequence[int]) -> list[tuple[int, int]]:
    """The nonzero entries of ``row`` as ``(index, value)`` pairs, in index order."""
    return list(compress(enumerate(row), row))


def _hermite_echelon(rows: list[list[int]], ncols: int) -> list[int]:
    """Echelon pass of the Hermite reduction, by unimodular Euclid steps, in place.

    Pivots are searched only in the first ``ncols`` columns; later columns
    (an augmented identity) are carried along.  Returns the pivot columns,
    one per row of the echelon, so their number is the rank ``r``.
    Afterwards the first ``r`` rows are in echelon form in the searched
    columns with positive pivots, and the rows below them are zero there;
    the entries above the pivots are left as they fell.

    Each column is cleared below row ``r`` by Euclid rounds.  A round scans
    rows ``r..n`` once for the first entry of least absolute value, swaps
    it to row ``r`` and, unless it is the only nonzero one, subtracts its
    floor quotient times row ``r`` from each row below with a nonzero
    quotient.  Every step swaps two rows, negates one or subtracts an
    integer multiple of one from another, so the row lattice is preserved
    and a carried identity records a unimodular transform.

    A subtraction touches only the columns where row ``r`` is nonzero: the
    round lists them with their values (:func:`_support`) the first time
    a quotient is nonzero, and updates each such row there, in place.
    Elsewhere ``a - f * 0 == a``, so the rows are exactly those of the
    whole-row update, and a round that changes no row lists nothing.
    Rows are changed in place, not replaced, so each list in ``rows``
    must be the caller's own and appear only once.
    """
    n = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == n:
            break
        while True:
            best = -1
            least = count = 0
            for i in range(r, n):
                x = rows[i][c]
                if x:
                    count += 1
                    if x < 0:
                        x = -x
                    if best < 0 or x < least:
                        best, least = i, x
            if best < 0:
                break
            rows[r], rows[best] = rows[best], rows[r]
            if count == 1:
                break
            pivot_row = rows[r]
            pv = pivot_row[c]
            support = None
            for i in range(r + 1, n):
                row = rows[i]
                f = row[c] // pv
                if f:
                    if support is None:
                        support = _support(pivot_row)
                    for j, b in support:
                        row[j] -= f * b
        if best < 0:
            continue
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        pivots.append(c)
        r += 1
    return pivots


def _hermite_rows(rows: list[list[int]], ncols: int) -> int:
    """Row-style Hermite reduction of integer rows by unimodular steps, in place.

    :func:`_hermite_echelon`, then the entries above each pivot reduced into
    ``[0, pivot)`` by subtracting floor multiples of the pivot row, pivot
    by pivot in increasing order.  Returns the rank ``r``.

    The second pass changes row ``i`` only by multiples of a later pivot
    row ``k > i``, which is zero in every column before its pivot column
    ``c_k``, so also in ``c_i``.  It therefore changes no row at or below
    ``r`` and no pivot entry: callers that read only those call
    :func:`_hermite_echelon` alone.  Its result is also that of reducing
    above each pivot as soon as the pivot is found.  The Euclid rounds of a
    later column touch only rows below its pivot, so either way pivot ``k``
    is reduced against rows ``0..k-1`` after pivots ``0..k-1`` were, and
    with row ``k`` still as the echelon pass left it.

    As in the echelon pass, each pivot row's nonzeros are listed once, the
    first time a row above it has a nonzero quotient, and only those
    columns of that row are updated, in place; the same contract on
    ``rows`` holds.
    """
    pivots = _hermite_echelon(rows, ncols)
    for k, c in enumerate(pivots):
        pivot_row = rows[k]
        pv = pivot_row[c]
        support = None
        for i in range(k):
            row = rows[i]
            f = row[c] // pv
            if f:
                if support is None:
                    support = _support(pivot_row)
                for j, b in support:
                    row[j] -= f * b
    return len(pivots)


def _hermite_augmented(
    a: Iterable[Sequence[int]], b: Iterable[Sequence[int]], ncols: int
) -> tuple[int, list[list[int]], list[list[int]]]:
    """Reduce ``[a | b]`` by :func:`_hermite_rows` on the ``ncols`` columns of ``a``.

    Returns the rank and the two parts, so a carried identity ``b`` comes
    back as the unimodular transform.
    """
    rows = [[*x, *y] for x, y in zip(a, b)]
    r = _hermite_rows(rows, ncols)
    return r, [row[:ncols] for row in rows], [row[ncols:] for row in rows]


def _is_diagonal(d: list[list[int]]) -> bool:
    return not any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j)


_Rows = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=1)
def _hermite_pass(m: IntegerMatrix) -> tuple[_Rows, _Rows]:
    """``(H, U)`` as row tuples: ``[M | I]`` reduced by :func:`_hermite_augmented`.

    This is both :func:`hermite_normal_form` and the first pass of
    :func:`smith_normal_form`, so a caller asking for both of one matrix
    reduces it once.  Cached for the last matrix only; the rows are tuples,
    so no reader can change what the next one gets.
    """
    _, h, u = _hermite_augmented(m.entries, _identity_lists(m.rows), m.cols)
    return tuple(map(tuple, h)), tuple(map(tuple, u))


def hermite_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Row-style Hermite normal form with its unimodular witness.

    Returns ``(H, U)`` with ``U @ M == H``, ``|det U| == 1``, ``H`` in upper
    echelon form with positive pivots and the entries above each pivot
    reduced into ``[0, pivot)``.  This form is unique for the row lattice
    of ``M``, which is what makes it usable as a canonical representative.
    ``[M | I]`` is reduced to ``[H | U]`` (:func:`_hermite_pass`).
    """
    h, u = _hermite_pass(m)
    return IntegerMatrix(m.rows, m.cols, h), IntegerMatrix(m.rows, m.rows, u)


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with both unimodular transformations.

    Row-style Hermite reductions of ``[D | P]`` and ``[D^T | Q^T]``
    alternate until ``D`` is diagonal (Kannan and Bachem 1979).  Where the
    divisibility chain fails at ``d_k``, column ``k + 1`` is added to column
    ``k`` and the alternation repeats, which replaces the pair by its gcd
    and lcm.  ``D`` is unique; ``P`` and ``Q`` are not.  The returned
    decomposition satisfies ``D == P @ M @ Q`` exactly with
    ``|det P| == |det Q| == 1``; both are checked before returning, and a
    failure raises RuntimeError.

    The first pass, ``[M | I]`` reduced to ``[H | U]``, is
    :func:`hermite_normal_form`'s, and is read from the same one-entry cache
    (:func:`_hermite_pass`) on a copy; every later pass is computed here.
    The determinants only need the forward fraction-free pass.
    """
    nrows, ncols = m.rows, m.cols
    h, u = _hermite_pass(m)
    d = [list(row) for row in h]
    p = [list(row) for row in u]
    qt = _identity_lists(ncols)  # Q^T: row j is column j of Q
    while True:
        while not _is_diagonal(d):
            _, dt, qt = _hermite_augmented(zip(*d), qt, nrows)
            d = [list(row) for row in zip(*dt)]
            if _is_diagonal(d):
                break
            _, d, p = _hermite_augmented(d, p, ncols)
        rank_ = sum(1 for k in range(min(nrows, ncols)) if d[k][k])
        k = next((k for k in range(rank_ - 1) if d[k + 1][k + 1] % d[k][k]), None)
        if k is None:
            break
        for row in d:
            row[k] += row[k + 1]
        qt[k] = [a + b for a, b in zip(qt[k], qt[k + 1])]
        _, d, p = _hermite_augmented(d, p, ncols)

    D = _int_matrix(d, ncols)
    P = _int_matrix(p, nrows)
    Q = _int_matrix(list(zip(*qt)), ncols)
    if (P @ m) @ Q != D:
        raise RuntimeError("Smith normal form: P @ M @ Q does not equal D")
    if abs(determinant(P)) != 1 or abs(determinant(Q)) != 1:
        raise RuntimeError("Smith normal form: a transform is not unimodular")
    return SmithDecomposition(D, P, Q)


def rank(m: IntegerMatrix) -> int:
    """Rank over the rationals: the pivots of the forward fraction-free pass."""
    return len(_bareiss_echelon([list(row) for row in m.entries], m.cols)[0])


def independent_rows(m: IntegerMatrix) -> tuple[int, ...]:
    """Greedy row basis: keep rows in increasing index while the rank grows.

    These are the pivot columns of the transpose, read off the forward pass.
    """
    columns = [list(col) for col in zip(*m.entries)]
    return tuple(_bareiss_echelon(columns, m.rows)[0])


def kernel_lattice(m: IntegerMatrix) -> LatticeBasis:
    """Canonical basis of the integer kernel ``{u : M u = 0}``.

    ``[M^T | I]`` is reduced to an echelon ``[E | U]``; the rows of ``U``
    past the rank ``r`` span the kernel, and their canonical basis ``K``
    (``k x n``) is returned.  ``K`` itself is certified before returning,
    and a failure raises RuntimeError: ``M`` annihilates every row of ``K``,
    ``k == n - r``, and the row-style echelon of ``K^T`` has rank ``k`` and
    every pivot 1.

    That proves ``K`` is the whole integer kernel.  Unit pivots mean the
    columns of ``K`` generate ``Z^k``, so ``K`` has an integer right inverse
    ``X`` (``K X = I``).  An integral ``v = c K`` in ``span_Q K`` then has
    ``c = v X`` integral, so ``span_Z K = span_Q K intersect Z^n``: ``K`` is
    saturated.  ``M K^T = 0`` and ``k = n - r`` independent rows give
    ``span_Q K = ker_Q M``, hence ``span_Z K = ker_Z M``.  Unlike a check of
    ``U``, this also catches a wrong step after the reduction.

    ``M K^T = 0`` is checked exactly, by nonzeros: the nonzeros of each
    column of ``M`` are listed once per call, and each row ``v`` of ``K``
    has ``M v`` summed over the columns where ``v`` is nonzero.  A product
    with a zero factor adds nothing, so this is the whole product.

    Both reductions stop after the echelon pass (:func:`_hermite_echelon`).
    The first reads only the rows from ``r`` down, and the certificate only
    the rank and the diagonal of a ``k``-column echelon of rank ``k``, which
    are its pivots.  The reduction above the pivots changes neither: it
    changes only rows above a pivot, by multiples of later pivot rows that
    are zero in every earlier pivot column (:func:`_hermite_rows`).
    """
    n = m.cols
    columns = zip(*m.entries) if m.rows else [()] * n
    rows = [[*col, *unit] for col, unit in zip(columns, _identity_lists(n))]
    r = len(_hermite_echelon(rows, m.rows))
    basis = LatticeBasis.spanning([row[m.rows:] for row in rows[r:]], n)
    column_nonzeros = [_support(col) for col in zip(*m.entries)] if m.rows else [[]] * n
    for v in basis.vectors:
        image = [0] * m.rows
        for j in compress(range(n), v):
            x = v[j]
            for i, a in column_nonzeros[j]:
                image[i] += x * a
        if any(image):
            raise RuntimeError("kernel lattice: M does not annihilate a basis vector")
    k = basis.rank
    kt = [list(col) for col in zip(*basis.vectors)]
    if k != n - r or len(_hermite_echelon(kt, k)) != k or any(kt[j][j] != 1 for j in range(k)):
        raise RuntimeError("kernel lattice: the basis is not saturated")
    return basis


def annihilator(basis: LatticeBasis) -> IntegerMatrix:
    """Integer matrix whose rows are a basis of the annihilator of a lattice.

    The rows span ``{w in Z^n : w . v == 0 for every v in L}`` in canonical
    form; a full-rank lattice gives a matrix with no rows.
    """
    n = basis.ambient_dim
    orthogonal = kernel_lattice(IntegerMatrix(basis.rank, n, basis.vectors))
    return IntegerMatrix(orthogonal.rank, n, orthogonal.vectors)


def saturate_lattice(basis: LatticeBasis) -> LatticeBasis:
    """Saturation ``span_Q(L) intersect Z^n`` of a lattice ``L``.

    The integer kernel of :func:`annihilator`, so the result contains the
    input with finite index, the operation is idempotent, and it is the
    kernel lattice of :func:`parametrization_from_lattice`'s matrix.
    """
    return kernel_lattice(annihilator(basis))


def _solve_transposed(
    a: IntegerMatrix, rhs: Sequence[int]
) -> tuple[list[int], Optional[list[list[int]]], int]:
    """The forward fraction-free pass on ``[A^T | rhs]``: row basis and consistency.

    ``rhs`` holds one integer per column of ``A``.  Returns the pivots, the
    greedy row basis of ``A``; the echelon rows, or None when
    ``omega @ A == rhs`` is inconsistent, which the rows below the pivots
    show; and the last pivot d.  Only :func:`solve_row_rational` builds the
    solution: it completes the reduction above the pivots, after which row
    k gives ``omega[pivots[k]] = row[-1] / d`` with the free coordinates
    zero.  The lift of a summand in :mod:`sums` reads only the pivots and
    the consistency.
    """
    m = a.rows
    columns = zip(*a.entries) if m else [()] * a.cols
    rows = [[*column, v] for column, v in zip(columns, rhs)]
    pivots, d, _ = _bareiss_echelon(rows, m)
    if any(row[m] for row in rows[len(pivots):]):
        return pivots, None, d
    return pivots, rows, d


def solve_row_rational(
    a: IntegerMatrix, rhs: Sequence[Fraction | int]
) -> Optional[tuple[Fraction, ...]]:
    """Solve ``omega @ A == rhs`` for a rational row vector ``omega``.

    Args:
        a: coefficient matrix; omega ranges over row vectors of length
           ``a.rows``.
        rhs: one value per column of ``a``; every column constrains the
           solution, a zero column included.

    Returns:
        The deterministic particular solution with free coordinates set to
        zero, or None when the system is inconsistent.
    """
    if len(rhs) != a.cols:
        raise ValueError(f"expected a right-hand side of length {a.cols}, got {len(rhs)}")

    # The system is solved for L * rhs, with L clearing the denominators.
    fractions = [Fraction(v) for v in rhs]
    scale = lcm(1, *(v.denominator for v in fractions))
    pivots, reduced, d = _solve_transposed(a, [int(v * scale) for v in fractions])
    if reduced is None:
        return None
    _reduce_above(reduced, pivots)
    omega = [Fraction(0)] * a.rows
    for row, c in zip(reduced, pivots):
        omega[c] = Fraction(row[-1], d * scale)
    return tuple(omega)


def extend_to_basis(a: IntegerMatrix, i: int) -> tuple[int, ...]:
    """Extend column ``i`` to a nonsingular column selection.

    Requires ``rank(a) == a.rows`` and a nonzero column ``i``.  The scan is
    deterministic: start from ``{i}`` and walk the remaining columns in
    increasing index order, keeping a column iff it increases the rank.
    The returned tuple lists ``i`` first and then the kept columns in
    increasing order; these are the pivots with column ``i`` moved first.
    """
    if not 0 <= i < a.cols:
        raise ValueError(f"column index {i} out of range")
    if not any(a.column(i)):
        raise ValueError(f"column {i} is zero and cannot be extended to a basis")
    order = [i] + [j for j in range(a.cols) if j != i]
    pivots, _, _ = _bareiss_echelon([[row[j] for j in order] for row in a.entries], a.cols)
    if len(pivots) != a.rows:
        raise ValueError(f"matrix rank is below its row count {a.rows}")
    return tuple(order[c] for c in pivots)


def inverse_and_clear(a: IntegerMatrix) -> tuple[RationalMatrix, int]:
    """Exact inverse of a nonsingular square matrix, with its denominator.

    Returns ``(B, q)`` where ``B = a^{-1}`` over Q and ``q`` is the least
    common multiple of the denominators of ``B`` (so ``q * B`` is integral;
    callers that multiply ``B`` by something else may be able to clear with
    a smaller factor, see :func:`clear_denominators`).  ``[a | I]`` is
    reduced to ``[d I | d B]`` and divided by ``d`` once at the end.
    """
    if a.rows != a.cols:
        raise ValueError("only square matrices can be inverted")
    n = a.rows
    aug = [list(row) + unit for row, unit in zip(a.entries, _identity_lists(n))]
    pivots, d, _ = row_reduce(aug, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    inverse = RationalMatrix.from_rows([[Fraction(x, d) for x in row[n:]] for row in aug], cols=n)
    q = lcm(1, *(x.denominator for row in inverse.entries for x in row))
    return inverse, q


def clear_denominators(m: RationalMatrix) -> tuple[IntegerMatrix, int]:
    """Least positive integer ``c`` with ``c * m`` integral, and that product."""
    c = 1
    for row in m.entries:
        for x in row:
            c = lcm(c, x.denominator)
    cleared = IntegerMatrix(
        m.rows,
        m.cols,
        tuple(tuple(int(x * c) for x in row) for row in m.entries),
    )
    return cleared, c
