"""Exact dense linear algebra over the integers and rationals.

This module is the arithmetic substrate for the rest of the package:
Hermite and Smith normal forms together with the transformation matrices
that witness them, integer kernel lattices in a canonical basis, lattice
saturation, deterministic rational solves, greedy column selection and
exact inverses.

Rank, row and column selection, rational solves, inverses and
determinants all go through one fraction-free Gauss-Jordan elimination on
integer rows (:func:`row_reduce`); ``Fraction`` appears only in the one
division at the end.  The Hermite and Smith forms use unimodular Euclid
steps instead, since they must preserve the integer lattice.

Everything is a pure function on immutable values, and all arithmetic is
arbitrary precision (Python ints and ``fractions.Fraction``); nothing here
ever rounds.  Matrices are small and dense, so the classical quadratic
algorithms are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence


def _identity_lists(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _sub_row(rows: list[list[int]], i: int, j: int, f: int) -> None:
    """rows[i] -= f * rows[j], in place."""
    if f:
        rows[i] = [a - f * b for a, b in zip(rows[i], rows[j])]


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
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        data = tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                  for j in range(other.cols))
            for i in range(self.rows)
        )
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
        mat = IntegerMatrix.from_rows(vectors, cols=ambient_dim)
        h, _ = hermite_normal_form(mat)
        return cls(ambient_dim, tuple(row for row in h.entries if any(row)))

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


def row_reduce(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots are searched only in the first ``ncols`` columns, left to right,
    taking the first remaining row with a nonzero entry; later columns (an
    augmented right-hand side) are carried along.  Returns
    ``(pivot_cols, d, sign)``.  Afterwards the pivot rows come first, in
    pivot order, every pivot equals ``d``, each pivot column is zero
    elsewhere, and the rows below the pivots are zero in the searched
    columns; so ``rows / d`` is the reduced row echelon form.  For a square
    nonsingular matrix ``sign * d`` is its determinant.

    Each update ``(pv * a - f * b) // d`` is exact (Bareiss 1968): every
    intermediate entry is, up to sign, a minor of the input, so nothing is ever rounded
    and no ``Fraction`` is needed.
    """
    pivots: list[int] = []
    d = sign = 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        pivot_row = rows[r]
        pv = pivot_row[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and (f or pv != d):
                rows[i] = [(pv * a - f * b) // d for a, b in zip(row, pivot_row)]
        pivots.append(c)
        d = pv
    return pivots, d, sign


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant, read off the fraction-free elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    pivots, d, sign = row_reduce([list(row) for row in m.entries], m.cols)
    return sign * d if len(pivots) == m.rows else 0


def hermite_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Row-style Hermite normal form with its unimodular witness.

    Returns ``(H, U)`` with ``U @ M == H``, ``|det U| == 1``, ``H`` in upper
    echelon form with positive pivots and the entries above each pivot
    reduced into ``[0, pivot)``.  This form is unique for the row lattice
    of ``M``, which is what makes it usable as a canonical representative.
    """
    h = [list(row) for row in m.entries]
    u = _identity_lists(m.rows)
    pivot_row = 0
    for col in range(m.cols):
        # Euclid on the column: shrink entries at and below pivot_row until
        # a single nonzero survives in the pivot position.
        while True:
            nonzero = [r for r in range(pivot_row, m.rows) if h[r][col]]
            if not nonzero:
                break
            best = min(nonzero, key=lambda r: (abs(h[r][col]), r))
            if best != pivot_row:
                h[pivot_row], h[best] = h[best], h[pivot_row]
                u[pivot_row], u[best] = u[best], u[pivot_row]
            clean = True
            for r in range(pivot_row + 1, m.rows):
                if h[r][col]:
                    f = h[r][col] // h[pivot_row][col]
                    _sub_row(h, r, pivot_row, f)
                    _sub_row(u, r, pivot_row, f)
                    if h[r][col]:
                        clean = False
            if clean:
                break
        if pivot_row < m.rows and h[pivot_row][col]:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
                u[pivot_row] = [-x for x in u[pivot_row]]
            for r in range(pivot_row):
                f = h[r][col] // h[pivot_row][col]
                _sub_row(h, r, pivot_row, f)
                _sub_row(u, r, pivot_row, f)
            pivot_row += 1
    H = IntegerMatrix.from_rows(h, cols=m.cols)
    U = IntegerMatrix.from_rows(u, cols=m.rows)
    return H, U


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with both unimodular transformations.

    The returned decomposition satisfies ``D == P @ M @ Q`` exactly with
    ``|det P| == |det Q| == 1``; both are checked before returning, and a
    failure raises RuntimeError.
    """
    nrows, ncols = m.rows, m.cols
    d = [list(row) for row in m.entries]
    p = _identity_lists(nrows)
    q = _identity_lists(ncols)

    def swap_rows(i: int, j: int) -> None:
        if i != j:
            d[i], d[j] = d[j], d[i]
            p[i], p[j] = p[j], p[i]

    def swap_cols(i: int, j: int) -> None:
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            for row in q:
                row[i], row[j] = row[j], row[i]

    def col_sub(i: int, j: int, f: int) -> None:
        # col_i -= f * col_j
        if f:
            for row in d:
                row[i] -= f * row[j]
            for row in q:
                row[i] -= f * row[j]

    def pivot_to(t: int) -> bool:
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            return False
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        return True

    def diagonalize(start: int) -> None:
        t = start
        while t < min(nrows, ncols):
            if not pivot_to(t):
                break
            while True:
                dirty = False
                for i in range(t + 1, nrows):
                    if d[i][t]:
                        f = d[i][t] // d[t][t]
                        _sub_row(d, i, t, f)
                        _sub_row(p, i, t, f)
                        if d[i][t]:
                            dirty = True
                for j in range(t + 1, ncols):
                    if d[t][j]:
                        col_sub(j, t, d[t][j] // d[t][t])
                        if d[t][j]:
                            dirty = True
                if not dirty:
                    break
                pivot_to(t)
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
                p[t] = [-x for x in p[t]]
            t += 1

    diagonalize(0)
    rank_ = sum(1 for k in range(min(nrows, ncols)) if d[k][k])
    # Enforce the divisibility chain; each fix replaces a violating pair
    # with (gcd, lcm), so the loop terminates.
    while True:
        for k in range(rank_ - 1):
            if d[k + 1][k + 1] % d[k][k]:
                col_sub(k, k + 1, -1)
                diagonalize(k)
                break
        else:
            break

    D = IntegerMatrix.from_rows(d, cols=ncols)
    P = IntegerMatrix.from_rows(p, cols=nrows)
    Q = IntegerMatrix.from_rows(q, cols=ncols)
    if (P @ m) @ Q != D:
        raise RuntimeError("Smith normal form: P @ M @ Q does not equal D")
    if abs(determinant(P)) != 1 or abs(determinant(Q)) != 1:
        raise RuntimeError("Smith normal form: a transform is not unimodular")
    return SmithDecomposition(D, P, Q)


def rank(m: IntegerMatrix) -> int:
    """Rank over the rationals."""
    return len(row_reduce([list(row) for row in m.entries], m.cols)[0])


def independent_rows(m: IntegerMatrix) -> tuple[int, ...]:
    """Greedy row basis: keep rows in increasing index while the rank grows.

    These are the pivot columns of the transpose.
    """
    columns = [list(col) for col in zip(*m.entries)]
    return tuple(row_reduce(columns, m.rows)[0])


def kernel_lattice(m: IntegerMatrix) -> LatticeBasis:
    """Canonical basis of the integer kernel ``{u : M u = 0}``.

    The kernel of an integer matrix is automatically saturated; the basis
    is read off the right Smith transformation and has ``cols - rank(M)``
    vectors.
    """
    snf = smith_normal_form(m)
    r = snf.rank
    vectors = [snf.Q.column(j) for j in range(r, m.cols)]
    return LatticeBasis.spanning(vectors, m.cols)


def annihilator(basis: LatticeBasis) -> IntegerMatrix:
    """Integer matrix whose rows are a basis of the annihilator of a lattice.

    The rows span ``{w in Z^n : w . v == 0 for every v in L}`` in canonical
    form; a full-rank lattice gives a matrix with no rows.
    """
    n = basis.ambient_dim
    orthogonal = kernel_lattice(IntegerMatrix.from_rows(basis.vectors, cols=n))
    return IntegerMatrix.from_rows(orthogonal.vectors, cols=n)


def saturate_lattice(basis: LatticeBasis) -> LatticeBasis:
    """Saturation ``span_Q(L) intersect Z^n`` of a lattice ``L``.

    The integer kernel of :func:`annihilator`, so the result contains the
    input with finite index, the operation is idempotent, and it is the
    kernel lattice of :func:`parametrization_from_lattice`'s matrix.
    """
    return kernel_lattice(annihilator(basis))


def _solve_transposed(
    a: IntegerMatrix, rhs: Sequence[int], mask: Sequence[int], scale: int = 1
) -> tuple[list[int], Optional[tuple[Fraction, ...]]]:
    """One fraction-free reduction of ``[A_mask^T | rhs]``: row basis and solve.

    ``rhs`` holds one integer per column in ``mask`` and stands for
    ``rhs / scale``.  Returns the pivots, the greedy row basis of the masked
    columns of ``A`` (and so of ``A`` when its other columns are zero), and
    the particular solution of ``(omega @ A)[c] == rhs / scale`` over the
    masked columns with the free coordinates zero, or None when that system
    is inconsistent.  :func:`solve_row_rational` and the lift of a summand
    in :mod:`sums` share this one elimination.
    """
    m = a.rows
    columns = list(zip(*a.entries)) if m else [()] * a.cols
    rows = [[*columns[c], v] for c, v in zip(mask, rhs)]
    pivots, d, _ = row_reduce(rows, m)
    if any(row[m] for row in rows[len(pivots):]):
        return pivots, None
    omega = [Fraction(0)] * m
    for row, c in zip(rows, pivots):
        omega[c] = Fraction(row[m], d * scale)
    return pivots, tuple(omega)


def solve_row_rational(
    a: IntegerMatrix,
    rhs: Sequence[Fraction | int],
    column_mask: Optional[Iterable[int]] = None,
) -> Optional[tuple[Fraction, ...]]:
    """Solve ``(omega @ A)[i] == rhs[i]`` for ``i`` in the mask.

    Args:
        a: coefficient matrix; omega ranges over row vectors of length
           ``a.rows``.
        rhs: one value per column of ``a`` (only masked entries are read).
        column_mask: column indices that constrain the solution; defaults
           to all columns.

    Returns:
        The deterministic particular solution with free coordinates set to
        zero, or None when the system is inconsistent.
    """
    if column_mask is None:
        mask = list(range(a.cols))
    else:
        mask = sorted(set(column_mask))
        for c in mask:
            if not 0 <= c < a.cols:
                raise ValueError(f"column index {c} out of range")
    if len(rhs) != a.cols:
        raise ValueError(f"expected a right-hand side of length {a.cols}, got {len(rhs)}")

    # An integer right-hand side is used as it is; otherwise L * rhs, with L
    # clearing the denominators.
    values = [rhs[c] for c in mask]
    scale = 1
    if not all(isinstance(v, int) for v in values):
        fractions = [Fraction(v) for v in values]
        scale = lcm(1, *(v.denominator for v in fractions))
        values = [int(v * scale) for v in fractions]
    return _solve_transposed(a, values, mask, scale)[1]


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
    pivots, _, _ = row_reduce([[row[j] for j in order] for row in a.entries], a.cols)
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
