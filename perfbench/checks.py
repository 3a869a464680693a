"""Answer checks that share no code with the program under test.

Plain integer linear algebra on lists of ints: a fraction-free reduced
echelon form (rank, canonical row space, rational kernel), matrix products
and a Bareiss determinant.  The workloads use these to check every answer
the program returns.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

Rows = list[list[int]]


def _primitive(v: list[int]) -> list[int]:
    g = 0
    for x in v:
        g = gcd(g, x)
    if g > 1:
        v = [x // g for x in v]
    return v


def reduced_echelon(rows: Sequence[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """Canonical integer form of the rational row space.

    Returns ``(pivot column, row)`` pairs sorted by pivot column.  Each row
    is primitive with a positive pivot and zeros at every other pivot
    column, which makes the form unique for the row space over Q.
    """
    basis: list[tuple[int, list[int]]] = []
    for raw in rows:
        v = [int(x) for x in raw]
        for c, p in basis:
            if v[c]:
                f, g = p[c], v[c]
                v = _primitive([f * a - g * b for a, b in zip(v, p)])
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        if v[pivot] < 0:
            v = [-x for x in v]
        v = _primitive(v)
        for idx, (c, p) in enumerate(basis):
            if p[pivot]:
                f, g = v[pivot], p[pivot]
                q = _primitive([f * a - g * b for a, b in zip(p, v)])
                basis[idx] = (c, q if q[c] > 0 else [-x for x in q])
        basis.append((pivot, v))
    basis.sort()
    return basis


def rank(rows: Sequence[Sequence[int]]) -> int:
    return len(reduced_echelon(rows))


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> Rows:
    """Integer vectors spanning the rational kernel ``{u : rows @ u == 0}``."""
    basis = reduced_echelon(rows)
    pivots = {c for c, _ in basis}
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        scale = 1
        for c, p in basis:
            scale = scale * p[c] // gcd(scale, p[c])
        v = [0] * ncols
        v[free] = scale
        for c, p in basis:
            v[c] = -p[free] * scale // p[c]
        out.append(_primitive(v))
    return out


def mat_vec(rows: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(a * x for a, x in zip(row, v)) for row in rows]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Rows:
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Bareiss fraction-free determinant."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def has_grading(rows: Sequence[Sequence[int]]) -> bool:
    """True iff some rational omega has ``omega . column == 1`` for every column."""
    transposed = [list(col) for col in zip(*rows)]
    return rank(transposed) == rank([col + [1] for col in transposed])


def parse_monomial(text: str, names: Sequence[str]) -> list[int]:
    """Exponent vector of ``a*b^2``-style text over ``names`` (``1`` is the unit)."""
    index = {n: i for i, n in enumerate(names)}
    u = [0] * len(names)
    if text.strip() == "1":
        return u
    for factor in text.split("*"):
        name, _, e = factor.strip().partition("^")
        u[index[name]] += int(e) if e else 1
    return u
