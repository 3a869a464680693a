"""Shared generators and brute-force oracles for the test suite.

The numpy-based box enumeration is deliberately independent of the
library's own kernel computation so the two can cross-check each other.
"""

from functools import lru_cache
from itertools import product

import numpy as np

from toricsum import (
    IntegerMatrix,
    Parametrization,
    RationalMatrix,
    VariableSet,
    clear_denominators,
    determinant,
    split_disjoint,
)
from fractions import Fraction


def random_matrix(rng, max_rows=4, max_cols=5, lo=-3, hi=3, rows=None, cols=None):
    m = rows if rows is not None else rng.randint(1, max_rows)
    n = cols if cols is not None else rng.randint(1, max_cols)
    return IntegerMatrix.from_rows([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def random_parametrization(rng, max_params=4, max_vars=5, prefix="x"):
    """Random parametrization without zero columns."""
    m = rng.randint(1, max_params)
    n = rng.randint(1, max_vars)
    cols = []
    for _ in range(n):
        col = [rng.randint(-3, 3) for _ in range(m)]
        while not any(col):
            col = [rng.randint(-3, 3) for _ in range(m)]
        cols.append(col)
    rows = [[cols[j][i] for j in range(n)] for i in range(m)]
    return Parametrization(
        VariableSet(tuple(f"t{k}" for k in range(m))),
        VariableSet(tuple(f"{prefix}{k}" for k in range(n))),
        IntegerMatrix.from_rows(rows, cols=n),
    )


def random_homogeneous_parametrization(rng, max_params=4, max_vars=5, prefix="x", mixes=3):
    """Random parametrization whose kernel ideal is homogeneous.

    Built from an all-ones row (an explicit grading) followed by
    unimodular row mixing, which changes neither the kernel nor the
    existence of a grading vector and never creates a zero column.
    """
    m = rng.randint(1, max_params)
    n = rng.randint(1, max_vars)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m - 1)]
    rows.append([1] * n)
    rng.shuffle(rows)
    for _ in range(mixes):
        i, j = rng.randrange(m), rng.randrange(m)
        if i != j:
            c = rng.choice([-1, 1])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Parametrization(
        VariableSet(tuple(f"t{k}" for k in range(m))),
        VariableSet(tuple(f"{prefix}{k}" for k in range(n))),
        IntegerMatrix.from_rows(rows, cols=n),
    )


def random_nonsingular_rational(rng, n):
    while True:
        q = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)],
            cols=n,
        )
        q_int, _ = clear_denominators(q)
        if determinant(q_int) != 0:
            return q


def random_binomial(rng, nvars, max_exp=2):
    return split_disjoint(tuple(rng.randint(-max_exp, max_exp) for _ in range(nvars)))


def quadric(z1, z2, x, params=("t", "s")):
    """Parametrization of the quadric relation z1*z2 - x^2 analogue."""
    return Parametrization(
        VariableSet(tuple(params)),
        VariableSet.of(z1, z2, x),
        IntegerMatrix.from_rows([[1, -1, 0], [1, 1, 1]]),
    )


@lru_cache(maxsize=None)
def _box(n, bound):
    return np.array(list(product(range(-bound, bound + 1), repeat=n)), dtype=np.int64)


def boxed_kernel_vectors(m: IntegerMatrix, bound=6):
    """All integer kernel vectors of m with entries in [-bound, bound].

    Brute force with int64 numpy (safe at this scale), independent of the
    library's Smith-form route.
    """
    if m.cols == 0:
        return []
    box = _box(m.cols, bound)
    if m.rows == 0:
        return [tuple(int(x) for x in v) for v in box]
    a = np.array([list(r) for r in m.entries], dtype=np.int64).reshape(m.rows, m.cols)
    mask = ~(box @ a.T).any(axis=1)
    return [tuple(int(x) for x in v) for v in box[mask]]


def kernel_in_sorted_vars(p: Parametrization):
    """Kernel lattice after reordering columns by variable name."""
    from toricsum import kernel_lattice

    order = sorted(range(len(p.vars)), key=lambda j: p.vars.names[j])
    return kernel_lattice(p.matrix.take(range(p.matrix.rows), order))


def reference_row_reduce(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """The fraction-free Gauss-Jordan elimination as one interleaved loop, kept as a reference.

    Step ``k`` updates every other row at once, above and below its pivot.
    The library splits this into a forward pass and a pass above the
    pivots; together they must give these rows, pivots, ``d`` and sign
    exactly.
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
