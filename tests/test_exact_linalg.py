"""Exact linear algebra: hand-checked values and randomized invariants."""

import random
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from fractions import Fraction

from helpers import boxed_kernel_vectors, random_matrix, reference_row_reduce
from toricsum import (
    IntegerMatrix,
    LatticeBasis,
    RationalMatrix,
    determinant,
    hermite_normal_form,
    kernel_lattice,
    parametrization_from_lattice,
    rank,
    saturate_lattice,
    smith_normal_form,
    solve_row_rational,
)
from toricsum.exact_linalg import extend_to_basis, independent_rows, inverse_and_clear


def assert_hnf_shape(h: IntegerMatrix):
    last_pivot = -1
    for row in h.entries:
        pivot = next((k for k, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        assert pivot > last_pivot
        assert row[pivot] > 0
        last_pivot = pivot
    # entries above each pivot reduced into [0, pivot)
    pivot_cols = {}
    for i, row in enumerate(h.entries):
        pivot = next((k for k, x in enumerate(row) if x), None)
        if pivot is not None:
            pivot_cols[i] = pivot
    for i, pc in pivot_cols.items():
        for r in range(i):
            assert 0 <= h.entries[r][pc] < h.entries[i][pc]


class TestHermite:
    def test_hand_example(self):
        m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
        h, u = hermite_normal_form(m)
        assert h.entries == ((2, 0), (0, 4))
        assert (u @ m) == h
        assert abs(determinant(u)) == 1

    def test_identity(self):
        m = IntegerMatrix.identity(3)
        h, u = hermite_normal_form(m)
        assert h == m
        assert u == IntegerMatrix.identity(3)

    def test_zero(self):
        m = IntegerMatrix.zero(2, 2)
        h, u = hermite_normal_form(m)
        assert all(x == 0 for row in h.entries for x in row)
        assert u == IntegerMatrix.identity(2)

    def test_random_transform_identity(self):
        rng = random.Random(101)
        for _ in range(50):
            m = random_matrix(rng)
            h, u = hermite_normal_form(m)
            assert (u @ m) == h
            assert abs(determinant(u)) == 1
            assert_hnf_shape(h)


def reference_hermite_rows(rows: list[list[int]], ncols: int) -> int:
    """The Hermite reduction as one interleaved loop, kept as a reference.

    For each column: Euclid rounds below row ``r``, the sign of the pivot
    fixed, and then at once the entries above it reduced into ``[0,
    pivot)``.  The library splits this into an echelon pass and a pass
    above the pivots; both must give these rows exactly, including the
    carried transform, which is not unique.
    """
    n = len(rows)
    r = 0
    for c in range(ncols):
        if r == n:
            break
        while True:
            nonzero = [i for i in range(r, n) if rows[i][c]]
            if not nonzero:
                break
            best = min(nonzero, key=lambda i: abs(rows[i][c]))
            rows[r], rows[best] = rows[best], rows[r]
            if len(nonzero) == 1:
                break
            for i in range(r + 1, n):
                f = rows[i][c] // rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        if not nonzero:
            continue
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            f = rows[i][c] // rows[r][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def reference_echelon(rows: list[list[int]], ncols: int) -> list[int]:
    """:func:`reference_hermite_rows` in the shape of the echelon pass: its pivot columns."""
    r = reference_hermite_rows(rows, ncols)
    return [next(c for c in range(ncols) if rows[i][c]) for i in range(r)]


def sparse_rows(rng: random.Random, nrows: int, ncols: int) -> list[list[int]]:
    """Entries in [-9, 9], about half of them zero."""
    return [[rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(ncols)]
            for _ in range(nrows)]


class TestHermiteKernel:
    def test_matches_reference_rows(self):
        import toricsum.exact_linalg as exact_linalg

        rng = random.Random(2828)
        for trial in range(1500):
            nrows, ncols = rng.randint(0, 8), rng.randint(0, 10)
            rows = sparse_rows(rng, nrows, ncols)
            if trial % 2:
                rows = [row + unit for row, unit in zip(rows, exact_linalg._identity_lists(nrows))]
            expected = [list(row) for row in rows]
            r = reference_hermite_rows(expected, ncols)

            reduced = [list(row) for row in rows]
            assert exact_linalg._hermite_rows(reduced, ncols) == r
            assert reduced == expected

            echelon = [list(row) for row in rows]
            pivots = exact_linalg._hermite_echelon(echelon, ncols)
            assert len(pivots) == r
            assert echelon[r:] == expected[r:]
            assert [echelon[k][c] for k, c in enumerate(pivots)] == [
                expected[k][c] for k, c in enumerate(pivots)
            ]
            assert pivots == reference_echelon([list(row) for row in rows], ncols)

    def test_public_results_match_reference(self, monkeypatch):
        import toricsum.exact_linalg as exact_linalg

        def results(m: IntegerMatrix) -> tuple:
            snf = smith_normal_form(m)
            lattice = LatticeBasis.spanning(m.entries, m.cols)
            return (
                hermite_normal_form(m),
                (snf.D, snf.P, snf.Q),
                kernel_lattice(m),
                saturate_lattice(lattice),
                parametrization_from_lattice(lattice),
            )

        rng = random.Random(2829)
        shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
        shapes += [(rng.randint(0, 8), rng.randint(0, 10)) for _ in range(200)]
        matrices = [IntegerMatrix(r, c, tuple(map(tuple, sparse_rows(rng, r, c)))) for r, c in shapes]
        got = [results(m) for m in matrices]
        with monkeypatch.context() as patch:
            patch.setattr(exact_linalg, "_hermite_rows", reference_hermite_rows)
            patch.setattr(exact_linalg, "_hermite_echelon", reference_echelon)
            exact_linalg._hermite_pass.cache_clear()
            expected = [results(m) for m in matrices]
            exact_linalg._hermite_pass.cache_clear()
        assert got == expected


class TestSmith:
    def test_hand_example(self):
        snf = smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
        assert snf.D.entries == ((2, 0), (0, 4))

    def test_identity(self):
        snf = smith_normal_form(IntegerMatrix.identity(2))
        assert snf.D == IntegerMatrix.identity(2)

    def test_one_by_one(self):
        snf = smith_normal_form(IntegerMatrix.from_rows([[6]]))
        assert snf.D.entries == ((6,),)

    @pytest.mark.parametrize(
        "diagonal, smith",
        # already diagonal, so only the divisibility fix changes them
        [((2, 3), ((1, 0), (0, 6))), ((4, 6), ((2, 0), (0, 12)))],
    )
    def test_divisibility_fix(self, diagonal, smith):
        a, b = diagonal
        assert smith_normal_form(IntegerMatrix.from_rows([[a, 0], [0, b]])).D.entries == smith

    def test_invariants_are_determinantal_divisors(self):
        # d1 * ... * dk is the gcd of the k x k minors
        rng = random.Random(606)
        for _ in range(100):
            m = random_matrix(rng, max_rows=4, max_cols=5)
            d = smith_normal_form(m).D
            for k in range(1, min(m.rows, m.cols) + 1):
                minors = (
                    determinant(m.take(rows, cols))
                    for rows in combinations(range(m.rows), k)
                    for cols in combinations(range(m.cols), k)
                )
                assert abs(gcd(*minors)) == prod(d.entries[i][i] for i in range(k))

    def test_corrupted_transforms_are_caught(self, monkeypatch):
        # The self-checks raise rather than assert, so they hold under python -O.
        import toricsum.exact_linalg as exact_linalg

        m = IntegerMatrix.from_rows([[2, 4], [6, 8]])

        def doubled(n):
            return [[2 * (i == j) for j in range(n)] for i in range(n)]

        # The Smith form starts from the cached Hermite pass: each fault must
        # reach a fresh one, and none may outlive its patch.
        with monkeypatch.context() as patch:
            patch.setattr(exact_linalg, "_identity_lists", doubled)
            exact_linalg._hermite_pass.cache_clear()
            with pytest.raises(RuntimeError, match="does not equal D"):
                smith_normal_form(m)
            exact_linalg._hermite_pass.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(exact_linalg, "determinant", lambda _: 2)
            exact_linalg._hermite_pass.cache_clear()
            with pytest.raises(RuntimeError, match="not unimodular"):
                smith_normal_form(m)

    def test_random_divisibility_chain(self):
        rng = random.Random(202)
        for _ in range(50):
            m = random_matrix(rng)
            snf = smith_normal_form(m)
            assert (snf.P @ m) @ snf.Q == snf.D
            diag = [snf.D.entries[k][k] for k in range(min(m.rows, m.cols))]
            assert all(x >= 0 for x in diag)
            nonzero = [x for x in diag if x]
            assert diag[: len(nonzero)] == nonzero  # zeros trail
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0
            assert snf.rank == rank(m)


def reference_smith(m: IntegerMatrix) -> tuple:
    """The Smith alternation with every Hermite pass computed in place, kept as a reference.

    The library reads its first pass from the cached Hermite form of ``M``;
    D, P and Q must come out the same, P and Q included, which are not
    unique.
    """
    import toricsum.exact_linalg as exact_linalg

    nrows, ncols = m.rows, m.cols
    d = [list(row) for row in m.entries]
    p = exact_linalg._identity_lists(nrows)
    qt = exact_linalg._identity_lists(ncols)
    while True:
        while True:
            _, d, p = exact_linalg._hermite_augmented(d, p, ncols)
            if exact_linalg._is_diagonal(d):
                break
            _, dt, qt = exact_linalg._hermite_augmented(zip(*d), qt, nrows)
            d = [list(row) for row in zip(*dt)]
            if exact_linalg._is_diagonal(d):
                break
        rank_ = sum(1 for k in range(min(nrows, ncols)) if d[k][k])
        k = next((k for k in range(rank_ - 1) if d[k + 1][k + 1] % d[k][k]), None)
        if k is None:
            break
        for row in d:
            row[k] += row[k + 1]
        qt[k] = [a + b for a, b in zip(qt[k], qt[k + 1])]
    return tuple(map(tuple, d)), tuple(map(tuple, p)), tuple(zip(*qt)) if qt else ()


class TestSmithFromCachedHermite:
    """The Smith form starts from the one-entry cache of ``[M | I]``'s Hermite form."""

    def matrices(self, seed: int, count: int) -> list[IntegerMatrix]:
        rng = random.Random(seed)
        shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
        shapes += [(rng.randint(1, 6), rng.randint(1, 7)) for _ in range(count)]
        matrices = [IntegerMatrix(r, c, tuple(map(tuple, sparse_rows(rng, r, c))))
                    for r, c in shapes]
        # diagonal ones, whose divisibility fix runs before any other pass
        matrices += [IntegerMatrix.from_rows([[a, 0], [0, b]]) for a, b in ((2, 3), (4, 6), (6, 4))]
        return matrices

    def test_matches_reference(self):
        import toricsum.exact_linalg as exact_linalg

        for m in self.matrices(2901, 300):
            for warm in (False, True):
                exact_linalg._hermite_pass.cache_clear()
                if warm:
                    hermite_normal_form(m)
                snf = smith_normal_form(m)
                d, p, q = reference_smith(m)
                assert snf.D.entries == d and snf.P.entries == p
                assert snf.Q.entries == (q if m.cols else ())

    def test_cold_and_warm_cache_agree(self):
        import toricsum.exact_linalg as exact_linalg

        for m in self.matrices(2902, 200):
            exact_linalg._hermite_pass.cache_clear()
            cold = smith_normal_form(m)
            exact_linalg._hermite_pass.cache_clear()
            hermite_normal_form(m)
            hits = exact_linalg._hermite_pass.cache_info().hits
            assert smith_normal_form(m) == cold
            assert exact_linalg._hermite_pass.cache_info().hits == hits + 1

    def test_smith_leaves_the_cached_hermite_form_unchanged(self):
        import toricsum.exact_linalg as exact_linalg

        for m in self.matrices(2903, 200):
            exact_linalg._hermite_pass.cache_clear()
            h, u = hermite_normal_form(m)
            cached = exact_linalg._hermite_pass(m)
            snapshot = [list(map(list, part)) for part in cached]
            smith_normal_form(m)
            assert exact_linalg._hermite_pass(m) is cached
            assert [list(map(list, part)) for part in cached] == snapshot
            assert hermite_normal_form(m) == (h, u)
            exact_linalg._hermite_pass.cache_clear()
            assert hermite_normal_form(m) == (h, u)


class TestRank:
    def test_two_independent_rows(self):
        assert rank(IntegerMatrix.from_rows([[3, 2, 1, 0], [0, 1, 2, 3]])) == 2

    def test_zero(self):
        assert rank(IntegerMatrix.zero(3, 4)) == 0

    def test_identity(self):
        assert rank(IntegerMatrix.identity(4)) == 4


def dense_or_sparse_rows(rng: random.Random, nrows: int, ncols: int) -> list[list[int]]:
    """Dense or sparse entries in [-9, 9], some rows zero."""
    rows = sparse_rows(rng, nrows, ncols) if rng.random() < 0.5 else [
        [rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)
    ]
    for row in rows:
        if rng.random() < 0.15:
            row[:] = [0] * ncols
    return rows


class TestRowReduceSplit:
    """row_reduce as a forward pass and a pass above the pivots."""

    def test_matches_reference_elimination(self):
        import toricsum.exact_linalg as exact_linalg

        rng = random.Random(2910)
        for _ in range(3000):
            nrows, width = rng.randint(0, 8), rng.randint(0, 10)
            ncols = rng.randint(0, width)  # the columns past ncols are carried along
            rows = dense_or_sparse_rows(rng, nrows, width)
            expected = [list(row) for row in rows]
            want = reference_row_reduce(expected, ncols)

            reduced = [list(row) for row in rows]
            assert exact_linalg.row_reduce(reduced, ncols) == want
            assert reduced == expected

            forward = [list(row) for row in rows]
            pivots, d, sign = exact_linalg._bareiss_echelon(forward, ncols)
            assert (pivots, d, sign) == want
            r = len(pivots)
            assert forward[r:] == expected[r:]
            assert all(forward[i][c] == 0
                       for k, c in enumerate(pivots) for i in range(k + 1, nrows))
            exact_linalg._reduce_above(forward, pivots)
            assert forward == expected

    def test_public_results_match_reference(self, monkeypatch):
        import toricsum.exact_linalg as exact_linalg

        def results(m: IntegerMatrix) -> tuple:
            square = m.take(range(min(m.rows, m.cols)), range(min(m.rows, m.cols)))
            det = determinant(square)
            out = [rank(m), independent_rows(m), det,
                   solve_row_rational(m, [1] * m.cols), solve_row_rational(m, m.row(0))]
            if det:
                out.append(inverse_and_clear(square))
            row_basis = m.take(independent_rows(m), range(m.cols))
            if row_basis.rows:
                first = next(j for j in range(m.cols) if any(row_basis.column(j)))
                out.append(extend_to_basis(row_basis, first))
            return tuple(out)

        rng = random.Random(2911)
        matrices = [IntegerMatrix(r, c, tuple(map(tuple, dense_or_sparse_rows(rng, r, c))))
                    for r, c in ((rng.randint(1, 6), rng.randint(1, 8)) for _ in range(400))]
        got = [results(m) for m in matrices]
        with monkeypatch.context() as patch:
            # the interleaved elimination leaves nothing above its pivots to reduce
            patch.setattr(exact_linalg, "_bareiss_echelon", reference_row_reduce)
            expected = [results(m) for m in matrices]
        assert got == expected


def smith_kernel(m: IntegerMatrix) -> LatticeBasis:
    """The kernel as the span of the columns of Smith's Q past the rank."""
    snf = smith_normal_form(m)
    return LatticeBasis.spanning([snf.Q.column(j) for j in range(snf.rank, m.cols)], m.cols)


class TestMatmul:
    @pytest.mark.parametrize(
        "shape", [(2, 0, 3), (0, 2, 3), (2, 3, 0), (0, 0, 0), (1, 1, 1), (1, 0, 1)]
    )
    def test_edge_shapes(self, shape):
        k, n, m = shape
        rng = random.Random(f"matmul:{shape}")
        a, b = int_matrix(rng, k, n), int_matrix(rng, n, m)
        assert a @ b == naive_product(a, b)
        if n == 0:
            assert a @ b == IntegerMatrix.zero(k, m)

    def test_random_shapes_match_triple_loop(self):
        rng = random.Random(808)
        for _ in range(200):
            k, n, m = (rng.randint(0, 5) for _ in range(3))
            a, b = int_matrix(rng, k, n), int_matrix(rng, n, m)
            assert a @ b == naive_product(a, b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cannot multiply 1x2 by 3x1"):
            IntegerMatrix.zero(1, 2) @ IntegerMatrix.zero(3, 1)


def int_matrix(rng: random.Random, rows: int, cols: int) -> IntegerMatrix:
    return IntegerMatrix(rows, cols, tuple(tuple(rng.randint(-9, 9) for _ in range(cols))
                                           for _ in range(rows)))


def naive_product(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    data = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for t in range(a.cols):
                data[i][j] += a.entries[i][t] * b.entries[t][j]
    return IntegerMatrix(a.rows, b.cols, tuple(map(tuple, data)))


class TestKernelLattice:
    def test_sum_to_zero_plane(self):
        kl = kernel_lattice(IntegerMatrix.from_rows([[1, 1, 1]]))
        assert kl == LatticeBasis.spanning([(1, -1, 0), (0, 1, -1)], 3)

    def test_injective(self):
        assert kernel_lattice(IntegerMatrix.identity(3)).vectors == ()

    def test_two_row_example(self):
        kl = kernel_lattice(IntegerMatrix.from_rows([[3, 2, 1, 0], [0, 1, 2, 3]]))
        assert kl.rank == 2
        assert kl.contains((1, -2, 1, 0))
        assert kl.contains((0, 1, -2, 1))

    def test_random_annihilation_and_box(self):
        rng = random.Random(303)
        for _ in range(50):
            m = random_matrix(rng, max_rows=4, max_cols=4)
            kl = kernel_lattice(m)
            assert kl.rank == m.cols - rank(m)
            for v in kl.vectors:
                assert m.apply(v) == (0,) * m.rows
            for v in boxed_kernel_vectors(m):
                assert kl.contains(v)


    def test_matches_smith_definition(self):
        # The kernel is spanned by the columns of Smith's Q past the rank.
        rng = random.Random(707)
        for trial in range(300):
            rows, cols = rng.randint(0, 4), rng.randint(0, 5)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)], cols=cols
            )
            if trial % 5 == 0:
                m = IntegerMatrix.zero(rows, cols)
            elif trial % 5 == 1 and rows >= 2:  # the last row a combination of the others
                a, b = m.row(0), m.row(rows - 2)
                m = IntegerMatrix.from_rows([*m.entries[:-1], [2 * x - 3 * y for x, y in zip(a, b)]], cols=cols)
            assert kernel_lattice(m) == smith_kernel(m)

    @pytest.mark.parametrize(
        "m, basis",
        [
            (IntegerMatrix(0, 3, ()), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),  # no rows
            (IntegerMatrix.from_rows([[1, 2], [3, 4], [5, 6]]), []),  # full column rank
            (IntegerMatrix.from_rows([[2, 4], [0, 3]]), []),  # nonsingular, det 6
            (IntegerMatrix.zero(2, 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            (IntegerMatrix(0, 0, ()), []),
        ],
        ids=["no-rows", "full-column-rank", "nonsingular", "zero", "empty"],
    )
    def test_edge_shapes_match_smith_definition(self, m, basis):
        kl = kernel_lattice(m)
        assert kl == smith_kernel(m)
        assert kl == LatticeBasis(m.cols, tuple(basis))

    @pytest.mark.parametrize(
        "unit, message",
        [
            (lambda i, j: 2 * (i == j), "saturated"),
            (lambda i, j: int(i == j or (i, j) == (0, 1)), "does not annihilate"),
        ],
    )
    def test_corrupted_transform_is_caught(self, monkeypatch, unit, message):
        # The self-checks raise rather than assert, so they hold under python -O.
        import toricsum.exact_linalg as exact_linalg

        def corrupted(n):
            return [[unit(i, j) for j in range(n)] for i in range(n)]

        monkeypatch.setattr(exact_linalg, "_identity_lists", corrupted)
        with pytest.raises(RuntimeError, match=message):
            kernel_lattice(IntegerMatrix.from_rows([[1, 1, 1]]))

    @pytest.mark.parametrize("corrupt", ["double", "drop"])
    def test_corrupted_basis_is_caught(self, monkeypatch, corrupt):
        # The certificate reads the returned basis, so a wrong step after the
        # reduction is caught too: a doubled vector spans a sublattice of
        # index 2 that M still annihilates, and a dropped one is too few.
        real = LatticeBasis.spanning

        def corrupted(cls, vectors, ambient_dim):
            first, *rest = real(vectors, ambient_dim).vectors
            kept = [tuple(2 * x for x in first)] if corrupt == "double" else []
            return cls(ambient_dim, tuple(kept + rest))

        monkeypatch.setattr(LatticeBasis, "spanning", classmethod(corrupted))
        with pytest.raises(RuntimeError, match="kernel lattice: the basis is not saturated"):
            kernel_lattice(IntegerMatrix.from_rows([[1, 1, 1]]))


class TestSaturate:
    def test_index_two(self):
        basis = LatticeBasis.spanning([(2, -2)], 2)
        assert saturate_lattice(basis) == LatticeBasis.spanning([(1, -1)], 2)
        # the pivot 2 does not divide the first entry of (1, -1)
        assert not basis.contains((1, -1))

    def test_already_saturated(self):
        basis = LatticeBasis.spanning([(1, -1, 0), (0, 1, -1)], 3)
        assert saturate_lattice(basis) == basis

    def test_empty(self):
        basis = LatticeBasis(3, ())
        assert saturate_lattice(basis) == basis

    def test_idempotent_and_contains_input(self):
        rng = random.Random(404)
        for _ in range(50):
            m = random_matrix(rng, max_rows=3, max_cols=4)
            basis = LatticeBasis.spanning(
                [m.row(i) for i in range(m.rows)], m.cols
            )
            sat = saturate_lattice(basis)
            assert saturate_lattice(sat) == sat
            for v in basis.vectors:
                assert sat.contains(v)
            assert sat.rank == basis.rank


class TestSolveRowRational:
    def test_all_ones(self):
        a = IntegerMatrix.from_rows([[3, 2, 1, 0], [0, 1, 2, 3]])
        omega = solve_row_rational(a, [1, 1, 1, 1])
        assert omega == (Fraction(1, 3), Fraction(1, 3))

    def test_inconsistent(self):
        assert solve_row_rational(IntegerMatrix.from_rows([[1, 2]]), [1, 1]) is None
        # a zero column constrains the solve like any other
        assert solve_row_rational(IntegerMatrix.from_rows([[1, 0]]), [1, 1]) is None

    def test_identity(self):
        assert solve_row_rational(IntegerMatrix.identity(2), [1, 1]) == (1, 1)

    def test_random_solution_matches_mask(self):
        # every column constrains the solve, so a column subset is solved as
        # the submatrix of those columns
        rng = random.Random(505)
        verdicts = set()
        for _ in range(50):
            a = random_matrix(rng)
            mask = [c for c in range(a.cols) if rng.random() < 0.7]
            rhs = [rng.randint(-2, 2) for _ in mask]
            omega = solve_row_rational(a.take(range(a.rows), mask), rhs)
            verdicts.add(omega is None)
            if omega is None:
                continue
            for c, v in zip(mask, rhs):
                assert sum(w * x for w, x in zip(omega, a.column(c))) == v
        assert verdicts == {True, False}

    def test_integer_and_fraction_rhs_agree(self):
        # an integer right-hand side and its Fraction copy give one solution;
        # a halved one halves it, and its free coordinates stay zero
        rng = random.Random(506)
        for _ in range(50):
            a = random_matrix(rng)
            rhs = [rng.randint(-2, 2) for _ in range(a.cols)]
            omega = solve_row_rational(a, rhs)
            assert solve_row_rational(a, [Fraction(x) for x in rhs]) == omega
            halved = solve_row_rational(a, [Fraction(x, 2) for x in rhs])
            assert halved == (None if omega is None else tuple(w / 2 for w in omega))


class TestExtendToBasis:
    def test_hand_example(self):
        a = IntegerMatrix.from_rows([[1, 0, 2], [0, 1, 3]])
        assert extend_to_basis(a, 2) == (2, 0)

    def test_identity(self):
        assert extend_to_basis(IntegerMatrix.identity(2), 0) == (0, 1)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            extend_to_basis(IntegerMatrix.from_rows([[1, 1], [0, 0]]), 0)

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            extend_to_basis(IntegerMatrix.from_rows([[1, 0], [1, 0]]), 1)

    def test_random_nonsingular_and_deterministic(self):
        rng = random.Random(606)
        checked = 0
        while checked < 50:
            a = random_matrix(rng, max_rows=3, max_cols=5)
            if rank(a) != a.rows:
                continue
            i = rng.randrange(a.cols)
            if not any(a.column(i)):
                continue
            checked += 1
            selection = extend_to_basis(a, i)
            assert selection[0] == i
            block = a.take(range(a.rows), selection)
            assert determinant(block) != 0
            # dropping any non-pinned column and rescanning reproduces the set
            for j in selection[1:]:
                assert set(_greedy_seeded(a, [c for c in selection if c != j])) == set(selection)


def _greedy_seeded(a, seed):
    selected = list(seed)
    current = rank(a.take(range(a.rows), selected)) if selected else 0
    for c in range(a.cols):
        if len(selected) == a.rows:
            break
        if c in selected:
            continue
        grown = rank(a.take(range(a.rows), selected + [c]))
        if grown > current:
            selected.append(c)
            current = grown
    return selected


class TestInverseAndClear:
    def test_hand_example(self):
        inverse, q = inverse_and_clear(IntegerMatrix.from_rows([[1, 1], [2, 0]]))
        assert inverse.entries == (
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1), Fraction(-1, 2)),
        )
        assert q == 2

    def test_identity(self):
        inverse, q = inverse_and_clear(IntegerMatrix.identity(3))
        assert q == 1
        assert all(inverse.entries[i][i] == 1 for i in range(3))

    def test_one_by_one(self):
        inverse, q = inverse_and_clear(IntegerMatrix.from_rows([[2]]))
        assert inverse.entries == ((Fraction(1, 2),),)
        assert q == 2

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            inverse_and_clear(IntegerMatrix.from_rows([[1, 1], [1, 1]]))


def test_independent_rows_greedy():
    m = IntegerMatrix.from_rows([[1, 1], [2, 2], [0, 1]])
    assert independent_rows(m) == (0, 2)


def test_numpy_cross_check():
    """Rank, determinant and inverse against an independent float computation."""
    rng = random.Random(707)
    for _ in range(200):
        m = random_matrix(rng, max_rows=5, max_cols=5)
        assert rank(m) == np.linalg.matrix_rank(np.array(m.entries, dtype=float))
        n = rng.randint(1, 5)
        a = random_matrix(rng, rows=n, cols=n)
        det = determinant(a)
        assert det == round(np.linalg.det(np.array(a.entries, dtype=float)))
        if det:
            inverse, q = inverse_and_clear(a)
            assert RationalMatrix.from_rows(a.entries) @ inverse == RationalMatrix.identity(n)
            assert all((q * x).denominator == 1 for row in inverse.entries for x in row)
