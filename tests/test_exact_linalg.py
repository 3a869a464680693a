"""Exact linear algebra: hand-checked values and randomized invariants."""

import random
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from fractions import Fraction

from helpers import boxed_kernel_vectors, random_matrix
from toricsum import (
    IntegerMatrix,
    LatticeBasis,
    RationalMatrix,
    determinant,
    extend_to_basis,
    hermite_normal_form,
    independent_rows,
    inverse_and_clear,
    kernel_lattice,
    rank,
    saturate_lattice,
    smith_normal_form,
    solve_row_rational,
)


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

        with monkeypatch.context() as patch:
            patch.setattr(exact_linalg, "_identity_lists", doubled)
            with pytest.raises(RuntimeError, match="does not equal D"):
                smith_normal_form(m)
        with monkeypatch.context() as patch:
            patch.setattr(exact_linalg, "determinant", lambda _: 2)
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


class TestRank:
    def test_two_independent_rows(self):
        assert rank(IntegerMatrix.from_rows([[3, 2, 1, 0], [0, 1, 2, 3]])) == 2

    def test_zero(self):
        assert rank(IntegerMatrix.zero(3, 4)) == 0

    def test_identity(self):
        assert rank(IntegerMatrix.identity(4)) == 4


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
            snf = smith_normal_form(m)
            oracle = LatticeBasis.spanning([snf.Q.column(j) for j in range(snf.rank, cols)], cols)
            assert kernel_lattice(m) == oracle

    @pytest.mark.parametrize(
        "unit, message",
        [
            (lambda i, j: 2 * (i == j), "not unimodular"),
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


class TestSaturate:
    def test_index_two(self):
        basis = LatticeBasis.spanning([(2, -2)], 2)
        assert saturate_lattice(basis) == LatticeBasis.spanning([(1, -1)], 2)

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

    def test_identity(self):
        assert solve_row_rational(IntegerMatrix.identity(2), [1, 1]) == (1, 1)

    def test_random_solution_matches_mask(self):
        rng = random.Random(505)
        for _ in range(50):
            a = random_matrix(rng)
            mask = [c for c in range(a.cols) if rng.random() < 0.7]
            rhs = [rng.randint(-2, 2) for _ in range(a.cols)]
            omega = solve_row_rational(a, rhs, mask)
            if omega is None:
                continue
            for c in mask:
                assert sum(w * x for w, x in zip(omega, a.column(c))) == rhs[c]

    def test_integer_and_fraction_rhs_agree(self):
        # an integer right-hand side and its Fraction copy give one solution;
        # a halved one halves it, and its free coordinates stay zero
        rng = random.Random(506)
        for _ in range(50):
            a = random_matrix(rng)
            mask = [c for c in range(a.cols) if rng.random() < 0.7]
            rhs = [rng.randint(-2, 2) for _ in range(a.cols)]
            omega = solve_row_rational(a, rhs, mask)
            assert solve_row_rational(a, [Fraction(x) for x in rhs], mask) == omega
            halved = solve_row_rational(a, [Fraction(x, 2) for x in rhs], mask)
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
