"""Parametrization operations: evaluation, certificates, pinning, conversions."""

import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import (
    random_homogeneous_parametrization,
    random_matrix,
    random_nonsingular_rational,
    random_parametrization,
    reference_row_reduce,
)
from toricsum import (
    Binomial,
    ConstructionError,
    DegreeBound,
    HomogeneityCertificate,
    IntegerMatrix,
    LatticeBasis,
    Parametrization,
    PinResult,
    RationalMatrix,
    VariableSet,
    contains_binomial,
    dimension,
    enumerate_kernel_binomials,
    evaluate,
    homogeneity_certificate,
    kernel_lattice,
    normalize_pin,
    parametrization_from_lattice,
    rank,
    reparametrize,
    saturate_lattice,
    split_disjoint,
)
from toricsum.exact_linalg import extend_to_basis, independent_rows
from toricsum.parametrization import _is_graded


def make(rows, var_names, param_names):
    return Parametrization(
        VariableSet(tuple(param_names)),
        VariableSet(tuple(var_names)),
        IntegerMatrix.from_rows(rows),
    )


TWISTED_CUBIC = make([[3, 2, 1, 0], [0, 1, 2, 3]], ["x0", "x1", "x2", "x3"], ["t", "s"])


class TestEvaluate:
    def test_matrix_vector(self):
        assert evaluate(TWISTED_CUBIC, (1, 0, 1, 0)) == (4, 2)

    def test_zero_monomial(self):
        assert evaluate(TWISTED_CUBIC, (0, 0, 0, 0)) == (0, 0)

    def test_identity_unit_vectors(self):
        p = make([[1, 0], [0, 1]], ["a", "b"], ["t", "s"])
        assert evaluate(p, (1, 0)) == (1, 0)
        assert evaluate(p, (0, 1)) == (0, 1)


class TestContains:
    def test_twisted_cubic_relation(self):
        assert contains_binomial(TWISTED_CUBIC, Binomial((1, 0, 1, 0), (0, 2, 0, 0)))

    def test_non_relation(self):
        assert not contains_binomial(TWISTED_CUBIC, Binomial((1, 0, 0, 0), (0, 1, 0, 0)))

    def test_zero_binomial(self):
        assert contains_binomial(TWISTED_CUBIC, Binomial.zero(4))
        with pytest.raises(ValueError, match="different variable set"):
            contains_binomial(TWISTED_CUBIC, Binomial.zero(3))


def test_dimension_and_maximal_rank():
    assert dimension(TWISTED_CUBIC) == 2
    assert rank(TWISTED_CUBIC.matrix) == len(TWISTED_CUBIC.params)
    p = make([[1, -1], [1, 1]], ["a", "b"], ["t", "s"])
    assert rank(p.matrix) == len(p.params)
    p = make([[1, 1], [1, 1]], ["a", "b"], ["t", "s"])
    assert rank(p.matrix) != len(p.params)
    p = make([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ["a", "b", "c"], ["t", "s", "u"])
    assert dimension(p) == 3


def test_rank_and_grading_from_one_pass():
    # the rank and the grading test read one forward pass, with the all-ones
    # row replayed through its steps: they must agree with the public rank
    # and with the solved grading vector, on graded and ungraded matrices,
    # repeated or zero rows, zero columns and matrices without rows
    rng = random.Random(29)
    ps = [make([[1, 0]], ["a", "b"], ["t"]), make([[2, 2, 2], [1, 1, 1]], ["a", "b", "c"], ["t", "s"]),
          Parametrization(VariableSet(()), VariableSet.of("a", "b"), IntegerMatrix(0, 2, ())),
          Parametrization(VariableSet(()), VariableSet(()), IntegerMatrix(0, 0, ()))]
    for _ in range(300):
        p = (random_homogeneous_parametrization if rng.random() < 0.5 else random_parametrization)(
            rng, max_params=4, max_vars=6)
        rows = [list(row) for row in p.matrix.entries]
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), [0] * len(p.vars))
        if rng.random() < 0.3:
            rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        ps.append(make(rows, p.vars.names, [f"t{k}" for k in range(len(rows))]))
    graded = 0
    for p in ps:
        assert dimension(p) == rank(p.matrix)
        assert _is_graded(p) == (homogeneity_certificate(p) is not None)
        graded += _is_graded(p)
    assert 50 < graded < len(ps) - 50


class TestHomogeneityCertificate:
    def test_twisted_cubic(self):
        cert = homogeneity_certificate(TWISTED_CUBIC)
        assert cert is not None
        assert cert.omega == (Fraction(1, 3), Fraction(1, 3))
        assert cert.certifies(TWISTED_CUBIC)

    def test_not_homogeneous(self):
        assert homogeneity_certificate(make([[1, 2]], ["a", "b"], ["t"])) is None

    def test_identity(self):
        p = make([[1, 0], [0, 1]], ["a", "b"], ["t", "s"])
        cert = homogeneity_certificate(p)
        assert cert.omega == (1, 1)

    def test_zero_column_gives_none(self):
        # a variable mapping to 1 puts x - 1 in the ideal, which no grading balances
        p = make([[1, 0]], ["a", "b"], ["t"])
        assert homogeneity_certificate(p) is None
        assert not HomogeneityCertificate((Fraction(1),)).certifies(p)
        no_rows = Parametrization(VariableSet(()), VariableSet.of("a", "b"), IntegerMatrix(0, 2, ()))
        assert homogeneity_certificate(no_rows) is None
        assert not HomogeneityCertificate(()).certifies(no_rows)
        empty = Parametrization(VariableSet(()), VariableSet(()), IntegerMatrix(0, 0, ()))
        assert homogeneity_certificate(empty).certifies(empty)

    def test_certificate_balances_kernel(self):
        rng = random.Random(23)
        for _ in range(50):
            p = random_parametrization(rng)
            cert = homogeneity_certificate(p)
            if cert is None:
                continue
            for v in kernel_lattice(p.matrix).vectors:
                assert split_disjoint(v).is_balanced

    def test_certifies_matches_fraction_reference(self):
        def reference(omega, p):
            if len(omega) != len(p.params):
                return False
            for j in range(len(p.vars)):
                col = p.column(j)
                if sum(Fraction(w) * x for w, x in zip(omega, col)) != 1:
                    return False
            return True

        rng = random.Random(29)
        verdicts = set()
        for _ in range(300):
            m, n = rng.randint(0, 3), rng.randint(1, 4)
            rows = [[rng.choice([0, 0, 1, 2, -1, 3]) for _ in range(n)] for _ in range(m)]
            p = Parametrization(
                VariableSet(tuple(f"t{k}" for k in range(m))),
                VariableSet(tuple(f"x{j}" for j in range(n))),
                IntegerMatrix.from_rows(rows, cols=n),
            )
            true_cert = homogeneity_certificate(p)
            candidates = [
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)),
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m + 1)),
                tuple(Fraction(0) for _ in range(m)),
                tuple(Fraction(rng.choice([0, 1]), rng.randint(1, 3)) for _ in range(m)),
            ]
            if m:
                candidates.append(candidates[0][:-1])
            if true_cert is not None:
                candidates.append(true_cert.omega)
                if m:
                    k = rng.randrange(m)
                    bumped = list(true_cert.omega)
                    bumped[k] += Fraction(1, rng.randint(1, 5))
                    candidates.append(tuple(bumped))
                    zeroed = list(true_cert.omega)
                    zeroed[k] = Fraction(0)
                    candidates.append(tuple(zeroed))
            for omega in candidates:
                expected = reference(omega, p)
                assert HomogeneityCertificate(omega).certifies(p) == expected, (rows, omega)
                verdicts.add(expected)
        assert verdicts == {True, False}


class TestReparametrize:
    def test_hand_example(self):
        p = make([[1, 1, 1], [0, 1, 2]], ["x1", "x2", "x3"], ["t", "s"])
        q = RationalMatrix.from_rows([[1, 0], [-1, 1]])
        assert reparametrize(p, q).matrix.entries == ((1, 1, 1), (-1, 0, 1))

    def test_identity_is_noop(self):
        p = make([[1, 1, 1], [0, 1, 2]], ["x1", "x2", "x3"], ["t", "s"])
        assert reparametrize(p, RationalMatrix.identity(2)) == p

    def test_singular_rejected(self):
        p = make([[1, 1, 1], [0, 1, 2]], ["x1", "x2", "x3"], ["t", "s"])
        with pytest.raises(ConstructionError, match="singular"):
            reparametrize(p, RationalMatrix.from_rows([[1, 0], [0, 0]]))
        with pytest.raises(ConstructionError, match="must be square of size 2, got 3x3"):
            reparametrize(p, RationalMatrix.identity(3))

    def test_invariance_random(self):
        rng = random.Random(29)
        for _ in range(50):
            p = random_parametrization(rng, max_params=3, max_vars=4)
            q = random_nonsingular_rational(rng, p.matrix.rows)
            p2 = reparametrize(p, q)
            assert dimension(p2) == dimension(p)
            for b in enumerate_kernel_binomials(p, DegreeBound(3)):
                assert contains_binomial(p2, b)
            for _ in range(10):
                b = split_disjoint(tuple(rng.randint(-2, 2) for _ in range(len(p.vars))))
                assert contains_binomial(p, b) == contains_binomial(p2, b)


class TestNormalizePin:
    def test_hand_example(self):
        p = make([[1, 1, 1], [0, 1, 2]], ["x1", "x2", "x3"], ["t", "s"])
        pin = normalize_pin(p, 2)
        assert pin.parametrization.matrix.entries == ((0, 1, 2), (2, 1, 0))
        assert pin.exponent == 2
        assert pin.pinned_param_index == 0
        assert pin.parametrization.column(2) == (2, 0)
        assert kernel_lattice(pin.parametrization.matrix) == kernel_lattice(p.matrix)

    def test_identity_unchanged(self):
        p = make([[1, 0], [0, 1]], ["a", "b"], ["t", "s"])
        pin = normalize_pin(p, 0)
        assert pin.parametrization.matrix == p.matrix
        assert pin.exponent == 1

    def test_zero_column_rejected(self):
        p = make([[1, 0]], ["a", "b"], ["t"])
        with pytest.raises(ConstructionError, match="pinned"):
            normalize_pin(p, 1)

    def test_accepts_variable_names(self):
        p = make([[1, 1, 1], [0, 1, 2]], ["x1", "x2", "x3"], ["t", "s"])
        assert normalize_pin(p, "x3") == normalize_pin(p, 2)

    def test_corrupted_reduction_is_caught(self, monkeypatch):
        # The pin's own check, on what it reads from the cached reduction.
        import toricsum.parametrization as parametrization

        real = parametrization._echelon

        def corrupted(m):
            pivots, d, rows, divided, q = real(m)
            first = list(divided[0])
            first[pivots[-1]] += q  # off the diagonal of the last pivot column
            return pivots, d, rows, (tuple(first), *divided[1:]), q

        monkeypatch.setattr(parametrization, "_echelon", corrupted)
        with pytest.raises(RuntimeError, match="pivot column 0"):
            normalize_pin(TWISTED_CUBIC, 1)

    def test_corrupted_reduction_is_caught_on_exchange(self, monkeypatch):
        # Column 3 of the twisted cubic is not a pivot, so its pin takes the
        # exchange step: pivot 1 gives way to column 3, which moves first,
        # and pivot column 0 of the result is checked second.
        import toricsum.parametrization as parametrization

        real = parametrization._echelon

        def corrupted(m):
            pivots, d, rows, divided, q = real(m)
            second = list(rows[1])
            second[pivots[0]] += d  # off the diagonal of the first pivot column
            return pivots, d, (rows[0], tuple(second), *rows[2:]), divided, q

        monkeypatch.setattr(parametrization, "_echelon", corrupted)
        with pytest.raises(RuntimeError, match="pivot column 1 is not q"):
            normalize_pin(TWISTED_CUBIC, 3)

    @pytest.mark.parametrize("column", ["non-pivot", "last-pivot"])
    @pytest.mark.parametrize("var", range(4))
    def test_corrupted_elimination_is_caught_off_the_pivots(self, monkeypatch, column, var):
        # d added to row 0 of the twisted cubic's reduction, in column 2 (not
        # a pivot) or in the last pivot column.  Pin 0 of the first and pin 3
        # of the second used to pass the pin's check with another kernel;
        # the check that the reduction reproduces every input row catches
        # both, whichever column is pinned.
        import toricsum.parametrization as parametrization

        real = parametrization.row_reduce

        def corrupted(rows, ncols):
            pivots, d, sign = real(rows, ncols)
            rows[0][2 if column == "non-pivot" else pivots[-1]] += d
            return pivots, d, sign

        # A reduction cached by an earlier pin would bypass the patch, and the
        # corrupted one must not outlive this test.
        parametrization._echelon.cache_clear()
        monkeypatch.setattr(parametrization, "row_reduce", corrupted)
        try:
            with pytest.raises(RuntimeError, match="row 0 is not the combination"):
                normalize_pin(TWISTED_CUBIC, var)
        finally:
            parametrization._echelon.cache_clear()

    def test_redundant_rows_are_dropped(self):
        p = make([[1, 1, 1], [2, 2, 2], [0, 1, 2]], ["x1", "x2", "x3"], ["t", "s", "u"])
        pin = normalize_pin(p, 2)
        assert pin.parametrization.matrix.entries == ((0, 1, 2), (2, 1, 0))
        assert pin.exponent == 2
        assert kernel_lattice(pin.parametrization.matrix) == kernel_lattice(p.matrix)

    def test_random_kernel_preserved(self):
        rng = random.Random(31)
        for _ in range(50):
            p = random_parametrization(rng)
            i = rng.randrange(len(p.vars))
            pin = normalize_pin(p, i)
            new = pin.parametrization
            assert rank(new.matrix) == len(new.params)
            assert kernel_lattice(new.matrix) == kernel_lattice(p.matrix)
            col = new.column(i)
            expected = tuple(
                pin.exponent if k == pin.pinned_param_index else 0 for k in range(new.matrix.rows)
            )
            assert col == expected
            # Pivot block q*I plus content 1 determine the pinned matrix.
            row_basis = p.matrix.take(independent_rows(p.matrix), range(len(p.vars)))
            selection = extend_to_basis(row_basis, i)
            q_identity = tuple(
                tuple(pin.exponent * (r == c) for c in range(new.matrix.rows))
                for r in range(new.matrix.rows)
            )
            assert new.matrix.take(range(new.matrix.rows), selection).entries == q_identity
            assert gcd(*(x for row in new.matrix.entries for x in row)) == 1


def reference_pin(p, idx):
    """One fresh reduction with the pinned column first, as normalize_pin's contract reads."""
    if not 0 <= idx < len(p.vars):
        raise ConstructionError(f"variable index {idx} out of range")
    name = p.vars.names[idx]
    if not any(p.column(idx)):
        raise ConstructionError(f"variable {name!r} maps to 1 and cannot be pinned")
    rows = [[row[idx], *row[:idx], *row[idx + 1 :]] for row in p.matrix.entries]
    pivots, d, _ = reference_row_reduce(rows, len(p.vars))
    rows = rows[: len(pivots)]
    g = gcd(*(x for row in rows for x in row))
    if d < 0:
        g = -g
    reduced = tuple(
        tuple(x // g for x in row[1 : idx + 1] + row[:1] + row[idx + 1 :]) for row in rows
    )
    matrix = IntegerMatrix(len(reduced), len(p.vars), reduced)
    params = VariableSet(tuple(f"t{k}" for k in range(1, len(reduced) + 1)))
    return PinResult(Parametrization(params, p.vars, matrix), 0, d // g)


def pin_or_error(pin, p, idx):
    try:
        return pin(p, idx)
    except ConstructionError as exc:
        return (type(exc), str(exc))


def random_pin_input(rng):
    """Random r x n parametrization, some with dependent rows or zero columns."""
    r = rng.randint(1, 6)
    n = rng.randint(r, 10)
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
    if r > 1 and rng.random() < 0.3:
        a, b = rng.sample(range(r), 2)
        f, h = rng.randint(-2, 2), rng.randint(-2, 2)
        rows[rng.randrange(r)] = [f * x + h * y for x, y in zip(rows[a], rows[b])]
    return make(rows, [f"x{k}" for k in range(n)], [f"u{k}" for k in range(r)])


class TestPinFromOneReduction:
    """normalize_pin derives every pin from one reduction of the matrix."""

    def test_matches_a_fresh_reduction_per_column(self):
        rng = random.Random(22)
        for _ in range(300):
            p = random_pin_input(rng)
            for j in range(len(p.vars) + 1):
                assert pin_or_error(normalize_pin, p, j) == pin_or_error(reference_pin, p, j)

    def test_pivot_pins_match_a_normalization_per_pin(self):
        # A pivot pin reorders the rows divided once for the matrix; dividing
        # the reordered echelon rows for each pin on its own gives the same.
        rng = random.Random(29)
        pins = 0
        for _ in range(300):
            p = random_pin_input(rng)
            rows = [list(row) for row in p.matrix.entries]
            pivots, d, _ = reference_row_reduce(rows, len(p.vars))
            for k, j in enumerate(pivots):
                ordered = [rows[k], *rows[:k], *rows[k + 1 : len(pivots)]]
                g = gcd(*(x for row in ordered for x in row))
                if d < 0:
                    g = -g
                pin = normalize_pin(p, j)
                assert pin.parametrization.matrix.entries == tuple(
                    tuple(x // g for x in row) for row in ordered
                )
                assert pin.exponent == d // g
                pins += 1
        assert pins > 500

    def test_interleaved_matrices_are_not_confused(self):
        rng = random.Random(5)
        a, b = random_pin_input(rng), TWISTED_CUBIC
        for p in (a, b, a):
            for j in range(len(p.vars)):
                assert pin_or_error(normalize_pin, p, j) == pin_or_error(reference_pin, p, j)


class TestFromLattice:
    def test_annihilates_and_has_complementary_rank(self):
        basis = LatticeBasis.spanning([(1, -2, 1)], 3)
        p = parametrization_from_lattice(basis)
        assert rank(p.matrix) == 2
        assert p.matrix.apply((1, -2, 1)) == (0, 0)
        assert kernel_lattice(p.matrix) == basis

    def test_empty_lattice_gives_identity_kernel(self):
        p = parametrization_from_lattice(LatticeBasis(3, ()))
        assert p.matrix == IntegerMatrix.identity(3)

    def test_full_lattice_gives_degenerate(self):
        # every variable of the full lattice, and e_1 of a lattice holding it,
        # maps to 1: its column is zero and the kernel still round-trips
        basis = LatticeBasis.spanning([(1, 0), (0, 1)], 2)
        p = parametrization_from_lattice(basis)
        assert rank(p.matrix) == 0
        assert [p.column(j) for j in range(2)] == [(), ()]
        assert kernel_lattice(p.matrix) == basis
        basis = LatticeBasis.spanning([(1, 0, 0), (0, 1, -1)], 3)
        p = parametrization_from_lattice(basis)
        assert not any(p.column(0)) and all(any(p.column(j)) for j in (1, 2))
        assert kernel_lattice(p.matrix) == basis

    def test_round_trip_with_kernel(self):
        rng = random.Random(43)
        for _ in range(50):
            m = random_matrix(rng)
            basis = kernel_lattice(m)
            p = parametrization_from_lattice(basis)
            assert kernel_lattice(p.matrix) == basis

    def test_saturation_is_kernel_of_matrix(self):
        # Both sides read the one annihilator; tie them on lattices of every
        # kind: zero, full rank, saturated and of index > 1.
        rng = random.Random(77)
        seen = set()
        lattices = [LatticeBasis(3, ()), LatticeBasis.spanning([(2, 1), (0, 3)], 2)]
        for _ in range(80):
            n = rng.randint(1, 5)
            vectors = [
                [rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))
            ]
            if vectors and rng.random() < 0.5:
                vectors[0] = [rng.randint(2, 4) * x for x in vectors[0]]
            lattices.append(LatticeBasis.spanning(vectors, n))
        for basis in lattices:
            sat = saturate_lattice(basis)
            assert sat == kernel_lattice(parametrization_from_lattice(basis).matrix)
            seen.add(
                "zero" if basis.rank == 0
                else "full" if basis.rank == basis.ambient_dim
                else "saturated" if sat == basis
                else "index > 1"
            )
        assert seen == {"zero", "full", "saturated", "index > 1"}
