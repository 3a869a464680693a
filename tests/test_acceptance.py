"""Acceptance suite: desk-scale reproductions and randomized properties.

One test per criterion; each prints a PASS line with its elapsed time
(visible with ``pytest -s`` or on failure).  Budgets are asserted.
"""

import random
import time
from fractions import Fraction

from helpers import (
    boxed_kernel_vectors,
    quadric,
    random_homogeneous_parametrization,
    random_matrix,
    random_nonsingular_rational,
    random_parametrization,
)
from toricsum import (
    Binomial,
    DegreeBound,
    EQUAL_UP_TO_DEGREE,
    IntegerMatrix,
    Parametrization,
    VariableSet,
    certify_presentation,
    contains_binomial,
    determinant,
    dimension,
    enumerate_kernel_binomials,
    hermite_normal_form,
    homogeneity_certificate,
    kernel_lattice,
    membership_by_classes,
    normalize_pin,
    parse_binomial,
    rank,
    reduces_to_zero,
    relabel_binomial,
    reparametrize,
    smith_normal_form,
    split_disjoint,
    sum_family,
    sum_shared,
)
from toricsum.cli import main as cli_main


def _rows_up_to_permutation_and_sign(m: IntegerMatrix):
    normalized = []
    for row in m.entries:
        first = next((x for x in row if x), 0)
        normalized.append(tuple(-x for x in row) if first < 0 else tuple(row))
    return sorted(normalized)


def test_criterion_1_twisted_cubic():
    start = time.monotonic()
    p = Parametrization(
        VariableSet.of("t", "s"),
        VariableSet.of("x0", "x1", "x2", "x3"),
        IntegerMatrix.from_rows([[3, 2, 1, 0], [0, 1, 2, 3]]),
    )
    assert dimension(p) == 2
    cert = homogeneity_certificate(p)
    assert cert is not None and cert.omega == (Fraction(1, 3), Fraction(1, 3))
    found = set(enumerate_kernel_binomials(p, DegreeBound(2)))
    expected = {
        parse_binomial(t, p.vars)
        for t in ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")
    }
    assert found == expected
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 1 (twisted cubic dimension/certificate/kernel): PASS [{elapsed:.2f}s]")


def test_criterion_2_glued_quadrics_sum():
    start = time.monotonic()
    construction = sum_shared(quadric("z1", "z2", "x"), quadric("w1", "w2", "x"), "x")
    expected = IntegerMatrix.from_rows(
        [[1, -1, 0, 0, 0], [0, 0, 1, -1, 0], [1, 1, 1, 1, 1]]
    )
    assert _rows_up_to_permutation_and_sign(construction.result.matrix) == \
        _rows_up_to_permutation_and_sign(expected)
    assert len(construction.result.params) == 3 == 2 + 2 - 1
    vs = construction.result.vars
    gens1 = [parse_binomial("z1*z2 - x^2", vs)]
    gens2 = [parse_binomial("w1*w2 - x^2", vs)]
    verdict = certify_presentation(construction.result, gens1 + gens2, DegreeBound(3))
    assert verdict.status == EQUAL_UP_TO_DEGREE
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 2 (glued quadrics sum + certification): PASS [{elapsed:.2f}s]")


def test_criterion_3_pin_normalization():
    start = time.monotonic()
    p = Parametrization(
        VariableSet.of("t", "s"),
        VariableSet.of("x1", "x2", "x3"),
        IntegerMatrix.from_rows([[1, 1, 1], [0, 1, 2]]),
    )
    pin = normalize_pin(p, 2)
    new = pin.parametrization
    assert pin.exponent == 2
    assert rank(new.matrix) == new.matrix.rows
    expected_column = tuple(
        pin.exponent if k == pin.pinned_param_index else 0 for k in range(new.matrix.rows)
    )
    assert new.column(2) == expected_column
    assert kernel_lattice(new.matrix) == kernel_lattice(p.matrix)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 3 (pin normalization at maximal rank): PASS [{elapsed:.2f}s]")


def test_criterion_4_three_ideal_path():
    start = time.monotonic()
    i1 = Parametrization(
        VariableSet.of("t", "s"),
        VariableSet.of("z1", "z2", "x"),
        IntegerMatrix.from_rows([[1, -1, 0], [1, 1, 1]]),
    )
    i2 = Parametrization(
        VariableSet.of("a", "b"),
        VariableSet.of("w1", "x", "y"),
        IntegerMatrix.from_rows([[1, 2, 0], [1, 0, 2]]),
    )
    i3 = Parametrization(
        VariableSet.of("t", "s"),
        VariableSet.of("v1", "v2", "y"),
        IntegerMatrix.from_rows([[1, -1, 0], [1, 1, 1]]),
    )
    assert [dimension(p) for p in (i1, i2, i3)] == [2, 2, 2]
    result, report = sum_family([i1, i2, i3], ["I1", "I2", "I3"])
    assert report.rank_dimension == 4
    assert report.iterated_prediction == 6 - (3 - 1) == 4
    assert report.global_formula == 6 + 1 - 3 + 1 == 5

    gens = [
        relabel_binomial(parse_binomial("z1*z2 - x^2", i1.vars), i1.vars, result.vars),
        relabel_binomial(parse_binomial("w1^2 - x*y", i2.vars), i2.vars, result.vars),
        relabel_binomial(parse_binomial("v1*v2 - y^2", i3.vars), i3.vars, result.vars),
    ]
    verdict = certify_presentation(result, gens, DegreeBound(3))
    assert verdict.status == EQUAL_UP_TO_DEGREE
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 4 (three-ideal path, rank 4, formulas flagged): PASS [{elapsed:.2f}s]")


def test_criterion_5_property_suite():
    start = time.monotonic()
    cases = 200

    # (a) Hermite and Smith transforms
    rng = random.Random(1001)
    for _ in range(cases):
        m = random_matrix(rng, max_rows=4, max_cols=5)
        h, u = hermite_normal_form(m)
        assert (u @ m) == h
        assert abs(determinant(u)) == 1
        snf = smith_normal_form(m)
        assert (snf.P @ m) @ snf.Q == snf.D
        diag = [snf.D.entries[k][k] for k in range(min(m.rows, m.cols))]
        nonzero = [x for x in diag if x]
        assert diag[: len(nonzero)] == nonzero
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
    print(f"  (a) normal form transforms: {cases} cases")

    # (b) kernel lattices against boxed brute force
    rng = random.Random(1002)
    for _ in range(cases):
        m = random_matrix(rng, max_rows=4, max_cols=4)
        lattice = kernel_lattice(m)
        assert lattice.rank == m.cols - rank(m)
        for v in lattice.vectors:
            assert m.apply(v) == (0,) * m.rows
        for v in boxed_kernel_vectors(m, bound=6):
            assert lattice.contains(v)
    print(f"  (b) kernel lattices vs box enumeration: {cases} cases")

    # (c) base-change invariance of kernel membership
    rng = random.Random(1003)
    for _ in range(cases):
        p = random_parametrization(rng, max_params=4, max_vars=5)
        q = random_nonsingular_rational(rng, p.matrix.rows)
        p2 = reparametrize(p, q)
        assert dimension(p2) == dimension(p)
        for b in enumerate_kernel_binomials(p, DegreeBound(3)):
            assert contains_binomial(p2, b)
        for _ in range(5):
            b = split_disjoint(tuple(rng.randint(-2, 2) for _ in range(len(p.vars))))
            assert contains_binomial(p, b) == contains_binomial(p2, b)
    print(f"  (c) reparametrization invariance: {cases} cases")

    # (d) homogeneous parametrizations have degree-balanced kernels
    rng = random.Random(1004)
    for _ in range(cases):
        p = random_homogeneous_parametrization(rng, max_params=4, max_vars=5, mixes=0)
        assert homogeneity_certificate(p) is not None
        for b in enumerate_kernel_binomials(p, DegreeBound(3)):
            assert b.is_balanced
        for v in kernel_lattice(p.matrix).vectors:
            assert split_disjoint(v).is_balanced
    print(f"  (d) homogeneity implies balanced kernel binomials: {cases} cases")

    # (e) rewriting agrees with union-find equivalence classes
    rng = random.Random(1005)
    for _ in range(cases):
        p = random_homogeneous_parametrization(rng, max_params=3, max_vars=4, mixes=0)
        gens = enumerate_kernel_binomials(p, DegreeBound(2))
        n = len(p.vars)
        for _ in range(3):
            degree = rng.randint(1, 3)
            mono1 = tuple(rng.randint(0, degree) for _ in range(n))
            mono2 = list(mono1)
            rng.shuffle(mono2)
            b = Binomial.from_pair(mono1, tuple(mono2))
            assert reduces_to_zero(b, gens, DegreeBound(3)) == membership_by_classes(b, gens)
    print(f"  (e) rewriting vs union-find membership: {cases} cases")

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 5 (randomized property suite, 5 x {cases} cases): PASS [{elapsed:.2f}s]")


def test_criterion_6_negative_paths(tmp_path, capsys):
    start = time.monotonic()

    two_shared = (
        "ideal I1\nvars a b\nparams t\nrow 1 1\n"
        "ideal I2\nvars a b c\nparams t\nrow 1 1 1\n"
    )
    f = tmp_path / "two.ideal"
    f.write_text(two_shared)
    assert cli_main(["sum", str(f)]) == 1
    err = capsys.readouterr().err
    assert "share 2 variables" in err and "'I1'" in err and "'I2'" in err

    triangle = (
        "ideal I1\nvars z1 x\nparams t\nrow 1 1\n"
        "ideal I2\nvars z2 x\nparams t\nrow 1 1\n"
        "ideal I3\nvars z3 x\nparams t\nrow 1 1\n"
    )
    f = tmp_path / "triangle.ideal"
    f.write_text(triangle)
    assert cli_main(["sum", str(f)]) == 1
    assert "cycle" in capsys.readouterr().err
    assert cli_main(["graph", str(f)]) == 1
    assert "component 1: cycle {I1,I2,I3}" in capsys.readouterr().out

    non_homogeneous = (
        "ideal I1\nvars z1 z2 x\nparams t s\nrow 1 -1 0\nrow 1 1 1\n"
        "ideal I2\nvars w1 x\nparams t\nrow 1 2\n"
    )
    f = tmp_path / "nh.ideal"
    f.write_text(non_homogeneous)
    assert cli_main(["sum", str(f)]) == 1
    err = capsys.readouterr().err
    assert "not homogeneous" in err and "'I2'" in err

    elapsed = time.monotonic() - start
    print(f"criterion 6 (negative paths with exit codes and witnesses): PASS [{elapsed:.2f}s]")
