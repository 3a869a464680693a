"""Binomial canonicalization, degrees, and the text grammar."""

import itertools
import random

import pytest

from toricsum import (
    Binomial,
    VariableSet,
    format_binomial,
    parse_binomial,
    relabel_binomial,
    split_disjoint,
)


class TestSplitDisjoint:
    def test_mixed_signs(self):
        b = split_disjoint((1, -2, 1))
        assert b.u_plus == (1, 0, 1)
        assert b.u_minus == (0, 2, 0)

    def test_zero(self):
        assert split_disjoint((0, 0)).is_zero

    def test_sign_flip(self):
        b = split_disjoint((-1, 1))
        assert b.u_plus == (1, 0)
        assert b.u_minus == (0, 1)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            u = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 5)))
            b = split_disjoint(u)
            diff = tuple(p - m for p, m in zip(b.u_plus, b.u_minus))
            assert diff == u or diff == tuple(-x for x in u)
            assert split_disjoint(diff) == b


def test_invalid_binomials_rejected():
    with pytest.raises(ValueError, match="disjoint"):
        Binomial((1, 0), (1, 0))
    with pytest.raises(ValueError, match="canonical"):
        Binomial((0, 1), (1, 0))
    with pytest.raises(ValueError, match="non-negative"):
        Binomial((-1, 0), (0, 0))


def test_first_faulty_position_chooses_the_message():
    def positional(plus, minus):
        """The checks one position at a time, then the sign."""
        for p, m in zip(plus, minus):
            if p < 0 or m < 0:
                return "exponents must be non-negative"
            if p and m:
                return "binomial sides must have disjoint supports"
        if next((p - m for p, m in zip(plus, minus) if p != m), 0) < 0:
            return "binomial is not in canonical sign form"
        return None

    # two faults at different positions: the earlier one names the error
    for plus, minus, message in [
        ((1, -1), (1, 0), "disjoint supports"),
        ((-1, 1), (0, 1), "non-negative"),
        ((0, 1), (1, 1), "disjoint supports"),
        ((0, 0, -2), (1, 0, 0), "non-negative"),
    ]:
        with pytest.raises(ValueError, match=message):
            Binomial(plus, minus)
    values = (-1, 0, 1, 2)
    for n in range(3):
        sides = list(itertools.product(values, repeat=n))
        for plus in sides:
            for minus in sides:
                try:
                    Binomial(plus, minus)
                    got = None
                except ValueError as e:
                    got = str(e)
                assert got == positional(plus, minus), (plus, minus)


def test_from_pair_cancels_common_factors():
    # x^2 - x^3 over (z, x) collapses to the canonical x - 1
    b = Binomial.from_pair((0, 2), (0, 3))
    assert b.u_plus == (0, 1)
    assert b.u_minus == (0, 0)


def test_from_pair_rejects_sides_of_different_lengths():
    # zip used to cut the longer side, giving a 2-variable binomial here
    for plus, minus in (((1, 0, 2), (0, 1)), ((0, 1), (1, 0, 2)), ((1,), ())):
        with pytest.raises(ValueError, match="binomial sides have different lengths"):
            Binomial.from_pair(plus, minus)


class TestTextFormat:
    VS = VariableSet.of("z1", "z2", "x")

    def test_format(self):
        b = Binomial((2, 1, 0), (0, 0, 3))
        assert format_binomial(b, self.VS) == "z1^2*z2 - x^3"

    def test_format_zero_and_one(self):
        assert format_binomial(Binomial.zero(3), self.VS) == "0"
        assert format_binomial(Binomial((1, 0, 0), (0, 0, 0)), self.VS) == "z1 - 1"

    def test_parse(self):
        assert parse_binomial("z1^2*z2 - x^3", self.VS) == Binomial((2, 1, 0), (0, 0, 3))
        assert parse_binomial("z1 - 1", self.VS) == Binomial((1, 0, 0), (0, 0, 0))
        assert parse_binomial("0", self.VS).is_zero

    def test_parse_normalizes_sign(self):
        assert parse_binomial("x - z1", self.VS) == Binomial((1, 0, 0), (0, 0, 1))

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="unknown variable"):
            parse_binomial("q - x", self.VS)
        with pytest.raises(ValueError, match="monomial - monomial"):
            parse_binomial("z1*z2", self.VS)
        with pytest.raises(ValueError, match="exponent"):
            parse_binomial("z1^a - x", self.VS)

    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(100):
            b = split_disjoint(tuple(rng.randint(-3, 3) for _ in range(3)))
            assert parse_binomial(format_binomial(b, self.VS), self.VS) == b


def test_relabel_zero_extends():
    small = VariableSet.of("w1", "w2", "x")
    big = VariableSet.of("z1", "z2", "w1", "w2", "x")
    b = Binomial((1, 1, 0), (0, 0, 2))  # w1*w2 - x^2
    r = relabel_binomial(b, small, big)
    assert r.u_plus == (0, 0, 1, 1, 0)
    assert r.u_minus == (0, 0, 0, 0, 2)


def test_relabel_recanonicalizes_sign():
    old = VariableSet.of("x", "z")
    new = VariableSet.of("z", "x")
    b = Binomial((1, 0), (0, 1))  # x - z
    assert relabel_binomial(b, old, new) == Binomial((1, 0), (0, 1))  # z - x


def test_variable_set_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        VariableSet.of("a", "b", "a")


def test_variable_set_lookup_matches_names():
    rng = random.Random(5)
    pool = [f"v{i}" for i in range(20)]
    for _ in range(50):
        names = tuple(rng.sample(pool, rng.randint(0, 8)))
        vs = VariableSet(names)
        assert [vs.index(n) for n in names] == list(range(len(names)))
        assert [n in vs for n in pool] == [n in names for n in pool]
        # the lookup table is no field: equality, hash and repr read the names alone
        assert vs == VariableSet(names) and hash(vs) == hash(VariableSet(names))
        assert repr(vs) == f"VariableSet(names={names!r})"
    # the first name seen twice is reported
    with pytest.raises(ValueError, match="duplicate variable name 'b'"):
        VariableSet.of("a", "b", "b", "a")
