"""Binomial canonicalization, degrees, and the text grammar."""

import collections
import itertools
import random
import re
import sys

import pytest

from toricsum import (
    Binomial,
    VariableSet,
    format_binomial,
    parse_binomial,
    relabel_binomial,
    split_disjoint,
)
from toricsum.binomials import _parse_integer


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


def reference_parse(text, vars):
    """The dense parser, kept as the reference: each side an exponent tuple, then ``from_pair``."""
    s = text.strip()
    if s == "0":
        return Binomial.zero(len(vars))
    parts = s.split("-")
    if len(parts) != 2:
        raise ValueError(f"expected 'monomial - monomial', got {text.strip()!r}")
    return Binomial.from_pair(reference_monomial(parts[0].strip(), vars),
                              reference_monomial(parts[1].strip(), vars))


def reference_monomial(s, vars):
    if s == "1":
        return (0,) * len(vars)
    if not s:
        raise ValueError("empty monomial")
    exponents = [0] * len(vars)
    for factor in s.split("*"):
        factor = factor.strip()
        name, caret, e = factor.partition("^")
        name = name.strip()
        if caret:
            e = e.strip()
            if not re.fullmatch(r"[+-]?[0-9]+", e):
                raise ValueError(f"malformed exponent in {factor!r}")
            exponent = _parse_integer(e)
            if exponent < 0:
                raise ValueError(f"negative exponent in {factor!r}")
        else:
            exponent = 1
        exponents[vars.index(name)] += exponent
    return tuple(exponents)


def parse_outcome(parse, text, vars):
    """The binomial ``parse`` reads from ``text``, or the message of its ValueError."""
    try:
        return parse(text, vars)
    except ValueError as exc:
        return str(exc)


def random_binomial_text(rng, names):
    """Binomial text over ``names`` and one unknown name, mostly well formed.

    Factors repeat, sides are often ``1`` or share factors, the second side
    is sometimes the first one's factors shuffled (full cancellation), and
    spacing, ``^+e``, ``^0`` and malformed exponents, empty factors and
    sides, a wrong number of ``-`` and the ``0`` binomial all occur.
    """
    def space():
        return rng.choice(["", "", " ", "  ", "\t"])

    def factor():
        name = rng.choice(names + ("q",) if rng.random() < 0.05 else names)
        roll = rng.random()
        if roll < 0.45:
            return space() + name + space()
        if roll < 0.95:
            e = rng.choice(["0", "1", "2", "3", "+2", "+0", "03", "12"])
        else:
            e = rng.choice(["", "a", "-2", "1_0", "2.0", "٣", "+", "2 2"])
        return space() + name + space() + "^" + space() + e + space()

    def side():
        roll = rng.random()
        if roll < 0.15:
            return space() + "1" + space()
        if roll < 0.18:
            return space()
        factors = [factor() for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.03:
            factors.insert(rng.randrange(len(factors) + 1), space())
        return "*".join(factors)

    roll = rng.random()
    if roll < 0.03:
        return space() + "0" + space()
    first = side()
    if roll < 0.15:
        factors = first.split("*")
        rng.shuffle(factors)
        second = "*".join(factors)
    else:
        second = side()
    sides = [first, second]
    if rng.random() < 0.04:
        sides.append(side())
    if rng.random() < 0.03:
        sides = sides[:1]
    return "-".join(sides)


def test_sparse_parser_matches_the_dense_reference():
    # the same binomial or the same error message as the dense reference
    rng = random.Random(23)
    vs = VariableSet.of("z1", "z2", "x", "y0", "w")
    seen = collections.Counter()
    for _ in range(6000):
        text = random_binomial_text(rng, vs.names)
        got = parse_outcome(parse_binomial, text, vs)
        assert got == parse_outcome(reference_parse, text, vs), text
        if isinstance(got, str):
            seen[got.split(" ")[0]] += 1
        else:
            seen["zero" if got.is_zero else "binomial"] += 1
            seen["^+"] += "^+" in text.replace(" ", "")
            seen["1 side"] += "1" in [t.strip() for t in text.split("-")]
    for kind in ("zero", "binomial", "^+", "1 side", "expected", "empty", "unknown", "malformed"):
        assert seen[kind] > 20, seen


@pytest.mark.parametrize("text, message", [
    ("x^-2 - y", "expected 'monomial - monomial', got 'x^-2 - y'"),
    ("z1*z2", "expected 'monomial - monomial', got 'z1*z2'"),
    ("  z1 - x - z2 ", "expected 'monomial - monomial', got 'z1 - x - z2'"),
    ("x^-2", "malformed exponent in 'x^'"),
    (" - x", "empty monomial"),
    ("x -  ", "empty monomial"),
    ("q - x", "unknown variable 'q'"),
    ("x - z1*q^2", "unknown variable 'q'"),
    ("x**z1 - z2", "unknown variable ''"),
    ("z1^a - x", "malformed exponent in 'z1^a'"),
    ("z1 ^  - x", "malformed exponent in 'z1 ^'"),
    ("z1^1_0 - x", "malformed exponent in 'z1^1_0'"),
    ("z1^2 x - x", "malformed exponent in 'z1^2 x'"),
    ("z1^٣ - x", "malformed exponent in 'z1^٣'"),
    # the exponent is read before the name, and the first side before the second
    ("q^a - x", "malformed exponent in 'q^a'"),
    ("q - z1^a", "unknown variable 'q'"),
])
def test_parse_error_texts(text, message):
    vs = VariableSet.of("z1", "z2", "x", "y")
    with pytest.raises(ValueError) as exc:
        parse_binomial(text, vs)
    assert str(exc.value) == message
    assert parse_outcome(reference_parse, text, vs) == message


def test_parse_refuses_an_exponent_past_the_digit_limit():
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(ValueError) as exc:
        parse_binomial(f"z1^{'9' * digits} - x", VariableSet.of("z1", "x"))
    assert str(exc.value) == (f"integer of {digits} digits is longer than the limit of "
                              f"{sys.get_int_max_str_digits()} digits")


def test_relabel_matches_the_dense_round_trip():
    # every nonzero entry moved to its name's new position and the sign
    # fixed there: the binomial of the dense round trip through from_pair
    rng = random.Random(29)
    pool = [f"v{i}" for i in range(9)]
    for _ in range(500):
        new = VariableSet(tuple(rng.sample(pool, rng.randint(1, 9))))
        old = VariableSet(tuple(rng.sample(new.names, rng.randint(1, len(new)))))
        b = split_disjoint(tuple(rng.randint(-2, 2) for _ in range(len(old))))
        plus, minus = [0] * len(new), [0] * len(new)
        for k, name in enumerate(old):
            plus[new.index(name)] = b.u_plus[k]
            minus[new.index(name)] = b.u_minus[k]
        assert relabel_binomial(b, old, new) == Binomial.from_pair(plus, minus)
        assert format_binomial(relabel_binomial(b, old, new), new) == \
            format_binomial(Binomial.from_pair(plus, minus), new)
    # a name missing from the new set is refused, even with exponent 0
    with pytest.raises(ValueError, match="unknown variable 'v8'"):
        relabel_binomial(Binomial((1, 0), (0, 0)), VariableSet.of("v0", "v8"), VariableSet.of("v0"))
