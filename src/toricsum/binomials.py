"""Monomials, unit-coefficient binomials, and degree balancing.

A monomial is a plain exponent tuple over an ordered variable set.  A
binomial is an ordered pair of monomials with disjoint supports and a
canonical sign, standing for the difference of its two sides; this is the
only polynomial shape the package needs.  The textual form is
``z1^2*z2 - x^3`` with exponent 1 omitted and the canonically positive
side first.  An ideal's generators are a plain tuple of binomials over
the variables of its parametrization.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from operator import mul
from typing import Sequence

Monomial = tuple[int, ...]

# An integer as input text: an optional sign and ASCII digits, nothing else
# (``int`` would also take underscores and non-ASCII digits).
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def _parse_integer(token: str) -> int:
    """``token`` as an int, by :data:`_INTEGER_RE`; ValueError with a plain message otherwise.

    ``int`` also refuses more digits than ``sys.get_int_max_str_digits()``,
    with a message that points at the interpreter's setting instead.
    """
    if not _INTEGER_RE.fullmatch(token):
        raise ValueError(f"malformed integer {token!r}")
    try:
        return int(token)
    except ValueError:
        # the digit limit is all that is left to refuse an ASCII integer
        digits = len(token.lstrip("+-"))
        raise ValueError(f"integer of {digits} digits is longer than the limit of "
                         f"{sys.get_int_max_str_digits()} digits") from None


@dataclass(frozen=True)
class VariableSet:
    """Ordered, duplicate-free variable names; order fixes coordinates.

    A name-to-position dict, built once with the duplicate check, answers
    :meth:`index` and ``in``.  It is a plain attribute, not a field, so
    equality, hashing and the repr read ``names`` alone.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        position = dict(zip(self.names, range(len(self.names))))
        if len(position) != len(self.names):
            seen = [n for i, n in enumerate(self.names) if n in self.names[:i]]
            raise ValueError(f"duplicate variable name {seen[0]!r}")
        object.__setattr__(self, "_position", position)

    @classmethod
    def of(cls, *names: str) -> "VariableSet":
        return cls(tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._position

    def __iter__(self):
        return iter(self.names)

    def index(self, name: str) -> int:
        try:
            return self._position[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None


@dataclass(frozen=True)
class Binomial:
    """x^u_plus - x^u_minus with disjoint supports and canonical sign.

    The canonical sign makes the first nonzero entry of
    ``u_plus - u_minus`` positive; the zero binomial has both sides zero.
    Use :func:`split_disjoint` or :meth:`from_pair` to build canonically.
    """

    u_plus: tuple[int, ...]
    u_minus: tuple[int, ...]

    def __post_init__(self) -> None:
        plus, minus = self.u_plus, self.u_minus
        if len(plus) != len(minus):
            raise ValueError("binomial sides have different lengths")
        # On disjoint non-negative sides, the first nonzero entry of
        # plus - minus is positive exactly when plus > minus in lex order.
        # Sides of length 0 pass every check.
        if plus and (min(plus) < 0 or min(minus) < 0
                     or any(map(mul, plus, minus)) or plus < minus):
            # the first faulty position chooses the message
            for p, m in zip(plus, minus):
                if p < 0 or m < 0:
                    raise ValueError("exponents must be non-negative")
                if p and m:
                    raise ValueError("binomial sides must have disjoint supports")
            raise ValueError("binomial is not in canonical sign form")

    @classmethod
    def from_pair(cls, plus: Sequence[int], minus: Sequence[int]) -> "Binomial":
        """Canonicalize an arbitrary monomial pair (cancel and fix sign)."""
        if len(plus) != len(minus):
            raise ValueError("binomial sides have different lengths")
        return split_disjoint(tuple(int(p) - int(m) for p, m in zip(plus, minus)))

    @classmethod
    def zero(cls, nvars: int) -> "Binomial":
        z = (0,) * nvars
        return cls(z, z)

    @property
    def nvars(self) -> int:
        return len(self.u_plus)

    @property
    def is_zero(self) -> bool:
        return not any(self.u_plus) and not any(self.u_minus)

    @property
    def is_balanced(self) -> bool:
        """Both sides have the same total degree."""
        return sum(self.u_plus) == sum(self.u_minus)

    @property
    def degree(self) -> int:
        return max(sum(self.u_plus), sum(self.u_minus))

    def involves(self, index: int) -> bool:
        return bool(self.u_plus[index] or self.u_minus[index])

    def sort_key(self) -> tuple:
        return (self.degree, self.u_plus, self.u_minus)


def split_disjoint(u: Sequence[int]) -> Binomial:
    """Split an integer vector into the canonical disjoint-support binomial.

    ``u_plus - u_minus == u`` up to the canonical sign flip, which is
    applied when the first nonzero entry of ``u`` is negative.
    """
    vec = [int(x) for x in u]
    return _from_differences(dict(enumerate(vec)), len(vec))


def relabel_binomial(b: Binomial, old_vars: VariableSet, new_vars: VariableSet) -> Binomial:
    """Re-index a binomial into a larger variable set by name (zero-extend).

    Every old name must be a new one; the nonzero entries of ``b`` are
    placed at their names' new positions, and the sign is fixed again
    there, as the new order may put another variable first.
    """
    if b.nvars != len(old_vars):
        raise ValueError("binomial does not match its variable set")
    positions = [new_vars.index(name) for name in old_vars]
    return _from_differences({positions[k]: p - m
                              for k, (p, m) in enumerate(zip(b.u_plus, b.u_minus)) if p or m},
                             len(new_vars))


def _from_differences(diff: dict[int, int], nvars: int) -> Binomial:
    """The canonical binomial of the vector over ``nvars`` variables with entries ``diff``.

    ``diff`` maps a variable index to its entry; zero entries and missing
    indices are zero.  The sign is fixed by the entry of the smallest index
    with a nonzero one, and the dense sides are built once, still checked
    by :class:`Binomial`.
    """
    plus = [0] * nvars
    minus = [0] * nvars
    first, lead = nvars, 0
    for i, x in diff.items():
        if x:
            if i < first:
                first, lead = i, x
            if x > 0:
                plus[i] = x
            else:
                minus[i] = -x
    if lead < 0:
        plus, minus = minus, plus
    return Binomial(tuple(plus), tuple(minus))


def format_monomial(u: Sequence[int], vars: VariableSet) -> str:
    if len(u) != len(vars):
        raise ValueError("monomial does not match the variable set")
    factors = []
    for name, e in zip(vars, u):
        if e == 1:
            factors.append(name)
        elif e:
            factors.append(f"{name}^{e}")
    return "*".join(factors) if factors else "1"


def format_binomial(b: Binomial, vars: VariableSet) -> str:
    if b.is_zero:
        return "0"
    return f"{format_monomial(b.u_plus, vars)} - {format_monomial(b.u_minus, vars)}"


def parse_binomial(text: str, vars: VariableSet) -> Binomial:
    """Parse the textual binomial grammar, canonicalizing the result.

    Both sides are read into one map from variable index to exponent
    difference, the first side's exponents added and the second's
    subtracted, so repeated and shared factors cancel as they are read.
    The dense binomial is built once from that map
    (:func:`_from_differences`).  Errors are raised in reading order: the
    shape, then the first side's factors, then the second's.
    """
    s = text.strip()
    if s == "0":
        return Binomial.zero(len(vars))
    parts = s.split("-")
    if len(parts) != 2:
        raise ValueError(f"expected 'monomial - monomial', got {s!r}")
    diff: dict[int, int] = {}
    _read_monomial(parts[0].strip(), vars, diff, 1)
    _read_monomial(parts[1].strip(), vars, diff, -1)
    return _from_differences(diff, len(vars))


def _read_monomial(s: str, vars: VariableSet, diff: dict[int, int], sign: int) -> None:
    """Add ``sign`` times the exponents of the monomial text ``s`` into ``diff``."""
    if s == "1":
        return
    if not s:
        raise ValueError("empty monomial")
    for factor in s.split("*"):
        name, caret, e = factor.partition("^")
        if caret:
            e = e.strip()
            if not _INTEGER_RE.fullmatch(e):
                raise ValueError(f"malformed exponent in {factor.strip()!r}")
            # a side holds no '-', so the exponent is not negative
            exponent = _parse_integer(e)
        else:
            exponent = 1
        i = vars.index(name.strip())
        diff[i] = diff.get(i, 0) + sign * exponent
