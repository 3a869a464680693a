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
    vec = tuple(int(x) for x in u)
    first = next((x for x in vec if x), 0)
    if first < 0:
        vec = tuple(-x for x in vec)
    plus = tuple(x if x > 0 else 0 for x in vec)
    minus = tuple(-x if x < 0 else 0 for x in vec)
    return Binomial(plus, minus)


def relabel_binomial(b: Binomial, old_vars: VariableSet, new_vars: VariableSet) -> Binomial:
    """Re-index a binomial into a larger variable set by name (zero-extend)."""
    if b.nvars != len(old_vars):
        raise ValueError("binomial does not match its variable set")
    plus = [0] * len(new_vars)
    minus = [0] * len(new_vars)
    for k, name in enumerate(old_vars):
        j = new_vars.index(name)
        plus[j] = b.u_plus[k]
        minus[j] = b.u_minus[k]
    return Binomial.from_pair(plus, minus)


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
    """Parse the textual binomial grammar, canonicalizing the result."""
    s = text.strip()
    if s == "0":
        return Binomial.zero(len(vars))
    parts = s.split("-")
    if len(parts) != 2:
        raise ValueError(f"expected 'monomial - monomial', got {text.strip()!r}")
    return Binomial.from_pair(
        _parse_monomial(parts[0].strip(), vars),
        _parse_monomial(parts[1].strip(), vars),
    )


def _parse_monomial(s: str, vars: VariableSet) -> tuple[int, ...]:
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
            if not _INTEGER_RE.fullmatch(e):
                raise ValueError(f"malformed exponent in {factor!r}")
            exponent = _parse_integer(e)
            if exponent < 0:
                raise ValueError(f"negative exponent in {factor!r}")
        else:
            exponent = 1
        exponents[vars.index(name)] += exponent
    return tuple(exponents)
