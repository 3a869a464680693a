"""Property tests for the ideal file parser on generated well-formed blocks."""

import pytest

from toricsum.cli import IdealFileError, format_ideal_file, parse_ideal_file

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

NAMES = ("a", "b", "c", "x", "y", "z1", "t", "s")


def _names(min_size, max_size):
    return st.lists(st.sampled_from(NAMES), min_size=min_size, max_size=max_size, unique=True)


@st.composite
def _monomial(draw, vars_):
    factors = []
    for v in vars_:
        e = draw(st.integers(0, 2))
        if e:
            factors.append(v if e == 1 else f"{v}^{e}")
    return "*".join(factors) or "1"


@st.composite
def _block(draw, name):
    vars_ = draw(_names(1, 4))
    params = draw(_names(1, 3))
    lines = [f"ideal {name}", "vars " + " ".join(vars_), "params " + " ".join(params)]
    for _ in params:
        # Entries in -2..2 make all-zero columns common.
        lines.append("row " + " ".join(str(draw(st.integers(-2, 2))) for _ in vars_))
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"gen {draw(_monomial(vars_))} - {draw(_monomial(vars_))}")
    return "\n".join(lines)


@st.composite
def _ideal_file(draw):
    count = draw(st.integers(0, 3))
    return "\n\n".join(draw(_block(f"I{k}")) for k in range(count)) + "\n"


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_ideal_file())
def test_parse_rejects_only_with_file_errors_and_round_trips(text):
    try:
        ideals = parse_ideal_file(text)
    except IdealFileError:
        return
    formatted = format_ideal_file(ideals)
    assert parse_ideal_file(formatted) == ideals
    assert format_ideal_file(parse_ideal_file(formatted)) == formatted
