"""`poly.parse` against the recursive-descent parser it replaced.

Both must give the same polynomial with the same coefficient classes and the
same term order, or raise the same exception with the same message.
"""

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import reference_parser
from scrollstci.poly import QQ, Fp, Ring, parse

FIELDS = [QQ, Fp(2), Fp(5)]
RINGS = {field: Ring(("x", "y", "z", "x0"), field) for field in FIELDS}


def outcome(parse_fn, ring, text):
    """The parsed terms in order, each with its coefficient's class, or the
    exception's class and message."""
    try:
        p = parse_fn(ring, text)
    except Exception as exc:  # the outcome compared is the exception itself
        return "raised", type(exc), str(exc)
    assert p.ring == ring
    return "parsed", [(m, c, type(c)) for m, c in p._terms.items()]


def assert_same(field, text):
    ring = RINGS[field]
    assert outcome(parse, ring, text) == outcome(reference_parser.parse, ring, text), text


# --- generated texts ------------------------------------------------------------------

space = st.sampled_from(["", "", " ", "  ", "\t"])
names = st.sampled_from(["x", "y", "z", "x0", "w"])
ints = st.integers(0, 12).map(str)
rationals = st.tuples(st.integers(0, 9), st.integers(0, 6)).map(lambda t: f"{t[0]}/{t[1]}")


@st.composite
def sequence(draw, items, ops, min_size=1, max_size=3):
    parts = draw(st.lists(items, min_size=min_size, max_size=max_size))
    out = parts[0]
    for part in parts[1:]:
        out += draw(space) + draw(ops) + draw(space) + part
    return out


def expressions(atoms):
    factor = st.tuples(atoms, st.one_of(st.just(""), st.integers(0, 4).map(lambda e: f"^{e}")))
    term = sequence(factor.map("".join), st.just("*"))
    return st.tuples(st.sampled_from(["", "-", "+", "- "]),
                     sequence(term, st.sampled_from(["+", "-"]), max_size=4)).map("".join)


texts = st.recursive(
    st.one_of(names, ints, rationals),
    lambda inner: expressions(st.one_of(names, ints, rationals,
                                        inner.map(lambda t: f"({t})"))),
    max_leaves=8,
)

noise = st.sampled_from(list("()^*/+-  x07q")
                        + ["\t", "\n", "\u00a0", "$", "\u00e9", "\u00b2", "\u0663", "**", ")("])


@st.composite
def corrupted(draw):
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text = text[:i] + draw(noise) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + draw(noise) + text[i + 1:]
    return text


@seed(20261019)
@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FIELDS), texts)
def test_generated_texts_parse_as_before(field, text):
    assert_same(field, text)


@seed(20261019)
@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FIELDS), corrupted())
def test_corrupted_texts_parse_or_fail_as_before(field, text):
    assert_same(field, text)


# --- pinned cases ------------------------------------------------------------------------

PINNED = [
    "(" * 100 + "x" + ")" * 100,
    "(" * 101 + "x" + ")" * 101,
    "(" * 101 + "q",
    "x^٣",  # an Arabic-Indic digit three: a decimal digit, so it parses
    "x٣",
    "2x",
    "x/y",
    "(x/y)",
    "1/0",
    "1/00",
    "1/2*x",
    "1/",
    "4/2 - 2",
    "(3/4)^0",
    "(3/4)^2*x",
    "-(1/2)^1 + 1/2",
    "0^0",
    "(x - x)^0",
    "(x + y)^2 - (x - y)^2",
    "x ** 2",
    "x^",
    "x^-1",
    "x^2^3",
    "x^(2)",
    "--x",
    "-",
    "x +",
    "()",
    "(+)",
    "(x",
    "x)",
    "x y",
    "q + 1",
    "x + $",
    "x  \t$ y",
    "x + é",
    "x²",
    "",
    "   \n ",
    "x   ",
    "  - x",
    "007*x",
    "7*x - 2*x - 5*x",
    "x*(y + z)*(y - z)*(x0 + 1)^3 - 1/3*x0",
]


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "F2", "F5"])
@pytest.mark.parametrize("text", PINNED)
def test_pinned_texts_parse_as_before(field, text):
    assert_same(field, text)


def test_non_text_is_a_type_error_as_before():
    assert outcome(parse, RINGS[QQ], 3) == outcome(reference_parser.parse, RINGS[QQ], 3)
    assert outcome(parse, RINGS[QQ], 3)[1] is TypeError
