"""Polynomial core: exact arithmetic, orders, parsing, linear spans."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scrollstci.lattice import binomial
from scrollstci.oracle import IdealHandle
from scrollstci.poly import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    QQ,
    FieldSpec,
    Fp,
    LinearSpan,
    OracleTimeout,
    ParseError,
    Polynomial,
    Ring,
    RingMismatchError,
    ScrollstciError,
    block_order,
    format_poly,
    is_linear_form,
    linear_form,
    linear_span_dim,
    parse,
    proportional,
    substitute,
    time_limit,
    transport,
)

import tuple_kernel
from conftest import assert_canonical, evaluate

R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))


def P(text, ring=R2):
    return parse(ring, text)


# --- canonical form ---------------------------------------------------------

def test_like_terms_merge():
    x = R2.variable("x")
    assert x + x == P("2*x")


def test_commutativity_cancels():
    x, y = R2.variable("x"), R2.variable("y")
    assert (x * y - y * x).is_zero()


def test_binomial_expansion():
    assert P("(x + y)*(x + y)") == P("x^2 + 2*x*y + y^2")


def test_products_respect_the_deadline():
    base = P("x + y + 1")
    with time_limit(0.0):
        with pytest.raises(OracleTimeout):
            base ** 40
    assert (base ** 2) == P("x^2 + 2*x*y + y^2 + 2*x + 2*y + 1")


def test_parsing_respects_the_deadline():
    # a product of two one-term factors checks the deadline too
    for text in ("(x + y + z)^60", "x*y"):
        with time_limit(0.0):
            with pytest.raises(OracleTimeout):
                parse(R3, text)


def test_a_one_term_power_is_exponent_arithmetic():
    # a bounded deadline: multiplying x out 3e9 times would exceed it
    with time_limit(10):
        p = parse(R2, "x^3000000000 - y")
        assert p.items() == [((3000000000, 0), 1), ((0, 1), -1)]
        assert (P("2*x") ** 3).items() == [((3, 0), 8)]


@pytest.mark.parametrize("make", [
    lambda: Ring(("x", "y"), Fp(7)).constant(2.9),
    lambda: Ring(("x", "y"), Fp(7)).monomial((1, 0), 3.5),
    lambda: R2.constant(0.5),
    lambda: R2.constant("1/2"),
    lambda: R2.constant(True),
    lambda: R2.monomial((1.5, 0)),
    lambda: R2.monomial((1, 0.0)),
    lambda: Polynomial(R2, {(1, 0): 0.25}),
    lambda: linear_form(R2, [0.5, 1]),
    lambda: binomial(R2, (1.5, -1)),
], ids=["Fp-constant", "Fp-coefficient", "QQ-float", "QQ-string", "bool", "float-exponent",
        "float-zero-exponent", "constructor", "linear-form", "binomial"])
def test_no_floats_in_the_public_constructors(make):
    # a float or a string is refused, not truncated or read as a rational
    with pytest.raises(TypeError):
        make()


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        P("x") + P("x", R3)


# --- products ---------------------------------------------------------------

def test_difference_of_squares():
    assert P("x - y") * P("x + y") == P("x^2 - y^2")


def test_zero_absorbs():
    assert (R2.zero() * P("x^2 + y")).is_zero()


def test_minor_times_variable():
    ring = Ring(("x0", "x1", "x2"))
    got = parse(ring, "x0*x2 - x1^2") * parse(ring, "x1")
    assert got == parse(ring, "x0*x1*x2 - x1^3")


def test_degree_additivity_over_qq():
    p, q = P("x^2 + y"), P("x*y - 3")
    assert (p * q).degree() == p.degree() + q.degree()


# --- substitute -------------------------------------------------------------

def test_substitute_rename():
    assert substitute(P("x^2"), {"x": R2.variable("y")}, R2) == P("y^2")


def test_substitute_shift():
    ring = Ring(("x", "z", "u"))
    got = substitute(parse(ring, "x*z"), {"z": parse(ring, "x - u")}, ring)
    assert got == parse(ring, "x^2 - x*u")


def test_substitute_block_into_complement():
    # frozen by hand: (d1+h)(d3+4h) - (d2+2h)^2 with the h^2 terms cancelling
    src = Ring(("x0", "x1", "x2"))
    dst = Ring(("d1", "d2", "d3", "h"))
    images = {
        "x0": parse(dst, "d1 + h"),
        "x1": parse(dst, "d2 + 2*h"),
        "x2": parse(dst, "d3 + 4*h"),
    }
    got = substitute(parse(src, "x0*x2 - x1^2"), images, dst)
    assert got == parse(dst, "d1*d3 + 4*d1*h + d3*h - d2^2 - 4*d2*h")


def test_substitute_identity():
    p = P("x^2*y - 3*y")
    assert substitute(p, {}) == p


def test_substitute_unknown_variable():
    with pytest.raises(ScrollstciError):
        substitute(P("x"), {"q": R2.variable("x")})


# --- term orders ----------------------------------------------------------------

def compare_monomials(m1: tuple, m2: tuple, order) -> int:
    """-1, 0 or 1 as m1 is less than, equal to or greater than m2 under ``order``."""
    keyf = order.key()
    a, b = keyf(m1), keyf(m2)
    return (a > b) - (a < b)


def test_lex_on_variables():
    assert compare_monomials((1, 0), (0, 1), LEX) == 1


def test_degrevlex_tie_break():
    assert compare_monomials((2, 1), (1, 2), DEGREVLEX) == 1


def test_equal_monomials():
    assert compare_monomials((1, 2), (1, 2), DEGREVLEX) == 0


def test_arity_mismatch():
    with pytest.raises(ScrollstciError):
        R2.monomial((1,))


def _all_monomials(nvars, maxdeg):
    if nvars == 0:
        return [()]
    out = []
    for head in range(maxdeg + 1):
        for tail in _all_monomials(nvars - 1, maxdeg - head):
            out.append((head,) + tail)
    return out


@pytest.mark.parametrize("order", [LEX, DEGREVLEX])
def test_total_order_on_degree_four_monomials(order):
    monos = _all_monomials(3, 4)
    keyf = order.key()
    keys = [keyf(m) for m in monos]
    # antisymmetric and total: keys are pairwise distinct
    assert len(set(keys)) == len(keys)
    # transitive by construction (key comparison); 1 is the minimum
    one = (0, 0, 0)
    assert all(compare_monomials(one, m, order) <= 0 for m in monos)
    # multiplicative
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rng.choice(monos) for _ in range(3))
        cmp_ab = compare_monomials(a, b, order)
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert compare_monomials(ac, bc, order) == cmp_ab


@pytest.mark.parametrize("order", [LEX, DEGLEX, DEGREVLEX, block_order(0), block_order(2)])
def test_descending_key_reverses_the_order(order):
    monos = _all_monomials(4, 3)
    assert sorted(monos, key=tuple_kernel.descending_key(order)) == \
        sorted(monos, key=order.key(), reverse=True)


# --- hypothesis: ring axioms ----------------------------------------------------

small_coeffs = st.integers(min_value=-4, max_value=4)
small_monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@st.composite
def polys(draw, ring=R3):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        terms[draw(small_monos)] = draw(small_coeffs)
    return Polynomial(ring, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_substitute_is_a_homomorphism(p, q):
    images = {"x": parse(R3, "y + 1"), "z": parse(R3, "x*y")}
    f = lambda t: substitute(t, images, R3)
    assert f(p + q) == f(p) + f(q)
    assert f(p * q) == f(p) * f(q)


def test_canonical_form_is_a_normal_form():
    # equal as functions on 20 rational points iff equal canonical forms,
    # for fixed seeded degree <= 3 instances
    rng = random.Random(20260810)
    monos = _all_monomials(3, 3)

    def random_poly():
        return Polynomial(R3, {rng.choice(monos): rng.randint(-5, 5) for _ in range(4)})

    points = [
        {v: Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for v in R3.variables}
        for _ in range(20)
    ]
    for _ in range(25):
        p, q = random_poly(), random_poly()
        agree = all(evaluate(p, pt) == evaluate(q, pt) for pt in points)
        assert agree == (p == q)
        # and a guaranteed-equal pair built by reassociation
        r = (p + q) + p
        s = p + (q + p)
        assert all(evaluate(r, pt) == evaluate(s, pt) for pt in points) and r == s


# --- parsing / printing ------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "x0*x2 - x1^2",
    "x0*x3^2 - 2*x1*x2*x3 + x2^3",
    "1/2*x0*x1 + x2",
    "-x0 + 3",
    "7",
    "0",
    "x3^4 - 1/3",
])
def test_round_trip(text):
    ring = Ring(("x0", "x1", "x2", "x3"))
    p = parse(ring, text)
    assert parse(ring, format_poly(p)) == p


def test_canonical_strings():
    ring = Ring(("x0", "x1", "x2", "x3"))
    assert format_poly(parse(ring, "- x1^2 + x0*x2")) == "x0*x2 - x1^2"
    assert format_poly(parse(ring, "x2^3 + x0*x3^2 - 2*x1*x2*x3")) == \
        "x0*x3^2 - 2*x1*x2*x3 + x2^3"
    assert format_poly(parse(ring, "1/2*x1*x0 + x2")) == "1/2*x0*x1 + x2"


@pytest.mark.parametrize("bad", ["", "x +", "x ** 2", "2x", "x^-1", "(x", "q + 1"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(R2, bad)


@settings(max_examples=80, deadline=None)
@given(polys())
def test_round_trip_random_polynomials(p):
    assert parse(R3, format_poly(p)) == p


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(small_monos, st.integers(min_value=-10, max_value=10), max_size=4))
def test_round_trip_random_polynomials_fp(terms):
    ring = Ring(("x", "y", "z"), Fp(7))
    p = Polynomial(ring, terms)
    assert parse(ring, format_poly(p)) == p


def test_fp_coefficients():
    ring = Ring(("x", "y"), Fp(7))
    p = parse(ring, "3*x + 5*x + 10*y")
    assert format_poly(p) == "x + 3*y"
    assert parse(ring, format_poly(p)) == p


def test_transport_by_name():
    big = Ring(("t", "x", "y"))
    small = R2
    p = parse(small, "x*y - y^2")
    up = transport(p, big)
    assert up == parse(big, "x*y - y^2")
    assert transport(up, small) == p
    with pytest.raises(RingMismatchError):
        transport(parse(big, "t*x"), small)


# --- linear spans ---------------------------------------------------------------

def test_linear_span_dim_examples():
    x, y = R2.variable("x"), R2.variable("y")
    assert linear_span_dim([x, y, x + y]) == 2
    assert linear_span_dim([], R2) == 0


def test_linear_span_dim_nine_variable_fixture():
    ring = Ring(("a", "b", "c", "x", "y", "z", "u", "v", "w"))
    forms = [ring.variable(v) for v in ("y", "z", "x", "c", "a", "b", "c")]
    assert linear_span_dim(forms) == 6


def test_linear_span_dim_bounds_and_permutation_invariance():
    rng = random.Random(11)
    ring = Ring(("a", "b", "c", "d"))
    for _ in range(30):
        forms = []
        for _ in range(rng.randint(0, 6)):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            forms.append(sum((c * ring.variable(v) for c, v in zip(coeffs, ring.variables)),
                            ring.zero()))
        forms = [f for f in forms if is_linear_form(f)]
        d = linear_span_dim(forms, ring)
        assert d <= min(len(forms), ring.arity)
        shuffled = forms[:]
        rng.shuffle(shuffled)
        assert linear_span_dim(shuffled, ring) == d


def test_span_residual_decomposition():
    ring = Ring(("a", "b", "h"))
    span = LinearSpan(ring, [ring.variable("a"), ring.variable("b")])
    form = parse(ring, "a + 2*b + 3*h")
    resid = span.residual(form)
    proj = form - resid
    assert proj + resid == form
    assert span.contains(proj)
    assert resid == parse(ring, "3*h")
    assert not span.contains(form)
    assert span.contains(parse(ring, "a - 5*b"))


def test_a_span_refuses_a_form_that_is_not_linear():
    ring = Ring(("x", "y"))
    square = parse(ring, "x^2")
    with pytest.raises(ScrollstciError, match=r"^not a linear form: x\^2$"):
        LinearSpan(ring, [square])
    span = LinearSpan(ring, [ring.variable("x")])
    with pytest.raises(ScrollstciError, match=r"^not a linear form: x\^2$"):
        span.residual(square)


def test_proportional():
    ring = Ring(("a", "b"))
    f = parse(ring, "2*a + 4*b")
    g = parse(ring, "a + 2*b")
    assert proportional(f, g) == 2
    assert proportional(g, parse(ring, "a + b")) is None


def test_every_linear_form_is_built_from_the_same_unit_monomials():
    # a variable, and a form written in ascending variable order, come out of
    # every builder with the same terms in the same order
    ring = Ring(("a", "b", "c", "d"), Fp(7))
    span = LinearSpan(ring, [])
    for i, name in enumerate(ring.variables):
        unit = [0] * ring.arity
        unit[i] = 1
        for p in (ring.variable(name), parse(ring, name), span.residual(parse(ring, name)),
                  linear_form(ring, unit)):
            assert list(p._terms.items()) == [(tuple(unit), 1)]
    form = parse(ring, "3*a + b - 2*d")
    for p in (span.residual(form), linear_form(ring, [3, 1, 0, -2])):
        assert list(p._terms.items()) == list(form._terms.items()) == \
            [((1, 0, 0, 0), 3), ((0, 1, 0, 0), 1), ((0, 0, 0, 1), 5)]


# --- canonical scalars ------------------------------------------------------------

def test_field_identity_ignores_the_chosen_operations():
    assert FieldSpec("Fp", 7) == Fp(7) and FieldSpec("QQ") == QQ
    assert hash(Fp(7)) == hash(("Fp", 7)) and hash(QQ) == hash(("QQ", None))
    assert repr(Fp(7)) == "FieldSpec(kind='Fp', p=7)"
    assert repr(QQ) == "FieldSpec(kind='QQ', p=None)"


@st.composite
def field_and_polys(draw):
    """A field, its ring on x, y, z, a fixed text to parse and three polynomials
    whose coefficients are non-integral rationals over QQ and ints over F_p."""
    field = draw(st.sampled_from([QQ, Fp(2), Fp(7), Fp(101)]))
    ring = Ring(("x", "y", "z"), field)
    coeffs = (st.fractions(min_value=-4, max_value=4, max_denominator=4)
              if field == QQ else st.integers(-10, 10))
    polys = [Polynomial(ring, draw(st.dictionaries(small_monos, coeffs, max_size=3)))
             for _ in range(3)]
    text = "x - y + 1" if field == Fp(2) else "1/2*x - 2/3*y + 3/4*z^2 - 1/2*z^2"
    return ring, text, polys


@settings(max_examples=60, deadline=None)
@given(field_and_polys(), st.integers(0, 3))
def test_every_coefficient_is_in_canonical_form(case, n):
    # QQ: an int, or a Fraction whose denominator is not 1; F_p: an int in [0, p)
    ring, text, (p, q, r) = case
    parsed = parse(ring, text)
    results = [parsed, parse(ring, format_poly(p)), p + q, p - q, p * q, (p - parsed) ** n,
               -r, 2 * p, p * Fraction(1, 3)]
    with time_limit(20):
        ideal = IdealHandle(ring, [p, parsed])
        results += list(ideal.groebner_basis()) + [ideal.normal_form(q * r + parsed)]
        results += list(IdealHandle(ring, [p, q]).groebner_basis(LEX))
    forms = [linear_form(ring, [c, 2 * c, -c]) for c in (1, 3)]
    forms += [f for f in (parsed, p, q) if is_linear_form(f)]
    span = LinearSpan(ring, forms)
    results += [span.residual(f) for f in forms]
    for f in results:
        assert_canonical((c for _, c in f.items()), ring.field)
    for row in span._rows.values():
        assert_canonical(row.values(), ring.field)
