"""`poly.LinearSpan` and `poly.proportional` against the dense code they
replaced, and the residual's independence of the list that gave the span.

Both spans must give the same rank, the same membership verdicts and the same
residuals (the same terms in the same order, with the same coefficient
classes), or raise the same exception with the same message; both tests of
proportionality the same scalar, of the same class, or the same None or error.
"""

from hypothesis import given, seed, settings, strategies as st

import reference_span
from scrollstci.poly import (
    QQ,
    Fp,
    LinearSpan,
    Polynomial,
    Ring,
    RingMismatchError,
    ScrollstciError,
    is_linear_form,
    linear_form,
    parse,
    proportional,
)

FIELDS = [QQ, Fp(2), Fp(5)]
NAMES = ("a", "b", "c", "d", "e")
RINGS = {field: Ring(NAMES, field) for field in FIELDS}
# a ring over another field, or with other variables: its forms are refused
OTHER_RINGS = {QQ: Ring(NAMES, Fp(5)), Fp(2): Ring(NAMES, QQ),
               Fp(5): Ring(("a", "b", "c", "d", "x"), Fp(5))}
NOT_LINEAR = ("a^2", "a + 1", "1", "a*b - c")


def scalars(field):
    # over F_p the ints include multiples of p, so some coefficients vanish
    if field == QQ:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(-6, 6)


@st.composite
def forms(draw, ring):
    coeffs = draw(st.dictionaries(st.integers(0, ring.arity - 1), scalars(ring.field),
                                  max_size=3))
    return linear_form(ring, [coeffs.get(i, 0) for i in range(ring.arity)])


@st.composite
def padded(draw, ring, base):
    """``base`` with zero forms, duplicates and linear combinations added, shuffled."""
    extra = []
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "combination"]),
                              max_size=3)):
        if kind == "zero" or not base:
            extra.append(ring.zero())
        elif kind == "duplicate":
            extra.append(draw(st.sampled_from(base)))
        else:
            f, g = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            extra.append(f * draw(scalars(ring.field)) + g * draw(scalars(ring.field)))
    return draw(st.permutations(base + extra))


@st.composite
def bad_or_good(draw, ring):
    """A linear form of ``ring``, a polynomial of ``ring`` that is not a linear
    form, or either of these in the other ring."""
    target = draw(st.sampled_from([ring, OTHER_RINGS[ring.field]]))
    if draw(st.booleans()):
        return draw(forms(target))
    return parse(target, draw(st.sampled_from(NOT_LINEAR)))


def outcome(step):
    """A residual's terms in order with their coefficient classes, any other
    value with its class, or the exception's class and message."""
    try:
        value = step()
    except Exception as exc:  # the outcome compared is the exception itself
        return "raised", type(exc), str(exc)
    if isinstance(value, Polynomial):
        return "residual", [(m, c, type(c)) for m, c in value._terms.items()]
    return "value", value, type(value)


def steps(span_class, ring, span_forms, queries):
    """Every outcome in turn: the build, the rank, then each query's residual and verdict."""
    try:
        span = span_class(ring, span_forms)
    except Exception as exc:
        return [("raised", type(exc), str(exc))]
    out = [span.dim, outcome(lambda: span.contains_all(queries))]
    for q in queries:
        out += [outcome(lambda: span.residual(q)), outcome(lambda: span.contains(q))]
    return out


def assert_same(ring, span_forms, queries):
    assert steps(LinearSpan, ring, span_forms, queries) == \
        steps(reference_span.LinearSpan, ring, span_forms, queries)


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(FIELDS), st.data())
def test_a_span_of_forms_matches_the_dense_span(field, data):
    ring = RINGS[field]
    base = data.draw(st.lists(forms(ring), max_size=6))
    span_forms = data.draw(padded(ring, base))
    members = st.sampled_from(span_forms or [ring.zero()])
    queries = data.draw(st.lists(st.one_of(forms(ring), members), max_size=5))
    assert_same(ring, span_forms, queries)


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(FIELDS), st.data())
def test_bad_forms_raise_as_in_the_dense_span(field, data):
    # every ring check runs before any linearity check, in the span and in each query
    ring = RINGS[field]
    span_forms = data.draw(st.lists(bad_or_good(ring), min_size=1, max_size=4))
    queries = data.draw(st.lists(bad_or_good(ring), max_size=4))
    assert_same(ring, span_forms, queries)
    # and each query against a span that builds
    assert_same(ring, [f for f in span_forms if f.ring == ring and is_linear_form(f)], queries)


def test_a_form_of_another_ring_is_refused_before_a_form_that_is_not_linear():
    ring = RINGS[QQ]
    mixed = [parse(ring, "a^2"), OTHER_RINGS[QQ].variable("a")]
    refused = [("raised", RingMismatchError, "span forms must live in the given ring")]
    assert steps(LinearSpan, ring, mixed, []) == refused == \
        steps(reference_span.LinearSpan, ring, mixed, [])


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(FIELDS), st.data())
def test_a_residual_depends_only_on_the_span(field, data):
    ring = RINGS[field]
    base = data.draw(st.lists(forms(ring), max_size=6))
    span, padded_span = LinearSpan(ring, base), LinearSpan(ring, data.draw(padded(ring, base)))
    queries = base + data.draw(st.lists(forms(ring), min_size=1, max_size=4))
    assert padded_span.dim == span.dim
    for q in queries:
        residual = outcome(lambda: span.residual(q))
        assert outcome(lambda: padded_span.residual(q)) == residual
        for s in (span, padded_span):
            assert s.contains(q) == s.residual(q).is_zero()
            assert s.contains(q - s.residual(q))
    assert span.contains_all(base) and padded_span.contains_all(base)


PROPORTIONAL_RINGS = [Ring(NAMES, QQ), Ring(NAMES, Fp(7))]


@st.composite
def proportional_pairs(draw, ring):
    """(f, g): g a linear form, zero or not, or a polynomial that is not one; f
    a multiple of g, zero, another form or a polynomial that is not linear."""
    def form_or_not():
        if draw(st.integers(0, 4)) == 0:
            return parse(ring, draw(st.sampled_from(NOT_LINEAR)))
        return draw(forms(ring))

    g = form_or_not()
    kind = draw(st.sampled_from(["multiple", "multiple", "zero", "other"]))
    if kind == "zero":
        return ring.zero(), g
    if kind == "multiple" and is_linear_form(g):
        f = g * draw(scalars(ring.field))
        # spoil one coefficient now and then: same support, no longer a multiple
        if draw(st.booleans()):
            f = f + draw(forms(ring))
        return f, g
    return form_or_not(), g


@seed(20261020)
@settings(max_examples=600, deadline=None, database=None)
@given(st.sampled_from(PROPORTIONAL_RINGS), st.data())
def test_proportional_matches_the_dense_test(ring, data):
    f, g = data.draw(proportional_pairs(ring))
    assert outcome(lambda: proportional(f, g)) == \
        outcome(lambda: reference_span.proportional(f, g))


def test_proportional_checks_in_the_dense_order():
    # the ring first, then a zero g answers None before any form is read, then
    # f is read before g
    ring = PROPORTIONAL_RINGS[0]
    square, cube = parse(ring, "a^2"), parse(ring, "b^3")
    cases = [(square, OTHER_RINGS[QQ].variable("a")), (square, ring.zero()),
             (square, cube), (ring.zero(), cube), (ring.variable("a"), cube)]
    got = [outcome(lambda: proportional(f, g)) for f, g in cases]
    assert got == [outcome(lambda: reference_span.proportional(f, g)) for f, g in cases]
    assert [o[:2] for o in got] == [
        ("raised", RingMismatchError), ("value", None),
        ("raised", ScrollstciError), ("raised", ScrollstciError),
        ("raised", ScrollstciError)]
    assert [o[2] for o in got[2:]] == ["not a linear form: a^2", "not a linear form: b^3",
                                       "not a linear form: b^3"]
