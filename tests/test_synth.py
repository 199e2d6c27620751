"""Generator synthesis: tilde complements, tableau rows, oracle certificates."""

import random

import pytest

from scrollstci import fixtures
from scrollstci.linjoin import ComponentSpec, TwoLinearSpec, intersection_ideal, projdim
from scrollstci.oracle import IdealHandle, ideal_member, radical_member
from scrollstci.poly import LinearSpan, Ring, linear_span_dim, parse
from scrollstci.scroll import ScrollBlock, ScrollMatrix
from scrollstci.synth import (
    SynthesisError,
    synthesize,
    tableau_generators,
    tilde_decompose,
    verify_generator_list,
)


def spans_equal(ring, forms_a, forms_b):
    a, b = list(forms_a), list(forms_b)
    da, db = linear_span_dim(a, ring), linear_span_dim(b, ring)
    return da == db == linear_span_dim(a + b, ring)


@pytest.fixture(scope="module")
def curve1():
    return fixtures.first_curve_spec()


@pytest.fixture(scope="module")
def curve2():
    return fixtures.second_curve_spec()


# --- tilde decomposition ----------------------------------------------------------

def test_no_scroll_means_identity_decomposition():
    spec = fixtures.coordinate_lines_spec()
    tilde = tilde_decompose(spec)
    assert tilde.tilde_p[1] == spec.p(2)
    assert tilde.tilde_delta[1] == spec.delta(2)
    assert tilde.inner_spans == ((), ())


def test_second_curve_tilde_data(curve2):
    ring = curve2.ring
    tilde = tilde_decompose(curve2)
    assert tilde.inner_spans[1] == (ring.variable("c"),)
    assert spans_equal(ring, tilde.tilde_delta[1], [ring.variable("x")])
    assert spans_equal(ring, tilde.tilde_p[2],
                       [ring.variable("x"), parse(ring, "z - u")])
    assert spans_equal(ring, tilde.tilde_p[3],
                       [ring.variable("x"), parse(ring, "y - u"), ring.variable("a")])


def test_first_curve_tilde_data(curve1):
    ring = curve1.ring
    tilde = tilde_decompose(curve1)
    assert tilde.inner_spans[0] == (ring.variable("w"),)
    assert spans_equal(ring, tilde.tilde_p[1],
                       [ring.variable("y"), ring.variable("z"), ring.variable("v")])
    for j in (2, 3, 4):
        assert tilde.tilde_delta[j - 1] == curve1.delta(j)
    # the kept corner of the block is v, and it sits in every tildeP
    for j in (2, 3, 4):
        assert LinearSpan(ring, tilde.tilde_p[j - 1]).contains(ring.variable("v"))


def test_dimension_identities(curve1, curve2):
    for spec in (curve1, curve2):
        tilde = tilde_decompose(spec)
        cs = [0] * spec.l
        for i in range(1, spec.l + 1):
            scroll = spec.component(i).scroll
            if scroll is not None and scroll.ncols >= 2:
                cs[i - 1] = scroll.blocks[0].c
        for j in range(2, spec.l + 1):
            dim_p = linear_span_dim(spec.p(j), spec.ring)
            dim_d = linear_span_dim(spec.delta(j), spec.ring)
            assert len(tilde.tilde_p[j - 1]) == dim_p - sum(cs[: j - 1])
            assert len(tilde.tilde_delta[j - 1]) == dim_d - cs[j - 1]


def test_tilde_delta_corner_from_row_two():
    # only row 2 (x1, x2) of the block lies in Delta_2, so the kept corner is x2
    ring = Ring(("x0", "x1", "x2", "y"))
    x0, x1, x2, y = (ring.variable(v) for v in ring.variables)
    spec = TwoLinearSpec(ring, (
        ComponentSpec(),
        ComponentSpec(scroll=ScrollMatrix((ScrollBlock((x0, x1, x2)),)),
                      delta=(x1, x2), p_forms=(y,)),
    ))
    tilde = tilde_decompose(spec)
    assert tilde.inner_spans[1] == (x1,)
    assert tilde.tilde_delta[1] == (x2,)


def test_tilde_refuses_missing_row():
    spec = fixtures.square_block_spec()
    with pytest.raises(SynthesisError):
        tilde_decompose(spec)


# --- tableau rows -------------------------------------------------------------------

def test_two_lines_single_row():
    tilde = tilde_decompose(fixtures.coordinate_lines_spec())
    rows = tableau_generators(tilde)
    ring = tilde.spec.ring
    assert rows == [parse(ring, "x*y")]


def test_second_curve_tableau_rows(curve2):
    ring = curve2.ring
    rows = tableau_generators(tilde_decompose(curve2))
    expect = [
        "b*x",
        "b*a + a*x",
        "b*(y - u) + a*(z - u) + x*y",
        "x*z",
    ]
    assert rows == [parse(ring, t) for t in expect]


def test_first_curve_tableau_rows(curve1):
    ring = curve1.ring
    rows = tableau_generators(tilde_decompose(curve1))
    expect = [
        "c*b",
        "c*a + a*b",
        "c*y + a*x + b*(x - u)",
        "c*z + a*(z - u) + b*(y - u)",
        "c*v + a*v + b*v",
    ]
    assert rows == [parse(ring, t) for t in expect]


def test_rows_are_quadratic(curve1, curve2):
    for spec in (curve1, curve2):
        for row in tableau_generators(tilde_decompose(spec)):
            assert row.is_homogeneous() and row.degree() == 2


# --- synthesize -------------------------------------------------------------------------

def test_synthesize_two_lines():
    cert = synthesize(fixtures.coordinate_lines_spec())
    assert cert.count == cert.projdim == 1
    assert cert.verified is True
    assert [str(g) for g in cert.generators] == ["x*y"]


def test_synthesize_second_curve(curve2):
    cert = synthesize(curve2)
    assert cert.count == cert.projdim == 5
    assert cert.verified is True
    assert cert.generators[0] == parse(curve2.ring, "x*(x - u) - c^2")
    assert cert.provenance[0] == ("verdi", 2, 1)
    assert [p[0] for p in cert.provenance] == ["verdi"] + ["tableau_row"] * 4


def test_synthesize_first_curve(curve1):
    cert = synthesize(curve1)
    assert cert.count == cert.projdim == 6
    assert cert.verified is True
    assert cert.generators[0] == parse(curve1.ring, "u*v - w^2")


def test_every_synthesized_generator_is_a_plain_member(curve2):
    inter = intersection_ideal(curve2)
    cert = synthesize(curve2, verify=False)
    for g in cert.generators:
        assert ideal_member(g, inter)


def test_synthesize_refuses_multi_block():
    with pytest.raises(SynthesisError) as err:
        synthesize(fixtures.qprime_spec())
    assert "verify_generator_list" in str(err.value)


def test_synthesize_skip_verification(curve2):
    cert = synthesize(curve2, verify=False)
    assert cert.verified is None and cert.count == 5


def test_certificate_json(curve2):
    doc = synthesize(curve2).to_json()
    assert doc["verified"] is True
    assert doc["count"] == doc["projdim"] == 5
    assert len(doc["generators"]) == 5
    assert doc["provenance"][0] == ["verdi", 2, 1]


def test_fiber_shape_synthesis():
    spec = fixtures.fiber_shaped_spec()
    cert = synthesize(spec)
    assert cert.verified is True
    assert cert.count <= cert.projdim


# --- basis-order robustness ---------------------------------------------------------------

def _with_tilde_p_order(spec, orders):
    comps = []
    for i, comp in enumerate(spec.components, start=1):
        override = orders.get(i)
        comps.append(ComponentSpec(
            scroll=comp.scroll, delta=comp.delta, p_forms=comp.p_forms,
            tilde_delta=comp.tilde_delta,
            tilde_p=tuple(override) if override is not None else comp.tilde_p,
        ))
    return TwoLinearSpec(spec.ring, tuple(comps))


def test_tableau_verdict_invariant_under_listed_basis_permutation(curve1):
    # permuting the listed bases re-sorts through the alignment rule: the
    # generator text can move, the verdict cannot
    rng = random.Random(41)
    inter = intersection_ideal(curve1)
    for _ in range(3):
        comps = []
        for comp in curve1.components:
            p = list(comp.p_forms)
            rng.shuffle(p)
            comps.append(ComponentSpec(scroll=comp.scroll, delta=comp.delta,
                                       p_forms=tuple(p)))
        shuffled = TwoLinearSpec(curve1.ring, tuple(comps))
        cert = synthesize(shuffled, intersection=inter)
        assert cert.count == 6 and cert.verified is True


def test_misaligned_override_reports_false_verdict(curve2):
    # breaking the anti-diagonal alignment loses radical generation; the
    # certificate carries the negative verdict instead of raising
    ring = curve2.ring
    bad = _with_tilde_p_order(curve2, {
        4: (parse(ring, "y - u"), ring.variable("a"), ring.variable("x")),
    })
    cert = synthesize(bad)
    assert cert.verified is False


def test_override_validation():
    spec = fixtures.second_curve_spec()
    ring = spec.ring
    # dropping the corner x from tildeP_3 must be rejected
    bad = _with_tilde_p_order(spec, {3: (parse(ring, "z - u"),)})
    with pytest.raises(SynthesisError):
        tilde_decompose(bad)


# --- corner-chain replay --------------------------------------------------------------------

def test_corner_chain_radical_facts():
    # inner products are radical-redundant once a corner product is present
    ring = Ring(("x0", "x1", "x2", "x3", "g"))
    block_gens = [parse(ring, t) for t in
                  ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")]
    g = ring.variable("g")
    corner = parse(ring, "x0") * g
    I = IdealHandle(ring, block_gens + [corner])
    for inner in ("x1", "x2"):
        cert = radical_member(ring.variable(inner) * g, I)
        assert cert.member and cert.witness_k is not None


# --- hand-supplied lists ----------------------------------------------------------------------

def test_qprime_list_verifies():
    spec = fixtures.qprime_spec()
    assert verify_generator_list(fixtures.qprime_generators(), spec)


def test_qprime_exact_identities():
    ring = fixtures.QPRIME_RING
    a, b, c, d, e, f, g = (ring.variable(v) for v in "abcdefg")
    F = a * d - b * c
    q1 = a * F + b * e
    qp1, qp2, qp3 = fixtures.qprime_generators()
    assert (d * qp1 - b * qp3 - q1 * q1).is_zero()
    assert (d * q1 - b * qp2 - (F * F - b * f * g)).is_zero()


def test_dropping_any_qprime_generator_fails():
    spec = fixtures.qprime_spec()
    inter = intersection_ideal(spec)
    gens = fixtures.qprime_generators()
    for i in range(3):
        assert not verify_generator_list(gens[:i] + gens[i + 1:], spec,
                                         intersection=inter)


def test_square_block_list_verifies():
    spec = fixtures.square_block_spec()
    assert verify_generator_list(fixtures.square_block_generators(), spec)


def test_verify_ring_mismatch():
    spec = fixtures.qprime_spec()
    other = Ring(("x", "y"))
    with pytest.raises(Exception):
        verify_generator_list([other.variable("x")], spec)
