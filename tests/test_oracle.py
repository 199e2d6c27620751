"""Certification engine: Groebner bases and the derived ideal predicates."""

import random
import sys
import threading
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import reference_chain
import tuple_kernel
from scrollstci import oracle
from scrollstci.linjoin import TwoLinearSpec
from scrollstci.oracle import (
    IdealHandle,
    OracleTimeout,
    _dimension,
    _extend,
    _hilbert_numerator,
    _monic,
    _rabinowitsch_contains,
    _radical_chain,
    certify_intersection,
    eliminate,
    ideal_member,
    intersect,
    intersect_many,
    radical_equal,
    radical_member,
    saturate,
    time_limit,
)
from scrollstci.poly import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    QQ,
    Fp,
    Polynomial,
    Ring,
    RingMismatchError,
    ScrollstciError,
    block_order,
    mono_divides,
    parse,
    transport,
)
from scrollstci.scroll import ScrollBlock, minors_2x2, verdi_generators
from scrollstci.synth import synthesize

from conftest import assert_canonical

R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))


def ideal(ring, *texts):
    return IdealHandle(ring, [parse(ring, t) for t in texts])


# --- groebner_basis -----------------------------------------------------------

def test_linear_elimination():
    gb = ideal(R2, "x - y", "x + y").groebner_basis()
    assert set(gb) == {parse(R2, "x"), parse(R2, "y")}


def test_monomial_ideal_already_reduced():
    gb = ideal(R2, "x^2", "x*y", "y^2").groebner_basis()
    assert set(gb) == {parse(R2, "x^2"), parse(R2, "x*y"), parse(R2, "y^2")}


def test_twisted_cubic_graph_lex():
    # the single S-pair reduces to zero, frozen by running Buchberger by hand
    ring = Ring(("z", "y", "x"))
    gb = ideal(ring, "y - x^2", "z - x^3").groebner_basis(LEX)
    assert set(gb) == {parse(ring, "y - x^2"), parse(ring, "z - x^3")}


def test_empty_ideal():
    assert IdealHandle(R2, []).groebner_basis() == ()


def test_unit_ideal():
    gb = ideal(R2, "x", "x + 1").groebner_basis()
    assert gb == (R2.one(),)


def test_basis_stable_under_permutation_and_recomputation():
    gens = ["x^2 - y", "x*y - 1", "y^2 - x"]
    rng = random.Random(3)
    reference = ideal(R2, *gens).groebner_basis()
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert ideal(R2, *shuffled).groebner_basis() == reference
    assert ideal(R2, *gens).groebner_basis() == reference


def test_basis_is_reduced():
    # no term of any element divisible by another leading monomial; monic leads
    I = ideal(R3, "x^2 + y^2 + z^2", "x*y - z^2", "y*z + x^2")
    gb = I.groebner_basis()
    leads = [g.leading_monomial() for g in gb]
    for g in gb:
        assert dict(g.items())[g.leading_monomial()] == 1
        others = [m for m in leads if m != g.leading_monomial()]
        for mono in g.monomials():
            assert not any(all(a <= b for a, b in zip(lead, mono)) for lead in others)


def test_spolys_reduce_to_zero():
    I = ideal(R3, "x*y - z", "y*z - x", "x*z - y")
    gb = I.groebner_basis()
    for i, f in enumerate(gb):
        for g in gb[i + 1:]:
            mf, mg = f.leading_monomial(), g.leading_monomial()
            lcm = tuple(max(a, b) for a, b in zip(mf, mg))
            sf = R3.monomial(tuple(a - b for a, b in zip(lcm, mf)))
            sg = R3.monomial(tuple(a - b for a, b in zip(lcm, mg)))
            s = sf * f - sg * g
            assert I.normal_form(s).is_zero()


# --- normal_form / membership ----------------------------------------------------

def test_normal_form_examples():
    I = ideal(R2, "x")
    assert I.normal_form(parse(R2, "x^2")).is_zero()
    assert I.normal_form(parse(R2, "x^2 + y")) == parse(R2, "y")


def test_normal_form_idempotent():
    I = ideal(R3, "x^2 - y", "y*z - 1")
    f = parse(R3, "x^4*z + x*y + z^2")
    nf = I.normal_form(f)
    assert I.normal_form(nf) == nf


def test_generic_minor_membership():
    ring = Ring(("a", "b", "c", "d"))
    I = ideal(ring, "a*d - b*c")
    assert ideal_member(parse(ring, "a*d - b*c"), I)


def test_membership_examples():
    I = ideal(R2, "x")
    assert ideal_member(parse(R2, "x^2*y"), I)
    assert not ideal_member(parse(R2, "y"), I)


def test_member_iff_normal_form_zero():
    I = ideal(R3, "x*y - z^2", "y^2 - x*z")
    rng = random.Random(5)
    monos = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
             if i + j + k <= 3]
    for _ in range(40):
        f = sum((rng.randint(-2, 2) * R3.monomial(rng.choice(monos)) for _ in range(3)),
                R3.zero())
        assert ideal_member(f, I) == I.normal_form(f).is_zero()


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        ideal_member(parse(R3, "x"), ideal(R2, "x"))
    for f in (parse(R3, "x"), R3.zero()):
        with pytest.raises(RingMismatchError):
            radical_member(f, ideal(R2, "x"))
    with pytest.raises(RingMismatchError):
        radical_equal(ideal(R3, "x"), ideal(R2, "x"))


def test_the_oracle_refuses_malformed_calls():
    with pytest.raises(ScrollstciError, match="parse first"):
        IdealHandle(R2, ["x"])
    with pytest.raises(ScrollstciError, match="cannot eliminate unknown variable 'w'"):
        eliminate(ideal(R2, "x*y"), ["w"])
    with pytest.raises(RingMismatchError, match="polynomial lives in a different ring"):
        saturate(ideal(R2, "x*y"), parse(R3, "x"))
    with pytest.raises(RingMismatchError, match="ideals live in different rings"):
        intersect(ideal(R2, "x"), ideal(R3, "x"))
    with pytest.raises(ScrollstciError, match="cannot intersect an empty list of ideals"):
        intersect_many([])


def test_a_block_order_wider_than_the_ring_is_refused():
    I = ideal(R3, "x^2 - y", "y*z - x")
    message = "^block prefix 4 exceeds the ring's 3 variables$"
    with pytest.raises(ScrollstciError, match=message):
        I.groebner_basis(block_order(4))
    with pytest.raises(ScrollstciError, match=message):
        I.normal_form(parse(R3, "x*z"), block_order(4))
    assert I.groebner_basis(block_order(3)) == I.groebner_basis(LEX)


def test_eliminate_no_variables_keeps_the_ideal():
    I = ideal(R2, "x*y", "x^2 - y")
    out = eliminate(I, [])
    assert out.ring == I.ring and out.generators == I.generators


# --- radical membership -------------------------------------------------------------

def test_radical_member_square():
    I = ideal(R2, "x^2")
    cert = radical_member(parse(R2, "x"), I)
    assert cert.member and cert.witness_k == 2
    # the witness is machine-checkable by normal form
    assert I.normal_form(parse(R2, "x") ** cert.witness_k).is_zero()


def test_radical_member_of_zero_is_the_first_link():
    for I in (ideal(R2, "x^2"), IdealHandle(R2, [])):
        cert = radical_member(R2.zero(), I)
        assert cert.member and cert.witness_k == 1 and not cert.to_json()["rabinowitsch"]


def test_radical_member_negative():
    cert = radical_member(parse(R2, "y"), ideal(R2, "x^2"))
    assert not cert.member


def test_radical_member_corner_chain():
    ring = Ring(("x0", "x1", "x2", "g"))
    I = ideal(ring, "x0*x2 - x1^2", "x0*g")
    cert = radical_member(parse(ring, "x1*g"), I)
    assert cert.member and cert.witness_k == 2


def test_radical_member_agrees_with_power_oracle():
    rng = random.Random(13)
    monos = [(i, j) for i in range(3) for j in range(3) if 0 < i + j <= 2]
    for _ in range(30):
        gens = [sum((rng.randint(-2, 2) * R2.monomial(rng.choice(monos)) for _ in range(2)),
                    R2.zero()) for _ in range(2)]
        I = IdealHandle(R2, [g for g in gens if not g.is_zero()])
        f = rng.randint(-2, 2) * R2.monomial(rng.choice(monos))
        if f.is_zero():
            continue
        cert = radical_member(f, I)
        power_true = False
        p = f
        for k in range(1, 7):
            if I.contains(p):
                power_true = True
                break
            p = p * f
        if power_true:
            assert cert.member and cert.witness_k is not None and cert.witness_k <= k
        elif cert.member:
            # verdict from the Rabinowitsch device; a witness exists beyond the
            # search bound -- extend the search and log it
            p = f
            found = None
            for k in range(1, 40):
                if I.contains(p):
                    found = k
                    break
                p = p * f
            print(f"extended witness search for {f}: k = {found}")
            assert found is not None


def test_witness_decoration_at_the_fixed_bound():
    # x in rad(x^5): the witness 5 lies within the fixed bound of 8
    five = radical_member(parse(R2, "x"), ideal(R2, "x^5"))
    assert five.member and five.witness_k == 5 and not five.to_json()["rabinowitsch"]
    # x in rad(x^9): no power up to the bound closes, so Rabinowitsch decides
    nine = radical_member(parse(R2, "x"), ideal(R2, "x^9"))
    assert nine.member and nine.witness_k is None and nine.to_json()["rabinowitsch"]


# --- radical chain -----------------------------------------------------------------

def random_poly(rng, ring, monos, terms):
    return sum((rng.randint(-2, 2) * ring.monomial(rng.choice(monos)) for _ in range(terms)),
               ring.zero())


def chain_cases(field, seed, count):
    """Seeded (generators, ideal) pairs in 3 variables, many of them positive.

    The ideal is built from powers and products of random polynomials p, q,
    so p and q lie in its radical; further random generators are mostly not.
    """
    ring = Ring(("x", "y", "z"), field)
    rng = random.Random(seed)
    monos = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
             if 0 < i + j + k <= 2]
    for _ in range(count):
        p, q, r = (random_poly(rng, ring, monos, 2) for _ in range(3))
        gens = [g for g in (p ** rng.randint(2, 3), q ** 2 + p * r, q * r ** 2) if not g.is_zero()]
        I = IdealHandle(ring, gens)
        candidates = [p, q] + [random_poly(rng, ring, monos, 2) for _ in range(rng.randint(0, 1))]
        rng.shuffle(candidates)
        yield [g for g in candidates if not g.is_zero()], I


def replay(links, I):
    """Check every link against I + (earlier links) by plain normal forms."""
    for j, (g, k) in enumerate(links):
        H = IdealHandle(I.ring, list(I.generators) + [h for h, _ in links[:j]])
        if k == "Rabinowitsch":
            assert _rabinowitsch_contains(H, g)
        else:
            assert H.contains(g ** k)


@pytest.mark.parametrize("field,seed", [(QQ, 31), (Fp(7), 37)])
def test_radical_chain_agrees_with_rabinowitsch(field, seed):
    positives = 0
    for gens, I in chain_cases(field, seed, 25):
        links = _radical_chain(gens, I)
        assert (links is not None) == all(_rabinowitsch_contains(I, g) for g in gens)
        if links is not None:
            positives += 1
            assert sorted(map(str, (g for g, _ in links))) == sorted(map(str, gens))
            replay(links, I)
    assert positives >= 5


def test_radical_chain_replays_verdi_width_4():
    ring = Ring(tuple(f"x{i}" for i in range(6)))
    block = ScrollBlock(tuple(ring.variable(v) for v in ring.variables))
    F = IdealHandle(ring, verdi_generators(block))
    links = _radical_chain(minors_2x2(block), F)
    assert links is not None and len(links) == 10
    assert max(k for _, k in links) > 1
    replay(links, F)


def _verdi_cases(field):
    """Verdi's generators F and the minors M of one block, c = 2..9, with
    variables as entries and with two entries changed to linear forms; each
    as the pair (M into F) and the pair (F into M)."""
    for changed in (False, True):
        for c in range(2, 10):
            ring = Ring(tuple(f"x{i}" for i in range(c + 2)), field)
            entries = [ring.variable(v) for v in ring.variables]
            if changed:
                entries[0] += 2 * entries[1]
                entries[2] -= 3 * entries[3]
            block = ScrollBlock(tuple(entries))
            F, M = verdi_generators(block), minors_2x2(block)
            yield M, IdealHandle(ring, F)
            yield F, IdealHandle(ring, M)


def _ci_chain_cases():
    """The ideals of the CLI smoke in CI: x^1200 against its radical, and
    t^9*x, whose chain needs Rabinowitsch, both ways; x and x + y into x^9."""
    high, low = ideal(R3, "x^1200*y", "x^1200*z"), ideal(R3, "x*y", "x*z")
    ring = Ring(("t", "t0", "x"))
    t9x, tx = ideal(ring, "t^9*x"), ideal(ring, "t*x")
    for I, J in product((high, low), repeat=2):
        yield I.generators, J
    yield t9x.generators, tx
    yield tx.generators, t9x
    for f in ("x", "x + y"):
        yield [parse(R2, f)], ideal(R2, "x^9")


@pytest.mark.parametrize("field", [QQ, Fp(7)], ids=str)
def test_the_packed_chain_gives_the_links_of_the_tuple_chain(field):
    cases = list(_verdi_cases(field)) + list(chain_cases(field, 41, 25))
    if field == QQ:
        cases += list(_ci_chain_cases())
    kinds = set()
    with time_limit(120):
        for gens, I in cases:
            links = _radical_chain(gens, I)
            assert links == reference_chain.radical_chain(gens, IdealHandle(I.ring, I.generators))
            kinds |= {"none"} if links is None else {str(k) for _, k in links}
    assert {"none", "1", "2", "Rabinowitsch"} <= kinds


def test_verdi_width_9_closes_one_link_by_rabinowitsch():
    # the chain of the minors into Verdi's ideal at c = 9, as CI runs it through `radeq`
    ring = Ring(tuple(f"x{i}" for i in range(11)))
    block = ScrollBlock(tuple(ring.variable(v) for v in ring.variables))
    links = _radical_chain(minors_2x2(block), IdealHandle(ring, verdi_generators(block)))
    assert len(links) == 45 and [k for _, k in links].count("Rabinowitsch") == 1


def test_extend_matches_fresh_basis():
    for field in (QQ, Fp(7)):
        ring = Ring(R3.variables, field)
        for gens, more in ((("x^2 - y*z", "y^3"), ("x*y - z^2", "z^3 + x")),
                           # seeds of lower degree than the basis
                           (("x^3 - y^2*z", "y^4 - x*z^3"), ("x - 2*y", "z^2 + x"))):
            grown = _extend(ideal(ring, *gens), [parse(ring, g) for g in more])
            assert grown.groebner_basis() == ideal(ring, *gens, *more).groebner_basis()


def test_extend_by_high_degree_polynomials_repacks_the_cached_basis_wider():
    gens = ("x - y", "y*z - z^2")
    I = ideal(R3, *gens)
    more = ("x^200 - z^3", "y^130*z - x")
    with time_limit(60):  # a basis read at the wrong width may not end
        grown = _extend(I, [parse(R3, g) for g in more])
    assert grown.groebner_basis() == ideal(R3, *gens, *more).groebner_basis()
    assert I._packed_basis(DEGREVLEX)[0].bits == 8
    assert grown._packed_basis(DEGREVLEX)[0].bits > 8
    # a wider run gets its own copy of the entry packed that wide, and only
    # the order's own entry is kept
    (q, first), (_, second) = (I._against(DEGREVLEX, [{(200, 0, 0): 1}], lambda q, r: r)
                               for _ in range(2))
    assert q.bits == 16 and first == second and first is not second
    assert set(I._bases) == {DEGREVLEX}


def test_rabinowitsch_of_a_high_degree_polynomial_repacks_the_cached_basis_wider():
    I = ideal(R3, "x^2", "y^3 - z^3")
    with time_limit(60):
        assert _rabinowitsch_contains(I, parse(R3, "x^200 + x*y"))
        assert _rabinowitsch_contains(I, parse(R3, "y^150 - z^150"))
        assert not _rabinowitsch_contains(I, parse(R3, "y^200"))
    assert I._packed_basis(DEGREVLEX)[0].bits == 8


# --- intersection ------------------------------------------------------------------

def test_intersect_coordinate_ideals():
    got = intersect(ideal(R2, "x"), ideal(R2, "y"))
    assert got.groebner_basis() == ideal(R2, "x*y").groebner_basis()


def test_intersect_plane_and_line():
    got = intersect(ideal(R3, "x", "y"), ideal(R3, "z"))
    assert got.groebner_basis() == ideal(R3, "x*z", "y*z").groebner_basis()


def test_membership_characterizes_intersection():
    I = ideal(R3, "x*y - z", "x^2")
    J = ideal(R3, "y", "z - x")
    K = intersect(I, J)
    for g in K.generators:
        assert ideal_member(g, I) and ideal_member(g, J)
    rng = random.Random(17)
    monos = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
             if i + j + k <= 2]
    for _ in range(50):
        f = sum((rng.randint(-2, 2) * R3.monomial(rng.choice(monos)) for _ in range(3)),
                R3.zero())
        assert ideal_member(f, K) == (ideal_member(f, I) and ideal_member(f, J))


def test_intersect_fold_order_irrelevant():
    I = ideal(R3, "x")
    J = ideal(R3, "y")
    K = ideal(R3, "z")
    a = intersect_many([I, J, K]).groebner_basis()
    b = intersect_many([K, I, J]).groebner_basis()
    assert a == b == ideal(R3, "x*y*z").groebner_basis()


# --- Hilbert numerators and the intersection certificate -----------------------------

def _series(numerator, arity, top):
    """Coefficients of T^0..T^top in numerator(T) / (1 - T)^arity."""
    return [sum(c * comb(d - i + arity - 1, arity - 1)
                for i, c in enumerate(numerator) if i <= d)
            for d in range(top + 1)]


def _standard_monomials(gens, arity, top):
    """How many monomials of each degree 0..top no generator divides."""
    return [sum(1 for m in product(range(d + 1), repeat=arity)
                if sum(m) == d and not any(mono_divides(g, m) for g in gens))
            for d in range(top + 1)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 3)] * n), max_size=6)))
def test_hilbert_numerator_counts_the_standard_monomials(gens):
    arity = len(gens[0]) if gens else 3
    numerator = _hilbert_numerator(gens)
    assert not numerator or numerator[-1] != 0
    assert _series(numerator, arity, 6) == _standard_monomials(gens, arity, 6)


def test_hilbert_numerator_of_the_twisted_cubic():
    ring = Ring(("a", "b", "c", "d"))
    block = ScrollBlock(tuple(ring.variable(v) for v in ring.variables))
    basis = IdealHandle(ring, minors_2x2(block)).groebner_basis()
    assert _hilbert_numerator(g.leading_monomial(DEGREVLEX) for g in basis) == (1, 0, -3, 2)
    assert _hilbert_numerator([]) == (1,)
    assert _hilbert_numerator([(0, 0, 0, 0), (1, 0, 0, 0)]) == ()


@pytest.mark.parametrize("a", [1, 1200])
def test_hilbert_numerator_pivots_on_the_least_power_of_the_variable(a):
    # one pivot on x^a, not a pivots on x, so the recursion stays shallow
    assert _hilbert_numerator([(a, 1, 0), (a, 0, 1)]) == (1,) + (0,) * a + (-2, 1)


def test_hilbert_numerator_honours_the_deadline():
    gens = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
    with time_limit(0.0):
        with pytest.raises(OracleTimeout):
            _hilbert_numerator(gens)


def test_hilbert_numerator_is_computed_once_per_handle(monkeypatch):
    calls = []
    real = oracle._hilbert_numerator
    monkeypatch.setattr(oracle, "_hilbert_numerator", lambda m: calls.append(1) or real(m))
    A, B, C = ideal(R3, "x"), ideal(R3, "y", "z"), ideal(R3, "x*y", "x*z")
    assert C.hilbert_numerator() == C.hilbert_numerator() == (1, 0, -2, 1)
    assert len(calls) == 1
    # A and B are computed once each; the bound for C is always read off its
    # generators' leading terms, so C's cached numerator is not consulted,
    # and the bound for A + B is read off the cached bases of A and B
    assert certify_intersection(C, A, B)
    assert len(calls) == 5
    # a second certificate against the same A and B computes only the two bounds
    assert certify_intersection(C, A, B)
    assert len(calls) == 7
    # C's own numerator is still the cached one
    assert not radical_equal(ideal(R3, "x"), C)
    assert len(calls) == 8


def _dimension_by_supports(gens, arity):
    """dim S/(monomials), counted without Hilbert series: the size of the
    largest set of variables that contains no generator's support."""
    supports = [{x for x, e in enumerate(m) if e} for m in gens]
    return max((r for r in range(arity + 1) for chosen in combinations(range(arity), r)
                if not any(s <= set(chosen) for s in supports)), default=-1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(*[st.integers(0, 3)] * n), max_size=6))))
def test_dimension_of_monomial_ideals(case):
    arity, gens = case
    ring = Ring(tuple(f"x{i}" for i in range(arity)))
    I = IdealHandle(ring, [ring.monomial(m) for m in gens])
    assert _dimension(I) == _dimension_by_supports(gens, arity)


def test_dimension_fixed_cases():
    assert _dimension(IdealHandle(R3, [])) == 3
    assert _dimension(ideal(R3, "1")) == -1
    assert _dimension(ideal(R3, "x - 2", "x*y + 1")) == 1
    # inhomogeneous: the degrevlex leading terms carry the affine dimension
    assert _dimension(ideal(R2, "x*y - 1")) == 1
    assert _dimension(ideal(R2, "x - 1", "y - 2")) == 0


def test_certify_intersection_proves_or_refuses():
    assert certify_intersection(ideal(R3, "x*y", "x*z"), ideal(R3, "x"), ideal(R3, "y", "z"))
    # too large: z is not in (x); too small: x*z is missing
    assert not certify_intersection(ideal(R3, "x*y", "x*z", "z"), ideal(R3, "x"),
                                    ideal(R3, "y", "z"))
    assert not certify_intersection(ideal(R3, "x*y"), ideal(R3, "x"), ideal(R3, "y", "z"))
    # too small, with series that first differ in degree 4: x*z^3 is missing
    assert not certify_intersection(ideal(R3, "x*y"), ideal(R3, "x"), ideal(R3, "y", "z^3"))
    # the Hilbert series of (x*y), whose intersection it is not: x*y + y^2 is not in (x)
    assert not certify_intersection(ideal(R3, "x*y + y^2"), ideal(R3, "x"), ideal(R3, "y"))
    # generators that are not a Groebner basis (both lead with x^2) leave the
    # leading-term bound short; the exact bases prove the intersection
    C = ideal(R3, "x^2 + x*y", "x^2 + x*y + x*z")
    assert certify_intersection(C, ideal(R3, "x"), ideal(R3, "x + y", "z"))
    assert C.groebner_basis() == ideal(R3, "x^2 + x*y", "x*z").groebner_basis()
    # (x - 1)*y is the intersection, but the Hilbert series proves nothing
    # for inhomogeneous ideals, so the certificate is refused
    assert intersect(ideal(R2, "x - 1"), ideal(R2, "y")).groebner_basis() == \
        ideal(R2, "x*y - y").groebner_basis()
    assert not certify_intersection(ideal(R2, "x*y - y"), ideal(R2, "x - 1"), ideal(R2, "y"))
    with pytest.raises(RingMismatchError):
        certify_intersection(ideal(R2, "x*y"), ideal(R3, "x"), ideal(R2, "y"))


@pytest.mark.parametrize("c, b, holds", [
    (("x*y", "x*z"), ("y", "z"), True),
    (("x^2 + x*y", "x^2 + x*y + x*z"), ("x + y", "z"), True),  # not a Groebner basis
    (("x*y",), ("y", "z"), False),  # too small
])
def test_certify_intersection_with_a_cached_candidate_basis(c, b, holds):
    # the verdict does not depend on whether C's reduced basis (and its
    # numerator) were computed before the certificate ran, and the certificate
    # leaves that basis as it was
    assert certify_intersection(ideal(R3, *c), ideal(R3, "x"), ideal(R3, *b)) is holds
    C = ideal(R3, *c)
    basis, numerator = C.groebner_basis(), C.hilbert_numerator()
    assert certify_intersection(C, ideal(R3, "x"), ideal(R3, *b)) is holds
    assert C.groebner_basis() == basis
    assert C.hilbert_numerator() == numerator
    # the packed reducers that normal forms use are the ones C computed itself
    fresh = IdealHandle(R3, list(C.generators))
    assert C._packed_basis(DEGREVLEX)[1] == fresh._packed_basis(DEGREVLEX)[1]


# --- elimination ---------------------------------------------------------------------

def test_eliminate_intersection_trick_unrolled():
    ring = Ring(("t", "x", "y"))
    out = eliminate(ideal(ring, "t*x", "y - t*y"), ["t"])
    assert out.ring.variables == ("x", "y")
    assert out.groebner_basis() == ideal(R2, "x*y").groebner_basis()


def test_eliminate_graph_projection():
    ring = Ring(("y", "x"))
    out = eliminate(ideal(ring, "y - x^2"), ["y"])
    assert out.generators == ()


def test_eliminate_rabinowitsch_system():
    ring = Ring(("t", "x"))
    out = eliminate(ideal(ring, "x^2", "1 - t*x"), ["t"])
    assert [str(g) for g in out.generators] == ["1"]


def _eliminate_by_permuted_handle(I, variables):
    """Reference for ``eliminate``, with no replay: the block-order basis of a
    handle over the ring with the eliminated variables first, its elements
    free of them transported to the remaining variables."""
    elim = [v for v in I.ring.variables if v in variables]
    rest = tuple(v for v in I.ring.variables if v not in variables)
    perm = Ring(tuple(elim) + rest, I.ring.field)
    basis = IdealHandle(perm, [transport(g, perm) for g in I.generators]).groebner_basis(
        block_order(len(elim)))
    target = Ring(rest, I.ring.field)
    return IdealHandle(target, [transport(p, target) for p in basis
                                if not any(any(m[:len(elim)]) for m in p.monomials())])


_R3_MONOS = [m for m in product(range(3), repeat=3) if sum(m) <= 2]


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([QQ, Fp(101), Fp(7)]),
       gens=st.lists(st.lists(st.tuples(st.sampled_from(_R3_MONOS), st.integers(-3, 3)),
                              min_size=1, max_size=3), min_size=1, max_size=3),
       variables=st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=2, unique=True))
def test_eliminate_matches_the_block_order_basis_of_a_permuted_ring(field, gens, variables):
    # variables such as ["y"] or ["z", "x"] are not a prefix of (x, y, z)
    ring = Ring(("x", "y", "z"), field)
    I = IdealHandle(ring, [sum((c * ring.monomial(m) for m, c in terms), ring.zero())
                           for terms in gens])
    got, want = eliminate(I, variables), _eliminate_by_permuted_handle(I, variables)
    assert got.ring.variables == want.ring.variables
    assert got.generators == want.generators


# --- saturation -----------------------------------------------------------------------

def test_saturate_examples():
    assert saturate(ideal(R2, "x^2*y"), parse(R2, "x")).groebner_basis() == \
        ideal(R2, "y").groebner_basis()
    assert saturate(ideal(R3, "x*y"), parse(R3, "z")).groebner_basis() == \
        ideal(R3, "x*y").groebner_basis()
    ring = Ring(("x1", "x2"))
    I = ideal(ring, "x1^2 - x2^2")
    assert saturate(I, parse(ring, "x1*x2")).groebner_basis() == I.groebner_basis()


def test_saturate_contains_ideal_and_quotient_property():
    rng = random.Random(23)
    monos = [(i, j) for i in range(3) for j in range(3) if 0 < i + j <= 2]
    for _ in range(20):
        gens = [sum((rng.randint(-2, 2) * R2.monomial(rng.choice(monos)) for _ in range(2)),
                    R2.zero()) for _ in range(2)]
        I = IdealHandle(R2, [g for g in gens if not g.is_zero()])
        f = R2.monomial(rng.choice(monos))
        S = saturate(I, f)
        for g in I.generators:
            assert ideal_member(g, S)
        g = rng.randint(-2, 2) * R2.monomial(rng.choice(monos))
        if ideal_member(f * g, I):
            assert ideal_member(g, S)


_R4 = Ring(("x1", "x2", "x3", "x4"))
_R4T = _R4.with_fresh_variable()[0]
_CURVE = ("x1*x3 - x2^2", "x2*x4 - x3^2")


@pytest.mark.parametrize("eliminating", [
    lambda: saturate(ideal(_R4, *_CURVE), parse(_R4, "x1*x2*x3*x4")),
    lambda: intersect(ideal(_R4, *_CURVE), ideal(_R4, "x1 - x4", "x2*x3 - x4^2")),
    lambda: eliminate(ideal(_R4T, *_CURVE, "1 - t*x1*x2*x3*x4"), ["t"]),
], ids=["saturate", "intersect", "eliminate"])
def test_every_elimination_refuses_a_basis_that_fails_buchbergers_criterion(monkeypatch,
                                                                            eliminating):
    # an engine that forgets the S-pairs of late basis elements returns a
    # basis that is not Groebner; replaying Buchberger's criterion catches it
    real_update = oracle._update

    def lossy_update(G, B, ih, lms, pk):
        G_new, B_new = real_update(G, B, ih, lms, pk)
        return G_new, ({k: v for k, v in B_new.items() if k in B} if ih >= 3 else B_new)

    monkeypatch.setattr(oracle, "_update", lossy_update)
    with pytest.raises(ScrollstciError, match="Buchberger-criterion replay"):
        eliminating()


def test_saturate_by_zero_rejected():
    with pytest.raises(Exception):
        saturate(ideal(R2, "x"), R2.zero())


# --- one basis shape: ascending (lm, poly) reducers ------------------------------------

def _assert_reducers(pk, reducers, field):
    """Reducers in ascending order of ``pk.key``, each label its polynomial's
    first key and its max, each polynomial monic."""
    keys = [pk.key(lm) for lm, _ in reducers]
    assert keys == sorted(set(keys))
    for lm, p in reducers:
        assert lm == next(iter(p)) == max(p, key=pk.key)
        assert p[lm] == field.one


def _entry(I):
    """A copy of I's degrevlex cache entry, coefficients in their key order."""
    pk, reducers = I._bases[DEGREVLEX]
    return pk, [(lm, list(p.items())) for lm, p in reducers]


_SHAPE_GENS = ("x^2 - 2*y*z", "x*y - z^2 + x", "3*y^3 - x*z")


@pytest.mark.parametrize("order", [LEX, DEGREVLEX, block_order(1)], ids=str)
def test_a_fresh_basis_is_cached_as_ascending_reducers(order):
    pk, reducers = ideal(R3, *_SHAPE_GENS)._packed_basis(order)
    assert len(reducers) >= 3
    _assert_reducers(pk, reducers, QQ)


def test_a_grown_basis_is_ascending_reducers_and_leaves_the_known_one_as_it_was():
    I = ideal(R3, *_SHAPE_GENS)
    entry = I._packed_basis(DEGREVLEX)
    before = _entry(I)
    grown = _extend(I, [parse(R3, "y*z - x")])
    _assert_reducers(*grown._bases[DEGREVLEX], QQ)
    # over the Rabinowitsch ring, as wide as I's entry and wider than it: the
    # basis of I's generators and 1 - t*f computed there from scratch
    for f in ("y + z", "x^200 - y"):
        ext, rab = oracle._rabinowitsch(R3, parse(R3, f))
        pk, reducers = oracle._grown(I, ext, [rab])
        assert pk.arity == 4 and len(reducers) >= 2
        _assert_reducers(pk, reducers, QQ)
        fresh = IdealHandle(ext, [transport(g, ext) for g in I.generators]
                            + [Polynomial._make(ext, rab)])
        q, want = fresh._packed_basis(DEGREVLEX)
        assert [(pk.decode(lm), list(pk.unpack(p).items())) for lm, p in reducers] == \
            [(q.decode(lm), list(q.unpack(p).items())) for lm, p in want]
    assert I._bases[DEGREVLEX] is entry and _entry(I) == before


def test_a_run_at_the_entrys_packing_reads_the_entry_itself(monkeypatch):
    # the hot path of every membership test and every sweep of the chain:
    # no copy of the cached reducers when the run's packing is the entry's
    I, J = ideal(R3, *_SHAPE_GENS), ideal(R3, "x^3", "x*y - z^2")
    pk, reducers = I._packed_basis(DEGREVLEX)
    q, handed = I._against(DEGREVLEX, [parse(R3, "x^3*y")._terms], lambda q, r: r)
    assert q is pk and handed is reducers
    entries = (reducers, J._packed_basis(DEGREVLEX)[1])
    real, seen = oracle._reduce_full, []

    def recording(p, rs, *args):
        seen.append(rs)
        return real(p, rs, *args)

    monkeypatch.setattr(oracle, "_reduce_full", recording)
    assert I.contains(parse(R3, "x^3 - 2*x*y*z"))
    assert not I.contains(parse(R3, "y"))
    assert radical_member(parse(R3, "x"), J) == oracle.RadicalCertificate(True, 3)
    assert len(seen) == 5 and all(any(rs is e for e in entries) for rs in seen)


def test_the_bound_route_of_certify_intersection_caches_ascending_reducers(monkeypatch):
    A, B = ideal(R3, "x"), ideal(R3, "y", "z")
    for I in (A, B):  # their bases and numerators are cached before Buchberger is refused
        I.hilbert_numerator()

    def refuse(*args):
        raise AssertionError("the bound route ran Buchberger")

    monkeypatch.setattr(oracle, "_buchberger", refuse)
    # x*y + x*z interreduces to x*y
    C = ideal(R3, "x*y + x*z", "x*z")
    assert certify_intersection(C, A, B)
    pk, reducers = C._bases[DEGREVLEX]
    assert [pk.decode(lm) for lm, _ in reducers] == [(1, 0, 1), (1, 1, 0)]
    _assert_reducers(pk, reducers, QQ)


@pytest.mark.parametrize("field", [QQ, Fp(101)], ids=str)
def test_the_leading_monomials_are_the_minimal_generators_of_the_leading_term_ideal(field):
    ring = Ring(R3.variables, field)
    I = ideal(ring, *_SHAPE_GENS)
    lts = {g.leading_monomial() for g in I.groebner_basis()}
    minimal = {m for m in lts if not any(n != m and mono_divides(n, m) for n in lts)}
    monomials = I._leading_monomials()
    assert len(monomials) == len(minimal) >= 3 and set(monomials) == minimal
    assert I.hilbert_numerator() == _hilbert_numerator(minimal)


def test_remember_keeps_a_numerator_already_set():
    C = ideal(R3, "x*y", "x*z")
    numerator = C.hilbert_numerator()
    entry = C._bases[DEGREVLEX]
    assert C._remember(DEGREVLEX, *entry, (1, 2, 3)) is entry
    assert C.hilbert_numerator() is numerator
    assert numerator == (1, 0, -2, 1)


_ELIMINATING = [
    lambda: saturate(ideal(_R4, *_CURVE), parse(_R4, "x1*x2*x3*x4")),
    lambda: intersect(ideal(_R4, *_CURVE), ideal(_R4, "x1 - x4", "x2*x3 - x4^2")),
    lambda: eliminate(ideal(_R4T, *_CURVE, "1 - t*x1*x2*x3*x4"), ["t"]),
]


def _mislabelled(basis):
    """The basis with each label moved to the next polynomial."""
    return [(lm, p) for (lm, _), (_, p) in zip(basis[1:] + basis[:1], basis)]


@pytest.mark.parametrize("eliminating", _ELIMINATING, ids=["saturate", "intersect", "eliminate"])
def test_elimination_hands_ascending_reducers_to_a_replay_that_reads_no_label(monkeypatch,
                                                                             eliminating):
    real = oracle._certify
    replays = []

    def checking(seeds, basis, pk, field):
        _assert_reducers(pk, basis, field)
        assert len(basis) >= 2
        with time_limit(60):  # a replay that trusts wrong labels may not end
            real(seeds, _mislabelled(basis), pk, field)
        real(seeds, basis, pk, field)
        replays.append(basis)

    monkeypatch.setattr(oracle, "_certify", checking)
    eliminating()
    assert len(replays) == 1


@pytest.mark.parametrize("eliminating", _ELIMINATING, ids=["saturate", "intersect", "eliminate"])
def test_the_replay_refuses_a_lossy_basis_under_true_and_wrong_labels(monkeypatch, eliminating):
    # the lossy update of the test above that refuses every elimination
    real_update, real_certify = oracle._update, oracle._certify
    refused = []

    def lossy_update(G, B, ih, lms, pk):
        G_new, B_new = real_update(G, B, ih, lms, pk)
        return G_new, ({k: v for k, v in B_new.items() if k in B} if ih >= 3 else B_new)

    def checking(seeds, basis, pk, field):
        for labelled in (basis, _mislabelled(basis)):
            with pytest.raises(ScrollstciError, match="Buchberger-criterion replay"), \
                    time_limit(60):
                real_certify(seeds, labelled, pk, field)
        refused.append(len(basis))
        raise ScrollstciError("refused")

    monkeypatch.setattr(oracle, "_update", lossy_update)
    monkeypatch.setattr(oracle, "_certify", checking)
    with pytest.raises(ScrollstciError, match="refused"):
        eliminating()
    assert len(refused) == 1 and refused[0] >= 2


# --- radical equality ------------------------------------------------------------------

def test_radical_equal_examples():
    assert radical_equal(ideal(R2, "x^2"), ideal(R2, "x"))
    assert not radical_equal(ideal(R2, "x"), ideal(R2, "y"))


def test_radical_equal_reflexive_symmetric_redundant():
    I = ideal(R3, "x*y - z^2", "x^2")
    J = ideal(R3, "x*y - z^2", "x^2", "y*z")
    assert radical_equal(I, I)
    assert radical_equal(I, J) == radical_equal(J, I)
    p = I.generators[0]
    q = parse(R3, "y + 3*z")
    redundant = IdealHandle(R3, list(I.generators) + [p * q])
    assert radical_equal(I, redundant)


def test_radical_equal_runs_both_chains_on_one_ideal_given_two_ways(monkeypatch):
    I, J = ideal(R2, "x", "y"), ideal(R2, "x + y", "x - y")
    assert I.groebner_basis() == J.groebner_basis()
    calls = []
    chain = oracle._radical_chain
    monkeypatch.setattr(oracle, "_radical_chain", lambda gens, H: calls.append(H) or chain(gens, H))
    assert radical_equal(I, J)
    assert calls == [J, I]


def radical_pairs(field, seed, count):
    """Seeded pairs of ideals in 3 variables, drawn from one pool of
    generators built on random p, q, r, so that some pairs share a radical."""
    ring = Ring(("x", "y", "z"), field)
    rng = random.Random(seed)
    monos = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
             if 0 < i + j + k <= 2]
    for _ in range(count):
        p, q, r = (random_poly(rng, ring, monos, 2) for _ in range(3))
        pool = [p, q, r, p ** 2, p * q, q * r + p ** 2, p + q]
        yield tuple(IdealHandle(ring, rng.sample(pool, rng.randint(1, 3))) for _ in range(2))


@pytest.mark.parametrize("field,seed", [(QQ, 41), (Fp(7), 43)])
def test_radical_equal_agrees_with_the_chain_alone(field, seed):
    equal = by_dimension = 0
    for I, J in radical_pairs(field, seed, 100):
        chain = I.groebner_basis() == J.groebner_basis() or (
            _radical_chain(I.generators, J) is not None
            and _radical_chain(J.generators, I) is not None)
        verdict = radical_equal(IdealHandle(I.ring, I.generators),
                                IdealHandle(J.ring, J.generators))
        assert verdict == chain
        equal += verdict
        by_dimension += _dimension(I) != _dimension(J)
    # both verdicts occur, and the dimensions decide a share of the negatives
    assert equal >= 10 and by_dimension >= 20


def test_radical_equal_over_fp():
    ring = Ring(("x", "y"), Fp(5))
    assert radical_equal(
        IdealHandle(ring, [parse(ring, "x^2")]),
        IdealHandle(ring, [parse(ring, "x")]),
    )


# --- timeout --------------------------------------------------------------------------

def test_time_limit_aborts():
    ring = Ring(tuple(f"x{i}" for i in range(8)))
    gens = [parse(ring, f"x{i}^3 - x{(i + 1) % 8}*x{(i + 2) % 8} - 1") for i in range(8)]
    with pytest.raises(OracleTimeout):
        with time_limit(0.0):
            IdealHandle(ring, gens).groebner_basis()


def test_time_limit_restores_previous():
    with time_limit(100):
        with time_limit(0.0):
            with pytest.raises(OracleTimeout):
                ideal(R2, "x^2 - y", "y^2 - x").groebner_basis()
        # outer limit active again; plenty of time
        assert ideal(R2, "x - y").groebner_basis()


def test_time_limit_is_per_thread():
    # one thread runs without a limit while another sits inside time_limit(0)
    entered, limited, computed = threading.Event(), threading.Event(), threading.Event()
    outcome = {}

    def unlimited():
        with time_limit(None):
            entered.set()
            limited.wait(10)
            try:
                outcome["basis"] = ideal(R2, "x^2 - y", "y^2 - x").groebner_basis()
            except OracleTimeout as exc:
                outcome["error"] = exc
            finally:
                computed.set()

    def zero_limit():
        entered.wait(10)
        with time_limit(0.0):
            limited.set()
            computed.wait(10)

    threads = [threading.Thread(target=unlimited), threading.Thread(target=zero_limit)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    assert "error" not in outcome
    assert outcome["basis"]


# --- kernels against the references they replaced ---------------------------------------
#
# The kernels take packed monomials only; these adapters run them on exponent
# tuples under a `TermOrder`: pack, run packed at the width `oracle._packed`
# picks, and unpack the result.

def _reduce_full(p, reducers, order, field, zero_test=False):
    if not p:
        return {}
    pk, r = oracle._packed(
        len(next(iter(p))), order, [p] + [g for _, g in reducers],
        lambda q: oracle._reduce_full(q.pack(p), [(q.encode(lm), q.pack(g)) for lm, g in reducers],
                                      q, field, zero_test))
    return pk.unpack(r)


def _interreduce(pairs, order, field):
    if not pairs:
        return []
    pk, out = oracle._packed(
        len(pairs[0][0]), order, [p for _, p in pairs],
        lambda q: oracle._interreduce([(q.encode(lm), q.pack(p)) for lm, p in pairs], q, field))
    return [(pk.decode(lm), pk.unpack(p)) for lm, p in reversed(out)]


def _buchberger(seeds, arity, order, field, gb_prefix=0):
    """The kernel's basis in descending order; the first ``gb_prefix`` seeds
    are handed over as its known basis, labelled, in the order given."""
    pk, basis = oracle._packed(
        arity, order, seeds,
        lambda q: oracle._buchberger(
            [q.pack(s) for s in seeds[gb_prefix:]], q, field,
            [(max(p, key=q.key), p) for p in map(q.pack, seeds[:gb_prefix])]))
    return [pk.unpack(p) for _, p in reversed(basis)]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _reference_reduce_full(p, reducers, keyf, field):
    """Full normal form that takes the largest term with a max over all of work."""
    work = dict(p)
    out = {}
    while work:
        m = max(work, key=keyf)
        c = work.pop(m)
        hit = next(((lm, g) for lm, g in reducers if _divides(lm, m)), None)
        if hit is None:
            out[m] = c
            continue
        lm, g = hit
        shift = tuple(a - b for a, b in zip(m, lm))
        for mg, cg in g.items():
            if mg == lm:
                continue
            tm = tuple(a + b for a, b in zip(mg, shift))
            s = field.sub(work.get(tm, field.zero), field.mul(c, cg))
            if s == 0:
                work.pop(tm, None)
            else:
                work[tm] = s
    return out


def _random_terms(rng, arity, field, nterms, top=3, fractional=False):
    terms = {}
    for _ in range(nterms):
        num = rng.randint(-4, 4)
        c = field.coerce(Fraction(num, rng.randint(1, 3)) if fractional else num)
        if c != 0:
            terms[tuple(rng.randint(0, top) for _ in range(arity))] = c
    return terms


def _reduce_full_cases(order, field, fractional=False):
    """50 seeded (polynomial, reducer generators) cases, leading monomials attached."""
    rng = random.Random(11)
    keyf = order.key()
    for _ in range(50):
        arity = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 4)):
            g = _random_terms(rng, arity, field, rng.randint(1, 4), fractional=fractional)
            if g:
                gens.append((max(g, key=keyf), g))
        yield _random_terms(rng, arity, field, rng.randint(1, 8), fractional=fractional), gens


def _monic_reducers(gens, order, field):
    keyf = order.key()
    return sorted(((lm, _monic(g, lm, field)) for lm, g in gens), key=lambda t: keyf(t[0]))


@pytest.mark.parametrize("field", [QQ, Fp(7)], ids=str)
@pytest.mark.parametrize("order", [LEX, DEGLEX, DEGREVLEX, block_order(2)], ids=str)
def test_heap_normal_form_matches_the_max_reference(order, field):
    # 50 polynomials and reducer sets per order and field; the first key of a
    # normal form is its leading monomial, so the key order must match too
    keyf = order.key()
    for p, gens in _reduce_full_cases(order, field):
        reducers = _monic_reducers(gens, order, field)
        got = _reduce_full(p, reducers, order, field)
        assert list(got.items()) == list(_reference_reduce_full(p, reducers, keyf, field).items())


@pytest.mark.parametrize("field", [QQ, Fp(7)], ids=str)
@pytest.mark.parametrize("order", [LEX, DEGLEX, DEGREVLEX, block_order(2)], ids=str)
def test_the_zero_test_stops_at_the_normal_forms_leading_term(order, field):
    zeros = 0
    for p, gens in _reduce_full_cases(order, field):
        reducers = _monic_reducers(gens, order, field)
        full = _reduce_full(p, reducers, order, field)
        assert _reduce_full(p, reducers, order, field, zero_test=True) == dict(list(full.items())[:1])
        zeros += not full
    assert zeros >= 1


def _zero_test_cases(field, seed):
    """Seeded (ideal, polynomial) pairs over ``field``: random polynomials and
    random members of random ideals, of the unit ideal and of the zero ideal,
    the zero polynomial, and polynomials of degree 128 and more, most of
    which need exponent fields wider than their ideal's cached basis has."""
    ring = Ring(("x", "y", "z"), field)
    rng = random.Random(seed)
    monos = [(i, j, k) for i in range(4) for j in range(4) for k in range(4) if i + j + k <= 3]
    ideals = [IdealHandle(ring, [random_poly(rng, ring, monos, 3) for _ in range(rng.randint(1, 3))])
              for _ in range(12)]
    ideals += [IdealHandle(ring, [ring.one()]), IdealHandle(ring, [])]
    for I in ideals:
        yield I, ring.zero()
        for _ in range(6):
            yield I, random_poly(rng, ring, monos, 4)
            yield I, sum((random_poly(rng, ring, monos, 2) * g for g in I.generators), ring.zero())
    for gens, polys in ((("x - y",), ("x^130 - y^130", "x^130 + y", "x^200*z - y^200*z")),
                        (("x^2", "y^3 - z^3"), ("y^150 - z^150", "x^200 + x*y", "y^200")),
                        (("x^128*y - z",), ("x^256*y^2 - z^2", "x^129", "z*x^128*y - z^2"))):
        for f in polys:
            yield ideal(ring, *gens), parse(ring, f)


@pytest.mark.parametrize("field,seed", [(QQ, 59), (Fp(7), 61)], ids=str)
def test_the_zero_test_decides_what_the_normal_form_does(field, seed):
    members = wide = 0
    with time_limit(60):
        for I, f in _zero_test_cases(field, seed):
            member = I.contains(f)
            assert member == I.normal_form(f).is_zero()
            # the same packing, and the full remainder's leading term or nothing
            q, lead = I._reduced(f, DEGREVLEX, True)
            pk, full = I._reduced(f, DEGREVLEX, False)
            assert q is pk and lead == dict(list(full.items())[:1])
            members += member
            wide += q.bits > I._packed_basis(DEGREVLEX)[0].bits
    assert members >= 20 and wide >= 4


def _reference_interreduce(pairs, order, field):
    """Autoreduction that sorts the reducers afresh for every element."""
    keyf = order.key()
    current = sorted(((lm, _monic(p, lm, field)) for lm, p in pairs), key=lambda t: keyf(t[0]))
    while True:
        changed = False
        done = []
        for i, (lm, p) in enumerate(current):
            reducers = sorted(done + current[i + 1:], key=lambda t: keyf(t[0]))
            r = _reduce_full(p, reducers, order, field)
            if not r:
                changed = True
                continue
            rlm = next(iter(r))
            changed = changed or rlm != lm
            done.append((rlm, _monic(r, rlm, field)))
        current = done
        if not changed:
            return sorted(current, key=lambda t: keyf(t[0]), reverse=True)


@pytest.mark.parametrize("field", [QQ, Fp(7)], ids=str)
@pytest.mark.parametrize("order", [LEX, DEGREVLEX, block_order(1)], ids=str)
def test_interreduce_matches_the_always_sorting_reference(order, field):
    # each set mixes random polynomials with combinations of them, so that
    # leading monomials move and elements reduce to zero
    rng = random.Random(19)
    keyf = order.key()
    moved = dropped = 0
    for _ in range(60):
        base = [g for g in (_random_terms(rng, 3, field, rng.randint(1, 4), top=2)
                            for _ in range(rng.randint(2, 4))) if g]
        polys = list(base)
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(base), rng.choice(base)
            c = field.coerce(rng.randint(1, 3))
            combo = {m: field.mul(c, v) for m, v in a.items()}
            for m, v in b.items():
                s = field.add(combo.get(m, field.zero), v)
                if s == 0:
                    combo.pop(m, None)
                else:
                    combo[m] = s
            if combo:
                polys.append(combo)
        rng.shuffle(polys)
        pairs = [(max(p, key=keyf), p) for p in polys]
        got = _interreduce(pairs, order, field)
        want = _reference_interreduce(pairs, order, field)
        assert [(lm, list(p.items())) for lm, p in got] == \
            [(lm, list(p.items())) for lm, p in want]
        dropped += len(want) < len(pairs)
        moved += not {lm for lm, _ in want} <= {lm for lm, _ in pairs}
    assert moved >= 5 and dropped >= 5


def _reference_update(G, B, ih, lms):
    """Gebauer-Moeller update on a set of pairs, every lcm recomputed when needed."""
    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def coprime(a, b):
        return all(x == 0 or y == 0 for x, y in zip(a, b))

    mh = lms[ih]
    C = set(G)
    D = set()
    while C:
        ig = C.pop()
        lcm_hg = lcm(mh, lms[ig])
        if coprime(mh, lms[ig]) or (
            not any(_divides(lcm(mh, lms[ip]), lcm_hg) for ip in C)
            and not any(_divides(lcm(mh, lms[pr[1]]), lcm_hg) for pr in D)
        ):
            D.add((ih, ig))
    B_new = {(i1, i2) for (i1, i2) in B
             if not _divides(mh, lcm(lms[i1], lms[i2]))
             or lcm(lms[i1], mh) == lcm(lms[i1], lms[i2])
             or lcm(lms[i2], mh) == lcm(lms[i1], lms[i2])}
    B_new |= {(i, j) for (i, j) in D if not coprime(mh, lms[j])}
    return {ig for ig in G if not _divides(mh, lms[ig])} | {ih}, B_new


def _reference_pairs(seeds, arity, order, field, gb_prefix=0):
    """Leading monomials of the pairs Buchberger reduces, in order, when the
    next pair is the min over a set by (key of its lcm, pair); and the basis.
    The first ``gb_prefix`` seeds, a monic reduced basis, start the basis with
    no pair; the other seeds enter by the update in ascending order."""
    keyf = order.key()
    polys = seeds[:gb_prefix]
    lms = [max(p, key=keyf) for p in polys]
    G, B, seen = set(range(gb_prefix)), set(), []
    start = [(max(s, key=keyf), s) for s in seeds[gb_prefix:]]
    if gb_prefix == 0:
        start = _interreduce(start, order, field)
    if any(not any(lm) for lm, _ in start):
        return [], [{(0,) * arity: field.one}]
    for lm, p in sorted(start, key=lambda t: keyf(t[0])):
        lms.append(lm)
        polys.append(_monic(p, lm, field))
        G, B = _reference_update(G, B, len(lms) - 1, lms)
    while B:
        i, j = pr = min(B, key=lambda pr: (keyf(tuple(map(max, lms[pr[0]], lms[pr[1]]))), pr))
        B.discard(pr)
        seen.append((lms[i], lms[j]))
        s = tuple_kernel._spoly(polys[i], lms[i], polys[j], lms[j], field)
        reducers = sorted(((lms[g], polys[g]) for g in G), key=lambda t: keyf(t[0]))
        h = _reference_reduce_full(s, reducers, keyf, field)
        if h:
            lm = next(iter(h))
            lms.append(lm)
            polys.append(_monic(h, lm, field))
            G, B = _reference_update(G, B, len(lms) - 1, lms)
    return seen, [p for _, p in _interreduce([(lms[g], polys[g]) for g in G], order, field)]


def _pair_cases():
    rng = random.Random(13)
    for n in range(12):
        field = (QQ, Fp(7))[n % 2]
        order = (DEGREVLEX, LEX, block_order(1))[n % 3]
        seeds = [g for g in (_random_terms(rng, 3, field, 3, top=2) for _ in range(3)) if g]
        yield seeds, 3, order, field, 0
    ring = Ring(tuple(f"x{i}" for i in range(6)))
    block = ScrollBlock(tuple(ring.variable(v) for v in ring.variables))
    minors = [dict(m._terms) for m in minors_2x2(block)]  # many pairs share an lcm degree
    yield minors, 6, DEGREVLEX, QQ, 0
    basis = [dict(g._terms) for g in IdealHandle(ring, minors_2x2(block)).groebner_basis()]
    extra = dict(parse(ring, "x1^2 + x2*x4 - x0*x5")._terms)
    yield basis + [extra], 6, DEGREVLEX, QQ, len(basis)  # a reduced prefix, as _extend seeds it
    # here the pairs reduced depend on how the prefix enters: as the starting
    # basis, 21; inserted by the update with its inner pairs dropped after, 23
    extra = dict(parse(ring, "x4*x5 + x3^2")._terms)
    yield basis + [extra], 6, DEGREVLEX, QQ, len(basis)


def test_buchberger_reduces_pairs_in_the_order_of_the_set_reference(monkeypatch):
    for seeds, arity, order, field, prefix in _pair_cases():
        want, want_basis = _reference_pairs(seeds, arity, order, field, prefix)
        got = []
        real_spoly = oracle._spoly

        def recording(f, lmf, g, lmg, pk, fld):
            got.append((pk.decode(lmf), pk.decode(lmg)))
            return real_spoly(f, lmf, g, lmg, pk, fld)

        monkeypatch.setattr(oracle, "_spoly", recording)
        basis = _buchberger(seeds, arity, order, field, gb_prefix=prefix)
        monkeypatch.setattr(oracle, "_spoly", real_spoly)
        assert got == want
        assert [list(p.items()) for p in basis] == [list(p.items()) for p in want_basis]


def test_buchberger_forms_no_pair_inside_a_known_basis(monkeypatch):
    ring = Ring(tuple(f"x{i}" for i in range(6)))
    block = ScrollBlock(tuple(ring.variable(v) for v in ring.variables))
    basis = [dict(g._terms) for g in IdealHandle(ring, minors_2x2(block)).groebner_basis()]
    calls = []
    for name in ("_update", "_spoly"):
        real = getattr(oracle, name)

        def recording(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(oracle, name, recording)
    got = _buchberger(basis, 6, DEGREVLEX, QQ, gb_prefix=len(basis))
    assert calls == []
    assert [list(p.items()) for p in got] == [list(p.items()) for p in basis]


def test_buchberger_interreduces_a_second_time_only_when_the_basis_grows(monkeypatch):
    calls = []
    real = oracle._interreduce
    monkeypatch.setattr(oracle, "_interreduce", lambda *args: calls.append(1) or real(*args))
    # the minors of a generic 2x5 block are a Groebner basis; x^2 - y, x*y - z are not
    ring = Ring(tuple(f"a{j}" for j in range(5)) + tuple(f"b{j}" for j in range(5)))
    minors = [parse(ring, f"a{i}*b{j} - a{j}*b{i}")._terms for i, j in combinations(range(5), 2)]
    grows = [parse(R3, t)._terms for t in ("x^2 - y", "x*y - z")]
    for seeds, arity, want in ((minors, 10, 1), (grows, 3, 2)):
        calls.clear()
        basis = _buchberger(seeds, arity, DEGREVLEX, QQ)
        assert len(calls) == want
        fresh = tuple_kernel._buchberger(seeds, arity, DEGREVLEX, QQ)
        assert [list(p.items()) for p in basis] == [list(p.items()) for p in fresh]
    assert len(basis) > len(grows)


_ORDERS = [LEX, DEGLEX, DEGREVLEX, block_order(1), block_order(2)]


@pytest.mark.parametrize("order", _ORDERS, ids=str)
def test_packed_monomials_compute_what_exponent_tuples_do(order):
    rng = random.Random(53)
    keyf = order.key()
    for arity in range(1, 6):
        if order.block > arity:
            with pytest.raises(ScrollstciError, match="exceeds the ring's 1 variables"):
                oracle._packing(arity, order, 8)
            continue
        pk = oracle._packing(arity, order, 8)
        monos = [tuple(rng.choice((0, 0, 1, 2, 127, 128, 255)) for _ in range(arity))
                 for _ in range(40)]
        packed = [pk.encode(m) for m in monos]
        assert [pk.decode(e) for e in packed] == monos
        assert sorted(monos, key=keyf) == [pk.decode(e) for e in sorted(packed, key=pk.key)]
        for e in packed:  # the normal-form heap's descending key gives e back
            d = -pk.key(e)
            assert ((d & pk.neg) << 1) - d == e
        for (a, ea), (b, eb) in product(zip(monos, packed), repeat=2):
            assert (((eb | pk.guard) - ea) & pk.guard == pk.guard) == mono_divides(a, b)
            assert pk.lcm(ea, eb) == pk.encode(tuple(map(max, a, b)))
            assert (pk.lcm(ea, eb) == ea + eb) == (not any(map(min, a, b)))
            total = tuple(map(sum, zip(a, b)))
            if max(total) < 256:
                assert ea + eb == pk.encode(total)
            else:
                assert (ea + eb) & pk.guard  # the sum left the fields, and shows it


# generators of the unit ideal over QQ[x, y, z]: a constant seed, a constant
# after the first interreduction, and a constant met only during the run
_UNIT_SEEDS = [("3", "x*y"), ("x - 1", "x"), ("x*y - 1", "x^2", "y^3 - z")]


def _differential_cases():
    """Seeded ideals over QQ and F_7, six under each order of ``_ORDERS``, then
    the `_UNIT_SEEDS` under each order."""
    rng = random.Random(47)
    for n in range(30):
        field, order = (QQ, Fp(7))[n % 2], _ORDERS[n % 5]
        arity = rng.randint(2, 4)
        seeds = [g for g in (_random_terms(rng, arity, field, rng.randint(2, 4), top=3)
                             for _ in range(rng.randint(2, 4))) if g]
        yield seeds, arity, order, field
    for texts, order in product(_UNIT_SEEDS, _ORDERS):
        yield [parse(R3, t)._terms for t in texts], 3, order, QQ


@pytest.mark.parametrize("order", _ORDERS, ids=str)
@pytest.mark.parametrize("texts", _UNIT_SEEDS, ids=", ".join)
def test_the_kernel_ends_a_unit_ideal_in_one(texts, order):
    seeds = [parse(R3, t)._terms for t in texts]
    assert _buchberger(seeds, 3, order, QQ) == [{(0, 0, 0): QQ.one}]


def test_packed_kernel_matches_the_tuple_kernel(monkeypatch):
    pairs_seen = 0
    for seeds, arity, order, field in _differential_cases():
        want, got = [], []
        real_tuple, real_packed = tuple_kernel._spoly, oracle._spoly

        def tuple_recording(f, lmf, g, lmg, fld):
            want.append((lmf, lmg))
            return real_tuple(f, lmf, g, lmg, fld)

        def packed_recording(f, lmf, g, lmg, pk, fld):
            got.append((pk.decode(lmf), pk.decode(lmg)))
            return real_packed(f, lmf, g, lmg, pk, fld)

        monkeypatch.setattr(tuple_kernel, "_spoly", tuple_recording)
        monkeypatch.setattr(oracle, "_spoly", packed_recording)
        with time_limit(60):
            want_basis = tuple_kernel._buchberger(seeds, arity, order, field)
            got_basis = _buchberger(seeds, arity, order, field)
        monkeypatch.undo()
        assert got == want
        assert [list(p.items()) for p in got_basis] == [list(p.items()) for p in want_basis]
        pairs_seen += len(got)
    assert pairs_seen >= 100


def test_a_run_that_outgrows_its_packing_is_rerun_wider():
    # every input degree is at most 100, so the first packing holds exponents
    # below 256; the bases need y^300
    R = Ring(("x", "y"))
    for order in (LEX, block_order(1)):
        seeds = [parse(R, g)._terms for g in ("x - y^100", "x^3")]
        pk, _ = oracle._packed(2, order, seeds, lambda q: None)
        assert pk.bits == 8
        basis = _buchberger(seeds, 2, order, QQ)
        assert [list(p.items()) for p in basis] == \
            [list(p.items()) for p in tuple_kernel._buchberger(seeds, 2, order, QQ)]
        assert max(e for p in basis for m in p for e in m) >= 256
    # an S-polynomial that outgrows its packing says so
    pk = oracle._packing(2, LEX, 8)
    f, g = (pk.pack(parse(R, t)._terms) for t in ("x*y - y^200", "x^2*y^60"))
    with pytest.raises(oracle._Overflow):
        oracle._spoly(f, pk.encode((1, 1)), g, pk.encode((2, 60)), pk, QQ)
    # a normal form whose input outgrows the cached basis's packing
    I = ideal(R, "x - y")
    assert I.normal_form(parse(R, "x^2")) == parse(R, "y^2")
    assert I.normal_form(parse(R, "x^300 + x")) == parse(R, "y^300 + y")
    # and one whose reduction outgrows it
    assert ideal(R, "x - y^100").normal_form(parse(R, "x^3"), LEX) == parse(R, "y^300")
    assert saturate(ideal(R, "x^300*y - y^301"), parse(R, "y")).groebner_basis() == \
        ideal(R, "x^300 - y^300").groebner_basis()


class _FractionEverywhere:
    """The scalar arithmetic ``FieldSpec`` had before rationals were held as
    ints when integral: every rational a Fraction, each operation branching on
    the kind.  The kernels take it in place of a ``FieldSpec``."""

    def __init__(self, kind, p=None):
        self.kind, self.p = kind, p

    @property
    def zero(self):
        return 0 if self.kind == "Fp" else Fraction(0)

    @property
    def one(self):
        return 1 if self.kind == "Fp" else Fraction(1)

    def coerce(self, x):
        if self.kind == "Fp":
            if isinstance(x, Fraction):
                return (x.numerator * pow(x.denominator % self.p, self.p - 2, self.p)) % self.p
            return int(x) % self.p
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "Fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "Fp":
            return pow(a, self.p - 2, self.p)
        return Fraction(1) / a


def _as_fractions(terms, old):
    return {m: old.coerce(c) for m, c in terms.items()}


_DIFFERENTIAL_FIELDS = [(QQ, False), (QQ, True), (Fp(7), False)]


@pytest.mark.parametrize("field, fractional", _DIFFERENTIAL_FIELDS,
                         ids=["QQ", "QQ-non-integral", "F7"])
@pytest.mark.parametrize("order", [LEX, DEGLEX, DEGREVLEX, block_order(2)], ids=str)
def test_reduce_full_matches_the_fraction_everywhere_field(order, field, fractional):
    old = _FractionEverywhere(field.kind, field.p)
    for p, gens in _reduce_full_cases(order, field, fractional):
        got = _reduce_full(p, _monic_reducers(gens, order, field), order, field)
        old_gens = [(lm, _as_fractions(g, old)) for lm, g in gens]
        want = _reduce_full(_as_fractions(p, old), _monic_reducers(old_gens, order, old),
                            order, old)
        assert list(got.items()) == list(want.items())
        assert_canonical(got.values(), field)


def _buchberger_cases():
    """The seeded ideals of the pair-order test, plus 12 over QQ with
    non-integral coefficients."""
    yield from _pair_cases()
    rng = random.Random(29)
    for n in range(12):
        order = (DEGREVLEX, LEX, block_order(1))[n % 3]
        seeds = [g for g in (_random_terms(rng, 3, QQ, 3, top=2, fractional=True)
                             for _ in range(3)) if g]
        yield seeds, 3, order, QQ, 0


def test_buchberger_matches_the_fraction_everywhere_field():
    fractions_seen = 0
    for seeds, arity, order, field, prefix in _buchberger_cases():
        old = _FractionEverywhere(field.kind, field.p)
        with time_limit(60):  # a wrong inverse leaves reducers non-monic and may not end
            got = _buchberger(seeds, arity, order, field, gb_prefix=prefix)
        want = _buchberger([_as_fractions(s, old) for s in seeds], arity, order, old,
                           gb_prefix=prefix)
        assert [list(p.items()) for p in got] == [list(p.items()) for p in want]
        for p in got:
            assert_canonical(p.values(), field)
            fractions_seen += any(type(c) is Fraction for c in p.values())
    assert fractions_seen >= 5  # the QQ bases do carry true fractions


def test_normal_form_shares_the_cached_basis_without_changing_it():
    gens = ("x^2 + y*z - 1", "x*y - z^2", "y^2 - x*z")
    rng = random.Random(17)
    polys = [Polynomial._make(R3, _random_terms(rng, 3, QQ, 6, top=4)) for _ in range(40)]
    basis = ideal(R3, *gens).groebner_basis()
    keyf = DEGREVLEX.key()
    reducers = sorted(((g.leading_monomial(), dict(g._terms)) for g in basis),
                      key=lambda t: keyf(t[0]))
    expected = [list(_reference_reduce_full(f._terms, reducers, keyf, QQ).items())
                for f in polys]
    I = ideal(R3, *gens)
    snapshot = [list(g._terms.items()) for g in I.groebner_basis()]
    assert [list(I.normal_form(f)._terms.items()) for f in polys] == expected
    assert [list(g._terms.items()) for g in I.groebner_basis()] == snapshot

    # four threads share one fresh handle, so they race to fill both caches
    shared = ideal(R3, *gens)
    results = {}

    def work(n):
        results[n] = [list(shared.normal_form(f)._terms.items()) for f in polys]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {n: expected for n in range(4)}
    assert [list(g._terms.items()) for g in shared.groebner_basis()] == snapshot


def test_synth_of_a_dense_coordinate_change_stays_fast():
    # an l = 2, c = 3 leading-block spec after x_i -> x_i + a*x_{i+1}: its radical
    # chain reduces powers of 1000 to 2500 terms, which took 45 s with a max per step
    spec = TwoLinearSpec.from_json({
        "ring": {"vars": ["m0", "m1", "m2", "m3", "m4", "d2", "e2"], "field": "QQ"},
        "components": [
            {"scroll": {"blocks": [{"entries": [
                "m0 + 2*m1", "m1 + 2*m2", "m2 + 2*m3", "m3 - m4", "m4 - 2*d2"]}]},
             "delta": [], "p": []},
            {"scroll": None, "delta": ["d2 + 2*e2"],
             "p": ["m3 - m4", "m1 + 2*m2", "e2", "m2 + 2*m3", "m0 + 2*m1"]},
        ],
    })
    with time_limit(30):
        certificate = synthesize(spec)
    assert certificate.verified is True
