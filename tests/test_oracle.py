"""Certification engine: Groebner bases and the derived ideal predicates."""

import random
import sys
import threading
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from scrollstci import oracle
from scrollstci.linjoin import TwoLinearSpec
from scrollstci.oracle import (
    IdealHandle,
    OracleTimeout,
    _buchberger,
    _dimension,
    _extend,
    _hilbert_numerator,
    _interreduce,
    _monic,
    _rabinowitsch_contains,
    _radical_chain,
    _reduce_full,
    certify_intersection,
    eliminate,
    groebner_basis,
    ideal_member,
    intersect,
    intersect_many,
    normal_form,
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
    gb = groebner_basis(ideal(R2, "x - y", "x + y"))
    assert set(gb) == {parse(R2, "x"), parse(R2, "y")}


def test_monomial_ideal_already_reduced():
    gb = groebner_basis(ideal(R2, "x^2", "x*y", "y^2"))
    assert set(gb) == {parse(R2, "x^2"), parse(R2, "x*y"), parse(R2, "y^2")}


def test_twisted_cubic_graph_lex():
    # the single S-pair reduces to zero, frozen by running Buchberger by hand
    ring = Ring(("z", "y", "x"))
    gb = groebner_basis(ideal(ring, "y - x^2", "z - x^3"), LEX)
    assert set(gb) == {parse(ring, "y - x^2"), parse(ring, "z - x^3")}


def test_empty_ideal():
    assert groebner_basis(IdealHandle(R2, [])) == []


def test_unit_ideal():
    gb = groebner_basis(ideal(R2, "x", "x + 1"))
    assert gb == [R2.one()]


def test_basis_stable_under_permutation_and_recomputation():
    gens = ["x^2 - y", "x*y - 1", "y^2 - x"]
    rng = random.Random(3)
    reference = tuple(groebner_basis(ideal(R2, *gens)))
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert tuple(groebner_basis(ideal(R2, *shuffled))) == reference
    assert tuple(groebner_basis(ideal(R2, *gens))) == reference


def test_basis_is_reduced():
    # no term of any element divisible by another leading monomial; monic leads
    I = ideal(R3, "x^2 + y^2 + z^2", "x*y - z^2", "y*z + x^2")
    gb = I.groebner_basis()
    leads = [g.leading_monomial() for g in gb]
    for g in gb:
        assert g.leading_coefficient() == 1
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
    assert normal_form(parse(R2, "x^2"), I).is_zero()
    assert normal_form(parse(R2, "x^2 + y"), I) == parse(R2, "y")


def test_normal_form_idempotent():
    I = ideal(R3, "x^2 - y", "y*z - 1")
    f = parse(R3, "x^4*z + x*y + z^2")
    nf = normal_form(f, I)
    assert normal_form(nf, I) == nf


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
        assert ideal_member(f, I) == normal_form(f, I).is_zero()


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        ideal_member(parse(R3, "x"), ideal(R2, "x"))


# --- radical membership -------------------------------------------------------------

def test_radical_member_square():
    I = ideal(R2, "x^2")
    cert = radical_member(parse(R2, "x"), I)
    assert cert.member and cert.witness_k == 2
    # the witness is machine-checkable by normal form
    assert normal_form(parse(R2, "x") ** cert.witness_k, I).is_zero()


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
    assert five.member and five.witness_k == 5 and not five.rabinowitsch
    # x in rad(x^9): no power up to the bound closes, so Rabinowitsch decides
    nine = radical_member(parse(R2, "x"), ideal(R2, "x^9"))
    assert nine.member and nine.witness_k is None and nine.rabinowitsch


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


def test_extend_matches_fresh_basis():
    I = ideal(R3, "x^2 - y*z", "y^3")
    more = [parse(R3, "x*y - z^2"), parse(R3, "z^3 + x")]
    grown = _extend(I, more)
    assert grown.groebner_basis() == ideal(R3, "x^2 - y*z", "y^3", "x*y - z^2",
                                           "z^3 + x").groebner_basis()


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
    # C's numerator is reused; A, B and A + B are computed once each
    assert certify_intersection(C, A, B)
    assert len(calls) == 4
    # a second certificate against the same A and B computes only A + B again
    assert certify_intersection(C, A, B)
    assert len(calls) == 5
    assert not radical_equal(ideal(R3, "x"), C)
    assert len(calls) == 6


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
    # (x - 1)*y is the intersection, but the Hilbert series proves nothing
    # for inhomogeneous ideals, so the certificate is refused
    assert intersect(ideal(R2, "x - 1"), ideal(R2, "y")).groebner_basis() == \
        ideal(R2, "x*y - y").groebner_basis()
    assert not certify_intersection(ideal(R2, "x*y - y"), ideal(R2, "x - 1"), ideal(R2, "y"))
    with pytest.raises(RingMismatchError):
        certify_intersection(ideal(R2, "x*y"), ideal(R3, "x"), ideal(R2, "y"))


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


def test_saturate_refuses_a_basis_that_fails_buchbergers_criterion(monkeypatch):
    # an engine that forgets the S-pairs of late basis elements returns a
    # basis that is not Groebner; replaying Buchberger's criterion catches it
    real_update = oracle._update

    def lossy_update(G, B, ih, lms):
        G_new, B_new = real_update(G, B, ih, lms)
        return G_new, ({k: v for k, v in B_new.items() if k in B} if ih >= 3 else B_new)

    monkeypatch.setattr(oracle, "_update", lossy_update)
    ring = Ring(("x1", "x2", "x3", "x4"))
    I = ideal(ring, "x1*x3 - x2^2", "x2*x4 - x3^2")
    with pytest.raises(ScrollstciError, match="Buchberger-criterion replay"):
        saturate(I, parse(ring, "x1*x2*x3*x4"))


def test_saturate_by_zero_rejected():
    with pytest.raises(Exception):
        saturate(ideal(R2, "x"), R2.zero())


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
    next pair is the min over a set by (key of its lcm, pair); and the basis."""
    keyf = order.key()
    start = [(max(s, key=keyf), s) for s in seeds]
    if gb_prefix == 0:
        start = _interreduce(start, order, field)
    if any(not any(lm) for lm, _ in start):
        return [], [{(0,) * arity: field.one}]
    start = [(lm, _monic(p, lm, field)) for lm, p in start]
    lms, polys, G, B, seen, prefix_ids = [], [], set(), set(), [], set()
    for i in sorted(range(len(start)), key=lambda i: keyf(start[i][0])):
        if i < gb_prefix:
            prefix_ids.add(len(lms))
        lms.append(start[i][0])
        polys.append(start[i][1])
        G, B = _reference_update(G, B, len(lms) - 1, lms)
    B = {(i, j) for (i, j) in B if not (i in prefix_ids and j in prefix_ids)}
    while B:
        i, j = pr = min(B, key=lambda pr: (keyf(tuple(map(max, lms[pr[0]], lms[pr[1]]))), pr))
        B.discard(pr)
        seen.append((lms[i], lms[j]))
        s = oracle._spoly(polys[i], lms[i], polys[j], lms[j], field)
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


def test_buchberger_reduces_pairs_in_the_order_of_the_set_reference(monkeypatch):
    for seeds, arity, order, field, prefix in _pair_cases():
        want, want_basis = _reference_pairs(seeds, arity, order, field, prefix)
        got = []
        real_spoly = oracle._spoly

        def recording(f, lmf, g, lmg, fld):
            got.append((lmf, lmg))
            return real_spoly(f, lmf, g, lmg, fld)

        monkeypatch.setattr(oracle, "_spoly", recording)
        basis = _buchberger(seeds, arity, order, field, gb_prefix=prefix)
        monkeypatch.setattr(oracle, "_spoly", real_spoly)
        assert got == want
        assert [list(p.items()) for p in basis] == [list(p.items()) for p in want_basis]


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
