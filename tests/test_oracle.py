"""Certification engine: Groebner bases and the derived ideal predicates."""

import random
import threading

import pytest

from scrollstci.oracle import (
    IdealHandle,
    OracleTimeout,
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
from scrollstci.poly import LEX, Fp, Ring, RingMismatchError, parse

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


def test_witness_decoration_with_tight_bound():
    # x in rad(x^5): witness 5 found only when the bound allows it
    I = ideal(R2, "x^5")
    loose = radical_member(parse(R2, "x"), I, witness_bound=8)
    assert loose.member and loose.witness_k == 5 and not loose.rabinowitsch
    tight = radical_member(parse(R2, "x"), I, witness_bound=2)
    assert tight.member and tight.witness_k is None and tight.rabinowitsch


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
