"""Lattice ideals and the fiber-cone shape check."""

import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from scrollstci.lattice import (
    LatticeBasis,
    LatticeError,
    binomial,
    fiber_spec_check,
    lattice_ideal,
    nonnegative_vector,
)
from scrollstci.oracle import IdealHandle, ideal_member, radical_equal
from scrollstci.poly import QQ, Fp, Ring, parse
from scrollstci.scroll import ScrollBlock, minors_2x2, verdi_generators

import worked_examples as examples

R2 = Ring(("x1", "x2"))
R4 = Ring(("x1", "x2", "x3", "x4"))


# --- binomials -----------------------------------------------------------------

def test_binomial_examples():
    assert binomial(R2, (1, -1)) == parse(R2, "x1 - x2")
    ring3 = Ring(("x1", "x2", "x3"))
    assert binomial(ring3, (2, -1, 0)) == parse(ring3, "x1^2 - x2")
    assert binomial(R4, (1, 1, -1, -1)) == parse(R4, "x1*x2 - x3*x4")


def test_binomial_rejects_zero_vector():
    with pytest.raises(LatticeError):
        binomial(R2, (0, 0))


def test_binomial_vanishes_at_ones_and_homogeneity():
    from conftest import evaluate

    cases = [(1, -1), (2, -1), (3, -3)]
    for v in cases:
        f = binomial(R2, v)
        assert evaluate(f, {"x1": 1, "x2": 1}) == 0
        assert f.is_homogeneous() == (sum(v) == 0)


# --- lattice ideals -------------------------------------------------------------

def test_single_vector_lattice():
    I = lattice_ideal(R2, LatticeBasis(((1, -1),)))
    assert I.groebner_basis() == IdealHandle(R2, [parse(R2, "x1 - x2")]).groebner_basis()


def test_even_differences_lattice_saturation_is_trivial():
    # x1^{2k} - x2^{2k} factors through x1^2 - x2^2; nothing new appears
    I = lattice_ideal(R2, LatticeBasis(((2, -2),)))
    assert I.groebner_basis() == IdealHandle(R2, [parse(R2, "x1^2 - x2^2")]).groebner_basis()


def test_twisted_cubic_lattice_matches_scroll_minors():
    basis = examples.twisted_cubic_basis()
    I = lattice_ideal(R4, basis)
    block = ScrollBlock(tuple(R4.variable(v) for v in R4.variables))
    minors = IdealHandle(R4, minors_2x2(block))
    assert I.groebner_basis() == minors.groebner_basis()
    # and the minors ideal is radical-generated by its two Verdi polynomials
    assert radical_equal(IdealHandle(R4, verdi_generators(block)), minors)


def combinations(basis, bound=2):
    """Nonzero integer combinations of the basis with coefficients in [-bound, bound]."""
    for coeffs in iter_product(range(-bound, bound + 1), repeat=len(basis.vectors)):
        vec = tuple(sum(c * v[i] for c, v in zip(coeffs, basis.vectors)) for i in range(basis.r))
        if any(vec):
            yield vec


def test_combination_binomials_are_members():
    basis = examples.twisted_cubic_basis()
    I = lattice_ideal(R4, basis)
    for w in combinations(basis):
        assert ideal_member(binomial(R4, w), I)


def test_basis_order_and_unimodular_invariance():
    v1, v2 = (1, -2, 1, 0), (0, 1, -2, 1)
    reference = lattice_ideal(R4, LatticeBasis((v1, v2))).groebner_basis()
    swapped = lattice_ideal(R4, LatticeBasis((v2, v1))).groebner_basis()
    assert swapped == reference
    # determinant +-1 transforms of the basis span the same lattice
    sum_first = tuple(a + b for a, b in zip(v1, v2))
    assert lattice_ideal(R4, LatticeBasis((sum_first, v2))).groebner_basis() == reference
    neg = tuple(-a for a in v1)
    diff = tuple(a - b for a, b in zip(v2, v1))
    assert lattice_ideal(R4, LatticeBasis((neg, diff))).groebner_basis() == reference


def rnc_basis(r):
    return LatticeBasis(tuple(
        tuple({i: 1, i + 1: -2, i + 2: 1}.get(k, 0) for k in range(r)) for i in range(r - 2)))


def test_nonnegative_vector_examples():
    u = nonnegative_vector(lattice_ideal(R2, LatticeBasis(((1, 0), (0, 1)))))
    assert u is not None and any(u) and min(u) >= 0
    assert nonnegative_vector(lattice_ideal(R4, examples.twisted_cubic_basis())) is None
    for r in (5, 6, 7):
        ring = Ring(tuple(f"x{i}" for i in range(1, r + 1)))
        assert nonnegative_vector(lattice_ideal(ring, rnc_basis(r))) is None
    # (1, 0) = 3*(3, -1) + (-8, 3): no basis vector and no sum of two is nonnegative
    assert nonnegative_vector(lattice_ideal(R2, LatticeBasis(((3, -1), (-8, 3))))) == (1, 0)


def rref(rows):
    """Reduced row echelon form over QQ, with its pivot columns."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(rows[0])):
        k = len(pivots)
        pr = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[k], rows[pr] = rows[pr], rows[k]
        rows[k] = [x / rows[k][col] for x in rows[k]]
        for i in range(len(rows)):
            factor = rows[i][col]
            if i != k and factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
        pivots.append(col)
    return rows, pivots


def in_lattice(w, basis) -> bool:
    """w is an integer combination of the independent basis vectors."""
    n = len(basis.vectors)
    rows, pivots = rref([[v[i] for v in basis.vectors] + [w[i]] for i in range(basis.r)])
    return n not in pivots and all(rows[j][n].denominator == 1 for j in range(n))


def random_bases(seed, count):
    rng = random.Random(seed)
    while count:
        r = rng.randint(2, 5)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(r))
                   for _ in range(rng.randint(1, r - 1))]
        if len(rref(vectors)[1]) == len(vectors):
            count -= 1
            yield LatticeBasis(tuple(vectors))


@pytest.mark.parametrize("field", [QQ, Fp(7)], ids=["QQ", "F7"])
def test_nonnegative_vector_against_bounded_enumeration(field):
    found = 0
    for basis in random_bases(61, 100):
        ring = Ring(tuple(f"x{i}" for i in range(1, basis.r + 1)), field)
        I = lattice_ideal(ring, basis)
        u = nonnegative_vector(I)
        if any(min(w) >= 0 for w in combinations(basis)):
            assert u is not None
        if u is None:
            continue
        found += 1
        assert any(u) and min(u) >= 0
        assert in_lattice(u, basis)
        assert ideal_member(binomial(ring, u), I)
    assert found


def test_basis_validation():
    with pytest.raises(LatticeError):
        LatticeBasis(())
    with pytest.raises(LatticeError):
        LatticeBasis(((0, 0),))
    with pytest.raises(LatticeError):
        LatticeBasis(((1, -1), (1, -1, 0)))
    with pytest.raises(LatticeError):
        lattice_ideal(R2, LatticeBasis(((1, -2, 1),)))


# --- fiber shape -----------------------------------------------------------------

def test_fiber_shape_accepts_constructed_fixture():
    assert fiber_spec_check(examples.spec("example-fiber-shape"))


def test_fiber_shape_rejects_non_variable_entries():
    # the scroll entry x - u is not a plain variable
    assert not fiber_spec_check(examples.spec("example-curve-2"))


def test_fiber_shape_rejects_two_block_scrolls():
    assert not fiber_spec_check(examples.spec("example-qprime"))
