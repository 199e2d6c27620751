"""Lattice (binomial) ideals from integer lattice bases.

The ideal of a lattice L in Z^r is generated by the binomials
x^{v+} - x^{v-} for every v in L; from a basis this is realized as the
saturation of the basis binomials by the product of all variables, which
certifies its own Groebner basis; ``nonnegative_vector`` reads off that ideal
whether L holds a nonzero nonnegative vector, exactly.  The bridge back to
the scroll world: the twisted-cubic basis yields exactly the minor ideal of a
one-block scroll on four variables.

``fiber_spec_check`` recognizes specifications with the shape that fiber
cones of codimension-two lattice ideals take: one-block scrolls with distinct
variable entries and variable-spanned linear parts.  For such specifications
the synthesis certificate realizes the set-theoretic-complete-intersection
statement on the instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linjoin import TwoLinearSpec
from .oracle import IdealHandle, saturate
from .poly import Polynomial, Ring, ScrollstciError, is_variable, json_int


class LatticeError(ScrollstciError):
    pass


@dataclass(frozen=True)
class LatticeBasis:
    """Nonzero integer vectors of one common length r."""

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        vecs = tuple(tuple(json_int(x, "a basis vector entry") for x in v)
                     for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if not vecs:
            raise LatticeError("empty lattice basis")
        r = len(vecs[0])
        for v in vecs:
            if len(v) != r:
                raise LatticeError("basis vectors must share one length")
            if all(x == 0 for x in v):
                raise LatticeError("basis vectors must be nonzero")

    @property
    def r(self) -> int:
        return len(self.vectors[0])


def binomial(ring: Ring, v) -> Polynomial:
    """x^{v+} - x^{v-} for v = v+ - v- with disjoint nonnegative supports."""
    v = tuple(v)
    if len(v) != ring.arity:
        raise LatticeError("vector length must equal the ring arity")
    if all(x == 0 for x in v):
        raise LatticeError("zero vector has no binomial")
    plus = tuple(max(x, 0) for x in v)
    minus = tuple(max(-x, 0) for x in v)
    return ring.monomial(plus) - ring.monomial(minus)


def lattice_ideal(ring: Ring, basis: LatticeBasis) -> IdealHandle:
    """I_L: the saturation of the basis binomials by the product of all variables.

    ``saturate`` certifies its Groebner basis, so the result contains the
    binomial of every vector of L, not just of a sample of them.
    """
    if basis.r != ring.arity:
        raise LatticeError("basis length must equal the ring arity")
    gens = [binomial(ring, v) for v in basis.vectors]
    return saturate(IdealHandle(ring, gens), ring.monomial((1,) * ring.arity))


def nonnegative_vector(I: IdealHandle) -> tuple[int, ...] | None:
    """A nonzero vector of L with no negative entry, read off I = lattice_ideal(L).

    L holds such a vector u iff x^u - 1 lies in I_L, iff I_L is not inside
    (x_1, ..., x_r), iff some generator of I has a nonzero constant term; the
    reduced basis of a lattice ideal consists of binomials, so that generator
    is x^u - 1.  None means L has no such vector.
    """
    one = (0,) * I.ring.arity
    for g in I.generators:
        if one in g.monomials():
            return next(m for m in g.monomials() if m != one)
    return None


def fiber_spec_check(spec: TwoLinearSpec) -> bool:
    """True iff the spec has the fiber-cone shape.

    Every scroll has exactly one block with pairwise distinct variable
    entries, and every Delta/P form is a plain ring variable (so each linear
    part is spanned by a subset of the coordinates).
    """
    for i in range(1, spec.l + 1):
        comp = spec.component(i)
        if comp.scroll is not None:
            if len(comp.scroll.blocks) != 1:
                return False
            entries = comp.scroll.blocks[0].entries
            if not all(is_variable(e) for e in entries):
                return False
            if len(set(entries)) != len(entries):
                return False
        forms = comp.delta + comp.p_forms
        if not all(is_variable(f) for f in forms):
            return False
        if len(set(forms)) != len(forms):
            return False
    return True
