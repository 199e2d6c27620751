"""The span of linear forms as it was before it kept sparse rows.

Each form becomes a dense coefficient list with one scalar per ring
variable, the lists are brought to reduced row echelon form column by column
(`_rref`), and a residual reduces a dense list against every row and builds
its polynomial back with `linear_form`.  `scrollstci.poly.LinearSpan` must
give the same rank, the same membership verdicts and the same residuals, with
the same coefficient classes and term order, and the same exception type and
message on bad input; `tests/test_span_differential.py` checks it against
this one.  `proportional` is the dense test of f == a*g that
`scrollstci.poly.proportional` replaced, checked there the same way.
"""

from typing import Iterable

from scrollstci.poly import (
    FieldSpec,
    Polynomial,
    Ring,
    RingMismatchError,
    ScrollstciError,
    is_linear_form,
    linear_form,
)


def linear_coeffs(p: Polynomial) -> tuple:
    """Coefficient vector of a linear form, one scalar per ring variable."""
    if not is_linear_form(p):
        raise ScrollstciError(f"not a linear form: {p}")
    out = [p.ring.field.zero] * p.ring.arity
    for mono, coeff in p._terms.items():
        out[mono.index(1)] = coeff
    return tuple(out)


def proportional(f: Polynomial, g: Polynomial):
    """Scalar a with f == a*g, or None when no such scalar exists."""
    f._check_ring(g)
    if g.is_zero():
        return None
    cf, cg = linear_coeffs(f), linear_coeffs(g)
    field = f.ring.field
    pivot = next(i for i, c in enumerate(cg) if c != 0)
    if cf[pivot] == 0 and not f.is_zero():
        return None
    alpha = field.div(cf[pivot], cg[pivot]) if cf[pivot] != 0 else field.zero
    for a, b in zip(cf, cg):
        if a != field.mul(alpha, b):
            return None
    return alpha


def _rref(rows: list[list], field: FieldSpec) -> tuple[list[list], list[int]]:
    """Reduced row echelon form with exact arithmetic; returns (rows, pivots)."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][col])
        work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                c = work[i][col]
                work[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


class LinearSpan:
    """Row-reduced span of linear forms; exact rank, membership, residuals.

    The complement used for residuals is the span of the coordinates that are
    not pivotal in the reduced row echelon form, which makes the decomposition
    ``form = projection + residual`` deterministic.
    """

    def __init__(self, ring: Ring, forms: Iterable[Polynomial]):
        self.ring = ring
        self.forms = tuple(forms)
        for f in self.forms:
            if f.ring != ring:
                raise RingMismatchError("span forms must live in the given ring")
        rows = [list(linear_coeffs(f)) for f in self.forms if not f.is_zero()]
        self._rows, self._pivots = _rref(rows, ring.field)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def residual(self, form: Polynomial) -> Polynomial:
        """The component of ``form`` off this span (zero iff contained)."""
        if form.ring != self.ring:
            raise RingMismatchError("form lives in a different ring")
        field = self.ring.field
        coeffs = list(linear_coeffs(form))
        for row, piv in zip(self._rows, self._pivots):
            c = coeffs[piv]
            if c != 0:
                coeffs = [field.sub(x, field.mul(c, y)) for x, y in zip(coeffs, row)]
        return linear_form(self.ring, coeffs)

    def contains(self, form: Polynomial) -> bool:
        return self.residual(form).is_zero()

    def contains_all(self, forms: Iterable[Polynomial]) -> bool:
        return all(self.contains(f) for f in forms)
