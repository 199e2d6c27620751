"""Linearly joined component data and the derived numerical invariants.

A specification lists components (M_i, Delta_i, P_i): an optional scroll
matrix whose minors generate M_i, and two lists of linear forms.  The derived
spaces are D_i = Delta_{i+1} (+) ... (+) Delta_l (so D_l = 0) and
Q_i = D_i (+) P_i; component ideal i is (minors of B_i) + Q_i.  P_1 = 0 and
component 1 carries no Delta by convention.

``validate`` checks the structural conditions that make the intersection of
the component ideals an ideal with a 2-linear resolution:

  (d) M_i inside (Delta_i) for i >= 2,
  (e) M_i inside (P_j) for i < j,
  (f) the running intersection of the (Q_j), j < k, inside (P_k, D_{k-1}),

plus direct-sum rank checks, and it records the hypothesis flags needed by
the generator-synthesis theorems (single-block scrolls; a row of each block
inside the relevant spans).

``projdim`` evaluates max_i dim(P_i + D_{i-1}) - 1 for i = 2..l, which equals
the projective dimension of the quotient by the intersection; ``cohom_dim``
reports the same number as the cohomological dimension when every M_i is a
set-theoretic complete intersection by a known route, and ``ara_upper_bound``
evaluates projdim + sum_i (ara M_i - cbar_i).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Sequence

from . import oracle
from .oracle import IdealHandle, intersect
from .poly import (
    LinearSpan,
    Polynomial,
    Ring,
    ScrollstciError,
    is_linear_form,
    linear_span_dim,
)
from .scroll import ScrollBlock, ScrollMatrix, classify_modulo, scroll_ara_facts


class SpecValidationError(ScrollstciError):
    """A component specification violates its structural contract."""


@dataclass(frozen=True)
class ComponentSpec:
    """(scroll, Delta_i, P_i) for one component; tilde fields override the
    default ordered bases used by generator synthesis."""

    scroll: ScrollMatrix | None = None
    delta: tuple[Polynomial, ...] = ()
    p_forms: tuple[Polynomial, ...] = ()
    tilde_delta: tuple[Polynomial, ...] | None = None
    tilde_p: tuple[Polynomial, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", tuple(self.delta))
        object.__setattr__(self, "p_forms", tuple(self.p_forms))
        if self.tilde_delta is not None:
            object.__setattr__(self, "tilde_delta", tuple(self.tilde_delta))
        if self.tilde_p is not None:
            object.__setattr__(self, "tilde_p", tuple(self.tilde_p))


@dataclass(frozen=True)
class TwoLinearSpec:
    """Ordered component list over one ring; components are 1-based."""

    ring: Ring
    components: tuple[ComponentSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ScrollstciError("need at least one component")
        for comp in self.components:
            for f in comp.delta + comp.p_forms:
                if f.ring != self.ring:
                    raise ScrollstciError("component forms must live in the spec ring")
                if not is_linear_form(f) or f.is_zero():
                    raise ScrollstciError(f"component forms must be nonzero linear forms: {f}")
            if comp.scroll is not None and comp.scroll.ring != self.ring:
                raise ScrollstciError("scroll lives in a different ring")

    @property
    def l(self) -> int:
        return len(self.components)

    def component(self, i: int) -> ComponentSpec:
        if not 1 <= i <= self.l:
            raise ScrollstciError(f"component index {i} out of range 1..{self.l}")
        return self.components[i - 1]

    def delta(self, i: int) -> tuple[Polynomial, ...]:
        return self.component(i).delta

    def p(self, i: int) -> tuple[Polynomial, ...]:
        return self.component(i).p_forms

    def d_space(self, i: int) -> tuple[Polynomial, ...]:
        """D_i = Delta_{i+1} (+) ... (+) Delta_l; empty for i = l."""
        out: list[Polynomial] = []
        for j in range(i + 1, self.l + 1):
            out.extend(self.delta(j))
        return tuple(out)

    def q_space(self, i: int) -> tuple[Polynomial, ...]:
        return self.d_space(i) + self.p(i)

    def to_json(self):
        comps = []
        for comp in self.components:
            doc = {
                "scroll": None if comp.scroll is None else comp.scroll.to_json(),
                "delta": [str(f) for f in comp.delta],
                "p": [str(f) for f in comp.p_forms],
            }
            if comp.tilde_delta is not None:
                doc["tilde_delta"] = [str(f) for f in comp.tilde_delta]
            if comp.tilde_p is not None:
                doc["tilde_p"] = [str(f) for f in comp.tilde_p]
            comps.append(doc)
        return {"ring": self.ring.to_json(), "components": comps}

    @staticmethod
    def from_json(obj) -> "TwoLinearSpec":
        from .poly import parse

        ring = Ring.from_json(obj["ring"])
        comps = []
        for doc in obj["components"]:
            scroll = None
            if doc.get("scroll"):
                scroll = ScrollMatrix.from_json(ring, doc["scroll"])
            comps.append(ComponentSpec(
                scroll=scroll,
                delta=tuple(parse(ring, s) for s in doc.get("delta", [])),
                p_forms=tuple(parse(ring, s) for s in doc.get("p", [])),
                tilde_delta=(tuple(parse(ring, s) for s in doc["tilde_delta"])
                             if "tilde_delta" in doc else None),
                tilde_p=(tuple(parse(ring, s) for s in doc["tilde_p"])
                         if "tilde_p" in doc else None),
            ))
        return TwoLinearSpec(ring, tuple(comps))


@dataclass
class ValidationFailure:
    condition: str
    indices: tuple[int, ...]
    witness: str | None
    message: str

    def to_json(self):
        return {
            "condition": self.condition,
            "indices": list(self.indices),
            "witness": self.witness,
            "message": self.message,
        }


@dataclass
class AraHypotheses:
    """Hypothesis flags for the synthesis theorems.

    ``single_block``: every scroll is null or has exactly one block.
    ``rows_in_delta``: for i >= 2, some row of B_i lies in span(Delta_i).
    ``rows_in_p``: for i < j, some row of B_i lies in span(P_j).
    The row flags alone are the hypotheses of the summed upper bound; all
    three together are the hypotheses of exact synthesis.
    """

    single_block: bool = True
    rows_in_delta: bool = True
    rows_in_p: bool = True
    failures: list[str] = dc_field(default_factory=list)

    @property
    def synthesis_ok(self) -> bool:
        return self.single_block and self.rows_in_delta and self.rows_in_p

    @property
    def upper_bound_ok(self) -> bool:
        return self.rows_in_delta and self.rows_in_p

    def to_json(self):
        return {
            "single_block": self.single_block,
            "rows_in_delta": self.rows_in_delta,
            "rows_in_p": self.rows_in_p,
            "failures": list(self.failures),
        }


@dataclass
class ValidationReport:
    ok: bool
    conditions: dict
    failures: list[ValidationFailure]
    ara_hypotheses: AraHypotheses

    def to_json(self):
        return {
            "ok": self.ok,
            "conditions": dict(self.conditions),
            "failures": [f.to_json() for f in self.failures],
            "ara_hypotheses": self.ara_hypotheses.to_json(),
        }


def _scroll_has_minors(scroll: ScrollMatrix | None) -> bool:
    return scroll is not None and scroll.ncols >= 2


def _row_in_span(scroll: ScrollMatrix | ScrollBlock,
                 forms: Sequence[Polynomial]) -> int | None:
    """1-based index of a full row inside span(forms), preferring row 1."""
    span = LinearSpan(scroll.ring, forms)
    for which in (1, 2):
        if span.contains_all(scroll.row(which)):
            return which
    return None


def validate(spec: TwoLinearSpec) -> ValidationReport:
    """Check the linearly-joined conditions; failures are reported, not thrown."""
    failures: list[ValidationFailure] = []
    conditions: dict = {}

    def fail(condition, indices, witness, message):
        failures.append(ValidationFailure(condition, tuple(indices), witness, message))

    # structure: P_1 = 0 and no Delta on component 1; independence ranks
    first = spec.component(1)
    if first.p_forms:
        fail("structure", (1,), str(first.p_forms[0]), "component 1 must have no P forms")
    if first.delta:
        fail("structure", (1,), str(first.delta[0]), "component 1 must have no Delta forms")
    for i in range(1, spec.l + 1):
        comp = spec.component(i)
        if len(set(comp.delta)) != len(comp.delta) or (
            comp.delta and linear_span_dim(comp.delta, spec.ring) != len(comp.delta)
        ):
            fail("structure", (i,), None, f"Delta basis of component {i} is dependent")
        if len(set(comp.p_forms)) != len(comp.p_forms) or (
            comp.p_forms and linear_span_dim(comp.p_forms, spec.ring) != len(comp.p_forms)
        ):
            fail("structure", (i,), None, f"P basis of component {i} is dependent")
        if comp.scroll is not None:
            if not comp.scroll.is_standard_form():
                fail("structure", (i,), None,
                     f"scroll entries of component {i} are linearly dependent")
            entries = comp.scroll.all_entries()
            combined = entries + list(spec.q_space(i))
            if linear_span_dim(combined, spec.ring) != len(entries) + linear_span_dim(
                spec.q_space(i), spec.ring
            ):
                fail("structure", (i,), None,
                     f"scroll entries of component {i} meet its linear part")

    # direct sums: D_1 = (+) Delta_j and Q_i = D_i (+) P_i
    all_delta = [f for j in range(2, spec.l + 1) for f in spec.delta(j)]
    delta_dims = sum(linear_span_dim(spec.delta(j), spec.ring) for j in range(2, spec.l + 1))
    if linear_span_dim(all_delta, spec.ring) != delta_dims:
        fail("direct_sum", (), None, "the Delta_j do not form a direct sum")
    for i in range(1, spec.l + 1):
        d = spec.d_space(i)
        p = spec.p(i)
        if linear_span_dim(d + p, spec.ring) != linear_span_dim(d, spec.ring) + \
                linear_span_dim(p, spec.ring):
            fail("direct_sum", (i,), None, f"D_{i} and P_{i} overlap")
    conditions["structure"] = not any(f.condition == "structure" for f in failures)
    conditions["direct_sum"] = not any(f.condition == "direct_sum" for f in failures)

    # (d): minors of B_i inside (Delta_i), i >= 2
    ok_d = True
    for i in range(2, spec.l + 1):
        scroll = spec.component(i).scroll
        if not _scroll_has_minors(scroll):
            continue
        result = classify_modulo(scroll, list(spec.delta(i)))
        if not result.contained:
            ok_d = False
            fail("d", (i,), str(result.witness_minor),
                 f"minors of component {i} are not inside (Delta_{i})")
    conditions["d"] = ok_d

    # (e): minors of B_i inside (P_j) for i < j
    ok_e = True
    for i in range(1, spec.l + 1):
        scroll = spec.component(i).scroll
        if not _scroll_has_minors(scroll):
            continue
        for j in range(i + 1, spec.l + 1):
            result = classify_modulo(scroll, list(spec.p(j)))
            if not result.contained:
                ok_e = False
                fail("e", (i, j), str(result.witness_minor),
                     f"minors of component {i} are not inside (P_{j})")
    conditions["e"] = ok_e

    # (f): running intersection of the (Q_j) inside (P_k, D_{k-1})
    ok_f = True
    running: IdealHandle | None = None
    for k in range(2, spec.l + 1):
        q_prev = spec.q_space(k - 1)
        prev_handle = IdealHandle(spec.ring, q_prev)
        running = prev_handle if running is None else intersect(running, prev_handle)
        target = IdealHandle(spec.ring, spec.p(k) + spec.d_space(k - 1))
        for g in running.generators:
            if not target.contains(g):
                ok_f = False
                fail("f", (k,), str(g),
                     f"intersection of (Q_1)..(Q_{k-1}) is not inside (P_{k}, D_{k-1})")
                break
    conditions["f"] = ok_f

    # hypothesis flags for the synthesis theorems
    hyp = AraHypotheses()
    for i in range(1, spec.l + 1):
        scroll = spec.component(i).scroll
        if scroll is None:
            continue
        if len(scroll.blocks) > 1:
            hyp.single_block = False
            hyp.failures.append(f"component {i}: scroll has {len(scroll.blocks)} blocks")
        if not _scroll_has_minors(scroll):
            continue
        if i >= 2 and _row_in_span(scroll, spec.delta(i)) is None:
            hyp.rows_in_delta = False
            hyp.failures.append(f"component {i}: no scroll row inside (Delta_{i})")
        for j in range(i + 1, spec.l + 1):
            if _row_in_span(scroll, spec.p(j)) is None:
                hyp.rows_in_p = False
                hyp.failures.append(f"component {i}: no scroll row inside (P_{j})")

    ok = not failures
    return ValidationReport(ok=ok, conditions=conditions, failures=failures,
                            ara_hypotheses=hyp)


def require_valid(spec: TwoLinearSpec,
                  error: type[ScrollstciError] = SpecValidationError) -> ValidationReport:
    """The report of :func:`validate`; raises ``error`` listing the failures if any."""
    report = validate(spec)
    if not report.ok:
        msgs = "; ".join(f.message for f in report.failures)
        raise error(f"spec fails validation: {msgs}")
    return report


def component_ideal(spec: TwoLinearSpec, i: int) -> IdealHandle:
    """J_i = (minors of B_i) + D_i + P_i."""
    from .scroll import minors_2x2

    comp = spec.component(i)
    gens: list[Polynomial] = []
    if _scroll_has_minors(comp.scroll):
        gens.extend(minors_2x2(comp.scroll))
    gens.extend(spec.d_space(i))
    gens.extend(spec.p(i))
    return IdealHandle(spec.ring, gens)


def intersection_ideal(spec: TwoLinearSpec) -> IdealHandle:
    return oracle.intersect_many([component_ideal(spec, i) for i in range(1, spec.l + 1)])


def product_generators(spec: TwoLinearSpec) -> list[Polynomial]:
    """All products f*g with f in Delta_j, g in P_j, j = 2..l."""
    out: list[Polynomial] = []
    for j in range(2, spec.l + 1):
        for f in spec.delta(j):
            for g in spec.p(j):
                out.append(f * g)
    return out


def full_ideal(spec: TwoLinearSpec, check: bool = True) -> IdealHandle:
    """All scroll minors plus the Delta x P products.

    When ``check`` is set the result is certified Groebner-equal to the
    intersection of the component ideals; a mismatch raises.
    """
    from .scroll import minors_2x2

    require_valid(spec)
    gens: list[Polynomial] = []
    for i in range(1, spec.l + 1):
        scroll = spec.component(i).scroll
        if _scroll_has_minors(scroll):
            gens.extend(minors_2x2(scroll))
    gens.extend(product_generators(spec))
    handle = IdealHandle(spec.ring, gens)
    if check:
        inter = intersection_ideal(spec)
        if handle.groebner_basis() != inter.groebner_basis():
            raise SpecValidationError(
                "generated ideal differs from the intersection of the components")
    return handle


def projdim(spec: TwoLinearSpec) -> int:
    """max over i = 2..l of dim(P_i + D_{i-1}) - 1."""
    if spec.l < 2:
        raise SpecValidationError(
            "single component: use the scroll facts (projective dimension r-1) instead")
    best = None
    for i in range(2, spec.l + 1):
        forms = spec.p(i) + spec.d_space(i - 1)
        value = linear_span_dim(forms, spec.ring) - 1
        best = value if best is None else max(best, value)
    return best


class CohomDim(NamedTuple):
    value: int
    note: str


def cohom_dim(spec: TwoLinearSpec) -> CohomDim:
    """Cohomological dimension, reported through the structure theorem.

    Requires every M_i to be a set-theoretic complete intersection by a known
    route, i.e. its known arithmetical rank equals its height (r - 1 for r
    columns, 0 without minors); the value then equals ``projdim``.  Never
    computed from local cohomology.
    """
    for i in range(1, spec.l + 1):
        scroll = spec.component(i).scroll
        facts = scroll_ara_facts(scroll)
        height = scroll.ncols - 1 if _scroll_has_minors(scroll) else 0
        if facts is None or facts[0] != height:
            raise SpecValidationError(
                f"component {i}: minor ideal is not a known set-theoretic "
                "complete intersection; cohomological dimension unavailable")
    value = projdim(spec)
    return CohomDim(value, "equal to the projective dimension by the "
                           "linearly-joined structure theorem; not computed "
                           "from local cohomology")


def ara_upper_bound(spec: TwoLinearSpec) -> int:
    """projdim + sum_i (ara M_i - cbar_i), under the row hypotheses."""
    report = require_valid(spec)
    if not report.ara_hypotheses.upper_bound_ok:
        msgs = "; ".join(report.ara_hypotheses.failures)
        raise SpecValidationError(f"row hypotheses unmet: {msgs}")
    total = 0
    for i in range(1, spec.l + 1):
        facts = scroll_ara_facts(spec.component(i).scroll)
        if facts is None:
            raise SpecValidationError(
                f"component {i}: arithmetical rank of the minor ideal is unknown")
        ara_i, cbar_i = facts
        total += ara_i - cbar_i
    return projdim(spec) + total
