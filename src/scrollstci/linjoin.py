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
  (f) the intersection of the (Q_j), j < k, inside (P_k, D_{k-1}),

plus direct-sum rank checks, and it records the hypothesis flags needed by
the generator-synthesis theorems (single-block scrolls; a row of each block
inside the relevant spans).  Every check is linear algebra.  (P_k, D_{k-1})
is generated by linear forms, hence prime, so by prime avoidance (f) holds iff
some Q_j, j < k, lies in span(P_k, D_{k-1}); an empty Q_j is the zero ideal.

The spec owns its spans: ``TwoLinearSpec.span(forms)`` row-reduces each tuple
of forms once, and every rank and containment question asked here and in
``synth`` goes through it, so a space shared by two checks (Q_i, or
P_k + D_{k-1} in (f) and ``projdim``) is reduced once per spec.  (d) and (e)
take one residual per scroll entry against the spec's span, and the row flags
read the same residuals; the case analysis of ``classify_modulo`` is not run.

The intersection J_1 ∩ ... ∩ J_l of the component ideals is certified, not
computed, where the spec allows.  One fold (``_fold``) builds it and the
product presentation together, taking each scroll's minors once: it starts
from J_1 and, at step k, proves the candidate
I_k = minors(B_1..B_k) + sum_{j=2..k} Delta_j*P_j + D_k equal to the fold so
far ∩ J_k by normal forms and Hilbert series
(``oracle.certify_intersection``).  Elimination (``oracle.intersect``) takes
over from the first step whose candidate is refused.  ``intersection_ideal``
returns the fold's ideal; ``full_ideal`` validates, then compares it with the
fold's presentation.  For a spec that passes ``validate`` the candidates
normally hold; ``validate`` accepts a few on which one does not, and
``full_ideal`` refuses those.

``projdim`` evaluates max_i dim(P_i + D_{i-1}) - 1 for i = 2..l, which equals
the projective dimension of the quotient by the intersection when the spec
passes ``validate``; it does not validate.  ``cohom_dim`` validates, then
reports the same number as the cohomological dimension when every M_i is a
set-theoretic complete intersection by a known route, and ``ara_upper_bound``
evaluates projdim + sum_i (ara M_i - cbar_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Sequence

from . import oracle
from .oracle import IdealHandle
from .poly import LinearSpan, Polynomial, Ring, ScrollstciError, is_linear_form
from .scroll import ScrollMatrix, has_minors, rows_in_span, scroll_ara_facts, span_containment


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
    """Ordered component list over one ring; components are 1-based.

    ``span(forms)`` answers every rank and containment question about the
    spec's linear spaces; each tuple of forms is row-reduced once.
    """

    ring: Ring
    components: tuple[ComponentSpec, ...]
    _spans: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

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

    def span(self, forms: Sequence[Polynomial]) -> LinearSpan:
        """The row-reduced span of ``forms``; written once per tuple, like
        ``IdealHandle``'s caches."""
        forms = tuple(forms)
        cached = self._spans.get(forms)
        if cached is None:
            cached = self._spans.setdefault(forms, LinearSpan(self.ring, forms))
        return cached

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
        from .poly import json_list, parse

        ring = Ring.from_json(obj["ring"])

        def forms(doc, key, absent=None):
            if key not in doc:
                return absent
            return tuple(parse(ring, s)
                         for s in json_list(doc[key], f"polynomial strings in {key!r}"))

        comps = []
        for doc in json_list(obj["components"], "spec components in 'components'"):
            scroll = None
            if doc.get("scroll") is not None:
                scroll = ScrollMatrix.from_json(ring, doc["scroll"])
            comps.append(ComponentSpec(
                scroll=scroll,
                delta=forms(doc, "delta", ()),
                p_forms=forms(doc, "p", ()),
                tilde_delta=forms(doc, "tilde_delta"),
                tilde_p=forms(doc, "tilde_p"),
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
    three together are the hypotheses of exact synthesis.  ``rows`` maps (i,)
    and (i, j), for each B_i with minors, to the first row of B_i inside
    span(Delta_i) or span(P_j) (1 or 2, else None); not in JSON.
    """

    single_block: bool = True
    rows_in_delta: bool = True
    rows_in_p: bool = True
    failures: list[str] = dc_field(default_factory=list)
    rows: dict[tuple[int, ...], int | None] = dc_field(default_factory=dict)

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


def validate(spec: TwoLinearSpec) -> ValidationReport:
    """Check the linearly-joined conditions; failures are reported, not thrown."""
    failures: list[ValidationFailure] = []

    def fail(condition, indices, witness, message):
        failures.append(ValidationFailure(condition, tuple(indices), witness, message))

    def dim(forms):
        return spec.span(forms).dim

    # structure: P_1 = 0 and no Delta on component 1; independence ranks
    first = spec.component(1)
    if first.p_forms:
        fail("structure", (1,), str(first.p_forms[0]), "component 1 must have no P forms")
    if first.delta:
        fail("structure", (1,), str(first.delta[0]), "component 1 must have no Delta forms")
    for i in range(1, spec.l + 1):
        comp = spec.component(i)
        if dim(comp.delta) != len(comp.delta):
            fail("structure", (i,), None, f"Delta basis of component {i} is dependent")
        if dim(comp.p_forms) != len(comp.p_forms):
            fail("structure", (i,), None, f"P basis of component {i} is dependent")
        if comp.scroll is not None:
            # dependent entries always meet the linear part: ask their rank only then
            entries = tuple(comp.scroll.all_entries())
            if dim(entries + spec.q_space(i)) != len(entries) + dim(spec.q_space(i)):
                if dim(entries) != len(entries):
                    fail("structure", (i,), None,
                         f"scroll entries of component {i} are linearly dependent")
                fail("structure", (i,), None,
                     f"scroll entries of component {i} meet its linear part")

    # direct sums: D_1 = (+) Delta_j and Q_i = D_i (+) P_i
    if dim(spec.d_space(1)) != sum(dim(spec.delta(j)) for j in range(2, spec.l + 1)):
        fail("direct_sum", (), None, "the Delta_j do not form a direct sum")
    for i in range(1, spec.l + 1):
        if dim(spec.q_space(i)) != dim(spec.d_space(i)) + dim(spec.p(i)):
            fail("direct_sum", (i,), None, f"D_{i} and P_{i} overlap")

    # (d) and (e): the minors of B_i inside (Delta_i), i >= 2, and inside
    # (P_j), i < j; their residuals also give the first row of B_i inside each span
    questions = [("d", (i,), spec.delta(i), f"Delta_{i}") for i in range(2, spec.l + 1)]
    questions += [("e", (i, j), spec.p(j), f"P_{j}")
                  for i in range(1, spec.l + 1) for j in range(i + 1, spec.l + 1)]
    rows: dict[tuple[int, ...], int | None] = {}
    for condition, indices, forms, name in questions:
        scroll = spec.component(indices[0]).scroll
        if not has_minors(scroll):
            continue
        residuals, witness = span_containment(scroll, spec.span(forms))
        rows[indices] = next((w for w, ok in zip((1, 2), rows_in_span(residuals)) if ok), None)
        if witness is not None:
            fail(condition, indices, str(witness),
                 f"minors of component {indices[0]} are not inside ({name})")

    # (f) by prime avoidance: some Q_j inside span(P_k, D_{k-1}), else the
    # product of one form off the span from each Q_j is a witness
    for k in range(2, spec.l + 1):
        target = spec.span(spec.p(k) + spec.d_space(k - 1))
        off = [next((g for g in spec.q_space(j) if not target.contains(g)), None)
               for j in range(1, k)]
        if all(g is not None for g in off):
            fail("f", (k,), str(math.prod(dict.fromkeys(off))),
                 f"intersection of (Q_1)..(Q_{k-1}) is not inside (P_{k}, D_{k-1})")

    # hypothesis flags for the synthesis theorems; rows are tried 1 then 2
    hyp = AraHypotheses(rows=rows)
    for i in range(1, spec.l + 1):
        scroll = spec.component(i).scroll
        if scroll is None:
            continue
        if len(scroll.blocks) > 1:
            hyp.single_block = False
            hyp.failures.append(f"component {i}: scroll has {len(scroll.blocks)} blocks")
        if not has_minors(scroll):
            continue
        if i >= 2:
            if rows[i,] is None:
                hyp.rows_in_delta = False
                hyp.failures.append(f"component {i}: no scroll row inside (Delta_{i})")
        for j in range(i + 1, spec.l + 1):
            if rows[i, j] is None:
                hyp.rows_in_p = False
                hyp.failures.append(f"component {i}: no scroll row inside (P_{j})")

    conditions = {c: not any(f.condition == c for f in failures)
                  for c in ("structure", "direct_sum", "d", "e", "f")}
    return ValidationReport(ok=not failures, conditions=conditions, failures=failures,
                            ara_hypotheses=hyp)


def require_valid(spec: TwoLinearSpec,
                  error: type[ScrollstciError] = SpecValidationError) -> ValidationReport:
    """The report of :func:`validate`; raises ``error`` listing the failures if any."""
    report = validate(spec)
    if not report.ok:
        msgs = "; ".join(f.message for f in report.failures)
        raise error(f"spec fails validation: {msgs}")
    return report


def _minors(spec: TwoLinearSpec, i: int) -> list[Polynomial]:
    """The 2x2 minors of B_i; none for a null scroll or a single column."""
    from .scroll import minors_2x2

    scroll = spec.component(i).scroll
    return minors_2x2(scroll) if has_minors(scroll) else []


def component_ideal(spec: TwoLinearSpec, i: int) -> IdealHandle:
    """J_i = (minors of B_i) + D_i + P_i."""
    return IdealHandle(spec.ring, _minors(spec, i) + list(spec.q_space(i)))


def _fold(spec: TwoLinearSpec) -> tuple[IdealHandle, list[Polynomial]]:
    """J_1 ∩ ... ∩ J_l, folded left to right from J_1, and the presentation
    (the scroll minors, then the Delta_j x P_j products, j = 2..l); each
    component's minors are taken once, for J_k and the presentation alike.

    Step k tries the candidate I_k = minors(B_1..B_k) + sum_{j=2..k}
    Delta_j*P_j + D_k and keeps it when ``oracle.certify_intersection``
    proves it equal to the fold so far ∩ J_k.  On the specs the CLI sees,
    the leading terms of I_k's generators and of the cached bases of the two
    ideals give the proof, so no step runs Buchberger on I_k or on their
    sum, and I_k keeps the interreduction of its generators as its basis.
    Otherwise the step computes that intersection by elimination, and so do
    the later steps, which try no candidate: on a spec the presentation does
    not fit, each refused candidate is work thrown away.  When every step
    holds, the result is I_l, whose generators are the presentation's, with
    its degrevlex basis cached.
    """
    minors = _minors(spec, 1)
    acc = IdealHandle(spec.ring, minors + list(spec.q_space(1)))
    products: list[Polynomial] = []
    certifying = True
    for k in range(2, spec.l + 1):
        minors_k = _minors(spec, k)
        J_k = IdealHandle(spec.ring, minors_k + list(spec.q_space(k)))
        minors += minors_k
        products += [f * g for f in spec.delta(k) for g in spec.p(k)]
        if certifying:
            candidate = IdealHandle(spec.ring, minors + products + list(spec.d_space(k)))
            certifying = oracle.certify_intersection(candidate, acc, J_k)
        acc = candidate if certifying else oracle.intersect(acc, J_k)
    return acc, minors + products


def intersection_ideal(spec: TwoLinearSpec) -> IdealHandle:
    """J_1 ∩ ... ∩ J_l, certified or eliminated step by step (see :func:`_fold`)."""
    return _fold(spec)[0]


def full_ideal(spec: TwoLinearSpec) -> IdealHandle:
    """All scroll minors plus the Delta x P products, certified equal to the
    intersection of the component ideals; a mismatch raises.

    The spec is validated first.  One :func:`_fold` gives both the
    intersection and the presentation; when its last step certifies the
    presentation, the fold's handle, basis cached, is the result.
    Otherwise the two are compared by their reduced bases.
    """
    require_valid(spec)
    inter, presentation = _fold(spec)
    handle = IdealHandle(spec.ring, presentation)
    if inter.generators == handle.generators:
        return inter
    if handle.groebner_basis() != inter.groebner_basis():
        raise SpecValidationError(
            "generated ideal differs from the intersection of the components")
    return handle


def projdim(spec: TwoLinearSpec) -> int:
    """max over i = 2..l of dim(P_i + D_{i-1}) - 1.

    The formula is evaluated without validating the spec, so the value is the
    projective dimension only for a spec that passes :func:`validate`.  That
    is on purpose: a ``validate`` costs about twice the formula, and callers
    that need the theorem value (``cohom_dim``, ``ara_upper_bound``,
    ``synthesize``) have validated already.
    """
    if spec.l < 2:
        raise SpecValidationError(
            "single component: use the scroll facts (projective dimension r-1) instead")
    return max(spec.span(spec.p(i) + spec.d_space(i - 1)).dim for i in range(2, spec.l + 1)) - 1


class CohomDim(NamedTuple):
    value: int
    note: str


def cohom_dim(spec: TwoLinearSpec) -> CohomDim:
    """Cohomological dimension, reported through the structure theorem.

    Requires every M_i to be a set-theoretic complete intersection by a known
    route, i.e. its known arithmetical rank equals its height (r - 1 for r
    columns, 0 without minors); the value then equals ``projdim``.  A spec
    that fails :func:`validate` is refused first, since the theorem does not
    apply to it.  Never computed from local cohomology.
    """
    require_valid(spec)
    for i in range(1, spec.l + 1):
        scroll = spec.component(i).scroll
        facts = scroll_ara_facts(scroll)
        height = scroll.ncols - 1 if has_minors(scroll) else 0
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
