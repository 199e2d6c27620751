"""Certified generator synthesis for linearly joined specifications.

For a validated specification whose scrolls are single blocks with the row
hypotheses satisfied, this module builds the "tilde" complements

    P_j  = tildeP_j (+) inner_1 (+) ... (+) inner_{j-1}
    Delta_j = tildeDelta_j (+) inner_j

where inner_i is the span of the inner entries of block i, with the required
corner entries kept inside the complements.  The synthesized generator list
is the union of the Verdi generators of every block (c_i polynomials each)
and the anti-diagonal row sums of the product tableau of the pruned linear
ideal  K = U_j (tildeDelta_j x tildeP_j);  the count is

    sum_i c_i + max_j (dim tildeD_{j-1} + dim tildeP_j) - 1

which equals the projective dimension.  Every certificate carries the oracle
verdict: radical equality of the synthesized ideal with the intersection of
the component ideals.

The anti-diagonal row assignment: the global index of a tildeDelta basis form
runs through the concatenation of the tildeDelta bases from component l down
to component 2; a product f*g lands in row  globalindex(f) + index_j(g) - 1.
Each tildeP_j basis is ordered with the forms lying in an earlier tildeDelta
first (ascending component), the remaining forms in listed order, and corner
entries of earlier blocks last; the ordering (overridable per component in
the spec file) changes generator text, never the certified verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linjoin
from .linjoin import TwoLinearSpec, _row_in_span, intersection_ideal
from .oracle import IdealHandle, radical_equal
from .poly import LinearSpan, Polynomial, RingMismatchError, ScrollstciError, linear_span_dim
from .scroll import ScrollBlock, verdi_generators


class SynthesisError(ScrollstciError):
    """The synthesis hypotheses are unmet or a decomposition does not exist."""


@dataclass(frozen=True)
class TildeData:
    """Per-component complements; tuples are 0-indexed by component - 1."""

    spec: TwoLinearSpec
    inner_spans: tuple[tuple[Polynomial, ...], ...]
    tilde_delta: tuple[tuple[Polynomial, ...], ...]
    tilde_p: tuple[tuple[Polynomial, ...], ...]

    @property
    def l(self) -> int:
        return self.spec.l

    def tilde_d_dim(self, j: int) -> int:
        """dim of tildeD_j = tildeDelta_{j+1} (+) ... (+) tildeDelta_l."""
        return sum(len(self.tilde_delta[k - 1]) for k in range(j + 1, self.l + 1))

    def global_delta_basis(self) -> list[tuple[int, Polynomial]]:
        """(component, form) pairs from component l down to 2; 1-based rows."""
        out: list[tuple[int, Polynomial]] = []
        for j in range(self.l, 1, -1):
            for f in self.tilde_delta[j - 1]:
                out.append((j, f))
        return out

    def tableau_row_count(self) -> int:
        """ara of the pruned product ideal: max_j (dim tildeD_{j-1} + dim tildeP_j) - 1."""
        best = 0
        for j in range(2, self.l + 1):
            best = max(best, self.tilde_d_dim(j - 1) + len(self.tilde_p[j - 1]))
        return best - 1 if best else 0


def _single_block(spec: TwoLinearSpec, i: int) -> ScrollBlock | None:
    scroll = spec.component(i).scroll
    if scroll is None or scroll.ncols < 2:
        return None
    return scroll.blocks[0]


def _corner(block: ScrollBlock, forms, message: str) -> Polynomial:
    """Corner of a block row inside span(forms), preferring row 1 and so L0."""
    which = _row_in_span(block, forms)
    if which is None:
        raise SynthesisError(message)
    return block.corners[which - 1]


def _greedy_complement(ring, candidates, inner, target_forms, what: str) -> list[Polynomial]:
    """Pick candidate forms extending span(inner) to span(target_forms)."""
    target_dim = linear_span_dim(list(target_forms), ring)
    target = LinearSpan(ring, target_forms)
    chosen: list[Polynomial] = []
    current = list(inner)
    dim = linear_span_dim(current, ring)
    for cand in candidates:
        if not target.contains(cand):
            raise SynthesisError(f"{what}: required form {cand} is outside the space")
        trial = current + [cand]
        d = linear_span_dim(trial, ring)
        if d > dim:
            chosen.append(cand)
            current = trial
            dim = d
        if dim == target_dim:
            break
    if dim != target_dim:
        raise SynthesisError(f"{what}: complement does not reach the full space")
    return chosen


def tilde_decompose(spec: TwoLinearSpec) -> TildeData:
    """Build the tilde complements; hypotheses are re-validated first."""
    report = linjoin.require_valid(spec, SynthesisError)
    if not report.ara_hypotheses.synthesis_ok:
        msgs = "; ".join(report.ara_hypotheses.failures)
        raise SynthesisError(f"synthesis hypotheses unmet: {msgs}")

    ring = spec.ring
    l = spec.l
    blocks: list[ScrollBlock | None] = [_single_block(spec, i) for i in range(1, l + 1)]
    inner_spans = tuple(
        tuple(b.inner_entries) if b is not None and b.c >= 1 else ()
        for b in blocks
    )

    tilde_delta: list[tuple[Polynomial, ...]] = [()]
    for j in range(2, l + 1):
        comp = spec.component(j)
        delta = comp.delta
        block = blocks[j - 1]
        inner = inner_spans[j - 1]
        corner = None
        if block is not None and block.c >= 1:
            corner = _corner(block, delta, "no block row inside the required span")
        if comp.tilde_delta is not None:
            chosen = list(comp.tilde_delta)
            _check_override(ring, chosen, inner, delta, f"tildeDelta_{j}")
        else:
            candidates = ([] if corner is None else [corner]) + list(delta)
            chosen = _greedy_complement(ring, candidates, inner, delta, f"tildeDelta_{j}")
        if corner is not None and not LinearSpan(ring, chosen).contains(corner):
            raise SynthesisError(
                f"tildeDelta_{j} does not contain the corner of block {j}")
        expected = linear_span_dim(list(delta), ring) - (block.c if block else 0)
        if len(chosen) != expected:
            raise SynthesisError(
                f"tildeDelta_{j} has dimension {len(chosen)}, expected {expected}")
        tilde_delta.append(tuple(chosen))

    delta_spans = [None, None] + [LinearSpan(ring, td) for td in tilde_delta[1:]]

    tilde_p: list[tuple[Polynomial, ...]] = [()]
    for j in range(2, l + 1):
        comp = spec.component(j)
        p = comp.p_forms
        inner: list[Polynomial] = []
        corners: list[Polynomial] = []
        for i in range(1, j):
            block = blocks[i - 1]
            if block is None or block.c < 1:
                continue
            inner.extend(inner_spans[i - 1])
            corners.append(_corner(
                block, p, f"no row of block {i} inside span(P_{j}): no corner available"))
        if comp.tilde_p is not None:
            chosen = list(comp.tilde_p)
            _check_override(ring, chosen, inner, p, f"tildeP_{j}")
            chosen_span = LinearSpan(ring, chosen)
            for corner in corners:
                if not chosen_span.contains(corner):
                    raise SynthesisError(
                        f"tildeP_{j} override drops a required corner entry")
        else:
            candidates = list(dict.fromkeys(corners)) + list(p)
            chosen = _greedy_complement(ring, candidates, inner, p, f"tildeP_{j}")
            chosen = _order_tilde_p(chosen, corners, delta_spans, j)
        expected = linear_span_dim(list(p), ring) - sum(
            blocks[i - 1].c if blocks[i - 1] is not None else 0 for i in range(1, j)
        )
        if len(chosen) != expected:
            raise SynthesisError(
                f"tildeP_{j} has dimension {len(chosen)}, expected {expected}")
        tilde_p.append(tuple(chosen))

    return TildeData(spec=spec, inner_spans=inner_spans,
                     tilde_delta=tuple(tilde_delta), tilde_p=tuple(tilde_p))


def _check_override(ring, chosen, inner, target_forms, what: str) -> None:
    target = LinearSpan(ring, target_forms)
    for f in chosen:
        if not target.contains(f):
            raise SynthesisError(f"{what} override form {f} is outside the space")
    combined = list(inner) + list(chosen)
    if linear_span_dim(combined, ring) != len(chosen) + linear_span_dim(list(inner), ring):
        raise SynthesisError(f"{what} override is not independent of the inner span")
    if linear_span_dim(combined, ring) != target.dim:
        raise SynthesisError(f"{what} override does not span a full complement")


def _order_tilde_p(chosen, corners, delta_spans, j: int):
    """Anti-diagonal default order: earlier tildeDelta members first, corners last."""
    corner_set = set(corners)

    def group(idx_form):
        _, form = idx_form
        for k in range(2, j):
            span = delta_spans[k]
            if span is not None and span.contains(form):
                return (0, k)
        if form in corner_set:
            return (2, 0)
        return (1, 0)

    indexed = list(enumerate(chosen))
    indexed.sort(key=lambda idx_form: (group(idx_form), idx_form[0]))
    return [form for _, form in indexed]


def tableau_generators(tilde: TildeData) -> list[Polynomial]:
    """Anti-diagonal row sums of the pruned product tableau; degree-2 forms."""
    rows: dict[int, Polynomial] = {}
    global_basis = tilde.global_delta_basis()
    gidx_of: list[tuple[int, int, Polynomial]] = [
        (g + 1, comp, form) for g, (comp, form) in enumerate(global_basis)
    ]
    for gidx, comp, f in gidx_of:
        p_basis = tilde.tilde_p[comp - 1]
        for idx, g in enumerate(p_basis, start=1):
            t = gidx + idx - 1
            prod = f * g
            rows[t] = rows.get(t, tilde.spec.ring.zero()) + prod
    count = tilde.tableau_row_count()
    missing = [t for t in range(1, count + 1) if t not in rows or rows[t].is_zero()]
    if missing or set(rows) != set(range(1, count + 1)):
        raise SynthesisError(f"tableau rows are not contiguous (missing {missing})")
    return [rows[t] for t in range(1, count + 1)]


@dataclass(frozen=True)
class SynthesisCertificate:
    """Synthesized generators plus the oracle verdict against the intersection."""

    generators: tuple[Polynomial, ...]
    count: int
    projdim: int
    verified: bool | None
    provenance: tuple[tuple, ...]
    diagnostics: tuple[str, ...] = ()

    def to_json(self):
        return {
            "generators": [str(g) for g in self.generators],
            "count": self.count,
            "projdim": self.projdim,
            "verified": self.verified,
            "provenance": [list(p) for p in self.provenance],
            "diagnostics": list(self.diagnostics),
        }


def synthesize(spec: TwoLinearSpec, verify: bool = True,
               intersection: IdealHandle | None = None) -> SynthesisCertificate:
    """Emit <= projdim generators and certify radical equality with the target.

    Refuses scrolls with more than one block (their arithmetical rank is not
    realized by this construction; verify hand-supplied lists with
    :func:`verify_generator_list` and bound the rank with
    ``linjoin.ara_upper_bound``).  A false oracle verdict is reported in the
    certificate, never raised.
    """
    for i in range(1, spec.l + 1):
        scroll = spec.component(i).scroll
        if scroll is not None and len(scroll.blocks) > 1:
            raise SynthesisError(
                f"component {i}: multi-block scroll is outside the synthesis "
                "hypotheses; use verify_generator_list / ara_upper_bound instead")
    tilde = tilde_decompose(spec)

    gens: list[Polynomial] = []
    provenance: list[tuple] = []
    for i in range(1, spec.l + 1):
        block = _single_block(spec, i)
        if block is None or block.c < 1:
            continue
        for j, f in enumerate(verdi_generators(block), start=1):
            gens.append(f)
            provenance.append(("verdi", i, j))
    for t, row in enumerate(tableau_generators(tilde), start=1):
        gens.append(row)
        provenance.append(("tableau_row", t))

    pd = linjoin.projdim(spec)
    diagnostics: list[str] = []
    if len(gens) != pd:
        diagnostics.append(
            f"generator count {len(gens)} differs from projective dimension {pd}")

    verified: bool | None = None
    if verify:
        target = intersection if intersection is not None else intersection_ideal(spec)
        for g in gens:
            if not target.contains(g):
                diagnostics.append(f"generator outside the intersection: {g}")
        verified = radical_equal(IdealHandle(spec.ring, gens), target)

    return SynthesisCertificate(
        generators=tuple(gens),
        count=len(gens),
        projdim=pd,
        verified=verified,
        provenance=tuple(provenance),
        diagnostics=tuple(diagnostics),
    )


def verify_generator_list(gens, spec: TwoLinearSpec,
                          intersection: IdealHandle | None = None) -> bool:
    """Oracle check: rad(gens) equals the radical of the component intersection."""
    gens = list(gens)
    for g in gens:
        if g.ring != spec.ring:
            raise RingMismatchError("generator lives in a different ring")
    target = intersection if intersection is not None else intersection_ideal(spec)
    return radical_equal(IdealHandle(spec.ring, gens), target)
