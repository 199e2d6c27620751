"""Certified generator synthesis for linearly joined specifications.

For a validated specification whose scrolls are single blocks with the row
hypotheses satisfied, this module builds the "tilde" complements

    P_j  = tildeP_j (+) inner_1 (+) ... (+) inner_{j-1}
    Delta_j = tildeDelta_j (+) inner_j

where inner_i is the span of the inner entries of block i, with the required
corner entries kept inside the complements.  One routine builds every
complement: it checks the spec's override if there is one, else takes the
corners and then the listed forms greedily, keeping a form only when it lies
outside the span so far; then it checks that the corners are kept and that
the dimension is right.  Its spans come from the spec's ``span`` memo.

The synthesized generator list is the union of the Verdi generators of every
block (c_i polynomials each) and the anti-diagonal row sums of the product
tableau of the pruned linear ideal  K = U_j (tildeDelta_j x tildeP_j);  the
count is

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
from .linjoin import TwoLinearSpec, intersection_ideal
from .oracle import IdealHandle, radical_equal
from .poly import Polynomial, ScrollstciError
from .scroll import ScrollBlock, has_minors, verdi_generators


class SynthesisError(ScrollstciError):
    """The synthesis hypotheses are unmet or a decomposition does not exist."""


@dataclass(frozen=True)
class TildeData:
    """Per-component complements; tuples are 0-indexed by component - 1.

    ``tilde_delta[0]`` and ``tilde_p[0]`` are empty: component 1 has neither.
    """

    spec: TwoLinearSpec
    inner_spans: tuple[tuple[Polynomial, ...], ...]
    tilde_delta: tuple[tuple[Polynomial, ...], ...]
    tilde_p: tuple[tuple[Polynomial, ...], ...]


def _single_block(spec: TwoLinearSpec, i: int) -> ScrollBlock | None:
    scroll = spec.component(i).scroll
    return scroll.blocks[0] if has_minors(scroll) else None


def _complement(spec: TwoLinearSpec, what: str, target, inner, corners, override):
    """A basis of a complement of span(inner) in span(target) keeping ``corners``.

    The spec's override is checked if it gives one; otherwise the corners,
    then the target forms, are taken in turn, each kept only when it lies
    outside the span so far.  Either way every corner must lie in the
    complement and its dimension must be dim(target) - len(inner).
    """
    full = spec.span(target)
    if override is not None:
        chosen = override
        for f in chosen:
            if not full.contains(f):
                raise SynthesisError(f"{what} override form {f} is outside the space")
        dim = spec.span(inner + chosen).dim
        if dim != len(chosen) + spec.span(inner).dim:
            raise SynthesisError(f"{what} override is not independent of the inner span")
        if dim != full.dim:
            raise SynthesisError(f"{what} override does not span a full complement")
    else:
        chosen = ()
        for cand in corners + target:
            if not spec.span(inner + chosen).contains(cand):
                chosen += (cand,)
    kept = spec.span(chosen)
    for corner in corners:
        if not kept.contains(corner):
            raise SynthesisError(f"{what} drops the required corner entry {corner}")
    expected = full.dim - len(inner)
    if len(chosen) != expected:
        raise SynthesisError(f"{what} has dimension {len(chosen)}, expected {expected}")
    return chosen


def tilde_decompose(spec: TwoLinearSpec) -> TildeData:
    """Build the tilde complements; hypotheses are re-validated first."""
    hyp = linjoin.require_valid(spec, SynthesisError).ara_hypotheses
    if not hyp.synthesis_ok:
        msgs = "; ".join(hyp.failures)
        if not hyp.single_block:
            msgs += "; for multi-block scrolls use verify_generator_list / ara_upper_bound"
        raise SynthesisError(f"synthesis hypotheses unmet: {msgs}")

    l = spec.l
    blocks: list[ScrollBlock | None] = [_single_block(spec, i) for i in range(1, l + 1)]
    inner_spans = tuple(() if b is None else tuple(b.inner_entries) for b in blocks)

    # tildeDelta_j complements the inner entries of block j inside Delta_j
    tilde_delta: list[tuple[Polynomial, ...]] = [()]
    for j in range(2, l + 1):
        block = blocks[j - 1]
        corners = () if block is None else (block.corners[hyp.rows[j,] - 1],)
        tilde_delta.append(_complement(spec, f"tildeDelta_{j}", spec.delta(j),
                                       inner_spans[j - 1], corners,
                                       spec.component(j).tilde_delta))

    # tildeP_j complements the inner entries of every earlier block inside P_j
    tilde_p: list[tuple[Polynomial, ...]] = [()]
    for j in range(2, l + 1):
        earlier = [i for i in range(1, j) if blocks[i - 1] is not None]
        inner = tuple(f for i in earlier for f in inner_spans[i - 1])
        corners = tuple(blocks[i - 1].corners[hyp.rows[i, j] - 1] for i in earlier)
        override = spec.component(j).tilde_p
        chosen = _complement(spec, f"tildeP_{j}", spec.p(j), inner, corners, override)
        if override is None:
            chosen = _order_tilde_p(spec, chosen, corners, tilde_delta, j)
        tilde_p.append(tuple(chosen))

    return TildeData(spec=spec, inner_spans=inner_spans,
                     tilde_delta=tuple(tilde_delta), tilde_p=tuple(tilde_p))


def _order_tilde_p(spec, chosen, corners, tilde_delta, j: int):
    """Anti-diagonal default order: earlier tildeDelta members first (ascending
    component), then the other forms, corners last; the stable sort keeps the
    listed order within each group."""
    corner_set = set(corners)

    def group(form):
        for k in range(2, j):
            if spec.span(tilde_delta[k - 1]).contains(form):
                return (0, k)
        if form in corner_set:
            return (2, 0)
        return (1, 0)

    return sorted(chosen, key=group)


def tableau_generators(tilde: TildeData) -> list[Polynomial]:
    """Anti-diagonal row sums of the pruned product tableau; degree-2 forms.

    One pass over the components from l down to 2 numbers the tildeDelta
    forms from 1; the product of the n-th form with the idx-th form of
    tildeP_j (from 0) lands in row n + idx.  After component j, n is
    dim tildeD_{j-1}, so the row count is max_j (n + dim tildeP_j) - 1.
    """
    ring = tilde.spec.ring
    rows: dict[int, Polynomial] = {}
    n = best = 0
    for j in range(tilde.spec.l, 1, -1):
        p_basis = tilde.tilde_p[j - 1]
        for f in tilde.tilde_delta[j - 1]:
            n += 1
            for idx, g in enumerate(p_basis):
                rows[n + idx] = rows.get(n + idx, ring.zero()) + f * g
        best = max(best, n + len(p_basis))
    count = best - 1 if best else 0
    missing = [t for t in range(1, count + 1) if t not in rows or rows[t].is_zero()]
    if missing:
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


def synthesize(spec: TwoLinearSpec, verify: bool = True) -> SynthesisCertificate:
    """Emit <= projdim generators and certify radical equality with the target.

    Refuses scrolls with more than one block (their arithmetical rank is not
    realized by this construction; verify hand-supplied lists with
    :func:`verify_generator_list` and bound the rank with
    ``linjoin.ara_upper_bound``).  A false oracle verdict is reported in the
    certificate, never raised.
    """
    tilde = tilde_decompose(spec)

    gens: list[Polynomial] = []
    provenance: list[tuple] = []
    for i in range(1, spec.l + 1):
        block = _single_block(spec, i)
        if block is None:
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
        target = intersection_ideal(spec)
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


def verify_generator_list(gens, spec: TwoLinearSpec) -> bool:
    """Oracle check: rad(gens) equals the radical of the component intersection."""
    return radical_equal(IdealHandle(spec.ring, gens), intersection_ideal(spec))
