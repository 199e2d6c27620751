"""Two-row scroll matrices of linear forms and their determinantal ideals.

A scroll matrix is organized in blocks; a block with entries L0..L_{c+1} is
the 2x(c+1) matrix whose rows are (L0..Lc) and (L1..L_{c+1}).  Blocks with
c = 0 are "generic" (a single column, no shift structure).  The 2x2 minors of
the concatenated matrix generate the ideal of a rational normal scroll.

This module supplies the minors, Verdi's explicit up-to-radical generators
for a single non-generic block, the arithmetical-rank numbers for the
all-generic case, and the classification of scroll matrices whose minor ideal
sits inside a linear ideal (Delta).  ``span_containment`` decides containment
from one residual H per entry (L = L' + H, L' in the span) against a span it is
given; ``classify_modulo`` sorts a contained matrix into its case from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .poly import (
    LinearSpan,
    Polynomial,
    Ring,
    ScrollstciError,
    is_linear_form,
    proportional,
)


@dataclass(frozen=True)
class ScrollBlock:
    """One block: c+2 linear forms L0..L_{c+1} over a common ring, c >= 0."""

    entries: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) < 2:
            raise ScrollstciError("a scroll block needs at least two entries")
        ring = self.entries[0].ring
        for e in self.entries:
            if e.ring != ring:
                raise ScrollstciError("block entries must share one ring")
            if not is_linear_form(e) or e.is_zero():
                raise ScrollstciError(f"block entries must be nonzero linear forms: {e}")

    @property
    def ring(self) -> Ring:
        return self.entries[0].ring

    @property
    def c(self) -> int:
        return len(self.entries) - 2

    @property
    def is_generic(self) -> bool:
        return self.c == 0

    def row(self, which: int) -> tuple[Polynomial, ...]:
        """Row 1 is (L0..Lc), row 2 is (L1..L_{c+1})."""
        if which == 1:
            return self.entries[:-1]
        if which == 2:
            return self.entries[1:]
        raise ScrollstciError("rows are numbered 1 and 2")

    @property
    def corners(self) -> tuple[Polynomial, Polynomial]:
        return (self.entries[0], self.entries[-1])

    @property
    def inner_entries(self) -> tuple[Polynomial, ...]:
        return self.entries[1:-1]

    def columns(self) -> list[tuple[Polynomial, Polynomial]]:
        return [(self.entries[j], self.entries[j + 1]) for j in range(self.c + 1)]

    def to_json(self):
        return {"entries": [str(e) for e in self.entries]}


@dataclass(frozen=True)
class ScrollMatrix:
    """Nonempty list of blocks over a common ring."""

    blocks: tuple[ScrollBlock, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ScrollstciError("a scroll matrix needs at least one block")
        ring = self.blocks[0].ring
        if any(b.ring != ring for b in self.blocks):
            raise ScrollstciError("all blocks must share one ring")

    @property
    def ring(self) -> Ring:
        return self.blocks[0].ring

    @property
    def ncols(self) -> int:
        return sum(b.c + 1 for b in self.blocks)

    def columns(self) -> list[tuple[Polynomial, Polynomial]]:
        out = []
        for b in self.blocks:
            out.extend(b.columns())
        return out

    def row(self, which: int) -> tuple[Polynomial, ...]:
        out: list[Polynomial] = []
        for b in self.blocks:
            out.extend(b.row(which))
        return tuple(out)

    def all_entries(self) -> list[Polynomial]:
        out: list[Polynomial] = []
        for b in self.blocks:
            out.extend(b.entries)
        return out

    def without_block(self, index: int) -> "ScrollMatrix":
        """Delete the 1-based block ``index``; at least one block must remain."""
        rest = tuple(b for i, b in enumerate(self.blocks, start=1) if i != index)
        return ScrollMatrix(rest)

    def to_json(self):
        return {"blocks": [b.to_json() for b in self.blocks]}

    @staticmethod
    def from_json(ring: Ring, obj) -> "ScrollMatrix":
        from .poly import json_list, parse

        blocks = [
            ScrollBlock(tuple(parse(ring, s) for s in
                              json_list(blk["entries"], "polynomial strings in 'entries'")))
            for blk in json_list(obj["blocks"], "scroll blocks in 'blocks'")
        ]
        return ScrollMatrix(tuple(blocks))


def minors_2x2(matrix: ScrollMatrix | ScrollBlock) -> list[Polynomial]:
    """All C(r,2) two-by-two minors, column pairs in lexicographic order."""
    if isinstance(matrix, ScrollBlock):
        matrix = ScrollMatrix((matrix,))
    cols = matrix.columns()
    out = []
    for p in range(len(cols)):
        tp, bp = cols[p]
        for q in range(p + 1, len(cols)):
            tq, bq = cols[q]
            out.append(tp * bq - tq * bp)
    return out


def verdi_generators(block: ScrollBlock) -> list[Polynomial]:
    """The c explicit generators whose radical equals the block's minor ideal.

    F_j = sum_{k=0..j} (-1)^k C(j,k) L_{j+1}^{j-k} L_k L_j^k, homogeneous of
    degree j+1; each F_j lies in the minor ideal itself.
    """
    if block.c < 1:
        raise ScrollstciError("generic block has no Verdi generators")
    L = block.entries
    out = []
    for j in range(1, block.c + 1):
        total = block.ring.zero()
        for k in range(j + 1):
            term = (L[j + 1] ** (j - k)) * L[k] * (L[j] ** k) * math.comb(j, k)
            total = total - term if k % 2 else total + term
        out.append(total)
    return out


class GenericScrollFacts(NamedTuple):
    """Known invariants of the minor ideal of an all-generic scroll matrix."""

    ara: int
    projdim: int


def ara_bound_generic(r: int) -> GenericScrollFacts:
    """ara = 2r-3 and projdim = r-1 for a generic 2 x r matrix, r >= 2."""
    if r < 2:
        raise ScrollstciError("generic scroll facts need at least two columns")
    return GenericScrollFacts(ara=2 * r - 3, projdim=r - 1)


def scroll_ara_facts(matrix: ScrollMatrix | None) -> tuple[int, int] | None:
    """(ara, sum of block c-values) when the arithmetical rank is known.

    Known cases: no matrix / no minors (0, 0); a single non-generic block
    (ara = c, a complete intersection up to radical); an all-generic matrix
    with r columns (ara = 2r-3).  Returns None otherwise.
    """
    if matrix is None:
        return (0, 0)
    if matrix.ncols < 2:
        return (0, 0)
    nongeneric = [b for b in matrix.blocks if not b.is_generic]
    if not nongeneric:
        return (2 * matrix.ncols - 3, 0)
    if len(matrix.blocks) == 1:
        c = matrix.blocks[0].c
        return (c, c)
    return None


# --- classification of M(B) inside a linear ideal ------------------------------

@dataclass(frozen=True)
class BlockWitness:
    """Per-block witness for the H/alpha case: L_j - alpha^j * H in the span."""

    block_index: int
    H: Polynomial | None
    alpha: object | None


@dataclass(frozen=True)
class ScrollClassification:
    """How the minor ideal of a scroll matrix sits inside a linear ideal.

    Cases: ``not_contained``; ``row_in_delta`` (row 1 or 2 of the whole
    matrix inside the span); ``block_in_delta`` (a non-generic block entirely
    inside, with the classification of the remaining matrix in ``inner``);
    ``H_alpha`` (every non-generic block has all entries off the span, with a
    shared constant alpha and per-block forms H); and the generic-matrix
    cases ``generic_line``, ``generic_column_deleted``,
    ``generic_shared_alpha``, ``generic_two_forms``.

    When several cases hold simultaneously the first in the fixed case order
    is reported and the rest are listed under ``secondary``.
    """

    case: str
    row: int | None = None
    block_index: int | None = None
    column_index: int | None = None
    alpha: object | None = None
    witnesses: tuple[BlockWitness, ...] = ()
    forms: tuple[Polynomial, ...] = ()
    alphas: tuple = ()
    inner: "ScrollClassification | None" = None
    secondary: tuple[dict, ...] = ()
    witness_minor: Polynomial | None = None

    @property
    def contained(self) -> bool:
        return self.case != "not_contained"

    def to_json(self):
        def fmt_scalar(a):
            return None if a is None else str(a)

        doc = {"case": self.case, "contained": self.contained}
        if self.row is not None:
            doc["row"] = self.row
        if self.block_index is not None:
            doc["block_index"] = self.block_index
        if self.column_index is not None:
            doc["column_index"] = self.column_index
        if self.alpha is not None:
            doc["alpha"] = fmt_scalar(self.alpha)
        if self.witnesses:
            doc["witnesses"] = [
                {"block": w.block_index,
                 "H": None if w.H is None else str(w.H),
                 "alpha": fmt_scalar(w.alpha)}
                for w in self.witnesses
            ]
        if self.forms:
            doc["forms"] = [str(f) for f in self.forms]
        if self.alphas:
            doc["alphas"] = [fmt_scalar(a) for a in self.alphas]
        if self.secondary:
            doc["secondary"] = list(self.secondary)
        if self.inner is not None:
            doc["inner"] = self.inner.to_json()
        if self.witness_minor is not None:
            doc["witness_minor"] = str(self.witness_minor)
        return doc


class ClassificationError(ScrollstciError):
    """The case analysis reached a state the containment should rule out."""


def span_containment(matrix: ScrollMatrix, span: LinearSpan) -> tuple[list, Polynomial | None]:
    """(residuals, witness): whether the minor ideal of ``matrix`` lies in (span).

    Each entry is L' + H, L' in the span and H its residual (one list per
    block); the minor ideal is contained iff every 2x2 minor of the H-matrix
    vanishes.  ``witness`` is the first minor outside, in lexicographic column
    pair order, or None."""
    residuals = [[span.residual(e) for e in b.entries] for b in matrix.blocks]
    rescols = [(res[j], res[j + 1]) for res in residuals for j in range(len(res) - 1)]
    cols = matrix.columns()
    for p, (hp_top, hp_bot) in enumerate(rescols):
        for q in range(p + 1, len(cols)):
            hq_top, hq_bot = rescols[q]
            if not (hp_top * hq_bot - hq_top * hp_bot).is_zero():
                (tp, bp), (tq, bq) = cols[p], cols[q]
                return residuals, tp * bq - tq * bp
    return residuals, None


def rows_in_span(residuals) -> tuple[bool, bool]:
    """Whether rows 1 and 2 lie in the span, from ``span_containment``'s residuals."""
    return (all(r.is_zero() for res in residuals for r in res[:-1]),
            all(r.is_zero() for res in residuals for r in res[1:]))


def classify_modulo(matrix: ScrollMatrix, delta: Sequence[Polynomial]) -> ScrollClassification:
    """Classify how the minor ideal of ``matrix`` sits inside (Delta), by the
    residuals of ``span_containment``."""
    span = LinearSpan(matrix.ring, delta)
    residuals, witness = span_containment(matrix, span)
    if witness is not None:
        return ScrollClassification(case="not_contained", witness_minor=witness)
    return _classify_contained(matrix, span, residuals)


def _classify_contained(matrix, span, residuals) -> ScrollClassification:
    # deleting a block keeps the containment and the other blocks' residuals
    if all(b.is_generic for b in matrix.blocks):
        return _classify_generic(matrix, span, residuals)
    return _classify_mixed(matrix, span, residuals)


def _classify_generic(matrix, span, residuals) -> ScrollClassification:
    row1_in, row2_in = rows_in_span(residuals)
    full_cols = [i for i, res in enumerate(residuals, start=1)
                 if res[0].is_zero() and res[1].is_zero()]
    secondary: list[dict] = []

    if row1_in != row2_in:
        which = 1 if row1_in else 2
        for i in full_cols:
            secondary.append({"case": "generic_column_deleted", "column_index": i})
        return ScrollClassification(case="generic_line", row=which,
                                    secondary=tuple(secondary))
    if full_cols:
        # both rows inside, or neither row complete but some column inside
        if row1_in and row2_in:
            secondary.append({"case": "row_in_delta", "row": 1})
            secondary.append({"case": "row_in_delta", "row": 2})
        idx = full_cols[0]
        inner = None
        if matrix.ncols - 1 >= 2:
            inner = _classify_contained(matrix.without_block(idx), span,
                                        residuals[:idx - 1] + residuals[idx:])
        for i in full_cols[1:]:
            secondary.append({"case": "generic_column_deleted", "column_index": i})
        return ScrollClassification(case="generic_column_deleted",
                                    column_index=idx, inner=inner,
                                    secondary=tuple(secondary))

    # no zero residual anywhere (a single zero entry would force a zero row
    # or a zero column given the vanishing H-minors)
    if any(res[0].is_zero() or res[1].is_zero() for res in residuals):
        raise ClassificationError("mixed zero pattern survived the containment check")

    alpha = proportional(residuals[0][1], residuals[0][0])
    shared_ok = alpha is not None and all(
        (res[1] - res[0] * alpha).is_zero() for res in residuals
    )
    h1, h2 = residuals[0][0], residuals[0][1]
    alphas = []
    two_forms_ok = True
    for res in residuals:
        ai = proportional(res[0], h1)
        if ai is None or not (res[1] - h2 * ai).is_zero():
            two_forms_ok = False
            break
        alphas.append(ai)
    if shared_ok:
        witnesses = tuple(
            BlockWitness(i, res[0], alpha)
            for i, res in enumerate(residuals, start=1)
        )
        if two_forms_ok:
            secondary.append({"case": "generic_two_forms"})
        return ScrollClassification(case="generic_shared_alpha", alpha=alpha,
                                    witnesses=witnesses, secondary=tuple(secondary))
    if two_forms_ok:
        return ScrollClassification(case="generic_two_forms", forms=(h1, h2),
                                    alphas=tuple(alphas))
    raise ClassificationError("generic matrix fits neither proportionality case")


def _classify_mixed(matrix, span, residuals) -> ScrollClassification:
    row1_in, row2_in = rows_in_span(residuals)
    full_blocks = [
        i for i, res in enumerate(residuals, start=1)
        if all(r.is_zero() for r in res) and not matrix.blocks[i - 1].is_generic
    ]
    secondary: list[dict] = []

    if row1_in != row2_in:
        which = 1 if row1_in else 2
        for i in full_blocks:
            secondary.append({"case": "block_in_delta", "block_index": i})
        return ScrollClassification(case="row_in_delta", row=which,
                                    secondary=tuple(secondary))
    if row1_in and row2_in:
        secondary.append({"case": "row_in_delta", "row": 1})
        secondary.append({"case": "row_in_delta", "row": 2})
    if full_blocks:
        idx = full_blocks[0]
        rest = matrix.without_block(idx) if len(matrix.blocks) > 1 else None
        inner = None
        if rest is not None and rest.ncols >= 2:
            inner = _classify_contained(rest, span, residuals[:idx - 1] + residuals[idx:])
        for i in full_blocks[1:]:
            secondary.append({"case": "block_in_delta", "block_index": i})
        return ScrollClassification(case="block_in_delta", block_index=idx,
                                    inner=inner, secondary=tuple(secondary))
    if row1_in and row2_in:
        raise ClassificationError("matrix inside the span but no non-generic block is")

    # H/alpha case: non-generic blocks have every entry off the span
    alpha = None
    witnesses: list[BlockWitness] = []
    for i, (block, res) in enumerate(zip(matrix.blocks, residuals), start=1):
        if block.is_generic:
            continue
        if any(r.is_zero() for r in res):
            raise ClassificationError(
                f"non-generic block {i} partially inside the span escaped the row cases")
        a = proportional(res[1], res[0])
        if a is None or a == 0:
            raise ClassificationError(f"block {i} residuals are not proportional")
        if alpha is None:
            alpha = a
        elif a != alpha:
            raise ClassificationError("blocks disagree on the shared constant")
        h = res[0]
        power = span.ring.field.one
        for j, r in enumerate(res):
            if not (r - h * power).is_zero():
                raise ClassificationError(f"block {i} breaks the geometric H-chain")
            power = span.ring.field.mul(power, alpha)
        witnesses.append(BlockWitness(i, h, alpha))
    for i, (block, res) in enumerate(zip(matrix.blocks, residuals), start=1):
        if not block.is_generic:
            continue
        if res[0].is_zero() and res[1].is_zero():
            witnesses.append(BlockWitness(i, None, None))
        elif not (res[1] - res[0] * alpha).is_zero():
            raise ClassificationError(f"generic block {i} breaks the shared constant")
        else:
            witnesses.append(BlockWitness(i, res[0], alpha))
    witnesses.sort(key=lambda w: w.block_index)
    return ScrollClassification(case="H_alpha", alpha=alpha,
                                witnesses=tuple(witnesses), secondary=tuple(secondary))


def replay_classification(matrix: ScrollMatrix, delta: Sequence[Polynomial],
                          result: ScrollClassification) -> bool:
    """Machine-check the witnesses a classification asserts.

    Row containments are rank checks against span(Delta); H witnesses must lie
    off the span with a nonzero alpha and satisfy L_j - alpha^j H in the span.
    """
    span = LinearSpan(matrix.ring, delta)
    if result.case == "not_contained":
        return result.witness_minor is not None
    if result.case in ("row_in_delta", "generic_line"):
        return span.contains_all(matrix.row(result.row))
    if result.case in ("block_in_delta", "generic_column_deleted"):
        index = result.block_index if result.case == "block_in_delta" else result.column_index
        ok = span.contains_all(matrix.blocks[index - 1].entries)
        if result.inner is not None:
            ok = ok and replay_classification(matrix.without_block(index), delta, result.inner)
        return ok
    if result.case in ("H_alpha", "generic_shared_alpha"):
        if result.alpha == 0:
            return False
        field = matrix.ring.field
        for w in result.witnesses:
            block = matrix.blocks[w.block_index - 1]
            if w.H is None:
                if not span.contains_all(block.entries):
                    return False
                continue
            if span.contains(w.H):
                return False
            power = field.one
            for entry in block.entries:
                if not span.contains(entry - w.H * power):
                    return False
                power = field.mul(power, result.alpha)
        return True
    if result.case == "generic_two_forms":
        h1, h2 = result.forms
        if span.contains(h1) or span.contains(h2):
            return False
        for block, ai in zip(matrix.blocks, result.alphas):
            if ai == 0:
                return False
            if not span.contains(block.entries[0] - h1 * ai):
                return False
            if not span.contains(block.entries[1] - h2 * ai):
                return False
        return True
    raise ScrollstciError(f"unknown classification case {result.case!r}")
