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
given; ``classify_modulo`` sorts a contained matrix into its case from them by
one case analysis, in which a generic column is a block with c = 0: whether the
matrix is all-generic chooses only the case names, where alpha is read, and
whether the two-forms case is open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .oracle import IdealHandle
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


def has_minors(matrix: ScrollMatrix | None) -> bool:
    """A matrix with 2x2 minors: it exists and has at least two columns."""
    return matrix is not None and matrix.ncols >= 2


def scroll_ara_facts(matrix: ScrollMatrix | None) -> tuple[int, int] | None:
    """(ara, sum of block c-values) when the arithmetical rank is known.

    Known cases: no matrix / no minors (0, 0); a single non-generic block
    (ara = c, a complete intersection up to radical); an all-generic matrix
    with r columns (ara = 2r-3).  Returns None otherwise.
    """
    if not has_minors(matrix):
        return (0, 0)
    nongeneric = [b for b in matrix.blocks if not b.is_generic]
    if not nongeneric:
        return (ara_bound_generic(matrix.ncols).ara, 0)
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

    Cases, in their fixed order: ``not_contained``; a row (row 1 or 2 of the
    whole matrix inside the span); a deleted block (a block entirely inside,
    with the classification of the remaining matrix in ``inner``); a shared
    alpha (each block's residuals are H, alpha H, alpha^2 H, ... with one
    alpha and a per-block form H); and two forms (column i is a_i (h1, h2)).
    An all-generic matrix names them ``generic_line``,
    ``generic_column_deleted`` (``column_index``), ``generic_shared_alpha``
    and ``generic_two_forms``; any other matrix ``row_in_delta``,
    ``block_in_delta`` (``block_index``, never a generic block) and
    ``H_alpha`` (a generic block inside the span has a witness with no H),
    and has no two-forms case.

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
    """The case of a matrix whose minor ideal lies in the span, taken in one
    order: a row, a block to delete, one shared alpha, two forms.

    A generic column is a block with c = 0.  An all-generic matrix reports the
    generic case names, reads alpha off column 1 and may have two forms; in any
    other matrix alpha comes from the first non-generic block, and a generic
    block is never deleted."""
    generic = all(b.is_generic for b in matrix.blocks)
    line, deleted, index, shared = (
        ("generic_line", "generic_column_deleted", "column_index", "generic_shared_alpha")
        if generic else ("row_in_delta", "block_in_delta", "block_index", "H_alpha"))
    row1_in, row2_in = rows_in_span(residuals)
    zero = [all(r.is_zero() for r in res) for res in residuals]
    deletions = [{"case": deleted, index: i}
                 for i, (block, inside) in enumerate(zip(matrix.blocks, zero), start=1)
                 if inside and (generic or not block.is_generic)]

    if row1_in != row2_in:
        return ScrollClassification(case=line, row=1 if row1_in else 2,
                                    secondary=tuple(deletions))
    if deletions:
        # both rows inside, or neither; deleting a block keeps the containment
        # and the other blocks' residuals
        idx = deletions[0][index]
        rows = [{"case": "row_in_delta", "row": w} for w in (1, 2) if row1_in]
        inner = None
        if matrix.ncols - matrix.blocks[idx - 1].c - 1 >= 2:
            inner = _classify_contained(matrix.without_block(idx), span,
                                        residuals[:idx - 1] + residuals[idx:])
        return ScrollClassification(case=deleted, **{index: idx}, inner=inner,
                                    secondary=tuple(rows + deletions[1:]))

    # every row has an entry off the span, and no block that may be deleted
    # lies inside it
    source = next((res for b, res in zip(matrix.blocks, residuals) if not b.is_generic),
                  residuals[0])
    alpha = proportional(source[1], source[0])
    field = span.ring.field

    def geometric(res) -> bool:
        power = field.one
        for r in res:
            if not (r - res[0] * power).is_zero():
                return False
            power = field.mul(power, alpha)
        return True

    h1, h2 = residuals[0][:2]
    alphas = tuple(proportional(res[0], h1) for res in residuals) if generic else ()
    two_forms = generic and all(a is not None and (res[1] - h2 * a).is_zero()
                                for a, res in zip(alphas, residuals))
    if alpha not in (None, 0) and all(
            inside or geometric(res) for inside, res in zip(zero, residuals)):
        witnesses = tuple(BlockWitness(i, None, None) if inside else BlockWitness(i, res[0], alpha)
                          for i, (inside, res) in enumerate(zip(zero, residuals), start=1))
        secondary = ({"case": "generic_two_forms"},) if two_forms else ()
        return ScrollClassification(case=shared, alpha=alpha, witnesses=witnesses,
                                    secondary=secondary)
    if two_forms:
        return ScrollClassification(case="generic_two_forms", forms=(h1, h2), alphas=alphas)
    raise ClassificationError("contained matrix fits no case")


def replay_classification(matrix: ScrollMatrix, delta: Sequence[Polynomial],
                          result: ScrollClassification) -> bool:
    """Machine-check the witnesses a classification asserts.

    A non-containment needs a witness that is a 2x2 minor of ``matrix`` and
    lies outside (Delta) by a normal form, not by the residuals that found it.
    Row containments are rank checks against span(Delta); the H/alpha cases
    need one witness per block, in block order, whose H lies off the span with
    a nonzero alpha and L_j - alpha^j H in the span (or, with no H, the whole
    block in the span); the two-forms case needs one alpha per column.
    """
    span = LinearSpan(matrix.ring, delta)
    if result.case == "not_contained":
        witness = result.witness_minor
        return (witness in minors_2x2(matrix)
                and not IdealHandle(matrix.ring, delta).contains(witness))
    if result.case in ("row_in_delta", "generic_line"):
        return span.contains_all(matrix.row(result.row))
    if result.case in ("block_in_delta", "generic_column_deleted"):
        index = result.block_index if result.case == "block_in_delta" else result.column_index
        ok = span.contains_all(matrix.blocks[index - 1].entries)
        if result.inner is not None:
            ok = ok and replay_classification(matrix.without_block(index), delta, result.inner)
        return ok
    if result.case in ("H_alpha", "generic_shared_alpha"):
        indices = [w.block_index for w in result.witnesses]
        if indices != list(range(1, len(matrix.blocks) + 1)) or result.alpha in (None, 0):
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
        if not len(result.alphas) == len(matrix.blocks) == matrix.ncols:
            return False  # one alpha per column of an all-generic matrix
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
