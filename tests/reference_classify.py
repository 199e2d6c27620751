"""The scroll classification as it was before it took its cases once.

Two routines decided the same question: one for matrices whose blocks are all
single columns (generic), one for every other matrix.  `scroll.classify_modulo`
must give the same `ScrollClassification` (compared by `to_json()`), or raise
the same exception class; `tests/test_classify_differential.py` checks it
against `classify_modulo` here.
"""

from scrollstci.poly import LinearSpan, proportional
from scrollstci.scroll import (
    BlockWitness,
    ClassificationError,
    ScrollClassification,
    rows_in_span,
    span_containment,
)


def classify_modulo(matrix, delta):
    span = LinearSpan(matrix.ring, delta)
    residuals, witness = span_containment(matrix, span)
    if witness is not None:
        return ScrollClassification(case="not_contained", witness_minor=witness)
    return _classify_contained(matrix, span, residuals)


def _classify_contained(matrix, span, residuals):
    if all(b.is_generic for b in matrix.blocks):
        return _classify_generic(matrix, span, residuals)
    return _classify_mixed(matrix, span, residuals)


def _classify_generic(matrix, span, residuals):
    row1_in, row2_in = rows_in_span(residuals)
    full_cols = [i for i, res in enumerate(residuals, start=1)
                 if res[0].is_zero() and res[1].is_zero()]
    secondary = []

    if row1_in != row2_in:
        which = 1 if row1_in else 2
        for i in full_cols:
            secondary.append({"case": "generic_column_deleted", "column_index": i})
        return ScrollClassification(case="generic_line", row=which,
                                    secondary=tuple(secondary))
    if full_cols:
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


def _classify_mixed(matrix, span, residuals):
    row1_in, row2_in = rows_in_span(residuals)
    full_blocks = [
        i for i, res in enumerate(residuals, start=1)
        if all(r.is_zero() for r in res) and not matrix.blocks[i - 1].is_generic
    ]
    secondary = []

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

    alpha = None
    witnesses = []
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
        for r in res:
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
