"""Scroll matrices: minors, Verdi generators, classification with witnesses."""

import json
import math
from pathlib import Path

import pytest

from scrollstci.linjoin import ComponentSpec, TwoLinearSpec, validate
from scrollstci.oracle import IdealHandle, ideal_member, radical_equal
from scrollstci.poly import Ring, ScrollstciError, linear_span_dim, parse
from scrollstci.scroll import (
    ScrollBlock,
    ScrollClassification,
    ScrollMatrix,
    ara_bound_generic,
    classify_modulo,
    minors_2x2,
    replay_classification,
    scroll_ara_facts,
    verdi_generators,
)

import worked_examples as examples


def var_block(ring, *names):
    return ScrollBlock(tuple(ring.variable(n) for n in names))


def generic_matrix(ring, pairs):
    return ScrollMatrix(tuple(var_block(ring, a, b) for a, b in pairs))


# --- minors -----------------------------------------------------------------

def test_single_pair_minor():
    ring = Ring(("x0", "x1", "x2"))
    got = minors_2x2(var_block(ring, "x0", "x1", "x2"))
    assert got == [parse(ring, "x0*x2 - x1^2")]


def test_two_generic_blocks():
    ring = Ring(("a", "b", "c", "d"))
    matrix = generic_matrix(ring, [("a", "b"), ("c", "d")])
    assert minors_2x2(matrix) == [parse(ring, "a*d - b*c")]


def test_c2_block_minors():
    ring = Ring(("x0", "x1", "x2", "x3"))
    got = minors_2x2(var_block(ring, "x0", "x1", "x2", "x3"))
    expect = [parse(ring, t) for t in
              ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")]
    assert got == expect


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_minor_count_and_degree(c):
    ring = Ring(tuple(f"x{i}" for i in range(c + 2)))
    block = var_block(ring, *ring.variables)
    matrix = ScrollMatrix((block,))
    minors = minors_2x2(matrix)
    r = matrix.ncols
    assert len(minors) == math.comb(r, 2)
    assert all(m.is_homogeneous() and m.degree() == 2 for m in minors)


# --- Verdi generators ----------------------------------------------------------

def test_verdi_c1_is_the_minor():
    ring = Ring(("u", "w", "v"))
    block = var_block(ring, "u", "w", "v")
    assert verdi_generators(block) == [parse(ring, "u*v - w^2")]


def test_verdi_c2_expansion():
    ring = Ring(("x0", "x1", "x2", "x3"))
    block = var_block(ring, *ring.variables)
    F = verdi_generators(block)
    assert F[0] == parse(ring, "x0*x2 - x1^2")
    assert F[1] == parse(ring, "x0*x3^2 - 2*x1*x2*x3 + x2^3")


def test_verdi_degrees_and_membership():
    for c in (1, 2, 3, 4):
        ring = Ring(tuple(f"x{i}" for i in range(c + 2)))
        block = var_block(ring, *ring.variables)
        F = verdi_generators(block)
        assert len(F) == c
        minors = IdealHandle(ring, minors_2x2(block))
        for j, f in enumerate(F, start=1):
            assert f.is_homogeneous() and f.degree() == j + 1
            assert ideal_member(f, minors)


def test_verdi_rejects_generic_block():
    ring = Ring(("a", "b"))
    with pytest.raises(ScrollstciError):
        verdi_generators(var_block(ring, "a", "b"))


@pytest.mark.parametrize("c", [1, 2])
def test_verdi_radical_equality_small(c):
    ring = Ring(tuple(f"x{i}" for i in range(c + 2)))
    block = var_block(ring, *ring.variables)
    assert radical_equal(
        IdealHandle(ring, verdi_generators(block)),
        IdealHandle(ring, minors_2x2(block)),
    )


# --- generic-case numbers --------------------------------------------------------

@pytest.mark.parametrize("r,ara,pd", [(2, 1, 1), (3, 3, 2), (4, 5, 3)])
def test_ara_bound_generic(r, ara, pd):
    facts = ara_bound_generic(r)
    assert facts.ara == ara and facts.projdim == pd


def test_ara_bound_generic_rejects_r1():
    with pytest.raises(ScrollstciError):
        ara_bound_generic(1)


def test_scroll_ara_facts():
    ring = Ring(("a", "b", "c", "d", "x0", "x1", "x2"))
    assert scroll_ara_facts(None) == (0, 0)
    single = ScrollMatrix((var_block(ring, "a", "b"),))
    assert scroll_ara_facts(single) == (0, 0)
    generic = generic_matrix(ring, [("a", "b"), ("c", "d")])
    assert scroll_ara_facts(generic) == (1, 0)
    block = ScrollMatrix((var_block(ring, "x0", "x1", "x2"),))
    assert scroll_ara_facts(block) == (1, 1)
    mixed = ScrollMatrix((var_block(ring, "x0", "x1", "x2"), var_block(ring, "a", "b")))
    assert scroll_ara_facts(mixed) is None


# --- classification ----------------------------------------------------------------

R3 = Ring(("x", "y", "z"))
XYZ = ScrollMatrix((ScrollBlock((R3.variable("x"), R3.variable("y"), R3.variable("z"))),))


def test_block_fully_inside():
    result = classify_modulo(XYZ, [R3.variable(v) for v in "xyz"])
    assert result.case == "block_in_delta" and result.block_index == 1
    assert replay_classification(XYZ, [R3.variable(v) for v in "xyz"], result)


def test_row_inside():
    delta = [R3.variable("x"), R3.variable("y")]
    result = classify_modulo(XYZ, delta)
    assert result.case == "row_in_delta" and result.row == 1
    assert replay_classification(XYZ, delta, result)


def test_h_alpha_case():
    ring = Ring(("d1", "d2", "d3", "h"))
    block = ScrollBlock((parse(ring, "d1 + h"), parse(ring, "d2 + 2*h"),
                         parse(ring, "d3 + 4*h")))
    matrix = ScrollMatrix((block,))
    delta = [ring.variable(v) for v in ("d1", "d2", "d3")]
    result = classify_modulo(matrix, delta)
    assert result.case == "H_alpha"
    assert result.alpha == 2
    assert result.witnesses[0].H == ring.variable("h")
    assert replay_classification(matrix, delta, result)
    # the minor itself lies in (Delta): oracle cross-check
    assert ideal_member(minors_2x2(matrix)[0], IdealHandle(ring, delta))


def test_generic_line_case():
    ring = Ring(("a", "b", "c", "d"))
    matrix = generic_matrix(ring, [("a", "b"), ("c", "d")])
    delta = [ring.variable("a"), ring.variable("c")]
    result = classify_modulo(matrix, delta)
    assert result.case == "generic_line" and result.row == 1
    assert replay_classification(matrix, delta, result)


def test_line_beats_column_deletion_in_case_order():
    # row 1 = (a, c, e) sits inside the span, and so does the whole first
    # column; the line case wins, the column shows up as a secondary match
    ring = Ring(("a", "b", "c", "d", "e", "f"))
    matrix = generic_matrix(ring, [("a", "b"), ("c", "d"), ("e", "f")])
    delta = [ring.variable(v) for v in ("a", "b", "c", "e")]
    result = classify_modulo(matrix, delta)
    assert result.case == "generic_line" and result.row == 1
    assert {"case": "generic_column_deleted", "column_index": 1} in result.secondary
    assert replay_classification(matrix, delta, result)


def test_generic_column_deletion_recursion():
    # first column inside the span, neither row fully inside; the remaining
    # two columns land in the shared-constant case
    ring = Ring(("a", "b", "p", "q", "r", "s", "h"))
    matrix = ScrollMatrix((
        ScrollBlock((ring.variable("a"), ring.variable("b"))),
        ScrollBlock((parse(ring, "p + h"), parse(ring, "q + 2*h"))),
        ScrollBlock((parse(ring, "r + 2*h"), parse(ring, "s + 4*h"))),
    ))
    delta = [ring.variable(v) for v in ("a", "b", "p", "q", "r", "s")]
    result = classify_modulo(matrix, delta)
    assert result.case == "generic_column_deleted" and result.column_index == 1
    assert result.inner is not None
    assert result.inner.case == "generic_shared_alpha" and result.inner.alpha == 2
    assert replay_classification(matrix, delta, result)


def test_generic_shared_alpha():
    ring = Ring(("p", "q", "h", "k"))
    # columns (h, 2h) and (k, 2k): rows proportional with alpha = 2
    matrix = ScrollMatrix((
        ScrollBlock((parse(ring, "p + h"), parse(ring, "2*h"))),
        ScrollBlock((parse(ring, "k"), parse(ring, "q + 2*k"))),
    ))
    delta = [ring.variable("p"), ring.variable("q")]
    result = classify_modulo(matrix, delta)
    assert result.case == "generic_shared_alpha" and result.alpha == 2
    assert replay_classification(matrix, delta, result)


def test_generic_two_forms():
    ring = Ring(("p", "q", "h", "k"))
    # columns (h, k) and (2h, 2k): columns proportional, rows are not
    matrix = ScrollMatrix((
        ScrollBlock((parse(ring, "h"), parse(ring, "k"))),
        ScrollBlock((parse(ring, "p + 2*h"), parse(ring, "q + 2*k"))),
    ))
    delta = [ring.variable("p"), ring.variable("q")]
    result = classify_modulo(matrix, delta)
    assert result.case == "generic_two_forms"
    assert result.alphas == (1, 2)
    assert replay_classification(matrix, delta, result)


def test_row_beats_block_deletion_in_case_order():
    # the non-generic block is inside the span AND row 1 = (x0, x1, a) is:
    # the row case wins, the block shows up as a secondary match
    ring = Ring(("x0", "x1", "x2", "a", "b"))
    matrix = ScrollMatrix((var_block(ring, "x0", "x1", "x2"), var_block(ring, "a", "b")))
    delta = [ring.variable(v) for v in ("x0", "x1", "x2", "a")]
    result = classify_modulo(matrix, delta)
    assert result.case == "row_in_delta" and result.row == 1
    assert {"case": "block_in_delta", "block_index": 1} in result.secondary
    assert replay_classification(matrix, delta, result)


def test_mixed_block_deletion_recursion():
    # block 1 inside the span, neither matrix row inside (the generic block
    # hangs off the span by h); deletion leaves a single column, no minors
    ring = Ring(("x0", "x1", "x2", "p", "q", "h"))
    matrix = ScrollMatrix((
        var_block(ring, "x0", "x1", "x2"),
        ScrollBlock((parse(ring, "p + h"), parse(ring, "q + 2*h"))),
    ))
    delta = [ring.variable(v) for v in ("x0", "x1", "x2", "p", "q")]
    result = classify_modulo(matrix, delta)
    assert result.case == "block_in_delta" and result.block_index == 1
    assert result.inner is None  # one column left, no minors
    assert replay_classification(matrix, delta, result)


def test_not_contained_matches_oracle():
    ring = Ring(("x0", "x1", "x2"))
    matrix = ScrollMatrix((var_block(ring, "x0", "x1", "x2"),))
    delta = [ring.variable("x0")]
    result = classify_modulo(matrix, delta)
    assert result.case == "not_contained"
    assert not ideal_member(result.witness_minor, IdealHandle(ring, delta))


def test_containment_verdict_cross_checked_with_oracle():
    ring = Ring(("x0", "x1", "x2", "d1", "d2"))
    matrix = ScrollMatrix((var_block(ring, "x0", "x1", "x2"),))
    spans = [
        [ring.variable("x0"), ring.variable("x1")],
        [ring.variable("d1"), ring.variable("d2")],
        [parse(ring, "x0 + d1"), ring.variable("x1"), ring.variable("x2")],
        [ring.variable(v) for v in ("x0", "x1", "x2")],
    ]
    for delta in spans:
        result = classify_modulo(matrix, delta)
        linear = IdealHandle(ring, delta)
        oracle_contained = all(ideal_member(m, linear) for m in minors_2x2(matrix))
        assert result.contained == oracle_contained


def test_classification_invariant_under_span_rebasing():
    ring = Ring(("d1", "d2", "d3", "h"))
    block = ScrollBlock((parse(ring, "d1 + h"), parse(ring, "d2 + 2*h"),
                         parse(ring, "d3 + 4*h")))
    matrix = ScrollMatrix((block,))
    basis_a = [ring.variable(v) for v in ("d1", "d2", "d3")]
    basis_b = [parse(ring, "d1 + d2"), parse(ring, "d2 - 3*d3"), parse(ring, "2*d3")]
    assert linear_span_dim(basis_b, ring) == 3
    a = classify_modulo(matrix, basis_a)
    b = classify_modulo(matrix, basis_b)
    assert a.case == b.case == "H_alpha"
    assert a.alpha == b.alpha and a.witnesses[0].H == b.witnesses[0].H


def test_classification_fuzz_against_oracle():
    """Randomized scroll-vs-span instances: the linear-algebra containment
    verdict must agree with oracle membership of every minor, and every
    contained classification must replay its witnesses."""
    import random

    rng = random.Random(777)
    dvars = ("d1", "d2", "d3", "d4", "d5", "d6")
    ring = Ring(dvars + ("h",))
    h = ring.variable("h")

    def build_block(offset, c, pattern):
        n = c + 2
        base = [ring.variable(dvars[offset + k]) for k in range(n)]
        if pattern == "geom":
            alpha = rng.choice((1, 2, 3, -1, -2))
            scale = rng.choice((1, 2, -1))
            return [base[k] + h * (scale * alpha ** k) for k in range(n)], alpha
        if pattern == "row0":
            tail = rng.choice((1, 2, -3))
            return [base[k] + (h * tail if k == n - 1 else ring.zero())
                    for k in range(n)], None
        if pattern == "row1":
            head = rng.choice((1, 2, -3))
            return [base[k] + (h * head if k == 0 else ring.zero())
                    for k in range(n)], None
        if pattern == "full":
            return list(base), None
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        return [base[k] + h * coeffs[k] for k in range(n)], None

    contained_seen = not_contained_seen = 0
    for _ in range(150):
        nblocks = rng.choice((1, 1, 2))
        widths = [rng.choice((0, 1, 2)) for _ in range(nblocks)]
        if sum(w + 2 for w in widths) > len(dvars):
            continue
        blocks = []
        offset = 0
        shared_alpha = rng.choice((1, 2, -1))
        for c in widths:
            pattern = rng.choice(("geom", "row0", "row1", "full", "noise", "noise"))
            entries, _ = build_block(offset, c, pattern)
            if pattern == "geom" and nblocks > 1:
                # containment across blocks needs one shared constant
                entries = [ring.variable(dvars[offset + k]) + h * shared_alpha ** k
                           for k in range(c + 2)]
            blocks.append(ScrollBlock(tuple(entries)))
            offset += c + 2
        matrix = ScrollMatrix(tuple(blocks))
        delta = [ring.variable(v) for v in dvars[:offset]]
        if rng.random() < 0.3:
            delta = delta[:-1]  # sometimes drop a span vector

        result = classify_modulo(matrix, delta)
        linear = IdealHandle(ring, delta)
        oracle_contained = all(ideal_member(m, linear) for m in minors_2x2(matrix))
        assert result.contained == oracle_contained
        if result.contained:
            contained_seen += 1
            assert replay_classification(matrix, delta, result)
        else:
            not_contained_seen += 1
            assert not ideal_member(result.witness_minor, linear)
    assert contained_seen >= 30 and not_contained_seen >= 30


def test_replay_refuses_witness_lists_that_skip_blocks():
    # no witness at all for the block (x, y, z), whose minor is not in (w)
    ring = Ring(("x", "y", "z", "w"))
    block = ScrollMatrix((var_block(ring, "x", "y", "z"),))
    delta = [ring.variable("w")]
    assert classify_modulo(block, delta).case == "not_contained"
    forged = ScrollClassification(case="H_alpha", alpha=2, witnesses=())
    assert not replay_classification(block, delta, forged)
    # two forms with one alpha for two columns; the second column breaks them
    ring = Ring(("p", "q", "h", "k"))
    columns = ScrollMatrix((
        ScrollBlock((parse(ring, "h"), parse(ring, "k"))),
        ScrollBlock((parse(ring, "p + h"), parse(ring, "q"))),
    ))
    delta = [ring.variable("p"), ring.variable("q")]
    assert classify_modulo(columns, delta).case == "not_contained"
    forged = ScrollClassification(case="generic_two_forms", alphas=(1,),
                                  forms=(ring.variable("h"), ring.variable("k")))
    assert not replay_classification(columns, delta, forged)


def test_replay_of_a_non_containment_checks_its_witness():
    # the minor x*z - y^2 lies in (x, y): the block is contained, row 1 in Delta
    ring = Ring(("x", "y", "z"))
    block = ScrollMatrix((var_block(ring, "x", "y", "z"),))
    x, y = ring.variable("x"), ring.variable("y")
    assert classify_modulo(block, [x, y]).case == "row_in_delta"
    forged = ScrollClassification(case="not_contained", witness_minor=x ** 2)
    assert not replay_classification(block, [x, y], forged)
    # against (x) the minor is outside; y^2 is outside too, but no minor of the block
    genuine = classify_modulo(block, [x])
    assert genuine.case == "not_contained"
    assert replay_classification(block, [x], genuine)
    assert not IdealHandle(ring, [x]).contains(y ** 2)
    stranger = ScrollClassification(case="not_contained", witness_minor=y ** 2)
    assert not replay_classification(block, [x], stranger)
    assert not replay_classification(block, [x], ScrollClassification(case="not_contained"))

def test_scroll_json_round_trip():
    ring = Ring(("x0", "x1", "x2", "u"))
    block = ScrollBlock((parse(ring, "x0"), parse(ring, "x1 - u"), parse(ring, "x2")))
    matrix = ScrollMatrix((block,))
    doc = matrix.to_json()
    assert ScrollMatrix.from_json(ring, doc) == matrix


def _pinned_specs():
    """The specs of ``spec_outputs.json`` and of the spec fixtures, each also
    with its linear parts in reverse component order, which breaks (d) and (e)."""
    recorded = json.loads((Path(__file__).resolve().parent / "spec_outputs.json").read_text())
    specs = [TwoLinearSpec.from_json(c["spec"])
             for kind in ("validate", "synthesize") for c in recorded[kind]]
    specs += [examples.spec(name) for name in examples.SPECS]
    return specs + [TwoLinearSpec(spec.ring, tuple(
        ComponentSpec(scroll=comp.scroll, delta=other.delta, p_forms=other.p_forms)
        for comp, other in zip(spec.components, reversed(spec.components))))
        for spec in specs]


def test_classification_agrees_with_validate_on_the_pinned_specs():
    """``validate`` decides (d) and (e) without the case analysis; on every
    scroll-against-span pair it asks, the case analysis must run through, replay
    its witnesses, and give the same verdict and witness minor."""
    seen = {True: 0, False: 0}
    for spec in _pinned_specs():
        failures = {(f.condition, f.indices): f.witness for f in validate(spec).failures}
        for i in range(1, spec.l + 1):
            matrix = spec.component(i).scroll
            if matrix is None or matrix.ncols < 2:
                continue
            questions = [("d", (i,), spec.delta(i))] if i >= 2 else []
            questions += [("e", (i, j), spec.p(j)) for j in range(i + 1, spec.l + 1)]
            for condition, indices, forms in questions:
                result = classify_modulo(matrix, forms)  # raises no ClassificationError
                witness = failures.get((condition, indices))
                assert result.contained == (witness is None)
                if result.contained:
                    assert replay_classification(matrix, forms, result)
                else:
                    assert str(result.witness_minor) == witness
                seen[result.contained] += 1
    assert seen[True] > 50 and seen[False] > 50
