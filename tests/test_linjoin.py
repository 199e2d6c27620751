"""Linearly joined specifications: validation, ideals, numerical invariants."""

import pytest

from scrollstci import fixtures
from scrollstci.linjoin import (
    ComponentSpec,
    SpecValidationError,
    TwoLinearSpec,
    ara_upper_bound,
    cohom_dim,
    component_ideal,
    full_ideal,
    intersection_ideal,
    projdim,
    validate,
)
from scrollstci.oracle import IdealHandle, ideal_member
from scrollstci.poly import Ring, linear_span_dim, parse
from scrollstci.scroll import ScrollBlock, ScrollMatrix

from conftest import load_fixture_json


@pytest.fixture(scope="module")
def curve1():
    return fixtures.first_curve_spec()


@pytest.fixture(scope="module")
def curve2():
    return fixtures.second_curve_spec()


@pytest.fixture(scope="module")
def qprime():
    return fixtures.qprime_spec()


# --- validation ---------------------------------------------------------------

def test_two_coordinate_lines_pass():
    report = validate(fixtures.coordinate_lines_spec())
    assert report.ok
    assert report.conditions["d"] and report.conditions["e"] and report.conditions["f"]


def test_nonempty_p1_fails():
    ring = Ring(("x", "y"))
    spec = TwoLinearSpec(ring, (
        ComponentSpec(p_forms=(ring.variable("x"),)),
        ComponentSpec(delta=(ring.variable("x"),), p_forms=(ring.variable("y"),)),
    ))
    report = validate(spec)
    assert not report.ok
    assert any(f.condition == "structure" and f.indices == (1,) for f in report.failures)


@pytest.mark.parametrize("name", [
    "first_curve_spec", "second_curve_spec", "qprime_spec",
    "square_block_spec", "two_rows_spec", "coordinate_lines_spec",
    "fiber_shaped_spec",
])
def test_fixture_specs_validate(name):
    spec = getattr(fixtures, name)()
    report = validate(spec)
    assert report.ok, [f.message for f in report.failures]


def test_second_curve_reconstructed_split(curve2):
    report = validate(curve2)
    assert report.ok
    assert report.ara_hypotheses.synthesis_ok
    # the component ideals match the published generator sets
    expected = [
        ("a", "b", "c", "x"),
        ("x^2 - x*u - c^2", "a", "b", "y", "z"),
        ("b", "x", "z - u", "c"),
        ("x", "y - u", "a", "c"),
    ]
    for i, gens in enumerate(expected, start=1):
        want = IdealHandle(curve2.ring, [parse(curve2.ring, t) for t in gens])
        assert component_ideal(curve2, i).groebner_basis() == want.groebner_basis()


def test_ara_hypothesis_flags(curve1, qprime):
    assert validate(curve1).ara_hypotheses.synthesis_ok
    hyp = validate(qprime).ara_hypotheses
    assert not hyp.single_block          # two generic blocks
    assert hyp.upper_bound_ok            # rows inside the P spans
    square = validate(fixtures.square_block_spec()).ara_hypotheses
    assert square.single_block and not square.rows_in_p


def test_condition_f_failure_reports_k(curve1):
    # drop 'a' from P_4: a*x survives the running intersection but leaves
    # (P_4, D_3); only condition (f) at k = 4 breaks
    ring = curve1.ring
    comps = list(curve1.components)
    c4 = comps[3]
    comps[3] = ComponentSpec(
        scroll=c4.scroll,
        delta=c4.delta,
        p_forms=tuple(f for f in c4.p_forms if f != ring.variable("a")),
    )
    mutated = TwoLinearSpec(ring, tuple(comps))
    report = validate(mutated)
    assert not report.ok
    f_failures = [f for f in report.failures if f.condition == "f"]
    assert f_failures and f_failures[0].indices == (4,)
    assert report.conditions["d"] and report.conditions["e"]


def test_condition_d_failure_witness():
    ring = Ring(("x0", "x1", "x2", "d", "p"))
    block = ScrollMatrix((ScrollBlock(tuple(ring.variable(v) for v in ("x0", "x1", "x2"))),))
    spec = TwoLinearSpec(ring, (
        ComponentSpec(),
        ComponentSpec(scroll=block, delta=(ring.variable("d"),),
                      p_forms=(ring.variable("p"),)),
    ))
    report = validate(spec)
    failed = [f for f in report.failures if f.condition == "d"]
    assert failed and failed[0].indices == (2,)
    assert failed[0].witness == "x0*x2 - x1^2"


# --- component / full ideals -----------------------------------------------------

def test_component_ideal_of_last_component():
    ring = Ring(("x", "y"))
    spec = TwoLinearSpec(ring, (
        ComponentSpec(),
        ComponentSpec(delta=(ring.variable("x"),), p_forms=(ring.variable("y"),)),
    ))
    assert set(component_ideal(spec, 2).generators) == {ring.variable("y")}


def test_component_ideal_out_of_range(curve1):
    with pytest.raises(Exception):
        component_ideal(curve1, 5)


def test_first_curve_component_one(curve1):
    got = set(str(g) for g in component_ideal(curve1, 1).generators)
    assert got == {"u*v - w^2", "a", "b", "c"}


def test_qprime_component_two(qprime):
    got = set(str(g) for g in component_ideal(qprime, 2).generators)
    assert got == {"b", "d", "f"}


def test_full_ideal_two_lines():
    spec = fixtures.coordinate_lines_spec()
    handle = full_ideal(spec)
    assert [str(g) for g in handle.generators] == ["x*y"]


@pytest.mark.parametrize("builder", [
    "first_curve_spec", "second_curve_spec", "qprime_spec",
    "square_block_spec", "two_rows_spec", "fiber_shaped_spec",
    "coordinate_lines_spec",
])
def test_full_ideal_groebner_equal_to_intersection(builder):
    spec = getattr(fixtures, builder)()
    handle = full_ideal(spec, check=False)
    inter = intersection_ideal(spec)
    assert handle.groebner_basis() == inter.groebner_basis()
    # membership sanity both ways on the generators
    for g in handle.generators:
        assert ideal_member(g, inter)


def test_published_generators_lie_in_the_first_curve_intersection(curve1):
    inter = intersection_ideal(curve1)
    for text in ("c*b", "u*v - w^2", "c*a + a*b", "c*v + a*v + b*v"):
        assert ideal_member(parse(curve1.ring, text), inter)


def test_second_curve_full_tableau(curve2):
    # the published full presentation: the quadric plus eleven products
    from scrollstci.linjoin import product_generators

    ring = curve2.ring
    products = {str(g) for g in product_generators(curve2)}
    expected = {
        "b*c", "b*x", "a*c", "a*b", "a*x", "c*y",
        "b*y - b*u", "a*z - a*u", "x*y", "c*z", "x*z",
    }
    assert products == expected
    handle = full_ideal(curve2, check=False)
    assert len(handle.generators) == 12


def test_full_ideal_rejects_invalid_spec():
    ring = Ring(("x", "y"))
    bad = TwoLinearSpec(ring, (
        ComponentSpec(p_forms=(ring.variable("x"),)),
        ComponentSpec(delta=(ring.variable("x"),), p_forms=(ring.variable("y"),)),
    ))
    with pytest.raises(SpecValidationError):
        full_ideal(bad)


# --- projdim / cd / ara bound ------------------------------------------------------

def test_projdim_two_lines():
    assert projdim(fixtures.coordinate_lines_spec()) == 1


def test_projdim_fixture_values(curve1, curve2, qprime):
    assert projdim(curve1) == 6
    assert projdim(curve2) == 5
    assert projdim(qprime) == 3


def test_projdim_rejects_single_component():
    ring = Ring(("x", "y"))
    spec = TwoLinearSpec(ring, (ComponentSpec(),))
    with pytest.raises(SpecValidationError):
        projdim(spec)


def test_projdim_invariant_under_basis_change(curve2):
    ring = curve2.ring
    comps = list(curve2.components)
    c2 = comps[1]
    comps[1] = ComponentSpec(
        scroll=c2.scroll,
        delta=(parse(ring, "x + c"), parse(ring, "c")),       # same span as (x, c)
        p_forms=(parse(ring, "y - z"), parse(ring, "2*z")),   # same span as (y, z)
    )
    rebased = TwoLinearSpec(ring, tuple(comps))
    assert validate(rebased).ok
    assert projdim(rebased) == projdim(curve2) == 5


def test_projdim_l2_no_scroll_formula():
    ring = Ring(("a", "b", "p", "q", "r"))
    spec = TwoLinearSpec(ring, (
        ComponentSpec(),
        ComponentSpec(delta=(ring.variable("a"), ring.variable("b")),
                      p_forms=(ring.variable("p"), ring.variable("q"), ring.variable("r"))),
    ))
    assert validate(spec).ok
    assert projdim(spec) == 2 + 3 - 1
    assert projdim(spec) == linear_span_dim(spec.p(2), ring) + \
        linear_span_dim(spec.delta(2), ring) - 1


def test_cohom_dim_values(curve2, qprime):
    assert cohom_dim(qprime).value == 3
    assert cohom_dim(curve2).value == 5
    assert cohom_dim(fixtures.coordinate_lines_spec()).value == 1
    assert "local cohomology" in cohom_dim(qprime).note


def test_cohom_dim_refuses_unknown_stci():
    spec = fixtures.eisenbud_evans_spec(r=3, alpha=1)
    with pytest.raises(SpecValidationError) as err:
        cohom_dim(spec)
    assert "component 1" in str(err.value)


@pytest.mark.parametrize("blocks, known", [
    (None, True),                                      # zero ideal
    ([("x0", "x1")], True),                            # one generic column: no minors
    ([("x0", "x1", "x2")], True),                      # one block, c = 1
    ([("x0", "x1", "x2", "x3")], True),                # c = 2
    ([("x0", "x1", "x2", "x3", "x4")], True),          # c = 3
    ([("x0", "x1"), ("x2", "x3")], True),              # two generic columns: principal
    ([("x0", "x1"), ("x2", "x3"), ("x4", "x5")], False),
    ([("x0", "x1", "x2"), ("x3", "x4")], False),       # generic plus non-generic
])
def test_cohom_dim_scroll_shapes(blocks, known):
    ring = Ring(("x0", "x1", "x2", "x3", "x4", "x5", "y", "z"))
    scroll = None if blocks is None else ScrollMatrix(tuple(
        ScrollBlock(tuple(ring.variable(v) for v in b)) for b in blocks))
    spec = TwoLinearSpec(ring, (
        ComponentSpec(scroll=scroll),
        ComponentSpec(delta=(ring.variable("y"),), p_forms=(ring.variable("z"),)),
    ))
    if known:
        assert cohom_dim(spec).value == 1
    else:
        with pytest.raises(SpecValidationError, match="component 1"):
            cohom_dim(spec)


def test_ara_upper_bound_values(curve1, qprime):
    assert ara_upper_bound(qprime) == 4          # projdim 3 + (1 - 0)
    assert ara_upper_bound(curve1) == 6          # single block contributes 0
    assert ara_upper_bound(fixtures.two_rows_spec()) == 4


def test_ara_upper_bound_refuses_missing_rows():
    with pytest.raises(SpecValidationError):
        ara_upper_bound(fixtures.square_block_spec())


# --- families ------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_barile_family(n):
    spec = fixtures.barile_spec(n)
    assert validate(spec).ok
    assert projdim(spec) == n + 1
    assert cohom_dim(spec).value == n + 1


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_eisenbud_evans_family(r, alpha):
    spec = fixtures.eisenbud_evans_spec(r, alpha)
    assert validate(spec).ok
    assert projdim(spec) == spec.ring.arity - alpha - 1


# --- serialization ---------------------------------------------------------------------

def test_spec_json_round_trip(curve2):
    doc = curve2.to_json()
    again = TwoLinearSpec.from_json(doc)
    assert again == curve2


def test_fixture_files_match_builders(curve1, curve2, qprime):
    for name, spec in [
        ("example-curve-1.json", curve1),
        ("example-curve-2.json", curve2),
        ("example-qprime.json", qprime),
    ]:
        loaded = TwoLinearSpec.from_json(load_fixture_json(name))
        assert loaded == spec
