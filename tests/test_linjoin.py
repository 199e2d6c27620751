"""Linearly joined specifications: validation, ideals, numerical invariants."""

import json
import random

import pytest

from scrollstci import linjoin, oracle, scroll
from scrollstci.cli import run
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
from scrollstci.oracle import IdealHandle, ideal_member, intersect
from scrollstci.poly import QQ, Fp, Ring, linear_form, linear_span_dim, parse
from scrollstci.scroll import ScrollBlock, ScrollMatrix

import worked_examples as examples
from conftest import FIXTURES_DIR


@pytest.fixture(scope="module")
def curve1():
    return examples.spec("example-curve-1")


@pytest.fixture(scope="module")
def curve2():
    return examples.spec("example-curve-2")


@pytest.fixture(scope="module")
def qprime():
    return examples.spec("example-qprime")


# --- validation ---------------------------------------------------------------

def test_two_coordinate_lines_pass():
    report = validate(examples.spec("example-coordinate-lines"))
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


# shipped specs outside the two families, keyed by the ids their tests run under
NAMED_EXAMPLES = {
    "first_curve_spec": "example-curve-1",
    "second_curve_spec": "example-curve-2",
    "qprime_spec": "example-qprime",
    "square_block_spec": "example-square-block",
    "two_rows_spec": "example-two-rows",
    "coordinate_lines_spec": "example-coordinate-lines",
    "fiber_shaped_spec": "example-fiber-shape",
}


@pytest.mark.parametrize("name", NAMED_EXAMPLES)
def test_fixture_specs_validate(name):
    spec = examples.spec(NAMED_EXAMPLES[name])
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
    square = validate(examples.spec("example-square-block")).ara_hypotheses
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
    assert f_failures[0].witness == "a*x"
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


def test_dependent_scroll_entries_are_reported_before_meeting_the_linear_part():
    ring = Ring(("a", "b", "c"))
    a, b = ring.variable("a"), ring.variable("b")
    dependent = ScrollMatrix((ScrollBlock((a, b, a)),))
    spec = TwoLinearSpec(ring, (ComponentSpec(scroll=dependent),))
    assert [f.message for f in validate(spec).failures if f.condition == "structure"] == [
        "scroll entries of component 1 are linearly dependent",
        "scroll entries of component 1 meet its linear part",
    ]
    independent = ScrollMatrix((ScrollBlock((a, b, ring.variable("c"))),))
    assert validate(TwoLinearSpec(ring, (ComponentSpec(scroll=independent),))).ok
    meeting = TwoLinearSpec(ring, (ComponentSpec(scroll=independent),
                                   ComponentSpec(delta=(a,), p_forms=(b,))))
    assert [f.message for f in validate(meeting).failures if f.condition == "structure"] == [
        "scroll entries of component 1 meet its linear part"]


def _groebner_f_failures(spec):
    """Condition (f) by the Groebner route: fold the intersection of the (Q_j),
    then test each of its generators against (P_k, D_{k-1}).  Failing k."""
    failing = []
    running = None
    for k in range(2, spec.l + 1):
        prev = IdealHandle(spec.ring, spec.q_space(k - 1))
        running = prev if running is None else intersect(running, prev)
        target = IdealHandle(spec.ring, spec.p(k) + spec.d_space(k - 1))
        if not all(target.contains(g) for g in running.generators):
            failing.append(k)
    return failing


def _random_form(rng, ring):
    while True:
        coeffs = [0 if rng.random() < 0.6 else rng.choice((1, -1, 2))
                  for _ in range(ring.arity)]
        form = linear_form(ring, coeffs)
        if not form.is_zero():
            return form


def _random_spec(rng):
    n = rng.randint(3, 7)
    ring = Ring(tuple(f"x{i}" for i in range(n)), rng.choice((QQ, Fp(2), Fp(3), Fp(7))))
    comps = [ComponentSpec()]
    for _ in range(rng.randint(1, 3)):
        comps.append(ComponentSpec(
            delta=tuple(_random_form(rng, ring) for _ in range(rng.randint(0, 2))),
            p_forms=tuple(_random_form(rng, ring) for _ in range(rng.randint(0, 3)))))
    return TwoLinearSpec(ring, tuple(comps))


def test_condition_f_matches_the_groebner_route():
    # (P_k, D_{k-1}) is prime, so prime avoidance reduces (f) to spans; the
    # verdicts must agree with intersecting the (Q_j) and testing membership,
    # and every witness must replay: inside each (Q_j), outside the prime
    rng = random.Random(20261018)
    failing_specs = passing_specs = 0
    for _ in range(220):
        spec = _random_spec(rng)
        f_failures = [f for f in validate(spec).failures if f.condition == "f"]
        assert [f.indices[0] for f in f_failures] == _groebner_f_failures(spec)
        for failure in f_failures:
            (k,) = failure.indices
            w = parse(spec.ring, failure.witness)
            for j in range(1, k):
                assert IdealHandle(spec.ring, spec.q_space(j)).contains(w)
            assert not IdealHandle(spec.ring, spec.p(k) + spec.d_space(k - 1)).contains(w)
        failing_specs += bool(f_failures)
        passing_specs += not f_failures
    assert failing_specs >= 40 and passing_specs >= 40


def test_validate_computes_no_groebner_basis(monkeypatch, curve1, curve2, qprime):
    def refuse(*args, **kwargs):
        raise AssertionError("validate ran Buchberger")

    monkeypatch.setattr(oracle, "_buchberger", refuse)
    for spec in (curve1, curve2, qprime):
        assert validate(spec).ok


@pytest.mark.parametrize("command", ["validate", "ideal", "arabound", "synth", "cd"])
def test_one_validation_per_command(monkeypatch, command):
    calls = []
    inner = linjoin.validate

    def counting(spec):
        calls.append(spec)
        return inner(spec)

    monkeypatch.setattr(linjoin, "validate", counting)
    result = run([command, str(FIXTURES_DIR / "example-curve-1.json")])
    assert result.status == "ok"
    assert len(calls) == 1


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
    spec = examples.spec("example-coordinate-lines")
    handle = full_ideal(spec)
    assert [str(g) for g in handle.generators] == ["x*y"]


@pytest.mark.parametrize("name", NAMED_EXAMPLES)
def test_full_ideal_groebner_equal_to_intersection(name):
    spec = examples.spec(NAMED_EXAMPLES[name])
    handle = IdealHandle(spec.ring, examples.presentation(spec))
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
    gens = examples.presentation(curve2)
    products = {str(g) for g in gens[1:]}
    expected = {
        "b*c", "b*x", "a*c", "a*b", "a*x", "c*y",
        "b*y - b*u", "a*z - a*u", "x*y", "c*z", "x*z",
    }
    assert products == expected
    handle = IdealHandle(curve2.ring, gens)
    assert len(handle.generators) == 12


@pytest.mark.parametrize("name", ["example-curve-1", "example-qprime", "example-barile"])
def test_the_fold_takes_each_scrolls_minors_once(name, monkeypatch):
    spec = examples.spec(name)
    scrolls = [c.scroll for c in spec.components if c.scroll is not None and c.scroll.ncols >= 2]
    calls, minors_2x2 = [], scroll.minors_2x2
    monkeypatch.setattr(scroll, "minors_2x2", lambda m: calls.append(m) or minors_2x2(m))
    for build in (full_ideal, intersection_ideal):
        del calls[:]
        build(spec)
        assert calls == scrolls, build.__name__


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
    assert projdim(examples.spec("example-coordinate-lines")) == 1


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
    assert cohom_dim(examples.spec("example-coordinate-lines")).value == 1
    assert "local cohomology" in cohom_dim(qprime).note


def test_cohom_dim_refuses_unknown_stci():
    spec = examples.eisenbud_evans_spec(r=3, alpha=1)
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
    # P_2 = (z, row 1 of the scroll) holds the minors, so the spec is valid;
    # its value is dim(P_2 + Delta_2) - 1 = (1 + len(row)) + 1 - 1
    ring = Ring(("x0", "x1", "x2", "x3", "x4", "x5", "y", "z"))
    scroll = None if blocks is None else ScrollMatrix(tuple(
        ScrollBlock(tuple(ring.variable(v) for v in b)) for b in blocks))
    row = () if scroll is None else scroll.row(1)
    spec = TwoLinearSpec(ring, (
        ComponentSpec(scroll=scroll),
        ComponentSpec(delta=(ring.variable("y"),), p_forms=(ring.variable("z"),) + row),
    ))
    assert validate(spec).ok
    if known:
        assert cohom_dim(spec).value == projdim(spec) == 1 + len(row)
    else:
        with pytest.raises(SpecValidationError, match="component 1"):
            cohom_dim(spec)


def test_ara_upper_bound_values(curve1, qprime):
    assert ara_upper_bound(qprime) == 4          # projdim 3 + (1 - 0)
    assert ara_upper_bound(curve1) == 6          # single block contributes 0
    assert ara_upper_bound(examples.spec("example-two-rows")) == 4


def test_ara_upper_bound_refuses_missing_rows():
    with pytest.raises(SpecValidationError):
        ara_upper_bound(examples.spec("example-square-block"))


# --- families ------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_barile_family(n):
    spec = examples.barile_spec(n)
    assert validate(spec).ok
    assert projdim(spec) == n + 1
    assert cohom_dim(spec).value == n + 1


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_eisenbud_evans_family(r, alpha):
    spec = examples.eisenbud_evans_spec(r, alpha)
    assert validate(spec).ok
    assert projdim(spec) == spec.ring.arity - alpha - 1


# --- serialization ---------------------------------------------------------------------

def test_spec_json_round_trip(curve2):
    doc = curve2.to_json()
    again = TwoLinearSpec.from_json(doc)
    assert again == curve2


def test_fixture_files_round_trip():
    # the shipped files are the only copy of the worked examples: each reads
    # back to exactly its own text, and no file is missing or extra
    shipped = {p.name: p.read_text() for p in FIXTURES_DIR.glob("*.json")}
    assert sorted(shipped) == sorted(
        [f"{name}.json" for name in examples.SPECS]
        + ["example-qprime-generators.json", "example-barile-generators.json",
           "example-twisted-cubic.json"])
    assert len(shipped) == 12
    for name in examples.SPECS:
        text = json.dumps(examples.spec(name).to_json(), indent=2) + "\n"
        assert shipped[f"{name}.json"] == text, name
    gens = [str(g) for g in examples.qprime_generators()]
    assert shipped["example-qprime-generators.json"] == json.dumps(gens, indent=2) + "\n"
    gens = [str(g) for g in examples.barile_generators()]
    assert shipped["example-barile-generators.json"] == json.dumps(gens, indent=2) + "\n"
    basis = [list(v) for v in examples.twisted_cubic_basis().vectors]
    assert shipped["example-twisted-cubic.json"] == json.dumps(basis) + "\n"
    # one member of each family is shipped
    assert examples.barile_spec(2) == examples.spec("example-barile")
    assert examples.eisenbud_evans_spec(2, 1) == examples.spec("example-eisenbud-evans")
