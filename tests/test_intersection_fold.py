"""The certified intersection fold against the elimination route.

``linjoin.intersection_ideal`` keeps each product-presentation candidate that
``oracle.certify_intersection`` proves and eliminates otherwise.  The
reference here is ``intersect_many`` over the component ideals, which
eliminates at every step; reduced bases must be identical.  A proof comes
from leading-term bounds when they meet, and from exact bases otherwise.
"""

import json

import pytest

from scrollstci import oracle
from scrollstci.linjoin import (
    SpecValidationError,
    TwoLinearSpec,
    component_ideal,
    full_ideal,
    intersection_ideal,
    validate,
)
from scrollstci.oracle import IdealHandle, intersect_many

import worked_examples as examples
from test_spec_outputs import RECORDED

# validated pinned specs on which the product presentation is not the
# intersection, so ``full_ideal`` refuses them (see ROADMAP, validate gap)
NOT_THE_INTERSECTION = {
    "random-15", "random-24", "random-72", "random-103", "random-108", "random-119",
    "random-134", "random-138", "random-139", "random-146", "random-163", "random-185",
    "random-199",
}


@pytest.fixture
def steps(monkeypatch):
    """The verdicts of ``certify_intersection``, in call order."""
    verdicts = []
    certify = oracle.certify_intersection

    def recorded(C, A, B):
        verdicts.append(certify(C, A, B))
        return verdicts[-1]

    monkeypatch.setattr(oracle, "certify_intersection", recorded)
    return verdicts


@pytest.fixture
def routes(monkeypatch):
    """Per ``certify_intersection`` call, (C, route): "refused", or the route
    of the proof, "exact" when it grew a basis of A + B and "bounds" else."""
    out, grown = [], []
    certify, extend = oracle.certify_intersection, oracle._extend

    def recorded(C, A, B):
        del grown[:]
        verdict = certify(C, A, B)
        out.append((C, "refused" if not verdict else "exact" if grown else "bounds"))
        return verdict

    monkeypatch.setattr(oracle, "_extend", lambda H, polys: grown.append(1) or extend(H, polys))
    monkeypatch.setattr(oracle, "certify_intersection", recorded)
    return out


def _eliminated(spec):
    return intersect_many([component_ideal(spec, i) for i in range(1, spec.l + 1)])


def _pinned_specs():
    """(name, field, spec): each distinct pinned spec over its own field, QQ and F_101."""
    seen = set()
    for kind in ("validate", "synthesize"):
        for case in RECORDED[kind]:
            for field in (case["spec"]["ring"].get("field", "QQ"), "QQ", {"Fp": 101}):
                doc = dict(case["spec"], ring=dict(case["spec"]["ring"], field=field))
                key = json.dumps(doc, sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    yield case["name"], field, TwoLinearSpec.from_json(doc)


def test_fold_matches_elimination_on_every_pinned_spec(steps, routes):
    differ, refused, exact = [], set(), set()
    for name, field, spec in _pinned_specs():
        del steps[:], routes[:]
        if intersection_ideal(spec).groebner_basis() != _eliminated(spec).groebner_basis():
            differ.append((name, field))
        if False in steps:
            refused.add(name)
            assert steps.count(False) == 1 and steps[-1] is False  # no later candidate
        if any(r == "exact" for _, r in routes):
            exact.add(name)
        # generated specs and the fixtures are what the CLI sees: every step
        # certified, and by the leading-term bounds alone
        if name.startswith("generated-") or name in examples.SPECS:
            assert validate(spec).ok and steps == [True] * (spec.l - 1), (name, field)
            assert [r for _, r in routes] == ["bounds"] * (spec.l - 1), (name, field)
    assert differ == []
    assert NOT_THE_INTERSECTION <= refused
    # both routes prove steps: random-164 passes validate, but its
    # candidate's generators are not a Groebner basis
    assert "random-164" in exact


def test_a_step_the_bounds_decide_leaves_the_candidates_own_basis(routes):
    decided = 0
    for name, field, spec in _pinned_specs():
        del routes[:]
        intersection_ideal(spec)
        for C, route in routes:
            if route == "bounds":
                fresh = IdealHandle(C.ring, C.generators)
                assert C.groebner_basis() == fresh.groebner_basis(), (name, field)
                assert C.hilbert_numerator() == fresh.hilbert_numerator(), (name, field)
                decided += 1
    assert decided


def test_full_ideal_refuses_exactly_the_validated_specs_the_fold_refutes(steps):
    refused = []
    for case in RECORDED["validate"]:
        spec = TwoLinearSpec.from_json(case["spec"])
        if not case["report"]["ok"]:
            continue
        del steps[:]
        try:
            handle = full_ideal(spec)
        except SpecValidationError as exc:
            assert str(exc) == "generated ideal differs from the intersection of the components"
            assert False in steps
            refused.append(case["name"])
        else:
            assert False not in steps
            reference = IdealHandle(spec.ring, examples.presentation(spec))
            assert handle.generators == reference.generators
            assert handle._packed  # the certified handle comes back with its basis
    assert set(refused) == NOT_THE_INTERSECTION


def _fold_with(monkeypatch, change):
    """Run the fold on the second curve with ``change`` applied to the
    generators of step 2's candidate before ``certify_intersection`` sees it."""
    certify, seen = oracle.certify_intersection, []

    def changed(C, A, B):
        seen.append(C)
        if len(seen) == 1:  # step 2
            C = IdealHandle(C.ring, change(list(C.generators)))
        return certify(C, A, B)

    monkeypatch.setattr(oracle, "certify_intersection", changed)
    return intersection_ideal(examples.spec("example-curve-2"))


def test_a_candidate_too_large_fails_containment_and_the_fold_eliminates(monkeypatch, steps):
    spec = examples.spec("example-curve-2")
    extra = spec.ring.variable("w")
    assert not component_ideal(spec, 1).contains(extra)
    got = _fold_with(monkeypatch, lambda gens: gens + [extra])
    assert steps == [False]
    assert got.groebner_basis() == _eliminated(spec).groebner_basis()


def test_a_candidate_too_small_fails_the_hilbert_series_and_the_fold_eliminates(monkeypatch,
                                                                               steps):
    spec = examples.spec("example-curve-2")
    A, B = component_ideal(spec, 1), component_ideal(spec, 2)
    *short, last = examples.presentation(spec, 2)
    # containment holds, so the Hilbert series is what refuses the candidate
    assert all(A.contains(g) and B.contains(g) for g in short)
    got = _fold_with(monkeypatch, lambda gens: [g for g in gens if g != last])
    assert steps == [False]
    assert got.groebner_basis() == _eliminated(spec).groebner_basis()
