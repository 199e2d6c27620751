"""The spec layer's exact output, pinned against a recorded file.

``spec_outputs.json`` holds, for every case, the spec and what the program
gave for it: ``validate(spec).to_json()``, and ``synthesize(spec,
verify=False).to_json()`` or the name of the exception class it raised.  The
cases are the seeded random specs of the condition-(f) cross-check, every
spec fixture, the generated and shuffled specs of the acceptance suite, and
valid and broken tilde overrides.  A refactor of the linear algebra must
give every recorded output exactly.

Rewrite the file only for an intended change of output:

    PYTHONPATH=src python tests/test_spec_outputs.py
"""

import json
import random
from pathlib import Path

from scrollstci.linjoin import ComponentSpec, TwoLinearSpec, validate
from scrollstci.synth import synthesize

OUTPUTS = Path(__file__).resolve().parent / "spec_outputs.json"


def _synth_outcome(spec):
    try:
        return synthesize(spec, verify=False).to_json()
    except Exception as exc:
        return {"raises": type(exc).__name__}


def _with_tildes(spec, tilde_delta=None, tilde_p=None):
    """``spec`` with the given {component: override text} tilde bases."""
    from scrollstci.poly import parse

    comps = []
    for i, comp in enumerate(spec.components, start=1):
        td, tp = (tilde_delta or {}).get(i), (tilde_p or {}).get(i)
        comps.append(ComponentSpec(
            scroll=comp.scroll, delta=comp.delta, p_forms=comp.p_forms,
            tilde_delta=comp.tilde_delta if td is None else
            tuple(parse(spec.ring, t) for t in td),
            tilde_p=comp.tilde_p if tp is None else tuple(parse(spec.ring, t) for t in tp),
        ))
    return TwoLinearSpec(spec.ring, tuple(comps))


def _cases():
    """(validate cases, synthesize cases): lists of (name, spec)."""
    import worked_examples as examples
    from test_acceptance import _random_valid_spec, _shuffle_listed_bases
    from test_linjoin import _random_spec

    fixture_specs = [(name, examples.spec(name)) for name in examples.SPECS]
    rng = random.Random(20261018)
    validate_cases = [(f"random-{n}", _random_spec(rng)) for n in range(220)] + fixture_specs

    synth_cases = list(fixture_specs)
    rng = random.Random(31415)
    synth_cases += [(f"generated-{n}", _random_valid_spec(rng)) for n in range(25)]
    rng = random.Random(2718)
    for label, name in (("coordinate_lines_spec", "example-coordinate-lines"),
                        ("fiber_shaped_spec", "example-fiber-shape"),
                        ("second_curve_spec", "example-curve-2"),
                        ("first_curve_spec", "example-curve-1")):
        synth_cases += [(f"shuffled-{label}-{n}", _shuffle_listed_bases(examples.spec(name), rng))
                        for n in range(3)]
    curve1, curve2 = examples.spec("example-curve-1"), examples.spec("example-curve-2")
    overrides = [
        ("curve2-misaligned-p4", curve2, None, {4: ("y - u", "a", "x")}),
        ("curve2-p3-drops-corner", curve2, None, {3: ("z - u",)}),
        ("curve2-p3-reordered", curve2, None, {3: ("z - u", "x")}),
        ("curve2-p3-outside", curve2, None, {3: ("x", "y")}),
        ("curve2-p3-meets-inner", curve2, None, {3: ("x", "z - u", "c")}),
        ("curve2-p3-short", curve2, None, {3: ("x",)}),
        ("curve2-delta2-kept", curve2, {2: ("x",)}, None),
        ("curve2-delta2-drops-corner", curve2, {2: ("x + c",)}, None),
        ("curve2-delta2-inner", curve2, {2: ("c",)}, None),
        ("curve2-delta2-outside", curve2, {2: ("u",)}, None),
        ("curve2-delta2-empty", curve2, {2: ()}, None),
        ("curve1-delta3-reordered", curve1, {3: tuple(str(f) for f in reversed(curve1.delta(3)))},
         None),
        ("curve1-p2-reordered", curve1, None, {2: ("v", "z", "y")}),
        ("curve1-p2-drops-corner", curve1, None, {2: ("y", "z", "w")}),
    ]
    synth_cases += [(name, _with_tildes(spec, td, tp)) for name, spec, td, tp in overrides]
    return validate_cases, synth_cases


def _record() -> dict:
    validate_cases, synth_cases = _cases()
    return {
        "validate": [{"name": name, "spec": spec.to_json(), "report": validate(spec).to_json()}
                     for name, spec in validate_cases],
        "synthesize": [{"name": name, "spec": spec.to_json(), "outcome": _synth_outcome(spec)}
                       for name, spec in synth_cases],
    }


# a missing file fails test_recorded_specs_are_the_generated_ones below
RECORDED = json.loads(OUTPUTS.read_text()) if OUTPUTS.exists() else \
    {"validate": [], "synthesize": []}


def _mismatches(kind, compute, key):
    """Names of the recorded ``kind`` cases whose output ``compute`` no longer gives."""
    return [c["name"] for c in RECORDED[kind]
            if json.loads(json.dumps(compute(TwoLinearSpec.from_json(c["spec"])))) != c[key]]


def test_validate_output_is_pinned():
    assert _mismatches("validate", lambda spec: validate(spec).to_json(), "report") == []


def test_synthesize_output_is_pinned():
    assert _mismatches("synthesize", _synth_outcome, "outcome") == []


def test_recorded_specs_are_the_generated_ones():
    # the file pins the specs the generators build today, not stale copies
    for kind, cases in zip(("validate", "synthesize"), _cases()):
        assert [(name, spec.to_json()) for name, spec in cases] == \
            [(c["name"], c["spec"]) for c in RECORDED[kind]]


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    doc = _record()
    lines = ",\n".join(
        f'"{kind}": [\n' + ",\n".join(json.dumps(c, sort_keys=True) for c in doc[kind]) + "\n]"
        for kind in ("validate", "synthesize"))
    OUTPUTS.write_text("{\n" + lines + "\n}\n")
    print(f"{sum(map(len, doc.values()))} cases written to {OUTPUTS}")
