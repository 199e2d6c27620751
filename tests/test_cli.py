"""End-to-end CLI coverage: one run per subcommand plus the exit-code contract."""

import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scrollstci.cli import main, run
from scrollstci.poly import Ring, parse

from conftest import FIXTURES_DIR


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_ideal(tmp_path, name, variables, gens, field="QQ"):
    doc = {"ring": {"vars": list(variables), "field": field}, "gens": gens}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_gb(tmp_path, capsys):
    path = write_ideal(tmp_path, "i.json", ["x", "y"], ["x - y", "x + y"])
    code, doc = invoke(capsys, "gb", path)
    assert code == 0 and doc["status"] == "ok"
    assert set(doc["payload"]["basis"]) == {"x", "y"}


def test_gb_with_lex_order(tmp_path, capsys):
    path = write_ideal(tmp_path, "i.json", ["z", "y", "x"], ["y - x^2", "z - x^3"])
    code, doc = invoke(capsys, "gb", path, "--order", "lex")
    assert code == 0
    ring = Ring(("z", "y", "x"))
    got = {parse(ring, s) for s in doc["payload"]["basis"]}
    assert got == {parse(ring, "y - x^2"), parse(ring, "z - x^3")}


@pytest.mark.parametrize("order, message", [
    ("block:99", "block prefix 99 exceeds the ring's 3 variables"),
    ("block:4", "block prefix 4 exceeds the ring's 3 variables"),
    ("block:x", "unknown term order 'block:x'"),
    ("block:-1", "unknown term order 'block:-1'"),
    ("block: 2", "unknown term order 'block: 2'"),
    ("block", "term order 'block' needs a prefix size: write block:K"),
])
def test_gb_refuses_a_bad_block_order(tmp_path, capsys, order, message):
    # block:99 ran as lex, and block:x answered with a ValueError repr
    path = write_ideal(tmp_path, "i.json", ["x", "y", "z"], ["x^2 - y", "y*z - x"])
    code, doc = invoke(capsys, "gb", path, "--order", order)
    assert code == 2 and doc["payload"]["message"] == message


def test_gb_with_a_block_order_as_wide_as_the_ring(tmp_path, capsys):
    path = write_ideal(tmp_path, "i.json", ["x", "y", "z"], ["x^2 - y", "y*z - x"])
    code, doc = invoke(capsys, "gb", path, "--order", "block:3")
    assert code == 0 and doc["payload"]["basis"] == ["-y*z + x", "y^2*z^2 - y"]


def test_member_true_false(tmp_path, capsys):
    path = write_ideal(tmp_path, "i.json", ["x", "y"], ["x"])
    code, doc = invoke(capsys, "member", path, "--poly", "x^2*y")
    assert code == 0 and doc["payload"]["member"] is True
    code, doc = invoke(capsys, "member", path, "--poly", "y")
    assert code == 1 and doc["status"] == "false"


def test_radmember(tmp_path, capsys):
    path = write_ideal(tmp_path, "i.json", ["x", "y"], ["x^2"])
    code, doc = invoke(capsys, "radmember", path, "--poly", "x")
    assert code == 0 and doc["payload"]["witness_k"] == 2
    code, doc = invoke(capsys, "radmember", path, "--poly", "y")
    assert code == 1


def test_radeq_exit_codes(tmp_path, capsys):
    a = write_ideal(tmp_path, "a.json", ["x", "y"], ["x^2"])
    b = write_ideal(tmp_path, "b.json", ["x", "y"], ["x"])
    c = write_ideal(tmp_path, "c.json", ["x", "y"], ["y"])
    code, doc = invoke(capsys, "radeq", a, b)
    assert code == 0 and doc["payload"]["equal"] is True
    code, doc = invoke(capsys, "radeq", a, c)
    assert code == 1 and doc["status"] == "false"


def test_radeq_of_high_exponents_ends(tmp_path, capsys):
    # a Hilbert recursion one level per degree of x would pass Python's recursion limit here
    high = write_ideal(tmp_path, "high.json", ["x", "y", "z"], ["x^1200*y", "x^1200*z"])
    low = write_ideal(tmp_path, "low.json", ["x", "y", "z"], ["x*y", "x*z"])
    for other in (low, high):
        code, doc = invoke(capsys, "radeq", high, other)
        assert code == 0 and doc["payload"]["equal"] is True


def test_the_fresh_variable_avoids_every_name_of_the_ring(tmp_path, capsys):
    # the ring holds t and t0, so the Rabinowitsch, intersection and saturation
    # rings extend it by t1 (and t2 for the lattice ring t, t0, t1)
    high = write_ideal(tmp_path, "high.json", ["t", "t0", "x"], ["t^9*x"])
    low = write_ideal(tmp_path, "low.json", ["t", "t0", "x"], ["t*x"])
    line = write_ideal(tmp_path, "line.json", ["t", "t0", "x"], ["t0 - x"])
    code, doc = invoke(capsys, "radeq", high, low)
    assert code == 0 and doc["payload"]["equal"] is True
    code, doc = invoke(capsys, "radmember", high, "--poly", "t*x")
    assert code == 0 and doc["payload"]["member"] is True and doc["payload"]["witness_k"] is None
    code, doc = invoke(capsys, "radmember", high, "--poly", "t0")
    assert code == 1
    code, doc = invoke(capsys, "intersect", low, line)
    assert code == 0 and doc["payload"]["gens"] == ["t*t0*x - t*x^2"]
    code, doc = invoke(capsys, "lattice", "--basis", "1,-2,1", "--ring", "t,t0,t1")
    assert code == 0 and doc["payload"]["ideal"]["gens"] == ["-t*t1 + t0^2"]


def test_intersect(tmp_path, capsys):
    a = write_ideal(tmp_path, "a.json", ["x", "y"], ["x"])
    b = write_ideal(tmp_path, "b.json", ["x", "y"], ["y"])
    code, doc = invoke(capsys, "intersect", a, b)
    assert code == 0
    assert doc["payload"]["gens"] == ["x*y"]


def test_minors_and_verdi_from_block(capsys):
    code, doc = invoke(capsys, "minors", "--block", "x0,x1,x2,x3")
    assert code == 0
    assert doc["payload"]["minors"] == ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"]
    code, doc = invoke(capsys, "verdi", "--block", "x0,x1,x2,x3")
    assert code == 0
    assert doc["payload"]["F"] == ["x0*x2 - x1^2", "x0*x3^2 - 2*x1*x2*x3 + x2^3"]


def test_verdi_refuses_a_two_block_scroll(tmp_path, capsys):
    path = tmp_path / "two-blocks.json"
    path.write_text(json.dumps({"ring": {"vars": ["x", "y", "z", "w"]},
                                "blocks": [{"entries": ["x", "y"]}, {"entries": ["z", "w"]}]}))
    code, doc = invoke(capsys, "verdi", str(path))
    assert code == 2 and doc["payload"]["message"] == "Verdi generators take a single block"


def test_classify(tmp_path, capsys):
    doc_in = {
        "ring": {"vars": ["x", "y", "z"], "field": "QQ"},
        "scroll": {"blocks": [{"entries": ["x", "y", "z"]}]},
        "delta": ["x", "y"],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc_in))
    code, doc = invoke(capsys, "classify", str(path))
    assert code == 0 and doc["payload"]["case"] == "row_in_delta"
    doc_in["delta"] = ["x"]
    path.write_text(json.dumps(doc_in))
    code, doc = invoke(capsys, "classify", str(path))
    assert code == 1 and doc["payload"]["case"] == "not_contained"


def test_classify_file_without_delta_is_refused(tmp_path, capsys):
    doc_in = {"ring": {"vars": ["x", "y", "z"]}, "blocks": [{"entries": ["x", "y", "z"]}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc_in))
    code, doc = invoke(capsys, "classify", str(path))
    assert code == 2
    assert doc["payload"]["message"] == "classification needs a 'delta' list in the input file"
    path.write_text(json.dumps({**doc_in, "delta": []}))  # classified modulo (0)
    code, doc = invoke(capsys, "classify", str(path))
    assert code == 1 and doc["payload"]["case"] == "not_contained"


def test_classify_refuses_a_delta_form_that_is_not_linear(tmp_path, capsys):
    doc_in = {"ring": {"vars": ["x", "y", "z"]},
              "blocks": [{"entries": ["x", "y", "z"]}], "delta": ["x^2", "y"]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc_in))
    code, doc = invoke(capsys, "classify", str(path))
    assert code == 2 and doc["payload"]["message"] == "not a linear form: x^2"


@pytest.mark.parametrize("value", [False, 0, "", [], {}], ids=repr)
def test_a_falsy_scroll_is_malformed_not_absent(tmp_path, capsys, value):
    # read as "no scroll", component 1 lost its Verdi generator and validated
    spec = json.loads((FIXTURES_DIR / "example-curve-1.json").read_text())
    spec["components"][0]["scroll"] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, doc = invoke(capsys, "validate", str(path))
    assert code == 2 and doc["payload"]["message"].startswith("malformed input in ")


def test_classify_refuses_a_scroll_key_that_is_false(tmp_path, capsys):
    doc_in = {"ring": {"vars": ["x", "y", "z"]}, "scroll": False,
              "blocks": [{"entries": ["x", "y", "z"]}], "delta": ["x", "y"]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc_in))
    code, doc = invoke(capsys, "classify", str(path))
    assert code == 2 and doc["payload"]["message"].startswith("malformed input in ")


@pytest.mark.parametrize("command", ["minors", "verdi", "classify"])
def test_a_scroll_file_with_nested_and_top_level_blocks_is_refused(tmp_path, capsys, command):
    # the nested scroll was read and the top-level blocks dropped: minors gave x*z - y^2
    doc_in = {"ring": {"vars": ["x", "y", "z", "w"]},
              "scroll": {"blocks": [{"entries": ["x", "y", "z"]}]},
              "blocks": [{"entries": ["x", "y", "w"]}], "delta": ["x"]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc_in))
    code, doc = invoke(capsys, command, str(path))
    assert code == 2 and doc["payload"]["message"] == (
        f"malformed input in {str(path)!r}: the scroll is given two ways: 'scroll' and 'blocks'")


def test_validate(capsys, tmp_path):
    code, doc = invoke(capsys, "validate", str(FIXTURES_DIR / "example-curve-2.json"))
    assert code == 0 and doc["payload"]["ok"] is True
    bad = {
        "ring": {"vars": ["x", "y"], "field": "QQ"},
        "components": [
            {"scroll": None, "delta": [], "p": ["x"]},
            {"scroll": None, "delta": ["x"], "p": ["y"]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, doc = invoke(capsys, "validate", str(path))
    assert code == 1 and doc["status"] == "invalid"


def test_ideal_full_and_component(capsys):
    spec = str(FIXTURES_DIR / "example-qprime.json")
    code, doc = invoke(capsys, "ideal", spec)
    assert code == 0 and len(doc["payload"]["gens"]) == 6
    code, doc = invoke(capsys, "ideal", spec, "--component", "2")
    assert code == 0 and set(doc["payload"]["gens"]) == {"f", "b", "d"}


def test_ideal_has_no_uncertified_mode(capsys):
    # the full ideal is always certified against the intersection
    spec = str(FIXTURES_DIR / "example-curve-1.json")
    code, doc = invoke(capsys, "ideal", spec, "--no-check")
    assert code == 2 and doc["payload"] == {"message": "bad arguments"}


def test_projdim_and_cd(capsys):
    spec = str(FIXTURES_DIR / "example-qprime.json")
    code, doc = invoke(capsys, "projdim", spec)
    assert code == 0 and doc["payload"]["projdim"] == 3
    code, doc = invoke(capsys, "cd", spec)
    assert code == 0 and doc["payload"]["cd"] == 3


def test_cd_refuses_a_spec_that_fails_validation(capsys, tmp_path):
    # (e) fails: the minors of the scroll on x, y, z are not inside (P_2) = (w)
    spec = {
        "ring": {"vars": ["x", "y", "z", "w"], "field": "QQ"},
        "components": [
            {"scroll": {"blocks": [{"entries": ["x", "y", "z"]}]}, "delta": [], "p": []},
            {"scroll": None, "delta": ["w"], "p": ["w"]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, doc = invoke(capsys, "validate", str(path))
    assert code == 1 and doc["payload"]["conditions"]["e"] is False
    code, doc = invoke(capsys, "cd", str(path))
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"]["message"].startswith("spec fails validation: ")


def test_arabound(capsys):
    spec = str(FIXTURES_DIR / "example-qprime.json")
    code, doc = invoke(capsys, "arabound", spec)
    assert code == 0 and doc["payload"]["bound"] == 4
    code, doc = invoke(capsys, "arabound", "--generic-columns", "4")
    assert code == 0 and doc["payload"] == {"ara": 5, "projdim": 3}


def test_synth_deterministic_output(capsys):
    spec = str(FIXTURES_DIR / "example-curve-2.json")
    code1 = main(["synth", spec])
    out1 = capsys.readouterr().out
    code2 = main(["synth", spec])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["payload"]["verified"] is True
    assert doc["payload"]["count"] == doc["payload"]["projdim"] == 5


def test_verify(capsys):
    spec = str(FIXTURES_DIR / "example-qprime.json")
    gens = str(FIXTURES_DIR / "example-qprime-generators.json")
    code, doc = invoke(capsys, "verify", spec, "--gens-file", gens)
    assert code == 0 and doc["payload"]["verified"] is True
    code, doc = invoke(capsys, "verify", spec, "--gens", "a*d - b*c")
    assert code == 1 and doc["status"] == "false"


def test_verify_barile_list(capsys):
    # three generators for Barile's example, where the summed bound says four
    spec = str(FIXTURES_DIR / "example-barile.json")
    gens_file = FIXTURES_DIR / "example-barile-generators.json"
    code, doc = invoke(capsys, "verify", spec, "--gens-file", str(gens_file))
    assert code == 0 and doc["payload"] == {"verified": True}
    first_two = json.loads(gens_file.read_text())[:2]
    code, doc = invoke(capsys, "verify", spec, "--gens", ";".join(first_two))
    assert code == 1 and doc["payload"] == {"verified": False}


def test_lattice(capsys):
    code, doc = invoke(capsys, "lattice", "--basis", "1,-2,1,0;0,1,-2,1")
    assert code == 0
    gens = doc["payload"]["ideal"]["gens"]
    assert len(gens) == 3
    code, doc = invoke(capsys, "lattice", "--basis", "1,0;0,1")
    assert code == 0 and doc["diagnostics"] == ["lattice contains the nonnegative vector (1, 0)"]


def test_lattice_basis_names_a_bad_entry_and_accepts_spaces(capsys):
    # int() answered with its own repr: malformed input: ValueError("invalid literal ...")
    code, doc = invoke(capsys, "lattice", "--basis", "1,x")
    assert code == 2 and doc["payload"]["message"] == "bad integer 'x' in --basis"
    code, doc = invoke(capsys, "lattice", "--basis", "1, -2; 0 ,1")
    assert code == 0 and doc["payload"]["ideal"]["gens"] == ["x1 - 1", "x2 - 1"]


def test_lattice_names_a_nonnegative_vector_no_small_combination_shows(capsys):
    # (1, 0) = 3*(3, -1) + (-8, 3), so the lattice is Z^2
    code, doc = invoke(capsys, "lattice", "--basis", "3,-1;-8,3")
    assert code == 0
    assert doc["payload"]["ideal"]["gens"] == ["x1 - 1", "x2 - 1"]
    assert doc["diagnostics"] == ["lattice contains the nonnegative vector (1, 0)"]


def test_fibercheck(capsys):
    code, doc = invoke(capsys, "fibercheck", str(FIXTURES_DIR / "example-fiber-shape.json"))
    assert code == 0 and doc["payload"]["fiber_shape"] is True
    code, doc = invoke(capsys, "fibercheck", str(FIXTURES_DIR / "example-curve-2.json"))
    assert code == 1 and doc["status"] == "false"


def test_error_exit_codes(tmp_path, capsys):
    code, doc = invoke(capsys, "projdim", "no-such-file.json")
    assert code == 2 and doc["status"] == "error"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = invoke(capsys, "gb", str(bad))
    assert code == 2
    path = write_ideal(tmp_path, "i.json", ["x"], ["x"])
    code, doc = invoke(capsys, "member", path, "--poly", "q + 1")
    assert code == 2


def test_an_input_given_two_ways_or_not_at_all_is_bad_arguments(tmp_path, capsys):
    # each pair names one input two ways; given both, the command used to read
    # one, drop the other without a word and exit 0
    block = tmp_path / "block.json"
    block.write_text(json.dumps({"ring": {"vars": ["x", "y", "z"]},
                                 "blocks": [{"entries": ["x", "y", "z"]}]}))
    spec = str(FIXTURES_DIR / "example-qprime.json")
    gens = str(FIXTURES_DIR / "example-qprime-generators.json")
    basis = str(FIXTURES_DIR / "example-twisted-cubic.json")
    for argv in (
        ["minors", str(block), "--block", "a,b"],
        ["lattice", "--basis-file", basis, "--basis", "1,-1"],
        ["verify", spec, "--gens-file", gens, "--gens", "a"],
        ["arabound", str(tmp_path / "missing.json"), "--generic-columns", "3"],
        ["minors"], ["lattice"], ["verify", spec], ["arabound"],
    ):
        code, doc = invoke(capsys, *argv)
        assert code == 2 and doc["payload"] == {"message": "bad arguments"}, argv
    code, doc = invoke(capsys, "minors", str(block))
    assert code == 0 and doc["payload"] == {"minors": ["x*z - y^2"]}
    # an empty --gens is the empty list, a well-formed negative
    code, doc = invoke(capsys, "verify", spec, "--gens", "")
    assert code == 1 and doc["payload"] == {"verified": False}


def test_wrongly_shaped_files_name_the_file_and_the_field(tmp_path, capsys):
    spec = str(FIXTURES_DIR / "example-curve-1.json")
    matrix_file = str(FIXTURES_DIR / "example-twisted-cubic.json")  # a list of lists
    code, doc = invoke(capsys, "verify", spec, "--gens-file", matrix_file)
    assert code == 2
    assert doc["payload"]["message"] == (
        f"malformed input in {matrix_file!r}: expected polynomial text, got [1, -2, 1, 0]")
    barile = str(FIXTURES_DIR / "example-barile.json")  # a spec, not a scroll file
    code, doc = invoke(capsys, "classify", barile)
    assert code == 2
    assert doc["payload"]["message"] == f"malformed input in {barile!r}: missing key 'blocks'"
    code, doc = invoke(capsys, "radeq", spec, barile)  # specs, not ideal files
    assert code == 2
    assert doc["payload"]["message"] == f"malformed input in {spec!r}: missing key 'gens'"
    odd = tmp_path / "odd.json"
    # a component that is a string, not an object
    odd.write_text(json.dumps({"ring": {"vars": ["x"]}, "components": ["x"]}))
    code, doc = invoke(capsys, "validate", str(odd))
    assert code == 2 and doc["payload"]["message"].startswith(f"malformed input in {str(odd)!r}")


_SCROLL = {"blocks": [{"entries": ["x", "y", "z"]}]}
_SPEC = {"ring": {"vars": ["x", "y", "z", "u"]},
         "components": [{"scroll": _SCROLL},
                        {"delta": ["u"], "p": ["x", "y"], "tilde_delta": ["u"], "tilde_p": ["x"]}]}


def _replaced(doc, path, value):
    """``doc`` with the value at ``path`` (keys and list indices) replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    owner = doc
    for key in parents:
        owner = owner[key]
    owner[last] = value
    return doc


@pytest.mark.parametrize("argv, doc, what", [
    (["gb"], {"ring": {"vars": ["x", "y"]}, "gens": "xy"}, "polynomial strings in 'gens'"),
    (["gb"], {"ring": {"vars": "xy"}, "gens": ["x"]}, "variable names in 'vars'"),
    (["validate"], _replaced(_SPEC, ["components"], "xy"), "spec components in 'components'"),
    (["validate"], _replaced(_SPEC, ["components", 0, "scroll", "blocks"], "xyz"),
     "scroll blocks in 'blocks'"),
    (["validate"], _replaced(_SPEC, ["components", 0, "scroll", "blocks", 0, "entries"], "xyz"),
     "polynomial strings in 'entries'"),
    (["validate"], _replaced(_SPEC, ["components", 1, "delta"], "u"),
     "polynomial strings in 'delta'"),
    (["validate"], _replaced(_SPEC, ["components", 1, "p"], "xy"), "polynomial strings in 'p'"),
    (["synth"], _replaced(_SPEC, ["components", 1, "tilde_delta"], "u"),
     "polynomial strings in 'tilde_delta'"),
    (["synth"], _replaced(_SPEC, ["components", 1, "tilde_p"], "x"),
     "polynomial strings in 'tilde_p'"),
    (["classify"], {"ring": {"vars": ["x", "y", "z"]}, **_SCROLL, "delta": "xy"},
     "polynomial strings in 'delta'"),
    (["lattice", "--basis-file"], ["12", "21"], "integers in each vector"),
], ids=["gens", "vars", "components", "blocks", "entries", "delta", "p", "tilde_delta",
        "tilde_p", "classify-delta", "basis-vector"])
def test_a_string_is_not_read_as_a_json_list(tmp_path, capsys, argv, doc, what):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = invoke(capsys, *argv, str(path))
    assert code == 2
    assert out["payload"]["message"] == (
        f"malformed input in {str(path)!r}: expected a JSON list of {what}")


def test_parse_error_in_a_file_names_the_file(tmp_path, capsys):
    path = write_ideal(tmp_path, "q.json", ["x"], ["x + q"])
    code, doc = invoke(capsys, "gb", path)
    assert code == 2
    assert doc["payload"]["message"] == f"malformed input in {path!r}: unknown variable 'q'"


def test_a_denominator_that_vanishes_modulo_p_is_malformed_input(tmp_path, capsys):
    # it reached FieldSpec.inv(0) and answered "internal error: inverse of zero"
    path = write_ideal(tmp_path, "half.json", ["x", "y"], ["1/2*x", "y"])
    code, doc = invoke(capsys, "--field", "Fp=2", "gb", path)
    assert code == 2 and doc["diagnostics"] == []
    assert doc["payload"]["message"] == (
        f"malformed input in {path!r}: denominator 2 vanishes modulo 2")
    code, doc = invoke(capsys, "--field", "Fp=3", "gb", path)
    assert code == 0 and doc["payload"]["basis"] == ["x", "y"]


def test_gens_file_must_hold_a_list(capsys):
    spec = str(FIXTURES_DIR / "example-curve-1.json")
    other = str(FIXTURES_DIR / "example-curve-2.json")  # a spec object, not a list
    code, doc = invoke(capsys, "verify", spec, "--gens-file", other)
    assert code == 2
    assert doc["payload"]["message"] == (
        f"malformed input in {other!r}: expected a JSON list of polynomial strings")


def test_basis_file_must_hold_a_list(tmp_path, capsys):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"vectors": [[1, -1]]}))  # an object's keys are not vectors
    code, doc = invoke(capsys, "lattice", "--basis-file", str(path))
    assert code == 2
    assert doc["payload"]["message"] == (
        f"malformed input in {str(path)!r}: expected a JSON list of integer vectors")


@pytest.mark.parametrize("argv, doc, what, shown", [
    (["gb"], {"ring": {"vars": ["x", "y"], "field": {"Fp": 2.5}}, "gens": ["x^2 + y"]},
     "the modulus in 'Fp'", "2.5"),
    (["gb"], {"ring": {"vars": ["x", "y"], "field": {"Fp": True}}, "gens": ["x^2 + y"]},
     "the modulus in 'Fp'", "true"),
    (["lattice", "--basis-file"], [[1.5, -1]], "a basis vector entry", "1.5"),
    (["lattice", "--basis-file"], [[1, -1], [False, True]], "a basis vector entry", "false"),
], ids=["modulus-float", "modulus-bool", "basis-float", "basis-bool"])
def test_a_float_or_boolean_is_not_read_as_an_integer(tmp_path, capsys, argv, doc, what, shown):
    # int() would run gb over F_2 and take the lattice of (1, -1); both exited 0
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = invoke(capsys, *argv, str(path))
    assert code == 2
    assert out["payload"]["message"] == (
        f"malformed input in {str(path)!r}: expected a JSON integer for {what}, got {shown}")


_HALVES = {"ring": {"vars": ["x", "y", "z"]},
           "gens": ["2*x - y", "3*y^2 - 2*x*z", "x*z - 5*z^2"]}
# x_i -> x_i + 2*x_{i+1} applied to a two-component leading-block spec (l = 2, c = 2)
_BIDIAGONAL = {"ring": {"vars": ["m0", "m1", "m2", "m3", "d2", "e2"], "field": "QQ"},
               "components": [
                   {"scroll": {"blocks": [{"entries": ["m0 + 2*m1", "m1 + 2*m2", "m2 + 2*m3",
                                                       "m3 + 2*d2"]}]},
                    "delta": [], "p": []},
                   {"scroll": None, "delta": ["d2 + 2*e2"],
                    "p": ["e2", "m3 + 2*d2", "m1 + 2*m2", "m2 + 2*m3"]}]}


@pytest.mark.parametrize("argv, doc, want", [
    (["gb"], _HALVES,
     {"status": "ok", "payload": {"basis": ["z^3", "y^2 - 10/3*z^2", "y*z - 10*z^2",
                                            "x - 1/2*y"]}, "diagnostics": []}),
    (["gb", "--order", "lex"], _HALVES,
     {"status": "ok", "payload": {"basis": ["x - 1/2*y", "y^2 - 10/3*z^2", "y*z - 10*z^2",
                                            "z^3"]}, "diagnostics": []}),
    (["member", "--poly", "1/2*y^2 - x*y"], _HALVES,
     {"status": "ok", "payload": {"member": True, "normal_form": "0"}, "diagnostics": []}),
    (["member", "--poly", "y^2"], _HALVES,
     {"status": "false", "payload": {"member": False, "normal_form": "10/3*z^2"},
      "diagnostics": []}),
    (["synth"], _BIDIAGONAL,
     {"status": "ok", "payload": {
         "generators": [
             "m0*m2 + 2*m0*m3 - m1^2 - 2*m1*m2 + 4*m1*m3 - 4*m2^2",
             "m0*m3^2 + 4*m0*m3*d2 + 4*m0*d2^2 - 2*m1*m2*m3 - 4*m1*m2*d2 - 2*m1*m3^2"
             " + 8*m1*d2^2 + m2^3 + 2*m2^2*m3 - 8*m2^2*d2 + 4*m2*m3^2 - 16*m2*m3*d2 + 8*m3^3",
             "d2*e2 + 2*e2^2",
             "m3*d2 + 2*m3*e2 + 2*d2^2 + 4*d2*e2"],
         "count": 4, "projdim": 4, "verified": True,
         "provenance": [["verdi", 1, 1], ["verdi", 1, 2], ["tableau_row", 1], ["tableau_row", 2]],
         "diagnostics": []}, "diagnostics": []}),
], ids=["gb", "gb-lex", "member", "non-member", "synth-bidiagonal"])
def test_outputs_over_qq_with_non_integral_coefficients_are_pinned(tmp_path, capsys,
                                                                    argv, doc, want):
    # recorded from the code that held every rational as a Fraction
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = invoke(capsys, argv[0], str(path), *argv[1:])
    assert out == want
    assert code == (1 if want["status"] == "false" else 0)


def test_unreadable_path_is_bad_input(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")  # not UTF-8
    for path in (str(tmp_path), str(binary)):  # a directory, then undecodable bytes
        code, doc = invoke(capsys, "gb", path)
        assert code == 2
        assert doc["payload"]["message"] == f"unreadable file {path!r}"
        assert doc["diagnostics"] == []


def _pinned_spec(tmp_path, name):
    """The spec of case ``name`` in the validate list of spec_outputs.json, as a file."""
    cases = json.loads((Path(__file__).resolve().parent / "spec_outputs.json").read_text())
    spec, = (case["spec"] for case in cases["validate"] if case["name"] == name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_synth_reports_generators_outside_the_intersection(tmp_path, capsys):
    code, doc = invoke(capsys, "synth", _pinned_spec(tmp_path, "random-119"))
    payload = doc["payload"]
    assert code == 1 and doc["status"] == "false"
    assert (payload["count"], payload["projdim"], payload["verified"]) == (5, 4, False)
    assert payload["diagnostics"][0] == "generator count 5 differs from projective dimension 4"
    outside = [d for d in payload["diagnostics"]
               if d.startswith("generator outside the intersection: ")]
    assert outside == [f"generator outside the intersection: {payload['generators'][i]}"
                       for i in (2, 4)]


def test_synth_reports_a_count_above_projdim_and_still_verifies(tmp_path, capsys):
    code, doc = invoke(capsys, "synth", _pinned_spec(tmp_path, "random-15"))
    payload = doc["payload"]
    assert code == 0 and payload["verified"] is True
    assert (payload["generators"], payload["count"], payload["projdim"]) == (["x1^2"], 1, 0)
    assert payload["diagnostics"] == ["generator count 1 differs from projective dimension 0"]


def test_synth_refuses_multi_block_specs(capsys):
    code, doc = invoke(capsys, "synth", str(FIXTURES_DIR / "example-qprime.json"))
    assert code == 2 and doc["status"] == "error"
    assert "verify_generator_list / ara_upper_bound" in doc["payload"]["message"]


def test_deep_nesting_is_an_error_not_a_verdict(tmp_path, capsys):
    # nesting is bounded by the parser, so it is malformed input, not an
    # interpreter recursion error
    nested = "(" * 5000 + "x" + ")" * 5000
    path = write_ideal(tmp_path, "deep.json", ["x"], [nested])
    code, doc = invoke(capsys, "gb", path)
    assert code == 2 and doc["status"] == "error" and doc["diagnostics"] == []
    assert doc["payload"]["message"] == \
        f"malformed input in {path!r}: parentheses nested deeper than 100"
    path = write_ideal(tmp_path, "i.json", ["x"], ["x"])
    code, doc = invoke(capsys, "member", path, "--poly", nested)
    assert code == 2 and doc["status"] == "error" and doc["diagnostics"] == []
    assert doc["payload"]["message"] == "parentheses nested deeper than 100"
    code, doc = invoke(capsys, "member", path, "--poly", "(" * 100 + "x" + ")" * 100)
    assert code == 0 and doc["payload"]["member"] is True


def test_gb_of_a_huge_exponent_answers_its_basis(tmp_path, capsys):
    path = write_ideal(tmp_path, "i.json", ["x", "y"], ["x^3000000000 - y"])
    for order in ("degrevlex", "lex"):
        code, doc = invoke(capsys, "gb", path, "--order", order)
        assert code == 0 and doc["payload"]["basis"] == ["x^3000000000 - y"]


def test_synth_rejects_verify_flag(capsys):
    spec = str(FIXTURES_DIR / "example-coordinate-lines.json")
    code, doc = invoke(capsys, "synth", spec, "--verify")
    assert code == 2 and doc["status"] == "error"


def test_timeout_exit(capsys, tmp_path):
    variables = [f"x{i}" for i in range(8)]
    gens = [f"x{i}^3 - x{(i + 1) % 8}*x{(i + 2) % 8} - 1" for i in range(8)]
    path = write_ideal(tmp_path, "slow.json", variables, gens)
    code, doc = invoke(capsys, "--timeout", "0.0", "gb", path)
    assert code == 2 and doc["payload"]["message"] == "timed out"


def test_timeout_bounds_powering(capsys, tmp_path):
    # parsing (x+y+z)^200 alone runs for minutes; the deadline stops the products
    path = write_ideal(tmp_path, "i.json", ["x", "y", "z"], ["x"])
    start = time.monotonic()
    code, doc = invoke(capsys, "--timeout", "1", "member", path, "--poly", "(x+y+z)^200")
    assert time.monotonic() - start < 10
    assert code == 2 and doc["payload"]["message"] == "timed out"


# a prime whose trial division runs for minutes; the deadline stops it
LARGE_PRIME = 1000000000000000009


def test_timeout_bounds_the_modulus_check(capsys, tmp_path):
    spec = FIXTURES_DIR / "example-curve-1.json"
    start = time.monotonic()
    code, doc = invoke(capsys, "--timeout", "0.5", "--field", f"Fp={LARGE_PRIME}",
                       "validate", str(spec))
    assert time.monotonic() - start < 10
    assert code == 2 and doc["payload"]["message"] == "timed out"
    doc = json.loads(spec.read_text())
    path = tmp_path / "large-prime.json"
    path.write_text(json.dumps({**doc, "ring": {**doc["ring"], "field": {"Fp": LARGE_PRIME}}}))
    start = time.monotonic()
    code, doc = invoke(capsys, "--timeout", "0.5", "validate", str(path))
    assert time.monotonic() - start < 10
    assert code == 2 and doc["payload"]["message"] == "timed out"


def test_timeout_env_var(capsys, tmp_path, monkeypatch):
    variables = [f"x{i}" for i in range(8)]
    gens = [f"x{i}^3 - x{(i + 1) % 8}*x{(i + 2) % 8} - 1" for i in range(8)]
    path = write_ideal(tmp_path, "slow.json", variables, gens)
    monkeypatch.setenv("SCROLLSTCI_TIMEOUT", "0.0")
    code, doc = invoke(capsys, "gb", path)
    assert code == 2 and doc["payload"]["message"] == "timed out"


def test_timeout_env_var_is_read_on_every_run(capsys, tmp_path, monkeypatch):
    # the parser is built once per process, so its first build must not freeze
    # the variable; a value that is no number is bad input, not a crash
    variables = [f"x{i}" for i in range(8)]
    gens = [f"x{i}^3 - x{(i + 1) % 8}*x{(i + 2) % 8} - 1" for i in range(8)]
    slow = write_ideal(tmp_path, "slow.json", variables, gens)
    quick = write_ideal(tmp_path, "quick.json", ["x"], ["x"])
    monkeypatch.setenv("SCROLLSTCI_TIMEOUT", "300")
    assert run(["gb", quick]).status == "ok"
    monkeypatch.setenv("SCROLLSTCI_TIMEOUT", "0.0")
    code, doc = invoke(capsys, "gb", slow)
    assert code == 2 and doc["diagnostics"] == ["computation exceeded 0.0 seconds"]
    monkeypatch.setenv("SCROLLSTCI_TIMEOUT", "soon")
    code, doc = invoke(capsys, "gb", quick)
    assert code == 2 and doc["status"] == "error"


def test_a_nan_timeout_is_refused_and_inf_means_no_limit(capsys, tmp_path, monkeypatch):
    path = write_ideal(tmp_path, "quick.json", ["x"], ["x"])
    code, doc = invoke(capsys, "--timeout", "nan", "gb", path)
    assert code == 2 and doc["payload"]["message"] == "timeout must be a number of seconds, not nan"
    monkeypatch.setenv("SCROLLSTCI_TIMEOUT", "nan")
    code, doc = invoke(capsys, "gb", path)
    assert code == 2 and doc["payload"]["message"] == "timeout must be a number of seconds, not nan"
    monkeypatch.setenv("SCROLLSTCI_TIMEOUT", "inf")
    assert invoke(capsys, "gb", path)[0] == 0
    assert invoke(capsys, "--timeout", "inf", "gb", path)[0] == 0


class _ClosedPipe:
    """An output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_output_pipe_exits_2_not_1(monkeypatch):
    # 1 is kept for a delivered negative verdict; fibercheck gives 1 on this spec
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(["fibercheck", str(FIXTURES_DIR / "example-curve-1.json")]) == 2
    assert main(["validate", str(FIXTURES_DIR / "example-curve-1.json")]) == 2

def test_field_override(tmp_path, capsys):
    path = write_ideal(tmp_path, "i.json", ["x", "y"], ["x^2 - y"])
    code, doc = invoke(capsys, "--field", "Fp=7", "gb", path)
    assert code == 0
    assert doc["payload"]["basis"] == ["x^2 + 6*y"]


@pytest.mark.parametrize("field, message", [
    ("bogus", "bad field 'bogus'; use QQ or Fp=p"),
    ("Fp=4", "modulus must be prime, got 4"),
])
def test_a_bad_field_is_refused_by_a_command_that_loads_no_file(capsys, field, message):
    code, doc = invoke(capsys, "--field", field, "arabound", "--generic-columns", "4")
    assert code == 2 and doc["payload"]["message"] == message


def test_an_explicit_rational_field_equals_no_flag():
    curve = str(FIXTURES_DIR / "example-curve-1.json")
    for argv in (["validate", curve], ["synth", curve], ["lattice", "--basis", "1,-2,1"],
                 ["verdi", "--block", "x0,x1,x2,x3"]):
        assert run(["--field", "QQ", *argv]).to_json() == run(argv).to_json()


def test_a_bad_field_is_named_before_the_rest_of_the_input(capsys):
    code, doc = invoke(capsys, "--field", "bogus", "lattice", "--basis", "1,x")
    assert code == 2 and doc["payload"]["message"] == "bad field 'bogus'; use QQ or Fp=p"


def test_prime_field_verdicts_carry_a_characteristic_flag(tmp_path, capsys):
    a = write_ideal(tmp_path, "a.json", ["x", "y"], ["x^2"], field={"Fp": 5})
    b = write_ideal(tmp_path, "b.json", ["x", "y"], ["x"], field={"Fp": 5})
    code, doc = invoke(capsys, "radeq", a, b)
    assert code == 0 and doc["payload"]["equal"] is True
    assert any("characteristic 5" in d for d in doc["diagnostics"])


def test_synth_no_verify(capsys):
    spec = str(FIXTURES_DIR / "example-coordinate-lines.json")
    code, doc = invoke(capsys, "synth", spec, "--no-verify")
    assert code == 0
    assert doc["payload"]["verified"] is None
    assert any("skipped" in d for d in doc["diagnostics"])


def test_round_trip_of_emitted_polynomials(capsys):
    spec = str(FIXTURES_DIR / "example-curve-1.json")
    code, doc = invoke(capsys, "synth", spec)
    assert code == 0
    ring = Ring(("a", "b", "c", "x", "y", "z", "u", "v", "w"))
    for text in doc["payload"]["generators"]:
        assert str(parse(ring, text)) == text


def test_run_returns_command_result():
    result = run(["projdim", str(FIXTURES_DIR / "example-curve-1.json")])
    assert result.status == "ok"
    assert result.payload == {"projdim": 6}
    assert result.exit_code == 0


# --- fuzzed exit-code contract ---------------------------------------------------

# the payload fields that carry a verdict; exit 1 needs one of them false
_VERDICTS = ("member", "equal", "contained", "ok", "verified", "fiber_shape")


def _check_contract(argv):
    result = run(["--timeout", "1"] + argv)  # never raises
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 1:
        assert result.status in ("false", "invalid")
        assert any(result.payload.get(key) is False for key in _VERDICTS)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)


def _document(fields):
    """One document every file-taking command can read: an ideal, a scroll
    with a Delta, and a two-component spec."""
    scroll = {"blocks": [{"entries": fields["entries"]}]}
    return {"ring": {"vars": fields["vars"]}, "gens": fields["gens"], "scroll": scroll,
            "delta": fields["delta"],
            "components": [{"scroll": scroll}, {"delta": fields["delta"], "p": ["x", "y"]}]}


_VALID = {"vars": ["x", "y", "z", "u"], "gens": ["x*z - y^2", "u"],
          "entries": ["x", "y", "z"], "delta": ["u"]}
# arbitrary JSON, or a valid document with up to two fields holding arbitrary text or JSON
_DOCUMENTS = st.one_of(_JSON, st.dictionaries(
    st.sampled_from(sorted(_VALID)),
    st.one_of(st.text(max_size=10), st.lists(st.text(max_size=6), min_size=1, max_size=3), _JSON),
    max_size=2).map(lambda broken: _document({**_VALID, **broken})))

_FILE_COMMANDS = [
    ["gb"], ["member", "--poly", "x"], ["radmember", "--poly", "x"], ["minors"], ["verdi"],
    ["classify"], ["validate"], ["projdim"], ["cd"], ["fibercheck"], ["ideal"], ["arabound"],
    ["synth"], ["verify", "--gens", "x"], ["lattice", "--basis-file"],
]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_DOCUMENTS)
def test_exit_code_contract_holds_for_any_file(tmp_path, doc):
    path = str(tmp_path / "fuzz.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    for argv in _FILE_COMMANDS:
        _check_contract(argv + [path])
    _check_contract(["radeq", path, path])
    _check_contract(["intersect", path, path])
    _check_contract(["verify", str(FIXTURES_DIR / "example-coordinate-lines.json"),
                     "--gens-file", path])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(option=st.sampled_from(["--poly", "--gens", "--basis", "--block", "--order"]),
       text=st.text(max_size=16))
def test_exit_code_contract_holds_for_any_option_text(tmp_path, option, text):
    ideal = write_ideal(tmp_path, "i.json", ["x", "y"], ["x^2", "x*y"])
    spec = str(FIXTURES_DIR / "example-coordinate-lines.json")
    commands = {
        "--poly": [["member", ideal], ["radmember", ideal]],
        "--gens": [["verify", spec]],
        "--basis": [["lattice"]],
        "--block": [["minors"], ["verdi"], ["classify"]],
        "--order": [["gb", ideal]],
    }[option]
    for argv in commands:
        _check_contract(argv + [option, text])
