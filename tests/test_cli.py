"""End-to-end CLI coverage: one run per subcommand plus the exit-code contract."""

import json

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


def test_projdim_and_cd(capsys):
    spec = str(FIXTURES_DIR / "example-qprime.json")
    code, doc = invoke(capsys, "projdim", spec)
    assert code == 0 and doc["payload"]["projdim"] == 3
    code, doc = invoke(capsys, "cd", spec)
    assert code == 0 and doc["payload"]["cd"] == 3


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


def test_lattice(capsys):
    code, doc = invoke(capsys, "lattice", "--basis", "1,-2,1,0;0,1,-2,1")
    assert code == 0
    gens = doc["payload"]["ideal"]["gens"]
    assert len(gens) == 3
    code, doc = invoke(capsys, "lattice", "--basis", "1,0;0,1")
    assert code == 0 and doc["diagnostics"]


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


def test_deep_nesting_is_an_error_not_a_verdict(tmp_path, capsys):
    nested = "(" * 5000 + "x" + ")" * 5000
    path = write_ideal(tmp_path, "deep.json", ["x"], [nested])
    code, doc = invoke(capsys, "gb", path)
    assert code == 2 and doc["status"] == "error"
    assert any("RecursionError" in d for d in doc["diagnostics"])
    path = write_ideal(tmp_path, "i.json", ["x"], ["x"])
    code, doc = invoke(capsys, "member", path, "--poly", nested)
    assert code == 2 and doc["status"] == "error"
    assert any("RecursionError" in d for d in doc["diagnostics"])


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


def test_timeout_env_var(capsys, tmp_path, monkeypatch):
    variables = [f"x{i}" for i in range(8)]
    gens = [f"x{i}^3 - x{(i + 1) % 8}*x{(i + 2) % 8} - 1" for i in range(8)]
    path = write_ideal(tmp_path, "slow.json", variables, gens)
    monkeypatch.setenv("SCROLLSTCI_TIMEOUT", "0.0")
    code, doc = invoke(capsys, "gb", path)
    assert code == 2 and doc["payload"]["message"] == "timed out"


def test_field_override(tmp_path, capsys):
    path = write_ideal(tmp_path, "i.json", ["x", "y"], ["x^2 - y"])
    code, doc = invoke(capsys, "--field", "Fp=7", "gb", path)
    assert code == 0
    assert doc["payload"]["basis"] == ["x^2 + 6*y"]


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
