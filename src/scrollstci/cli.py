"""Batch front end: JSON in, JSON certificates out, stable exit codes.

Exit code contract: 0 for ok/true verdicts, 1 for a well-formed negative
verdict (false/invalid), 2 for malformed input, timeouts, or internal errors.
Groebner computations have no a priori time bound; ``--timeout`` (or the
``SCROLLSTCI_TIMEOUT`` environment variable) aborts long runs with exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from . import lattice as lattice_mod
from . import linjoin, oracle, scroll, synth
from .oracle import IdealHandle, OracleTimeout, time_limit
from .poly import (
    FieldSpec,
    ParseError,
    Ring,
    ScrollstciError,
    json_list,
    order_from_string,
    parse,
)


@dataclass
class CommandResult:
    status: str  # ok | false | invalid | error
    payload: object = None
    diagnostics: list = dc_field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.status == "ok":
            return 0
        if self.status in ("false", "invalid"):
            return 1
        return 2

    def to_json(self):
        return {
            "status": self.status,
            "payload": self.payload,
            "diagnostics": list(self.diagnostics),
        }


def _parse_field(text: str | None) -> FieldSpec | None:
    if text is None:
        return None
    if text == "QQ":
        return FieldSpec("QQ")
    m = re.match(r"Fp=(\d+)\Z", text)
    if m:
        return FieldSpec("Fp", int(m.group(1)))
    raise ScrollstciError(f"bad field {text!r}; use QQ or Fp=p")


def _with_field(doc, field: FieldSpec | None):
    """``doc`` with the field of its ring replaced by ``field``, if given."""
    if field is None:
        return doc
    return {**doc, "ring": {**doc["ring"], "field": field.to_json()}}


def _from_file(path: str, build):
    """``build`` applied to the JSON document at ``path``; an unreadable file,
    bad JSON or a bad document (shape or polynomial text) names the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError):
        raise ScrollstciError(f"unreadable file {path!r}")
    except json.JSONDecodeError as exc:
        raise ScrollstciError(f"bad JSON in {path!r}: {exc}")
    try:
        return build(doc)
    except KeyError as exc:
        problem = f"missing key {exc.args[0]!r}"
    except (ParseError, TypeError, ValueError, AttributeError) as exc:
        problem = str(exc)
    raise ScrollstciError(f"malformed input in {path!r}: {problem}")


def _load_ideal(path: str, field: FieldSpec | None) -> IdealHandle:
    return _from_file(path, lambda doc: IdealHandle.from_json(_with_field(doc, field)))


def _load_spec(path: str, field: FieldSpec | None) -> linjoin.TwoLinearSpec:
    return _from_file(
        path, lambda doc: linjoin.TwoLinearSpec.from_json(_with_field(doc, field)))


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _infer_ring(snippets, field: FieldSpec | None) -> Ring:
    names: list[str] = []
    for s in snippets:
        for name in _IDENT_RE.findall(s):
            if name not in names:
                names.append(name)
    if not names:
        raise ScrollstciError("cannot infer a ring: no variables found")
    return Ring(tuple(names), field or FieldSpec("QQ"))


def _ring_from_args(args, field: FieldSpec | None, snippets) -> Ring:
    if getattr(args, "ring", None):
        return Ring(tuple(v.strip() for v in args.ring.split(",") if v.strip()),
                    field or FieldSpec("QQ"))
    return _infer_ring(snippets, field)


def _block_from_text(ring: Ring, text: str) -> scroll.ScrollBlock:
    entries = [parse(ring, part.strip()) for part in text.split(",") if part.strip()]
    return scroll.ScrollBlock(tuple(entries))


def _fp_diagnostics(ring: Ring) -> list:
    if ring.field.kind == "Fp":
        return [f"characteristic {ring.field.p}: radical verdicts may differ "
                "from characteristic zero"]
    return []


# --- subcommand handlers -----------------------------------------------------


def _cmd_gb(args, field: FieldSpec | None) -> CommandResult:
    handle = _load_ideal(args.ideal, field)
    basis = handle.groebner_basis(order_from_string(args.order))
    return CommandResult("ok", {"basis": [str(g) for g in basis]})


def _cmd_member(args, field: FieldSpec | None) -> CommandResult:
    handle = _load_ideal(args.ideal, field)
    f = parse(handle.ring, args.poly)
    nf = handle.normal_form(f)
    member = nf.is_zero()
    payload = {"member": member, "normal_form": str(nf)}
    return CommandResult("ok" if member else "false", payload)


def _cmd_radmember(args, field: FieldSpec | None) -> CommandResult:
    handle = _load_ideal(args.ideal, field)
    f = parse(handle.ring, args.poly)
    cert = oracle.radical_member(f, handle)
    return CommandResult("ok" if cert.member else "false", cert.to_json(),
                         _fp_diagnostics(handle.ring))


def _cmd_radeq(args, field: FieldSpec | None) -> CommandResult:
    I = _load_ideal(args.first, field)
    J = _load_ideal(args.second, field)
    equal = oracle.radical_equal(I, J)
    return CommandResult("ok" if equal else "false", {"equal": equal},
                         _fp_diagnostics(I.ring))


def _cmd_intersect(args, field: FieldSpec | None) -> CommandResult:
    handles = [_load_ideal(p, field) for p in args.ideals]
    result = oracle.intersect_many(handles)
    return CommandResult("ok", result.to_json())


def _load_scroll_doc(args, field: FieldSpec | None):
    if args.block is not None:
        ring = _ring_from_args(args, field, args.block.split(","))
        matrix = scroll.ScrollMatrix((_block_from_text(ring, args.block),))
        return ring, matrix, None

    def build(doc):
        doc = _with_field(doc, field)
        ring = Ring.from_json(doc["ring"])
        if "scroll" in doc and "blocks" in doc:
            raise ValueError("the scroll is given two ways: 'scroll' and 'blocks'")
        nested = doc.get("scroll")
        matrix = scroll.ScrollMatrix.from_json(ring, doc if nested is None else nested)
        if "delta" not in doc:  # the classify command refuses the file
            return ring, matrix, None
        return ring, matrix, [parse(ring, s) for s in
                              json_list(doc["delta"], "polynomial strings in 'delta'")]

    return _from_file(args.file, build)


def _cmd_minors(args, field: FieldSpec | None) -> CommandResult:
    _, matrix, _ = _load_scroll_doc(args, field)
    return CommandResult("ok", {"minors": [str(m) for m in scroll.minors_2x2(matrix)]})


def _cmd_verdi(args, field: FieldSpec | None) -> CommandResult:
    _, matrix, _ = _load_scroll_doc(args, field)
    if len(matrix.blocks) != 1:
        raise ScrollstciError("Verdi generators take a single block")
    gens = scroll.verdi_generators(matrix.blocks[0])
    return CommandResult("ok", {"F": [str(g) for g in gens]})


def _cmd_classify(args, field: FieldSpec | None) -> CommandResult:
    _, matrix, delta = _load_scroll_doc(args, field)
    if delta is None:
        raise ScrollstciError("classification needs a 'delta' list in the input file")
    result = scroll.classify_modulo(matrix, delta)
    return CommandResult("ok" if result.contained else "false", result.to_json())


def _cmd_validate(args, field: FieldSpec | None) -> CommandResult:
    spec = _load_spec(args.spec, field)
    report = linjoin.validate(spec)
    return CommandResult("ok" if report.ok else "invalid", report.to_json())


def _cmd_ideal(args, field: FieldSpec | None) -> CommandResult:
    spec = _load_spec(args.spec, field)
    if args.component is not None:
        handle = linjoin.component_ideal(spec, args.component)
    else:
        handle = linjoin.full_ideal(spec)
    return CommandResult("ok", handle.to_json())


def _cmd_projdim(args, field: FieldSpec | None) -> CommandResult:
    spec = _load_spec(args.spec, field)
    return CommandResult("ok", {"projdim": linjoin.projdim(spec)})


def _cmd_cd(args, field: FieldSpec | None) -> CommandResult:
    spec = _load_spec(args.spec, field)
    result = linjoin.cohom_dim(spec)
    return CommandResult("ok", {"cd": result.value, "note": result.note})


def _cmd_arabound(args, field: FieldSpec | None) -> CommandResult:
    if args.generic_columns is not None:
        facts = scroll.ara_bound_generic(args.generic_columns)
        return CommandResult("ok", {"ara": facts.ara, "projdim": facts.projdim})
    spec = _load_spec(args.spec, field)
    bound = linjoin.ara_upper_bound(spec)
    return CommandResult("ok", {"bound": bound, "projdim": linjoin.projdim(spec)})


def _cmd_synth(args, field: FieldSpec | None) -> CommandResult:
    spec = _load_spec(args.spec, field)
    certificate = synth.synthesize(spec, verify=not args.no_verify)
    payload = certificate.to_json()
    diagnostics = list(certificate.diagnostics) + _fp_diagnostics(spec.ring)
    if certificate.verified is None:
        diagnostics.append("oracle verification skipped (--no-verify)")
        return CommandResult("ok", payload, diagnostics)
    return CommandResult("ok" if certificate.verified else "false", payload, diagnostics)


def _cmd_verify(args, field: FieldSpec | None) -> CommandResult:
    spec = _load_spec(args.spec, field)
    if args.gens_file is not None:
        gens = _from_file(args.gens_file, lambda doc: [
            parse(spec.ring, t) for t in json_list(doc, "polynomial strings")])
    else:
        gens = [parse(spec.ring, t) for t in args.gens.split(";") if t.strip()]
    verdict = synth.verify_generator_list(gens, spec)
    return CommandResult("ok" if verdict else "false", {"verified": verdict},
                         _fp_diagnostics(spec.ring))


def _basis_entry(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScrollstciError(f"bad integer {text.strip()!r} in --basis") from None


def _parse_basis(args) -> lattice_mod.LatticeBasis:
    if args.basis_file is not None:
        return _from_file(args.basis_file, lambda doc: lattice_mod.LatticeBasis([
            json_list(row, "integers in each vector")
            for row in json_list(doc, "integer vectors")]))
    return lattice_mod.LatticeBasis([
        [_basis_entry(x) for x in row.split(",") if x.strip()]
        for row in args.basis.split(";") if row.strip()
    ])


def _cmd_lattice(args, field: FieldSpec | None) -> CommandResult:
    basis = _parse_basis(args)
    ring = _ring_from_args(args, field, [f"x{i}" for i in range(1, basis.r + 1)])
    handle = lattice_mod.lattice_ideal(ring, basis)
    u = lattice_mod.nonnegative_vector(handle)
    diagnostics = [] if u is None else [f"lattice contains the nonnegative vector {u}"]
    return CommandResult("ok", {"ideal": handle.to_json()}, diagnostics)


def _cmd_fibercheck(args, field: FieldSpec | None) -> CommandResult:
    spec = _load_spec(args.spec, field)
    verdict = lattice_mod.fiber_spec_check(spec)
    return CommandResult("ok" if verdict else "false", {"fiber_shape": verdict})


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="scrollstci",
        description="Exact certification toolkit for scroll determinantal ideals, "
                    "linearly joined decompositions, and lattice ideals.")
    parser.add_argument("--field", help="ground field: QQ (default) or Fp=p")
    parser.add_argument("--timeout", type=float,
                        help="abort Groebner runs after SECONDS (default 300)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gb", help="reduced Groebner basis of an ideal file")
    p.add_argument("ideal")
    p.add_argument("--order", default="degrevlex",
                   help="lex | degrevlex | block:K (default degrevlex)")
    p.set_defaults(handler=_cmd_gb)

    p = sub.add_parser("member", help="ideal membership of --poly")
    p.add_argument("ideal")
    p.add_argument("--poly", required=True)
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("radmember", help="radical membership of --poly")
    p.add_argument("ideal")
    p.add_argument("--poly", required=True)
    p.set_defaults(handler=_cmd_radmember)

    p = sub.add_parser("radeq", help="radical equality of two ideal files")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_radeq)

    p = sub.add_parser("intersect", help="intersection of two or more ideal files")
    p.add_argument("ideals", nargs="+")
    p.set_defaults(handler=_cmd_intersect)

    for name, handler, help_text in (
        ("minors", _cmd_minors, "2x2 minors of a scroll matrix"),
        ("verdi", _cmd_verdi, "Verdi generators of a non-generic block"),
        ("classify", _cmd_classify, "classify a scroll modulo a linear ideal"),
    ):
        p = sub.add_parser(name, help=help_text)
        one = p.add_mutually_exclusive_group(required=True)
        one.add_argument("file", nargs="?")
        one.add_argument("--block", help="comma-separated entries of a single block")
        p.add_argument("--ring", help="comma-separated variable names")
        p.set_defaults(handler=handler)

    for name, handler, help_text in (
        ("validate", _cmd_validate, "check the linearly-joined conditions"),
        ("projdim", _cmd_projdim, "projective dimension of the intersection"),
        ("cd", _cmd_cd, "cohomological dimension via the structure theorem"),
        ("fibercheck", _cmd_fibercheck, "fiber-cone shape check"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec")
        p.set_defaults(handler=handler)

    p = sub.add_parser("ideal", help="full or component ideal of a spec")
    p.add_argument("spec")
    p.add_argument("--component", type=int)
    p.set_defaults(handler=_cmd_ideal)

    p = sub.add_parser("arabound", help="arithmetical-rank upper bound")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("spec", nargs="?")
    one.add_argument("--generic-columns", type=int,
                     help="report the all-generic scroll numbers for r columns")
    p.set_defaults(handler=_cmd_arabound)

    p = sub.add_parser("synth", help="synthesize certified generators")
    p.add_argument("spec")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the oracle check")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("verify", help="certify a hand-supplied generator list")
    p.add_argument("spec")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--gens", help="semicolon-separated polynomials")
    one.add_argument("--gens-file", help="JSON list of polynomial strings")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("lattice", help="lattice ideal from an integer basis")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--basis", help="rows like '1,-2,1,0;0,1,-2,1'")
    one.add_argument("--basis-file", help="JSON array of integer arrays")
    p.add_argument("--ring", help="comma-separated variable names (default x1..xr)")
    p.set_defaults(handler=_cmd_lattice)

    return parser


def run(argv) -> CommandResult:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return CommandResult("error", {"message": "bad arguments"},
                             [f"argparse exited with {exc.code}"])
    timeout = args.timeout
    try:
        if timeout is None:  # read here, not when the shared parser was built
            timeout = float(os.environ.get("SCROLLSTCI_TIMEOUT", "300"))
        if math.isnan(timeout):  # no clock reading exceeds NaN: it would turn the deadline off
            raise ScrollstciError("timeout must be a number of seconds, not nan")
        with time_limit(timeout):
            return args.handler(args, _parse_field(args.field))
    except OracleTimeout:
        return CommandResult("error", {"message": "timed out"},
                             [f"computation exceeded {timeout} seconds"])
    except ScrollstciError as exc:
        return CommandResult("error", {"message": str(exc)})
    except (KeyError, ValueError, TypeError) as exc:
        return CommandResult("error", {"message": f"malformed input: {exc!r}"})
    except Exception as exc:  # exit 1 is reserved for well-formed negative verdicts
        return CommandResult("error", {"message": f"internal error: {exc}"},
                             [f"unhandled {type(exc).__name__}"])


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    try:
        print(json.dumps(result.to_json(), indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the output: no verdict was delivered, and 1 would
        # claim a negative one
        return 2
    return result.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
