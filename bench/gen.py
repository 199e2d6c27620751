"""Seeded input generator for the benchmark.

``generate(workload, seed, outdir)`` writes the input files of one workload
into ``outdir`` and returns the operation manifest: every operation is a
``scrollstci`` command line (run in-process through ``scrollstci.cli.run``)
plus what the independent checks need to know about it.  The package itself
is not imported here; the program receives only the files written.

The seed changes the order of listed bases, which block row the later P
spans keep, the coefficients of coordinate changes and of linear-form
entries, and the signs, order and variable names of lattice bases.  The
shape of every instance (number of components, block widths, ring sizes,
lattices) is fixed per workload, so that the cost of a batch stays close to
the same for every seed.

Run standalone to inspect a corpus::

    python3 bench/gen.py --workload spec-cli --seed 1 --out /tmp/corpus
"""

from __future__ import annotations

import argparse
import json
import random
from math import comb
from pathlib import Path

FP = "Fp=32003"
FIELDS = (None, FP)  # None: the file's own field, QQ

# --- linear forms: {variable: integer coefficient} -----------------------------


def fmt_form(form: dict, order: list[str]) -> str:
    out = ""
    for v in order:
        c = form.get(v, 0)
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        if not out:
            out = ("-" if c < 0 else "") + mag + v
        else:
            out += (" - " if c < 0 else " + ") + mag + v
    return out


def var(name: str) -> dict:
    return {name: 1}


def unit_triangular(rng, names: list[str], pattern: list[tuple[int, int]]) -> dict:
    """x_i -> x_i + sum a_ij x_j over the fixed (i, j) pattern, i < j."""
    image = {v: {v: 1} for v in names}
    for i, j in pattern:
        image[names[i]][names[j]] = rng.choice((-2, -1, 1, 2))
    return image


def apply_change(form: dict, image: dict) -> dict:
    out: dict = {}
    for v, c in form.items():
        for w, a in image[v].items():
            out[w] = out.get(w, 0) + c * a
    return {v: c for v, c in out.items() if c}


# --- linearly joined specifications ----------------------------------------------


class Spec:
    """A specification as plain data: ring names and component form lists."""

    def __init__(self, names, comps):
        self.names = list(names)
        self.comps = comps  # [{"blocks": [[form..]..], "delta": [..], "p": [..]}]

    def mapped(self, fn) -> "Spec":
        comps = [{
            "blocks": [[fn(f) for f in b] for b in c["blocks"]],
            "delta": [fn(f) for f in c["delta"]],
            "p": [fn(f) for f in c["p"]],
        } for c in self.comps]
        return Spec(self.names, comps)

    def to_json(self) -> dict:
        def forms(fs):
            return [fmt_form(f, self.names) for f in fs]

        return {
            "ring": {"vars": self.names, "field": "QQ"},
            "components": [{
                "scroll": {"blocks": [{"entries": forms(b)} for b in c["blocks"]]}
                if c["blocks"] else None,
                "delta": forms(c["delta"]),
                "p": forms(c["p"]),
            } for c in self.comps],
        }


def leading_block_spec(rng, l: int, c: int) -> Spec:
    """Block on component 1; every later P keeps one of its rows (acceptance 9b)."""
    m = [f"m{i}" for i in range(c + 2)]
    d = {j: f"d{j}" for j in range(2, l + 1)}
    e = {j: f"e{j}" for j in range(2, l + 1) if j % 2 == 0}
    names = m + list(d.values()) + list(e.values())
    row = m[:-1] if rng.random() < 0.5 else m[1:]
    comps = [{"blocks": [[var(v) for v in m]], "delta": [], "p": []}]
    for j in range(2, l + 1):
        p = list(row) + [d[i] for i in range(2, j)] + ([e[j]] if j in e else [])
        rng.shuffle(p)
        comps.append({"blocks": [], "delta": [var(d[j])], "p": [var(v) for v in p]})
    return Spec(names, comps)


def inner_block_spec(rng, c: int) -> Spec:
    """Block on component 2 with a row inside Delta_2, as in the curve fixtures."""
    m = [f"m{i}" for i in range(c + 2)]
    p2, d3, p3 = "p2", "d3", "p3"
    row = m[:-1] if rng.random() < 0.5 else m[1:]
    p3_names = list(row) + [p3]
    rng.shuffle(p3_names)
    return Spec(m + [p2, d3, p3], [
        {"blocks": [], "delta": [], "p": []},
        {"blocks": [[var(v) for v in m]], "delta": [var(v) for v in row], "p": [var(p2)]},
        {"blocks": [], "delta": [var(d3)], "p": [var(v) for v in p3_names]},
    ])


def changed_coordinates(rng, spec: Spec) -> Spec:
    """The image of ``spec`` under a seeded unit-triangular change x_i -> x_i + a*x_{i+1}."""
    n = len(spec.names)
    image = unit_triangular(rng, spec.names, [(i, i + 1) for i in range(n - 1)])
    return spec.mapped(lambda f: apply_change(f, image))


def fixture_specs() -> dict:
    """The worked examples of ``fixtures/``: name -> (spec, inside the synthesis
    hypotheses, published generator list or None)."""
    v = var

    def s(a, b):  # a - b
        return {a: 1, b: -1}

    curve1 = Spec("a b c x y z u v w".split(), [
        {"blocks": [[v("u"), v("w"), v("v")]], "delta": [], "p": []},
        {"blocks": [], "delta": [v("c")], "p": [v("y"), v("z"), v("v"), v("w")]},
        {"blocks": [], "delta": [v("a")],
         "p": [v("x"), s("z", "u"), v("v"), v("w"), v("c")]},
        {"blocks": [], "delta": [v("b")],
         "p": [s("x", "u"), s("y", "u"), v("a"), v("c"), v("v"), v("w")]},
    ])
    curve2 = Spec("a b c x y z u v w".split(), [
        {"blocks": [], "delta": [], "p": []},
        {"blocks": [[v("x"), v("c"), s("x", "u")]], "delta": [v("x"), v("c")],
         "p": [v("y"), v("z")]},
        {"blocks": [], "delta": [v("a")], "p": [v("x"), s("z", "u"), v("c")]},
        {"blocks": [], "delta": [v("b")], "p": [v("x"), s("y", "u"), v("a"), v("c")]},
    ])
    lines = Spec("x y".split(), [
        {"blocks": [], "delta": [], "p": []},
        {"blocks": [], "delta": [v("x")], "p": [v("y")]},
    ])
    fiber = Spec("T1 T2 T3 T4 T5".split(), [
        {"blocks": [[v("T1"), v("T2"), v("T3")]], "delta": [], "p": []},
        {"blocks": [], "delta": [v("T4")], "p": [v("T1"), v("T2"), v("T3"), v("T5")]},
    ])
    qprime = Spec("a b c d e f g".split(), [
        {"blocks": [[v("a"), v("b")], [v("c"), v("d")]], "delta": [], "p": []},
        {"blocks": [], "delta": [v("e")], "p": [v("b"), v("d")]},
        {"blocks": [], "delta": [v("f")], "p": [v("b"), v("d"), v("g")]},
    ])
    square = Spec("a b c d e f".split(), [
        {"blocks": [[s("c", "f"), s("d", "f"), {"d": 1, "c": 1, "f": -1}]],
         "delta": [], "p": []},
        {"blocks": [], "delta": [v("a")], "p": [v("c"), v("d")]},
        {"blocks": [], "delta": [v("b")], "p": [v("c"), v("d"), v("e")]},
    ])
    F = "(a*d - b*c)"
    q1 = f"(a*{F} + b*e)"
    return {
        "curve-1": (curve1, True, [
            "u*v - w^2", "c*b", "c*a + a*b", "c*y + a*x + b*(x - u)",
            "c*z + a*(z - u) + b*(y - u)", "c*v + a*v + b*v"]),
        "curve-2": (curve2, True, [
            "x*(x - u) - c^2", "b*x", "a*b + a*x",
            "b*(y - u) + a*(z - u) + x*y", "x*z"]),
        "coordinate-lines": (lines, True, None),
        "fiber-shape": (fiber, True, None),
        "qprime": (qprime, False, [
            f"a^2*{q1} + b*f", f"c*{F} + d*e + f*g", f"(a*c - e)*{q1} + d*f"]),
        "square-block": (square, False, [
            "(c - f)*(d + c - f) - (d - f)^2", "b*c", "a*c + b*d", "a*d + b*e"]),
    }


def shuffled(rng, spec: Spec) -> Spec:
    """Permute each listed Delta and P basis; the verdicts do not depend on it."""
    comps = []
    for c in spec.comps:
        delta, p = list(c["delta"]), list(c["p"])
        rng.shuffle(delta)
        rng.shuffle(p)
        comps.append({"blocks": c["blocks"], "delta": delta, "p": p})
    return Spec(spec.names, comps)


SPEC_COMMANDS = ("validate", "ideal", "projdim", "arabound", "synth")


def spec_cli(rng, outdir: Path, rel: str) -> list[dict]:
    """Fixtures, acceptance-9b shapes (l = 2..4, c = 1..3) and coordinate changes.

    Every specification runs over QQ; the light ones (all fixtures but the
    first curve, width c = 1 and the changed coordinates) run again over
    Fp = 32003, which keeps one pass near six seconds.
    """
    corpus = []  # (name, spec, commands, published list or None, Fp copy)
    for name, (spec, in_hyp, published) in fixture_specs().items():
        cmds = SPEC_COMMANDS if in_hyp else ("validate", "ideal", "projdim")
        corpus.append((f"fx-{name}", shuffled(rng, spec), cmds, published, name != "curve-1"))
    for l in (2, 3, 4):
        for c in (1, 2, 3):
            corpus.append((f"lead-l{l}-c{c}", leading_block_spec(rng, l, c),
                           SPEC_COMMANDS, None, c == 1))
    for c in (1, 2, 3):
        corpus.append((f"inner-c{c}", inner_block_spec(rng, c), SPEC_COMMANDS, None, c == 1))
    # an l = 2, c = 2 spec after a change of coordinates already takes 20 s in synth
    for label, spec in (("lead-l2-c1", leading_block_spec(rng, 2, 1)),
                        ("lead-l3-c1", leading_block_spec(rng, 3, 1)),
                        ("inner-c1", inner_block_spec(rng, 1))):
        corpus.append((f"coord-{label}", changed_coordinates(rng, spec), SPEC_COMMANDS,
                       None, True))

    ops = []
    for name, spec, cmds, published, fp_copy in corpus:
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(spec.to_json(), indent=1))
        spec_file = f"{rel}/{path.name}"
        gens_file = None
        if published is not None:
            gpath = outdir / f"{name}-generators.json"
            gpath.write_text(json.dumps(published))
            gens_file = f"{rel}/{gpath.name}"
        for field in FIELDS if fp_copy else (None,):
            prefix = [] if field is None else ["--field", field]
            fname = field or "QQ"
            for cmd in cmds:
                ops.append({"id": f"{cmd}:{name}:{fname}", "command": cmd,
                            "argv": prefix + [cmd, spec_file], "spec": spec_file,
                            "field": fname})
            if gens_file is not None:
                ops.append({"id": f"verify:{name}:{fname}", "command": "verify",
                            "argv": prefix + ["verify", spec_file, "--gens-file", gens_file],
                            "spec": spec_file, "gens": gens_file, "field": fname})
    return ops


# --- Verdi blocks -------------------------------------------------------------------


def verdi_text(entries: list[str]) -> list[str]:
    """F_j = sum_k (-1)^k C(j,k) L_{j+1}^{j-k} L_k L_j^k, j = 1..c, unexpanded."""
    L = [f"({e})" for e in entries]
    out = []
    for j in range(1, len(entries) - 1):
        terms = []
        for k in range(j + 1):
            sign = "-" if k % 2 else "+"
            terms.append(f"{sign} {comb(j, k)}*{L[j + 1]}^{j - k}*{L[k]}*{L[j]}^{k}")
        text = " ".join(terms)
        out.append(text[2:] if text.startswith("+ ") else text)
    return out


def minors_text(entries: list[str]) -> list[str]:
    """2x2 minors of the block with columns (L_k, L_{k+1})."""
    L = [f"({e})" for e in entries]
    cols = [(L[k], L[k + 1]) for k in range(len(L) - 1)]
    return [f"{cols[p][0]}*{cols[q][1]} - {cols[q][0]}*{cols[p][1]}"
            for p in range(len(cols)) for q in range(p + 1, len(cols))]


def verdi_radical(rng, outdir: Path, rel: str) -> list[dict]:
    """Verdi's generators against the minors, widths 3 and 4; negatives drop F_c.

    The linear-form block changes two entries, L_0 = x0 + a*x1 and
    L_2 = x2 + b*x3, with seeded a, b: a random dense change spread the cost
    of one width-3 certificate from 0.01 s to 3.9 s between seeds.
    """
    slots = [(3, []), (3, [(0, 1), (2, 3)]), (4, [])]  # (width c, changed entries)
    ops = []
    for n, (c, pattern) in enumerate(slots):
        names = [f"x{i}" for i in range(c + 2)]
        image = unit_triangular(rng, names, pattern)
        entries = [fmt_form(image[v], names) for v in names]
        kind = "linear" if pattern else "var"
        base = f"verdi-{n}-c{c}-{kind}"
        files = {}
        for label, gens in (("F", verdi_text(entries)), ("M", minors_text(entries)),
                            ("Fdrop", verdi_text(entries)[:-1])):
            path = outdir / f"{base}-{label}.json"
            path.write_text(json.dumps({"ring": {"vars": names, "field": "QQ"},
                                        "gens": gens}, indent=1))
            files[label] = f"{rel}/{path.name}"
        # one width-4 certificate per batch keeps a pass near five seconds
        for field in FIELDS if c < 4 else (None,):
            prefix = [] if field is None else ["--field", field]
            fname = field or "QQ"
            for label, expect in (("F", True), ("Fdrop", False)):
                ops.append({"id": f"radeq:{base}-{label}:{fname}", "command": "radeq",
                            "argv": prefix + ["radeq", files[label], files["M"]],
                            "entries": entries, "vars": names, "field": fname,
                            "expect": expect})
    return ops


# --- lattice bases --------------------------------------------------------------------


def rnc_basis(r: int) -> list[list[int]]:
    """e_i - 2 e_{i+1} + e_{i+2}: the rational normal curve of degree r - 1."""
    return [[1 if k in (i, i + 2) else -2 if k == i + 1 else 0 for k in range(r)]
            for i in range(r - 2)]


# Two codimension-two lattices per r, each spanned by two vectors with zero
# coordinate sums (so L holds no nonnegative vector); picked for having five
# to seven minimal generators.  The seed changes the basis, not the lattice:
# it flips signs and order of the two vectors, which leaves the cost of the
# saturation unchanged, where adding one vector to the other doubles it on some r.
RANK_TWO = {
    5: [([2, 1, -3, 3, -3], [0, 3, -2, 2, -3]), ([1, -1, 3, 0, -3], [-3, 1, 2, 3, -3])],
    6: [([2, -3, -3, 3, -2, 3], [-1, -1, 1, 2, -1, 0]),
        ([1, -1, 2, 1, -3, 0], [0, -1, -1, 2, 2, -2])],
    7: [([3, 0, -1, -2, -2, 0, 2], [2, 1, 0, -1, 1, -2, -1]),
        ([1, 1, -2, -1, -3, 1, 3], [-2, -1, 3, 3, -1, 1, -3])],
    8: [([-2, 2, -2, -3, 2, 1, 0, 2], [2, -1, -3, 0, -3, 0, 3, 2]),
        ([2, 0, -2, -3, -3, 1, 3, 2], [3, 1, 1, -1, -3, 2, -3, 0])],
}


def lattice_check(rng, outdir: Path, rel: str) -> list[dict]:
    """RNC bases r = 6, 7 and rank-two bases r = 5..8, default check on."""
    cases = [(f"rnc-r{r}", "rnc", rnc_basis(r)) for r in (6, 7)]
    for r, lattices in RANK_TWO.items():
        for n, pair in enumerate(lattices):
            basis = [[x * sign for x in v] for v, sign in zip(pair, rng.choices((-1, 1), k=2))]
            rng.shuffle(basis)
            cases.append((f"rank2-r{r}-{n}", "rank2", basis))
    ops = []
    for name, kind, basis in cases:
        prefix = rng.choice("xyzw")
        names = [f"{prefix}{i}" for i in range(1, len(basis[0]) + 1)]
        path = outdir / f"lattice-{name}.json"
        path.write_text(json.dumps(basis))
        ops.append({"id": f"lattice:{name}", "command": "lattice",
                    "argv": ["lattice", "--basis-file", f"{rel}/{path.name}",
                             "--ring", ",".join(names)],
                    "kind": kind, "basis": basis, "vars": names, "field": "QQ"})
    return ops


WORKLOADS = {
    "spec-cli": spec_cli,
    "verdi-radical": verdi_radical,
    "lattice-check": lattice_check,
}


def generate(workload: str, seed: int, outdir: Path, rel: str) -> dict:
    """Write the inputs of ``workload`` under ``outdir`` (named ``rel`` in argv)."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng, outdir, rel)
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    (outdir / "ops.json").write_text(json.dumps(manifest, indent=1))
    return manifest


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    m = generate(a.workload, a.seed, Path(a.out), a.out)
    print(f"{len(m['ops'])} operations written to {a.out}")
