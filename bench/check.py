"""Output checks made apart from the program, with sympy.

Each check recomputes what an operation's output must satisfy from the input
files alone (sympy Groebner bases, reductions and matrix ranks) or from a
theorem about the generated instance, and never from a stored copy of an
earlier output.  ``check(op, exit_code, payload)`` returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import sympy


def _modulus(field: str) -> int | None:
    """QQ -> None; Fp=p -> p."""
    return int(field[3:]) if field.startswith("Fp=") else None


@lru_cache(maxsize=None)
def _symbols(names: tuple) -> dict:
    return {n: sympy.Symbol(n) for n in names}


def to_expr(text: str, names: tuple):
    return sympy.parse_expr(text.replace("^", "**"), local_dict=_symbols(names),
                            evaluate=True)


def _gb(exprs, names: tuple, field: str):
    gens = [_symbols(names)[n] for n in names]
    mod = _modulus(field)
    opts = {"order": "grevlex"} if mod is None else {"order": "grevlex", "modulus": mod}
    return sympy.groebner([sympy.expand(e) for e in exprs], *gens, **opts)


def _reduces_to_zero(G, expr) -> bool:
    return G.contains(sympy.expand(expr))


# --- linearly joined specifications --------------------------------------------------


class SpecFacts:
    """Component ideals and the rank formula of one specification file, per field."""

    def __init__(self, path: str, field: str):
        doc = json.loads(Path(path).read_text())
        self.names = tuple(doc["ring"]["vars"])
        self.field = field
        comps = doc["components"]

        def exprs(texts):
            return [to_expr(t, self.names) for t in texts]

        self.blocks = [[exprs(b["entries"]) for b in c["scroll"]["blocks"]] if c["scroll"] else []
                       for c in comps]
        self.delta = [exprs(c["delta"]) for c in comps]
        self.p = [exprs(c["p"]) for c in comps]
        self.l = len(comps)
        self._components = None

    def d_space(self, i: int) -> list:  # 1-based, D_i = Delta_{i+1} + ... + Delta_l
        return [f for j in range(i + 1, self.l + 1) for f in self.delta[j - 1]]

    def minors(self, i: int) -> list:
        cols = [(b[k], b[k + 1]) for b in self.blocks[i - 1] for k in range(len(b) - 1)]
        return [cols[a][0] * cols[b][1] - cols[b][0] * cols[a][1]
                for a in range(len(cols)) for b in range(a + 1, len(cols))]

    def component_bases(self) -> list:
        if self._components is None:
            self._components = [
                _gb(self.minors(i) + self.d_space(i) + self.p[i - 1], self.names, self.field)
                for i in range(1, self.l + 1)]
        return self._components

    def rank(self, forms) -> int:
        syms = [_symbols(self.names)[n] for n in self.names]
        rows = [[sympy.Poly(f, *syms).coeff_monomial(s) for s in syms] for f in forms]
        if not rows:
            return 0
        m = sympy.Matrix(rows)
        mod = _modulus(self.field)
        if mod is None:
            return m.rank()
        return sympy.polys.matrices.DomainMatrix.from_Matrix(m).convert_to(
            sympy.GF(mod)).rank()

    def projdim(self) -> int:
        """max over i = 2..l of rank(P_i + D_{i-1}) - 1."""
        return max(self.rank(self.p[i - 1] + self.d_space(i - 1)) - 1
                   for i in range(2, self.l + 1))

    def outside_components(self, texts) -> str | None:
        for t in texts:
            f = to_expr(t, self.names)
            for i, G in enumerate(self.component_bases(), start=1):
                if not _reduces_to_zero(G, f):
                    return f"{t} is not in component ideal {i}"
        return None


@lru_cache(maxsize=None)
def spec_facts(path: str, field: str) -> SpecFacts:
    return SpecFacts(path, field)


def check_spec_op(op: dict, code: int, payload) -> str | None:
    cmd = op["command"]
    facts = spec_facts(op["spec"], op["field"])
    if code != 0:
        return f"exit code {code}, expected 0"
    if cmd == "validate":
        # every generated spec is linearly joined by construction
        return None if payload["ok"] is True else "valid spec reported invalid"
    if cmd == "projdim":
        want = facts.projdim()
        return None if payload["projdim"] == want else f"projdim {payload['projdim']} != {want}"
    if cmd == "arabound":
        want = facts.projdim()  # single-block scrolls: the summed bound is projdim
        if payload["bound"] != want or payload["projdim"] != want:
            return f"arabound {payload} != projdim {want}"
        return None
    if cmd == "ideal":
        return facts.outside_components(payload["gens"])
    if cmd == "synth":
        want = facts.projdim()
        if payload["verified"] is not True:
            return "synthesis not verified"
        if payload["count"] != want or len(payload["generators"]) != want:
            return f"synthesized {payload['count']} generators, projdim is {want}"
        return facts.outside_components(payload["generators"])
    if cmd == "verify":
        return None if payload["verified"] is True else "published list not verified"
    return f"no check for command {cmd}"


# --- Verdi blocks ------------------------------------------------------------------------


def check_verdi(op: dict, code: int, payload) -> str | None:
    """Verdi's theorem: rad(F_1..F_c) = I_2(B); Krull: c - 1 elements cannot
    generate a height-c ideal up to radical.  Both need the c + 2 entries of
    the block to be linearly independent, which is checked here."""
    names = tuple(op["vars"])
    entries = [to_expr(t, names) for t in op["entries"]]
    syms = [_symbols(names)[n] for n in names]
    m = sympy.Matrix([[sympy.Poly(e, *syms).coeff_monomial(s) for s in syms] for e in entries])
    if m.rank() != len(entries):
        return "block entries are dependent; the theorems do not apply"
    want = op["expect"]
    if code != (0 if want else 1) or payload.get("equal") is not want:
        return f"radeq gave {payload} with exit {code}, expected equal={want}"
    return None


# --- lattices -----------------------------------------------------------------------------


def _binomial(v, syms):
    plus = sympy.Mul(*[s ** x for s, x in zip(syms, v) if x > 0])
    minus = sympy.Mul(*[s ** -x for s, x in zip(syms, v) if x < 0])
    return plus - minus


def _in_lattice(w, basis) -> bool:
    """w is an integer combination of the basis rows."""
    try:
        sol, params = sympy.Matrix(basis).T.gauss_jordan_solve(sympy.Matrix(w))
    except ValueError:  # no rational solution
        return False
    return not params.shape[0] and all(x.is_integer for x in sol)


def check_lattice(op: dict, code: int, payload) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    names = tuple(op["vars"])
    syms = [_symbols(names)[n] for n in names]
    gens = payload["ideal"]["gens"]
    G = _gb([to_expr(t, names) for t in gens], names, "QQ")
    if op["kind"] == "rnc":
        r = len(names)
        hankel = [syms[i] * syms[j + 1] - syms[j] * syms[i + 1]
                  for i in range(r - 1) for j in range(i + 1, r - 1)]
        H = _gb(hankel, names, "QQ")
        return None if list(G.exprs) == list(H.exprs) else "not the Hankel minor ideal"
    basis = op["basis"]
    for v in basis:
        if not _reduces_to_zero(G, _binomial(v, syms)):
            return f"basis binomial of {v} is not in the ideal"
    for t in gens:
        poly = sympy.Poly(to_expr(t, names), *syms)
        terms = poly.terms()
        if len(terms) != 2 or sorted(c for _, c in terms) != [-1, 1]:
            return f"generator {t} is not a binomial"
        (m1, _), (m2, _) = terms
        w = [a - b for a, b in zip(m1, m2)]
        if not _in_lattice(w, basis):
            return f"exponent difference of {t} is not in L"
    for i, x in enumerate(names):
        if not _saturated_by(gens, names, i):
            return f"the ideal is not saturated by {x}"
    return None


def _saturated_by(gens, names: tuple, i: int) -> bool:
    """I : x_i = I for a homogeneous I (Bayer): with x_i last in grevlex, no
    leading monomial of the reduced basis is divisible by x_i."""
    order = names[:i] + names[i + 1:] + (names[i],)
    G = _gb([to_expr(t, names) for t in gens], order, "QQ")
    syms = [_symbols(names)[n] for n in order]
    return all(sympy.Poly(g, *syms).monoms(order="grevlex")[0][-1] == 0 for g in G.exprs)


CHECKS = {"radeq": check_verdi, "lattice": check_lattice}


def check(op: dict, code: int, payload) -> str | None:
    return CHECKS.get(op["command"], check_spec_op)(op, code, payload)
