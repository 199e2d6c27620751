"""The polynomial parser as it was before it evaluated on term dicts.

A tokenizer that matches one token at a time and a recursive descent that
builds every factor as a `Polynomial`, with the plain arithmetic the
polynomial operators had then: a double loop per product, square and
multiply per power, a copy and merge per sum.  `scrollstci.poly.parse` must
give the same polynomial, with the same coefficient classes and the same
term order, and the same exception type and message on malformed text;
`tests/test_parser_differential.py` checks it against this one.
"""

import re
from operator import add

from scrollstci.poly import (
    _DEADLINE,
    ParseError,
    Polynomial,
    Ring,
    _check_deadline,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)

_MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("int", "name", "op"):
            tok = m.group(kind)
            if tok is not None:
                tokens.append((kind, tok))
                break
    return tokens


# --- the polynomial operators the parser used --------------------------------

def _add(p: Polynomial, q: Polynomial) -> Polynomial:
    field = p.ring.field
    out = dict(p._terms)
    for m, c in q._terms.items():
        acc = out.get(m)
        s = field.add(acc, c) if acc is not None else c
        if s == 0:
            out.pop(m, None)
        else:
            out[m] = s
    return Polynomial._make(p.ring, out)


def _neg(p: Polynomial) -> Polynomial:
    field = p.ring.field
    return Polynomial._make(p.ring, {m: field.neg(c) for m, c in p._terms.items()})


def _scale(p: Polynomial, c) -> Polynomial:
    c = p.ring.field.coerce(c)
    if c == 0:
        return p.ring.zero()
    fmul = p.ring.field.mul
    return Polynomial._make(p.ring, {m: fmul(v, c) for m, v in p._terms.items()})


def _mul(p: Polynomial, q: Polynomial) -> Polynomial:
    field = p.ring.field
    fadd, fmul = field.add, field.mul
    out: dict = {}
    deadline = _DEADLINE.get()
    for m1, c1 in p._terms.items():
        _check_deadline(deadline)
        for m2, c2 in q._terms.items():
            m = tuple(map(add, m1, m2))
            c = fmul(c1, c2)
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                s = fadd(acc, c)
                if s == 0:
                    del out[m]
                else:
                    out[m] = s
    return Polynomial._make(p.ring, out)


def _pow(p: Polynomial, n: int) -> Polynomial:
    result = p.ring.one()
    base = p
    while n:
        if n & 1:
            result = _mul(result, base)
        base = _mul(base, base) if n > 1 else base
        n >>= 1
    return result


class _Parser:
    """Recursive descent for the polynomial grammar.

    expr   := [sign] term (sign term)*
    term   := factor ('*' factor)*
    factor := atom ['^' INT]
    atom   := NAME | INT ['/' INT] | '(' expr ')'
    """

    def __init__(self, ring: Ring, tokens: list[tuple[str, str]]):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, tok = self.take()
        if kind != "op" or tok != op:
            raise ParseError(f"expected {op!r}, found {tok!r}")

    def parse_expr(self) -> Polynomial:
        sign = 1
        kind, tok = self.peek()
        if kind == "op" and tok in "+-":
            self.take()
            sign = -1 if tok == "-" else 1
        total = _scale(self.parse_term(), sign)
        while True:
            kind, tok = self.peek()
            if kind == "op" and tok in "+-":
                self.take()
                nxt = self.parse_term()
                total = _add(total, nxt) if tok == "+" else _add(total, _neg(nxt))
            else:
                return total

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            kind, tok = self.peek()
            if kind == "op" and tok == "*":
                self.take()
                result = _mul(result, self.parse_factor())
            else:
                return result

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        kind, tok = self.peek()
        if kind == "op" and tok == "^":
            self.take()
            kind, exp = self.take()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer")
            return _pow(base, int(exp))
        return base

    def parse_atom(self) -> Polynomial:
        kind, tok = self.take()
        if kind == "name":
            if tok not in self.ring.variables:
                raise ParseError(f"unknown variable {tok!r}")
            return self.ring.variable(tok)
        if kind == "int":
            num = int(tok)
            k2, t2 = self.peek()
            if k2 == "op" and t2 == "/":
                self.take()
                k3, den = self.take()
                if k3 != "int" or int(den) == 0:
                    raise ParseError("rational coefficients are written p/q with integers")
                field = self.ring.field
                d = field.coerce(int(den))
                if d == 0:
                    raise ParseError(f"denominator {den} vanishes modulo {field.p}")
                return self.ring.constant(field.div(field.coerce(num), d))
            return self.ring.constant(num)
        if kind == "op" and tok == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}")
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {tok!r}")


def parse(ring: Ring, text: str) -> Polynomial:
    if not isinstance(text, str):
        raise TypeError(f"expected polynomial text, got {text!r}")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    parser = _Parser(ring, tokens)
    result = parser.parse_expr()
    if parser.pos != len(tokens):
        raise ParseError(f"trailing input near {tokens[parser.pos][1]!r}")
    return result
