"""Exact sparse multivariate polynomials over QQ or a prime field.

Everything downstream (the Groebner oracle, scroll matrices, the
linearly-joined machinery) is built on the values defined here.  Polynomials
are immutable and every operation is a pure function; the module keeps no
mutable global state (the only lazily written field, a polynomial's cached
hash, always receives the same value), so values can be shared freely,
including across threads.

The deadline set by `time_limit` lives in a context variable, so it bounds
only the thread (or task) that set it: a new thread starts with no deadline.
Products check it once per term of the left factor, so powering and parsing
are bounded as well as the Groebner loops built on top.

Coefficients have one canonical form per field.  Over the rationals a
coefficient is a plain int when it is integral and a `fractions.Fraction` only
when its denominator exceeds 1, so the integer arithmetic that dominates the
kernels never builds a Fraction; over a prime field it is an int in
``[0, p)``.  Every `FieldSpec` operation returns this form, and each field
chooses its operations once, when it is made.  ``Fraction(n) == n`` and both
hash alike, so equality, hashing and printing do not depend on the form.
There is no floating point anywhere: radical membership certificates must be
exact.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import add, le, neg
from typing import Callable, Iterable, Mapping, Sequence


class ScrollstciError(Exception):
    """Base class for errors raised by this package."""


class RingMismatchError(ScrollstciError):
    """Operands live in different rings (or over different fields)."""


class ParseError(ScrollstciError):
    """Malformed polynomial text."""


class OracleTimeout(ScrollstciError):
    """A computation exceeded the configured deadline."""


_DEADLINE: ContextVar[float | None] = ContextVar("scrollstci_deadline", default=None)


@contextmanager
def time_limit(seconds: float | None):
    """Abort computations started inside the block after ``seconds``."""
    token = _DEADLINE.set(None if seconds is None else time.monotonic() + seconds)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise OracleTimeout("computation timed out")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Rational scalars are held in canonical form: an int when integral, else a
# Fraction whose denominator exceeds 1.  int arithmetic stays int; only a
# result with a Fraction operand can be integral and is brought back to int.

def _qq_normal(c: Fraction):
    return c.numerator if c.denominator == 1 else c


def _qq_add(a, b):
    c = a + b
    return c if c.__class__ is int else _qq_normal(c)


def _qq_sub(a, b):
    c = a - b
    return c if c.__class__ is int else _qq_normal(c)


def _qq_mul(a, b):
    c = a * b
    return c if c.__class__ is int else _qq_normal(c)


def _fp_add(p, a, b):
    return (a + b) % p


def _fp_sub(p, a, b):
    return (a - b) % p


def _fp_mul(p, a, b):
    return (a * b) % p


def _fp_neg(p, a):
    return (-a) % p


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals (``QQ``) or integers modulo a prime (``Fp``).

    ``add``, ``sub``, ``mul`` and ``neg`` are chosen once per field when it is
    made; they are plain attributes, not dataclass fields, so they take no
    part in equality, hashing or the repr.
    """

    kind: str
    p: int | None = None

    zero = 0
    one = 1

    def __post_init__(self) -> None:
        if self.kind == "QQ":
            if self.p is not None:
                raise ScrollstciError("rational field takes no modulus")
            ops = (_qq_add, _qq_sub, _qq_mul, neg)
        elif self.kind == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise ScrollstciError(f"modulus must be prime, got {self.p!r}")
            ops = tuple(partial(op, self.p) for op in (_fp_add, _fp_sub, _fp_mul, _fp_neg))
        else:
            raise ScrollstciError(f"unknown field kind {self.kind!r}")
        for name, op in zip(("add", "sub", "mul", "neg"), ops):
            object.__setattr__(self, name, op)

    # --- scalar arithmetic -------------------------------------------------

    def coerce(self, x):
        """Bring an int or Fraction into canonical scalar form."""
        if self.kind == "Fp":
            if isinstance(x, Fraction):
                den = x.denominator % self.p
                if den == 0:
                    raise ScrollstciError("denominator vanishes modulo p")
                return (x.numerator * pow(den, self.p - 2, self.p)) % self.p
            return int(x) % self.p
        return x if x.__class__ is int else _qq_normal(Fraction(x))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "Fp":
            return pow(a, self.p - 2, self.p)
        # the inverse of +-1/d is the int +-d; any other inverse is a true fraction
        n, d = a.numerator, a.denominator
        return n * d if n in (1, -1) else Fraction(d, n)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_negative(self, a) -> bool:
        # sign is a printing notion; prime-field scalars print as 0..p-1
        return self.kind == "QQ" and a < 0

    def format_scalar(self, a) -> str:
        # an int prints as itself and a Fraction as "n/d", or as n if integral
        return str(a % self.p) if self.kind == "Fp" else str(a)

    def to_json(self):
        return "QQ" if self.kind == "QQ" else {"Fp": self.p}

    @staticmethod
    def from_json(obj) -> "FieldSpec":
        if obj == "QQ":
            return QQ
        if isinstance(obj, dict) and set(obj) == {"Fp"}:
            return FieldSpec("Fp", json_int(obj["Fp"], "the modulus in 'Fp'"))
        raise ScrollstciError(f"bad field description {obj!r}")


QQ = FieldSpec("QQ")


def Fp(p: int) -> FieldSpec:
    return FieldSpec("Fp", p)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Ring:
    """A polynomial ring: an ordered tuple of variable names over a field.

    Declaration order is precedence: the leftmost variable is the largest in
    every supported term order.
    """

    variables: tuple[str, ...]
    field: FieldSpec = QQ

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        for v in self.variables:
            if not _NAME_RE.match(v):
                raise ScrollstciError(f"bad variable name {v!r}")
        if len(set(self.variables)) != len(self.variables):
            raise ScrollstciError("variable names must be unique")
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.variables)})

    @property
    def arity(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise ScrollstciError(f"unknown variable {name!r}") from None

    def zero(self) -> "Polynomial":
        return Polynomial._make(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if c == 0:
            return self.zero()
        return Polynomial._make(self, {(0,) * self.arity: c})

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.arity
        exps[self.index(name)] = 1
        return Polynomial._make(self, {tuple(exps): self.field.one})

    def monomial(self, exponents: Sequence[int], coeff=1) -> "Polynomial":
        return Polynomial(self, {tuple(exponents): coeff})

    def fresh_name(self, stem: str = "t") -> str:
        if stem not in self._index:  # type: ignore[attr-defined]
            return stem
        k = 0
        while f"{stem}{k}" in self._index:  # type: ignore[attr-defined]
            k += 1
        return f"{stem}{k}"

    def extended(self, names: Sequence[str]) -> "Ring":
        """Prepend ``names``: degrevlex then orders the old monomials as before."""
        return Ring(tuple(names) + self.variables, self.field)

    def to_json(self):
        return {"vars": list(self.variables), "field": self.field.to_json()}

    @staticmethod
    def from_json(obj) -> "Ring":
        return Ring(tuple(json_list(obj["vars"], "variable names in 'vars'")),
                    FieldSpec.from_json(obj.get("field", "QQ")))


# --- monomials (plain exponent tuples) --------------------------------------

def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))

def mono_divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))

def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))

def mono_deg(a: tuple) -> int:
    return sum(a)

def mono_coprime(a: tuple, b: tuple) -> bool:
    return not any(map(min, a, b))


@dataclass(frozen=True)
class TermOrder:
    """Total multiplicative monomial order, well-founded with 1 minimal.

    ``lex`` and ``degrevlex`` are the classical orders; ``deglex`` is used for
    canonical printing; ``block`` is the elimination order with the first
    ``block`` ring variables lex-dominant over a degrevlex tail.
    """

    kind: str
    block: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("lex", "deglex", "degrevlex", "block"):
            raise ScrollstciError(f"unknown term order {self.kind!r}")
        if self.kind != "block" and self.block:
            raise ScrollstciError("only block orders carry a prefix size")
        if self.block < 0:
            raise ScrollstciError("block prefix size must be >= 0")

    def key(self) -> Callable[[tuple], object]:
        if self.kind == "lex":
            return lambda m: m
        if self.kind == "deglex":
            return lambda m: (sum(m), m)
        if self.kind == "degrevlex":
            return lambda m: (sum(m), tuple(map(neg, reversed(m))))
        k = self.block
        return lambda m: (m[:k], sum(m[k:]), tuple(map(neg, reversed(m[k:]))))

    def descending_key(self) -> Callable[[tuple], object]:
        """A key that ranks the largest monomial first: it compares two
        monomials the other way round from ``key``, as a heap needs."""
        if self.kind == "lex":
            return lambda m: tuple(map(neg, m))
        if self.kind == "deglex":
            return lambda m: (-sum(m), tuple(map(neg, m)))
        if self.kind == "degrevlex":
            return lambda m: (-sum(m), m[::-1])
        k = self.block
        return lambda m: (tuple(map(neg, m[:k])), -sum(m[k:]), m[k:][::-1])

    def __str__(self) -> str:
        return f"block:{self.block}" if self.kind == "block" else self.kind


LEX = TermOrder("lex")
DEGLEX = TermOrder("deglex")
DEGREVLEX = TermOrder("degrevlex")


def block_order(prefix_size: int) -> TermOrder:
    return TermOrder("block", prefix_size)


def order_from_string(text: str) -> TermOrder:
    if text.startswith("block:"):
        return block_order(int(text.split(":", 1)[1]))
    return TermOrder(text)


class Polynomial:
    """Immutable sparse polynomial: a map monomial -> nonzero scalar."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: Ring, terms):
        acc: dict = {}
        field = ring.field
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            mono = tuple(int(e) for e in mono)
            if len(mono) != ring.arity:
                raise ScrollstciError("monomial arity does not match ring")
            if any(e < 0 for e in mono):
                raise ScrollstciError("negative exponent")
            c = field.coerce(coeff)
            if mono in acc:
                c = field.add(acc[mono], c)
            if c == 0:
                acc.pop(mono, None)
            else:
                acc[mono] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, ring: Ring, terms: dict) -> "Polynomial":
        # trusted fast path: terms already canonical
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial values are immutable")

    # --- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list[tuple[tuple, object]]:
        return list(self._terms.items())

    def monomials(self) -> list[tuple]:
        return list(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((mono_deg(m) for m in self._terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({mono_deg(m) for m in self._terms}) <= 1

    def leading_monomial(self, order: TermOrder = DEGREVLEX) -> tuple:
        if not self._terms:
            raise ScrollstciError("zero polynomial has no leading monomial")
        return max(self._terms, key=order.key())

    def leading_coefficient(self, order: TermOrder = DEGREVLEX):
        return self._terms[self.leading_monomial(order)]

    # --- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        field = self.ring.field
        out = dict(self._terms)
        for m, c in other._terms.items():
            acc = out.get(m)
            s = field.add(acc, c) if acc is not None else c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial._make(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        field = self.ring.field
        return Polynomial._make(self.ring, {m: field.neg(c) for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.ring.field.coerce(other)
            if c == 0:
                return self.ring.zero()
            fmul = self.ring.field.mul
            return Polynomial._make(self.ring, {m: fmul(v, c) for m, v in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        field = self.ring.field
        fadd, fmul = field.add, field.mul
        out: dict = {}
        deadline = _DEADLINE.get()
        for m1, c1 in self._terms.items():
            _check_deadline(deadline)
            for m2, c2 in other._terms.items():
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
        return Polynomial._make(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ScrollstciError("polynomial powers take non-negative integer exponents")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r})"


# --- spec operations ----------------------------------------------------------

def substitute(p: Polynomial, assignment: Mapping[str, Polynomial],
               target_ring: Ring | None = None) -> Polynomial:
    """Ring-morphism image of ``p`` under variable -> polynomial substitution.

    Variables not mentioned map to themselves and must exist in the target
    ring.  ``substitute(p, {})`` is the identity.
    """
    ring = p.ring
    for name in assignment:
        if name not in ring.variables:
            raise ScrollstciError(f"unknown variable {name!r} in assignment")
    target = target_ring
    if target is None:
        image_rings = [q.ring for q in assignment.values()]
        target = image_rings[0] if image_rings else ring
    for q in assignment.values():
        if q.ring != target:
            raise RingMismatchError("substituted polynomials must share the target ring")
    images: dict[str, Polynomial | None] = {}
    for v in ring.variables:
        if v in assignment:
            images[v] = assignment[v]
        elif v in target.variables:
            images[v] = target.variable(v)
        else:
            # only an error if v actually occurs in p
            images[v] = None
    out = target.zero()
    for mono, coeff in p._terms.items():
        term = target.constant(coeff)
        for v, e in zip(ring.variables, mono):
            if e == 0:
                continue
            img = images[v]
            if img is None:
                raise ScrollstciError(f"variable {v!r} absent from target ring")
            term = term * img ** e
        out = out + term
    return out


def evaluate(p: Polynomial, point: Mapping[str, object]):
    """Evaluate at a scalar point; every ring variable must be assigned."""
    field = p.ring.field
    vals = [field.coerce(point[v]) for v in p.ring.variables]
    total = field.zero
    for mono, coeff in p._terms.items():
        term = coeff
        for v, e in zip(vals, mono):
            for _ in range(e):
                term = field.mul(term, v)
        total = field.add(total, term)
    return total


def transport(p: Polynomial, target: Ring) -> Polynomial:
    """Re-express ``p`` in another ring, matching variables by name."""
    if p.ring.field != target.field:
        raise RingMismatchError("cannot transport between different ground fields")
    if p.ring == target:
        return p
    positions = []
    for v in p.ring.variables:
        positions.append(target._index.get(v))  # type: ignore[attr-defined]
    out: dict = {}
    for mono, coeff in p._terms.items():
        exps = [0] * target.arity
        for pos, e in zip(positions, mono):
            if e == 0:
                continue
            if pos is None:
                raise RingMismatchError("polynomial uses a variable absent from the target ring")
            exps[pos] = e
        out[tuple(exps)] = coeff
    return Polynomial._make(target, out)


# --- printing and parsing ------------------------------------------------------

def format_poly(p: Polynomial, order: TermOrder = DEGLEX) -> str:
    """Canonical string: terms descending in a graded lexicographic order.

    Round-trips bit-exactly through :func:`parse`.
    """
    if p.is_zero():
        return "0"
    field = p.ring.field
    names = p.ring.variables
    keyf = order.key()
    parts: list[str] = []
    for mono in sorted(p._terms, key=keyf, reverse=True):
        coeff = p._terms[mono]
        neg = field.is_negative(coeff)
        mag = field.neg(coeff) if neg else coeff
        factors = []
        for v, e in zip(names, mono):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        if not factors:
            body = field.format_scalar(mag)
        elif mag == field.one:
            body = "*".join(factors)
        else:
            body = field.format_scalar(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


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
        total = self.parse_term() * sign
        while True:
            kind, tok = self.peek()
            if kind == "op" and tok in "+-":
                self.take()
                nxt = self.parse_term()
                total = total + nxt if tok == "+" else total - nxt
            else:
                return total

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            kind, tok = self.peek()
            if kind == "op" and tok == "*":
                self.take()
                result = result * self.parse_factor()
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
            return base ** int(exp)
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
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {tok!r}")


def json_list(doc, what: str) -> list:
    """``doc`` if it is a JSON list; else TypeError (a string would be read per character)."""
    if not isinstance(doc, list):
        raise TypeError(f"expected a JSON list of {what}")
    return doc


def json_int(doc, what: str) -> int:
    """``doc`` if it is an integer; else TypeError (``int`` would truncate a
    float and read ``true``/``false`` as 1/0)."""
    if doc.__class__ is not int:
        raise TypeError(f"expected a JSON integer for {what}, got {json.dumps(doc)}")
    return doc


def parse(ring: Ring, text: str) -> Polynomial:
    """Parse polynomial text: '*' products, '^' powers, 'p/q' coefficients."""
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


# --- linear forms ---------------------------------------------------------------

def is_linear_form(p: Polynomial) -> bool:
    """Homogeneous of degree one (the zero form counts), no constant term."""
    return all(mono_deg(m) == 1 for m in p._terms)


def is_variable(p: Polynomial) -> bool:
    if len(p._terms) != 1:
        return False
    (mono, coeff), = p._terms.items()
    return mono_deg(mono) == 1 and coeff == p.ring.field.one


def linear_coeffs(p: Polynomial) -> tuple:
    """Coefficient vector of a linear form, one scalar per ring variable."""
    if not is_linear_form(p):
        raise ScrollstciError(f"not a linear form: {p}")
    out = [p.ring.field.zero] * p.ring.arity
    for mono, coeff in p._terms.items():
        out[mono.index(1)] = coeff
    return tuple(out)


def linear_form(ring: Ring, coeffs: Sequence) -> Polynomial:
    if len(coeffs) != ring.arity:
        raise ScrollstciError("coefficient vector length must equal ring arity")
    terms = {}
    for i, c in enumerate(coeffs):
        c = ring.field.coerce(c)
        if c != 0:
            exps = [0] * ring.arity
            exps[i] = 1
            terms[tuple(exps)] = c
    return Polynomial._make(ring, terms)


def proportional(f: Polynomial, g: Polynomial):
    """Scalar a with f == a*g, or None when no such scalar exists."""
    f._check_ring(g)
    if g.is_zero():
        return None
    cf, cg = linear_coeffs(f), linear_coeffs(g)
    field = f.ring.field
    pivot = next(i for i, c in enumerate(cg) if c != 0)
    if cf[pivot] == 0 and not f.is_zero():
        return None
    alpha = field.div(cf[pivot], cg[pivot]) if cf[pivot] != 0 else field.zero
    for a, b in zip(cf, cg):
        if a != field.mul(alpha, b):
            return None
    return alpha


def _rref(rows: list[list], field: FieldSpec) -> tuple[list[list], list[int]]:
    """Reduced row echelon form with exact arithmetic; returns (rows, pivots)."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][col])
        work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                c = work[i][col]
                work[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


class LinearSpan:
    """Row-reduced span of linear forms; exact rank, membership, residuals.

    The complement used for residuals is the span of the coordinates that are
    not pivotal in the reduced row echelon form, which makes the decomposition
    ``form = projection + residual`` deterministic.
    """

    def __init__(self, ring: Ring, forms: Iterable[Polynomial]):
        self.ring = ring
        self.forms = tuple(forms)
        for f in self.forms:
            if f.ring != ring:
                raise RingMismatchError("span forms must live in the given ring")
            if not is_linear_form(f):
                raise ScrollstciError(f"not a linear form: {f}")
        rows = [list(linear_coeffs(f)) for f in self.forms if not f.is_zero()]
        self._rows, self._pivots = _rref(rows, ring.field)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def residual(self, form: Polynomial) -> Polynomial:
        """The component of ``form`` off this span (zero iff contained)."""
        if form.ring != self.ring:
            raise RingMismatchError("form lives in a different ring")
        field = self.ring.field
        coeffs = list(linear_coeffs(form))
        for row, piv in zip(self._rows, self._pivots):
            c = coeffs[piv]
            if c != 0:
                coeffs = [field.sub(x, field.mul(c, y)) for x, y in zip(coeffs, row)]
        return linear_form(self.ring, coeffs)

    def contains(self, form: Polynomial) -> bool:
        return self.residual(form).is_zero()

    def contains_all(self, forms: Iterable[Polynomial]) -> bool:
        return all(self.contains(f) for f in forms)


def linear_span_dim(forms: Sequence[Polynomial], ring: Ring | None = None) -> int:
    """Rank of the coefficient matrix of a list of linear forms.

    No caller in the package: ``bench/layers.py`` times it by this name.
    """
    forms = list(forms)
    if not forms:
        return 0
    return LinearSpan(ring or forms[0].ring, forms).dim
