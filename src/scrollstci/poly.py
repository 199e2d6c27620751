"""Exact sparse multivariate polynomials over QQ or a prime field.

Everything downstream (the Groebner oracle, scroll matrices, the
linearly-joined machinery) is built on the values defined here.  Polynomials
are immutable and every operation is a pure function; the module keeps no
mutable global state (the only lazily written field, a polynomial's cached
hash, always receives the same value), so values can be shared freely,
including across threads.

The deadline set by `time_limit` lives in a context variable, so it bounds
only the thread (or task) that set it: a new thread starts with no deadline.
Every product checks it, and a product of two factors with several terms
checks it once per term of the left one, so powering and parsing are bounded
as well as the Groebner loops built on top.

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
    """Trial division by odd d up to sqrt(n), under the deadline."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    deadline = _DEADLINE.get()
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
        if (d & 0x1FFFF) == 1:  # once per 2^16 odd divisors
            _check_deadline(deadline)
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
        """Bring an int or Fraction into canonical scalar form; refuse any other class."""
        cls = x.__class__
        if cls is not int and cls is not Fraction:
            raise TypeError(f"scalars are int or Fraction, got {x!r}")
        if self.kind == "Fp":
            if cls is Fraction:
                den = x.denominator % self.p
                if den == 0:
                    raise ScrollstciError("denominator vanishes modulo p")
                return (x.numerator * pow(den, self.p - 2, self.p)) % self.p
            return x % self.p
        return x if cls is int else _qq_normal(x)

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
    every supported term order.  ``_index`` (name -> position) and ``_units``
    (each variable's exponent tuple) are plain attributes, built once.
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
        n = len(self.variables)
        object.__setattr__(self, "_units", tuple((0,) * i + (1,) + (0,) * (n - 1 - i)
                                                 for i in range(n)))

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
        unit = self._units[self.index(name)]  # type: ignore[attr-defined]
        return Polynomial._make(self, {unit: self.field.one})

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

def mono_divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))

def mono_deg(a: tuple) -> int:
    return sum(a)


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

    def __str__(self) -> str:
        return f"block:{self.block}" if self.kind == "block" else self.kind


LEX = TermOrder("lex")
DEGLEX = TermOrder("deglex")
DEGREVLEX = TermOrder("degrevlex")


def block_order(prefix_size: int) -> TermOrder:
    return TermOrder("block", prefix_size)


def order_from_string(text: str) -> TermOrder:
    """``block:<digits>`` or the name of an order; `TermOrder` refuses the rest.

    A bare ``block`` is refused too: it names no prefix size.  (``block:0``
    is accepted and orders as degrevlex.)
    """
    m = re.fullmatch(r"block:([0-9]+)", text)
    if m:
        return block_order(int(m.group(1)))
    if text == "block":
        raise ScrollstciError("term order 'block' needs a prefix size: write block:K")
    return TermOrder(text)


# --- term dicts {exponent tuple: nonzero scalar}, shared by the arithmetic and the parser
# Terms come in the order of the plain loops: a sum appends new monomials after
# the old ones, a product runs over a's terms, and within each over b's.

def _add_into(out: dict, terms: dict, op) -> None:
    """``out`` += ``terms`` (op = field.add) or -= ``terms`` (op = field.sub), in place.

    `LinearSpan` uses it on its sparse rows, keyed by variable index."""
    get = out.get
    for m, c in terms.items():
        s = op(get(m, 0), c)
        if s:
            out[m] = s
        else:
            del out[m]


def _product(a: dict, b: dict, field: FieldSpec) -> dict:
    """Terms of a*b; a one-term factor only shifts the other's exponents (no two
    terms meet, and in a field no product vanishes).  The deadline is checked
    once, and once per term of a if both factors have several terms."""
    fmul = field.mul
    deadline = _DEADLINE.get()
    _check_deadline(deadline)
    if len(b) == 1:
        (mb, cb), = b.items()
        return {tuple(map(add, m, mb)): fmul(c, cb) for m, c in a.items()}
    if len(a) == 1:
        (ma, ca), = a.items()
        return {tuple(map(add, ma, m)): fmul(ca, c) for m, c in b.items()}
    fadd = field.add
    out: dict = {}
    for m1, c1 in a.items():
        _check_deadline(deadline)
        for m2, c2 in b.items():
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
    return out


def _power(d: dict, n: int, ring: Ring) -> dict:
    """Terms of d**n by squaring and multiplying, one `_product` per step, so a
    one-term power is log2(n) shifts and the deadline is checked per step."""
    result = None  # stands for 1 until the first factor
    while n:
        if n & 1:
            result = d if result is None else _product(result, d, ring.field)
        if n > 1:
            d = _product(d, d, ring.field)
        n >>= 1
    return {(0,) * ring.arity: ring.field.one} if result is None else result


class Polynomial:
    """Immutable sparse polynomial: a map monomial -> nonzero scalar."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: Ring, terms):
        acc: dict = {}
        field = ring.field
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            mono = tuple(mono)
            if not all(e.__class__ is int for e in mono):
                raise TypeError(f"exponents are ints, got {mono!r}")
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
        out = dict(self._terms)
        _add_into(out, other._terms, self.ring.field.add)
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
        return Polynomial._make(self.ring, _product(self._terms, other._terms, self.ring.field))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ScrollstciError("polynomial powers take non-negative integer exponents")
        return Polynomial._make(self.ring, _power(self._terms, n, self.ring))

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

def format_poly(p: Polynomial) -> str:
    """Canonical string: terms descending in a graded lexicographic order.

    Round-trips bit-exactly through :func:`parse`.
    """
    if p.is_zero():
        return "0"
    field = p.ring.field
    names = p.ring.variables
    parts: list[str] = []
    for mono in sorted(p._terms, key=DEGLEX.key(), reverse=True):
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


# One token per match: an integer, a name or an operator, after optional space.
# The last alternative catches a bad character and everything after it, from
# the space before it on, so the tokenizer's error can quote the rest of the text.
_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()])|(\s*\S[\s\S]*)")

_MAX_NESTING = 100


def parse(ring: Ring, text: str) -> Polynomial:
    """Parse polynomial text: '*' products, '^' powers, 'p/q' coefficients.

    expr   := [sign] term (sign term)*
    term   := factor ('*' factor)*
    factor := atom ['^' INT]
    atom   := NAME | INT ['/' INT] | '(' expr ')'

    One loop over the tokens evaluates on term dicts, left to right as the
    grammar reads; each open parenthesis pushes the sum, sign and product of
    the term it interrupts.  The loop needs no depth limit, but nesting deeper
    than ``_MAX_NESTING`` stays malformed input: the command line promises
    that answer for such text.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected polynomial text, got {text!r}")
    found = _TOKEN_RE.findall(text)
    if not found:
        raise ParseError("empty polynomial text")
    if found[-1][1]:
        raise ParseError(f"unexpected character at {found[-1][1]!r}")
    toks = [tok for tok, _ in found] + [""]  # "" ends the text; nothing reads past it
    field = ring.field
    index, units = ring._index, ring._units  # type: ignore[attr-defined]
    zero = (0,) * ring.arity
    stack: list = []
    acc: dict = {}  # the sum of the finished terms
    term = None  # the product of the current term's factors so far
    neg = toks[0] == "-"
    i = 1 if toks[0] in ("+", "-") else 0
    while True:
        tok = toks[i]
        i += 1
        if tok in index:
            value = {units[index[tok]]: field.one}
        elif tok == "(":
            if len(stack) == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}")
            stack.append((acc, neg, term))
            acc, term = {}, None
            neg = toks[i] == "-"
            i += toks[i] in ("+", "-")
            continue
        elif tok.isdecimal():
            c = field.coerce(int(tok))
            if toks[i] == "/":
                den = toks[i + 1]
                if not den.isdecimal() or int(den) == 0:
                    raise ParseError("rational coefficients are written p/q with integers")
                d = field.coerce(int(den))
                if d == 0:
                    raise ParseError(f"denominator {den} vanishes modulo {field.p}")
                c = field.div(c, d)
                i += 2
            value = {zero: c} if c else {}
        elif _NAME_RE.match(tok):
            raise ParseError(f"unknown variable {tok!r}")
        else:
            raise ParseError(f"unexpected token {tok or None!r}")
        while True:  # the atom is read: a power, then what follows the factor
            tok = toks[i]
            if tok == "^":
                exp = toks[i + 1]
                if not exp.isdecimal():
                    raise ParseError("exponent must be a non-negative integer")
                value = _power(value, int(exp), ring)
                i += 2
                tok = toks[i]
            term = value if term is None else _product(term, value, field)
            i += 1
            if tok == "*":
                break
            if acc or neg:
                _add_into(acc, term, field.sub if neg else field.add)
            else:  # an empty sum takes the term's dict, which nothing else holds
                acc = term
            if tok == "+" or tok == "-":
                neg, term = tok == "-", None
                break
            if not stack:
                if tok:
                    raise ParseError(f"trailing input near {tok!r}")
                return Polynomial._make(ring, acc)
            if tok != ")":
                raise ParseError(f"expected ')', found {tok or None!r}")
            value = acc
            acc, neg, term = stack.pop()


# --- linear forms ---------------------------------------------------------------

def is_linear_form(p: Polynomial) -> bool:
    """Homogeneous of degree one (the zero form counts), no constant term."""
    return all(mono_deg(m) == 1 for m in p._terms)


def is_variable(p: Polynomial) -> bool:
    if len(p._terms) != 1:
        return False
    (mono, coeff), = p._terms.items()
    return mono_deg(mono) == 1 and coeff == p.ring.field.one


def _linear_row(p: Polynomial) -> dict:
    """Sparse coefficients ``{variable index: scalar}`` of a linear form."""
    row = {}
    for mono, coeff in p._terms.items():
        if sum(mono) != 1:
            raise ScrollstciError(f"not a linear form: {p}")
        row[mono.index(1)] = coeff
    return row


def linear_form(ring: Ring, coeffs: Sequence) -> Polynomial:
    if len(coeffs) != ring.arity:
        raise ScrollstciError("coefficient vector length must equal ring arity")
    units, coerce = ring._units, ring.field.coerce  # type: ignore[attr-defined]
    return Polynomial._make(ring, {u: c for u, c in zip(units, map(coerce, coeffs)) if c != 0})


def proportional(f: Polynomial, g: Polynomial):
    """Scalar a with f == a*g, or None when no such scalar exists."""
    f._check_ring(g)
    if g.is_zero():
        return None
    rf, rg = _linear_row(f), _linear_row(g)
    if not rf:
        return f.ring.field.zero
    if rf.keys() != rg.keys():
        return None
    field = f.ring.field
    pivot = min(rg)
    alpha = field.div(rf[pivot], rg[pivot])
    return alpha if all(c == field.mul(alpha, rg[i]) for i, c in rf.items()) else None


class LinearSpan:
    """Row-reduced span of linear forms; exact rank, membership, residuals.

    The basis is the reduced row echelon form, kept as sparse rows
    ``{pivot: {variable index: scalar}}``: each row is 1 at its pivot, its
    first nonzero variable, and every other row is 0 there.  That form is
    unique to the span, so the complement used for residuals, the span of the
    variables that are not pivots, depends on the span alone and not on the
    forms that gave it: ``form = projection + residual`` is deterministic.
    """

    def __init__(self, ring: Ring, forms: Iterable[Polynomial]):
        self.ring = ring
        forms = tuple(forms)
        for f in forms:
            if f.ring != ring:
                raise RingMismatchError("span forms must live in the given ring")
        field = ring.field
        self._rows: dict[int, dict] = {}
        for f in forms:
            row = self._reduce(_linear_row(f))
            if not row:
                continue
            pivot = min(row)
            if row[pivot] != 1:
                inv = field.inv(row[pivot])
                row = {i: field.mul(inv, c) for i, c in row.items()}
            for other in self._rows.values():
                c = other.get(pivot)
                if c:
                    _add_into(other, {i: field.mul(c, y) for i, y in row.items()}, field.sub)
            self._rows[pivot] = row

    def _reduce(self, row: dict) -> dict:
        """``row`` less its projection on the span (in place): 0 at every pivot."""
        # a basis row is 0 at every other pivot, so each subtraction clears one
        # pivot of ``row`` and leaves the others as they were
        rows, field = self._rows, self.ring.field
        for pivot in rows.keys() & row.keys():
            c = row[pivot]
            _add_into(row, {i: field.mul(c, y) for i, y in rows[pivot].items()}, field.sub)
        return row

    def _check_ring(self, form: Polynomial) -> None:
        if form.ring != self.ring:
            raise RingMismatchError("form lives in a different ring")

    @property
    def dim(self) -> int:
        return len(self._rows)

    def residual(self, form: Polynomial) -> Polynomial:
        """The component of ``form`` off this span (zero iff contained)."""
        self._check_ring(form)
        row = self._reduce(_linear_row(form))
        units = self.ring._units  # type: ignore[attr-defined]
        return Polynomial._make(self.ring, {units[i]: row[i] for i in sorted(row)})

    def contains(self, form: Polynomial) -> bool:
        self._check_ring(form)
        return not self._reduce(_linear_row(form))

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
