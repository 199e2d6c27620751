"""Groebner-basis certification engine.

Reduced Groebner bases via Buchberger's algorithm with the Gebauer-Moeller
pair criteria and a degree-graded pair queue, and the ideal predicates built
on top: membership, radical membership (Rabinowitsch trick), intersection,
elimination, saturation, and radical equality.

Instances in this toolkit are small (at most ~10 variables, low degree), so
the engine favours exactness and determinism over asymptotics.  The reduced
basis is unique per (ideal, order); recomputation or permuting generators
yields the identical result.

`IdealHandle` caches one reduced basis per term order; a cache entry is
written once and never mutated, so concurrent readers are safe and concurrent
first computations merely duplicate work.  The deadline set by `time_limit`
lives in a context variable, so it bounds only the thread (or task) that set
it: a new thread starts with no deadline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .poly import (
    DEGREVLEX,
    Polynomial,
    Ring,
    RingMismatchError,
    ScrollstciError,
    TermOrder,
    block_order,
    mono_coprime,
    mono_deg,
    mono_divides,
    mono_lcm,
    mono_mul,
    transport,
)


class OracleTimeout(ScrollstciError):
    """A Groebner computation exceeded the configured deadline."""


_DEADLINE: ContextVar[float | None] = ContextVar("scrollstci_deadline", default=None)


@contextmanager
def time_limit(seconds: float | None):
    """Abort Groebner computations started inside the block after ``seconds``."""
    token = _DEADLINE.set(None if seconds is None else time.monotonic() + seconds)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise OracleTimeout("Groebner computation timed out")


# --- internal representation: dict monomial -> scalar -------------------------

def _monic(p: dict, lm: tuple, field) -> dict:
    c = p[lm]
    if c == field.one:
        return p
    inv = field.inv(c)
    return {m: field.mul(inv, v) for m, v in p.items()}


def _reduce_full(p: dict, reducers: list[tuple[tuple, dict]], keyf, field) -> dict:
    """Full normal form of p modulo monic reducers (every term reduced).

    Terms enter the result in descending order, so its first key is its
    leading monomial.
    """
    work = dict(p)
    out: dict = {}
    fsub, fmul = field.sub, field.mul
    deadline = _DEADLINE.get()
    while work:
        _check_deadline(deadline)
        m = max(work, key=keyf)
        c = work.pop(m)
        hit = None
        for lm, g in reducers:
            if mono_divides(lm, m):
                hit = (lm, g)
                break
        if hit is None:
            out[m] = c
            continue
        lm, g = hit
        shift = tuple(a - b for a, b in zip(m, lm))
        for mg, cg in g.items():
            if mg == lm:
                continue
            tm = mono_mul(mg, shift)
            acc = work.get(tm)
            s = fsub(acc, fmul(c, cg)) if acc is not None else fsub(field.zero, fmul(c, cg))
            if s == 0:
                work.pop(tm, None)
            else:
                work[tm] = s
    return out


def _spoly(f: dict, lmf: tuple, g: dict, lmg: tuple, field) -> dict:
    """S-polynomial of monic f, g."""
    lcm = mono_lcm(lmf, lmg)
    sf = tuple(a - b for a, b in zip(lcm, lmf))
    sg = tuple(a - b for a, b in zip(lcm, lmg))
    out: dict = {}
    for m, c in f.items():
        out[mono_mul(m, sf)] = c
    fsub = field.sub
    for m, c in g.items():
        tm = mono_mul(m, sg)
        acc = out.get(tm)
        s = fsub(acc, c) if acc is not None else field.neg(c)
        if s == 0:
            out.pop(tm, None)
        else:
            out[tm] = s
    return out


def _update(G: set, B: set, ih: int, lms: list) -> tuple[set, set]:
    """Gebauer-Moeller pair update when basis element ``ih`` arrives."""
    mh = lms[ih]
    C = set(G)
    D: set = set()
    while C:
        ig = C.pop()
        lcm_hg = mono_lcm(mh, lms[ig])

        def lcm_divides(ip):
            return mono_divides(mono_lcm(mh, lms[ip]), lcm_hg)

        if mono_mul(mh, lms[ig]) == lcm_hg or (
            not any(lcm_divides(ip) for ip in C)
            and not any(lcm_divides(pr[1]) for pr in D)
        ):
            D.add((ih, ig))
    E = {(i, j) for (i, j) in D if mono_mul(mh, lms[j]) != mono_lcm(mh, lms[j])}
    B_new = set()
    for (i1, i2) in B:
        lcm12 = mono_lcm(lms[i1], lms[i2])
        if (
            not mono_divides(mh, lcm12)
            or mono_lcm(lms[i1], mh) == lcm12
            or mono_lcm(lms[i2], mh) == lcm12
        ):
            B_new.add((i1, i2))
    B_new |= E
    G_new = {ig for ig in G if not mono_divides(mh, lms[ig])}
    G_new.add(ih)
    return G_new, B_new


def _interreduce(pairs: list[tuple[tuple, dict]], keyf, field) -> list[tuple[tuple, dict]]:
    """Autoreduce ``(lm, poly)`` pairs until a whole pass keeps every leading monomial.

    Zeros are dropped, every element is made monic, and the pairs come back in
    descending order of their leading monomials.  After such a pass no term of
    any element is divisible by another element's leading monomial, so on a
    Groebner basis the result is the unique reduced basis; on a minimal one
    (no leading monomial divides another) it takes a single pass.
    """
    current = sorted(((lm, _monic(p, lm, field)) for lm, p in pairs), key=lambda t: keyf(t[0]))
    while True:
        changed = False
        done: list[tuple[tuple, dict]] = []
        for i, (lm, p) in enumerate(current):
            reducers = sorted(done + current[i + 1:], key=lambda t: keyf(t[0]))
            r = _reduce_full(p, reducers, keyf, field)
            if not r:
                changed = True
                continue
            rlm = next(iter(r))
            changed = changed or rlm != lm
            done.append((rlm, _monic(r, rlm, field)))
        current = done
        if not changed:
            return sorted(current, key=lambda t: keyf(t[0]), reverse=True)


def _buchberger(seeds: list[dict], arity: int, order: TermOrder, field,
                gb_prefix: int = 0, stop_on_unit: bool = False) -> list[dict]:
    """Reduced Groebner basis of the ideal generated by ``seeds``.

    ``gb_prefix``: the first so-many seeds are already a reduced basis under
    this order; pairs internal to them are skipped (their S-polynomials reduce
    to zero by definition).  ``stop_on_unit``: return ``[1]`` as soon as a
    nonzero constant appears; only valid when the caller just needs to know
    whether the ideal is the unit ideal.
    """
    keyf = order.key()
    one_mono = (0,) * arity
    unit = [{one_mono: field.one}]

    prefix = []
    rest = []
    for i, s in enumerate(seeds):
        if not s:
            continue
        lm = max(s, key=keyf)
        if lm == one_mono:
            return list(unit)
        (prefix if i < gb_prefix else rest).append((lm, s))
    if gb_prefix == 0:
        rest = _interreduce(rest, keyf, field)
        if any(lm == one_mono for lm, _ in rest):
            return list(unit)
    start = [(lm, _monic(p, lm, field)) for lm, p in prefix + rest]
    if not start:
        return []

    polys: list[dict] = []
    lms: list[tuple] = []
    prefix_ids: set[int] = set()
    G: set = set()
    B: set = set()
    insert_order = sorted(range(len(start)), key=lambda i: keyf(start[i][0]))
    for i in insert_order:
        idx = len(polys)
        lms.append(start[i][0])
        polys.append(start[i][1])
        if i < len(prefix):
            prefix_ids.add(idx)
        G, B = _update(G, B, idx, lms)
    if prefix_ids:
        B = {(i, j) for (i, j) in B if not (i in prefix_ids and j in prefix_ids)}

    deadline = _DEADLINE.get()
    while B:
        _check_deadline(deadline)
        i, j = min(B, key=lambda pr: (keyf(mono_lcm(lms[pr[0]], lms[pr[1]])), pr))
        B.discard((i, j))
        if mono_coprime(lms[i], lms[j]):
            continue
        s = _spoly(polys[i], lms[i], polys[j], lms[j], field)
        if not s:
            continue
        reducers = sorted(((lms[g], polys[g]) for g in G), key=lambda t: keyf(t[0]))
        h = _reduce_full(s, reducers, keyf, field)
        if not h:
            continue
        lm = next(iter(h))
        if stop_on_unit and lm == one_mono:
            return list(unit)
        idx = len(polys)
        polys.append(_monic(h, lm, field))
        lms.append(lm)
        G, B = _update(G, B, idx, lms)

    return [p for _, p in _interreduce([(lms[g], polys[g]) for g in G], keyf, field)]


# --- public API -----------------------------------------------------------------

class IdealHandle:
    """An ideal: generator list plus cached reduced Groebner bases per order."""

    def __init__(self, ring: Ring, generators):
        self.ring = ring
        gens = []
        seen = set()
        for g in generators:
            if isinstance(g, str):
                raise ScrollstciError("generators must be Polynomial values (parse first)")
            if g.ring != ring:
                raise RingMismatchError("generator lives in a different ring")
            if g.is_zero() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.generators: tuple[Polynomial, ...] = tuple(gens)
        self._cache: dict[TermOrder, tuple[Polynomial, ...]] = {}

    def groebner_basis(self, order: TermOrder = DEGREVLEX) -> tuple[Polynomial, ...]:
        cached = self._cache.get(order)
        if cached is not None:
            return cached
        seeds = [dict(g._terms) for g in self.generators]
        basis = _buchberger(seeds, self.ring.arity, order, self.ring.field)
        result = tuple(Polynomial._make(self.ring, p) for p in basis)
        self._cache.setdefault(order, result)
        return self._cache[order]

    def normal_form(self, f: Polynomial, order: TermOrder = DEGREVLEX) -> Polynomial:
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        keyf = order.key()
        gb = self.groebner_basis(order)
        reducers = sorted(
            ((g.leading_monomial(order), dict(g._terms)) for g in gb),
            key=lambda t: keyf(t[0]),
        )
        r = _reduce_full(dict(f._terms), reducers, keyf, self.ring.field)
        return Polynomial._make(self.ring, r)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "gens": [str(g) for g in self.generators],
        }

    @staticmethod
    def from_json(obj) -> "IdealHandle":
        from .poly import parse

        ring = Ring.from_json(obj["ring"])
        return IdealHandle(ring, [parse(ring, s) for s in obj["gens"]])

    def __repr__(self) -> str:
        return f"IdealHandle({len(self.generators)} gens over {','.join(self.ring.variables)})"


@dataclass(frozen=True)
class RadicalCertificate:
    """Outcome of a radical membership test.

    ``witness_k`` is the smallest exponent found with f^k in the ideal (a
    machine-checkable witness); when only the Rabinowitsch device certified
    membership, ``witness_k`` is None and ``rabinowitsch`` is True.
    """

    member: bool
    witness_k: int | None = None
    rabinowitsch: bool = False

    def to_json(self):
        return {
            "member": self.member,
            "witness_k": self.witness_k,
            "rabinowitsch": self.rabinowitsch,
        }


def groebner_basis(I: IdealHandle, order: TermOrder = DEGREVLEX) -> list[Polynomial]:
    return list(I.groebner_basis(order))


def normal_form(f: Polynomial, I: IdealHandle, order: TermOrder = DEGREVLEX) -> Polynomial:
    return I.normal_form(f, order)


def ideal_member(f: Polynomial, I: IdealHandle) -> bool:
    if f.ring != I.ring:
        raise RingMismatchError("polynomial lives in a different ring")
    return I.contains(f)


def _rabinowitsch_contains(I: IdealHandle, f: Polynomial) -> bool:
    """1 in I + (1 - t*f) over the ring extended with a fresh variable t.

    The extension prepends t, which leaves degrevlex comparisons of t-free
    monomials unchanged; the cached basis of I therefore stays a reduced basis
    in the extended ring and is reused as a Buchberger prefix.
    """
    ring = I.ring
    tname = ring.fresh_name("t")
    ext = ring.extended([tname])
    gb = I.groebner_basis(DEGREVLEX)
    seeds = [dict(transport(g, ext)._terms) for g in gb]
    rab = ext.one() - ext.variable(tname) * transport(f, ext)
    seeds.append(dict(rab._terms))
    basis = _buchberger(seeds, ext.arity, DEGREVLEX, ext.field,
                        gb_prefix=len(gb), stop_on_unit=True)
    return len(basis) == 1 and mono_deg(next(iter(basis[0]))) == 0


def radical_member(f: Polynomial, I: IdealHandle, witness_bound: int = 8) -> RadicalCertificate:
    """Decide f in rad(I); Rabinowitsch gives the verdict, small powers the witness."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial lives in a different ring")
    if f.is_zero():
        return RadicalCertificate(True, witness_k=1)
    power = f
    for k in range(1, witness_bound + 1):
        if I.contains(power):
            return RadicalCertificate(True, witness_k=k)
        if k < witness_bound:
            power = power * f
    if _rabinowitsch_contains(I, f):
        return RadicalCertificate(True, witness_k=None, rabinowitsch=True)
    return RadicalCertificate(False, rabinowitsch=True)


def eliminate(I: IdealHandle, variables) -> IdealHandle:
    """I intersected with the subring on the remaining variables."""
    names = set(variables)
    for v in names:
        if v not in I.ring.variables:
            raise ScrollstciError(f"cannot eliminate unknown variable {v!r}")
    elim = [v for v in I.ring.variables if v in names]
    rest = [v for v in I.ring.variables if v not in names]
    if not elim:
        return IdealHandle(I.ring, I.generators)
    perm = Ring(tuple(elim + rest), I.ring.field)
    seeds = [dict(transport(g, perm)._terms) for g in I.generators]
    basis = _buchberger(seeds, perm.arity, block_order(len(elim)), perm.field)
    k = len(elim)
    target = Ring(tuple(rest), I.ring.field)
    kept = []
    for p in basis:
        if all(all(e == 0 for e in m[:k]) for m in p):
            kept.append(transport(Polynomial._make(perm, p), target))
    return IdealHandle(target, kept)


def saturate(I: IdealHandle, f: Polynomial) -> IdealHandle:
    """I : f^infinity, by eliminating t from I + (1 - t*f)."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial lives in a different ring")
    if f.is_zero():
        raise ScrollstciError("cannot saturate by zero")
    ring = I.ring
    tname = ring.fresh_name("t")
    ext = ring.extended([tname])
    gens = [transport(g, ext) for g in I.generators]
    gens.append(ext.one() - ext.variable(tname) * transport(f, ext))
    out = eliminate(IdealHandle(ext, gens), [tname])
    return IdealHandle(ring, [transport(g, ring) for g in out.generators])


def intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """Ideal intersection via the one-variable trick: eliminate t from t*I + (1-t)*J."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    ring = I.ring
    tname = ring.fresh_name("t")
    ext = ring.extended([tname])
    t = ext.variable(tname)
    one_minus_t = ext.one() - t
    gens = [t * transport(g, ext) for g in I.generators]
    gens += [one_minus_t * transport(g, ext) for g in J.generators]
    out = eliminate(IdealHandle(ext, gens), [tname])
    return IdealHandle(ring, [transport(g, ring) for g in out.generators])


def intersect_many(handles) -> IdealHandle:
    """Left-to-right pairwise fold; the result does not depend on the folding."""
    handles = list(handles)
    if not handles:
        raise ScrollstciError("cannot intersect an empty list of ideals")
    acc = handles[0]
    for nxt in handles[1:]:
        acc = intersect(acc, nxt)
    return acc


def radical_equal(I: IdealHandle, J: IdealHandle) -> bool:
    """rad(I) == rad(J): every generator in the other radical, both ways."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    if I.groebner_basis() == J.groebner_basis():
        return True
    for g in I.generators:
        if not radical_member(g, J).member:
            return False
    for g in J.generators:
        if not radical_member(g, I).member:
            return False
    return True
