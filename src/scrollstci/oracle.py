"""Groebner-basis certification engine.

Reduced Groebner bases via Buchberger's algorithm with the Gebauer-Moeller
pair criteria (Gebauer & Moeller, JSC 6, 1988), and the ideal predicates
built on top: membership, radical membership, intersection (computed, or
certified from a candidate), elimination, saturation, and radical equality.

The kernels (`_buchberger`, `_reduce_full`, `_spoly`, `_update`,
`_interreduce`, `_certify`) take packed monomials only, as Singular does
(Bachmann & Schoenemann, ISSAC 1998): each exponent vector is one int, with
a field per variable and one for the degree (`_Packing`), so a product is
one int addition, a divisibility test one subtraction and a mask, and an
order comparison one int comparison.  `_packed` alone picks the field width
from the input: exponent fields start at 8 bits (or at the width of the
cached basis the run extends) and double until they hold twice the largest
input degree, and each has as many guard bits again.  A product whose guard
bits are not clear has outgrown its fields; `_packed` then runs again with
fields twice as wide, so no input is refused for its exponents and every
result is the one an unbounded representation would give.  Polynomials,
parsing, printing, linear algebra and the Hilbert recursion keep exponent
tuples; the radical chain packs each open generator once per sweep and
multiplies its powers packed.

A reduced basis has one shape from kernel to cache: reducers, ``(lm, poly)``
pairs in ascending order of their leading monomials, each polynomial monic
and its label its first key.  `_interreduce` and `_buchberger` return it,
`_buchberger` reads a known basis's leading monomials off its labels, and
only `_certify`, which checks the kernel, derives them from the polynomials.

The kernels keep their state rather than recompute it.  Pending pairs
map to the lcm of their leading monomials, computed once when the pair is
created, and a heap hands out the pair with the least (order key of the lcm,
pair); pairs the criteria drop later stay in the heap and are skipped when
popped.  A normal form keeps the terms still to reduce in a heap, largest
first, so taking the leading term costs a logarithm, not a scan of them all.

Membership, each link of the radical chain and each reduction `_certify`
replays are zero tests: the reduction stops at the first term no leading
monomial divides, which is the leading term of the normal form, so a
failing test builds no remainder, while a passing one still reduces all the
way to zero.  Only `normal_form` builds the whole remainder.

Radical membership and radical equality share one witness search, the
radical chain (the Schmitt-Vogel device behind Verdi's generators).  To put
f_1, ..., f_n in rad(I) it grows an ideal H, starting at H = I, and certifies
links f_j^{k_j} in H, each a zero test of the packed power against H's
cached basis; generators certified with k_j > 1 join H in batches, so later
links may use them, and rad(H) = rad(I) throughout.  A generator no power up
to ``_WITNESS_BOUND`` closes is decided by the Rabinowitsch trick
(1 in H + (1 - t*f_j)) against the current H: that is the fallback for long
links and the chain's only route to a negative verdict.

Radical equality first compares Krull dimensions, since rad(I) = rad(J)
forces dim S/I = dim S/J: ideals whose dimensions differ are unequal without
a chain.  The dimension is read off the Hilbert numerator of the degrevlex
leading-term ideal, which has the affine Hilbert function of S/I because
degrevlex is degree-compatible (Cox, Little & O'Shea, ch. 9 section 3); so
it holds for inhomogeneous ideals too.

``certify_intersection`` proves C = A ∩ B for homogeneous ideals without
eliminating: C lies in A and in B by normal forms, and the Hilbert series,
read off degrevlex leading-term ideals by the pivot recursion, satisfy
HS(S/C) = HS(S/A) + HS(S/B) - HS(S/(A + B)).  It first checks the identity
with upper bounds that need no Buchberger run, the leading monomials of C's
generators and LT(A) + LT(B) from the cached bases (Traverso's Hilbert-driven
argument, JSC 22, 1996); when they meet, C's generators are a Groebner basis
and C keeps their interreduction.  Only otherwise are the bases of C and of
A + B computed.  Every other intersection, and every elimination and
saturation, takes one certified path, `_eliminated`: a block-order basis that
replays Buchberger's criterion (`_certify`).

Instances in this toolkit are small (at most ~10 variables, low degree), so
the engine favours exactness and determinism over asymptotics.  The reduced
basis is unique per (ideal, order); recomputation or permuting generators
yields the identical result.

`IdealHandle` keeps one cache entry per term order, written once by
`IdealHandle._remember`: the reducers a kernel returned, as its normal forms
use them, with their packing.  It keeps no basis as polynomials, which
`groebner_basis` unpacks in descending order on each request, and no copy
packed wider: when `_packed` chose a wider packing for a run,
`IdealHandle._packed_basis` packs the entry again that wide for that run
alone.  The handle also keeps the Hilbert numerator of its degrevlex
leading-term ideal.  A cache entry is never mutated, nor are the dicts it
holds, so concurrent readers are safe and concurrent first computations
merely duplicate work.  The only module-level state is the
write-once memo of packings.  The deadline set by `time_limit`
(see `poly`) lives in a context variable, so it bounds only the thread (or
task) that set it: a new thread starts with no deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, zip_longest
from operator import lshift, or_

from .poly import (
    _DEADLINE,
    DEGREVLEX,
    OracleTimeout,  # re-exported with time_limit: the oracle's deadline API
    Polynomial,
    Ring,
    RingMismatchError,
    ScrollstciError,
    TermOrder,
    _check_deadline,
    block_order,
    mono_deg,
    mono_divides,
    time_limit,
    transport,
)


# --- packed monomials ---------------------------------------------------------

class _Overflow(Exception):
    """A product left its packing's exponent fields; the run starts again wider."""


class _Packing:
    """Exponent vectors of one (arity, order) packed into ints, ``bits`` per exponent.

    Each variable owns a field ``2 * bits`` wide whose upper half, the guard,
    stays clear while its exponent is below ``2**bits``.  The fields of the
    graded tail (every variable for the degree orders, the block after the
    first ``block`` variables, none for lex) sit lowest, then a field holding
    their total degree, then the lex head with the first variable on top.
    Products are sums, and two monomials are coprime iff their ``lcm`` is
    their sum; the guard makes a | b one subtraction, and ``key`` negates the
    tail fields of the degrevlex and block orders, so that one int
    comparison decides the order.  A sum whose guard is not clear has left
    the fields (`_Overflow`).
    """

    def __init__(self, arity: int, order: TermOrder, bits: int):
        if order.kind == "deglex":
            tail, head, negate = range(arity - 1, -1, -1), (), False
        else:
            k = arity if order.kind == "lex" else order.block
            if k > arity:
                raise ScrollstciError(f"block prefix {k} exceeds the ring's {arity} variables")
            tail, head, negate = range(k, arity), range(k - 1, -1, -1), True
        width = 2 * bits
        shifts = [0] * arity
        for slot, x in enumerate(tail):
            shifts[x] = slot * width
        deg_shift = len(tail) * width
        for slot, x in enumerate(head, len(tail) + 1):
            shifts[x] = slot * width
        value, field = (1 << bits) - 1, (1 << width) - 1
        guard = sum(value << (s + bits) for s in shifts)
        low_guard = sum(1 << (s + bits) for s in shifts)
        values = sum(value << s for s in shifts)
        tail_values = sum(value << shifts[x] for x in tail)
        # times ones, the top tail field holds the sum of all tail fields; no
        # field carries while arity < 2**bits, which `_packed` ensures
        ones = sum(1 << shifts[x] for x in tail)
        top = max(len(tail) - 1, 0) * width
        neg = (1 << deg_shift) - 1 if negate else 0

        def with_degree(v: int) -> int:
            return v | ((((v & tail_values) * ones) >> top) & field) << deg_shift

        def lcm(a: int, b: int) -> int:
            d = ((a | guard) - b) & low_guard  # the low guard bit is set where a >= b
            take_a = d - (d >> bits)
            return with_degree((a & take_a) | (b & (values ^ take_a)))

        def encode(m: tuple) -> int:
            return with_degree(sum(map(lshift, m, shifts)))

        def decode(m: int) -> tuple:
            return tuple(map(value.__and__, map(m.__rshift__, shifts)))

        self.arity, self.order = arity, order
        self.bits, self.width, self.guard, self.neg = bits, width, guard, neg
        self.lcm, self.encode, self.decode = lcm, encode, decode
        self.key = lambda m: m - ((m & neg) << 1)

    def pack(self, terms: dict) -> dict:
        encode = self.encode
        return {encode(m): c for m, c in terms.items()}

    def unpack(self, terms: dict) -> dict:
        decode = self.decode
        return {decode(m): c for m, c in terms.items()}


_packing = cache(_Packing)  # the one write-once memo: one packing per (arity, order, bits)


def _packed(pk: _Packing, polys, run, power: int = 1):
    """``(q, run(q))`` for the narrowest packing ``q`` of ``pk``'s arity and
    order, at least as wide as ``pk``, whose exponents reach twice the largest
    degree in ``polys`` (exponent tuples) raised to ``power`` and whose fields
    can sum ``arity`` exponents; each `_Overflow` doubles the width and runs
    ``run`` again, which computes the same result."""
    bits = pk.bits
    need = max([pk.arity] + [2 * power * max(map(sum, p), default=0) for p in polys])
    while 1 << bits <= need:
        bits *= 2
    while True:
        if bits != pk.bits:
            pk = _packing(pk.arity, pk.order, bits)
        try:
            return pk, run(pk)
        except _Overflow:
            bits *= 2


# --- kernels on packed monomials: dict monomial -> scalar ------------------------

def _monic(p: dict, lm, field) -> dict:
    c = p[lm]
    if c == field.one:
        return p
    inv = field.inv(c)
    return {m: field.mul(inv, v) for m, v in p.items()}


def _reduce_full(p: dict, reducers: list[tuple], pk: _Packing, field,
                 zero_test: bool = False) -> dict:
    """Full normal form of p modulo monic reducers (every term reduced).

    ``reducers`` are ``(lm, poly)`` pairs in ascending order of ``lm``; each
    term is reduced by the first whose ``lm`` divides it.  The terms still to
    reduce sit in a heap of descending keys ``-pk.key(m)``, each pushed when
    it enters ``work``; a popped term no longer in ``work`` has cancelled and
    is skipped.  The descending key d = 2*(m & neg) - m gives m back as
    2*(d & neg) - d, since m & neg and d & neg agree.  Terms enter the
    result in descending order, so its first key is its leading monomial.

    A term that no reducer divides is final, and every term still in the
    heap is smaller, so the first such term is the normal form's leading
    term.  With ``zero_test`` the loop returns that term alone: the result is
    empty iff the normal form is zero, and an empty result took every step
    the full normal form takes.
    """
    neg, guard = pk.neg, pk.guard
    work = dict(p)
    heap = [((m & neg) << 1) - m for m in work]
    heapify(heap)
    out: dict = {}
    fsub, fmul, zero = field.sub, field.mul, field.zero
    deadline = _DEADLINE.get()
    while heap:
        _check_deadline(deadline)
        d = heappop(heap)
        m = ((d & neg) << 1) - d
        c = work.pop(m, None)
        if c is None:
            continue
        high = m | guard  # lm | m  iff  (high - lm) keeps every guard bit
        for lm, g in reducers:
            if (high - lm) & guard == guard:
                break
        else:
            if zero_test:
                return {m: c}
            out[m] = c
            continue
        shift = m - lm
        for mg, cg in g.items():
            if mg == lm:
                continue
            tm = mg + shift
            acc = work.get(tm)
            s = fsub(acc if acc is not None else zero, fmul(c, cg))
            if s == 0:
                work.pop(tm, None)
            else:
                if acc is None:
                    if tm & guard:
                        raise _Overflow
                    heappush(heap, ((tm & neg) << 1) - tm)
                work[tm] = s
    return out


def _spoly(f: dict, lmf: int, g: dict, lmg: int, pk: _Packing, field) -> dict:
    """S-polynomial of monic f, g."""
    lcm = pk.lcm(lmf, lmg)
    sf, sg = lcm - lmf, lcm - lmg
    out = {m + sf: c for m, c in f.items()}
    fsub = field.sub
    for m, c in g.items():
        tm = m + sg
        acc = out.get(tm)
        s = fsub(acc, c) if acc is not None else field.neg(c)
        if s == 0:
            out.pop(tm, None)
        else:
            out[tm] = s
    if reduce(or_, out, 0) & pk.guard:
        raise _Overflow
    return out


def _update(G: set, B: dict, ih: int, lms: list, pk: _Packing) -> tuple[set, dict]:
    """Gebauer-Moeller pair update when basis element ``ih`` arrives.

    ``B`` maps each pair to the lcm of its leading monomials, computed once
    when the pair is created.  a | b iff ``((b | guard) - a) & guard == guard``,
    and a, b are coprime iff their lcm is their product a + b.
    """
    lcm, guard = pk.lcm, pk.guard
    mh = lms[ih]
    lcm_h = {ig: lcm(mh, lms[ig]) for ig in G}
    C = set(G)
    D: dict = {}
    while C:
        ig = C.pop()
        lcm_hg = lcm_h[ig]
        high = lcm_hg | guard
        if lcm_hg == mh + lms[ig] or (
            not any((high - lcm_h[ip]) & guard == guard for ip in C)
            and not any((high - l) & guard == guard for l in D.values())
        ):
            D[(ih, ig)] = lcm_hg
    B_new = {
        (i1, i2): lcm12 for (i1, i2), lcm12 in B.items()
        if ((lcm12 | guard) - mh) & guard != guard
        or lcm(lms[i1], mh) == lcm12
        or lcm(lms[i2], mh) == lcm12
    }
    B_new.update((pr, l) for pr, l in D.items() if l != mh + lms[pr[1]])
    G_new = {ig for ig in G if ((lms[ig] | guard) - mh) & guard != guard}
    G_new.add(ih)
    return G_new, B_new


def _interreduce(pairs: list[tuple], pk: _Packing, field) -> list[tuple]:
    """Autoreduce ``(lm, poly)`` pairs until a whole pass keeps every leading monomial.

    Zeros are dropped, every element is made monic, and the pairs come back
    as ascending reducers.  After such a pass no term of any element is
    divisible by another element's leading monomial, so on a Groebner basis
    the result is the unique reduced basis; on a minimal one (no leading
    monomial divides another) it takes a single pass.
    """
    keyf = pk.key
    current = sorted(((lm, _monic(p, lm, field)) for lm, p in pairs), key=lambda t: keyf(t[0]))
    first_pass = True
    while True:
        changed = False
        done: list[tuple[int, dict]] = []
        for i, (lm, p) in enumerate(current):
            # ascending as it stands until the first pass changes something
            reducers = done + current[i + 1:]
            if changed or not first_pass:
                reducers.sort(key=lambda t: keyf(t[0]))
            r = _reduce_full(p, reducers, pk, field)
            if not r:
                changed = True
                continue
            rlm = next(iter(r))
            changed = changed or rlm != lm
            done.append((rlm, _monic(r, rlm, field)))
        current = done
        if not changed:
            return sorted(current, key=lambda t: keyf(t[0]))
        first_pass = False


def _buchberger(seeds: list[dict], pk: _Packing, field, known: list[tuple] = ()) -> list[tuple]:
    """Reduced Groebner basis, as reducers, of the ideal generated by
    ``known`` and the nonzero ``seeds``.

    ``known``, reducers of a reduced basis under this order (a cache entry,
    never mutated), is the starting basis as given, its leading monomials
    read off its labels, with no pending pair: a pair of a Groebner basis
    reduces to zero against it, so none of theirs is formed (Gebauer &
    Moeller).  Only the seeds go through `_update`, in ascending order of
    their leading monomials.  The unit ideal needs no case of its own: 1 (the
    packed monomial 0) divides every leading monomial, so once it is in the
    basis each pair left reduces to zero against it, and the final
    interreduction returns [1].  Without a known basis the seeds are
    interreduced first; if no pair then leaves a nonzero remainder, they are
    a Groebner basis and already reduced, so they are returned as they are,
    with no second interreduction.
    """
    keyf = pk.key
    lms = [lm for lm, _ in known]
    polys = [p for _, p in known]
    G = set(range(len(known)))
    B: dict = {}
    rest = [(max(s, key=keyf), s) for s in seeds]
    rest = sorted(rest, key=lambda t: keyf(t[0])) if known else _interreduce(rest, pk, field)
    for lm, p in rest:
        lms.append(lm)
        polys.append(_monic(p, lm, field))
        G, B = _update(G, B, len(polys) - 1, lms, pk)

    # the next pair is the least (key of its lcm, pair); pairs that _update
    # dropped stay in the heap and are skipped when popped
    queue = [(keyf(lcm), pr) for pr, lcm in B.items()]
    heapify(queue)
    reducers = None  # sorted by leading monomial; rebuilt only after G changes
    deadline = _DEADLINE.get()
    while queue:
        _check_deadline(deadline)
        i, j = pr = heappop(queue)[1]
        if B.pop(pr, None) is None:
            continue
        s = _spoly(polys[i], lms[i], polys[j], lms[j], pk, field)
        if not s:
            continue
        if reducers is None:
            reducers = sorted(((lms[g], polys[g]) for g in G), key=lambda t: keyf(t[0]))
        h = _reduce_full(s, reducers, pk, field)
        if not h:
            continue
        lm = next(iter(h))
        idx = len(polys)
        polys.append(_monic(h, lm, field))
        lms.append(lm)
        G, B = _update(G, B, idx, lms, pk)
        for pr, lcm in B.items():
            if pr[0] == idx:
                heappush(queue, (keyf(lcm), pr))
        reducers = None

    if not known and len(polys) == len(rest):
        return rest
    return _interreduce([(lms[g], polys[g]) for g in G], pk, field)


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
        self._packed: dict[TermOrder, tuple[_Packing, list[tuple[int, dict]]]] = {}
        self._numerator: tuple[int, ...] | None = None

    def groebner_basis(self, order: TermOrder = DEGREVLEX) -> tuple[Polynomial, ...]:
        pk, reducers = self._packed_basis(order)
        return tuple(Polynomial._make(self.ring, pk.unpack(p)) for _, p in reversed(reducers))

    def _packed_basis(self, order: TermOrder, bits: int = 0
                      ) -> tuple[_Packing, list[tuple[int, dict]]]:
        """The packing and the reduced basis as ascending ``(lm, poly)`` reducers:
        the cached entry, computed on first request, or, when ``bits`` is wider
        than its packing, the entry packed again ``bits`` wide, which is not
        stored."""
        entry = self._packed.get(order)
        if entry is None:
            field, gens = self.ring.field, self.generators
            entry = self._remember(order, *_packed(
                _packing(self.ring.arity, order, 8), [g._terms for g in gens],
                lambda q: _buchberger([q.pack(g._terms) for g in gens], q, field)))
        pk, reducers = entry
        if bits <= pk.bits:
            return entry
        q = _packing(pk.arity, order, bits)
        decode, encode = pk.decode, q.encode
        return q, [(encode(decode(lm)), {encode(decode(m)): c for m, c in p.items()})
                   for lm, p in reducers]

    def _remember(self, order: TermOrder, pk: _Packing, reducers: list[tuple]) -> tuple:
        """Cache reducers and their packing as the one entry of ``order``; an
        entry already there is kept and returned."""
        return self._packed.setdefault(order, (pk, reducers))

    def _reduced(self, f: Polynomial, order: TermOrder, zero_test: bool) -> tuple[_Packing, dict]:
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        field = self.ring.field
        return _packed(self._packed_basis(order)[0], [f._terms], lambda q: _reduce_full(
            q.pack(f._terms), self._packed_basis(order, q.bits)[1], q, field, zero_test))

    def normal_form(self, f: Polynomial, order: TermOrder = DEGREVLEX) -> Polynomial:
        q, r = self._reduced(f, order, False)
        return Polynomial._make(self.ring, q.unpack(r))

    def contains(self, f: Polynomial) -> bool:
        """f in the ideal: its degrevlex normal form is zero, decided by the
        zero test of `_reduce_full`, which stops at a nonzero normal form's
        leading term and builds no remainder."""
        return not self._reduced(f, DEGREVLEX, True)[1]

    def hilbert_numerator(self) -> tuple[int, ...]:
        """N(T) with HS(S/LT(I)) = N(T)/(1-T)^n, LT taken in degrevlex."""
        if self._numerator is None:
            # written once, like the basis cache: a second computation agrees
            pk, reducers = self._packed_basis(DEGREVLEX)
            self._numerator = _hilbert_numerator(pk.decode(lm) for lm, _ in reducers)
        return self._numerator

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "gens": [str(g) for g in self.generators],
        }

    @staticmethod
    def from_json(obj) -> "IdealHandle":
        from .poly import json_list, parse

        ring = Ring.from_json(obj["ring"])
        gens = json_list(obj["gens"], "polynomial strings in 'gens'")
        return IdealHandle(ring, [parse(ring, s) for s in gens])

    def __repr__(self) -> str:
        return f"IdealHandle({len(self.generators)} gens over {','.join(self.ring.variables)})"


@dataclass(frozen=True)
class RadicalCertificate:
    """Outcome of a radical membership test.

    ``witness_k`` is the smallest exponent found with f^k in the ideal (a
    machine-checkable witness); it is None when the Rabinowitsch device
    decided, which every negative verdict needs, and ``to_json`` says so
    under ``rabinowitsch``.
    """

    member: bool
    witness_k: int | None = None

    def to_json(self):
        return {
            "member": self.member,
            "witness_k": self.witness_k,
            "rabinowitsch": self.witness_k is None,
        }


def ideal_member(f: Polynomial, I: IdealHandle) -> bool:
    return I.contains(f)


def _rabinowitsch(ring: Ring, f: Polynomial) -> tuple[Ring, dict]:
    """The ring extended by a fresh first variable t, and 1 - t*f in it."""
    ext = ring.extended([ring.fresh_name("t")])
    return ext, (ext.one() - ext.variable(ext.variables[0]) * transport(f, ext))._terms


def _grown(H: IdealHandle, ring: Ring, seeds: list[dict]) -> tuple[_Packing, list[tuple]]:
    """The packing and the reducers of the degrevlex basis of H + (seeds) over ``ring``.

    ``ring`` is H's ring or that ring with fresh first variables, and
    ``seeds`` are exponent-tuple dicts over it.  Prepended variables leave
    degrevlex comparisons of monomials free of them unchanged, and they take
    the lowest degrevlex fields, so H's cached reducers, packed as wide as
    the run's packing and shifted up one field per fresh variable, labels
    with them, are still a reduced basis and start Buchberger as its known
    basis.
    """
    pk, _ = H._packed_basis(DEGREVLEX)
    fresh = ring.arity - H.ring.arity

    def run(q: _Packing) -> list[tuple]:
        known = H._packed_basis(DEGREVLEX, q.bits)[1]
        if fresh:
            shift = fresh * q.width
            known = [(lm << shift, {m << shift: c for m, c in p.items()}) for lm, p in known]
        return _buchberger([q.pack(s) for s in seeds], q, ring.field, known)

    return _packed(_packing(ring.arity, DEGREVLEX, pk.bits), seeds, run)


def _rabinowitsch_contains(I: IdealHandle, f: Polynomial) -> bool:
    """1 in I + (1 - t*f) over the ring extended with a fresh first variable t."""
    ext, rab = _rabinowitsch(I.ring, f)
    _, basis = _grown(I, ext, [rab])
    return len(basis) == 1 and basis[0][0] == 0


_RABINOWITSCH = "Rabinowitsch"
_WITNESS_BOUND = 8


def _extend(H: IdealHandle, polys: list[Polynomial]) -> IdealHandle:
    """H + (polys), its degrevlex basis grown from H's cached packed one."""
    out = IdealHandle(H.ring, H.generators + tuple(polys))
    out._remember(DEGREVLEX, *_grown(H, H.ring, [p._terms for p in polys]))
    return out


def _times(a: dict, b: dict, pk: _Packing, field) -> dict:
    """a*b on packed monomials, the deadline checked once per term of a."""
    fadd, fmul = field.add, field.mul
    deadline = _DEADLINE.get()
    out: dict = {}
    for ma, ca in a.items():
        _check_deadline(deadline)
        for mb, cb in b.items():
            m = ma + mb
            c = fmul(ca, cb)
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                s = fadd(acc, c)
                if s == 0:
                    del out[m]
                else:
                    out[m] = s
    if reduce(or_, out, 0) & pk.guard:
        raise _Overflow
    return out


def _sweep(H: IdealHandle, pending: list[Polynomial]) -> tuple[list, list]:
    """One sweep of the radical chain: the links ``(g, k)`` it certifies, in
    order, and the generators of ``pending`` it leaves open.

    Levels k = 1.._WITNESS_BOUND test g^k in H for every open g, by the zero
    test against H's cached degrevlex reducers; the sweep ends after the
    first level k > 1 that closes a generator, or once none is open.  Each
    generator is packed once, wide enough for its power at the bound, and
    its powers are multiplied packed.
    """
    field = H.ring.field

    def run(q: _Packing) -> tuple[list, list]:
        reducers = H._packed_basis(DEGREVLEX, q.bits)[1]
        packed = [q.pack(g._terms) for g in pending]
        still = list(zip(pending, packed, packed))  # (g, g packed, g^k packed)
        links = []
        for k in range(1, _WITNESS_BOUND + 1):
            if k > 1:
                still = [(g, p, _times(gk, p, q, field)) for g, p, gk in still]
            kept = []
            for g, p, gk in still:
                if _reduce_full(gk, reducers, q, field, True):
                    kept.append((g, p, gk))
                else:
                    links.append((g, k))
            closed, still = len(kept) < len(still), kept
            if (closed and k > 1) or not still:
                break
        return links, [g for g, _, _ in still]

    return _packed(H._packed_basis(DEGREVLEX)[0], [g._terms for g in pending], run,
                   _WITNESS_BOUND)[1]


def _radical_chain(gens, I: IdealHandle):
    """Certify every generator in rad(I), link by link; None if one is not in it.

    Returns the links ``(g, k)`` with g^k in I + (generators certified
    before g), or ``(g, "Rabinowitsch")`` when only the Rabinowitsch trick
    closed g, in the order they were certified.  Levels k = 1.._WITNESS_BOUND
    are swept over all open generators (`_sweep`); those closed at some k > 1
    join H in one batch while others stay open, and the open ones restart at
    k = 1.  (A generator closed at k = 1 already lies in H.)  When a whole
    sweep closes nothing, the first open generator goes to Rabinowitsch
    against H.  A generator of another ring, the zero polynomial included,
    raises `RingMismatchError`.
    """
    pending = list(gens)
    if any(g.ring != I.ring for g in pending):
        raise RingMismatchError("polynomial lives in a different ring")
    H = I
    links = []
    while pending:
        found, pending = _sweep(H, pending)
        links += found
        closed = [g for g, k in found if k > 1]
        if not pending:
            break
        if closed:
            H = _extend(H, closed)
            continue
        g = pending.pop(0)
        if not _rabinowitsch_contains(H, g):
            return None
        links.append((g, _RABINOWITSCH))
        if pending:
            H = _extend(H, [g])
    return links


def radical_member(f: Polynomial, I: IdealHandle) -> RadicalCertificate:
    """Decide f in rad(I): the radical chain of the single generator f.

    Each power f^k, k = 1.._WITNESS_BOUND, is multiplied packed and decided
    by the zero test against I's cached basis; the first that reduces to
    zero is the witness, and if none does, the Rabinowitsch trick decides.
    The zero polynomial closes at k = 1, and a polynomial of another ring
    raises `RingMismatchError` before any power is tested."""
    links = _radical_chain([f], I)
    if links is None:
        return RadicalCertificate(False)
    (_, k), = links
    return RadicalCertificate(True, None if k == _RABINOWITSCH else k)


def _certify(seeds: list[dict], basis: list[tuple], pk: _Packing, field) -> None:
    """Raise unless the monic ``basis`` (reducers) built from ``seeds`` is a
    Groebner basis of (seeds): Buchberger's criterion, replayed by plain
    reductions of every seed and of the S-polynomial of every pair of basis
    elements whose leading monomials are not coprime.  It checks the kernel,
    so it reads no label: each leading monomial comes from its polynomial.
    A failure is an engine defect."""
    keyf = pk.key
    reducers = sorted(((max(p, key=keyf), p) for _, p in basis), key=lambda t: keyf(t[0]))
    spolys = (_spoly(f, lmf, g, lmg, pk, field) for i, (lmf, f) in enumerate(reducers)
              for lmg, g in reducers[i + 1:] if pk.lcm(lmf, lmg) != lmf + lmg)
    if any(_reduce_full(p, reducers, pk, field, True) for p in chain(seeds, spolys)):
        raise ScrollstciError("Groebner basis failed its Buchberger-criterion replay")


def _eliminated(ring: Ring, k: int, seeds: list[dict]) -> IdealHandle:
    """(seeds) ∩ the subring on ``ring.variables[k:]``: the elements of its
    ``block_order(k)`` basis free of the first ``k`` variables, that basis
    replayed by `_certify` inside the run, so an `_Overflow` there widens too."""
    field = ring.field

    def run(q: _Packing) -> list[tuple]:
        packed = [q.pack(s) for s in seeds]
        basis = _buchberger(packed, q, field)
        _certify(packed, basis, q, field)
        return basis

    pk, basis = _packed(_packing(ring.arity, block_order(k), 8), seeds, run)
    rest = Ring(ring.variables[k:], field)
    return IdealHandle(rest, [Polynomial._make(rest, {m[k:]: c for m, c in p.items()})
                              for p in map(pk.unpack, (p for _, p in reversed(basis)))
                              if not any(any(m[:k]) for m in p)])


def eliminate(I: IdealHandle, variables) -> IdealHandle:
    """I intersected with the subring on the remaining variables."""
    names = set(variables)
    for v in names:
        if v not in I.ring.variables:
            raise ScrollstciError(f"cannot eliminate unknown variable {v!r}")
    elim = [v for v in I.ring.variables if v in names]
    if not elim:
        return IdealHandle(I.ring, I.generators)
    perm = Ring(tuple(elim) + tuple(v for v in I.ring.variables if v not in names),
                I.ring.field)
    return _eliminated(perm, len(elim), [transport(g, perm)._terms for g in I.generators])


def saturate(I: IdealHandle, f: Polynomial) -> IdealHandle:
    """I : f^infinity: t eliminated from I + (1 - t*f), t a fresh first variable."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial lives in a different ring")
    if f.is_zero():
        raise ScrollstciError("cannot saturate by zero")
    ext, rab = _rabinowitsch(I.ring, f)
    return _eliminated(ext, 1, [{(0,) + m: c for m, c in g._terms.items()}
                                for g in I.generators] + [rab])


def intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """Ideal intersection via the one-variable trick: eliminate t from t*I + (1-t)*J."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    ext = I.ring.extended([I.ring.fresh_name("t")])
    t = ext.variable(ext.variables[0])
    return _eliminated(ext, 1, [(t * transport(g, ext))._terms for g in I.generators]
                       + [((ext.one() - t) * transport(g, ext))._terms for g in J.generators])


def intersect_many(handles) -> IdealHandle:
    """Left-to-right pairwise fold; the result does not depend on the folding."""
    handles = list(handles)
    if not handles:
        raise ScrollstciError("cannot intersect an empty list of ideals")
    return reduce(intersect, handles)


def _hilbert_numerator(monomials) -> tuple[int, ...]:
    """Coefficients, by degree, of N(T) with HS(S/(monomials)) = N(T)/(1-T)^n.

    The pivot recursion (Bayer & Stillman, JSC 14, 1992; Bigatti, JPAA 119,
    1997): generators coprime to all others each contribute a factor
    1 - T^deg, and otherwise, for the variable x met by most generators and
    e the least positive exponent of x among them,
    N(I) = N(I + (x^e)) + T^e*N(I : x^e), with
    N(I + (x^e)) = (1 - T^e)*N(generators free of x), since every generator
    that contains x is divisible by x^e.  Pivoting on x^e rather than x keeps
    the recursion's depth from growing with the exponents.
    """
    deadline = _DEADLINE.get()

    def minimal(gens) -> tuple:
        kept: list = []
        for m in sorted(set(gens), key=mono_deg):
            if not any(mono_divides(g, m) for g in kept):
                kept.append(m)
        return tuple(sorted(kept))

    def times_one_minus(num: list, d: int) -> list:
        # num * (1 - T^d)
        out = num + [0] * d
        for i, c in enumerate(num):
            out[i + d] -= c
        return out

    def numerator(gens: tuple) -> list:
        _check_deadline(deadline)
        support = [sum(1 for m in gens if m[x]) for x in range(len(gens[0]))] if gens else []
        free, tied = [], []
        for m in gens:
            (free if all(support[x] == 1 for x, e in enumerate(m) if e) else tied).append(m)
        if tied:
            x = max(range(len(support)), key=support.__getitem__)
            e = min(m[x] for m in tied if m[x])
            without = times_one_minus(numerator(tuple(m for m in tied if not m[x])), e)
            quotient = numerator(minimal(m[:x] + (m[x] - e,) + m[x + 1:] if m[x] else m
                                         for m in tied))
            out = without + [0] * (len(quotient) + e - len(without))
            for i, c in enumerate(quotient):
                out[i + e] += c
        else:
            out = [1]
        for m in free:
            out = times_one_minus(out, mono_deg(m))
        return out

    coeffs = numerator(minimal(monomials))
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


def _numerator_sum(*nums) -> tuple[int, ...]:
    """The coefficientwise sum of Hilbert numerators, trailing zeros dropped."""
    out = [sum(c) for c in zip_longest(*nums, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def certify_intersection(C: IdealHandle, A: IdealHandle, B: IdealHandle) -> bool:
    """True when C = A ∩ B is proved; False when the proof does not go through.

    The proof needs homogeneous generators throughout.  Write H_I for the
    Hilbert function of S/I and N(I) for the numerator of its series.  Every
    generator of C reduces to zero modulo A and modulo B, so C lies in A ∩ B
    and H_C >= H_{A∩B} = H_A + H_B - H_{A+B}, by the exact sequence
    0 -> S/(A ∩ B) -> S/A (+) S/B -> S/(A + B) -> 0.  A monomial ideal M
    inside LT(I) gives H_I <= H_M.  Two such bounds cost no Buchberger run:
    M_C, the degrevlex leading monomials of C's generators, and
    M_AB = LT(A) + LT(B), read off the cached bases of A and B.
    If N(M_C) + N(M_AB) = N(A) + N(B), then
    H_C <= H_{M_C} = H_A + H_B - H_{M_AB} <= H_{A∩B} <= H_C, so every step is
    an equality: C = A ∩ B, and LT(C) = M_C, so C's generators are a Groebner
    basis and their interreduction is C's reduced basis, which C keeps with
    N(M_C) as its numerator.  Otherwise the same identity is checked with
    the exact leading-term ideals: C's basis is computed, and the basis of
    A + B is grown from A's cached one.  Numerators A and B already carry
    are not computed again.
    """
    if not A.ring == B.ring == C.ring:
        raise RingMismatchError("ideals live in different rings")
    if not all(g.is_homogeneous() for h in (A, B, C) for g in h.generators):
        return False
    # a generator of A or B lies in it without a normal form
    in_a, in_b = set(A.generators), set(B.generators)
    if not all((g in in_a or A.contains(g)) and (g in in_b or B.contains(g))
               for g in C.generators):
        return False

    target = _numerator_sum(A.hilbert_numerator(), B.hilbert_numerator())
    c = _hilbert_numerator(g.leading_monomial() for g in C.generators)
    lt_ab = []
    for I in (A, B):
        pk, reducers = I._packed_basis(DEGREVLEX)
        lt_ab += [pk.decode(lm) for lm, _ in reducers]
    if _numerator_sum(c, _hilbert_numerator(lt_ab)) == target:
        field, gens = C.ring.field, [g._terms for g in C.generators]
        C._remember(DEGREVLEX, *_packed(
            _packing(C.ring.arity, DEGREVLEX, 8), gens,
            lambda q: _interreduce([(max(p, key=q.key), p) for p in map(q.pack, gens)], q, field)))
        if C._numerator is None:  # written once, like the basis cache
            C._numerator = c
        return True
    ab = _extend(A, list(B.groebner_basis()))
    return _numerator_sum(C.hilbert_numerator(), ab.hilbert_numerator()) == target


def _dimension(I: IdealHandle) -> int:
    """Krull dimension of S/I, and -1 for the unit ideal.

    It is n less the multiplicity of T = 1 as a root of the Hilbert numerator
    N(T): each root divides out one factor 1 - T of the denominator
    (1 - T)^n.  The quotient of N by 1 - T has the partial sums of N as its
    coefficients, the last of which is N(1) = 0.
    """
    num = I.hilbert_numerator()
    if not num:
        return -1
    dim = I.ring.arity
    while sum(num) == 0:
        num = tuple(accumulate(num))[:-1]
        dim -= 1
    return dim


def radical_equal(I: IdealHandle, J: IdealHandle) -> bool:
    """rad(I) == rad(J): equal Krull dimensions and a radical chain both ways.

    Ideals of different Krull dimension have different radicals, and the
    answer is False without a chain.  Otherwise the chain of I's generators
    into J certifies rad(I) within rad(J) (and the reverse chain the
    converse), each link a zero test against J grown by the links
    before it, with the Rabinowitsch trick as fallback and as the chain's
    route to False.  So every True comes with the links of both chains.
    """
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    if _dimension(I) != _dimension(J):
        return False
    return (_radical_chain(I.generators, J) is not None
            and _radical_chain(J.generators, I) is not None)
