"""Groebner-basis certification engine.

Reduced Groebner bases via Buchberger's algorithm with the Gebauer-Moeller
pair criteria (Gebauer & Moeller, JSC 6, 1988), and the ideal predicates
built on top: membership, radical membership, intersection (computed, or
certified from a candidate), elimination, saturation, and radical equality.

The two kernels keep their state rather than recompute it.  Pending pairs
map to the lcm of their leading monomials, computed once when the pair is
created, and a heap hands out the pair with the least (order key of the lcm,
pair); pairs the criteria drop later stay in the heap and are skipped when
popped.  A normal form keeps the terms still to reduce in a heap, largest
first, so taking the leading term costs a logarithm, not a scan of them all.

Radical membership and radical equality share one witness search, the
radical chain (the Schmitt-Vogel device behind Verdi's generators).  To put
f_1, ..., f_n in rad(I) it grows an ideal H, starting at H = I, and certifies
links f_j^{k_j} in H, each a plain normal-form test; generators certified
with k_j > 1 join H in batches, so later links may use them, and
rad(H) = rad(I) throughout.  A generator no power up to ``_WITNESS_BOUND``
closes is decided by the Rabinowitsch trick (1 in H + (1 - t*f_j)) against
the current H: that is the fallback for long links and the chain's only
route to a negative verdict.

Radical equality first compares Krull dimensions, since rad(I) = rad(J)
forces dim S/I = dim S/J: ideals whose dimensions differ are unequal without
a chain.  The dimension is read off the Hilbert numerator of the degrevlex
leading-term ideal, which has the affine Hilbert function of S/I because
degrevlex is degree-compatible (Cox, Little & O'Shea, ch. 9 section 3); so
it holds for inhomogeneous ideals too.

``certify_intersection`` proves C = A ∩ B for homogeneous ideals without
eliminating: C lies in A and in B by normal forms, and the Hilbert series,
read off the degrevlex leading-term ideals by the pivot recursion, satisfy
HS(S/C) = HS(S/A) + HS(S/B) - HS(S/(A + B)).  ``intersect`` and
``intersect_many`` eliminate, and serve every other intersection.

Instances in this toolkit are small (at most ~10 variables, low degree), so
the engine favours exactness and determinism over asymptotics.  The reduced
basis is unique per (ideal, order); recomputation or permuting generators
yields the identical result.

`IdealHandle` caches one reduced basis per term order and, next to it, the
sorted reducer list its normal forms use, which shares the basis
polynomials' term dicts, and the Hilbert numerator of its degrevlex
leading-term ideal.  A cache entry is written once and never mutated,
nor are the shared dicts, so concurrent readers are safe and concurrent
first computations merely duplicate work.  The deadline set by `time_limit`
(see `poly`) lives in a context variable, so it bounds only the thread (or
task) that set it: a new thread starts with no deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from operator import sub

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
    mono_coprime,
    mono_deg,
    mono_divides,
    mono_lcm,
    mono_mul,
    time_limit,
    transport,
)


# --- internal representation: dict monomial -> scalar -------------------------

def _monic(p: dict, lm: tuple, field) -> dict:
    c = p[lm]
    if c == field.one:
        return p
    inv = field.inv(c)
    return {m: field.mul(inv, v) for m, v in p.items()}


def _reduce_full(p: dict, reducers: list[tuple[tuple, dict]], order: TermOrder, field) -> dict:
    """Full normal form of p modulo monic reducers (every term reduced).

    ``reducers`` are ``(lm, poly)`` pairs in ascending order of ``lm``; each
    term is reduced by the first whose ``lm`` divides it.  The terms still to
    reduce sit in a heap, largest first, each pushed when it enters ``work``;
    a popped term no longer in ``work`` has cancelled and is skipped.  Terms
    enter the result in descending order, so its first key is its leading
    monomial.
    """
    dkey = order.descending_key()
    work = dict(p)
    heap = [(dkey(m), m) for m in work]
    heapify(heap)
    out: dict = {}
    fsub, fmul, zero = field.sub, field.mul, field.zero
    deadline = _DEADLINE.get()
    while heap:
        _check_deadline(deadline)
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for lm, g in reducers:
            if mono_divides(lm, m):
                break
        else:
            out[m] = c
            continue
        shift = tuple(map(sub, m, lm))
        for mg, cg in g.items():
            if mg == lm:
                continue
            tm = mono_mul(mg, shift)
            acc = work.get(tm)
            s = fsub(acc if acc is not None else zero, fmul(c, cg))
            if s == 0:
                work.pop(tm, None)
            else:
                if acc is None:
                    heappush(heap, (dkey(tm), tm))
                work[tm] = s
    return out


def _spoly(f: dict, lmf: tuple, g: dict, lmg: tuple, field) -> dict:
    """S-polynomial of monic f, g."""
    lcm = mono_lcm(lmf, lmg)
    sf = tuple(map(sub, lcm, lmf))
    sg = tuple(map(sub, lcm, lmg))
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


def _update(G: set, B: dict, ih: int, lms: list) -> tuple[set, dict]:
    """Gebauer-Moeller pair update when basis element ``ih`` arrives.

    ``B`` maps each pair to the lcm of its leading monomials, computed once
    when the pair is created.
    """
    mh = lms[ih]
    lcm_h = {ig: mono_lcm(mh, lms[ig]) for ig in G}
    C = set(G)
    D: dict = {}
    while C:
        ig = C.pop()
        lcm_hg = lcm_h[ig]
        if mono_coprime(mh, lms[ig]) or (
            not any(mono_divides(lcm_h[ip], lcm_hg) for ip in C)
            and not any(mono_divides(lcm, lcm_hg) for lcm in D.values())
        ):
            D[(ih, ig)] = lcm_hg
    B_new = {
        (i1, i2): lcm12 for (i1, i2), lcm12 in B.items()
        if not mono_divides(mh, lcm12)
        or mono_lcm(lms[i1], mh) == lcm12
        or mono_lcm(lms[i2], mh) == lcm12
    }
    B_new.update((pr, lcm) for pr, lcm in D.items() if not mono_coprime(mh, lms[pr[1]]))
    G_new = {ig for ig in G if not mono_divides(mh, lms[ig])}
    G_new.add(ih)
    return G_new, B_new


def _interreduce(pairs: list[tuple[tuple, dict]], order: TermOrder,
                 field) -> list[tuple[tuple, dict]]:
    """Autoreduce ``(lm, poly)`` pairs until a whole pass keeps every leading monomial.

    Zeros are dropped, every element is made monic, and the pairs come back in
    descending order of their leading monomials.  After such a pass no term of
    any element is divisible by another element's leading monomial, so on a
    Groebner basis the result is the unique reduced basis; on a minimal one
    (no leading monomial divides another) it takes a single pass.
    """
    keyf = order.key()
    current = sorted(((lm, _monic(p, lm, field)) for lm, p in pairs), key=lambda t: keyf(t[0]))
    first_pass = True
    while True:
        changed = False
        done: list[tuple[tuple, dict]] = []
        for i, (lm, p) in enumerate(current):
            # ascending as it stands until the first pass changes something
            reducers = done + current[i + 1:]
            if changed or not first_pass:
                reducers.sort(key=lambda t: keyf(t[0]))
            r = _reduce_full(p, reducers, order, field)
            if not r:
                changed = True
                continue
            rlm = next(iter(r))
            changed = changed or rlm != lm
            done.append((rlm, _monic(r, rlm, field)))
        current = done
        if not changed:
            return sorted(current, key=lambda t: keyf(t[0]), reverse=True)
        first_pass = False


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
        rest = _interreduce(rest, order, field)
        if any(lm == one_mono for lm, _ in rest):
            return list(unit)
    start = [(lm, _monic(p, lm, field)) for lm, p in prefix + rest]
    if not start:
        return []

    polys: list[dict] = []
    lms: list[tuple] = []
    prefix_ids: set[int] = set()
    G: set = set()
    B: dict = {}
    insert_order = sorted(range(len(start)), key=lambda i: keyf(start[i][0]))
    for i in insert_order:
        idx = len(polys)
        lms.append(start[i][0])
        polys.append(start[i][1])
        if i < len(prefix):
            prefix_ids.add(idx)
        G, B = _update(G, B, idx, lms)
    if prefix_ids:
        B = {pr: lcm for pr, lcm in B.items()
             if not (pr[0] in prefix_ids and pr[1] in prefix_ids)}

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
        s = _spoly(polys[i], lms[i], polys[j], lms[j], field)
        if not s:
            continue
        if reducers is None:
            reducers = sorted(((lms[g], polys[g]) for g in G), key=lambda t: keyf(t[0]))
        h = _reduce_full(s, reducers, order, field)
        if not h:
            continue
        lm = next(iter(h))
        if stop_on_unit and lm == one_mono:
            return list(unit)
        idx = len(polys)
        polys.append(_monic(h, lm, field))
        lms.append(lm)
        G, B = _update(G, B, idx, lms)
        for pr, lcm in B.items():
            if pr[0] == idx:
                heappush(queue, (keyf(lcm), pr))
        reducers = None

    return [p for _, p in _interreduce([(lms[g], polys[g]) for g in G], order, field)]


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
        self._reducers: dict[TermOrder, list[tuple[tuple, dict]]] = {}
        self._numerator: tuple[int, ...] | None = None

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
        reducers = self._reducers.get(order)
        if reducers is None:
            # written once, like the basis cache; it shares the basis's term dicts
            keyf = order.key()
            reducers = sorted(((g.leading_monomial(order), g._terms)
                               for g in self.groebner_basis(order)),
                              key=lambda t: keyf(t[0]))
            reducers = self._reducers.setdefault(order, reducers)
        r = _reduce_full(f._terms, reducers, order, self.ring.field)
        return Polynomial._make(self.ring, r)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def hilbert_numerator(self) -> tuple[int, ...]:
        """N(T) with HS(S/LT(I)) = N(T)/(1-T)^n, LT taken in degrevlex."""
        if self._numerator is None:
            # written once, like the basis cache: a second computation agrees
            self._numerator = _hilbert_numerator(g.leading_monomial(DEGREVLEX)
                                                 for g in self.groebner_basis(DEGREVLEX))
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


_RABINOWITSCH = "Rabinowitsch"
_WITNESS_BOUND = 8


def _extend(H: IdealHandle, polys: list[Polynomial]) -> IdealHandle:
    """H + (polys), its degrevlex basis grown from H's cached one."""
    gb = H.groebner_basis(DEGREVLEX)
    seeds = [dict(g._terms) for g in gb] + [dict(p._terms) for p in polys]
    basis = _buchberger(seeds, H.ring.arity, DEGREVLEX, H.ring.field, gb_prefix=len(gb))
    out = IdealHandle(H.ring, H.generators + tuple(polys))
    out._cache[DEGREVLEX] = tuple(Polynomial._make(H.ring, p) for p in basis)
    return out


def _radical_chain(gens, I: IdealHandle):
    """Certify every generator in rad(I), link by link; None if one is not in it.

    Returns the links ``(g, k)`` with g^k in I + (generators certified
    before g), or ``(g, "Rabinowitsch")`` when only the Rabinowitsch trick
    closed g, in the order they were certified.  Levels k = 1.._WITNESS_BOUND
    are swept over all open generators; those closed at some k > 1 join H in
    one batch while others stay open, and the open ones restart at k = 1.
    (A generator closed at k = 1 already lies in H.)  When a whole sweep
    closes nothing, the first open generator goes to Rabinowitsch against H.
    """
    H = I
    pending = list(gens)
    links = []
    while pending:
        powers = list(pending)
        closed = []
        for k in range(1, _WITNESS_BOUND + 1):
            if k > 1:
                powers = [p * g for g, p in zip(pending, powers)]
            still, still_powers = [], []
            for g, p in zip(pending, powers):
                if H.contains(p):
                    links.append((g, k))
                    if k > 1:
                        closed.append(g)
                else:
                    still.append(g)
                    still_powers.append(p)
            pending, powers = still, still_powers
            if closed or not pending:
                break
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
    """Decide f in rad(I): the radical chain of the single generator f."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial lives in a different ring")
    if f.is_zero():
        return RadicalCertificate(True, witness_k=1)
    links = _radical_chain([f], I)
    if links is None:
        return RadicalCertificate(False, rabinowitsch=True)
    (_, k), = links
    if k == _RABINOWITSCH:
        return RadicalCertificate(True, witness_k=None, rabinowitsch=True)
    return RadicalCertificate(True, witness_k=k)


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


def _certify(seeds: list[dict], basis: list[dict], order: TermOrder, field) -> None:
    """Raise unless the monic ``basis``, built from ``seeds``, is a Groebner
    basis of (seeds): Buchberger's criterion, replayed by plain reductions of
    every seed and of the S-polynomial of every pair of basis elements whose
    leading monomials are not coprime.  A failure is an engine defect."""
    keyf = order.key()
    reducers = sorted(((max(p, key=keyf), p) for p in basis), key=lambda t: keyf(t[0]))
    spolys = (_spoly(f, lmf, g, lmg, field) for i, (lmf, f) in enumerate(reducers)
              for lmg, g in reducers[i + 1:] if not mono_coprime(lmf, lmg))
    if any(_reduce_full(p, reducers, order, field) for p in chain(seeds, spolys)):
        raise ScrollstciError("Groebner basis failed its Buchberger-criterion replay")


def saturate(I: IdealHandle, f: Polynomial) -> IdealHandle:
    """I : f^infinity: the t-free part of the basis of I + (1 - t*f) in
    ``block_order(1)`` (t is the first variable), certified by ``_certify``."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial lives in a different ring")
    if f.is_zero():
        raise ScrollstciError("cannot saturate by zero")
    ring = I.ring
    tname = ring.fresh_name("t")
    ext = ring.extended([tname])
    rab = ext.one() - ext.variable(tname) * transport(f, ext)
    seeds = [dict(transport(g, ext)._terms) for g in I.generators] + [dict(rab._terms)]
    order = block_order(1)
    basis = _buchberger(seeds, ext.arity, order, ext.field)
    _certify(seeds, basis, order, ext.field)
    return IdealHandle(ring, [transport(Polynomial._make(ext, p), ring)
                              for p in basis if all(m[0] == 0 for m in p)])


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


def _hilbert_numerator(monomials) -> tuple[int, ...]:
    """Coefficients, by degree, of N(T) with HS(S/(monomials)) = N(T)/(1-T)^n.

    The pivot recursion (Bayer & Stillman, JSC 14, 1992; Bigatti, JPAA 119,
    1997): generators coprime to all others each contribute a factor
    1 - T^deg, and otherwise, for the variable x met by most generators,
    N(I) = N(I + (x)) + T*N(I : x), with N(I + (x)) = (1 - T)*N(generators
    free of x).  Ideals met twice in one call are computed once.
    """
    deadline = _DEADLINE.get()
    memo: dict = {}

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
        cached = memo.get(gens)
        if cached is not None:
            return cached
        support = [sum(1 for m in gens if m[x]) for x in range(len(gens[0]))] if gens else []
        free, tied = [], []
        for m in gens:
            (free if all(support[x] == 1 for x, e in enumerate(m) if e) else tied).append(m)
        if tied:
            x = max(range(len(support)), key=support.__getitem__)
            without = times_one_minus(numerator(tuple(m for m in tied if not m[x])), 1)
            quotient = numerator(minimal(m[:x] + (m[x] - 1,) + m[x + 1:] if m[x] else m
                                         for m in tied))
            out = without + [0] * (len(quotient) + 1 - len(without))
            for i, c in enumerate(quotient):
                out[i + 1] += c
        else:
            out = [1]
        for m in free:
            out = times_one_minus(out, mono_deg(m))
        memo[gens] = out
        return out

    coeffs = numerator(minimal(monomials))
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


def certify_intersection(C: IdealHandle, A: IdealHandle, B: IdealHandle) -> bool:
    """True when C = A ∩ B is proved; False when the proof does not go through.

    The proof needs homogeneous generators throughout.  Every generator of C
    reduces to zero modulo A and modulo B, so C lies in A ∩ B; and the Hilbert
    numerators of the degrevlex leading-term ideals satisfy
    N(C) = N(A) + N(B) - N(A + B), which is N(A ∩ B) by the exact sequence
    0 -> S/(A ∩ B) -> S/A (+) S/B -> S/(A + B) -> 0.  A graded inclusion with
    equal Hilbert series is an equality.  The basis of A + B is grown from A's
    cached one; C keeps the degrevlex basis and the numerator computed here,
    and the numerators A and B already carry are not computed again.
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

    nums = [I.hilbert_numerator() for I in (C, A, B, _extend(A, list(B.groebner_basis())))]
    size = max(map(len, nums))
    nums = [n + (0,) * (size - len(n)) for n in nums]
    return all(c == a + b - s for c, a, b, s in zip(*nums))


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
    """rad(I) == rad(J): equal reduced bases, or a radical chain both ways.

    Ideals of different Krull dimension have different radicals, and the
    answer is False without a chain.  Otherwise the chain of I's generators
    into J certifies rad(I) within rad(J) (and the reverse chain the
    converse), each link a normal-form test against J grown by the links
    before it, with the Rabinowitsch trick as fallback and as the chain's
    route to False.
    """
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    if I.groebner_basis() == J.groebner_basis():
        return True
    if _dimension(I) != _dimension(J):
        return False
    return (_radical_chain(I.generators, J) is not None
            and _radical_chain(J.generators, I) is not None)
