"""The Groebner kernel on exponent tuples, as it was before monomials were packed.

The packed kernel in `scrollstci.oracle` must reduce the same S-pairs in the
same order and return the same reduced bases; `tests/test_oracle.py` checks
it against this one.
"""

from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub

from scrollstci.poly import _DEADLINE, TermOrder, _check_deadline


def descending_key(order: TermOrder):
    """A key that ranks the largest monomial first: it compares two monomials
    the other way round from ``order.key()``, as a heap needs."""
    if order.kind == "lex":
        return lambda m: tuple(map(neg, m))
    if order.kind == "deglex":
        return lambda m: (-sum(m), tuple(map(neg, m)))
    if order.kind == "degrevlex":
        return lambda m: (-sum(m), m[::-1])
    k = order.block
    return lambda m: (tuple(map(neg, m[:k])), -sum(m[k:]), m[k:][::-1])


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def mono_coprime(a: tuple, b: tuple) -> bool:
    return not any(map(min, a, b))


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
    dkey = descending_key(order)
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
