"""The radical chain as it was before its powers were packed.

Each power g^k is a `Polynomial` built by multiplying the last one by g, and
each link is decided by the full normal form of that power against H,
compared with zero.  `scrollstci.oracle._radical_chain` must return the same
links in the same order; `tests/test_oracle.py` checks it against this one.
Growing H and the Rabinowitsch test are the oracle's own.
"""

from scrollstci.oracle import _WITNESS_BOUND, _extend, _rabinowitsch_contains


def radical_chain(gens, I):
    """Links ``(g, k)`` or ``(g, "Rabinowitsch")`` in certification order, or None."""
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
                if H.normal_form(p).is_zero():
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
        links.append((g, "Rabinowitsch"))
        if pending:
            H = _extend(H, [g])
    return links
