"""`scroll.classify_modulo` against the two-routine classifier it replaced.

Both must give the same `to_json()` (case, indices, alpha, witnesses, forms,
secondary matches and the `inner` recursion) or raise the same exception class,
on a seeded corpus of scroll matrices against spans over QQ and F_7.
"""

import random
from collections import Counter
from functools import lru_cache

import pytest

import reference_classify
from scrollstci.poly import QQ, Fp, Ring
from scrollstci.scroll import ScrollBlock, ScrollMatrix, classify_modulo

FIELDS = {"QQ": QQ, "F7": Fp(7)}
CASES = 1000
SCALES = (0, 1, 1, 2, -1, 3)


def outcome(classify, matrix, delta):
    try:
        return "classified", classify(matrix, delta).to_json()
    except Exception as exc:  # the outcome compared is the exception's class
        return "raised", type(exc)


def residual_pattern(rng, widths, ring):
    """One residual form per entry: the H of L = L' + H, L' in the span."""
    h, k, zero = ring.variable("h"), ring.variable("k"), ring.zero()

    def form():
        return h * rng.choice(SCALES) + k * rng.choice(SCALES)

    alpha = rng.choice((1, 2, 3, -1, -2))
    mode = rng.choice(("geometric", "row1", "row2", "two_forms", "per_block", "noise"))
    h1, h2 = form(), form()
    out = []
    for c in widths:
        n = c + 2
        kind = mode if mode != "per_block" else rng.choice(
            ("geometric", "geometric", "inside", "noise"))
        if kind == "geometric":  # H, alpha H, alpha^2 H, ... with a per-block H
            H = form()
            res = [H * alpha ** j for j in range(n)]
        elif kind == "row1":  # row 1 inside: only the last entry leaves the span
            res = [zero] * (n - 1) + [form()]
        elif kind == "row2":  # row 2 inside: only the first entry leaves the span
            res = [form()] + [zero] * (n - 1)
        elif kind == "two_forms":  # column a*(h1, h2)
            a = rng.choice(SCALES)
            res = [(h1 if j % 2 == 0 else h2) * a for j in range(n)]
        elif kind == "inside":
            res = [zero] * n
        else:
            res = [form() for _ in range(n)]
        out.append(res)
    if rng.random() < 0.15:  # one entry inside the span
        block = rng.choice(out)
        block[rng.randrange(len(block))] = zero
    return out


def random_case(rng, field):
    widths = [rng.choice((0, 0, 1, 2)) for _ in range(rng.randint(1, 4))]
    n = sum(c + 2 for c in widths)
    ring = Ring(tuple(f"d{i}" for i in range(n)) + ("h", "k"), field)
    d = [ring.variable(f"d{i}") for i in range(n)]
    residuals = residual_pattern(rng, widths, ring)
    blocks, i = [], 0
    for res in residuals:
        entries = []
        for r in res:
            base = d[i] if rng.random() < 0.85 else d[i] + d[rng.randrange(n)]
            if not r.is_zero() and rng.random() < 0.1:
                base = base * 0  # the entry is its residual alone
            entries.append(base + r if not (base + r).is_zero() else d[i])
            i += 1
        blocks.append(ScrollBlock(tuple(entries)))
    delta = list(d)
    if rng.random() < 0.3:  # the same span in another basis
        delta = [d[j] + sum((d[m] * rng.randint(-2, 2) for m in range(j + 1, n)), ring.zero())
                 for j in range(n)]
        rng.shuffle(delta)
    if rng.random() < 0.15:  # a form dropped from the span
        delta.pop(rng.randrange(n))
    return ScrollMatrix(tuple(blocks)), delta


@lru_cache(maxsize=None)
def corpus(name):
    rng = random.Random(f"classify-{name}")
    return [random_case(rng, FIELDS[name]) for _ in range(CASES)]


def seen(doc, counts):
    counts[doc["case"]] += 1
    counts.update(f"secondary {s['case']}" for s in doc.get("secondary", ()))
    # a generic block inside the span of a mixed matrix stays, with no H
    counts["witness without H"] += sum(w["H"] is None for w in doc.get("witnesses", ()))
    if "inner" in doc:
        counts["inner"] += 1
        seen(doc["inner"], counts)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_classification_matches_the_two_routine_classifier(name):
    counts = Counter()
    for matrix, delta in corpus(name):
        new = outcome(classify_modulo, matrix, delta)
        assert new == outcome(reference_classify.classify_modulo, matrix, delta), \
            (matrix.to_json(), [str(f) for f in delta])
        assert new[0] == "classified"
        seen(new[1], counts)
    for case in ("not_contained", "row_in_delta", "block_in_delta", "H_alpha",
                 "generic_line", "generic_column_deleted", "generic_shared_alpha",
                 "generic_two_forms", "secondary generic_two_forms",
                 "secondary block_in_delta", "secondary generic_column_deleted",
                 "secondary row_in_delta", "inner", "witness without H"):
        assert counts[case] > 0, (case, counts)

