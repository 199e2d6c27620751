from fractions import Fraction
from pathlib import Path

import pytest

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES_DIR


def evaluate(p, point):
    """Evaluate a polynomial at a scalar point; every ring variable must be
    assigned.  An independent point check: it multiplies out each term."""
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


def assert_canonical(scalars, field) -> None:
    """QQ: each scalar an int, or a Fraction whose denominator is not 1;
    F_p: each an int in [0, p)."""
    for c in scalars:
        if field.kind == "QQ":
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
        else:
            assert type(c) is int and 0 <= c < field.p, c
