from fractions import Fraction
from pathlib import Path

import pytest

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES_DIR


def assert_canonical(scalars, field) -> None:
    """QQ: each scalar an int, or a Fraction whose denominator is not 1;
    F_p: each an int in [0, p)."""
    for c in scalars:
        if field.kind == "QQ":
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
        else:
            assert type(c) is int and 0 <= c < field.p, c
