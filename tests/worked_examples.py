"""The paper's worked examples, read from the shipped files under ``fixtures/``.

Each file is loaded the way the CLI loads it: a spec through
`TwoLinearSpec.from_json`, a generator list through `parse` in the spec's
ring, a lattice basis through `LatticeBasis`.  ``fixtures/README.md`` gives
the facts each example carries.  The two families below reach beyond the
shipped files; each builds its spec as a ``from_json`` document, and one
member of each is shipped (``test_fixture_files_round_trip`` holds them
equal).
"""

import json

from scrollstci.lattice import LatticeBasis
from scrollstci.linjoin import TwoLinearSpec
from scrollstci.poly import parse
from scrollstci.scroll import minors_2x2

from conftest import FIXTURES_DIR

# the shipped spec files, in the order ``spec_outputs.json`` records them
SPECS = (
    "example-curve-1", "example-curve-2", "example-qprime", "example-square-block",
    "example-two-rows", "example-barile", "example-eisenbud-evans",
    "example-coordinate-lines", "example-fiber-shape",
)


def _load(name):
    return json.loads((FIXTURES_DIR / f"{name}.json").read_text())


def spec(name) -> TwoLinearSpec:
    """The shipped spec ``fixtures/{name}.json``."""
    return TwoLinearSpec.from_json(_load(name))


def presentation(spec, k=None) -> list:
    """The scroll minors of components 1..k (default l), then the
    Delta_j x P_j products, j = 2..k: for k = l the generators ``full_ideal``
    certifies, built directly from the components."""
    comps = spec.components[:k]
    minors = [m for comp in comps if comp.scroll is not None and comp.scroll.ncols >= 2
              for m in minors_2x2(comp.scroll)]
    return minors + [f * g for comp in comps[1:] for f in comp.delta for g in comp.p_forms]


def qprime_generators() -> list:
    """q1', q2', q3' of ``example-qprime-generators.json``, in the q' ring."""
    ring = spec("example-qprime").ring
    return [parse(ring, text) for text in _load("example-qprime-generators")]


def twisted_cubic_basis() -> LatticeBasis:
    return LatticeBasis(_load("example-twisted-cubic"))


def _scroll_then_space(variables, columns, delta, p) -> TwoLinearSpec:
    """Two components: the scroll with the given 2 x 1 blocks, then (Delta, P)."""
    return TwoLinearSpec.from_json({
        "ring": {"vars": list(variables)},
        "components": [
            {"scroll": {"blocks": [{"entries": list(c)} for c in columns]}},
            {"delta": list(delta), "p": list(p)},
        ],
    })


def barile_spec(n) -> TwoLinearSpec:
    """Generic 2x2 scroll against the coordinate plane (b, d), for n = 1..3.

    Components (ad - bc, e_1..e_n) and (b, d); projective dimension n + 1.
    n = 2 is ``example-barile``.
    """
    delta = ("e", "f", "g")[:n]
    return _scroll_then_space(("a", "b", "c", "d") + delta, (("a", "b"), ("c", "d")),
                              delta, ("b", "d"))


def eisenbud_evans_spec(r, alpha, n_delta=2) -> TwoLinearSpec:
    """Generic 2 x r scroll joined to the coordinate space (x_1..x_{2r-alpha}).

    Projective dimension is dim S - alpha - 1 for alpha <= 2.  r = 2,
    alpha = 1 is ``example-eisenbud-evans``.
    """
    xs = tuple(f"x{i}" for i in range(1, 2 * r + 1))
    ds = tuple(f"d{i}" for i in range(1, n_delta + 1))
    return _scroll_then_space(xs + ds, [(f"x{i}", f"x{r + i}") for i in range(1, r + 1)],
                              ds, xs[:2 * r - alpha])
