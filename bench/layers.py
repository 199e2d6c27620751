"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public functions listed in ``LAYERS`` with
timing wrappers, in every ``scrollstci`` module that holds a reference to
them (modules import each other's functions by name), and ``uninstall()``
puts the originals back.  Each wrapped call appends one span
``(name, start, end, parent)`` to an in-memory list; ``metrics()`` turns the
spans of the traced passes into per-pass layer figures.  The program's
source is not touched.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from functools import wraps

# span name -> (module, attribute path) of every callable timed under it
LAYERS = {
    "cli.run": [("cli", "run")],
    "poly.parse": [("poly", "parse")],
    "poly.linear_span": [("poly", "LinearSpan.__init__"), ("poly", "LinearSpan.residual"),
                         ("poly", "linear_span_dim")],
    "oracle.groebner_basis": [("oracle", "IdealHandle.groebner_basis")],
    "oracle.normal_form": [("oracle", "IdealHandle.normal_form")],
    "oracle.ideal_member": [("oracle", "ideal_member")],
    "oracle.radical_member": [("oracle", "radical_member")],
    "oracle.radical_equal": [("oracle", "radical_equal")],
    "oracle.intersect": [("oracle", "intersect")],
    "oracle.eliminate": [("oracle", "eliminate")],
    "oracle.saturate": [("oracle", "saturate")],
    "scroll.classify_modulo": [("scroll", "classify_modulo")],
    "scroll.verdi_generators": [("scroll", "verdi_generators")],
    "linjoin.validate": [("linjoin", "validate")],
    "linjoin.intersection_ideal": [("linjoin", "intersection_ideal")],
    "linjoin.full_ideal": [("linjoin", "full_ideal")],
    "synth.tilde_decompose": [("synth", "tilde_decompose")],
    "synth.tableau_generators": [("synth", "tableau_generators")],
    "synth.synthesize": [("synth", "synthesize")],
    "lattice.lattice_ideal": [("lattice", "lattice_ideal")],
}

# (metric, unit) in report order; self_s and ratios are per traced pass
PER_LAYER = [
    ("cli.run.self_s", "s"),
    ("poly.parse.calls", "count"),
    ("poly.parse.self_s", "s"),
    ("poly.linear_span.self_s", "s"),
    ("oracle.groebner_basis.calls", "count"),
    ("oracle.groebner_basis.cache_hits", "count"),
    ("oracle.groebner_basis.self_s", "s"),
    ("oracle.groebner_basis.max_size", "count"),
    ("oracle.normal_form.calls", "count"),
    ("oracle.normal_form.self_s", "s"),
    ("oracle.radical_member.calls", "count"),
    ("oracle.radical_member.self_s", "s"),
    ("oracle.radical_member.witness_ratio", "ratio"),
    ("oracle.radical_equal.self_s", "s"),
    ("oracle.intersect.calls", "count"),
    ("oracle.intersect.self_s", "s"),
    ("oracle.eliminate.self_s", "s"),
    ("oracle.saturate.self_s", "s"),
    ("scroll.classify_modulo.calls", "count"),
    ("scroll.classify_modulo.self_s", "s"),
    ("scroll.verdi_generators.self_s", "s"),
    ("linjoin.validate.calls", "count"),
    ("linjoin.validate.self_s", "s"),
    ("linjoin.intersection_ideal.self_s", "s"),
    ("linjoin.full_ideal.self_s", "s"),
    ("synth.tilde_decompose.self_s", "s"),
    ("synth.tableau_generators.self_s", "s"),
    ("synth.synthesize.self_s", "s"),
    ("lattice.lattice_ideal.self_s", "s"),
    ("lattice.lattice_ideal.memberships", "count"),
    ("trace.overhead_ratio", "ratio"),
]


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.gb_max = 0
        self.gb_hits = 0
        self.witnessed = 0
        self._gb_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans ----------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
        return wrapper

    def _observe(self, name: str, fn):
        """Counters read at the boundary: basis size, cache hits, witnesses."""
        if name == "oracle.groebner_basis":
            seen, default = self._gb_seen, fn.__defaults__[0]

            @wraps(fn)
            def gb(handle, order=default):
                orders = seen.setdefault(handle, set())
                if order in orders:
                    self.gb_hits += 1
                orders.add(order)
                out = fn(handle, order)
                self.gb_max = max(self.gb_max, len(out))
                return out
            return gb
        if name == "oracle.radical_member":
            @wraps(fn)
            def rm(*args, **kwargs):
                cert = fn(*args, **kwargs)
                if cert.witness_k is not None:
                    self.witnessed += 1
                return cert
            return rm
        return fn

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "scrollstci" or k.startswith("scrollstci.")}
        for name, targets in LAYERS.items():
            for modname, path in targets:
                owner, attr = _resolve(mods[f"scrollstci.{modname}"], path)
                original = owner.__dict__[attr]
                wrapped = self._wrap(name, self._observe(name, original))
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                if isinstance(owner, type):
                    continue
                # functions imported by name into other modules
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reporting --------------------------------------------------------------------

    def metrics(self, passes: int, overhead: float) -> dict:
        spans = self.spans
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        self_s: dict = {}
        calls: dict = {}
        lattice_member = 0
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - children[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "oracle.ideal_member" and self._under(i, "lattice.lattice_ideal"):
                lattice_member += 1
        rm_calls = calls.get("oracle.radical_member", 0)
        values = {
            "oracle.groebner_basis.cache_hits": self.gb_hits / passes,
            "oracle.groebner_basis.max_size": self.gb_max,
            "oracle.radical_member.witness_ratio": self.witnessed / rm_calls if rm_calls else 0.0,
            "lattice.lattice_ideal.memberships": lattice_member / passes,
            "trace.overhead_ratio": overhead,
        }
        out = {}
        for metric, unit in PER_LAYER:
            if metric in values:
                value = values[metric]
            else:
                layer, _, kind = metric.rpartition(".")
                value = (self_s if kind == "self_s" else calls).get(layer, 0) / passes
            out[metric] = {"value": value, "unit": unit}
        return out

    def _under(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
