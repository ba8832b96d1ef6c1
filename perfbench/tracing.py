"""Spans and counters installed from outside the package.

Every boundary is a public function of an `endolab` module.  Installing a
boundary replaces the function object in every `endolab` module namespace
that holds it (so `from .x import f` copies are caught too) and in
`suites.SUITES`.  Spans are aggregated in memory per name: calls, total time,
self time (span time minus the time covered by its child spans) and, per
parent span, the number of direct calls.

The value types get tens of millions of calls, so they are never spanned.
They are counted in a separate counting run, which installs only counters.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, function).  Several functions may share one span name.
SPANS = (
    ("characters.brute_force", "characters", "char_brute_force"),
    ("characters.closed_form", "characters", "char_closed_form"),
    ("characters.describe", "characters", "describe"),
    ("characters.random_element", "characters", "random_affine_generic"),
    ("sums.kloosterman_table", "sums", "kloosterman_table"),
    ("families.family_matrix", "families", "family_matrix"),
    ("families.walds_family", "families", "walds_family"),
    ("families.weyl_disc_val", "families", "weyl_disc_val"),
    ("groups.components", "groups", "simple_affine_components"),
    ("groups.iwahori_level", "groups", "iwahori_level"),
    ("groups.charpoly_checks", "groups", "charpoly_eisenstein_check"),
    ("groups.charpoly_checks", "groups", "twisted_norm_charpoly_check"),
    ("linalg.mat_inv", "linalg", "mat_inv"),
    ("linalg.charpoly", "linalg", "charpoly"),
    ("padic.tame_hilbert", "padic", "tame_hilbert"),
    ("padic.herbrand_compose", "padic", "herbrand_compose"),
    ("endoscopy.delta_iv", "endoscopy", "delta_iv_walds"),
    ("endoscopy.transfer_factor", "endoscopy", "transfer_factor"),
    ("endoscopy.ecr_verify", "endoscopy", "ecr_ram_descent_verify"),
    ("endoscopy.ecr_verify", "endoscopy", "ecr_gl_lift_verify"),
    ("endoscopy.ecr_verify", "endoscopy", "so_even_packet_verify"),
    ("endoscopy.norm_family_check", "endoscopy", "norm_family_check"),
    ("conductors.q_group_check", "conductors", "q_group_check"),
    ("conductors.char_table_checks", "conductors", "char_table_checks"),
    ("conductors.tensor_decompositions", "conductors", "tensor_decompositions"),
    ("conductors.ramification_jumps", "conductors", "ramification_jumps"),
    ("conductors.swan_artin", "conductors", "swan_artin_gamma"),
)

# Call counters (untimed) of the traced run, attributed to the enclosing span.
# `torus_reps` adds the number of representatives each call returns.
CALL_COUNTERS = (
    ("sums.kloosterman_eval", "sums", "kloosterman_eval"),
    ("characters.torus_reps", "characters", "torus_index_set"),
    ("groups.is_affine_generic", "groups", "is_affine_generic"),
    ("groups.in_px_plus", "groups", "in_px_plus"),
    ("conductors.qprime_table", "conductors", "QPrimeTable.__init__"),
)
SIZED_COUNTERS = ("characters.torus_reps",)

# Counters of the counting run: (name, module, function or Class.method).
VALUE_COUNTERS = (
    ("residue.ffelem.count", "residue", "FFElem.__init__"),
    ("residue.quadext.count", "residue", "QuadExtension.__init__"),
    ("residue.make_field.calls", "residue", "make_field"),
    ("padic.localelem_mul.count", "padic", "LocalElem.__mul__"),
    ("padic.localelem_mul.count", "padic", "LocalElem.__rmul__"),
    ("padic.localelem_inv.count", "padic", "LocalElem.inv"),
    ("conductors.cyclo_mul.count", "conductors", "Cyclo.__mul__"),
    ("conductors.cyclo_mul.count", "conductors", "Cyclo.__rmul__"),
    ("linalg.mat_mul.count", "linalg", "mat_mul"),
)


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("endolab") and m]


def _rebind(module: str, attr: str, make_wrapper):
    """Replace endolab.<module>.<attr> (a function, or Class.method) in every
    endolab namespace that binds it.  Raises if it is gone."""
    home = sys.modules[f"endolab.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(home, cls_name)
        setattr(cls, meth, make_wrapper(cls.__dict__[meth]))
        return
    original = getattr(home, attr)
    wrapper = make_wrapper(original)
    for mod in _modules():
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)


class Tracer:
    """Aggregated spans: per name [calls, total_s, self_s], and per
    (parent, child) the number of direct calls."""

    def __init__(self):
        self.stats: dict = {}
        self.edges: dict = {}
        self.sizes: dict = {}
        self._stack: list = []  # [name, time covered by children]

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def _edge(self, name):
        key = (self._parent(), name)
        self.edges[key] = self.edges.get(key, 0) + 1

    def span(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self._edge(name)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[1]
                if stack:
                    stack[-1][1] += d

        return spanned

    def counter(self, name, fn, sized=False):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._edge(name)
            out = fn(*args, **kwargs)
            if sized:
                self.sizes[name] = self.sizes.get(name, 0) + len(out)
            return out

        return counted

    def install(self):
        from endolab import suites

        for name, fn in list(suites.SUITES.items()):
            suites.SUITES[name] = self.span(f"suites.{name}", fn)
        for name, module, attr in SPANS:
            _rebind(module, attr, lambda fn, name=name: self.span(name, fn))
        for name, module, attr in CALL_COUNTERS:
            sized = name in SIZED_COUNTERS
            _rebind(module, attr, lambda fn, n=name, s=sized: self.counter(n, fn, s))

    def calls(self, name) -> int:
        return sum(c for (_, child), c in self.edges.items() if child == name)

    def calls_from(self, parent, name) -> int:
        return self.edges.get((parent, name), 0)


def install_value_counters() -> dict:
    """Install the counting run's counters; returns name -> [count]."""
    counts: dict = {}
    for name, module, attr in VALUE_COUNTERS:
        cell = counts.setdefault(name, [0])

        def make(fn, cell=cell):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        _rebind(module, attr, make)
    return counts
