"""Per-layer tracing, installed from outside the library.

``Tracer.install`` replaces the public entry points of the package's
modules with recording wrappers; ``uninstall`` puts the originals back.
A function imported by name into other modules (``kernel_basis`` into
``cech`` and ``splitter``, ``chart_divexact`` into ``lmatrix``) is wrapped
at every module that holds it.  The library source is never touched, and
a name a later refactor removes is skipped, so its metrics read 0.

Three kinds of wrapper, by how often the call runs:

* spans, for calls made at most a few hundred times per query.  A span is
  ``[name, start, end, parent index, query id]``; spans stay in memory
  until the run ends, then reduce to calls, inclusive time and self time
  (duration minus the direct child spans).
* timers, for ``LaurentPoly`` calls made tens of thousands of times per
  query: a call count and inclusive time, no span objects.
* counters, for ``GaussianRational`` operators: a call count only.

Wrappers record only between ``begin`` and ``end``, so the benchmark's own
answer checks are not traced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (module, attribute, layer name).  "Class.method" patches the class.
SPANS = [
    ("splitter", "grothendieck_split", "splitter.grothendieck_split"),
    ("splitter", "verify_factorization", "splitter.verify_factorization"),
    ("splitter", "minimal_twist", "splitter.minimal_twist"),
    ("splitter", "extract_section", "splitter.extract_section"),
    ("lmatrix", "LaurentMatrix.det", "lmatrix.det"),
    ("lmatrix", "LaurentMatrix.inverse", "lmatrix.inverse"),
    ("lmatrix", "LaurentMatrix.__mul__", "lmatrix.matmul"),
    ("lmatrix", "unimodular_complete", "lmatrix.unimodular_complete"),
    ("lmatrix", "is_unimodular", "lmatrix.is_unimodular"),
    ("lmatrix", "ScalarMatrix.__init__", "lmatrix.scalar_matrix"),
    ("lmatrix", "kernel_basis", "lmatrix.kernel_basis"),  # + ".<calling module>"
    ("bundle", "VectorBundle.__init__", "bundle.validate"),
    ("bundle", "VectorBundle.dual", "bundle.dual"),
    ("bundle", "VectorBundle.twist", "bundle.twist"),
    ("cech", "h0_dim", "cech.h0_dim"),
    ("cech", "h1_dim_oracle", "cech.h1_dim_oracle"),
    ("cech", "h0_profile", "cech.h0_profile"),
    ("text", "parse_bundle", "text.parse_bundle"),
    ("text", "format_factorization", "text.format_factorization"),
    ("cli", "main", "cli.main"),
]
TIMERS = [
    ("laurent", "LaurentPoly.__mul__", "laurent.mul"),
    ("laurent", "chart_divexact", "laurent.divexact"),
    ("laurent", "poly_gcd_bezout", "laurent.gcd_bezout"),
]
COUNTERS = [
    ("exact", f"GaussianRational.{op}", "exact.ops")
    for op in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "inverse",
    )
]
KERNEL_SITES = ("cech", "splitter")

# Inputs kept for the replay timings, bounded so memory stays small.
KERNEL_CAPTURE_CELLS = 4_000_000
INVERSE_CAPTURE_MAX = 2_000
# Every HARVEST_EVERY-th traced Q(i) multiply keeps its operands.
HARVEST_EVERY = 257
HARVEST_MAX = 4_000
MULADD_OPS = 20_000  # operations timed per muladd figure, at least


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.active = False
        self.query = -1
        self.spans = []
        self.stack = []
        self.leaf_calls = defaultdict(int)
        self.leaf_time = defaultdict(float)
        self.kernel_cells = defaultdict(lambda: [0, 0])  # site -> [sum, max]
        self.kernel_inputs = []
        self._kernel_budget = KERNEL_CAPTURE_CELLS
        self.inverse_inputs = []
        self.harvest = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def begin(self, query_id):
        self.query = query_id
        self.active = True

    def end(self):
        self.active = False

    def _span(self, name, fn, hook=None):
        tracer, spans, stack = self, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.query]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()

        return wrapper

    def _timer(self, name, fn):
        tracer, calls, times = self, self.leaf_calls, self.leaf_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += perf() - t
                calls[name] += 1

        return wrapper

    def _counter(self, name, fn, harvest):
        tracer, calls, kept = self, self.leaf_calls, self.harvest
        gaussian = self.lib.GaussianRational

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.active:
                calls[name] += 1
                if (
                    harvest
                    and calls[name] % HARVEST_EVERY == 0
                    and len(kept) < HARVEST_MAX
                    and isinstance(args[1], gaussian)
                ):
                    kept.append(args)
            return fn(*args)

        return wrapper

    def _kernel_hook(self, site):
        cells = self.kernel_cells[site]

        def hook(args):
            m = args[0]
            n = m.rows * m.cols
            cells[0] += n
            cells[1] = max(cells[1], n)
            if n <= self._kernel_budget:
                self._kernel_budget -= n
                self.kernel_inputs.append(m)

        return hook

    def _inverse_hook(self, args):
        if len(self.inverse_inputs) < INVERSE_CAPTURE_MAX:
            self.inverse_inputs.append(args[0])

    # -- installation ------------------------------------------------------

    def _modules(self):
        return {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name == "p1bundles" or name.startswith("p1bundles.")
        }

    def _sites(self, modules, module, attr):
        """(owner, key, original) for every place holding the target."""
        home = modules.get(module)
        if home is None:
            return []
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(home, cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            return [] if fn is None else [(cls, method, fn)]
        fn = getattr(home, attr, None)
        if fn is None:
            return []
        return [
            (mod, key, fn)
            for mod in modules.values()
            for key, value in list(vars(mod).items())
            if value is fn
        ]

    def install(self):
        modules = self._modules()
        for module, attr, name in SPANS:
            for owner, key, fn in self._sites(modules, module, attr):
                hook = None
                label = name
                if name == "lmatrix.kernel_basis":
                    site = owner.__name__.rpartition(".")[2]
                    label = f"{name}.{site}"
                    hook = self._kernel_hook(site)
                elif name == "lmatrix.inverse":
                    hook = self._inverse_hook
                self._patch(owner, key, fn, self._span(label, fn, hook))
        for module, attr, name in TIMERS:
            for owner, key, fn in self._sites(modules, module, attr):
                self._patch(owner, key, fn, self._timer(name, fn))
        for module, attr, name in COUNTERS:
            for owner, key, fn in self._sites(modules, module, attr):
                self._patch(owner, key, fn, self._counter(name, fn, key == "__mul__"))

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- reduction ---------------------------------------------------------

    def span_stats(self):
        """Per name: calls, inclusive s (outermost spans only) and self_s."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(spans):
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += end - start - child[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                st["s"] += end - start
        return stats

    def layer_metrics(self):
        stats = self.span_stats()
        out = {}
        names = [name for _, _, name in SPANS if name != "lmatrix.kernel_basis"]
        names += [f"lmatrix.kernel_basis.{site}" for site in KERNEL_SITES]
        for name in names:
            out[f"{name}.calls"] = stats[name]["calls"]
            out[f"{name}.s"] = stats[name]["s"]
        out["splitter.grothendieck_split.self_s"] = stats[
            "splitter.grothendieck_split"
        ]["self_s"]
        out["cech.assembly.self_s"] = sum(
            st["self_s"] for name, st in stats.items() if name.startswith("cech.")
        )
        for site in KERNEL_SITES:
            total, largest = self.kernel_cells[site]
            out[f"lmatrix.kernel_basis.{site}.cells"] = total
            out[f"lmatrix.kernel_basis.{site}.max_cells"] = largest
        for _, _, name in TIMERS:
            out[f"{name}.calls"] = self.leaf_calls[name]
            out[f"{name}.s"] = self.leaf_time[name]
        out["exact.ops"] = self.leaf_calls["exact.ops"]
        return out

    # -- replay ------------------------------------------------------------

    def replay(self):
        """Re-time captured kernel_basis and inverse inputs, untraced."""
        kernel_basis = self.lib.lmatrix.kernel_basis
        t = perf()
        for m in self.kernel_inputs:
            kernel_basis(m)
        kernel_s = perf() - t
        t = perf()
        for m in self.inverse_inputs:
            m.inverse()
        return kernel_s, perf() - t

    def muladd_ns(self):
        """ns per ``a*b + c`` on harvested Q(i) operands and on their
        integer numerators, timed by the same loop."""
        pairs = self.harvest
        if len(pairs) < 2:
            return 0.0, 0.0
        reps = max(1, MULADD_OPS // len(pairs))
        triples = [(a, b, pairs[i - 1][0]) for i, (a, b) in enumerate(pairs)]
        ints = [(a.re.numerator, b.re.numerator, c.re.numerator) for a, b, c in triples]
        return _muladd_loop(triples, reps), _muladd_loop(ints, reps)

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "query"],
                    "names": names,
                    "spans": [[index[s[0]]] + s[1:] for s in self.spans],
                },
                fh,
            )


def _muladd_loop(triples, reps):
    t = perf()
    for _ in range(reps):
        for a, b, c in triples:
            a * b + c
    return (perf() - t) / (reps * len(triples)) * 1e9
