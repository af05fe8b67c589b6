"""Layer spans recorded from outside the library.

`Tracer.install` replaces a fixed list of coarse public boundaries of each
torica module with timing wrappers and rebinds every module attribute that
held the original (the `from .x import y` copies included); `uninstall`
puts the originals back. Per-point predicates such as `Cone.contains` are
never wrapped: they run millions of times per pass and would drown the
measurement in wrapper cost.

A span's self time is its duration minus the time covered by its child
spans; time in unwrapped callees counts towards the nearest wrapped
caller. `total_s` adds only the outermost call of a recursive function.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("zlinalg", "cone", "polyring", "toric", "divisor", "cohomology", "verification", "cli")

# (module, attribute path). A dotted path names a method; a bare class name
# wraps its constructor.
BOUNDARIES = (
    ("zlinalg", "smith_normal_form"),
    ("zlinalg", "hermite_normal_form"),
    ("zlinalg", "kernel_basis"),
    ("zlinalg", "cokernel_presentation"),
    ("zlinalg", "rank"),
    ("zlinalg", "det"),
    ("zlinalg", "solve_rational"),
    ("zlinalg", "invert_unimodular"),
    ("cone", "Cone.dual_generators"),
    ("cone", "Cone.dual"),
    ("cone", "Cone.rays"),
    ("cone", "Cone.dim"),
    ("cone", "Cone.is_strongly_convex"),
    ("cone", "Cone.hilbert_basis"),
    ("polyring", "Ideal.groebner"),
    ("polyring", "Ideal.normal_form"),
    ("polyring", "saturate"),
    ("polyring", "hilbert_numerator"),
    ("polyring", "is_regular_sequence"),
    ("polyring", "module_regular_sequence"),
    ("polyring", "quotient_dimension"),
    ("polyring", "standard_monomials"),
    ("toric", "toric_ideal"),
    ("toric", "steinberg_ring_mod_l"),
    ("toric", "product_ring"),
    ("toric", "ToricPresentation.lift_lattice_point"),
    ("divisor", "ToricVariety"),
    ("divisor", "ClassGroup"),
    ("divisor", "steinberg_variety"),
    ("divisor", "steinberg_product_variety"),
    ("divisor", "half_canonical"),
    ("divisor", "module_generators"),
    ("divisor", "multiplicity"),
    ("divisor", "steinberg_multiplicity"),
    ("divisor", "trace_surjectivity_witness"),
    ("divisor", "module_is_maximal_cohen_macaulay"),
    ("divisor", "enumerate_mcm_rank_one_candidates"),
    ("cohomology", "h_dim_product"),
    ("cohomology", "danilov_violations"),
    ("cohomology", "check_danilov_hypothesis"),
    ("verification", "run_checks"),
    ("cli", "main"),
)

# Methods that return a per-object cached result. Their repeat calls on an
# object are counted but not timed (the caller keeps that time), and
# `fresh` counts first calls per object, so 1 - fresh/calls is the cache
# hit ratio seen from outside.
PER_OBJECT_CACHED = {"cone.dual_generators", "polyring.groebner"}


class Tracer:
    """Spans and per-boundary statistics of the traced passes of one run."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in MODULES}
        self._saved = []
        self.keep_spans = False
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self):
        """Start a new pass: clear statistics, per-object memory and spans."""
        self.calls = defaultdict(int)
        self.fresh = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.spans = []
        self._seen = {}  # id -> object; holding the object keeps its id unique
        self._stack = []  # [name, start, child_time, span_index]
        self._active = defaultdict(int)
        self.op = None

    def begin_op(self, op_id):
        """Spans of one operation share `op_id`; a timed-out op leaves no open spans."""
        self.op = op_id
        while self._stack:
            self._active[self._stack.pop()[0]] -= 1

    def _enter(self, name):
        index = None
        if self.keep_spans:
            parent = self._stack[-1][3] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._active[name] += 1
        frame = [name, perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = perf_counter()
        name, start, child, index = frame
        if self._stack and self._stack[-1] is frame:
            self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self._active[name] -= 1
        if self._active[name] == 0:
            self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            self.spans[index][1:3] = [start, end]

    def _wrap(self, name, fn):
        tracer = self
        if name in PER_OBJECT_CACHED:

            @functools.wraps(fn)
            def cached(obj, *args, **kwargs):
                tracer.calls[name] += 1
                if id(obj) in tracer._seen:
                    return fn(obj, *args, **kwargs)
                tracer._seen[id(obj)] = obj
                tracer.fresh[name] += 1
                frame = tracer._enter(name)
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    tracer._exit(frame)

            return cached

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            tracer.calls[name] += 1
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return timed

    # -- installation -------------------------------------------------------

    def install(self):
        if self._saved:
            return
        namespaces = [self.package] + list(self.modules.values())
        for module_name, path in BOUNDARIES:
            module = self.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:  # method on a class
                owner = getattr(module, owner_name)
                name = f"{module_name}.{attr}"
                self._replace(owner, attr, self._wrap(name, owner.__dict__[attr]))
            elif isinstance(getattr(module, attr), type):  # constructor
                owner = getattr(module, attr)
                name = f"{module_name}.{attr}"
                self._replace(owner, "__init__", self._wrap(name, owner.__dict__["__init__"]))
            else:  # function, rebound wherever it was imported
                original = getattr(module, attr)
                wrapper = self._wrap(f"{module_name}.{attr}", original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._replace(ns, key, wrapper)

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def pass_stats(self):
        """Flat `<module>.<function>.<stat>` and `<module>.self_s` numbers of this pass."""
        out = {}
        module_self = defaultdict(float)
        for name in set(self.calls) | set(self.self_s):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.total_s"] = self.total_s[name]
            if name in PER_OBJECT_CACHED:
                out[f"{name}.fresh"] = self.fresh[name]
            module_self[name.split(".", 1)[0]] += self.self_s[name]
        for module_name in MODULES:
            out[f"{module_name}.self_s"] = module_self[module_name]
        return out

    def span_records(self):
        """Spans of this pass as dicts: name, start, end, parent index and op id."""
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
