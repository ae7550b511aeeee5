"""Span tracing of the library from outside it.

``Tracer.install`` wraps every public function and every public or
arithmetic method of the library's layer modules, plus ``sympy.gcd`` and
``sympy.div``, and wraps each case callable that ``cli.build_cases``
returns.  A wrapper opens a span on entry and closes it on exit.  Spans
are aggregated as they close, per thread: a call count per wrapped name
and a self time per layer, where self time is the span's duration minus
the time covered by its child spans.  Nothing inside the library
changes, and nothing is wrapped until ``install`` is called.
"""

import functools
import importlib
import inspect
import threading
import time

LAYER_MODULES = ("symcore", "padic", "gl2local", "gsp4local", "besselzeta",
                 "branching", "normrel")

# Operator methods are wrapped like public methods.  Aliases such as
# ``__radd__ = __add__`` are separate entries of the class dictionary and
# are wrapped under their own names.
ARITHMETIC = frozenset({"__add__", "__radd__", "__sub__", "__rsub__",
                        "__mul__", "__rmul__", "__truediv__",
                        "__rtruediv__", "__pow__", "__neg__"})


class SpanTotals:
    """Aggregates of the spans closed on one thread.

    ``open``/``close`` take the clock reading as an argument, so the
    arithmetic can be tested with synthetic times.
    """

    def __init__(self):
        self.stack = []      # open spans: [start, time covered by children]
        self.calls = {}      # wrapped name -> closed spans
        self.self_s = {}     # layer -> self time in seconds
        self.counts = {}     # derived counters (see Tracer.install)
        self.case_wall_s = 0.0
        self.case_cpu_s = 0.0

    def open(self, now):
        self.stack.append([now, 0.0])

    def close(self, layer, name, now):
        """Close the innermost span and return its duration."""
        start, covered = self.stack.pop()
        duration = now - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - covered
        self.calls[name] = self.calls.get(name, 0) + 1
        if self.stack:
            self.stack[-1][1] += duration
        return duration

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n


def merge(totals):
    """Sum the per-thread aggregates into one plain dictionary."""
    out = {"calls": {}, "self_s": {}, "counts": {},
           "case_wall_s": 0.0, "case_cpu_s": 0.0}
    for t in totals:
        for field in ("calls", "self_s", "counts"):
            acc = out[field]
            for k, v in getattr(t, field).items():
                acc[k] = acc.get(k, 0) + v
        out["case_wall_s"] += t.case_wall_s
        out["case_cpu_s"] += t.case_cpu_s
    return out


class Tracer:
    """Wraps the library and collects one SpanTotals per thread."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._totals = []

    def state(self):
        """This thread's SpanTotals, created on first use."""
        try:
            return self._local.totals
        except AttributeError:
            totals = SpanTotals()
            with self._lock:
                self._totals.append(totals)
            self._local.totals = totals
            return totals

    def totals(self):
        with self._lock:
            return merge(self._totals)

    def wrap(self, fn, layer, name):
        state, clock = self.state, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            st.open(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                st.close(layer, name, clock())
        return traced

    def wrap_case(self, fn):
        """Span around one case callable; also sums its thread CPU time."""
        state, clock = self.state, self._clock

        def traced_case():
            st = state()
            cpu = time.thread_time()
            st.open(clock())
            try:
                return fn()
            finally:
                st.case_wall_s += st.close("cli", "cli.case", clock())
                st.case_cpu_s += time.thread_time() - cpu
        return traced_case

    def _wrap_class(self, cls, layer):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(value, staticmethod):
                setattr(cls, attr,
                        staticmethod(self.wrap(value.__func__, layer, name)))
            elif isinstance(value, classmethod):
                setattr(cls, attr,
                        classmethod(self.wrap(value.__func__, layer, name)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(value, layer, name))

    def install(self):
        """Wrap the library in place.  Returns the number of module-level
        bindings replaced."""
        import sympy
        modules = {m: importlib.import_module("gsp4verify." + m)
                   for m in LAYER_MODULES + ("cli",)}
        wrapped = {}        # id(original) -> (original, wrapper)
        for layer in LAYER_MODULES:
            mod = modules[layer]
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_")
                        or getattr(value, "__module__", None) != mod.__name__):
                    continue
                if inspect.isclass(value):
                    self._wrap_class(value, layer)
                elif inspect.isfunction(value):
                    wrapped[id(value)] = (value, self.wrap(
                        value, layer, "%s.%s" % (layer, attr)))
        # RatFunc constructions that reduce all go through this private
        # helper; without it, symcore.normalize.calls reads 0
        normalize = getattr(modules["symcore"], "_normalize_pair", None)
        if normalize is not None:
            wrapped[id(normalize)] = (normalize, self.wrap(
                normalize, "symcore", "symcore.normalize"))
        self._wrap_derived(modules["padic"], wrapped)

        # `from .padic import mat_mul` binds a second name for the same
        # function: rebind the wrapper under every name in every module.
        rebound = 0
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    rebound += 1

        gcd = self.wrap(sympy.gcd, "sympy", "sympy.gcd")

        def traced_gcd(*args, **kwargs):
            g = gcd(*args, **kwargs)
            if g != 1:
                self.state().count("sympy.gcd.nontrivial")
            return g
        sympy.gcd = traced_gcd
        sympy.div = self.wrap(sympy.div, "sympy", "sympy.div")

        cli = modules["cli"]
        build_cases = cli.build_cases

        def traced_build_cases(config):
            return [(s, c, p, self.wrap_case(fn))
                    for s, c, p, fn in build_cases(config)]
        cli.build_cases = traced_build_cases
        return rebound

    def _wrap_derived(self, padic, wrapped):
        """Count the cosets enumerate_double_coset returns and the hnf_key
        calls made under it."""
        hnf = "padic.hnf_key"
        edc = self.wrap(padic.enumerate_double_coset, "padic",
                        "padic.enumerate_double_coset")

        def traced_edc(*args, **kwargs):
            st = self.state()
            before = st.calls.get(hnf, 0)
            reps = edc(*args, **kwargs)
            st.count("padic.cosets", len(reps))
            st.count("padic.coset_hnf_key", st.calls.get(hnf, 0) - before)
            return reps
        original = padic.enumerate_double_coset
        wrapped[id(original)] = (original,
                                 functools.wraps(original)(traced_edc))
